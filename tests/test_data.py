"""Dataset loading, normalization, batching, and augmentation tests."""

import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.data import (
    CIFAR10_MEAN,
    CIFAR10_STD,
    MNIST_MEAN,
    MNIST_STD,
    Dataset,
    batches,
    denormalize,
    generate_digits,
    load_cifar10,
    load_mnist_idx,
    mnist_dataset,
    normalize,
    synthetic_dataset,
    write_idx,
)
from maskprune.errors import DataError
from maskprune.rng import TAG_SHUFFLE, augment_stream, augment_word, keyed_rng, rekey


class TestSyntheticDigits:
    def test_shapes_and_range(self):
        images, labels = generate_digits(32, seed=0)
        assert images.shape == (32, 1, 28, 28)
        assert labels.shape == (32,)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert set(np.unique(labels)) <= set(range(10))

    def test_deterministic_per_seed(self):
        a, la = generate_digits(16, seed=7)
        b, lb = generate_digits(16, seed=7)
        assert_allclose(a, b, rtol=0, atol=0)
        assert (la == lb).all()
        c, _ = generate_digits(16, seed=8)
        assert not np.allclose(a, c)

    def test_per_sample_independence(self):
        # sample i is a pure function of (seed, i): a longer run starts the
        # same way, which is what makes resumes replayable
        a, la = generate_digits(8, seed=3)
        b, lb = generate_digits(16, seed=3)
        assert_allclose(a, b[:8], rtol=0, atol=0)
        assert (la == lb[:8]).all()

    def test_every_digit_reachable(self):
        _, labels = generate_digits(400, seed=1)
        assert set(np.unique(labels)) == set(range(10))

    def test_dataset_split_statistics(self):
        train, test = synthetic_dataset(200, 50, seed=0)
        assert len(train) == 200 and len(test) == 50
        # both splits normalize with the training statistics
        assert_allclose(train.mean, test.mean, rtol=0)
        assert_allclose(train.std, test.std, rtol=0)
        assert train.name == "synthetic"


class TestIdxFiles:
    def test_round_trip(self, tmp_path):
        images, labels = generate_digits(20, seed=5)
        img_path, lbl_path = write_idx(images, labels, tmp_path / "im.idx",
                                       tmp_path / "lb.idx")
        back_images, back_labels = load_mnist_idx(img_path, lbl_path)
        assert back_images.shape == (20, 1, 28, 28)
        assert (back_labels == labels).all()
        # writing quantizes to bytes
        assert_allclose(back_images, np.round(images * 255) / 255.0, atol=1 / 255.0)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">I", 0x9999) + b"\x00" * 16)
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">II", 0x801, 0))
        with pytest.raises(DataError):
            load_mnist_idx(p, lp)

    def test_count_mismatch_rejected(self, tmp_path):
        images, labels = generate_digits(4, seed=0)
        ip, lp = write_idx(images, labels, tmp_path / "a.idx", tmp_path / "b.idx")
        ip2, _ = write_idx(*generate_digits(6, seed=0), tmp_path / "c.idx",
                           tmp_path / "d.idx")
        with pytest.raises(DataError):
            load_mnist_idx(ip2, lp)

    def test_truncated_images_rejected(self, tmp_path):
        images, labels = generate_digits(4, seed=0)
        ip, lp = write_idx(images, labels, tmp_path / "a.idx", tmp_path / "b.idx")
        blob = ip.read_bytes()
        ip.write_bytes(blob[:-10])
        with pytest.raises(DataError):
            load_mnist_idx(ip, lp)

    def test_mnist_dataset_constants(self, tmp_path):
        images, labels = generate_digits(8, seed=2)
        ip, lp = write_idx(images, labels, tmp_path / "a.idx", tmp_path / "b.idx")
        ds = mnist_dataset(ip, lp)
        assert ds.mean.reshape(()) == MNIST_MEAN[0] == 0.1307
        assert ds.std.reshape(()) == MNIST_STD[0] == 0.3081


def write_cifar_batch(path, n, seed=0):
    """A CIFAR-10 binary batch of ``n`` random records; returns the labels and
    pixels written."""
    rng = np.random.default_rng(seed)
    blob = bytearray()
    labels = rng.integers(0, 10, size=n)
    pixels = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
    for i in range(n):
        blob.append(int(labels[i]))
        blob += pixels[i].tobytes()
    path.write_bytes(bytes(blob))
    return labels, pixels


class TestCifar10:
    _write_batch = staticmethod(write_cifar_batch)

    def test_record_layout(self, tmp_path):
        p = tmp_path / "batch.bin"
        labels, pixels = self._write_batch(p, 5)
        images, got_labels = load_cifar10([p])
        assert images.shape == (5, 3, 32, 32)
        assert (got_labels == labels).all()
        assert_allclose(images[0], pixels[0].reshape(3, 32, 32) / 255.0, rtol=0)

    def test_multiple_files_concatenate(self, tmp_path):
        p1, p2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
        self._write_batch(p1, 3, seed=1)
        self._write_batch(p2, 4, seed=2)
        images, labels = load_cifar10([p1, p2])
        assert images.shape[0] == 7

    def test_ragged_file_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 3000)    # not a multiple of 3073
        with pytest.raises(DataError):
            load_cifar10([p])

    def test_label_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(bytes([11]) + b"\x00" * 3072)
        with pytest.raises(DataError):
            load_cifar10([p])

    def test_constants(self):
        assert_allclose(CIFAR10_MEAN, [0.4914, 0.4822, 0.4465], rtol=0)
        assert_allclose(CIFAR10_STD, [0.2470, 0.2435, 0.2616], rtol=0)


class TestNormalization:
    def test_invertible(self):
        rng = np.random.default_rng(12)
        imgs = rng.uniform(size=(6, 3, 8, 8))
        mean = np.array([0.5, 0.4, 0.3])
        std = np.array([0.2, 0.3, 0.25])
        normed = normalize(imgs, mean, std)
        assert_allclose(denormalize(normed, mean, std), imgs, atol=1e-6)

    def test_per_channel(self):
        imgs = np.ones((1, 2, 2, 2))
        out = normalize(imgs, np.array([1.0, 0.0]), np.array([1.0, 2.0]))
        assert_allclose(out[0, 0], 0.0, rtol=0)
        assert_allclose(out[0, 1], 0.5, rtol=0)


class TestBatches:
    def _tiny(self, n=20):
        rng = np.random.default_rng(0)
        images = rng.uniform(size=(n, 1, 6, 6))
        labels = rng.integers(0, 10, size=n)
        return Dataset("t", images, labels, np.array([0.5]), np.array([0.25]))

    def test_train_drops_remainder(self):
        ds = self._tiny(20)
        got = list(batches(ds, 8, epoch=0, seed=0, train=True))
        assert len(got) == 2
        assert all(x.shape[0] == 8 for x, _ in got)

    def test_eval_keeps_remainder_in_order(self):
        ds = self._tiny(20)
        got = list(batches(ds, 8, epoch=0, seed=0, train=False))
        assert [x.shape[0] for x, _ in got] == [8, 8, 4]
        labels = np.concatenate([y for _, y in got])
        assert (labels == ds.labels).all()

    def test_shuffle_is_epoch_keyed(self):
        ds = self._tiny(16)
        a = np.concatenate([y for _, y in batches(ds, 8, 0, seed=3, train=True)])
        b = np.concatenate([y for _, y in batches(ds, 8, 0, seed=3, train=True)])
        c = np.concatenate([y for _, y in batches(ds, 8, 1, seed=3, train=True)])
        assert (a == b).all()
        assert not (a == c).all()
        # a shuffle is a permutation, not a resample
        assert sorted(a.tolist()) == sorted(ds.labels.tolist())

    def test_rekeyed_generator_matches_a_fresh_stream(self):
        rng = keyed_rng(0, 0)
        for i in range(500):
            # a 32-bit draw leaves a half-used word behind; rekey must drop it
            rng.integers(0, 3, dtype=np.uint32)
            fresh = augment_stream(7, 2, i)
            rekey(rng, 7, augment_word(2, i))
            assert rng.integers(0, 9, size=3).tolist() == fresh.integers(0, 9, size=3).tolist()
            assert rng.integers(0, 2, dtype=np.uint32) == fresh.integers(0, 2, dtype=np.uint32)
            assert rng.normal() == fresh.normal()

    def test_augmentation_deterministic(self):
        ds = self._tiny(16)
        a = [x for x, _ in batches(ds, 8, 2, seed=1, train=True, crop_pad=2, flip=True)]
        b = [x for x, _ in batches(ds, 8, 2, seed=1, train=True, crop_pad=2, flip=True)]
        for xa, xb in zip(a, b):
            assert_allclose(xa, xb, rtol=0, atol=0)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("crop_pad", [0, 2, 4])
    def test_augmentation_matches_per_image_reference(self, crop_pad, flip, channels):
        rng = np.random.default_rng(channels)
        ds = Dataset("t", rng.uniform(size=(24, channels, 7, 9)), rng.integers(0, 10, 24),
                     np.full(channels, 0.5), np.full(channels, 0.25))

        def reference(img, i):
            # one keyed stream per image: oy, ox, then the flip bit
            aug = augment_stream(4, 3, int(i))
            if crop_pad > 0:
                c, h, w = img.shape
                padded = np.pad(img, ((0, 0), (crop_pad, crop_pad), (crop_pad, crop_pad)))
                oy = int(aug.integers(0, 2 * crop_pad + 1))
                ox = int(aug.integers(0, 2 * crop_pad + 1))
                img = padded[:, oy:oy + h, ox:ox + w]
            if flip and aug.integers(0, 2) == 1:
                img = img[:, :, ::-1]
            return img

        order = keyed_rng(4, TAG_SHUFFLE | 3).permutation(24)
        got = list(batches(ds, 8, 3, seed=4, train=True, crop_pad=crop_pad, flip=flip))
        assert len(got) == 3
        for b, (x, y) in enumerate(got):
            idx = order[b * 8:(b + 1) * 8]
            want = np.stack([reference(img, i) for img, i in zip(ds.images[idx], idx)])
            assert np.array_equal(x, normalize(want, ds.mean, ds.std))
            assert (y == ds.labels[idx]).all()

    def test_batches_are_normalized(self):
        ds = self._tiny(8)
        (x, _), = batches(ds, 8, 0, seed=0, train=False)
        want = (ds.images - 0.5) / 0.25
        assert_allclose(x, want, rtol=1e-12)

    def test_train_batch_below_two_rejected(self):
        ds = self._tiny(8)
        with pytest.raises(DataError):
            next(batches(ds, 1, 0, seed=0, train=True))
