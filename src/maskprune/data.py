"""Dataset loading, batching, and augmentation.

Supported on-disk formats are the CIFAR-10 binary batches (3073-byte records,
label byte followed by a 3x32x32 channel-planar image) and the big-endian IDX
files used by MNIST.  A seeded synthetic digit generator provides a
self-contained ten-class image task for tests and desk-scale runs; it can be
exported to IDX files and read back through the same loader as real MNIST.

Shuffling and augmentation are pure functions of (seed, epoch, index) — see
:mod:`maskprune.rng` — so epochs replay identically across runs and resumes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .rng import TAG_DATA, TAG_SHUFFLE, augment_word, keyed_rng, rekey

CIFAR10_MEAN = np.array([0.4914, 0.4822, 0.4465])
CIFAR10_STD = np.array([0.2470, 0.2435, 0.2616])
MNIST_MEAN = np.array([0.1307])
MNIST_STD = np.array([0.3081])

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Images in [0, 1], NCHW, with the normalization constants to apply."""

    name: str
    images: np.ndarray
    labels: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def channels(self) -> int:
        return self.images.shape[1]

    @property
    def image_size(self) -> int:
        return self.images.shape[2]


def normalize(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (x - mean[None, :, None, None]) / std[None, :, None, None]


def denormalize(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return x * std[None, :, None, None] + mean[None, :, None, None]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def load_cifar10(paths) -> tuple[np.ndarray, np.ndarray]:
    """Read one or more CIFAR-10 binary batch files."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    all_images, all_labels = [], []
    for path in paths:
        raw = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
        if raw.size == 0 or raw.size % 3073 != 0:
            raise DataError(
                f"{path}: size {raw.size} is not a multiple of the 3073-byte record"
            )
        records = raw.reshape(-1, 3073)
        labels = records[:, 0].astype(np.int64)
        if labels.max(initial=0) > 9:
            raise DataError(f"{path}: label {int(labels.max())} outside [0, 10)")
        images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
        all_images.append(images)
        all_labels.append(labels)
    return np.concatenate(all_images), np.concatenate(all_labels)


def _read_idx(path, magic: int, dims: int) -> tuple[list[int], np.ndarray]:
    """An IDX file's ``dims`` header counts and its uint8 payload."""
    raw = Path(path).read_bytes()
    header = 4 * (1 + dims)
    if len(raw) < header:
        raise DataError(f"{path}: truncated IDX header")
    found, *counts = struct.unpack(f">{1 + dims}I", raw[:header])
    if found != magic:
        raise DataError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    return counts, np.frombuffer(raw, dtype=np.uint8, offset=header)


def load_mnist_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Read an MNIST-style IDX image/label file pair."""
    (n, rows, cols), body = _read_idx(images_path, _IDX_IMAGES_MAGIC, 3)
    expected = n * rows * cols
    if body.size != expected:
        raise DataError(
            f"{images_path}: payload has {body.size} bytes, header promises {expected}"
        )
    images = body.reshape(n, 1, rows, cols).astype(np.float64) / 255.0

    (n_lbl,), body = _read_idx(labels_path, _IDX_LABELS_MAGIC, 1)
    labels = body.astype(np.int64)
    if labels.size != n_lbl:
        raise DataError(f"{labels_path}: payload has {labels.size} labels, header promises {n_lbl}")
    if n != n_lbl:
        raise DataError(f"image count {n} does not match label count {n_lbl}")
    return images, labels


def write_idx(images: np.ndarray, labels: np.ndarray, images_path,
              labels_path) -> tuple[Path, Path]:
    """Write [N,1,H,W] images in [0,1] and their labels as an IDX pair."""
    n, _, h, w = images.shape
    u8 = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", _IDX_IMAGES_MAGIC, n, h, w))
        f.write(u8.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", _IDX_LABELS_MAGIC, n))
        f.write(labels.astype(np.uint8).tobytes())
    return Path(images_path), Path(labels_path)


# ---------------------------------------------------------------------------
# synthetic digits
# ---------------------------------------------------------------------------

# seven-segment glyphs: (top, top-right, bottom-right, bottom, bottom-left,
# top-left, middle)
_SEGMENTS = {
    0: "ABCDEF", 1: "BC", 2: "ABGED", 3: "ABGCD", 4: "FGBC",
    5: "AFGCD", 6: "AFGEDC", 7: "ABC", 8: "ABCDEFG", 9: "ABCDFG",
}


def _glyph(digit: int, size: int = 28) -> np.ndarray:
    canvas = np.zeros((size, size))
    y0, y1, y2 = 4, size // 2 - 1, size - 6
    x0, x1 = 8, size - 9
    t = 2
    seg = _SEGMENTS[digit]
    if "A" in seg:
        canvas[y0:y0 + t, x0:x1 + t] = 1.0
    if "G" in seg:
        canvas[y1:y1 + t, x0:x1 + t] = 1.0
    if "D" in seg:
        canvas[y2:y2 + t, x0:x1 + t] = 1.0
    if "F" in seg:
        canvas[y0:y1 + t, x0:x0 + t] = 1.0
    if "B" in seg:
        canvas[y0:y1 + t, x1:x1 + t] = 1.0
    if "E" in seg:
        canvas[y1:y2 + t, x0:x0 + t] = 1.0
    if "C" in seg:
        canvas[y1:y2 + t, x1:x1 + t] = 1.0
    return canvas


def generate_digits(n: int, seed: int, size: int = 28,
                    noise: float = 0.18, max_shift: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Seeded ten-class digit-style images: shifted, intensity-jittered,
    noisy seven-segment glyphs, in [0, 1]."""
    glyphs = np.stack([_glyph(d, size) for d in range(10)])
    images = np.empty((n, 1, size, size))
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        rng = keyed_rng(seed, TAG_DATA | i)
        digit = int(rng.integers(10))
        labels[i] = digit
        dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
        img = np.roll(glyphs[digit], (dy, dx), axis=(0, 1))
        img = img * rng.uniform(0.7, 1.0)
        img = img + rng.normal(0.0, noise, size=img.shape)
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return images, labels


def synthetic_dataset(n_train: int, n_test: int, seed: int,
                      size: int = 28) -> tuple[Dataset, Dataset]:
    """Train/test synthetic digit datasets sharing train-set normalization."""
    images, labels = generate_digits(n_train + n_test, seed, size)
    train_imgs, test_imgs = images[:n_train], images[n_train:]
    train_lbls, test_lbls = labels[:n_train], labels[n_train:]
    mean = train_imgs.mean(axis=(0, 2, 3))
    std = train_imgs.std(axis=(0, 2, 3))
    return (Dataset("synthetic", train_imgs, train_lbls, mean, std),
            Dataset("synthetic", test_imgs, test_lbls, mean, std))


def mnist_dataset(images_path, labels_path, name: str = "mnist") -> Dataset:
    images, labels = load_mnist_idx(images_path, labels_path)
    return Dataset(name, images, labels, MNIST_MEAN, MNIST_STD)


def cifar10_dataset(paths, name: str = "cifar10") -> Dataset:
    images, labels = load_cifar10(paths)
    return Dataset(name, images, labels, CIFAR10_MEAN, CIFAR10_STD)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def _augment(imgs: np.ndarray, idx: np.ndarray, seed: int, epoch: int, crop_pad: int,
             flip: bool) -> np.ndarray:
    """Random crop from a zero-padded copy and optional horizontal flip, for a
    whole batch at once.

    Each image's offsets ``oy``, ``ox`` and flip bit are drawn, in that order,
    from its own ``augment_stream(seed, epoch, index)``, so the result does
    not depend on which batch the image lands in.  One generator is re-keyed
    per image rather than built anew.
    """
    n, _, h, w = imgs.shape
    offsets = np.zeros((n, 2), dtype=np.intp)
    flips = np.zeros(n, dtype=bool)
    rng = keyed_rng(seed, 0)
    for k, i in enumerate(idx):
        rekey(rng, seed, augment_word(epoch, int(i)))
        if crop_pad > 0:
            offsets[k, 0] = rng.integers(0, 2 * crop_pad + 1)
            offsets[k, 1] = rng.integers(0, 2 * crop_pad + 1)
        if flip:
            flips[k] = rng.integers(0, 2) == 1
    p = crop_pad
    padded = np.pad(imgs, ((0, 0), (0, 0), (p, p), (p, p)))
    # [N, C, 2p+1, 2p+1, H, W] view of every crop; one gather takes each image's own
    windows = sliding_window_view(padded, (h, w), axis=(2, 3))
    out = windows[np.arange(n), :, offsets[:, 0], offsets[:, 1]]
    out[flips] = out[flips, :, :, ::-1]
    return out


def batches(ds: Dataset, batch_size: int, epoch: int, seed: int, train: bool,
            crop_pad: int = 0, flip: bool = False):
    """Yield ``(normalized images, labels)`` batches for one epoch.

    Training epochs shuffle deterministically from (seed, epoch), augment each
    image from (seed, epoch, dataset index), and drop a trailing partial
    batch; evaluation keeps dataset order, no augmentation, and keeps the
    remainder batch.
    """
    n = len(ds)
    if train:
        if batch_size < 2:
            raise DataError(f"training batches need size >= 2, got {batch_size}")
        order = keyed_rng(seed, TAG_SHUFFLE | epoch).permutation(n)
        n_batches = n // batch_size
    else:
        order = np.arange(n)
        n_batches = (n + batch_size - 1) // batch_size
    for b in range(n_batches):
        idx = order[b * batch_size:(b + 1) * batch_size]
        imgs = ds.images[idx]
        if train and (crop_pad > 0 or flip):
            imgs = _augment(imgs, idx, seed, epoch, crop_pad, flip)
        yield normalize(imgs, ds.mean, ds.std), ds.labels[idx]
