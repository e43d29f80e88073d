"""Binary checkpoint format: round-trips, determinism, corruption detection."""

import hashlib
import itertools
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.checkpoint import _CHUNK, MAGIC, load_checkpoint, save_checkpoint
from maskprune.errors import CheckpointError


def sample_payload():
    rng = np.random.default_rng(0)
    meta = {"config": {"lr": 0.1, "model": "tiny-cnn"}, "completed": ["baseline"],
            "global_epoch": 3, "note": "unicode ✓"}
    arrays = {
        "w": rng.normal(size=(4, 3, 3, 3)),
        "idx": np.arange(7, dtype=np.int64),
        "flags": np.array([True, False, True]),
        "scalar": np.array(2.5),
        "single": np.float32(rng.normal(size=(2, 2)).astype(np.float32)),
    }
    return meta, arrays


class TestRoundTrip:
    def test_meta_and_arrays_exact(self, tmp_path):
        meta, arrays = sample_payload()
        path = save_checkpoint(tmp_path / "a.ckpt", meta, arrays)
        meta2, arrays2 = load_checkpoint(path)
        assert meta2 == meta
        assert sorted(arrays2) == sorted(arrays)
        for k in arrays:
            assert arrays2[k].dtype == np.asarray(arrays[k]).dtype
            assert arrays2[k].shape == np.asarray(arrays[k]).shape
            assert_allclose(arrays2[k], arrays[k], rtol=0, atol=0)

    def test_resave_is_byte_identical(self, tmp_path):
        meta, arrays = sample_payload()
        p1 = save_checkpoint(tmp_path / "a.ckpt", meta, arrays)
        meta2, arrays2 = load_checkpoint(p1)
        p2 = save_checkpoint(tmp_path / "b.ckpt", meta2, arrays2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_key_order_does_not_matter(self, tmp_path):
        meta, arrays = sample_payload()
        shuffled = dict(reversed(list(arrays.items())))
        p1 = save_checkpoint(tmp_path / "a.ckpt", meta, arrays)
        p2 = save_checkpoint(tmp_path / "b.ckpt", dict(reversed(list(meta.items()))),
                             shuffled)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_arrays_table(self, tmp_path):
        path = save_checkpoint(tmp_path / "a.ckpt", {"only": "meta"}, {})
        meta, arrays = load_checkpoint(path)
        assert meta == {"only": "meta"} and arrays == {}

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="dtype"):
            save_checkpoint(tmp_path / "a.ckpt", {},
                            {"c": np.zeros(3, dtype=np.complex128)})


class TestCorruption:
    def _saved(self, tmp_path):
        meta, arrays = sample_payload()
        return save_checkpoint(tmp_path / "a.ckpt", meta, arrays)

    def test_flipped_payload_byte(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:len(MAGIC)] = b"NOTMAGIC"[:len(MAGIC)]
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="magic|not a checkpoint"):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        # version is the u32 right after the magic; bump it and re-blesses the
        # digest so only the version check can fire
        import hashlib
        import struct
        raw[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 99)
        body = bytes(raw[:-32])
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.ckpt"
        with pytest.raises(CheckpointError):
            save_checkpoint(target, {}, {"bad": np.zeros(2, dtype=np.complex128)})
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


def rebless(raw) -> bytes:
    """``raw`` with its trailing digest recomputed, so only parse checks can fire."""
    body = bytes(raw[:-32])
    return body + hashlib.sha256(body).digest()


def one_array_checkpoint(tmp_path):
    """A checkpoint of one (4, 3) float64 array 'w', and the offset of each of
    its header fields."""
    meta = {"a": 1}
    path = save_checkpoint(tmp_path / "one.ckpt", meta,
                           {"w": np.arange(12, dtype=np.float64).reshape(4, 3)})
    meta_len = len(b'{"a": 1}')
    at = {"meta length": 12, "array count": 20 + meta_len}
    at["name length"] = at["array count"] + 4
    at["dtype code"] = at["name length"] + 2 + 1
    at["shape word"] = at["dtype code"] + 2
    at["nbytes"] = at["shape word"] + 16
    return path, at


HEADER_FIELDS = ["meta length", "array count", "name length", "dtype code", "shape word",
                 "nbytes"]


class TestHeaderCorruption:
    def test_field_offsets(self, tmp_path):
        path, at = one_array_checkpoint(tmp_path)
        raw = path.read_bytes()
        assert struct.unpack_from("<Q", raw, at["meta length"]) == (8,)
        assert struct.unpack_from("<I", raw, at["array count"]) == (1,)
        assert struct.unpack_from("<H", raw, at["name length"]) == (1,)
        assert struct.unpack_from("<BB", raw, at["dtype code"]) == (0, 2)
        assert struct.unpack_from("<QQ", raw, at["shape word"]) == (4, 3)
        assert struct.unpack_from("<Q", raw, at["nbytes"]) == (96,)

    @pytest.mark.parametrize("field,byte", itertools.product(HEADER_FIELDS, [0, -1]))
    def test_flip_with_stale_digest_reports_digest(self, tmp_path, field, byte):
        path, at = one_array_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        # byte 0 is the low byte of the field; -1 the high byte of a u16/u64 field
        width = {"array count": 4, "name length": 2, "dtype code": 1}.get(field, 8)
        raw[at[field] + (0 if byte == 0 else width - 1)] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,byte", itertools.product(HEADER_FIELDS, [0, -1]))
    def test_flip_with_reblessed_digest_is_checkpoint_error(self, tmp_path, field, byte):
        path, at = one_array_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        width = {"array count": 4, "name length": 2, "dtype code": 1}.get(field, 8)
        raw[at[field] + (0 if byte == 0 else width - 1)] ^= 0xFF
        path.write_bytes(rebless(raw))
        # never ValueError, MemoryError or struct.error: only CheckpointError passes
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "digest mismatch" not in str(err.value)

    def test_bumped_shape_word_names_the_byte_count(self, tmp_path):
        path, at = one_array_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[at["shape word"]:at["shape word"] + 8] = struct.pack("<Q", 5)
        path.write_bytes(rebless(raw))
        with pytest.raises(CheckpointError, match=r"'w' has 96 bytes, shape \(5, 3\)"):
            load_checkpoint(path)

    def test_nbytes_past_the_file_is_refused_before_allocating(self, tmp_path, monkeypatch):
        path, at = one_array_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        # consistent with the shape, so only the bytes-left check stands in the way
        raw[at["shape word"]:at["shape word"] + 16] = struct.pack("<QQ", 1 << 40, 3)
        raw[at["nbytes"]:at["nbytes"] + 8] = struct.pack("<Q", 24 << 40)
        path.write_bytes(rebless(raw))
        allocated = []
        empty = np.empty

        def spy(shape, *args, **kwargs):
            allocated.append(shape)
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", spy)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        assert allocated == []

    def test_shape_numpy_cannot_build(self, tmp_path):
        path, at = one_array_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        # zero elements, so the byte count (0) agrees, but 2**63 overflows numpy's size type
        header = struct.pack("<QQQ", 0, 1 << 63, 0)
        raw[at["shape word"]:] = header + raw[-32:]
        path.write_bytes(rebless(raw))
        with pytest.raises(CheckpointError, match="unusable shape"):
            load_checkpoint(path)

    def test_non_utf8_array_name(self, tmp_path):
        path, at = one_array_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[at["name length"] + 2] = 0xFF
        path.write_bytes(rebless(raw))
        with pytest.raises(CheckpointError, match="not UTF-8"):
            load_checkpoint(path)

    def test_bad_magic_with_reblessed_digest(self, tmp_path):
        path, _ = one_array_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(rebless(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)


class TestLayout:
    def test_arrays_are_independent_contiguous_and_writeable(self, tmp_path):
        meta, arrays = sample_payload()
        _, loaded = load_checkpoint(save_checkpoint(tmp_path / "a.ckpt", meta, arrays))
        for arr in loaded.values():
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable
            assert arr.base is None
        for a, b in itertools.combinations(loaded.values(), 2):
            assert not np.shares_memory(a, b)

    def test_checkpoint_larger_than_the_chunk_round_trips(self, tmp_path):
        rng = np.random.default_rng(3)
        arrays = {
            # sorted names: one straddling the first chunk boundary, small ones
            # between, one several chunks long, a small one after it
            "a_straddle": rng.normal(size=_CHUNK // 8 - 3),
            "b_small": rng.integers(0, 9, size=(3, 5)),
            "c_big": rng.normal(size=(3 * _CHUNK // 8 + 17,)).astype(np.float32),
            "d_flags": rng.uniform(size=101) < 0.5,
            "e_scalar": np.array(-1.25),
        }
        p1 = save_checkpoint(tmp_path / "a.ckpt", {"n": 5}, arrays)
        assert p1.stat().st_size > 2 * _CHUNK
        meta, loaded = load_checkpoint(p1)
        assert meta == {"n": 5} and sorted(loaded) == sorted(arrays)
        for k, v in arrays.items():
            assert loaded[k].dtype == v.dtype and loaded[k].shape == v.shape
            assert np.array_equal(loaded[k], v)
        p2 = save_checkpoint(tmp_path / "b.ckpt", meta, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("rebless_digest", [False, True])
    def test_early_header_error_in_a_multi_chunk_file(self, tmp_path, rebless_digest):
        path = save_checkpoint(tmp_path / "a.ckpt", {},
                               {"a": np.zeros(2), "b": np.zeros(3 * _CHUNK // 8)})
        raw = bytearray(path.read_bytes())
        # dtype code of 'a': magic, version, meta length, "{}", count, name length, "a"
        raw[8 + 4 + 8 + 2 + 4 + 2 + 1] = 9
        path.write_bytes(rebless(raw) if rebless_digest else raw)
        # the rest of the body is hashed before either error is reported
        want = "unknown dtype code 9" if rebless_digest else "digest mismatch"
        with pytest.raises(CheckpointError, match=want):
            load_checkpoint(path)

    def test_flipped_byte_deep_in_a_large_payload(self, tmp_path):
        arrays = {"big": np.zeros(3 * _CHUNK // 8)}
        path = save_checkpoint(tmp_path / "a.ckpt", {}, arrays)
        raw = bytearray(path.read_bytes())
        raw[2 * _CHUNK + 5] ^= 0x01
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(path)
