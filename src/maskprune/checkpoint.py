"""Binary checkpoint files.

Layout: an 8-byte magic, a version word, a JSON metadata section, a table of
named arrays (name, dtype, shape, raw little-endian bytes), and a trailing
SHA-256 digest over everything before it.  Array names are written sorted and
JSON keys canonically ordered, so save -> load -> save is byte-identical.
Writes go to a temp file in the target directory followed by an atomic
rename, so a crash never leaves a half-written checkpoint under the final
name.

Loading reads the file in one sequential pass: header fields come from a
chunk buffer, each array payload is read straight into its own freshly
allocated array, and every byte goes through the SHA-256 once on the way.
The digest is compared before anything is returned.  When the body does not
parse, the rest of it is still hashed, so a digest mismatch takes precedence
over the parse error it caused.  An array's byte count is checked against
its shape and against the bytes left in the file before the array is
allocated, so a bad header can never allocate more than the file holds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"MPRNCKPT"
VERSION = 1

_DTYPES = {0: "<f8", 1: "<i8", 2: "|b1", 3: "<f4"}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


def save_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> Path:
    path = Path(path)
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    buf += struct.pack("<Q", len(meta_bytes))
    buf += meta_bytes
    names = sorted(arrays)
    buf += struct.pack("<I", len(names))
    for name in names:
        arr = np.asarray(arrays[name])
        if not arr.flags["C_CONTIGUOUS"]:
            # NB: np.ascontiguousarray would also promote 0-d arrays to 1-d
            arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            # widen only when lossless; anything else is a caller bug
            if arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64, "safe"):
                arr = arr.astype(np.int64)
            elif arr.dtype.kind == "f" and np.can_cast(arr.dtype, np.float64, "safe"):
                arr = arr.astype(np.float64)
            else:
                raise CheckpointError(f"array '{name}' has unsupported dtype {arr.dtype}")
        name_bytes = name.encode("utf-8")
        buf += struct.pack("<H", len(name_bytes))
        buf += name_bytes
        buf += struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)
        for dim in arr.shape:
            buf += struct.pack("<Q", dim)
        raw = arr.tobytes()
        buf += struct.pack("<Q", len(raw))
        buf += raw
    buf += hashlib.sha256(buf).digest()

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(buf)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


_CHUNK = 1 << 20
_NP_DTYPES = {k: np.dtype(v) for k, v in _DTYPES.items()}
_U16, _U32, _U64, _CODE_NDIM = (struct.Struct(f) for f in ("<H", "<I", "<Q", "<BB"))


class _BodyReader:
    """One sequential pass over a checkpoint body (every byte before the
    digest), feeding each byte into the running SHA-256 exactly once.

    Header fields are sliced from a chunk buffer of about ``_CHUNK`` bytes;
    array payloads go from the file straight into their arrays.
    """

    def __init__(self, f, size: int, path):
        self.f = f
        self.unread = size          # body bytes not yet pulled from the file
        self.buf = b""
        self.pos = 0
        self.sha = hashlib.sha256()
        self.path = path

    def left(self) -> int:
        """Body bytes not yet consumed."""
        return self.unread + len(self.buf) - self.pos

    def truncated(self) -> CheckpointError:
        return CheckpointError(f"{self.path}: truncated checkpoint (section overruns file)")

    def _fill(self, view: memoryview) -> None:
        """Read exactly ``len(view)`` body bytes from the file into ``view``."""
        got = 0
        while got < len(view):
            n = self.f.readinto(view[got:])
            if not n:
                raise self.truncated()
            got += n
        self.sha.update(view)
        self.unread -= got

    def _ensure(self, n: int) -> None:
        """Make the next ``n`` body bytes available in the chunk buffer."""
        if self.pos + n > len(self.buf):
            if n > self.left():
                raise self.truncated()
            tail = self.buf[self.pos:]
            want = min(self.unread, max(_CHUNK, n - len(tail)))
            chunk = self.f.read(want)
            if len(chunk) < want:
                raise self.truncated()
            self.sha.update(chunk)
            self.unread -= want
            self.buf = tail + chunk if tail else chunk
            self.pos = 0

    def take(self, n: int) -> bytes:
        self._ensure(n)
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def unpack(self, st: struct.Struct) -> tuple:
        self._ensure(st.size)
        self.pos += st.size
        return st.unpack_from(self.buf, self.pos - st.size)

    def read_into(self, arr: np.ndarray) -> None:
        """Fill the C-contiguous ``arr`` with the next ``arr.nbytes`` bytes:
        from the chunk buffer when it holds them all, otherwise the buffered
        part and then the rest straight from the file."""
        flat = arr.reshape(-1)
        if self.pos + arr.nbytes <= len(self.buf):
            # no memoryview here: exporting one from a small array costs more than the copy
            flat[...] = np.frombuffer(self.buf, arr.dtype, arr.size, self.pos)
            self.pos += arr.nbytes
            return
        dst = memoryview(flat.view(np.uint8))
        n_buf = len(self.buf) - self.pos
        dst[:n_buf] = memoryview(self.buf)[self.pos:]
        self.pos += n_buf
        self._fill(dst[n_buf:])

    def drain(self) -> None:
        """Hash the rest of the body without keeping it."""
        while self.unread:
            self.pos = len(self.buf)
            self._ensure(1)


def _parse(r: _BodyReader, path) -> tuple[dict, dict[str, np.ndarray]]:
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    (version,) = r.unpack(_U32)
    if version != VERSION:
        raise CheckpointError(f"{path}: version {version} unsupported (expected {VERSION})")
    (meta_len,) = r.unpack(_U64)
    try:
        meta = json.loads(r.take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed metadata section: {exc}") from exc
    (n_arrays,) = r.unpack(_U32)
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (name_len,) = r.unpack(_U16)
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: array name is not UTF-8: {exc}") from exc
        code, ndim = r.unpack(_CODE_NDIM)
        dtype = _NP_DTYPES.get(code)
        if dtype is None:
            raise CheckpointError(f"{path}: unknown dtype code {code} for array '{name}'")
        *shape, nbytes = r.unpack(struct.Struct(f"<{ndim + 1}Q"))
        shape = tuple(shape)
        # checked before allocating, so a bad header never allocates more than the file holds
        if nbytes != dtype.itemsize * math.prod(shape):
            raise CheckpointError(f"{path}: array '{name}' has {nbytes} bytes, "
                                  f"shape {shape} of {dtype} needs "
                                  f"{dtype.itemsize * math.prod(shape)}")
        if nbytes > r.left():
            raise r.truncated()
        try:
            arr = np.empty(shape, dtype)
        except ValueError as exc:
            raise CheckpointError(f"{path}: array '{name}' has unusable shape {shape}: "
                                  f"{exc}") from exc
        r.read_into(arr)
        arrays[name] = arr
    if r.left():
        raise CheckpointError(f"{path}: {r.left()} trailing bytes after array table")
    return meta, arrays


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < len(MAGIC) + 4 + 32:
            raise CheckpointError(f"{path}: file too small to be a checkpoint")
        r = _BodyReader(f, size - 32, path)
        try:
            meta, arrays = _parse(r, path)
            error = None
        except CheckpointError as exc:
            error = exc
            r.drain()
        digest = f.read(32)
    if r.sha.digest() != digest:
        raise CheckpointError(f"{path}: digest mismatch (corrupted or truncated checkpoint)")
    if error is not None:
        raise error
    return meta, arrays
