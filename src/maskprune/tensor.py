"""Dense tensor substrate and the small set of array operations the rest of
the toolkit is built on.

Everything is float64 row-major by default (float32 storage is accepted for
activations but all verification paths run in float64).  Convolutions use the
cross-correlation convention on NCHW activations with OIHW kernels; no
dilation, grouping, or graph-level autodiff lives here — layers call the
explicit backward functions themselves.

Convolutions unroll their input channel-major (Chellapilla et al. 2006; Caffe):
``im2col`` builds a ``[Cin*Kh*Kw, N*Ho*Wo]`` column matrix, the forward pass is
the single GEMM ``w.reshape(Cout, -1) @ cols`` and the backward pass computes
``grad_w = g2 @ cols.T`` and ``grad_cols = w.reshape(Cout, -1).T @ g2`` from the
upstream gradient ``g2`` transposed once to ``[Cout, N*Ho*Wo]``.  The column
matrix itself is never transposed.  That layout is the contract between
``conv2d_forward(return_cache=True)`` and ``conv2d_backward(cols=)``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError

Axes = Sequence[int]


class Tensor:
    """A shape-checked wrapper over a contiguous numpy array.

    The wrapper is deliberately thin: `.data` exposes the underlying ndarray
    and most internal code works on arrays directly.  The class exists so the
    public operations have a single place to validate dtype/contiguity and to
    offer an explicit finiteness check.
    """

    __slots__ = ("data",)

    def __init__(self, data, dtype=np.float64, require_finite: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=dtype))
        self.data = arr
        if require_finite:
            self.check_finite()

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    def check_finite(self) -> "Tensor":
        if not np.isfinite(self.data).all():
            raise ShapeError("tensor contains non-finite entries (NaN or Inf)")
        return self

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), dtype=self.data.dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def _as_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def hadamard(a, b) -> Tensor:
    """Elementwise product of two identically shaped tensors."""
    a, b = _as_array(a), _as_array(b)
    if a.shape != b.shape:
        raise ShapeError(
            f"hadamard requires identical shapes, got {tuple(a.shape)} and {tuple(b.shape)}"
        )
    return Tensor(a * b)


def matmul(a, b) -> Tensor:
    """Standard matrix product of a [n, k] by a [k, m] operand."""
    a, b = _as_array(a), _as_array(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(
            f"matmul expects rank-2 operands, got ranks {a.ndim} and {b.ndim}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {tuple(a.shape)} x {tuple(b.shape)}"
        )
    return Tensor(a @ b)


def reduce_sum(a, axes: Axes) -> Tensor:
    """Sum over the listed axes (each in range, no repeats)."""
    a = _as_array(a)
    axes = list(axes)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"reduce_sum axes contain repeats: {axes}")
    for ax in axes:
        if not (0 <= ax < a.ndim):
            raise ShapeError(f"reduce_sum axis {ax} out of range for rank {a.ndim}")
    return Tensor(a.sum(axis=tuple(sorted(axes))))


def conv_output_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    """Spatial output size of a convolution: floor((x + 2p - k) / stride) + 1."""
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    return ho, wo


def _check_conv_args(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> tuple[int, int]:
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(
            f"conv2d expects NCHW input and OIHW weights, got ranks {x.ndim} and {w.ndim}"
        )
    n, cin, h, wdt = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(
            f"conv2d channel mismatch: input has {cin} channels, kernel expects {cin_w}"
        )
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"conv2d padding must be >= 0, got {padding}")
    ho, wo = conv_output_hw(h, wdt, kh, kw, stride, padding)
    if ho <= 0 or wo <= 0:
        raise ShapeError(
            f"conv2d output would be degenerate ({ho}x{wo}) for input {h}x{wdt}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    return ho, wo


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unroll conv receptive fields into a channel-major [Cin*Kh*Kw, N*Ho*Wo] matrix.

    Row ``(c*Kh + i)*Kw + j`` holds input channel ``c`` shifted by kernel tap
    ``(i, j)`` at every output position, ordered ``(n, y, x)``.  Rows line up
    with ``w.reshape(Cout, -1)`` of an OIHW kernel, so a convolution is the
    single GEMM ``w.reshape(Cout, -1) @ cols``.
    """
    n, cin, h, w = x.shape
    ho, wo = conv_output_hw(h, w, kh, kw, stride, padding)
    # channel-major padded copy: each tap below is one strided block copy
    xp = np.zeros((cin, n, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x.transpose(1, 0, 2, 3)
    cols = np.empty((cin, kh, kw, n, ho, wo), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * ho
        for j in range(kw):
            j_end = j + stride * wo
            cols[:, i, j] = xp[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(cin * kh * kw, n * ho * wo)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add an im2col matrix back onto an NCHW input-shaped array (the
    exact transpose of ``im2col``)."""
    n, cin, h, w = x_shape
    ho, wo = conv_output_hw(h, w, kh, kw, stride, padding)
    cols6 = cols.reshape(cin, kh, kw, n, ho, wo)
    xp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    xp_cm = xp.transpose(1, 0, 2, 3)  # channel-major view of the same buffer
    for i in range(kh):
        i_end = i + stride * ho
        for j in range(kw):
            j_end = j + stride * wo
            xp_cm[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, i, j]
    if padding > 0:
        return xp[:, :, padding : padding + h, padding : padding + w]
    return xp


def conv2d_forward(x, w, bias=None, stride: int = 1, padding: int = 0, return_cache: bool = False):
    """Cross-correlate x [N,Cin,H,W] with w [Cout,Cin,Kh,Kw] plus a per-channel bias.

    With ``return_cache=True`` also returns the ``im2col`` matrix so a
    following backward call can skip recomputing it.
    """
    x, w = _as_array(x), _as_array(w)
    ho, wo = _check_conv_args(x, w, stride, padding)
    n = x.shape[0]
    cout, cin, kh, kw = w.shape
    cols = im2col(x, kh, kw, stride, padding)
    out = w.reshape(cout, -1) @ cols
    if bias is not None:
        b = _as_array(bias)
        if b.shape != (cout,):
            raise ShapeError(f"conv2d bias must have shape ({cout},), got {tuple(b.shape)}")
        out += b[:, None]
    result = Tensor(out.reshape(cout, n, ho, wo).transpose(1, 0, 2, 3))
    if return_cache:
        return result, cols
    return result


def conv2d_backward(x, w, grad_out, stride: int = 1, padding: int = 0,
                    cols: np.ndarray | None = None, input_grad: bool = True):
    """Gradients of a conv2d_forward call.

    Returns ``(grad_x, grad_w, grad_bias)`` for upstream gradient
    ``grad_out`` of shape [N,Cout,Ho,Wo].  ``cols`` may be the cache returned
    by the forward call.  With ``input_grad=False`` the ``Wᵀ @ g2`` GEMM and
    the ``col2im`` scatter are skipped and ``grad_x`` is None (for a network's
    first layer, whose input gradient nothing reads).
    """
    x, w, g = _as_array(x), _as_array(w), _as_array(grad_out)
    ho, wo = _check_conv_args(x, w, stride, padding)
    n = x.shape[0]
    cout, cin, kh, kw = w.shape
    if g.shape != (n, cout, ho, wo):
        raise ShapeError(
            f"conv2d_backward upstream gradient shape {tuple(g.shape)} does not match "
            f"forward output ({n}, {cout}, {ho}, {wo})"
        )
    if cols is None:
        cols = im2col(x, kh, kw, stride, padding)
    g2 = g.transpose(1, 0, 2, 3).reshape(cout, n * ho * wo)
    grad_w = (g2 @ cols.T).reshape(cout, cin, kh, kw)
    grad_bias = g2.sum(axis=1)
    if not input_grad:
        return None, Tensor(grad_w), Tensor(grad_bias)
    grad_cols = w.reshape(cout, -1).T @ g2
    grad_x = col2im(grad_cols, x.shape, kh, kw, stride, padding)
    return Tensor(grad_x), Tensor(grad_w), Tensor(grad_bias)
