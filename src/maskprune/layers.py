"""Network layers with mask-gradient instrumentation.

The two weighted layer types carry three extra pieces of state on top of a
plain conv/linear layer:

* ``mask`` — an all-ones companion tensor combined elementwise with the
  weights on every forward pass.  It is never updated by the optimizer; its
  only purpose is that the gradient *with respect to the mask* equals
  ``grad_w * w`` elementwise, which is the per-weight influence estimate the
  pruning machinery consumes.
* ``mask_grad`` — accumulator for that gradient across backward passes,
  consumed and zeroed by ``influence.capture_influence``.
* ``gate`` — a per-output-channel multiplier in [0, 1].  Gates are written by
  the pruning controller (soft values while a strategy anneals, hard 0/1
  afterwards) and scale the channel's activations; a gate below
  ``delta_freeze`` also freezes the channel's weights and its batch-norm
  statistics ("false pruning": the channel stays in memory but stops
  participating).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeError
from .tensor import Tensor, _as_array, conv2d_backward, conv2d_forward


class Parameter:
    """A trainable array with its gradient and momentum buffer."""

    __slots__ = ("data", "grad", "velocity")

    def __init__(self, data: np.ndarray):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad: np.ndarray | None = None
        self.velocity: np.ndarray | None = None

    @property
    def shape(self):
        return self.data.shape


def _apply_channel_gate(out: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Scale each channel of ``out`` by its gate.  An all-open gate returns
    ``out`` itself: ``x * 1.0 == x`` exactly, so that pass would be dead work."""
    if (gate == 1.0).all():
        return out
    if out.ndim == 4:
        return out * gate[None, :, None, None]
    return out * gate[None, :]


def _gate_grad(grad_out: np.ndarray, pre_gate: np.ndarray) -> np.ndarray:
    axes = (0, 2, 3) if grad_out.ndim == 4 else (0,)
    return (grad_out * pre_gate).sum(axis=axes)


class MaskedConv2d:
    """2-D convolution with mask instrumentation and a per-filter gate."""

    kind = "conv"

    def __init__(self, weight: np.ndarray, bias: np.ndarray, stride: int = 1, padding: int = 0,
                 apply_gate: bool = True):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 4:
            raise ShapeError(f"conv weight must be OIHW, got rank {weight.ndim}")
        self.weight = Parameter(weight)
        self.bias = Parameter(np.asarray(bias, dtype=np.float64))
        self.stride = int(stride)
        self.padding = int(padding)
        self.mask = np.ones_like(self.weight.data)
        self.mask_grad = np.zeros_like(self.weight.data)
        self.mask_samples = 0
        self.gate = np.ones(weight.shape[0], dtype=np.float64)
        self.gate_grad = np.zeros(weight.shape[0], dtype=np.float64)
        # Blocks that place the gate after a following batch-norm set this to
        # False and apply the gate themselves.
        self.apply_gate = apply_gate
        self._cache = None

    @property
    def out_channels(self) -> int:
        return self.weight.data.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.data.shape[1]

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        w_eff = self.mask * self.weight.data
        if train:
            out_t, cols = conv2d_forward(x, w_eff, self.bias.data, self.stride, self.padding,
                                         return_cache=True)
        else:  # keep no Cin*Kh*Kw-times-input columns; backward recomputes them
            out_t = conv2d_forward(x, w_eff, self.bias.data, self.stride, self.padding)
            cols = None
        out = out_t.data
        pre_gate = out if self.apply_gate else None
        if self.apply_gate:
            out = _apply_channel_gate(out, self.gate)
        self._cache = (x, w_eff, cols, pre_gate)
        return Tensor(out)

    def backward(self, grad_out, input_grad: bool = True):
        """Fill the weight, bias and mask gradients (and the gate gradient when
        the layer applies its gate); return the gradient w.r.t. the input, or
        None with ``input_grad=False``."""
        if self._cache is None:
            raise ShapeError("backward called before forward")
        g = _as_array(grad_out)
        x, w_eff, cols, pre_gate = self._cache
        if self.apply_gate:
            self.gate_grad = _gate_grad(g, pre_gate)
            g = _apply_channel_gate(g, self.gate)
        grad_x, grad_w_eff, grad_b = conv2d_backward(x, w_eff, g, self.stride, self.padding,
                                                     cols=cols, input_grad=input_grad)
        # Gradient w.r.t. the mask entry m is grad_(m*w) * w; w.r.t. the
        # weight it is grad_(m*w) * m (the mask is all ones, but the two
        # expressions are kept distinct on purpose).
        self.mask_grad += grad_w_eff.data * self.weight.data
        self.mask_samples += x.shape[0]
        self.weight.grad = grad_w_eff.data * self.mask
        self.bias.grad = grad_b.data
        return grad_x

    def param_groups(self, delta_freeze: float = 0.0):
        frozen = self.gate < delta_freeze if delta_freeze > 0 else None
        yield self.weight, frozen
        yield self.bias, frozen


class MaskedLinear:
    """Fully connected layer with the same instrumentation as MaskedConv2d.

    A "channel" of a linear layer is one output unit (one weight row).
    """

    kind = "fc"

    def __init__(self, weight: np.ndarray, bias: np.ndarray, apply_gate: bool = True):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ShapeError(f"linear weight must be [out, in], got rank {weight.ndim}")
        self.weight = Parameter(weight)
        self.bias = Parameter(np.asarray(bias, dtype=np.float64))
        self.mask = np.ones_like(self.weight.data)
        self.mask_grad = np.zeros_like(self.weight.data)
        self.mask_samples = 0
        self.gate = np.ones(weight.shape[0], dtype=np.float64)
        self.gate_grad = np.zeros(weight.shape[0], dtype=np.float64)
        self.apply_gate = apply_gate
        self._cache = None

    @property
    def out_channels(self) -> int:
        return self.weight.data.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.data.shape[1]

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        if x.ndim != 2 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"linear expects [N, {self.in_channels}] input, got {tuple(x.shape)}"
            )
        w_eff = self.mask * self.weight.data
        out = x @ w_eff.T + self.bias.data
        pre_gate = out if self.apply_gate else None
        if self.apply_gate:
            out = _apply_channel_gate(out, self.gate)
        self._cache = (x, w_eff, pre_gate)
        return Tensor(out)

    def backward(self, grad_out, input_grad: bool = True):
        if self._cache is None:
            raise ShapeError("backward called before forward")
        g = _as_array(grad_out)
        x, w_eff, pre_gate = self._cache
        if self.apply_gate:
            self.gate_grad = _gate_grad(g, pre_gate)
            g = _apply_channel_gate(g, self.gate)
        grad_w_eff = g.T @ x
        self.mask_grad += grad_w_eff * self.weight.data
        self.mask_samples += x.shape[0]
        self.weight.grad = grad_w_eff * self.mask
        self.bias.grad = g.sum(axis=0)
        return Tensor(g @ w_eff) if input_grad else None

    def param_groups(self, delta_freeze: float = 0.0):
        frozen = self.gate < delta_freeze if delta_freeze > 0 else None
        yield self.weight, frozen
        yield self.bias, frozen


class BatchNorm2d:
    """Batch normalization over NCHW activations.

    Training mode normalizes with biased batch statistics and refreshes the
    running estimates; eval mode uses the running estimates.  Channels whose
    producing gate has been switched off can be excluded from the running
    update via ``update_mask``.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self._cache = None

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[0]

    def forward(self, x, train: bool = True, update_stats: bool = True,
                update_mask: np.ndarray | None = None):
        x = _as_array(x)
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"batchnorm expects [N, {self.channels}, H, W] input, got {tuple(x.shape)}"
            )
        if train:
            if x.shape[0] < 2:
                raise DataError(
                    f"batchnorm requires batch size >= 2 in training mode, got {x.shape[0]}"
                )
            mean = x.mean(axis=(0, 2, 3))
            # centre once; the variance and x_hat both come from this buffer
            x_hat = x - mean[None, :, None, None]
            var = (x_hat * x_hat).mean(axis=(0, 2, 3))
            if update_stats:
                new_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
                new_var = (1 - self.momentum) * self.running_var + self.momentum * var
                if update_mask is None:
                    self.running_mean, self.running_var = new_mean, new_var
                else:
                    self.running_mean = np.where(update_mask, new_mean, self.running_mean)
                    self.running_var = np.where(update_mask, new_var, self.running_var)
        else:
            x_hat = x - self.running_mean[None, :, None, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[None, :, None, None]
        out = x_hat * self.gamma.data[None, :, None, None]
        out += self.beta.data[None, :, None, None]
        self._cache = (x_hat, inv_std, train)
        return Tensor(out)

    def backward(self, grad_out):
        if self._cache is None:
            raise ShapeError("backward called before forward")
        g = _as_array(grad_out)
        x_hat, inv_std, train = self._cache
        n, _, h, w = x_hat.shape
        m = n * h * w
        gx = g * x_hat
        self.gamma.grad = gx.sum(axis=(0, 2, 3))
        self.beta.grad = g.sum(axis=(0, 2, 3))
        scale = (self.gamma.data * inv_std)[None, :, None, None]
        if not train:
            return Tensor(g * scale)
        # dx = gamma * inv_std * (g - sum(g)/m - x_hat * sum(g * x_hat)/m), per channel
        np.multiply(x_hat, (self.gamma.grad / -m)[None, :, None, None], out=gx)
        gx += g
        gx -= (self.beta.grad / m)[None, :, None, None]
        gx *= scale
        return Tensor(gx)

    def param_groups(self, delta_freeze: float = 0.0):
        yield self.gamma, None
        yield self.beta, None


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        self._mask = x > 0
        # np.maximum propagates NaN, so a bad weight upstream still reaches
        # the trainer's loss check
        return Tensor(np.maximum(x, 0.0))

    def backward(self, grad_out):
        return Tensor(_as_array(grad_out) * self._mask)


class MaxPool2d:
    """Non-overlapping max pooling (kernel == stride); trailing rows/columns
    that do not fill a window are dropped.

    The forward keeps a running ``np.maximum`` over the k*k strided tap views
    and, per window, the index of the first tap holding the maximum (strict
    ``>``), so the backward routes each gradient to exactly one input.  Both
    directions use arithmetic on that index rather than masked selects.
    """

    def __init__(self, kernel: int = 2):
        self.kernel = int(kernel)
        self._cache = None

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        return h // self.kernel, w // self.kernel

    def _taps(self, ho: int, wo: int) -> list[tuple]:
        """Index of the strided [N,C,Ho,Wo] view for each of the k*k window taps."""
        k = self.kernel
        return [np.s_[:, :, i:ho * k:k, j:wo * k:k] for i in range(k) for j in range(k)]

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        n, c, h, w = x.shape
        ho, wo = self.out_hw(h, w)
        if ho == 0 or wo == 0:
            raise ShapeError(f"maxpool window {self.kernel} larger than input {h}x{w}")
        taps = self._taps(ho, wo)
        out = x[taps[0]].copy()
        tap = np.arange(len(taps), dtype=np.min_scalar_type(len(taps) - 1))
        idx = np.zeros(out.shape, dtype=tap.dtype)
        better = np.empty(out.shape, dtype=bool)
        step = np.empty_like(idx)
        for t, view in enumerate(taps[1:], 1):
            np.greater(x[view], out, out=better)
            np.maximum(out, x[view], out=out)
            # idx < t here, so max(idx, better * t) moves idx to t exactly
            # where tap t beats the running maximum
            np.multiply(better, tap[t], out=step)
            np.maximum(idx, step, out=idx)
        self._cache = (x.shape, idx)
        return Tensor(out)

    def backward(self, grad_out):
        g = _as_array(grad_out)
        shape, idx = self._cache
        gx = np.zeros(shape, dtype=g.dtype)
        for t, view in enumerate(self._taps(*idx.shape[2:])):
            np.multiply(g, idx == t, out=gx[view])
        return Tensor(gx)


class GlobalAvgPool:
    """Mean over the spatial dimensions: [N,C,H,W] -> [N,C]."""

    def __init__(self):
        self._in_shape = None

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        self._in_shape = x.shape
        return Tensor(x.mean(axis=(2, 3)))

    def backward(self, grad_out):
        g = _as_array(grad_out)
        n, c, h, w = self._in_shape
        return Tensor(np.broadcast_to(g[:, :, None, None] / (h * w), self._in_shape).copy())


class Flatten:
    """[N,C,H,W] -> [N, C*H*W] in channel-major order."""

    def __init__(self):
        self.last_in_shape: tuple[int, ...] | None = None

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        self.last_in_shape = x.shape
        return Tensor(x.reshape(x.shape[0], -1))

    def backward(self, grad_out):
        g = _as_array(grad_out)
        return Tensor(g.reshape(self.last_in_shape))


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    Returns ``(loss, grad)`` with ``grad = (softmax - one_hot) / N``.  Logits
    are shifted by their row maximum before exponentiation.
    """
    z = _as_array(logits)
    labels = np.asarray(labels)
    if z.ndim != 2:
        raise ShapeError(f"logits must be [N, classes], got {tuple(z.shape)}")
    n, k = z.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},), got {tuple(labels.shape)}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise DataError(f"label {int(bad)} outside [0, {k})")
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad = exp / total
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, Tensor(grad)


def sgd_step(module, lr: float, momentum: float = 0.9, weight_decay: float = 5e-4,
             delta_freeze: float = 1e-3) -> None:
    """One SGD-with-momentum update over every parameter of ``module``.

    ``module`` is anything exposing ``param_groups(delta_freeze)`` yielding
    ``(Parameter, frozen_rows)`` pairs.  The velocity update is
    ``v <- momentum * v + grad + weight_decay * w`` followed by
    ``w <- w - lr * v``; rows flagged frozen (gate below ``delta_freeze``)
    are left untouched, velocity included.
    """
    for param, frozen in module.param_groups(delta_freeze):
        if param.grad is None:
            continue
        if param.velocity is None:
            param.velocity = np.zeros_like(param.data)
        v_new = momentum * param.velocity + param.grad + weight_decay * param.data
        if frozen is None or not frozen.any():
            param.velocity = v_new
            param.data -= lr * v_new
        else:
            active = ~frozen
            param.velocity[active] = v_new[active]
            param.data[active] -= lr * v_new[active]
