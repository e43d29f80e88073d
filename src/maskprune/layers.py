"""Network layers.

The two weighted layer types, ``MaskedConv2d`` and ``MaskedLinear``, are a
plain conv/linear layer plus a per-output-channel ``gate`` in [0, 1].  Gates
are written by the pruning controller (soft values while a strategy anneals,
hard 0/1 afterwards) and scale the channel's activations; a gate below
:data:`DELTA_FREEZE` also freezes the channel's weights and its batch-norm
statistics ("false pruning": the channel stays in memory but stops
participating), and cost accounting counts the channel as removed.  The block
that owns the layer decides where the gate sits (after its batch norm, see
:mod:`maskprune.models`) and calls the layer's ``gate_forward`` and
``gate_backward`` there.  Only a soft gate, one with some entry strictly
inside (0, 1), gets a gradient ``gate_grad``; under a 0/1 gate it is None.  In
a run the only soft gate is the active prune layer's, the one gate whose
gradient the keep strategy reads.

The layers are named for the paper's multiplicative weight mask, but they
keep none: a weight's influence, the loss gradient w.r.t. its mask entry at
m = 1, is ``w * dL/dw``, and :mod:`maskprune.influence` computes it from the
weight and the gradient the backward leaves here, only where it is read.

A weight is drawn when it is first read, not when its layer is built: a
:class:`Parameter` made by a :class:`_DrawStream` knows its ``shape`` at once
and draws its ``data`` on the first read, so a weight that is assigned (say,
loaded from a checkpoint) before anything reads it is never drawn at all.  A
slice of a weight not yet drawn (``Parameter.sliced``) is not drawn either:
it is a one-entry stream, whose draw reads the source and cuts the slice.

Every ``forward``/``backward`` here takes any array-like and returns a
C-contiguous float64 ndarray.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import DataError, ShapeError
from .tensor import _as_array, conv2d_backward, conv2d_forward

#: a channel whose gate is below this is frozen: no weight or batch-norm
#: statistics update, no influence de-gating, no cost
DELTA_FREEZE = 1e-3


class Parameter:
    """A trainable array with its gradient and momentum buffer.

    ``shape`` never needs ``data``.  A parameter made by
    :meth:`_DrawStream.add` has no array until ``data`` is first read;
    assigning ``data`` before that means it is never drawn.
    """

    __slots__ = ("_data", "_shape", "_stream", "grad", "velocity", "__weakref__")

    def __init__(self, data: np.ndarray):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad: np.ndarray | None = None
        self.velocity: np.ndarray | None = None

    @property
    def data(self) -> np.ndarray:
        if self._stream is not None:
            self._stream.draw()
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self._shape = value.shape
        self._stream = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    def _load(self, data, velocity) -> None:
        """Copy ``data`` and ``velocity`` (None drops the momentum buffer) into
        this parameter's own buffers: in place where a buffer exists, else into
        a fresh one, so a weight not yet drawn never is."""
        if self._stream is None:
            np.copyto(self._data, data)
        else:
            self.data = np.array(data, dtype=np.float64, order="C")
        if velocity is None:
            self.velocity = None
        elif self.velocity is None:
            self.velocity = np.array(velocity, dtype=np.float64)
        else:
            np.copyto(self.velocity, velocity)

    def sliced(self, *keeps: np.ndarray, velocity: bool = False) -> "Parameter":
        """A new parameter over a copy of the entries ``keeps`` selects, one
        boolean vector per leading axis, with the matching velocity entries if
        ``velocity``.  A parameter not yet drawn gives one not yet drawn: its
        first read draws this one and slices it, so one assigned first never
        draws."""
        if self._stream is not None:
            shape = tuple(map(np.count_nonzero, keeps)) + self._shape[len(keeps):]
            return _DrawStream(lambda: None).add(shape, lambda _: self.data[_index(keeps)])
        index = _index(keeps)
        out = Parameter(self._data[index])
        if velocity and self.velocity is not None:
            out.velocity = np.ascontiguousarray(self.velocity[index])
        return out


def _index(keeps: tuple[np.ndarray, ...]):
    """The index that selects ``keeps``, one boolean vector per leading axis;
    ``np.ix_`` makes the copy it takes C-contiguous."""
    return np.ix_(*keeps) if len(keeps) > 1 else keeps[0]


class _DrawStream:
    """Parameters whose arrays are drawn in sequence from one generator.

    Nothing is drawn until the ``data`` of one of them is read.  That read
    draws the array of every parameter added, in the order they were added,
    from a fresh ``make_rng()``, so each gets the bytes an eager draw in that
    order would have given it, whichever is read first.  A parameter whose
    ``data`` was assigned first still has its array drawn, since the arrays
    after it depend on it, and then dropped.

    The stream holds its parameters by weak reference and each parameter holds
    the stream only until it has data, so the two never form a reference cycle
    that would keep a dropped model alive until the cycle collector runs.
    """

    def __init__(self, make_rng):
        self._make_rng = make_rng
        self._pending: list = []

    def add(self, shape: tuple[int, ...], draw) -> Parameter:
        """A parameter of ``shape`` with no array until its first read calls
        :meth:`draw`, which gives it ``draw(rng)``."""
        p = Parameter.__new__(Parameter)
        p._data = None
        p._shape = tuple(shape)
        p._stream = self
        p.grad = p.velocity = None
        self._pending.append((weakref.ref(p), draw))
        return p

    def draw(self) -> None:
        rng = self._make_rng()
        pending, self._pending = self._pending, []
        for ref, draw in pending:
            data = draw(rng)
            p = ref()
            if p is not None and p._stream is self:
                p.data = np.ascontiguousarray(data, dtype=np.float64)


def _copy_with(layer, **attrs):
    """A layer of ``layer``'s class with its attributes, ``attrs`` replacing
    some, built without running the constructor."""
    out = object.__new__(type(layer))
    out.__dict__.update(vars(layer), **attrs)
    return out


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


class _MaskedLayer:
    """What both masked layers share: weight, bias and the per-channel gate.

    ``gate_forward`` scales each output channel by its gate, and
    ``gate_backward`` returns the gradient through it.  A soft gate (some entry
    strictly inside (0, 1)) keeps the pre-gate activation on the forward, and
    its backward fills ``gate_grad``, dL/dgate.  A 0/1 gate keeps nothing and
    leaves ``gate_grad`` None: the strategy that reads it scales it by
    soft * (1 - soft), which is exactly 0 at a 0/1 entry.
    """

    def __init__(self, weight: np.ndarray | Parameter, bias: np.ndarray | Parameter,
                 rank: int, layout: str):
        self.weight = weight if isinstance(weight, Parameter) else Parameter(weight)
        if len(self.weight.shape) != rank:
            raise ShapeError(f"{layout}, got rank {len(self.weight.shape)}")
        self.bias = bias if isinstance(bias, Parameter) else Parameter(bias)
        self.gate = np.ones(self.out_channels, dtype=np.float64)
        self.gate_grad: np.ndarray | None = None
        self._pre_gate = None
        self._cache = None

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def frozen(self) -> np.ndarray:
        """Per channel, whether its gate is below :data:`DELTA_FREEZE`."""
        return self.gate < DELTA_FREEZE

    def gate_forward(self, z: np.ndarray) -> np.ndarray:
        gate = self.gate
        self._pre_gate = z if ((gate > 0.0) & (gate < 1.0)).any() else None
        return _apply_channel_gate(z, gate)

    def gate_backward(self, grad_out: np.ndarray) -> np.ndarray:
        pre_gate = self._pre_gate
        self.gate_grad = None if pre_gate is None else _gate_grad(grad_out, pre_gate)
        return _apply_channel_gate(grad_out, self.gate)

    def param_groups(self):
        frozen = self.frozen
        yield self.weight, frozen
        yield self.bias, frozen

    def sliced(self, out_keep: np.ndarray, in_keep: np.ndarray, velocity: bool = False):
        """A copy over the weight rows ``out_keep`` and columns ``in_keep`` and
        the bias and gate entries ``out_keep``, with their velocities if
        ``velocity`` (see ``Parameter.sliced``), holding no activation."""
        return _copy_with(self, weight=self.weight.sliced(out_keep, in_keep, velocity=velocity),
                          bias=self.bias.sliced(out_keep, velocity=velocity),
                          gate=self.gate[out_keep], gate_grad=None, _pre_gate=None, _cache=None)


class MaskedConv2d(_MaskedLayer):
    """2-D convolution with a per-filter gate."""

    def __init__(self, weight: np.ndarray | Parameter, bias: np.ndarray | Parameter,
                 stride: int = 1, padding: int = 0):
        super().__init__(weight, bias, 4, "conv weight must be OIHW")
        self.stride = int(stride)
        self.padding = int(padding)

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        w = self.weight.data
        if train:
            out, cols = conv2d_forward(x, w, self.bias.data, self.stride, self.padding,
                                       return_cache=True)
        else:  # keep no Cin*Kh*Kw-times-input columns; backward recomputes them
            out = conv2d_forward(x, w, self.bias.data, self.stride, self.padding)
            cols = None
        self._cache = (x, cols)
        return out

    def backward(self, grad_out, input_grad: bool = True):
        """Fill the weight and bias gradients; return the gradient w.r.t. the
        input, or None with ``input_grad=False``."""
        if self._cache is None:
            raise ShapeError("backward called before forward")
        x, cols = self._cache
        grad_x, self.weight.grad, self.bias.grad = conv2d_backward(
            x, self.weight.data, grad_out, self.stride, self.padding, cols=cols,
            input_grad=input_grad)
        return grad_x


class MaskedLinear(_MaskedLayer):
    """Fully connected layer with a per-unit gate, like MaskedConv2d.

    A "channel" of a linear layer is one output unit (one weight row).
    """

    def __init__(self, weight: np.ndarray | Parameter, bias: np.ndarray | Parameter):
        super().__init__(weight, bias, 2, "linear weight must be [out, in]")

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        if x.ndim != 2 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"linear expects [N, {self.in_channels}] input, got {tuple(x.shape)}"
            )
        self._cache = x
        return x @ self.weight.data.T + self.bias.data

    def backward(self, grad_out, input_grad: bool = True):
        if self._cache is None:
            raise ShapeError("backward called before forward")
        g = _as_array(grad_out)
        self.weight.grad = g.T @ self._cache
        self.bias.grad = g.sum(axis=0)
        return g @ self.weight.data if input_grad else None


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
        return self.gamma.shape[0]

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
        return out

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
            return g * scale
        # dx = gamma * inv_std * (g - sum(g)/m - x_hat * sum(g * x_hat)/m), per channel
        np.multiply(x_hat, (self.gamma.grad / -m)[None, :, None, None], out=gx)
        gx += g
        gx -= (self.beta.grad / m)[None, :, None, None]
        gx *= scale
        return gx

    def param_groups(self):
        yield self.gamma, None
        yield self.beta, None

    def sliced(self, keep: np.ndarray, velocity: bool = False) -> "BatchNorm2d":
        """A copy over channels ``keep``, with their velocities if ``velocity``."""
        return _copy_with(self, gamma=self.gamma.sliced(keep, velocity=velocity),
                          beta=self.beta.sliced(keep, velocity=velocity),
                          running_mean=self.running_mean[keep],
                          running_var=self.running_var[keep], _cache=None)


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        self._mask = x > 0
        # np.maximum propagates NaN, so a bad weight upstream still reaches
        # the trainer's loss check
        return np.maximum(x, 0.0)

    def backward(self, grad_out):
        return _as_array(grad_out) * self._mask


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
        return out

    def backward(self, grad_out):
        g = _as_array(grad_out)
        shape, idx = self._cache
        gx = np.zeros(shape, dtype=g.dtype)
        for t, view in enumerate(self._taps(*idx.shape[2:])):
            np.multiply(g, idx == t, out=gx[view])
        return gx


class GlobalAvgPool:
    """Mean over the spatial dimensions: [N,C,H,W] -> [N,C]."""

    def __init__(self):
        self._in_shape = None

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        self._in_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out):
        g = _as_array(grad_out)
        n, c, h, w = self._in_shape
        return np.broadcast_to(g[:, :, None, None] / (h * w), self._in_shape).copy()


class Flatten:
    """[N,C,H,W] -> [N, C*H*W] in channel-major order."""

    def __init__(self):
        self.last_in_shape: tuple[int, ...] | None = None

    def forward(self, x, train: bool = True):
        x = _as_array(x)
        self.last_in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        g = _as_array(grad_out)
        return g.reshape(self.last_in_shape)


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
    return loss, grad


#: momentum and weight decay of the network's SGD steps
SGD_MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4


def sgd_step(module, lr: float, momentum: float = SGD_MOMENTUM,
             weight_decay: float = WEIGHT_DECAY) -> None:
    """One SGD-with-momentum update over every parameter of ``module``.

    ``module`` is anything exposing ``param_groups()`` yielding
    ``(Parameter, frozen_rows)`` pairs.  The velocity update is
    ``v <- momentum * v + grad + weight_decay * w`` followed by
    ``w <- w - lr * v``; rows flagged frozen (gate below :data:`DELTA_FREEZE`)
    are left untouched, velocity included.
    """
    for param, frozen in module.param_groups():
        if param.grad is None:
            continue
        w = param.data
        if param.velocity is None:
            param.velocity = np.zeros_like(w)
        v = param.velocity
        if frozen is None or not frozen.any():
            # in place, in the same order of operations as the frozen branch
            v *= momentum
            v += param.grad
            v += weight_decay * w
            w -= lr * v
        else:
            v_new = momentum * v + param.grad + weight_decay * w
            active = ~frozen
            v[active] = v_new[active]
            w[active] -= lr * v_new[active]
