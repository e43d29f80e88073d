"""Model assembly: blocks, architectures, and physical compaction.

A model is an ordered list of blocks.  Weighted blocks wrap the masked layers
from :mod:`maskprune.layers`; the per-channel gate of a conv is applied after
its batch norm (when present) so that a hard-zero gate makes the channel's
contribution exactly zero downstream, which in turn makes physical channel
removal prediction-preserving.

Compaction (`Model.compact`) produces a new model built from plain
inference-only layers with pruned channels physically removed — no masks, no
gates, no accumulators.  Residual blocks only ever have their first (in-block)
convolution narrowed; the stream width entering and leaving a block is fixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .layers import (
    BatchNorm2d,
    Flatten,
    GlobalAvgPool,
    MaskedConv2d,
    MaskedLinear,
    MaxPool2d,
    Parameter,
    ReLU,
    _apply_channel_gate,
    _gate_grad,
)
from .rng import TAG_INIT, keyed_rng
from .tensor import Tensor, _as_array, conv_output_hw


def _rng(seed: int, stream: int) -> np.random.Generator:
    return keyed_rng(seed, TAG_INIT | stream)


def _he_conv(rng, cout, cin, k):
    std = np.sqrt(2.0 / (cin * k * k))
    return rng.normal(0.0, std, size=(cout, cin, k, k))


def _he_linear(rng, out, inp):
    std = np.sqrt(2.0 / inp)
    return rng.normal(0.0, std, size=(out, inp))


# ---------------------------------------------------------------------------
# inference-only layers used by compacted models
# ---------------------------------------------------------------------------


class PlainConv2d:
    def __init__(self, weight, bias, stride, padding):
        # fancy indexing during compaction can leave transposed strides;
        # normalise so matmul takes the same BLAS path as the gated layer
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        self.stride = stride
        self.padding = padding

    @property
    def out_channels(self):
        return self.weight.shape[0]

    def forward(self, x):
        from .tensor import conv2d_forward

        return conv2d_forward(x, self.weight, self.bias, self.stride, self.padding).data


class PlainLinear:
    def __init__(self, weight, bias):
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)

    @property
    def out_channels(self):
        return self.weight.shape[0]

    def forward(self, x):
        return x @ self.weight.T + self.bias


class PlainBatchNorm:
    def __init__(self, gamma, beta, mean, var, eps):
        self.gamma = np.asarray(gamma, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.var = np.asarray(var, dtype=np.float64)
        self.eps = eps

    def forward(self, x):
        # same association as the trainable layer so an all-keep compaction
        # reproduces the gated forward bit for bit
        inv = 1.0 / np.sqrt(self.var + self.eps)
        x_hat = (x - self.mean[None, :, None, None]) * inv[None, :, None, None]
        return self.gamma[None, :, None, None] * x_hat + self.beta[None, :, None, None]


# ---------------------------------------------------------------------------
# trainable blocks
# ---------------------------------------------------------------------------


class ConvBlock:
    """conv -> [bn] -> gate -> [maxpool] -> [relu]

    ReLU is monotone, so ``relu(maxpool(z)) == maxpool(relu(z))`` exactly, and
    the backward routes every gradient to the same input in either order (a
    window whose maximum is <= 0 passes none).  Pooling first lets the ReLU
    forward, backward and stored mask work on a tensor k*k times smaller.
    """

    def __init__(self, name: str, conv: MaskedConv2d, bn: BatchNorm2d | None = None,
                 relu: bool = True, pool: int | None = None, prunable: bool = True):
        self.name = name
        self.conv = conv
        self.conv.apply_gate = False  # the block applies the gate post-bn
        self.bn = bn
        self.relu = ReLU() if relu else None
        self.pool = MaxPool2d(pool) if pool else None
        self.prunable = prunable
        self.delta_freeze = 1e-3
        self._pre_gate = None

    def forward(self, x, train: bool = True, update_stats: bool = True):
        z = self.conv.forward(x, train).data
        if self.bn is not None:
            mask = self.conv.gate >= self.delta_freeze if train and update_stats else None
            z = self.bn.forward(z, train, update_stats=update_stats, update_mask=mask).data
        self._pre_gate = z
        z = _apply_channel_gate(z, self.conv.gate)
        if self.pool is not None:
            z = self.pool.forward(z, train).data
        if self.relu is not None:
            z = self.relu.forward(z, train).data
        return z

    def backward(self, g, input_grad: bool = True):
        if self.relu is not None:
            g = self.relu.backward(g).data
        if self.pool is not None:
            g = self.pool.backward(g).data
        self.conv.gate_grad = _gate_grad(g, self._pre_gate)
        g = _apply_channel_gate(g, self.conv.gate)
        if self.bn is not None:
            g = self.bn.backward(g).data
        gx = self.conv.backward(g, input_grad)
        return gx.data if input_grad else None

    def param_groups(self, delta_freeze: float = 0.0):
        yield from self.conv.param_groups(delta_freeze)
        if self.bn is not None:
            yield from self.bn.param_groups(delta_freeze)

    def out_shape(self, in_shape):
        c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, *self.conv.weight.shape[2:], self.conv.stride,
                                self.conv.padding)
        if self.pool is not None:
            ho, wo = self.pool.out_hw(ho, wo)
        return (self.conv.out_channels, ho, wo)

    def compacted(self, in_keep: np.ndarray, out_keep: np.ndarray) -> "PlainConvBlock":
        w = self.conv.weight.data[out_keep][:, in_keep]
        b = self.conv.bias.data[out_keep]
        conv = PlainConv2d(w, b, self.conv.stride, self.conv.padding)
        bn = None
        if self.bn is not None:
            bn = PlainBatchNorm(self.bn.gamma.data[out_keep], self.bn.beta.data[out_keep],
                                self.bn.running_mean[out_keep], self.bn.running_var[out_keep],
                                self.bn.eps)
        return PlainConvBlock(self.name, conv, bn, self.relu is not None,
                              self.pool.kernel if self.pool else None)


class LinearBlock:
    """linear -> gate -> [relu]"""

    def __init__(self, name: str, linear: MaskedLinear, relu: bool = False,
                 prunable: bool = False):
        self.name = name
        self.linear = linear
        self.linear.apply_gate = False
        self.relu = ReLU() if relu else None
        self.prunable = prunable
        self.delta_freeze = 1e-3
        self._pre_gate = None

    def forward(self, x, train: bool = True, update_stats: bool = True):
        z = self.linear.forward(x, train).data
        self._pre_gate = z
        z = _apply_channel_gate(z, self.linear.gate)
        if self.relu is not None:
            z = self.relu.forward(z, train).data
        return z

    def backward(self, g, input_grad: bool = True):
        if self.relu is not None:
            g = self.relu.backward(g).data
        self.linear.gate_grad = _gate_grad(g, self._pre_gate)
        g = _apply_channel_gate(g, self.linear.gate)
        gx = self.linear.backward(g, input_grad)
        return gx.data if input_grad else None

    def param_groups(self, delta_freeze: float = 0.0):
        yield from self.linear.param_groups(delta_freeze)

    def out_shape(self, in_shape):
        return (self.linear.out_channels,)

    def compacted(self, in_keep: np.ndarray, out_keep: np.ndarray) -> "PlainLinearBlock":
        w = self.linear.weight.data[out_keep][:, in_keep]
        b = self.linear.bias.data[out_keep]
        return PlainLinearBlock(self.name, PlainLinear(w, b), self.relu is not None)


class ResidualBlock:
    """conv1 -> bn1 -> gate -> relu -> conv2 -> bn2, plus identity/projection
    shortcut, relu over the sum.  Only conv1 is prunable; the stream width is
    part of the block's interface and never narrows."""

    def __init__(self, name: str, conv1: MaskedConv2d, bn1: BatchNorm2d,
                 conv2: MaskedConv2d, bn2: BatchNorm2d,
                 ds_conv: MaskedConv2d | None = None, ds_bn: BatchNorm2d | None = None):
        self.name = name
        self.conv1, self.bn1 = conv1, bn1
        self.conv2, self.bn2 = conv2, bn2
        self.ds_conv, self.ds_bn = ds_conv, ds_bn
        for c in (conv1, conv2, ds_conv):
            if c is not None:
                c.apply_gate = False
        self.relu1 = ReLU()
        self.relu2 = ReLU()
        self.prunable = True
        self.delta_freeze = 1e-3
        self._pre_gate = None

    @property
    def prunable_name(self) -> str:
        return f"{self.name}.conv1"

    def forward(self, x, train: bool = True, update_stats: bool = True):
        z = self.conv1.forward(x, train).data
        mask = self.conv1.gate >= self.delta_freeze if train and update_stats else None
        z = self.bn1.forward(z, train, update_stats=update_stats, update_mask=mask).data
        self._pre_gate = z
        z = _apply_channel_gate(z, self.conv1.gate)
        z = self.relu1.forward(z, train).data
        z = self.conv2.forward(z, train).data
        z = self.bn2.forward(z, train, update_stats=update_stats).data
        if self.ds_conv is not None:
            identity = self.ds_conv.forward(x, train).data
            identity = self.ds_bn.forward(identity, train, update_stats=update_stats).data
        else:
            identity = x if isinstance(x, np.ndarray) else _as_array(x)
        return self.relu2.forward(z + identity, train).data

    def backward(self, g, input_grad: bool = True):
        g = self.relu2.backward(g).data
        gm = self.bn2.backward(g).data
        gm = self.conv2.backward(gm).data
        gm = self.relu1.backward(gm).data
        self.conv1.gate_grad = _gate_grad(gm, self._pre_gate)
        gm = _apply_channel_gate(gm, self.conv1.gate)
        gm = self.bn1.backward(gm).data
        gx = self.conv1.backward(gm, input_grad)
        gs = g
        if self.ds_conv is not None:
            gs = self.ds_conv.backward(self.ds_bn.backward(g).data, input_grad)
        if not input_grad:
            return None
        return gx.data + _as_array(gs)

    def param_groups(self, delta_freeze: float = 0.0):
        yield from self.conv1.param_groups(delta_freeze)
        yield from self.bn1.param_groups(delta_freeze)
        yield from self.conv2.param_groups(0.0)
        yield from self.bn2.param_groups(0.0)
        if self.ds_conv is not None:
            yield from self.ds_conv.param_groups(0.0)
            yield from self.ds_bn.param_groups(0.0)

    def out_shape(self, in_shape):
        c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, 3, 3, self.conv1.stride, self.conv1.padding)
        return (self.conv2.out_channels, ho, wo)

    def compacted(self, in_keep: np.ndarray, internal_keep: np.ndarray) -> "PlainResidualBlock":
        if not in_keep.all():
            raise ShapeError(f"residual block {self.name} cannot narrow its input stream")
        c1 = PlainConv2d(self.conv1.weight.data[internal_keep], self.conv1.bias.data[internal_keep],
                         self.conv1.stride, self.conv1.padding)
        b1 = PlainBatchNorm(self.bn1.gamma.data[internal_keep], self.bn1.beta.data[internal_keep],
                            self.bn1.running_mean[internal_keep],
                            self.bn1.running_var[internal_keep], self.bn1.eps)
        c2 = PlainConv2d(self.conv2.weight.data[:, internal_keep], self.conv2.bias.data,
                         self.conv2.stride, self.conv2.padding)
        b2 = PlainBatchNorm(self.bn2.gamma.data, self.bn2.beta.data, self.bn2.running_mean,
                            self.bn2.running_var, self.bn2.eps)
        ds = None
        if self.ds_conv is not None:
            ds = (PlainConv2d(self.ds_conv.weight.data, self.ds_conv.bias.data,
                              self.ds_conv.stride, self.ds_conv.padding),
                  PlainBatchNorm(self.ds_bn.gamma.data, self.ds_bn.beta.data,
                                 self.ds_bn.running_mean, self.ds_bn.running_var, self.ds_bn.eps))
        return PlainResidualBlock(self.name, c1, b1, c2, b2, ds)


class PoolBlock:
    """Global average pooling: [N,C,H,W] -> [N,C]."""

    def __init__(self, name: str = "gap"):
        self.name = name
        self.prunable = False
        self.gap = GlobalAvgPool()

    def forward(self, x, train: bool = True, update_stats: bool = True):
        return self.gap.forward(x, train).data

    def backward(self, g, input_grad: bool = True):
        return self.gap.backward(g).data if input_grad else None

    def param_groups(self, delta_freeze: float = 0.0):
        return iter(())

    def out_shape(self, in_shape):
        return (in_shape[0],)

    def compacted(self, in_keep, out_keep):
        return PoolBlock(self.name)


class FlattenBlock:
    def __init__(self, name: str = "flatten"):
        self.name = name
        self.prunable = False
        self.flatten = Flatten()

    def forward(self, x, train: bool = True, update_stats: bool = True):
        return self.flatten.forward(x, train).data

    def backward(self, g, input_grad: bool = True):
        return self.flatten.backward(g).data if input_grad else None

    def param_groups(self, delta_freeze: float = 0.0):
        return iter(())

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (c * h * w,)

    def compacted(self, in_keep, out_keep):
        return FlattenBlock(self.name)


# ---------------------------------------------------------------------------
# inference-only block counterparts
# ---------------------------------------------------------------------------


class PlainConvBlock:
    def __init__(self, name, conv: PlainConv2d, bn: PlainBatchNorm | None, relu: bool,
                 pool: int | None):
        self.name = name
        self.conv = conv
        self.bn = bn
        self.relu = relu
        self.pool = MaxPool2d(pool) if pool else None
        self.prunable = False

    def forward(self, x, train: bool = False, update_stats: bool = False):
        z = self.conv.forward(x)
        if self.bn is not None:
            z = self.bn.forward(z)
        if self.pool is not None:
            z = self.pool.forward(z).data
        if self.relu:
            z = np.maximum(z, 0.0)
        return z

    def out_shape(self, in_shape):
        c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, *self.conv.weight.shape[2:], self.conv.stride,
                                self.conv.padding)
        if self.pool is not None:
            ho, wo = self.pool.out_hw(ho, wo)
        return (self.conv.out_channels, ho, wo)


class PlainLinearBlock:
    def __init__(self, name, linear: PlainLinear, relu: bool):
        self.name = name
        self.linear = linear
        self.relu = relu
        self.prunable = False

    def forward(self, x, train: bool = False, update_stats: bool = False):
        z = self.linear.forward(x)
        if self.relu:
            z = np.maximum(z, 0.0)
        return z

    def out_shape(self, in_shape):
        return (self.linear.out_channels,)


class PlainResidualBlock:
    def __init__(self, name, conv1, bn1, conv2, bn2, ds):
        self.name = name
        self.conv1, self.bn1 = conv1, bn1
        self.conv2, self.bn2 = conv2, bn2
        self.ds = ds
        self.prunable = False

    def forward(self, x, train: bool = False, update_stats: bool = False):
        z = np.maximum(self.bn1.forward(self.conv1.forward(x)), 0.0)
        z = self.bn2.forward(self.conv2.forward(z))
        if self.ds is not None:
            identity = self.ds[1].forward(self.ds[0].forward(x))
        else:
            identity = x
        return np.maximum(z + identity, 0.0)

    def out_shape(self, in_shape):
        c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, 3, 3, self.conv1.stride, self.conv1.padding)
        return (self.conv2.out_channels, ho, wo)


# ---------------------------------------------------------------------------
# the model container
# ---------------------------------------------------------------------------


@dataclass
class PrunableRef:
    name: str
    layer: object  # MaskedConv2d | MaskedLinear
    kind: str      # "conv" | "fc"


class Model:
    def __init__(self, arch: str, blocks: list, input_shape: tuple[int, int, int],
                 classes: int, compacted: bool = False):
        self.arch = arch
        self.blocks = blocks
        self.input_shape = tuple(input_shape)
        self.classes = classes
        self.compacted = compacted

    def forward(self, x, train: bool = True, update_stats: bool = True) -> np.ndarray:
        z = _as_array(x)
        for block in self.blocks:
            z = block.forward(z, train=train, update_stats=update_stats)
        return z

    def backward(self, grad_logits) -> None:
        """Backpropagate ``grad_logits`` through every block, filling the
        parameter gradients and each masked layer's ``mask_grad`` and
        ``gate_grad``.  Nothing reads the gradient w.r.t. the images, so the
        first block skips it and this returns None."""
        g = _as_array(grad_logits)
        first = self.blocks[0]
        for block in reversed(self.blocks):
            g = block.backward(g, input_grad=block is not first)

    def param_groups(self, delta_freeze: float = 0.0):
        for block in self.blocks:
            yield from block.param_groups(delta_freeze)

    def prunable(self) -> list[PrunableRef]:
        refs = []
        for block in self.blocks:
            if not getattr(block, "prunable", False):
                continue
            if isinstance(block, ConvBlock):
                refs.append(PrunableRef(block.name, block.conv, "conv"))
            elif isinstance(block, LinearBlock):
                refs.append(PrunableRef(block.name, block.linear, "fc"))
            elif isinstance(block, ResidualBlock):
                refs.append(PrunableRef(block.prunable_name, block.conv1, "conv"))
        return refs

    def set_delta_freeze(self, value: float) -> None:
        for block in self.blocks:
            if hasattr(block, "delta_freeze"):
                block.delta_freeze = value

    # -- serialization ------------------------------------------------------

    def _named_layers(self):
        for block in self.blocks:
            if isinstance(block, ConvBlock):
                yield f"{block.name}.conv", block.conv
                if block.bn is not None:
                    yield f"{block.name}.bn", block.bn
            elif isinstance(block, LinearBlock):
                yield f"{block.name}.linear", block.linear
            elif isinstance(block, ResidualBlock):
                yield f"{block.name}.conv1", block.conv1
                yield f"{block.name}.bn1", block.bn1
                yield f"{block.name}.conv2", block.conv2
                yield f"{block.name}.bn2", block.bn2
                if block.ds_conv is not None:
                    yield f"{block.name}.ds_conv", block.ds_conv
                    yield f"{block.name}.ds_bn", block.ds_bn

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name, layer in self._named_layers():
            if isinstance(layer, (MaskedConv2d, MaskedLinear)):
                out[f"{name}.weight"] = layer.weight.data
                out[f"{name}.bias"] = layer.bias.data
                out[f"{name}.gate"] = layer.gate
                out[f"{name}.mask_grad"] = layer.mask_grad
                out[f"{name}.mask_samples"] = np.array(float(layer.mask_samples))
                for pname, p in (("weight", layer.weight), ("bias", layer.bias)):
                    if p.velocity is not None:
                        out[f"{name}.{pname}.velocity"] = p.velocity
            elif isinstance(layer, BatchNorm2d):
                out[f"{name}.gamma"] = layer.gamma.data
                out[f"{name}.beta"] = layer.beta.data
                out[f"{name}.running_mean"] = layer.running_mean
                out[f"{name}.running_var"] = layer.running_var
                for pname, p in (("gamma", layer.gamma), ("beta", layer.beta)):
                    if p.velocity is not None:
                        out[f"{name}.{pname}.velocity"] = p.velocity
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` into the model's own arrays, in place; every array
        is checked for presence and shape before anything is assigned.  The
        mask is reset to all ones, and a velocity the state lacks is dropped."""
        shapes = {k: v.shape for k, v in self.state_arrays().items()
                  if not k.endswith(".velocity")}
        missing = set(shapes) - set(arrays)
        if missing:
            raise ShapeError(f"state is missing arrays: {sorted(missing)[:4]}")
        for key, want in shapes.items():
            for name in (key, f"{key}.velocity"):
                if name in arrays and np.shape(arrays[name]) != want:
                    raise ShapeError(
                        f"state array {name} has shape {tuple(np.shape(arrays[name]))}, "
                        f"model expects {tuple(want)}")

        def load_param(p: Parameter, key: str) -> None:
            np.copyto(p.data, arrays[key])
            velocity = arrays.get(f"{key}.velocity")
            if velocity is None:
                p.velocity = None
            elif p.velocity is None:
                p.velocity = np.array(velocity, dtype=np.float64)
            else:
                np.copyto(p.velocity, velocity)

        for name, layer in self._named_layers():
            if isinstance(layer, (MaskedConv2d, MaskedLinear)):
                load_param(layer.weight, f"{name}.weight")
                load_param(layer.bias, f"{name}.bias")
                np.copyto(layer.gate, arrays[f"{name}.gate"])
                np.copyto(layer.mask_grad, arrays[f"{name}.mask_grad"])
                layer.mask_samples = int(arrays[f"{name}.mask_samples"])
                layer.mask.fill(1.0)
            elif isinstance(layer, BatchNorm2d):
                load_param(layer.gamma, f"{name}.gamma")
                load_param(layer.beta, f"{name}.beta")
                np.copyto(layer.running_mean, arrays[f"{name}.running_mean"])
                np.copyto(layer.running_var, arrays[f"{name}.running_var"])

    # -- compaction ---------------------------------------------------------

    def compact(self, keep: dict[str, np.ndarray]) -> "Model":
        """Physically remove channels whose keep flag is 0.

        ``keep`` maps prunable layer names to boolean/0-1 vectors; layers not
        in the map keep every channel.  Returns a new inference-only model.
        """
        if self.compacted:
            raise ShapeError("model is already compacted")
        active = np.ones(self.input_shape[0], dtype=bool)
        new_blocks = []
        for block in self.blocks:
            if isinstance(block, ConvBlock):
                out_keep = _keep_vector(keep, block.name, block.conv.out_channels,
                                        block.prunable)
                new_blocks.append(block.compacted(active, out_keep))
                active = out_keep
            elif isinstance(block, LinearBlock):
                out_keep = _keep_vector(keep, block.name, block.linear.out_channels,
                                        block.prunable)
                new_blocks.append(block.compacted(active, out_keep))
                active = out_keep
            elif isinstance(block, ResidualBlock):
                internal = _keep_vector(keep, block.prunable_name,
                                        block.conv1.out_channels, True)
                new_blocks.append(block.compacted(active, internal))
                active = np.ones(block.conv2.out_channels, dtype=bool)
            elif isinstance(block, FlattenBlock):
                shape = block.flatten.last_in_shape
                if shape is None:
                    raise ShapeError(
                        "flatten block has no recorded input shape; run a forward pass first"
                    )
                _, c, h, w = shape
                active = np.repeat(active, h * w)
                new_blocks.append(block.compacted(None, None))
            elif isinstance(block, PoolBlock):
                new_blocks.append(block.compacted(None, None))
            else:
                raise ShapeError(f"cannot compact block of type {type(block).__name__}")
        return Model(self.arch, new_blocks, self.input_shape, self.classes, compacted=True)


def _keep_vector(keep: dict[str, np.ndarray], name: str, width: int, prunable: bool) -> np.ndarray:
    if name not in keep:
        return np.ones(width, dtype=bool)
    if not prunable:
        raise ShapeError(f"layer {name} is not prunable")
    vec = np.asarray(keep[name]).astype(bool)
    if vec.shape != (width,):
        raise ShapeError(f"keep vector for {name} has shape {vec.shape}, expected ({width},)")
    if not vec.any():
        raise ShapeError(f"keep vector for {name} removes every channel")
    return vec


# ---------------------------------------------------------------------------
# architectures
# ---------------------------------------------------------------------------


def _conv_block(name, rng, cin, cout, k, stride, padding, bn=True, relu=True, pool=None,
                prunable=True):
    conv = MaskedConv2d(_he_conv(rng, cout, cin, k), np.zeros(cout), stride, padding)
    return ConvBlock(name, conv, BatchNorm2d(cout) if bn else None, relu, pool, prunable)


def _tiny_cnn(in_ch, hw, classes, seed):
    widths = (8, 16, 24, 32)
    blocks = [
        _conv_block("conv1", _rng(seed, 1), in_ch, widths[0], 3, 1, 1, pool=2),
        _conv_block("conv2", _rng(seed, 2), widths[0], widths[1], 3, 1, 1, pool=2),
        _conv_block("conv3", _rng(seed, 3), widths[1], widths[2], 3, 1, 1),
        _conv_block("conv4", _rng(seed, 4), widths[2], widths[3], 3, 1, 1),
        PoolBlock("gap"),
        LinearBlock("fc", MaskedLinear(_he_linear(_rng(seed, 5), classes, widths[3]),
                                       np.zeros(classes)), relu=False, prunable=False),
    ]
    return blocks


def _lenet(in_ch, hw, classes, seed):
    h = (hw + 2 * 2 - 5) + 1          # conv1, padding 2
    h = h // 2                        # pool
    h = (h - 5) + 1                   # conv2, no padding
    h = h // 2                        # pool
    flat = 16 * h * h
    blocks = [
        _conv_block("conv1", _rng(seed, 1), in_ch, 6, 5, 1, 2, bn=False, pool=2),
        _conv_block("conv2", _rng(seed, 2), 6, 16, 5, 1, 0, bn=False, pool=2),
        FlattenBlock("flatten"),
        LinearBlock("fc1", MaskedLinear(_he_linear(_rng(seed, 3), 120, flat), np.zeros(120)),
                    relu=True, prunable=True),
        LinearBlock("fc2", MaskedLinear(_he_linear(_rng(seed, 4), 84, 120), np.zeros(84)),
                    relu=True, prunable=True),
        LinearBlock("fc3", MaskedLinear(_he_linear(_rng(seed, 5), classes, 84),
                                        np.zeros(classes)), relu=False, prunable=False),
    ]
    return blocks


_VGG16_PLAN = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M",
               512, 512, 512, "M"]


def _vgg16(in_ch, hw, classes, seed):
    blocks = []
    cin = in_ch
    idx = 0
    plan = list(_VGG16_PLAN)
    for pos, item in enumerate(plan):
        if item == "M":
            continue
        idx += 1
        pool = 2 if pos + 1 < len(plan) and plan[pos + 1] == "M" else None
        blocks.append(_conv_block(f"conv{idx}", _rng(seed, idx), cin, item, 3, 1, 1, pool=pool))
        cin = item
    blocks.append(FlattenBlock("flatten"))
    spatial = hw // 32
    blocks.append(LinearBlock("fc", MaskedLinear(
        _he_linear(_rng(seed, idx + 1), classes, cin * spatial * spatial), np.zeros(classes)),
        relu=False, prunable=False))
    return blocks


def _resnet56(in_ch, hw, classes, seed):
    blocks = [_conv_block("stem", _rng(seed, 0), in_ch, 16, 3, 1, 1, prunable=False)]
    stream = 16
    counter = itertools.count(1)
    for stage, width in enumerate((16, 32, 64)):
        for b in range(9):
            stride = 2 if (stage > 0 and b == 0) else 1
            i = next(counter)
            rng = _rng(seed, 100 + i)
            conv1 = MaskedConv2d(_he_conv(rng, width, stream, 3), np.zeros(width), stride, 1)
            conv2 = MaskedConv2d(_he_conv(rng, width, width, 3), np.zeros(width), 1, 1)
            ds_conv = ds_bn = None
            if stride != 1 or stream != width:
                ds_conv = MaskedConv2d(_he_conv(rng, width, stream, 1), np.zeros(width),
                                       stride, 0)
                ds_bn = BatchNorm2d(width)
            blocks.append(ResidualBlock(f"res{i}", conv1, BatchNorm2d(width), conv2,
                                        BatchNorm2d(width), ds_conv, ds_bn))
            stream = width
    blocks.append(PoolBlock("gap"))
    blocks.append(LinearBlock("fc", MaskedLinear(_he_linear(_rng(seed, 999), classes, 64),
                                                 np.zeros(classes)), relu=False, prunable=False))
    return blocks


_ARCHS = {
    "tiny-cnn": _tiny_cnn,
    "lenet": _lenet,
    "vgg16": _vgg16,
    "resnet56": _resnet56,
}


def build_model(arch: str, in_channels: int = 1, image_size: int = 28, classes: int = 10,
                seed: int = 0) -> Model:
    """Construct one of the known architectures with seeded He initialization."""
    if arch not in _ARCHS:
        raise ShapeError(f"unknown architecture '{arch}'; expected one of {sorted(_ARCHS)}")
    blocks = _ARCHS[arch](in_channels, image_size, classes, seed)
    return Model(arch, blocks, (in_channels, image_size, image_size), classes)
