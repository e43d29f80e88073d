"""Model assembly: blocks, architectures, and physical compaction.

A model is an ordered list of blocks.  Weighted blocks wrap the masked layers
from :mod:`maskprune.layers`; the per-channel gate of a conv is applied after
its batch norm (when present) so that a hard-zero gate makes the channel's
contribution exactly zero downstream, which in turn makes physical channel
removal prediction-preserving.  A block only places the gate: the masked
layer's ``gate_forward``/``gate_backward`` apply it, and fill ``gate_grad``
only while the gate is soft, which in a run is the active prune layer alone.

`build_model` draws no weight.  Each architecture builder records, per init
stream ``keyed_rng(seed, TAG_INIT | stream)``, which He-normal arrays that
stream draws and in what order; the first read of any weight of a stream
draws all of that stream's weights, in that order (see
:class:`maskprune.layers._DrawStream`).  A model read before it is loaded gets
the same bytes an eager build would, and a model whose state is loaded first
never draws.

Each block kind (conv, linear, residual, global pool, flatten) describes
itself, so neither `Model` nor :func:`maskprune.metrics.count_flops` switches
on block type: ``layers()`` yields its weighted layers as ``(suffix, layer)``
in state order, ``prunable_name`` and ``gated`` name its prunable masked
layer, ``sliced(active, in_shape, keep, velocity)`` returns a copy over its
kept channels with the channels it leaves open, and ``cost(in_shape,
active_in)`` its MACs, parameters and open output channels under its ``kind``
(``"conv"``, ``"res"``, ``"fc"``, or None for a block without weights).

Removing channels (a filter goes with the next layer's kernels that read it)
is one walk, ``Model._sliced``, from the input shape through each block's
``out_shape``, with no forward pass.  It slices every block over fresh copies
of the kept weights, biases, gate entries and running statistics.
`Model.compact` wraps the slices in a new model, velocities left out;
`Model.narrow`, which the trainer calls as it freezes each layer, swaps every
block for its slice, velocities kept.  Slicing a weight not yet drawn draws
nothing (``Parameter.sliced``), so a fresh model narrowed to a checkpoint's
shapes and loaded never draws.  Residual blocks only ever have their first
(in-block) convolution narrowed; the stream width is fixed.

An eval forward (``train=False``) keeps no activations: each block's layers
drop what they keep for a backward as the block returns, and a backward after
it raises.  On a hard-gated model it also runs compacted: when every prunable
gate is 0/1 with at least one channel closed and none of those layers closed
entirely, and every other gate is all ones, ``Model.forward`` returns
``self.compact(keep).forward(x)`` with ``keep`` read off the gates, so closed
channels are never computed and the kept gate entries it carries are all 1.0.
Training, soft gates, gates frozen at a nonzero value and all-open gates run
the dense path; so does a narrowed model, whose gates are all open.
"""

from __future__ import annotations

import functools
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
    _DrawStream,
)
from .rng import TAG_INIT, keyed_rng
from .tensor import _as_array, conv_output_hw


def _he_conv(rng, cout, cin, k):
    std = np.sqrt(2.0 / (cin * k * k))
    return rng.normal(0.0, std, size=(cout, cin, k, k))


def _he_linear(rng, out, inp):
    std = np.sqrt(2.0 / inp)
    return rng.normal(0.0, std, size=(out, inp))


def _init(seed: int, stream: int) -> _DrawStream:
    """The weights of one init stream, drawn on first read."""
    return _DrawStream(functools.partial(keyed_rng, seed, TAG_INIT | stream))


def _conv_weight(init: _DrawStream, cout, cin, k) -> Parameter:
    return init.add((cout, cin, k, k), functools.partial(_he_conv, cout=cout, cin=cin, k=k))


def _linear_weight(init: _DrawStream, out, inp) -> Parameter:
    return init.add((out, inp), functools.partial(_he_linear, out=out, inp=inp))


def _keep_vector(keep: dict[str, np.ndarray], block) -> np.ndarray:
    """The channels ``keep`` leaves open in ``block``'s prunable layer."""
    name, width = block.prunable_name, block.gated.out_channels
    if name not in keep:
        return np.ones(width, dtype=bool)
    if not block.prunable:
        raise ShapeError(f"layer {name} is not prunable")
    vec = np.asarray(keep[name]).astype(bool)
    if vec.shape != (width,):
        raise ShapeError(f"keep vector for {name} has shape {vec.shape}, expected ({width},)")
    if not vec.any():
        raise ShapeError(f"keep vector for {name} removes every channel")
    return vec


def _active(layer) -> int:
    """Output channels of ``layer`` that are not frozen."""
    return int((~layer.frozen).sum())


def _conv_cost(conv: MaskedConv2d, cout: int, cin: int, ho: int, wo: int,
               bn: bool = True) -> tuple[int, int]:
    """MACs and parameters of ``conv`` over ``cout`` filters and ``cin`` input
    channels writing an ``ho`` x ``wo`` map, with two batch-norm parameters
    per filter if ``bn``."""
    kh, kw = conv.weight.shape[2:]
    return cout * cin * kh * kw * ho * wo, cout * cin * kh * kw + cout + (2 * cout if bn else 0)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


class ConvBlock:
    """conv -> [bn] -> gate -> [maxpool] -> [relu]

    ReLU is monotone, so ``relu(maxpool(z)) == maxpool(relu(z))`` exactly, and
    the backward routes every gradient to the same input in either order (a
    window whose maximum is <= 0 passes none).  Pooling first lets the ReLU
    forward, backward and stored mask work on a tensor k*k times smaller.
    """

    kind = "conv"

    def __init__(self, name: str, conv: MaskedConv2d, bn: BatchNorm2d | None = None,
                 relu: bool = True, pool: int | None = None, prunable: bool = True):
        self.name = name
        self.conv = conv
        self.bn = bn
        self.relu = ReLU() if relu else None
        self.pool = MaxPool2d(pool) if pool else None
        self.prunable = prunable

    @property
    def prunable_name(self) -> str:
        return self.name

    @property
    def gated(self) -> MaskedConv2d:
        return self.conv

    def forward(self, x, train: bool = True, update_stats: bool = True):
        z = self.conv.forward(x, train)
        if self.bn is not None:
            mask = ~self.conv.frozen if train and update_stats else None
            z = self.bn.forward(z, train, update_stats=update_stats, update_mask=mask)
        z = self.conv.gate_forward(z)
        if self.pool is not None:
            z = self.pool.forward(z, train)
        if self.relu is not None:
            z = self.relu.forward(z, train)
        return z

    def backward(self, g, input_grad: bool = True):
        if self.relu is not None:
            g = self.relu.backward(g)
        if self.pool is not None:
            g = self.pool.backward(g)
        g = self.conv.gate_backward(g)
        if self.bn is not None:
            g = self.bn.backward(g)
        return self.conv.backward(g, input_grad)

    def layers(self):
        yield "conv", self.conv
        if self.bn is not None:
            yield "bn", self.bn

    def out_shape(self, in_shape):
        c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, *self.conv.weight.shape[2:], self.conv.stride,
                                self.conv.padding)
        if self.pool is not None:
            ho, wo = self.pool.out_hw(ho, wo)
        return (self.conv.out_channels, ho, wo)

    def sliced(self, active, in_shape, keep, velocity):
        out_keep = _keep_vector(keep, self)
        bn = None if self.bn is None else self.bn.sliced(out_keep, velocity)
        return ConvBlock(self.name, self.conv.sliced(out_keep, active, velocity), bn,
                         self.relu is not None, self.pool.kernel if self.pool else None,
                         self.prunable), out_keep

    def cost(self, in_shape, active_in):
        _, h, w = in_shape
        conv, out = self.conv, _active(self.conv)
        ho, wo = conv_output_hw(h, w, *conv.weight.shape[2:], conv.stride, conv.padding)
        return (*_conv_cost(conv, out, active_in, ho, wo, self.bn is not None), out)


class LinearBlock:
    """linear -> gate -> [relu]"""

    kind = "fc"

    def __init__(self, name: str, linear: MaskedLinear, relu: bool = False,
                 prunable: bool = False):
        self.name = name
        self.linear = linear
        self.relu = ReLU() if relu else None
        self.prunable = prunable

    @property
    def prunable_name(self) -> str:
        return self.name

    @property
    def gated(self) -> MaskedLinear:
        return self.linear

    def forward(self, x, train: bool = True, update_stats: bool = True):
        z = self.linear.gate_forward(self.linear.forward(x, train))
        if self.relu is not None:
            z = self.relu.forward(z, train)
        return z

    def backward(self, g, input_grad: bool = True):
        if self.relu is not None:
            g = self.relu.backward(g)
        return self.linear.backward(self.linear.gate_backward(g), input_grad)

    def layers(self):
        yield "linear", self.linear

    def out_shape(self, in_shape):
        return (self.linear.out_channels,)

    def sliced(self, active, in_shape, keep, velocity):
        out_keep = _keep_vector(keep, self)
        return LinearBlock(self.name, self.linear.sliced(out_keep, active, velocity),
                           self.relu is not None, self.prunable), out_keep

    def cost(self, in_shape, active_in):
        out = _active(self.linear)
        return out * active_in, out * active_in + out, out


class ResidualBlock:
    """conv1 -> bn1 -> gate -> relu -> conv2 -> bn2, plus identity/projection
    shortcut, relu over the sum.  Only conv1 is prunable; the stream width is
    part of the block's interface and never narrows."""

    kind = "res"

    def __init__(self, name: str, conv1: MaskedConv2d, bn1: BatchNorm2d,
                 conv2: MaskedConv2d, bn2: BatchNorm2d,
                 ds_conv: MaskedConv2d | None = None, ds_bn: BatchNorm2d | None = None):
        self.name = name
        self.conv1, self.bn1 = conv1, bn1
        self.conv2, self.bn2 = conv2, bn2
        self.ds_conv, self.ds_bn = ds_conv, ds_bn
        self.relu1 = ReLU()
        self.relu2 = ReLU()
        self.prunable = True

    @property
    def prunable_name(self) -> str:
        return f"{self.name}.conv1"

    @property
    def gated(self) -> MaskedConv2d:
        return self.conv1

    def forward(self, x, train: bool = True, update_stats: bool = True):
        z = self.conv1.forward(x, train)
        mask = ~self.conv1.frozen if train and update_stats else None
        z = self.bn1.forward(z, train, update_stats=update_stats, update_mask=mask)
        z = self.relu1.forward(self.conv1.gate_forward(z), train)
        z = self.conv2.forward(z, train)
        z = self.bn2.forward(z, train, update_stats=update_stats)
        if self.ds_conv is not None:
            identity = self.ds_conv.forward(x, train)
            identity = self.ds_bn.forward(identity, train, update_stats=update_stats)
        else:
            identity = x
        return self.relu2.forward(z + identity, train)

    def backward(self, g, input_grad: bool = True):
        g = self.relu2.backward(g)
        gm = self.bn2.backward(g)
        gm = self.conv2.backward(gm)
        gm = self.conv1.gate_backward(self.relu1.backward(gm))
        gm = self.bn1.backward(gm)
        gx = self.conv1.backward(gm, input_grad)
        gs = g
        if self.ds_conv is not None:
            gs = self.ds_conv.backward(self.ds_bn.backward(g), input_grad)
        if not input_grad:
            return None
        return gx + gs

    def layers(self):
        for suffix in ("conv1", "bn1", "conv2", "bn2", "ds_conv", "ds_bn"):
            if getattr(self, suffix) is not None:
                yield suffix, getattr(self, suffix)

    def out_shape(self, in_shape):
        c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, 3, 3, self.conv1.stride, self.conv1.padding)
        return (self.conv2.out_channels, ho, wo)

    def sliced(self, active, in_shape, keep, velocity):
        if not active.all():
            raise ShapeError(f"residual block {self.name} cannot narrow its input stream")
        internal = _keep_vector(keep, self)
        stream = np.ones(self.conv2.out_channels, dtype=bool)
        ds_conv = ds_bn = None
        if self.ds_conv is not None:
            ds_conv = self.ds_conv.sliced(stream, active, velocity)
            ds_bn = self.ds_bn.sliced(stream, velocity)
        return ResidualBlock(self.name, self.conv1.sliced(internal, active, velocity),
                             self.bn1.sliced(internal, velocity),
                             self.conv2.sliced(stream, internal, velocity),
                             self.bn2.sliced(stream, velocity), ds_conv, ds_bn), stream

    def cost(self, in_shape, active_in):
        internal, stream = _active(self.conv1), self.conv2.out_channels
        _, ho, wo = self.out_shape(in_shape)
        parts = [_conv_cost(self.conv1, internal, active_in, ho, wo),
                 _conv_cost(self.conv2, stream, internal, ho, wo)]
        if self.ds_conv is not None:
            parts.append(_conv_cost(self.ds_conv, stream, active_in, ho, wo))
        macs, params = map(sum, zip(*parts))
        return macs, params, stream


class PoolBlock:
    """Global average pooling: [N,C,H,W] -> [N,C]."""

    kind = None

    def __init__(self, name: str = "gap"):
        self.name = name
        self.prunable = False
        self.gap = GlobalAvgPool()

    def forward(self, x, train: bool = True, update_stats: bool = True):
        return self.gap.forward(x, train)

    def backward(self, g, input_grad: bool = True):
        return self.gap.backward(g) if input_grad else None

    def layers(self):
        return iter(())

    def out_shape(self, in_shape):
        return (in_shape[0],)

    def sliced(self, active, in_shape, keep, velocity):
        return PoolBlock(self.name), active

    def cost(self, in_shape, active_in):
        return 0, 0, active_in


class FlattenBlock:
    """[N,C,H,W] -> [N,C*H*W]: each input channel becomes H*W features."""

    kind = None

    def __init__(self, name: str = "flatten"):
        self.name = name
        self.prunable = False
        self.flatten = Flatten()

    def forward(self, x, train: bool = True, update_stats: bool = True):
        return self.flatten.forward(x, train)

    def backward(self, g, input_grad: bool = True):
        return self.flatten.backward(g) if input_grad else None

    def layers(self):
        return iter(())

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (c * h * w,)

    def sliced(self, active, in_shape, keep, velocity):
        _, h, w = in_shape
        return FlattenBlock(self.name), np.repeat(active, h * w)

    def cost(self, in_shape, active_in):
        _, h, w = in_shape
        return 0, 0, active_in * h * w


# perfbench/probes.py times methods under these four names; a compacted model
# is built from the same classes, so each name is bound to its class.  Drop
# this once the probes stop naming them.
PlainBatchNorm, PlainConvBlock, PlainLinearBlock, PlainResidualBlock = (
    BatchNorm2d, ConvBlock, LinearBlock, ResidualBlock)

#: what a layer keeps from its forward for its backward
_BACKWARD_STATE = ("_cache", "_pre_gate", "_mask")


def _release(block) -> None:
    """Drop what the layers of ``block`` keep for a backward."""
    for layer in vars(block).values():
        for attr in _BACKWARD_STATE:
            if hasattr(layer, attr):
                setattr(layer, attr, None)


# ---------------------------------------------------------------------------
# the model container
# ---------------------------------------------------------------------------


@dataclass
class PrunableRef:
    name: str
    layer: object  # MaskedConv2d | MaskedLinear


class Model:
    def __init__(self, arch: str, blocks: list, input_shape: tuple[int, int, int],
                 classes: int):
        self.arch = arch
        self.blocks = blocks
        self.input_shape = tuple(input_shape)
        self.classes = classes
        self._ran_eval = False

    def forward(self, x, train: bool = True, update_stats: bool = True) -> np.ndarray:
        """Logits for ``x``.  An eval forward (``train=False``) keeps nothing
        for a backward: each block's layers drop their activations as the
        block returns.  On a hard-gated model it runs through
        ``self.compact(keep)``, ``keep`` read off the gates (see
        :meth:`_hard_keep`), so closed channels cost nothing; its logits are
        that compacted model's, bit for bit.  Every other forward runs each
        block in turn, closed channels included."""
        self._ran_eval = not train
        keep = None if train else self._hard_keep()
        if keep is not None:
            # what the layers keep for a backward belongs to an older input
            for block in self.blocks:
                _release(block)
            return self.compact(keep).forward(x, train=False)
        z = _as_array(x)
        for block in self.blocks:
            z = block.forward(z, train=train, update_stats=update_stats)
            if not train:
                _release(block)
        return z

    def _hard_keep(self) -> dict[str, np.ndarray] | None:
        """The open channels of every prunable layer, when the gates allow an
        exact compacted forward: each prunable gate entry is 0.0 or 1.0, some
        entry is 0, no prunable layer is closed entirely, and every other gate
        is all ones.  None otherwise."""
        refs = self.prunable()
        keep = {}
        for ref in refs:
            gate = ref.layer.gate
            is_open = gate == 1.0
            if not is_open.any() or not (is_open | (gate == 0.0)).all():
                return None
            keep[ref.name] = is_open
        if all(k.all() for k in keep.values()):
            return None
        prunable = {id(ref.layer) for ref in refs}
        for _, layer in self._named_layers():
            gate = getattr(layer, "gate", None)
            if gate is not None and id(layer) not in prunable and not (gate == 1.0).all():
                return None
        return keep

    def backward(self, grad_logits) -> None:
        """Backpropagate ``grad_logits`` through every block, filling the
        parameter gradients (whence influence, ``weight.grad * weight.data``).
        A masked layer gets a ``gate_grad`` only if its gate is soft, as the
        active prune layer's is; under a 0/1 gate ``gate_grad`` is None.
        Nothing reads the gradient w.r.t. the images, so the first block skips
        it and this returns None.  An eval forward, dense or compacted, leaves
        no activations to backpropagate through, so a backward after it raises
        ``ShapeError``."""
        if self._ran_eval:
            raise ShapeError("backward after an eval forward; eval forwards, dense or "
                             "compacted, keep no activations")
        g = _as_array(grad_logits)
        first = self.blocks[0]
        for block in reversed(self.blocks):
            g = block.backward(g, input_grad=block is not first)

    def param_groups(self):
        for _, layer in self._named_layers():
            yield from layer.param_groups()

    def prunable(self) -> list[PrunableRef]:
        return [PrunableRef(block.prunable_name, block.gated)
                for block in self.blocks if block.prunable]

    # -- serialization ------------------------------------------------------

    def _named_layers(self):
        for block in self.blocks:
            for suffix, layer in block.layers():
                yield f"{block.name}.{suffix}", layer

    def _state_entries(self):
        """Per layer, its state in order: ``(key, Parameter)`` for a trainable
        array, ``(key, ndarray)`` for a gate or running statistic."""
        for name, layer in self._named_layers():
            fields = (("gamma", "beta", "running_mean", "running_var")
                      if isinstance(layer, BatchNorm2d) else ("weight", "bias", "gate"))
            yield [(f"{name}.{f}", getattr(layer, f)) for f in fields]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The model's live arrays by name; each layer's velocities follow its
        other arrays."""
        out: dict[str, np.ndarray] = {}
        for entries in self._state_entries():
            for key, item in entries:
                out[key] = item.data if isinstance(item, Parameter) else item
            for key, item in entries:
                if isinstance(item, Parameter) and item.velocity is not None:
                    out[f"{key}.velocity"] = item.velocity
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` into the model's own arrays (see ``Parameter._load``);
        every array is checked for presence and shape, without drawing a weight,
        before anything is assigned.  A velocity the state lacks is dropped, an
        array the model lacks ignored."""
        entries = [entry for layer in self._state_entries() for entry in layer]
        missing = {key for key, _ in entries} - set(arrays)
        if missing:
            raise ShapeError(f"state is missing arrays: {sorted(missing)[:4]}")
        for key, item in entries:
            for name in (key, f"{key}.velocity"):
                if name in arrays and np.shape(arrays[name]) != item.shape:
                    raise ShapeError(
                        f"state array {name} has shape {tuple(np.shape(arrays[name]))}, "
                        f"model expects {tuple(item.shape)}")
        for key, item in entries:
            if isinstance(item, Parameter):
                item._load(arrays[key], arrays.get(f"{key}.velocity"))
            else:
                np.copyto(item, arrays[key])

    # -- compaction ---------------------------------------------------------

    def _sliced(self, keep: dict[str, np.ndarray], velocity: bool):
        """Every block's slice (with velocities if ``velocity``) over the
        channels ``keep`` leaves open, and, per weighted block whose input lost
        a channel, its prunable name and the inputs it still reads, over its
        former input width.  ``keep`` maps prunable layer names to 0/1 vectors
        over their current widths; a layer not in it keeps every channel."""
        unknown = sorted(set(keep) - {b.prunable_name for b in self.blocks
                                      if b.kind is not None})
        if unknown:
            raise ShapeError(f"keep names no layer of {self.arch}: {', '.join(unknown)}")
        active = np.ones(self.input_shape[0], dtype=bool)
        shape = self.input_shape
        blocks, read = [], {}
        for block in self.blocks:
            if block.kind is not None and not active.all():
                read[block.prunable_name] = active
            new, active = block.sliced(active, shape, keep, velocity)
            blocks.append(new)
            shape = block.out_shape(shape)
        return blocks, read

    def compact(self, keep: dict[str, np.ndarray]) -> "Model":
        """A new model of fresh copies without the channels whose keep flag is
        0 (see :meth:`_sliced`), and without velocities."""
        return Model(self.arch, self._sliced(keep, velocity=False)[0], self.input_shape,
                     self.classes)

    def narrow(self, keep: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Remove the channels whose keep flag is 0 in place: every block, in
        the same ``blocks`` list, becomes its slice (see :meth:`_sliced`) with
        velocities, so training goes on as if the closed channels, which only
        carried zeros, were there.  Returns the inputs each reader keeps."""
        # free the old activations first, or the copies fragment the heap
        for block in self.blocks:
            _release(block)
        self.blocks[:], read = self._sliced(keep, velocity=True)
        return read


# ---------------------------------------------------------------------------
# architectures
# ---------------------------------------------------------------------------


def _conv_block(name, init, cin, cout, k, stride, padding, bn=True, relu=True, pool=None,
                prunable=True):
    conv = MaskedConv2d(_conv_weight(init, cout, cin, k), np.zeros(cout), stride, padding)
    return ConvBlock(name, conv, BatchNorm2d(cout) if bn else None, relu, pool, prunable)


def _tiny_cnn(in_ch, hw, classes, seed):
    widths = (8, 16, 24, 32)
    blocks = [
        _conv_block("conv1", _init(seed, 1), in_ch, widths[0], 3, 1, 1, pool=2),
        _conv_block("conv2", _init(seed, 2), widths[0], widths[1], 3, 1, 1, pool=2),
        _conv_block("conv3", _init(seed, 3), widths[1], widths[2], 3, 1, 1),
        _conv_block("conv4", _init(seed, 4), widths[2], widths[3], 3, 1, 1),
        PoolBlock("gap"),
        LinearBlock("fc", MaskedLinear(_linear_weight(_init(seed, 5), classes, widths[3]),
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
        _conv_block("conv1", _init(seed, 1), in_ch, 6, 5, 1, 2, bn=False, pool=2),
        _conv_block("conv2", _init(seed, 2), 6, 16, 5, 1, 0, bn=False, pool=2),
        FlattenBlock("flatten"),
        LinearBlock("fc1", MaskedLinear(_linear_weight(_init(seed, 3), 120, flat), np.zeros(120)),
                    relu=True, prunable=True),
        LinearBlock("fc2", MaskedLinear(_linear_weight(_init(seed, 4), 84, 120), np.zeros(84)),
                    relu=True, prunable=True),
        LinearBlock("fc3", MaskedLinear(_linear_weight(_init(seed, 5), classes, 84),
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
        blocks.append(_conv_block(f"conv{idx}", _init(seed, idx), cin, item, 3, 1, 1, pool=pool))
        cin = item
    blocks.append(FlattenBlock("flatten"))
    spatial = hw // 32
    blocks.append(LinearBlock("fc", MaskedLinear(
        _linear_weight(_init(seed, idx + 1), classes, cin * spatial * spatial),
        np.zeros(classes)),
        relu=False, prunable=False))
    return blocks


def _resnet56(in_ch, hw, classes, seed):
    blocks = [_conv_block("stem", _init(seed, 0), in_ch, 16, 3, 1, 1, prunable=False)]
    stream = 16
    counter = itertools.count(1)
    for stage, width in enumerate((16, 32, 64)):
        for b in range(9):
            stride = 2 if (stage > 0 and b == 0) else 1
            i = next(counter)
            # one stream for the block: conv1, conv2, then the projection
            init = _init(seed, 100 + i)
            conv1 = MaskedConv2d(_conv_weight(init, width, stream, 3), np.zeros(width), stride, 1)
            conv2 = MaskedConv2d(_conv_weight(init, width, width, 3), np.zeros(width), 1, 1)
            ds_conv = ds_bn = None
            if stride != 1 or stream != width:
                ds_conv = MaskedConv2d(_conv_weight(init, width, stream, 1), np.zeros(width),
                                       stride, 0)
                ds_bn = BatchNorm2d(width)
            blocks.append(ResidualBlock(f"res{i}", conv1, BatchNorm2d(width), conv2,
                                        BatchNorm2d(width), ds_conv, ds_bn))
            stream = width
    blocks.append(PoolBlock("gap"))
    blocks.append(LinearBlock("fc", MaskedLinear(_linear_weight(_init(seed, 999), classes, 64),
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
    """Construct one of the known architectures with seeded He initialization,
    each weight drawn on its first read (see the module docstring)."""
    if arch not in _ARCHS:
        raise ShapeError(f"unknown architecture '{arch}'; expected one of {sorted(_ARCHS)}")
    blocks = _ARCHS[arch](in_channels, image_size, classes, seed)
    return Model(arch, blocks, (in_channels, image_size, image_size), classes)
