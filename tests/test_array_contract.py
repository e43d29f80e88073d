"""The array contract of the numeric code: every convolution kernel, layer and
trainable block takes any array-like and returns a C-contiguous float64
``np.ndarray`` whose memory is its own, never a view of a buffer the callee
keeps (a cache, a parameter, a mask, a gate or a padded scratch array).
"""

import numpy as np
import pytest

from maskprune.layers import (
    BatchNorm2d,
    Flatten,
    GlobalAvgPool,
    MaskedConv2d,
    MaskedLinear,
    MaxPool2d,
    Parameter,
    ReLU,
    softmax_cross_entropy,
)
from maskprune.models import ConvBlock, FlattenBlock, LinearBlock, PoolBlock, ResidualBlock
from maskprune.tensor import conv2d_backward, conv2d_forward

# how each case hands over its input: the package's own layout, float32 and a
# transposed (non-contiguous) view must all come back the same way
LAYOUTS = ["c-float64", "float32", "transposed"]


def _arrange(a: np.ndarray, layout: str):
    if layout == "float32":
        return a.astype(np.float32)
    if layout == "transposed":
        return np.asfortranarray(a)
    return a


def _buffers(obj, seen=None) -> list[np.ndarray]:
    """Every ndarray ``obj`` keeps: its attributes, caches and parameters, and
    those of its sub-layers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [b for item in obj for b in _buffers(item, seen)]
    if isinstance(obj, Parameter):
        return [b for name in Parameter.__slots__ for b in _buffers(getattr(obj, name), seen)]
    if type(obj).__module__.startswith("maskprune."):
        return [b for v in vars(obj).values() for b in _buffers(v, seen)]
    return []


def assert_owned(result, *holders):
    assert type(result) is np.ndarray
    assert result.dtype == np.float64
    assert result.flags.c_contiguous
    for holder in holders:
        for buf in _buffers(holder):
            assert not np.shares_memory(result, buf)


# (x shape, w shape, stride, padding): N >= 2 and Cout >= 2, so an uncopied
# transposed output or padded slice is not C-contiguous by accident
CONV_CASES = {
    "3x3-s1-p1": ((2, 3, 6, 6), (4, 3, 3, 3), 1, 1),
    "3x3-s2-p1": ((2, 3, 7, 9), (5, 3, 3, 3), 2, 1),
    "5x5-s1-p2": ((3, 2, 8, 8), (3, 2, 5, 5), 1, 2),
    "1x1-s2-p0": ((2, 4, 8, 8), (6, 4, 1, 1), 2, 0),
}


class TestConvKernels:
    @pytest.mark.parametrize("case", list(CONV_CASES))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_forward_and_backward_return_owned_arrays(self, case, layout):
        x_shape, w_shape, stride, padding = CONV_CASES[case]
        rng = np.random.default_rng(3)
        x = _arrange(rng.normal(size=x_shape), layout)
        w = _arrange(rng.normal(size=w_shape), layout)
        b = rng.normal(size=w_shape[0])
        out, cols = conv2d_forward(x, w, b, stride, padding, return_cache=True)
        assert_owned(out, x, w, b, cols)
        assert_owned(conv2d_forward(x, w, b, stride, padding), x, w, b)
        g = _arrange(rng.normal(size=out.shape), layout)
        for cache in (cols, None):
            grads = conv2d_backward(x, w, g, stride, padding, cols=cache)
            for grad in grads:
                assert_owned(grad, x, w, g, cols)
            assert grads[0].shape == x.shape
        gx, gw, gb = conv2d_backward(x, w, g, stride, padding, cols=cols, input_grad=False)
        assert gx is None
        assert_owned(gw, x, w, g, cols)
        assert_owned(gb, x, w, g, cols)


def _conv(rng, cin=3, cout=4, k=3, stride=1, padding=1):
    return MaskedConv2d(rng.normal(scale=0.3, size=(cout, cin, k, k)),
                        rng.normal(scale=0.1, size=cout), stride, padding)


def _linear(rng, nin=12, nout=5):
    return MaskedLinear(rng.normal(scale=0.3, size=(nout, nin)), rng.normal(scale=0.1, size=nout))


def _soft_gate(layer, rng):
    layer.gate[:] = rng.uniform(0.2, 0.9, size=layer.gate.size)
    layer.gate[0] = 0.0
    return layer


LAYERS = {
    "masked-conv": (lambda rng: _conv(rng), (2, 3, 6, 6), {}),
    "masked-conv-eval": (lambda rng: _conv(rng, stride=2), (2, 3, 7, 9), {"train": False}),
    "masked-linear": (lambda rng: _linear(rng), (3, 12), {}),
    "batchnorm-train": (lambda rng: BatchNorm2d(3), (4, 3, 5, 5), {"train": True}),
    "batchnorm-eval": (lambda rng: BatchNorm2d(3), (4, 3, 5, 5), {"train": False}),
    "relu": (lambda rng: ReLU(), (2, 3, 4, 4), {}),
    "maxpool": (lambda rng: MaxPool2d(2), (2, 3, 7, 6), {}),
    "global-avg-pool": (lambda rng: GlobalAvgPool(), (2, 3, 4, 5), {}),
    "flatten": (lambda rng: Flatten(), (2, 3, 4, 4), {}),
}


class TestLayers:
    @pytest.mark.parametrize("name", list(LAYERS))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_forward_and_backward_return_owned_arrays(self, name, layout):
        make, shape, kwargs = LAYERS[name]
        rng = np.random.default_rng(5)
        layer = make(rng)
        x = _arrange(rng.normal(size=shape), layout)
        out = layer.forward(x, **kwargs)
        assert_owned(out, layer)
        gx = layer.backward(_arrange(rng.normal(size=out.shape), layout))
        assert gx.shape == x.shape
        assert_owned(gx, layer)

    def test_loss_gradient_is_owned(self):
        rng = np.random.default_rng(7)
        for layout in LAYOUTS:
            logits = _arrange(rng.normal(size=(4, 6)), layout)
            _, grad = softmax_cross_entropy(logits, np.array([0, 5, 2, 2]))
            assert_owned(grad, logits)


def _residual(rng, downsample):
    cout, stride = (6, 2) if downsample else (4, 1)
    conv1 = _conv(rng, 4, cout, stride=stride)
    if downsample:
        _soft_gate(conv1, rng)
    ds_conv = _conv(rng, 4, cout, 1, stride, 0) if downsample else None
    return ResidualBlock("res", conv1, BatchNorm2d(cout), _conv(rng, cout, cout),
                         BatchNorm2d(cout), ds_conv, BatchNorm2d(cout) if downsample else None)


# every gated block with nothing after its gate runs open and soft: an open
# gate is a no-op pass, and the block must not hand back the activation it
# keeps for its gate gradient
BLOCKS = {
    "conv-bn-pool-relu": (lambda rng: ConvBlock("c", _conv(rng), BatchNorm2d(4), pool=2),
                          (2, 3, 6, 6)),
    "conv-bn-pool-relu-soft": (lambda rng: ConvBlock(
        "c", _soft_gate(_conv(rng), rng), BatchNorm2d(4), pool=2), (2, 3, 6, 6)),
    "conv-gate": (lambda rng: ConvBlock("c", _conv(rng), bn=None, relu=False), (2, 3, 5, 5)),
    "conv-gate-soft": (lambda rng: ConvBlock("c", _soft_gate(_conv(rng), rng), bn=None,
                                             relu=False), (2, 3, 5, 5)),
    "linear-relu": (lambda rng: LinearBlock("f", _linear(rng), relu=True), (3, 12)),
    "linear-gate": (lambda rng: LinearBlock("f", _linear(rng)), (3, 12)),
    "linear-gate-soft": (lambda rng: LinearBlock("f", _soft_gate(_linear(rng), rng)), (3, 12)),
    "residual": (lambda rng: _residual(rng, False), (2, 4, 6, 6)),
    "residual-downsample-soft": (lambda rng: _residual(rng, True), (2, 4, 6, 6)),
    "pool": (lambda rng: PoolBlock(), (2, 3, 4, 4)),
    "flatten": (lambda rng: FlattenBlock(), (2, 3, 4, 4)),
}


class TestBlocks:
    @pytest.mark.parametrize("name", list(BLOCKS))
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("train", [True, False])
    def test_forward_and_backward_return_owned_arrays(self, name, layout, train):
        make, shape = BLOCKS[name]
        rng = np.random.default_rng(11)
        block = make(rng)
        x = _arrange(rng.normal(size=shape), layout)
        out = block.forward(x, train=train)
        assert_owned(out, block)
        g = _arrange(rng.normal(size=out.shape), layout)
        gx = block.backward(g)
        assert gx.shape == x.shape
        assert_owned(gx, block)
        assert block.backward(g, input_grad=False) is None
