"""Architecture construction, deferred weight draws, state round-trips, and
physical compaction."""

import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.errors import ShapeError
from maskprune.influence import StrategyState
from maskprune.layers import (
    DELTA_FREEZE,
    BatchNorm2d,
    MaskedConv2d,
    MaskedLinear,
    MaxPool2d,
    ReLU,
    sgd_step,
    softmax_cross_entropy,
)
from maskprune.metrics import count_flops
from maskprune.models import (
    _VGG16_PLAN,
    ConvBlock,
    Model,
    PoolBlock,
    ResidualBlock,
    _he_conv,
    _he_linear,
    build_model,
)
from maskprune.pruning import frozen_keep
from maskprune.rng import TAG_INIT, keyed_rng
from tests.test_array_contract import _buffers
from tests.test_layers import numgrad, reference_maxpool, reference_relu, rel_err


def frozen_strategies(model, keep: dict[str, np.ndarray]):
    out = {}
    for ref in model.prunable():
        width = ref.layer.out_channels
        hard = keep.get(ref.name, np.ones(width, dtype=np.int64))
        out[ref.name] = StrategyState(ref.name, hard.astype(float), target=hard.copy(),
                                      status="frozen")
        ref.layer.gate[:] = hard.astype(float)
    return out


def dense_eval(model, x):
    """The dense eval forward, block by block: every gated channel computed
    and multiplied by its gate.  Independent of ``Model.forward``, which runs a
    0/1-gated model compacted."""
    z = np.asarray(x, dtype=np.float64)
    for block in model.blocks:
        z = block.forward(z, train=False)
    return z


def backward_state(model) -> list:
    """What the conv, linear, batch-norm, ReLU and max-pool layers of
    ``model`` keep from a forward for a backward."""
    held = []
    for block in model.blocks:
        for layer in vars(block).values():
            if isinstance(layer, (MaskedConv2d, MaskedLinear)):
                held += [layer._cache, layer._pre_gate]
            elif isinstance(layer, (BatchNorm2d, MaxPool2d)):
                held.append(layer._cache)
            elif isinstance(layer, ReLU):
                held.append(layer._mask)
    return [h for h in held if h is not None]


def random_keep(model, rng):
    """Per prunable layer, a random 0/1 keep vector that keeps at least one
    channel and closes at least one."""
    keep = {}
    for ref in model.prunable():
        width = ref.layer.out_channels
        v = np.zeros(width, dtype=np.int64)
        v[rng.choice(width, size=int(rng.integers(1, width)), replace=False)] = 1
        keep[ref.name] = v
    return keep


def spy_compact(model):
    """Record every ``keep`` that ``model.compact`` is called with."""
    calls = []
    real = model.compact

    def spy(keep):
        calls.append(keep)
        return real(keep)
    model.compact = spy
    return calls


class TestBuild:
    def test_tiny_cnn_shapes_and_prunables(self):
        m = build_model("tiny-cnn", 1, 28, 10, seed=0)
        out = m.forward(np.zeros((2, 1, 28, 28)), train=False)
        assert out.shape == (2, 10)
        names = [r.name for r in m.prunable()]
        widths = [r.layer.out_channels for r in m.prunable()]
        assert names == ["conv1", "conv2", "conv3", "conv4"]
        assert widths == [8, 16, 24, 32] and sum(widths) == 80

    def test_lenet(self):
        m = build_model("lenet", 1, 28, 10, seed=0)
        assert m.forward(np.zeros((2, 1, 28, 28)), train=False).shape == (2, 10)
        refs = m.prunable()
        # two conv layers and the two hidden fc layers; the classifier is
        # never prunable
        assert [r.name for r in refs] == ["conv1", "conv2", "fc1", "fc2"]
        assert [type(r.layer) for r in refs] == [MaskedConv2d, MaskedConv2d,
                                                 MaskedLinear, MaskedLinear]
        assert refs[2].layer is m.blocks[3].linear

    def test_vgg16_prunable_count(self):
        m = build_model("vgg16", 3, 32, 10, seed=0)
        refs = m.prunable()
        assert len(refs) == 13
        assert m.forward(np.zeros((2, 3, 32, 32)), train=False).shape == (2, 10)

    def test_resnet56_structure(self):
        m = build_model("resnet56", 3, 32, 10, seed=0)
        refs = m.prunable()
        # 27 residual blocks, only the first conv inside each is prunable
        assert len(refs) == 27
        assert all(name.endswith(".conv1") for name in (r.name for r in refs))
        assert m.forward(np.zeros((2, 3, 32, 32)), train=False).shape == (2, 10)

    def test_unknown_arch(self):
        with pytest.raises(ShapeError):
            build_model("alexnet", 3, 32, 10)

    def test_init_depends_on_seed_only(self):
        a = build_model("tiny-cnn", 1, 28, 10, seed=4)
        b = build_model("tiny-cnn", 1, 28, 10, seed=4)
        c = build_model("tiny-cnn", 1, 28, 10, seed=5)
        for (ka, pa), (kb, pb) in zip(a.state_arrays().items(), b.state_arrays().items()):
            assert ka == kb
            assert_allclose(pa, pb, rtol=0, atol=0)
        assert any(not np.allclose(pa, pc) for (_, pa), (_, pc)
                   in zip(a.state_arrays().items(), c.state_arrays().items()))


ARCH_INPUTS = {"tiny-cnn": (1, 28), "lenet": (1, 28), "vgg16": (3, 32), "resnet56": (3, 32)}


def eager_weights(arch, seed, classes=10):
    """Every conv and linear weight of ``arch`` in model order, each stream's
    arrays drawn at once and in build order, as an eager build draws them."""
    in_ch, hw = ARCH_INPUTS[arch]

    def draw(stream, *shapes):
        rng = keyed_rng(seed, TAG_INIT | stream)
        return [_he_conv(rng, *s) if len(s) == 3 else _he_linear(rng, *s) for s in shapes]

    if arch in ("tiny-cnn", "vgg16"):
        widths = [8, 16, 24, 32] if arch == "tiny-cnn" else \
            [w for w in _VGG16_PLAN if w != "M"]
        chans = [in_ch, *widths]
        out = [w for i in range(len(widths)) for w in draw(i + 1, (chans[i + 1], chans[i], 3))]
        flat = widths[-1] * (hw // 32) ** 2 if arch == "vgg16" else widths[-1]
        return out + draw(len(widths) + 1, (classes, flat))
    if arch == "lenet":
        h = ((hw + 4 - 5 + 1) // 2 - 5 + 1) // 2
        return [*draw(1, (6, in_ch, 5)), *draw(2, (16, 6, 5)), *draw(3, (120, 16 * h * h)),
                *draw(4, (84, 120)), *draw(5, (classes, 84))]
    out, stream, block = draw(0, (16, in_ch, 3)), 16, 0
    for width in (16, 32, 64):
        for _ in range(9):
            block += 1
            shapes = [(width, stream, 3), (width, width, 3)]
            if stream != width:
                shapes.append((width, stream, 1))
            out += draw(100 + block, *shapes)
            stream = width
    return out + draw(999, (classes, 64))


def model_weights(model):
    """The model's conv and linear weight parameters, in model order."""
    return [p for p, _ in model.param_groups() if len(p.shape) > 1]


def count_draws(monkeypatch) -> list:
    """Every generator made from now on, as a list that grows."""
    made = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        made.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    return made


class TestDeferredDraw:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("arch", list(ARCH_INPUTS))
    def test_first_read_gives_the_eager_bytes_in_any_order(self, arch, seed):
        model = build_model(arch, *ARCH_INPUTS[arch], 10, seed)
        weights = model_weights(model)
        want = eager_weights(arch, seed)
        assert [p.shape for p in weights] == [w.shape for w in want]
        # read back to front: every resnet block's projection and conv2
        # before its conv1, which shares their stream and is drawn first
        got = [p.data for p in reversed(weights)][::-1]
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.flags.c_contiguous
            assert g.tobytes() == w.tobytes()

    def test_a_loaded_model_never_draws(self, monkeypatch):
        state = {k: v.copy() for k, v in
                 build_model("resnet56", 3, 32, 10, seed=1).state_arrays().items()}
        made = count_draws(monkeypatch)
        model = build_model("resnet56", 3, 32, 10, seed=0)
        widths = [ref.layer.out_channels for ref in model.prunable()]
        cost = count_flops(model)
        model.load_state_arrays(state)
        loaded = model.state_arrays()
        assert made == []
        assert widths == [16] * 9 + [32] * 9 + [64] * 9 and cost["total_flops"] > 0
        assert sorted(loaded) == sorted(state)
        for key, value in state.items():
            assert loaded[key].tobytes() == value.tobytes(), key
        # the control: reading one weight of a model nothing was loaded into
        # draws its stream, and only that one
        assert build_model("resnet56", 3, 32, 10, seed=0).blocks[5].conv2.weight.data.size
        assert len(made) == 1

    def test_a_loaded_state_is_a_copy(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(4, 1, 28, 28)), rng.integers(0, 10, 4)

        def step(model):
            _, grad = softmax_cross_entropy(model.forward(x, train=True), y)
            model.backward(grad)
            sgd_step(model, 0.1)

        src = build_model("tiny-cnn", 1, 28, 10, seed=0)
        step(src)           # so the state carries velocities too
        before = {k: v.copy() for k, v in src.state_arrays().items()}
        dst = build_model("tiny-cnn", 1, 28, 10, seed=1)
        dst.load_state_arrays(src.state_arrays())
        step(dst)
        after = dst.state_arrays()
        assert any(k.endswith(".velocity") for k in before)
        for key, value in src.state_arrays().items():
            assert value.tobytes() == before[key].tobytes(), key
        assert not all(np.array_equal(after[k], before[k]) for k in before)

    @pytest.mark.parametrize("use", ["loaded", "never-read", "half-read"])
    def test_a_dropped_model_is_freed_without_the_cycle_collector(self, use):
        state = build_model("vgg16", 3, 32, 10, seed=0).state_arrays() \
            if use == "loaded" else None
        gc.disable()
        try:
            model = build_model("vgg16", 3, 32, 10, seed=1)
            if use == "loaded":
                model.load_state_arrays(state)
            elif use == "half-read":
                assert all(p.data.size for p in model_weights(model)[::2])
            refs = [weakref.ref(x) for x in (model, *model_weights(model))]
            del model
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestStateRoundTrip:
    def test_save_load_is_exact(self):
        rng = np.random.default_rng(1)
        src = build_model("lenet", 1, 28, 10, seed=2)
        x = rng.normal(size=(4, 1, 28, 28))
        # give the running statistics something non-default
        src.forward(x, train=True)
        dst = build_model("lenet", 1, 28, 10, seed=9)
        dst.load_state_arrays(src.state_arrays())
        assert_allclose(src.forward(x, train=False), dst.forward(x, train=False),
                        rtol=0, atol=0)

    def test_missing_array_rejected(self):
        m = build_model("tiny-cnn", 1, 28, 10, seed=0)
        state = m.state_arrays()
        state.pop(sorted(state)[0])
        with pytest.raises(ShapeError):
            m.load_state_arrays(state)

    @pytest.mark.parametrize("key,resize", [
        ("conv2.conv.weight", lambda a: np.zeros((a.shape[0], a.shape[1] + 1, *a.shape[2:]))),
        ("conv3.conv.gate", lambda a: np.ones(a.size - 1)),
    ])
    def test_shape_mismatch_rejected_before_any_assignment(self, key, resize):
        m = build_model("tiny-cnn", 1, 28, 10, seed=0)
        before = {k: v.copy() for k, v in m.state_arrays().items()}
        # a differently seeded state, so any array assigned before the check shows
        state = {k: v.copy() for k, v in build_model("tiny-cnn", 1, 28, 10,
                                                     seed=1).state_arrays().items()}
        want = state[key].shape
        state[key] = resize(state[key])
        with pytest.raises(ShapeError) as err:
            m.load_state_arrays(state)
        msg = str(err.value)
        assert key in msg and str(want) in msg and str(state[key].shape) in msg
        for k, v in m.state_arrays().items():
            assert_allclose(v, before[k], rtol=0, atol=0)

    def test_loads_in_place_into_independent_arrays(self):
        m = build_model("tiny-cnn", 1, 28, 10, seed=0)
        src = build_model("tiny-cnn", 1, 28, 10, seed=1)
        src.forward(np.random.default_rng(0).normal(size=(2, 1, 28, 28)), train=True)
        before = m.state_arrays()
        state = src.state_arrays()
        m.load_state_arrays(state)
        after = m.state_arrays()
        assert sorted(after) == sorted(before)
        for k in before:
            assert after[k] is before[k], k
            assert not any(np.shares_memory(after[k], v) for v in state.values()), k
        for k, v in state.items():
            assert_allclose(m.state_arrays()[k], v, rtol=0, atol=0)

    def test_velocity_follows_the_state(self):
        m = build_model("tiny-cnn", 1, 28, 10, seed=0)
        plain = {k: v.copy() for k, v in m.state_arrays().items()}
        with_velocity = dict(plain)
        with_velocity["conv2.conv.weight.velocity"] = np.full_like(plain["conv2.conv.weight"],
                                                                   0.5)
        weight = m.blocks[1].conv.weight
        assert weight.velocity is None
        m.load_state_arrays(with_velocity)
        assert (weight.velocity == 0.5).all()
        assert not np.shares_memory(weight.velocity, with_velocity["conv2.conv.weight.velocity"])
        held = weight.velocity
        with_velocity["conv2.conv.weight.velocity"] = np.full_like(held, -2.0)
        m.load_state_arrays(with_velocity)
        assert weight.velocity is held and (held == -2.0).all()
        m.load_state_arrays(plain)
        assert weight.velocity is None


class TestCompaction:
    def _exercise(self, model, x):
        model.forward(x, train=True)      # populate running stats
        return dense_eval(model, x)

    def test_all_keep_compaction_is_bit_identical(self):
        rng = np.random.default_rng(3)
        m = build_model("tiny-cnn", 1, 28, 10, seed=3)
        x = rng.normal(size=(4, 1, 28, 28))
        before = self._exercise(m, x)
        strategies = frozen_strategies(m, {})
        plain = m.compact(frozen_keep(strategies))
        assert_allclose(plain.forward(x, train=False), before, rtol=0, atol=0)

    def test_partial_keep_matches_gated_model(self):
        rng = np.random.default_rng(5)
        m = build_model("tiny-cnn", 1, 28, 10, seed=4)
        x = rng.normal(size=(8, 1, 28, 28))
        m.forward(x, train=True)
        keep = {
            "conv1": np.array([1, 0, 1, 1, 0, 1, 1, 1]),
            "conv2": np.array([1, 0] * 8),
            "conv3": np.array([1, 1, 0] * 8),
            "conv4": np.array([0, 1, 1, 1] * 8),
        }
        strategies = frozen_strategies(m, keep)
        gated = dense_eval(m, x)
        plain = m.compact(frozen_keep(strategies))
        assert_allclose(plain.forward(x, train=False), gated, rtol=0, atol=1e-10)

    def test_parameter_count_shrinks(self):
        m = build_model("tiny-cnn", 1, 28, 10, seed=6)
        m.forward(np.zeros((2, 1, 28, 28)), train=True)
        keep = {"conv3": np.array([1] * 12 + [0] * 12)}
        plain = m.compact(frozen_keep(frozen_strategies(m, keep)))
        conv3 = [b for b in plain.blocks if getattr(b, "name", "") == "conv3"][0]
        assert conv3.conv.weight.shape[0] == 12

    def test_lenet_fc_compaction(self):
        rng = np.random.default_rng(7)
        m = build_model("lenet", 1, 28, 10, seed=7)
        x = rng.normal(size=(4, 1, 28, 28))
        m.forward(x, train=True)
        keep = {"fc1": np.array([1, 0] * 60), "fc2": np.array([0, 1] * 42)}
        strategies = frozen_strategies(m, keep)
        gated = dense_eval(m, x)
        plain = m.compact(frozen_keep(strategies))
        assert_allclose(plain.forward(x, train=False), gated, rtol=0, atol=1e-10)

    def test_all_channels_removed_rejected(self):
        m = build_model("tiny-cnn", 1, 28, 10, seed=8)
        m.forward(np.zeros((2, 1, 28, 28)), train=True)
        keep = {"conv2": np.zeros(16, dtype=np.int64)}
        with pytest.raises(ShapeError):
            m.compact(frozen_keep(frozen_strategies(m, keep)))

    @pytest.mark.parametrize("method", ["compact", "narrow"])
    @pytest.mark.parametrize("arch,name", [("tiny-cnn", "conv9"), ("resnet56", "res1.conv2")])
    def test_a_keep_key_that_names_no_layer_is_refused(self, arch, name, method):
        m = build_model(arch, 1, 28, 10, seed=0)
        blocks = list(m.blocks)
        with pytest.raises(ShapeError, match=rf"keep names no layer of {arch}: {name}$"):
            getattr(m, method)({name: np.ones(8, dtype=bool)})
        assert all(a is b for a, b in zip(m.blocks, blocks))

    @pytest.mark.parametrize("method", ["compact", "narrow"])
    @pytest.mark.parametrize("entry", [0.5, 2.0, -1.0, np.nan])
    def test_a_keep_entry_other_than_0_or_1_is_refused(self, entry, method):
        # read as "nonzero keeps", a vector of 0.5 kept every channel
        m = build_model("tiny-cnn", 1, 28, 10, seed=0)
        blocks = list(m.blocks)
        with pytest.raises(ShapeError, match="keep vector for conv1 holds an entry other "
                                             "than 0 or 1"):
            getattr(m, method)({"conv1": np.full(8, entry)})
        assert all(a is b for a, b in zip(m.blocks, blocks))

    @pytest.mark.parametrize("keep", [np.array([1, 0] * 4), np.array([1.0, 0.0] * 4),
                                      np.array([True, False] * 4)], ids=["int", "float", "bool"])
    def test_0_1_and_boolean_keep_vectors_agree(self, keep):
        m = build_model("tiny-cnn", 1, 28, 10, seed=0)
        assert m.compact({"conv1": keep}).blocks[0].conv.out_channels == 4

    @pytest.mark.parametrize("arch", ["tiny-cnn", "lenet", "vgg16", "resnet56"])
    def test_a_soft_kept_gate_is_carried(self, arch):
        """A slice carries its kept gate entries, so compacting a model whose
        kept channel has a soft gate keeps the dense gated logits."""
        model, x, keep = trained_hard_gated(arch, seed=8)
        ref = model.prunable()[0]
        ref.layer.gate[np.flatnonzero(keep[ref.name])[0]] = 0.3
        small = model.compact(keep)
        assert_allclose(small.forward(x, train=False), dense_eval(model, x), rtol=0, atol=1e-12)


def mini_resnet(seed=0):
    """Hand-built stem + two residual blocks (one with a stride-2 widening
    projection), small enough to finite-difference and compact quickly."""
    from maskprune.layers import BatchNorm2d, MaskedConv2d, MaskedLinear
    from maskprune.models import LinearBlock, _he_conv, _he_linear

    def conv(r, cout, cin, k, stride=1, pad=1):
        return MaskedConv2d(_he_conv(r, cout, cin, k), np.zeros(cout), stride, pad)

    r = np.random.default_rng(seed)
    stem = ConvBlock("stem", conv(r, 8, 3, 3), BatchNorm2d(8), prunable=False)
    block1 = ResidualBlock("block1", conv(r, 8, 8, 3), BatchNorm2d(8),
                           conv(r, 8, 8, 3), BatchNorm2d(8))
    # stride-2 block widens 8 -> 16, so the shortcut needs a projection
    block2 = ResidualBlock("block2", conv(r, 16, 8, 3, stride=2), BatchNorm2d(16),
                           conv(r, 16, 16, 3), BatchNorm2d(16),
                           conv(r, 16, 8, 1, stride=2, pad=0), BatchNorm2d(16))
    fc = LinearBlock("fc", MaskedLinear(_he_linear(r, 10, 16), np.zeros(10)),
                     relu=False, prunable=False)
    return Model("resnet-mini", [stem, block1, block2, PoolBlock("gap"), fc],
                 (3, 16, 16), 10)


def pooled_block(case, seed=0):
    """A ConvBlock with ReLU and 2x2 max-pool, plus an input, for one of the
    window patterns the pool-before-ReLU order must reproduce exactly."""
    rng = np.random.default_rng(seed)
    shape = (3, 4, 7, 5) if case == "odd-7x5" else (3, 4, 6, 6)
    if case in ("all-negative", "zero-ties", "positive-ties"):
        # identity 1x1 conv, no batch norm: the pool sees these values as given
        conv = MaskedConv2d(np.eye(4)[:, :, None, None], np.zeros(4), 1, 0)
        bn = None
        values = {"all-negative": [-3.0, -1.0, -0.5],
                  "zero-ties": [-1.0, 0.0, 0.0, 0.0, 0.5],
                  "positive-ties": [-1.0, 0.0, 2.0, 2.0, 2.0, 1.0]}[case]
        x = rng.choice(values, size=shape)
    else:
        conv = MaskedConv2d(rng.normal(scale=0.4, size=(4, 4, 3, 3)),
                            rng.normal(scale=0.1, size=4), 1, 1)
        bn = BatchNorm2d(4)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, 4)
        bn.beta.data[:] = rng.normal(scale=0.3, size=4)
        x = rng.normal(size=shape)
    block = ConvBlock("c", conv, bn, relu=True, pool=2)
    gates = {"soft-gates": rng.uniform(0.05, 1.0, 4), "zero-gates": [1.0, 0.0, 0.4, 0.0],
             "odd-7x5": rng.uniform(0.05, 1.0, 4), "zero-ties": [0.5, 1.0, 1.0, 0.25]}
    block.conv.gate[:] = gates.get(case, 1.0)
    return block, x


def reference_block_pass(block, x, g):
    """conv -> bn -> gate -> relu -> max-pool and back, through the
    masked-select ReLU and pool kernels the block no longer uses."""
    conv, bn, gate = block.conv, block.bn, block.conv.gate[None, :, None, None]
    z = conv.forward(x)
    if bn is not None:
        z = bn.forward(z, update_mask=conv.gate >= DELTA_FREEZE)
    relu_out, relu_back = reference_relu(z * gate)
    out, pool_back = reference_maxpool(relu_out, 2)
    gz = relu_back(pool_back(g))
    conv.gate_grad = (gz * z).sum(axis=(0, 2, 3))
    gz = gz * gate
    if bn is not None:
        gz = bn.backward(gz)
    return out, conv.backward(gz)


class TestPooledConvBlock:
    @pytest.mark.parametrize("case", ["all-negative", "zero-ties", "positive-ties",
                                      "soft-gates", "zero-gates", "odd-7x5"])
    def test_pool_before_relu_matches_reference(self, case):
        block, x = pooled_block(case)
        ref, _ = pooled_block(case)
        out = block.forward(x)
        g = np.random.default_rng(1).normal(size=out.shape)
        gx = block.backward(g)
        want_out, want_gx = reference_block_pass(ref, x, g)
        assert np.array_equal(out, want_out)
        assert np.array_equal(gx, want_gx)
        grads = [(block.conv.weight.grad, ref.conv.weight.grad),
                 (block.conv.bias.grad, ref.conv.bias.grad)]
        if (block.conv.gate == 1.0).all():  # an open gate gets no gradient
            assert block.conv.gate_grad is None
        else:
            grads.append((block.conv.gate_grad, ref.conv.gate_grad))
        if block.bn is not None:
            grads += [(block.bn.gamma.grad, ref.bn.gamma.grad),
                      (block.bn.beta.grad, ref.bn.beta.grad)]
        for got, want in grads:
            assert np.array_equal(got, want)
        if case == "all-negative":
            assert not gx.any()


class TestModelBackward:
    @pytest.mark.parametrize("build", [
        lambda: build_model("tiny-cnn", 1, 12, 10, seed=2),
        lambda: build_model("lenet", 1, 28, 10, seed=2),
        lambda: mini_resnet(seed=2),
    ], ids=["tiny-cnn", "lenet", "resnet-mini"])
    def test_skipping_the_input_gradient_keeps_every_parameter_gradient(self, build):
        models = [build(), build()]
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, *models[0].input_shape))
        g = rng.normal(size=(4, 10))
        for m in models:
            for ref in m.prunable():
                ref.layer.gate[:] = np.linspace(0.0, 1.0, ref.layer.out_channels)
            m.forward(x, train=True)
        skipped, full = models
        assert skipped.backward(g) is None
        gx = g
        for block in reversed(full.blocks):
            gx = block.backward(gx)
        assert gx.shape == x.shape
        for (pa, _), (pb, _) in zip(skipped.param_groups(), full.param_groups()):
            assert np.array_equal(pa.grad, pb.grad)
        for ra, rb in zip(skipped.prunable(), full.prunable()):
            assert np.array_equal(ra.layer.gate_grad, rb.layer.gate_grad)


class TestGateGradient:
    @pytest.mark.parametrize("build, soft, hard", [
        (lambda: build_model("tiny-cnn", 1, 12, 10, seed=3), "conv2", "conv3"),
        (lambda: build_model("lenet", 1, 28, 10, seed=3), "fc1", "conv2"),
        (lambda: mini_resnet(seed=3), "block2.conv1", "block1.conv1"),
    ], ids=["tiny-cnn", "lenet", "resnet-mini"])
    def test_only_the_soft_gate_gets_a_gradient(self, build, soft, hard):
        model = build()
        refs = {ref.name: ref.layer for ref in model.prunable()}
        soft_layer = refs[soft]
        soft_layer.gate[:] = np.linspace(0.1, 0.9, soft_layer.out_channels)
        refs[hard].gate[::2] = 0.0
        masked = [layer for _, layer in model._named_layers() if hasattr(layer, "gate")]
        pre_gate = {}
        for layer in masked:  # record the array each gate scales
            def spy(z, layer=layer, gate_forward=layer.gate_forward):
                pre_gate[layer] = z
                return gate_forward(z)
            layer.gate_forward = spy
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, *model.input_shape))
        proj = rng.normal(size=(4, 10))
        model.forward(x, train=True, update_stats=False)
        kept = _buffers(model)
        assert {soft_layer, refs[hard]} < set(pre_gate)  # and an open one
        for layer, z in pre_gate.items():
            assert any(np.shares_memory(z, b) for b in kept) == (layer is soft_layer)
        model.backward(proj)
        for layer in masked:
            assert (layer.gate_grad is not None) == (layer is soft_layer)

        def loss():
            return float((model.forward(x, train=True, update_stats=False) * proj).sum())

        got = soft_layer.gate_grad.copy()
        assert rel_err(got, numgrad(loss, soft_layer.gate)) <= 1e-5


class TestResidualBlocks:
    def _mini_resnet(self, seed=0):
        return mini_resnet(seed)

    def test_forward_shape_and_prunables(self):
        m = self._mini_resnet()
        out = m.forward(np.zeros((2, 3, 16, 16)), train=False)
        assert out.shape == (2, 10)
        assert [r.name for r in m.prunable()] == ["block1.conv1", "block2.conv1"]

    def test_projection_shortcut_used_on_stride(self):
        m = self._mini_resnet()
        b2 = m.blocks[2]
        assert b2.ds_conv is not None
        b1 = m.blocks[1]
        assert b1.ds_conv is None

    def test_compaction_equivalence(self):
        rng = np.random.default_rng(11)
        m = self._mini_resnet(seed=21)
        x = rng.normal(size=(6, 3, 16, 16))
        m.forward(x, train=True)
        keep = {"block1.conv1": np.array([1, 0, 1, 1, 0, 1, 0, 1]),
                "block2.conv1": np.array([0, 1] * 8)}
        strategies = frozen_strategies(m, keep)
        gated = dense_eval(m, x)
        plain = m.compact(frozen_keep(strategies))
        assert_allclose(plain.forward(x, train=False), gated, rtol=0, atol=1e-10)


EVAL_MODELS = {
    "tiny-cnn": lambda seed: build_model("tiny-cnn", 1, 28, 10, seed=seed),
    "lenet": lambda seed: build_model("lenet", 1, 28, 10, seed=seed),
    "vgg16": lambda seed: build_model("vgg16", 3, 32, 10, seed=seed),
    "mini-resnet": mini_resnet,
}


def _gate_case(model, case, rng):
    """Gates under which the eval forward must stay dense: every prunable layer
    takes a random 0/1 pattern, then ``case`` spoils the hard-gate condition."""
    frozen_strategies(model, random_keep(model, rng))
    first = model.prunable()[0].layer
    if case == "soft":
        first.gate[:] = rng.uniform(0.05, 0.95, first.out_channels)
    elif case == "frozen-nonzero":
        first.gate[0] = np.nextafter(DELTA_FREEZE, 0.0)
    elif case == "closed-layer":
        first.gate[:] = 0.0
    elif case == "non-prunable-zero":
        model.blocks[-1].linear.gate[0] = 0.0
    elif case == "all-open":
        for ref in model.prunable():
            ref.layer.gate[:] = 1.0


class TestCompactedEval:
    """An eval forward of a 0/1-gated model runs through its compaction."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("arch", list(EVAL_MODELS))
    def test_hard_gates_run_compacted(self, arch, seed):
        model = EVAL_MODELS[arch](seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((3, *model.input_shape))
        model.forward(x, train=True)          # non-default running statistics
        keep = random_keep(model, rng)
        frozen_strategies(model, keep)
        calls = spy_compact(model)
        got = model.forward(x, train=False)
        assert len(calls) == 1
        assert calls[0].keys() == keep.keys()
        for name, v in keep.items():
            assert np.array_equal(calls[0][name], v.astype(bool))
        assert np.array_equal(got, model.compact(keep).forward(x, train=False))
        assert_allclose(got, dense_eval(model, x), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case", ["soft", "all-open", "frozen-nonzero", "closed-layer",
                                      "non-prunable-zero"])
    @pytest.mark.parametrize("arch", ["tiny-cnn", "mini-resnet"])
    def test_other_gates_run_dense(self, arch, case):
        model = EVAL_MODELS[arch](7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, *model.input_shape))
        model.forward(x, train=True)
        _gate_case(model, case, rng)
        calls = spy_compact(model)
        got = model.forward(x, train=False)
        assert calls == []
        assert np.array_equal(got, dense_eval(model, x))
        with pytest.raises(ShapeError, match="eval forward"):
            model.backward(np.ones_like(got))     # the dense eval forward keeps nothing

    def test_backward_after_compacted_eval_raises(self):
        model = build_model("tiny-cnn", 1, 28, 10, seed=3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 1, 28, 28))
        model.forward(x, train=True)
        frozen_strategies(model, random_keep(model, rng))
        logits = model.forward(x, train=False)
        # the training forward's caches, im2col columns included, are freed
        assert all(layer._cache is None for _, layer in model._named_layers())
        with pytest.raises(ShapeError, match="compacted"):
            model.backward(np.ones_like(logits))
        # a training forward runs dense again and backward works
        _, grad = softmax_cross_entropy(model.forward(x, train=True), np.arange(4))
        model.backward(grad)
        assert model.blocks[0].conv.weight.grad is not None
        # a dense eval forward drops every activation too, soft gate included
        assert backward_state(model)
        model.prunable()[0].layer.gate[:] = rng.uniform(0.05, 0.95, 8)
        logits = model.forward(x, train=False)
        assert backward_state(model) == []
        with pytest.raises(ShapeError, match="compacted"):
            model.backward(np.ones_like(logits))

    @pytest.mark.parametrize("arch", ["lenet", "vgg16"])
    def test_compact_needs_no_forward(self, arch):
        model = EVAL_MODELS[arch](5)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, *model.input_shape))
        small = model.compact(frozen_keep(frozen_strategies(model, random_keep(model, rng))))
        assert_allclose(small.forward(x, train=False), dense_eval(model, x), rtol=0, atol=1e-10)

    def test_compacted_weights_are_single_contiguous_copies(self):
        model = build_model("lenet", 1, 28, 10, seed=2)
        keep = random_keep(model, np.random.default_rng(2))
        small = model.compact(keep)
        conv2, fc1 = small.blocks[1].conv.weight.data, small.blocks[3].linear.weight.data
        assert conv2.flags.c_contiguous and fc1.flags.c_contiguous
        assert conv2.shape == (keep["conv2"].sum(), keep["conv1"].sum(), 5, 5)
        assert not np.shares_memory(fc1, model.blocks[3].linear.weight.data)


ARCH_INPUTS = {"tiny-cnn": (1, 28), "lenet": (1, 28), "vgg16": (3, 32), "resnet56": (3, 32)}


def train_step(model, x, lr=0.05):
    """One forward, backward and SGD step; returns the training logits."""
    logits = model.forward(x, train=True)
    _, grad = softmax_cross_entropy(logits, np.arange(len(x)) % model.classes)
    model.backward(grad)
    sgd_step(model, lr)
    return logits


def trained_hard_gated(arch, seed=0):
    """A model of ``arch`` after one training step (so its velocities exist),
    its prunable gates set to a random 0/1 keep; with an input batch and that
    keep."""
    c, hw = ARCH_INPUTS[arch]
    model = build_model(arch, c, hw, 10, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, c, hw, hw))
    train_step(model, x)
    keep = random_keep(model, rng)
    frozen_strategies(model, keep)
    return model, x, keep


class TestCompactedModel:
    """A compacted model is an ordinary model over arrays of its own."""

    @pytest.mark.parametrize("arch", list(ARCH_INPUTS))
    def test_shares_no_array_with_the_gated_model(self, arch):
        model, x, keep = trained_hard_gated(arch)
        small = model.compact(keep)
        state = list(model.state_arrays().values())
        assert [b.shape for b in _buffers(small)
                if any(np.shares_memory(b, a) for a in state)] == []
        before = small.forward(x, train=False)
        train_step(model, x)
        assert np.array_equal(small.forward(x, train=False), before)

    @pytest.mark.parametrize("arch", list(ARCH_INPUTS))
    def test_trains_and_reloads_like_any_model(self, arch):
        model, x, keep = trained_hard_gated(arch, seed=1)
        small = model.compact(keep)
        weights = [p.data.copy() for p, _ in small.param_groups()]
        assert np.isfinite(train_step(small, x)).all()
        assert all(p.grad is not None for p, _ in small.param_groups())
        assert any(not np.array_equal(w, p.data)
                   for w, (p, _) in zip(weights, small.param_groups()))
        c, hw = ARCH_INPUTS[arch]
        fresh = build_model(arch, c, hw, 10, seed=7).compact(keep)
        fresh.load_state_arrays(small.state_arrays())
        assert np.array_equal(fresh.forward(x, train=False), small.forward(x, train=False))

    @pytest.mark.parametrize("arch", list(ARCH_INPUTS))
    def test_carries_no_velocity_and_serves_the_gated_forward(self, arch):
        """A hard-gated eval forward runs through a compacted copy: that copy
        holds no velocity, and its logits are the dense gated ones."""
        model, x, keep = trained_hard_gated(arch, seed=2)
        assert any(k.endswith(".velocity") for k in model.state_arrays())
        small = model.compact(keep)
        assert [k for k in small.state_arrays() if k.endswith(".velocity")] == []
        assert all(p.velocity is None for p, _ in small.param_groups())
        assert_allclose(model.forward(x, train=False), dense_eval(model, x), rtol=0, atol=1e-5)


def first_batch_norm(model) -> BatchNorm2d:
    return next(layer for _, layer in model._named_layers() if isinstance(layer, BatchNorm2d))


def _close_one(model, keep):
    """Close one open channel of a prunable layer that keeps two or more."""
    ref = next(r for r in model.prunable() if (r.layer.gate == 1.0).sum() > 1)
    ref.layer.gate[np.flatnonzero(ref.layer.gate == 1.0)[0]] = 0.0


def _open_one(model, keep):
    ref = next(r for r in model.prunable() if (r.layer.gate == 0.0).any())
    ref.layer.gate[np.flatnonzero(ref.layer.gate == 0.0)[0]] = 1.0


def _load_other(model, keep):
    """Another model's state under the same gates."""
    other = EVAL_MODELS["mini-resnet"](9) if model.arch == "resnet-mini" else \
        build_model(model.arch, *model.input_shape[:2], 10, seed=9)
    other.forward(np.random.default_rng(9).standard_normal((3, *model.input_shape)))
    frozen_strategies(other, keep)
    model.load_state_arrays(other.state_arrays())


def _narrow_first(model, keep):
    name = model.prunable()[0].name
    model.narrow({name: keep[name]})


def _train_step(model, keep):
    train_step(model, np.random.default_rng(8).standard_normal((3, *model.input_shape)))


def _reassign_weight(model, keep):
    weight = model.prunable()[-1].layer.weight
    weight.data = weight.data * 1.5


def _reassign_running_mean(model, keep):
    bn = first_batch_norm(model)
    bn.running_mean = bn.running_mean + 0.5


#: what may change between two hard-gated eval forwards; each must be seen
CHANGES = {"gate 1->0": _close_one, "gate 0->1": _open_one, "load_state_arrays": _load_other,
           "narrow": _narrow_first, "train step": _train_step,
           "weight.data = other": _reassign_weight,
           "bn.running_mean = other": _reassign_running_mean}


def gate_keep(model) -> dict[str, np.ndarray]:
    return {ref.name: ref.layer.gate == 1.0 for ref in model.prunable()}


class TestKeptCompaction:
    """A hard-gated model compacts on its first eval forward and reuses that
    copy until a gate, a state array or the block list changes."""

    @staticmethod
    def hard_gated(arch, seed=0):
        model = EVAL_MODELS[arch](seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, *model.input_shape))
        model.forward(x, train=True)          # non-default running statistics
        keep = random_keep(model, rng)
        frozen_strategies(model, keep)
        return model, x, keep

    @pytest.mark.parametrize("arch", ["tiny-cnn", "lenet", "mini-resnet"])
    def test_unchanged_forwards_compact_once(self, arch):
        model, x, keep = self.hard_gated(arch)
        calls = spy_compact(model)
        first = model.forward(x, train=False)
        for _ in range(4):
            assert np.array_equal(model.forward(x, train=False), first)
        assert model.forward(x[:1], train=False).shape == (1, 10)
        assert len(calls) == 1
        assert np.array_equal(first, Model.compact(model, keep).forward(x, train=False))

    @pytest.mark.parametrize("change", list(CHANGES))
    @pytest.mark.parametrize("arch", ["tiny-cnn", "mini-resnet"])
    def test_a_change_between_forwards_is_seen(self, arch, change):
        model, x, keep = self.hard_gated(arch, seed=1)
        calls = spy_compact(model)
        first = model.forward(x, train=False)
        CHANGES[change](model, keep)
        second = model.forward(x, train=False)
        assert len(calls) == 2
        want = Model.compact(model, gate_keep(model)).forward(x, train=False)
        assert np.array_equal(second, want)
        # narrowing removes only closed channels, so the logits stay put
        assert np.array_equal(second, first) == (change == "narrow")
        assert np.array_equal(model.forward(x, train=False), second) and len(calls) == 2

    @pytest.mark.parametrize("release", ["load_state_arrays", "sgd_step", "narrow"])
    def test_an_in_place_write_raises_until_a_writer_drops_the_copy(self, release):
        model, x, keep = self.hard_gated("tiny-cnn", seed=3)
        model.forward(x, train=False)
        weight, bn = model.blocks[-1].linear.weight, first_batch_norm(model)
        state = {k: v.copy() for k, v in model.state_arrays().items()}
        with pytest.raises(ValueError, match="read-only"):
            weight.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            bn.running_var *= 2.0
        assert np.array_equal(weight.data, state["fc.linear.weight"])
        old = weight.data
        if release == "load_state_arrays":
            model.load_state_arrays(state)
        elif release == "sgd_step":
            train_step(model, x)
        else:
            model.narrow(keep)
            assert old.flags.writeable        # the replaced arrays are released too
            weight, bn = model.blocks[-1].linear.weight, first_batch_norm(model)
        weight.data[0, 0] = 1.0
        bn.running_var *= 2.0
        got = model.forward(x, train=False)
        want = Model.compact(model, gate_keep(model)).forward(x, train=False) \
            if release != "narrow" else dense_eval(model, x)
        assert np.array_equal(got, want)

    def test_the_gates_stay_writable(self):
        model, x, _ = self.hard_gated("tiny-cnn", seed=4)
        model.forward(x, train=False)
        gates = [ref.layer.gate for ref in model.prunable()]
        assert all(g.flags.writeable for g in gates)
        gates[0][:] = 0.5                    # soft: the next forward runs dense
        assert np.array_equal(model.forward(x, train=False), dense_eval(model, x))


class TestNarrow:
    """``Model.narrow`` slices a model in place over its open channels."""

    @pytest.mark.parametrize("arch", list(ARCH_INPUTS))
    def test_is_the_compacted_model_with_its_velocities(self, arch):
        model, x, keep = trained_hard_gated(arch, seed=3)
        small = model.compact(keep)
        gated = dense_eval(model, x)
        velocities = {k for k in model.state_arrays() if k.endswith(".velocity")}
        blocks = model.blocks
        model.narrow(keep)
        assert model.blocks is blocks
        state, want = model.state_arrays(), small.state_arrays()
        assert {k for k in state if not k.endswith(".velocity")} == set(want)
        for key, value in want.items():
            assert state[key].tobytes() == value.tobytes(), key
        assert {k for k in state if k.endswith(".velocity")} == velocities
        for key in velocities:
            assert state[key].shape == state[key[:-len(".velocity")]].shape, key
        assert [ref.name for ref in model.prunable()] == list(keep)
        assert_allclose(model.forward(x, train=False), gated, rtol=0, atol=1e-12)

    def test_reports_the_inputs_each_narrowed_reader_keeps(self):
        model, _, keep = trained_hard_gated("lenet", seed=4)
        read = model.narrow(keep)
        keep = {n: v.astype(bool) for n, v in keep.items()}
        assert sorted(read) == ["conv2", "fc1", "fc2", "fc3"]
        assert np.array_equal(read["conv2"], keep["conv1"])
        assert np.array_equal(read["fc1"], np.repeat(keep["conv2"], 5 * 5))
        assert np.array_equal(read["fc2"], keep["fc1"])
        assert np.array_equal(read["fc3"], keep["fc2"])
        assert model.blocks[3].linear.in_channels == keep["conv2"].sum() * 5 * 5

    def test_a_residual_stream_is_never_narrowed(self):
        model, _, keep = trained_hard_gated("resnet56", seed=5)
        assert model.narrow(keep) == {}
        widths = [16] * 9 + [32] * 9 + [64] * 9
        for block, stream, width in zip(model.blocks[1:-2], [16] + widths, widths):
            assert (block.conv1.in_channels, block.conv2.out_channels) == (stream, width)
            kept = keep[block.prunable_name].sum()
            assert block.conv1.out_channels == block.conv2.in_channels == kept

    def test_replaces_every_block_and_copies_the_untouched_ones_exactly(self):
        model, _, keep = trained_hard_gated("tiny-cnn", seed=6)
        for layer_keep, read in ((np.ones(24, dtype=bool), {}),
                                 (keep["conv3"].astype(bool), {"conv4": keep["conv3"]})):
            before, old = list(model.blocks), model.state_arrays()
            assert model.narrow({"conv3": layer_keep}).keys() == read.keys()
            assert not any(a is b for a, b in zip(model.blocks, before))
            assert [b.shape for b in _buffers(model.blocks)
                    if any(np.shares_memory(b, a) for a in _buffers(before))] == []
            state = model.state_arrays()
            assert state.keys() == old.keys()
            assert any(k.endswith(".velocity") for k in state)
            untouched = [k for k in state if not k.startswith(("conv3.", "conv4."))]
            for key in untouched if read else state:
                assert state[key].tobytes() == old[key].tobytes(), key
        assert model.blocks[2].conv.out_channels == keep["conv3"].sum()

    def test_an_undrawn_model_narrows_and_loads_without_drawing(self, monkeypatch):
        src = build_model("lenet", 1, 28, 10, seed=1)
        keep = random_keep(src, np.random.default_rng(7))
        src.narrow(keep)
        state = {k: v.copy() for k, v in src.state_arrays().items()}
        conv1, conv2 = (keep[n].astype(bool) for n in ("conv1", "conv2"))
        want = eager_weights("lenet", 0)[1][np.ix_(conv2, conv1)]
        made = count_draws(monkeypatch)
        model = build_model("lenet", 1, 28, 10, seed=0)
        model.narrow(keep)
        model.load_state_arrays(state)
        assert made == []
        for key, value in model.state_arrays().items():
            assert value.tobytes() == state[key].tobytes(), key
        # the control: a narrowed model nothing was loaded into reads the
        # eager bytes of its kept weights, drawing one stream per weight read
        fresh = build_model("lenet", 1, 28, 10, seed=0)
        fresh.narrow(keep)
        assert fresh.blocks[1].conv.weight.data.tobytes() == want.tobytes()
        assert len(made) == 1


class TestSlicedParameter:
    def test_an_undrawn_slice_is_cut_from_the_eager_bytes_on_first_read(self, monkeypatch):
        weight = build_model("tiny-cnn", 1, 28, 10, seed=0).blocks[1].conv.weight
        rows, cols = np.arange(16) % 3 != 0, np.arange(8) % 2 == 0
        want = eager_weights("tiny-cnn", 0)[1][np.ix_(rows, cols)]
        made = count_draws(monkeypatch)
        part = weight.sliced(rows, cols, velocity=True)
        assert part.shape == (rows.sum(), cols.sum(), 3, 3) and part.velocity is None
        assert made == []
        assert part.data.tobytes() == want.tobytes() and part.data.flags.c_contiguous
        assert len(made) == 1
        part._load(np.zeros(part.shape), None)
        assert weight.sliced(rows).shape == (rows.sum(), 8, 3, 3)

    def test_a_drawn_slice_copies_data_and_velocity_only_if_asked(self):
        weight = build_model("tiny-cnn", 1, 28, 10, seed=0).blocks[1].conv.weight
        weight.velocity = np.full(weight.shape, 2.0)
        rows = np.arange(16) < 5
        for velocity in (False, True):
            part = weight.sliced(rows, velocity=velocity)
            assert np.array_equal(part.data, weight.data[rows])
            assert not np.shares_memory(part.data, weight.data)
            if velocity:
                assert np.array_equal(part.velocity, weight.velocity[rows])
                assert not np.shares_memory(part.velocity, weight.velocity)
            else:
                assert part.velocity is None
