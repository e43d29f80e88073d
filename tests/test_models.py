"""Architecture construction, state round-trips, and physical compaction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.errors import ShapeError
from maskprune.influence import StrategyState
from maskprune.layers import BatchNorm2d, MaskedConv2d
from maskprune.models import ConvBlock, Model, PoolBlock, ResidualBlock, build_model
from maskprune.pruning import compact
from tests.test_layers import reference_maxpool, reference_relu


def frozen_strategies(model, keep: dict[str, np.ndarray]):
    out = {}
    for ref in model.prunable():
        width = ref.layer.out_channels
        hard = keep.get(ref.name, np.ones(width, dtype=np.int64))
        out[ref.name] = StrategyState(ref.name, hard.astype(float), hard,
                                      hard.copy(), status="frozen")
        ref.layer.gate[:] = hard.astype(float)
    return out


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
        kinds = [r.kind for r in m.prunable()]
        # two conv layers and the two hidden fc layers; the classifier is
        # never prunable
        assert kinds == ["conv", "conv", "fc", "fc"]

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


    @staticmethod
    def live_arrays(m):
        """The arrays a model owns (``state_arrays`` builds ``mask_samples``
        afresh) plus every mask."""
        out = {k: v for k, v in m.state_arrays().items() if not k.endswith("mask_samples")}
        out.update({f"{n}.mask": layer.mask for n, layer in m._named_layers()
                    if hasattr(layer, "mask")})
        return out

    def test_loads_in_place_into_independent_arrays(self):
        m = build_model("tiny-cnn", 1, 28, 10, seed=0)
        src = build_model("tiny-cnn", 1, 28, 10, seed=1)
        src.forward(np.random.default_rng(0).normal(size=(2, 1, 28, 28)), train=True)
        before = self.live_arrays(m)
        state = src.state_arrays()
        m.load_state_arrays(state)
        after = self.live_arrays(m)
        assert sorted(after) == sorted(before)
        for k in before:
            assert after[k] is before[k], k
            assert not any(np.shares_memory(after[k], v) for v in state.values()), k
        for k, v in state.items():
            assert_allclose(m.state_arrays()[k], v, rtol=0, atol=0)

    def test_mask_is_reset_to_ones(self):
        m = build_model("tiny-cnn", 1, 28, 10, seed=0)
        state = {k: v.copy() for k, v in m.state_arrays().items()}
        conv = m.blocks[1].conv
        conv.mask[0] = 0.0
        m.load_state_arrays(state)
        assert (conv.mask == 1.0).all()

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
        model.forward(x, train=True)      # populate running stats + shapes
        return model.forward(x, train=False)

    def test_all_keep_compaction_is_bit_identical(self):
        rng = np.random.default_rng(3)
        m = build_model("tiny-cnn", 1, 28, 10, seed=3)
        x = rng.normal(size=(4, 1, 28, 28))
        before = self._exercise(m, x)
        strategies = frozen_strategies(m, {})
        plain = compact(m, strategies)
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
        gated = m.forward(x, train=False)
        plain = compact(m, strategies)
        assert_allclose(plain.forward(x, train=False), gated, rtol=0, atol=1e-10)

    def test_parameter_count_shrinks(self):
        m = build_model("tiny-cnn", 1, 28, 10, seed=6)
        m.forward(np.zeros((2, 1, 28, 28)), train=True)
        keep = {"conv3": np.array([1] * 12 + [0] * 12)}
        plain = compact(m, frozen_strategies(m, keep))
        conv3 = [b for b in plain.blocks if getattr(b, "name", "") == "conv3"][0]
        assert conv3.conv.weight.shape[0] == 12

    def test_lenet_fc_compaction(self):
        rng = np.random.default_rng(7)
        m = build_model("lenet", 1, 28, 10, seed=7)
        x = rng.normal(size=(4, 1, 28, 28))
        m.forward(x, train=True)
        keep = {"fc1": np.array([1, 0] * 60), "fc2": np.array([0, 1] * 42)}
        strategies = frozen_strategies(m, keep)
        gated = m.forward(x, train=False)
        plain = compact(m, strategies)
        assert_allclose(plain.forward(x, train=False), gated, rtol=0, atol=1e-10)

    def test_all_channels_removed_rejected(self):
        m = build_model("tiny-cnn", 1, 28, 10, seed=8)
        m.forward(np.zeros((2, 1, 28, 28)), train=True)
        keep = {"conv2": np.zeros(16, dtype=np.int64)}
        with pytest.raises(ShapeError):
            compact(m, frozen_strategies(m, keep))


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
    z = conv.forward(x).data
    if bn is not None:
        z = bn.forward(z, update_mask=conv.gate >= block.delta_freeze).data
    relu_out, relu_back = reference_relu(z * gate)
    out, pool_back = reference_maxpool(relu_out, 2)
    gz = relu_back(pool_back(g))
    conv.gate_grad = (gz * z).sum(axis=(0, 2, 3))
    gz = gz * gate
    if bn is not None:
        gz = bn.backward(gz).data
    return out, conv.backward(gz).data


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
                 (block.conv.bias.grad, ref.conv.bias.grad),
                 (block.conv.mask_grad, ref.conv.mask_grad),
                 (block.conv.gate_grad, ref.conv.gate_grad)]
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
            assert np.array_equal(ra.layer.mask_grad, rb.layer.mask_grad)
            assert np.array_equal(ra.layer.gate_grad, rb.layer.gate_grad)


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
        gated = m.forward(x, train=False)
        plain = compact(m, strategies)
        assert_allclose(plain.forward(x, train=False), gated, rtol=0, atol=1e-10)
