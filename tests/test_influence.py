"""Influence measurement and strategy-scoring tests.

Pinned values: sigmoid(0.01 * 10) = 0.5249792 (computed independently of the
implementation) and sigmoid(ln 4) = 0.8 exactly.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.errors import ShapeError
from maskprune.influence import (
    BINARY_CUTOFF,
    ChannelScorer,
    InfluenceMap,
    InfluenceSum,
    StrategyState,
    binarize,
    capture_influence,
    channel_influence,
    ema_merge,
    scaled_sigmoid,
    scorer_gradients,
)
from maskprune.layers import MaskedConv2d, MaskedLinear
from maskprune.models import ConvBlock


def make_conv(cin, cout, k, seed=0):
    rng = np.random.default_rng(seed)
    return MaskedConv2d(rng.normal(scale=0.3, size=(cout, cin, k, k)),
                        rng.normal(scale=0.1, size=cout), stride=1, padding=1)


class TestCapture:
    def test_normalizes_by_samples_and_resets(self):
        conv = make_conv(2, 3, 3, seed=1)
        acc = InfluenceSum(conv)
        rng = np.random.default_rng(2)
        for _ in range(2):
            conv.forward(rng.normal(size=(4, 2, 5, 5)))
            conv.backward(rng.normal(size=(4, 3, 5, 5)))
            acc.add(4)
        raw = acc.total.copy()
        m = capture_influence(acc, "conv")
        assert m.layer == "conv" and m.samples == 8
        assert_allclose(m.values, raw / 8.0, rtol=0, atol=0)
        assert acc.samples == 0 and (acc.total == 0).all()
        assert not np.shares_memory(m.values, acc.total)

    def test_empty_accumulator_rejected(self):
        conv = make_conv(2, 3, 3)
        with pytest.raises(ShapeError):
            capture_influence(InfluenceSum(conv), "conv")

    def test_degate_rescales_by_applied_gate(self):
        conv = make_conv(2, 4, 3, seed=3)
        block = ConvBlock("conv", conv, bn=None, relu=False)   # conv -> gate
        gates = np.array([1.0, 0.5, 0.25, 1e-9])
        conv.gate[:] = gates
        rng = np.random.default_rng(4)
        x, g = rng.normal(size=(2, 2, 4, 4)), rng.normal(size=(2, 4, 4, 4))
        acc = InfluenceSum(conv)
        block.forward(x)
        block.backward(g)
        acc.add(2)
        raw = acc.total.copy()
        block.forward(x)
        block.backward(g)
        acc.add(2)
        m = capture_influence(acc, "conv", degate=True)
        # channels with a healthy gate are divided by it; the one gated
        # below the floor is frozen anyway and stays as measured
        want = raw.copy()
        for k, scale in enumerate([1.0, 0.5, 0.25, 1.0]):
            want[k] = raw[k] / scale
        assert_allclose(m.values, want / 2.0, rtol=1e-12)

    def test_mask_grad_scales_linearly_with_gate(self):
        # the weight gradient passes through the gate, so a half-open gate
        # halves the measured influence; degate undoes exactly that
        conv = make_conv(1, 2, 3, seed=5)
        block = ConvBlock("c", conv, bn=None, relu=False)      # conv -> gate
        acc = InfluenceSum(conv)
        rng = np.random.default_rng(6)
        x, g = rng.normal(size=(2, 1, 4, 4)), rng.normal(size=(2, 2, 4, 4))
        conv.gate[:] = 1.0
        block.forward(x); block.backward(g); acc.add(2)
        full = capture_influence(acc, "c").values
        conv.gate[:] = np.array([1.0, 0.5])
        block.forward(x); block.backward(g); acc.add(2)
        half = capture_influence(acc, "c").values
        assert_allclose(half[1], 0.5 * full[1], rtol=1e-12)
        assert_allclose(half[0], full[0], rtol=1e-12)


class TestChannelInfluence:
    def test_absolute_is_full_slab_l1(self):
        vals = np.array([[[1.0, -2.0], [3.0, -4.0]],
                         [[-1.0, 1.0], [1.0, -1.0]]])[:, None]
        m = InfluenceMap("x", vals, samples=1)
        assert_allclose(channel_influence(m), [10.0, 4.0], rtol=0)

    def test_opposite_signs_never_cancel(self):
        # a slab of +-x sums to 2|x|, not 0: the ranking is by magnitude
        vals = np.array([[[1.0, -1.0]], [[-3.0, -3.0]], [[0.0, 0.0]]])[:, None]
        m = InfluenceMap("x", vals, samples=1)
        assert_allclose(channel_influence(m), [2.0, 6.0, 0.0], rtol=0)
        m2 = InfluenceMap("fc", np.array([[2.0, -5.0], [-1.0, 1.0]]), samples=1)
        assert_allclose(channel_influence(m2), [7.0, 2.0], rtol=0)


class TestEmaMerge:
    def test_pinned_midpoint(self):
        a = InfluenceMap("x", np.full((2, 1), 2.0), samples=4)
        b = InfluenceMap("x", np.full((2, 1), 4.0), samples=4)
        merged = ema_merge(a, b, rho=0.5)
        assert_allclose(merged.values, 3.0, rtol=0)

    def test_none_running_adopts_fresh(self):
        fresh = InfluenceMap("x", np.arange(4.0).reshape(2, 2), samples=2)
        merged = ema_merge(None, fresh, rho=0.9)
        assert_allclose(merged.values, fresh.values, rtol=0)
        merged.values[0, 0] = 99
        assert fresh.values[0, 0] == 0.0   # must be a copy

    def test_rho_weighting(self):
        a = InfluenceMap("x", np.full((1, 1), 10.0), samples=1)
        b = InfluenceMap("x", np.full((1, 1), 0.0), samples=1)
        assert_allclose(ema_merge(a, b, rho=0.9).values, 9.0, rtol=1e-15)


class TestScaledSigmoid:
    def test_pinned_value(self):
        # beta = 0.01, s - center = 10 -> sigmoid(0.1)
        out = scaled_sigmoid(0.01, np.array([10.0]), 0.0)
        assert_allclose(out, 0.5249792, rtol=0, atol=5e-8)

    def test_ln4_gives_point_eight(self):
        out = scaled_sigmoid(1.0, np.array([np.log(4.0)]), 0.0)
        assert_allclose(out, 0.8, rtol=1e-12)

    def test_extreme_scores_do_not_overflow(self):
        out = scaled_sigmoid(100.0, np.array([-1e6, 1e6]), 0.0)
        assert np.isfinite(out).all()
        assert out[0] < 1e-12 and out[1] > 1 - 1e-12

    def test_nonpositive_sharpness_rejected(self):
        with pytest.raises(ShapeError):
            scaled_sigmoid(0.0, np.array([1.0]), 0.0)


class TestBinarize:
    def test_cutoff_is_strict_below(self):
        soft = np.array([0.0, BINARY_CUTOFF / 2, BINARY_CUTOFF, 0.5, 1.0])
        assert binarize(soft).tolist() == [0, 0, 1, 1, 1]

    def test_dtype_is_integer(self):
        assert binarize(np.array([0.3])).dtype == np.int64


class TestChannelScorer:
    def test_score_is_inner_product_plus_bias(self):
        rng = np.random.default_rng(7)
        maps = rng.normal(size=(5, 2, 3, 3))
        sc = ChannelScorer((2, 3, 3))
        sc.kernel.data, sc.bias.data = rng.normal(size=(2, 3, 3)), np.array([0.7])
        got = sc.score(maps)
        want = np.array([(maps[k] * sc.kernel.data).sum() + 0.7 for k in range(5)])
        assert_allclose(got, want, rtol=1e-12)

    def test_default_kernel_averages(self):
        maps = np.arange(8.0).reshape(2, 1, 2, 2)
        sc = ChannelScorer((1, 2, 2))
        assert_allclose(sc.score(maps), maps.reshape(2, -1).mean(axis=1), rtol=1e-12)

    def test_slab_shape_mismatch(self):
        sc = ChannelScorer((2, 3, 3))
        with pytest.raises(ShapeError):
            sc.score(np.zeros((4, 2, 4, 4)))

    def test_rescale_sets_median_deviation(self):
        rng = np.random.default_rng(9)
        maps = np.abs(rng.normal(size=(16, 3, 3, 3)))
        sc = ChannelScorer((3, 3, 3))
        sc.rescale_for_spread(maps, 14.0)
        s = sc.score(maps)
        dev = np.median(np.abs(s - np.median(s)))
        assert_allclose(dev, 14.0, rtol=1e-9)

    def test_scorer_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        maps = rng.normal(size=(6, 2, 3, 3))
        sc = ChannelScorer((2, 3, 3))
        sc.kernel.data, sc.bias.data = rng.normal(size=(2, 3, 3)), np.array([0.2])
        center, sharp = 0.3, 1.7
        grad_soft = rng.normal(size=6)

        def loss():
            soft = scaled_sigmoid(sharp, sc.score(maps), center)
            return float((soft * grad_soft).sum())

        soft = scaled_sigmoid(sharp, sc.score(maps), center)
        gk, gb = scorer_gradients(sc, maps, soft, grad_soft, sharp)

        h = 1e-6
        num_k = np.zeros_like(sc.kernel.data)
        it = np.nditer(sc.kernel.data, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            old = sc.kernel.data[i]
            sc.kernel.data[i] = old + h
            up = loss()
            sc.kernel.data[i] = old - h
            dn = loss()
            sc.kernel.data[i] = old
            num_k[i] = (up - dn) / (2 * h)
            it.iternext()
        assert_allclose(gk, num_k, rtol=1e-5, atol=1e-9)

        old = sc.bias.data[0]
        sc.bias.data[0] = old + h
        up = loss()
        sc.bias.data[0] = old - h
        dn = loss()
        sc.bias.data[0] = old
        assert_allclose(gb[0], (up - dn) / (2 * h), rtol=1e-6)


class TestStrategyState:
    def test_hard_is_the_binarized_soft_vector(self):
        st = StrategyState("l", np.array([0.7, BINARY_CUTOFF / 2, 1.0, 0.5]),
                           target=np.ones(4))
        assert st.hard.tolist() == [1, 0, 1, 1] and st.kept == 3
        st.soft = np.array([0.0, 0.9, 0.0, 0.0])
        assert st.hard.tolist() == [0, 1, 0, 0] and st.kept == 1

    def test_softness_is_the_largest_distance_from_0_or_1(self):
        st = StrategyState("l", np.array([1 - 1e-3, 0.2, 1e-9]), target=np.ones(3))
        assert_allclose(st.softness, 0.2, rtol=0)
        st.soft = np.array([1.0, 0.0])
        assert st.softness == 0.0

    def test_fields_after_soft_are_keyword_only(self):
        # a positional call written for the order (layer, soft, hard, target,
        # center) would bind the target to the hard pattern's place
        with pytest.raises(TypeError):
            StrategyState("l", np.ones(2), np.ones(2), np.ones(2))
