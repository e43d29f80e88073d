"""Planning and strategy-control tests.

Threshold and target values are pinned against hand-worked examples, the
strategy-weight rule against a table computed by hand from its definition.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.errors import ShapeError
from maskprune.pruning import (
    CompressionPlan,
    SharpnessSchedule,
    build_plan,
    compact,
    has_converged,
    lambda_value,
    strategy_loss,
)


class TestGlobalThreshold:
    def test_hand_worked_example(self):
        # influences [0.1, 0.9, 0.3, 0.7, 0.5], rate 0.4 -> mark ceil(2) = 2
        # smallest (0.1 and 0.3) -> threshold is the influence of the last
        # marked channel, 0.3
        infl = {"a": np.array([0.1, 0.9, 0.3, 0.7, 0.5])}
        assert build_plan(infl, 0.4).threshold == 0.3

    def test_rate_zero_marks_nothing(self):
        infl = {"a": np.array([5.0, 1.0])}
        plan = build_plan(infl, 0.0)
        assert plan.threshold == float("-inf")
        assert plan.targets["a"].tolist() == [1, 1]

    def test_spans_layers(self):
        infl = {"a": np.array([0.4, 0.1]), "b": np.array([0.2, 0.3, 0.5])}
        # rate 0.6 over 5 channels -> mark 3 smallest: 0.1, 0.2, 0.3
        assert build_plan(infl, 0.6).threshold == 0.3

    def test_invalid_rate_rejected(self):
        with pytest.raises(ShapeError):
            build_plan({"a": np.array([1.0])}, 1.5)
        with pytest.raises(ShapeError):
            build_plan({"a": np.array([1.0])}, -0.1)


class TestCollapseGuard:
    def test_collapse_guard(self):
        # rate 0.4 over 50 channels marks the 20 smallest: every channel of
        # "a".  The guard keeps its top ceil(0.2 * (1-r) * width) = 3 instead.
        infl = {"a": np.linspace(0.0, 0.9, 20), "b": np.full(30, 5.0)}
        t = build_plan(infl, 0.4).targets
        assert t["a"].sum() == max(1, math.ceil(0.2 * 0.6 * 20))
        assert t["a"][17:].all() and not t["a"][:17].any()
        assert t["b"].all()

    def test_collapse_guard_keeps_strongest(self):
        # every channel of "a" is marked; of its two strongest (tied) the
        # earlier index survives
        infl = {"a": np.array([0.3, 0.9, 0.1, 0.9, 0.5]), "b": np.full(5, 5.0)}
        t = build_plan(infl, 0.5).targets
        assert max(1, math.ceil(0.2 * 0.5 * 5)) == 1
        assert t["a"].tolist() == [0, 1, 0, 0, 0]
        assert t["b"].all()


class TestBuildPlan:
    def test_exact_global_count(self):
        rng = np.random.default_rng(0)
        infl = {f"l{i}": rng.uniform(0.1, 1.0, size=n)
                for i, n in enumerate([300, 400, 300])}
        for rate in (0.1, 0.37, 0.5):
            plan = build_plan(infl, rate)
            marked = sum(int((t == 0).sum()) for t in plan.targets.values())
            assert marked == math.ceil(rate * 1000)

    def test_tie_break_is_layer_then_channel(self):
        # four identical influences; marking two must take the earliest by
        # (layer position, channel index), so both land in layer a
        infl = {"a": np.array([0.5, 0.5, 0.9]), "b": np.array([0.5, 0.5, 0.9])}
        plan = build_plan(infl, 2 / 6)
        assert plan.targets["a"].tolist() == [0, 0, 1]
        assert plan.targets["b"].tolist() == [1, 1, 1]

    def test_deterministic_across_dict_construction(self):
        rng = np.random.default_rng(5)
        vals = [rng.uniform(size=6) for _ in range(3)]
        infl1 = {"a": vals[0], "b": vals[1], "c": vals[2]}
        plan1 = build_plan(infl1, 0.37)
        plan2 = build_plan({k: v.copy() for k, v in infl1.items()}, 0.37)
        for k in infl1:
            assert plan1.targets[k].tolist() == plan2.targets[k].tolist()

    def test_plan_counts(self):
        infl = {"a": np.array([0.1, 0.9, 0.3, 0.7, 0.5])}
        plan = build_plan(infl, 0.4)
        assert plan.total_channels == 5 and plan.kept_channels == 3
        assert plan.threshold == 0.3

    def test_empty_influences_rejected(self):
        with pytest.raises(ShapeError):
            build_plan({}, 0.3)


class TestLambdaValue:
    def test_pinned_table(self):
        # (total, kept_target, kept_actual) -> weight, from the definition
        # scale * |T/C + B/C - 1| gated on 1 - B/C >= T/C
        table = [
            (100, 50, 30, 1.0),
            (100, 50, 60, 0.0),
            (64, 32, 32, 0.0),
            (10, 2, 3, 2.5),
            (8, 4, 0, 2.5),
        ]
        for total, kt, ka, want in table:
            assert_allclose(lambda_value(kt, ka, total), want, rtol=0,
                            atol=1e-12, err_msg=f"case {(total, kt, ka)}")

    def test_random_sweep_against_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            total = int(rng.integers(2, 200))
            kt = int(rng.integers(0, total + 1))
            ka = int(rng.integers(0, total + 1))
            t, b = kt / total, ka / total
            want = 5.0 * abs(t + b - 1.0) if 1.0 - b >= t else 0.0
            assert_allclose(lambda_value(kt, ka, total), want, rtol=0, atol=1e-12)

    def test_bad_counts_rejected(self):
        with pytest.raises(ShapeError):
            lambda_value(5, 2, 4)
        with pytest.raises(ShapeError):
            lambda_value(1, 1, 0)


class TestStrategyLoss:
    def test_half_deviation_squares(self):
        assert_allclose(strategy_loss(np.array([0.5, 0.5]), np.array([1, 0])), 0.5,
                        rtol=0)

    def test_zero_at_target(self):
        assert strategy_loss(np.array([1.0, 0.0]), np.array([1, 0])) == 0.0


class TestSharpnessSchedule:
    def test_geometric_midpoint(self):
        s = SharpnessSchedule(0.01, 1.0, total_steps=100)
        s.advance(50)
        assert_allclose(s.value(), 0.1, rtol=1e-12)

    def test_endpoints_and_clamp(self):
        s = SharpnessSchedule(0.01, 1.0, total_steps=10)
        assert_allclose(s.value(), 0.01, rtol=0)
        s.advance(10)
        assert_allclose(s.value(), 1.0, rtol=1e-12)
        s.advance(100)   # past the end the value holds
        assert_allclose(s.value(), 1.0, rtol=1e-12)

    def test_boost_multiplies(self):
        s = SharpnessSchedule(0.01, 1.0, total_steps=10, boost_factor=2.0)
        s.advance(10)
        s.apply_boost()
        assert_allclose(s.value(), 2.0, rtol=1e-12)
        s.apply_boost()
        assert_allclose(s.value(), 4.0, rtol=1e-12)

    def test_monotone_over_steps(self):
        s = SharpnessSchedule(0.02, 3.0, total_steps=57)
        vals = []
        for _ in range(60):
            vals.append(s.value())
            s.advance()
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ShapeError):
            SharpnessSchedule(0.0, 1.0, 10)
        with pytest.raises(ShapeError):
            SharpnessSchedule(1.0, 0.5, 10)
        with pytest.raises(ShapeError):
            SharpnessSchedule(0.01, 1.0, 0)

    @pytest.mark.parametrize("factor", [0.0, 0.5, np.nextafter(1.0, 0.0), float("nan")])
    def test_boost_factor_below_one_rejected(self, factor):
        # a factor of 0 would divide by zero in the stall log, and one below 1
        # would lower the sharpness the boost means to raise
        with pytest.raises(ShapeError, match="boost factor"):
            SharpnessSchedule(1.0, 2.0, 10, boost_factor=factor)

    def test_boost_factor_one_accepted(self):
        s = SharpnessSchedule(1.0, 2.0, 10, boost_factor=1.0)
        s.apply_boost()
        assert s.value() == 1.0


class TestHasConverged:
    def test_needs_full_window(self):
        binary = np.array([0.999, 0.001])
        assert not has_converged([binary, binary], window=3)
        assert has_converged([binary, binary, binary], window=3)

    def test_soft_entry_blocks(self):
        soft = np.array([0.999, 0.2])
        assert not has_converged([soft] * 3, delta_bin=0.01, window=3)

    def test_pattern_flip_blocks(self):
        # the keep pattern is read at the binarization cutoff, so the flip has
        # to cross it to count as instability
        a = np.array([0.999, 1e-9])
        b = np.array([1e-9, 0.999])
        assert not has_converged([a, b, a], window=3)

    def test_delta_bin_boundary(self):
        edge = np.array([0.9901, 0.0099])   # just inside delta_bin
        assert has_converged([edge] * 3, delta_bin=0.01, window=3)
        over = np.array([0.989, 0.011])
        assert not has_converged([over] * 3, delta_bin=0.01, window=3)


class TestCompactGuard:
    def test_refuses_unfrozen_strategies(self):
        from maskprune.influence import StrategyState
        from maskprune.models import build_model
        model = build_model("tiny-cnn", 1, 28, 10, seed=0)
        strategies = {}
        for ref in model.prunable():
            width = ref.layer.out_channels
            strategies[ref.name] = StrategyState(
                ref.name, np.full(width, 0.5), np.ones(width, dtype=np.int64),
                np.ones(width, dtype=np.int64), status="active")
        with pytest.raises(ShapeError):
            compact(model, strategies)
