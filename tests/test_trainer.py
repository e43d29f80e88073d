"""Pipeline orchestration: anchoring, joint strategy steps, stage plumbing."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.config import ExperimentConfig
from maskprune.data import synthetic_dataset
from maskprune.errors import ConfigError, NumericalError
from maskprune.influence import (
    ChannelScorer,
    InfluenceMap,
    StrategyState,
    binarize,
    scaled_sigmoid,
)
from maskprune.models import build_model
from maskprune.pruning import SharpnessSchedule, build_plan, lambda_value
from maskprune.trainer import (
    Phase,
    StrategyMonitor,
    Trainer,
    anchor_center,
    run_pipeline,
    score_strategy,
    strategy_step,
)


class TestAnchorCenter:
    def test_center_splits_targeted_count(self):
        scores = np.array([3.0, 1.0, 4.0, 2.0])
        target = np.array([1, 0, 1, 1])          # one channel to drop
        assert anchor_center(scores, target, sharpness=1.0) == 1.5

    def test_zero_drop_saturates_all_high(self):
        scores = np.array([0.3, -1.2, 2.0])
        target = np.ones(3, dtype=np.int64)
        for sharp in (0.5, 2.0, 10.0):
            c = anchor_center(scores, target, sharp, delta_bin=0.01)
            soft = scaled_sigmoid(sharp, scores, c)
            assert soft.min() > 1 - 0.01

    def test_all_drop_saturates_all_low(self):
        scores = np.array([0.3, -1.2, 2.0])
        target = np.zeros(3, dtype=np.int64)
        for sharp in (0.5, 2.0, 10.0):
            c = anchor_center(scores, target, sharp, delta_bin=0.01)
            soft = scaled_sigmoid(sharp, scores, c)
            assert soft.max() < 0.01

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=20)
        target = (scores > np.median(scores)).astype(np.int64)
        perm = rng.permutation(20)
        assert anchor_center(scores, target, 3.0) == \
            anchor_center(scores[perm], target[perm], 3.0)

    def test_hard_pattern_matches_target_after_anchoring(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            scores = rng.normal(size=12)
            k = int(rng.integers(1, 12))
            order = np.argsort(scores)
            target = np.ones(12, dtype=np.int64)
            target[order[:k]] = 0
            c = anchor_center(scores, target, sharpness=200.0)
            soft = scaled_sigmoid(200.0, scores, c)
            assert np.array_equal(binarize(soft, 0.5).astype(np.int64), target)


def planted_setup(seed=0, n=10, k_drop=4):
    """A separable per-weight map: kept channels carry plainly larger
    influence slabs than dropped ones."""
    rng = np.random.default_rng(seed)
    slab = (3, 3, 3)
    vals = np.empty((n, *slab))
    target = np.ones(n, dtype=np.int64)
    drop = rng.choice(n, size=k_drop, replace=False)
    target[drop] = 0
    for i in range(n):
        scale = 0.05 if target[i] == 0 else 1.0
        vals[i] = np.abs(rng.normal(2.0 * scale, 0.3 * scale, size=slab))
    scorer = ChannelScorer(slab)
    state = StrategyState("planted", np.full(n, 0.5), np.ones(n, dtype=np.int64),
                          target)
    return vals, scorer, state


class TestStrategyStep:
    def test_step_with_inactive_penalty_leaves_scorer_alone(self):
        # fresh start: every channel still binarizes to kept, which the
        # weighting rule treats as penalty-free, so with no classification
        # gradient the scorer must not move at all
        vals, scorer, state = planted_setup()
        schedule = SharpnessSchedule(0.5, 50.0, 100)
        state.center = anchor_center(scorer.score(vals), state.target, 0.5)
        k0 = scorer.kernel.data.copy()
        score_strategy(scorer, state, schedule.value(), vals)
        weight, loss = strategy_step(scorer, state, schedule, vals)
        assert weight == 0.0
        assert loss >= 0.0
        assert schedule.step == 1
        assert np.array_equal(scorer.kernel.data, k0)
        assert state.soft.shape == (10,)

    def test_step_with_active_penalty_moves_scorer(self):
        # park the whole layer below the cutoff: the rule activates and the
        # penalty gradient reaches the kernel
        vals, scorer, state = planted_setup()
        schedule = SharpnessSchedule(5.0, 50.0, 100)
        state.center = float(scorer.score(vals).max()) + 5.0
        k0 = scorer.kernel.data.copy()
        score_strategy(scorer, state, schedule.value(), vals)
        weight, _ = strategy_step(scorer, state, schedule, vals)
        assert state.kept == 0
        assert weight == lambda_value(int(state.target.sum()), 0, state.target.size)
        assert weight > 0.0
        assert not np.array_equal(scorer.kernel.data, k0)

    def test_planted_map_converges_to_target(self):
        vals, scorer, state = planted_setup(seed=3)
        schedule = SharpnessSchedule(0.5, 500.0, 400)
        monitor = StrategyMonitor(window=3, patience=5)
        done = False
        for step in range(400):
            if step % 10 == 0:
                state.center = anchor_center(scorer.score(vals),
                                             state.target, schedule.value())
            score_strategy(scorer, state, schedule.value(), vals)
            strategy_step(scorer, state, schedule, vals)
            if step % 10 == 9 and monitor.observe(state, schedule):
                done = True
                break
        assert done, "planted strategy did not converge"
        assert np.array_equal(state.hard, state.target)
        assert float(np.minimum(state.soft, 1 - state.soft).max()) <= 0.01

    def test_extra_gradient_shifts_update(self):
        vals, scorer_a, state_a = planted_setup(seed=5)
        _, scorer_b, state_b = planted_setup(seed=5)
        sched_a = SharpnessSchedule(1.0, 10.0, 50)
        sched_b = SharpnessSchedule(1.0, 10.0, 50)
        push = np.full(10, 0.3)
        score_strategy(scorer_a, state_a, sched_a.value(), vals)
        score_strategy(scorer_b, state_b, sched_b.value(), vals)
        strategy_step(scorer_a, state_a, sched_a, vals)
        strategy_step(scorer_b, state_b, sched_b, vals, extra_grad_soft=push)
        assert not np.allclose(scorer_a.kernel.data, scorer_b.kernel.data)


class TestStrategyMonitor:
    def _state(self, soft):
        soft = np.asarray(soft, dtype=np.float64)
        return StrategyState("m", soft, binarize(soft), np.array([1, 0]),
                             history_cap=3)

    def test_converged_after_window_binary_snapshots(self):
        state = self._state([1.0 - 1e-9, 1e-9])
        monitor = StrategyMonitor(window=3)
        schedule = SharpnessSchedule(1.0, 2.0, 10)
        results = [monitor.observe(state, schedule) for _ in range(3)]
        assert results == [False, False, True]

    def test_stall_boosts_schedule(self):
        state = self._state([0.8, 0.2])          # stuck but soft
        monitor = StrategyMonitor(window=3, patience=3)
        schedule = SharpnessSchedule(1.0, 2.0, 1000)
        for _ in range(4):                        # prev None + 3 stalled repeats
            assert not monitor.observe(state, schedule)
        assert schedule.boost == 2.0

    def test_pattern_change_resets_stall_counter(self):
        a = self._state([0.8, 1e-9])              # hard [1, 0]
        b = self._state([0.8, 0.6])               # hard [1, 1]
        monitor = StrategyMonitor(window=3, patience=3)
        schedule = SharpnessSchedule(1.0, 2.0, 1000)
        for state in (a, b, a, b, a, b, a, b):
            monitor.observe(state, schedule)
        assert schedule.boost == 1.0

    def test_parked_above_cutoff_is_not_convergence(self):
        # entries in (cutoff, delta_bin] satisfy the window rule but binarize
        # as kept; the monitor must keep boosting rather than freeze them
        state = self._state([1 - 8e-4, 8e-4])
        assert np.array_equal(state.hard, [1, 1])  # leak: target is [1, 0]
        monitor = StrategyMonitor(window=3, patience=3)
        schedule = SharpnessSchedule(1.0, 2.0, 1000)
        for _ in range(4):
            assert not monitor.observe(state, schedule)
        assert schedule.boost == 2.0
        # once the low entry crosses the cutoff the pattern matches the
        # target and a fresh window converges
        crossed = self._state([1 - 8e-4, 1e-9])
        results = [monitor.observe(crossed, schedule) for _ in range(3)]
        assert results == [False, False, True]


def quick_config(tmp_path, **over):
    kw = dict(dataset="synthetic", synthetic_train=240, synthetic_test=80,
              batch_size=32, eval_batch=80, baseline_epochs=1, prune_epochs=1,
              max_prune_epochs=4, finetune_epochs=0, rate=0.0, seed=3,
              out_dir=str(tmp_path / "run"), crop_pad=0)
    kw.update(over)
    return ExperimentConfig(**kw).validate()


def make_trainer(cfg):
    train, test = synthetic_dataset(cfg.synthetic_train, cfg.synthetic_test, cfg.seed)
    model = build_model(cfg.model, train.channels, train.image_size, cfg.classes,
                        cfg.seed)
    return Trainer(cfg, model, train, test)


class TestPhases:
    def test_full_schedule(self, tmp_path):
        cfg = quick_config(tmp_path, baseline_epochs=2, finetune_epochs=1)
        stages = [p.stage_id for p in make_trainer(cfg).phases()]
        assert stages == ["baseline", "measure", "prune:conv1", "prune:conv2",
                          "prune:conv3", "prune:conv4", "finetune"]

    def test_zero_epoch_phases_dropped(self, tmp_path):
        cfg = quick_config(tmp_path, baseline_epochs=0, finetune_epochs=0)
        kinds = [p.kind for p in make_trainer(cfg).phases()]
        assert "baseline" not in kinds and "finetune" not in kinds
        assert kinds[0] == "measure"

    def test_phase_requires_an_epoch(self):
        with pytest.raises(ConfigError):
            Phase("baseline", None, 0)


class TestTargetRefresh:
    def test_removal_budget_is_preserved(self, tmp_path):
        cfg = quick_config(tmp_path)
        trainer = make_trainer(cfg)
        name = "conv1"
        start = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        trainer.plan = build_plan({name: start}, rate=0.25)
        assert_allclose(trainer.plan.targets[name], [0, 0, 1, 1, 1, 1, 1, 1])
        # drift: channels 6 and 7 are now the weakest
        drifted = np.array([5.0, 6.0, 7.0, 8.0, 3.0, 4.0, 1.0, 2.0])
        trainer.maps[name] = InfluenceMap(name, drifted.reshape(8, 1, 1, 1), 1)
        trainer.strategies[name] = StrategyState(
            name, np.full(8, 0.5), np.ones(8, dtype=np.int64),
            trainer.plan.targets[name])
        trainer._refresh_target(name)
        new = trainer.strategies[name].target
        assert int((new == 0).sum()) == 2
        assert_allclose(new, [1, 1, 1, 1, 1, 1, 0, 0])

    def test_ties_drop_lower_index_first(self, tmp_path):
        cfg = quick_config(tmp_path)
        trainer = make_trainer(cfg)
        name = "conv1"
        trainer.plan = build_plan({name: np.arange(8.0)}, rate=0.25)
        tied = np.full(8, 2.0)
        trainer.maps[name] = InfluenceMap(name, tied.reshape(8, 1, 1, 1), 1)
        trainer.strategies[name] = StrategyState(
            name, np.full(8, 0.5), np.ones(8, dtype=np.int64),
            trainer.plan.targets[name])
        trainer._refresh_target(name)
        assert_allclose(trainer.strategies[name].target, [0, 0, 1, 1, 1, 1, 1, 1])


class TestPipelineSmall:
    def test_zero_rate_run_is_baseline_equivalent(self, tmp_path):
        report, trainer = run_pipeline(quick_config(tmp_path))
        assert report.rate_actual == 0.0
        assert all(s.status == "skipped" for s in trainer.strategies.values())
        # nothing was retrained after measurement, so the compacted model
        # scores exactly the baseline accuracy and costs exactly as much
        assert report.pruned_acc == report.baseline_acc
        assert report.flops_after == report.flops_before
        assert report.params_after == report.params_before

    def test_evaluate_is_deterministic(self, tmp_path):
        cfg = quick_config(tmp_path, baseline_epochs=1)
        trainer = make_trainer(cfg)
        trainer.run(until="baseline")
        assert trainer.evaluate() == trainer.evaluate()

    def test_save_load_round_trip(self, tmp_path):
        cfg = quick_config(tmp_path)
        trainer = make_trainer(cfg)
        trainer.run(until="measure")
        path = trainer.save(tmp_path / "mid.ckpt")

        other = make_trainer(cfg)
        other.load(path)
        assert other.completed == trainer.completed
        assert other.global_epoch == trainer.global_epoch
        assert other.plan.threshold == trainer.plan.threshold
        for name in trainer.strategies:
            assert_allclose(other.strategies[name].target,
                            trainer.strategies[name].target, rtol=0, atol=0)
            assert_allclose(other.maps[name].values, trainer.maps[name].values,
                            rtol=0, atol=0)
        x = np.zeros((4, 1, 28, 28))
        assert_allclose(other.model.forward(x, train=False),
                        trainer.model.forward(x, train=False), rtol=0, atol=0)

    def test_load_rejects_model_mismatch(self, tmp_path):
        cfg = quick_config(tmp_path)
        trainer = make_trainer(cfg)
        trainer.run(until="measure")
        path = trainer.save(tmp_path / "mid.ckpt")
        other = make_trainer(quick_config(tmp_path, model="lenet"))
        with pytest.raises(ConfigError):
            other.load(path)

    @pytest.mark.parametrize("field,value,shown", [
        ("rate", 0.25, "rate: checkpoint 0.0, config 0.25"),
        ("seed", 4, "seed: checkpoint 3, config 4"),
    ], ids=["rate", "seed"])
    def test_load_rejects_a_different_run(self, tmp_path, field, value, shown):
        trainer = make_trainer(quick_config(tmp_path))
        trainer.run(until="baseline")
        path = trainer.save(tmp_path / "mid.ckpt")
        other = make_trainer(quick_config(tmp_path, **{field: value}, batch_size=16))
        with pytest.raises(ConfigError) as err:
            other.load(path)
        assert shown in str(err.value)
        assert "batch_size: checkpoint 32, config 16" in str(err.value)
        assert other.completed == [] and other.global_epoch == 0

    def test_load_accepts_a_new_out_dir(self, tmp_path):
        trainer = make_trainer(quick_config(tmp_path))
        trainer.run(until="baseline")
        path = trainer.save(tmp_path / "mid.ckpt")
        other = make_trainer(quick_config(tmp_path, out_dir=str(tmp_path / "elsewhere"),
                                          log_every=7))
        other.load(path)
        assert other.completed == ["baseline"]


class TestNonFiniteGuard:
    @pytest.mark.parametrize("until,stage", [(None, "baseline"),
                                             ("measure", "prune:conv1")])
    def test_nan_weight_stops_before_any_update(self, tmp_path, until, stage):
        cfg = quick_config(tmp_path, rate=0.25)
        trainer = make_trainer(cfg)
        if until:
            trainer.run(until=until)
        epoch = trainer.global_epoch
        # a hidden conv, so the NaN has to pass ReLU and max-pool to be seen
        trainer.model.blocks[1].conv.weight.data[0, 0, 0, 0] = np.nan
        before = {k: v.copy() for k, v in trainer.model.state_arrays().items()}
        with pytest.raises(NumericalError) as err:
            trainer.run()
        assert f"stage {stage}, epoch {epoch}, step 0" in str(err.value)
        after = trainer.model.state_arrays()
        for k, v in before.items():
            # gates take the soft keep vector before the forward pass; the
            # accumulators and running statistics are not weights
            if not k.endswith(("gate", "mask_grad", "mask_samples", "running_mean",
                               "running_var")):
                assert_allclose(after[k], v, rtol=0, atol=0, equal_nan=True)
