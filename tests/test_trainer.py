"""Pipeline orchestration: anchoring, joint strategy steps, stage plumbing."""

import dataclasses
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.checkpoint import load_checkpoint, save_checkpoint
from maskprune.cli import main
from maskprune.config import ExperimentConfig, config_text
from maskprune.data import Dataset, batches, generate_digits, synthetic_dataset, write_idx
from maskprune.errors import (
    CheckpointError,
    ConfigError,
    ConvergenceError,
    NumericalError,
    ShapeError,
)
from maskprune.influence import (
    BINARY_CUTOFF,
    ChannelScorer,
    InfluenceMap,
    StrategyState,
    binarize,
    scaled_sigmoid,
)
from maskprune.metrics import count_flops
from maskprune.models import Model, build_model
from maskprune.pruning import SharpnessSchedule, build_plan, lambda_value
from maskprune.trainer import (
    RUN_FIELDS,
    STATE_FORMAT,
    LayerAnneal,
    Phase,
    StrategyMonitor,
    Trainer,
    anchor_center,
    load_datasets,
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
            # the centre splits the scores where the target does ...
            soft = scaled_sigmoid(200.0, scores, c)
            assert np.array_equal((soft >= 0.5).astype(np.int64), target)
            # ... so once the sharpness saturates the gap around it, the
            # pipeline's binarization at BINARY_CUTOFF gives the target too
            gap = scores[order[k]] - scores[order[k - 1]]
            saturating = 2.0 * (np.log(1.0 / BINARY_CUTOFF) + 1.0) / gap
            assert np.array_equal(binarize(scaled_sigmoid(saturating, scores, c)), target)


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
    state = StrategyState("planted", np.full(n, 0.5), target=target)
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


    def test_binary_soft_ignores_the_gate_gradient(self):
        # soft * (1 - soft) is 0 at every entry of a 0/1 vector, so a layer
        # under a binary gate may hand strategy_step None for its gate_grad
        runs = []
        for extra in (None, np.random.default_rng(4).normal(size=10)):
            vals, scorer, state = planted_setup(seed=5)
            schedule = SharpnessSchedule(1.0, 10.0, 50)
            for _ in range(2):  # soft steps first, so the velocities are non-zero
                score_strategy(scorer, state, schedule.value(), vals)
                strategy_step(scorer, state, schedule, vals, extra_grad_soft=np.full(10, 0.3))
            state.soft = (np.arange(10) % 3 != 0).astype(np.float64)
            for _ in range(3):
                strategy_step(scorer, state, schedule, vals, extra_grad_soft=extra)
            runs.append([scorer.kernel.data, scorer.bias.data, scorer.kernel.velocity,
                         scorer.bias.velocity])
        assert runs[0][2].any() and runs[0][3].any()
        for a, b in zip(*runs):
            assert a.tobytes() == b.tobytes()


class TestStrategyMonitor:
    def _state(self, soft):
        soft = np.asarray(soft, dtype=np.float64)
        return StrategyState("m", soft, target=np.array([1, 0]))

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

    def observed(self, softs, target, window=3, delta_bin=0.01):
        """What a fresh monitor answers for each soft vector in turn."""
        monitor = StrategyMonitor(window=window, delta_bin=delta_bin)
        schedule = SharpnessSchedule(1.0, 2.0, 1000)
        state = StrategyState("m", np.asarray(softs[0], dtype=np.float64),
                              target=np.asarray(target))
        out = []
        for soft in softs:
            state.soft = np.asarray(soft, dtype=np.float64)
            out.append(monitor.observe(state, schedule))
        return out

    def test_a_soft_entry_blocks_the_window(self):
        assert self.observed([[0.999, 0.2]] * 5, target=[1, 1]) == [False] * 5

    def test_a_pattern_flip_restarts_the_window(self):
        # the keep pattern is read at the binarization cutoff, so the flip has
        # to cross it to count as instability
        a, b = [0.999, 1e-9], [1e-9, 0.999]
        assert self.observed([a, b, a, a, a], target=[1, 0]) == [False] * 4 + [True]

    def test_a_soft_snapshot_restarts_the_window(self):
        a, soft = [0.999, 1e-9], [0.999, 0.2]
        assert self.observed([a, a, soft, a, a, a], target=[1, 0]) == [False] * 5 + [True]

    def test_delta_bin_boundary(self):
        edge = [0.9901, 0.0099]   # just inside delta_bin, binarizes as kept
        assert self.observed([edge] * 3, target=[1, 1]) == [False, False, True]
        over = [0.989, 0.011]
        assert self.observed([over] * 3, target=[1, 1]) == [False] * 3

    def test_a_target_refresh_mid_window_keeps_the_window_seen(self):
        """The window counts snapshots, not targets: a pattern settled for two
        snapshots meets a refreshed target on the third."""
        monitor = StrategyMonitor(window=3)
        schedule = SharpnessSchedule(1.0, 2.0, 1000)
        state = StrategyState("m", np.array([1 - 1e-9, 1e-9]), target=np.array([0, 1]))
        assert not monitor.observe(state, schedule)
        assert not monitor.observe(state, schedule)
        state.target = np.array([1, 0])
        assert monitor.observe(state, schedule)

    def test_matches_the_window_rule_over_random_snapshots(self):
        """Settled means: the last ``window`` snapshots are within delta_bin of
        0 or 1 and share one hard pattern, and that pattern is the target."""

        def window_rule(history, target, window, delta_bin):
            recent = history[-window:]
            return (len(history) >= window
                    and all(np.minimum(s, 1 - s).max() <= delta_bin for s in recent)
                    and all(np.array_equal(binarize(s), binarize(recent[0])) for s in recent)
                    and np.array_equal(binarize(recent[-1]), target))

        rng = np.random.default_rng(0)
        levels = np.array([1e-9, 5e-3, 0.2, 0.8, 1 - 5e-3, 1 - 1e-9])
        settled = 0
        for window in (1, 2, 3, 4):
            monitor = StrategyMonitor(window=window, delta_bin=0.01)
            schedule = SharpnessSchedule(1.0, 2.0, 1000)
            state = StrategyState("m", np.full(3, 0.5), target=np.array([1, 0, 1]))
            history = []
            for _ in range(400):
                # mostly-binary snapshots over few patterns, so windows do fill
                state.soft = levels[rng.choice([0, 1, 4, 5], size=3)]
                if rng.random() < 0.2:
                    state.soft[rng.integers(3)] = levels[rng.integers(2, 4)]
                if rng.random() < 0.5:
                    state.soft = history[-1].copy() if history else state.soft
                if rng.random() < 0.1:
                    state.target = rng.integers(0, 2, size=3)
                history.append(state.soft.copy())
                want = window_rule(history, state.target, window, 0.01)
                assert monitor.observe(state, schedule) == want
                settled += want
        assert settled > 20


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


def measured_checkpoint(cfg, tmp_path):
    """Run ``cfg`` through the measure stage; return the checkpoint path and
    its loaded meta and arrays."""
    trainer = make_trainer(cfg)
    trainer.run(until="measure")
    path = trainer.save(tmp_path / "current.ckpt")
    return (path, *load_checkpoint(path))


def assert_same_arrays(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].dtype == b[k].dtype and a[k].shape == b[k].shape, k
        assert a[k].tobytes() == b[k].tobytes(), k


def assert_resumes_the_same(cfg, path, other_path):
    """Both checkpoints load the same state and resume through
    ``prune:conv1`` to the same state, maps and epoch, byte for byte."""
    runs = []
    for p in (path, other_path):
        other = make_trainer(cfg)
        other.load(p)
        loaded = {k: v.copy() for k, v in other.model.state_arrays().items()}
        other.run(until="prune:conv1")
        runs.append((loaded, other))
    (loaded_a, a), (loaded_b, b) = runs
    assert_same_arrays(loaded_a, loaded_b)
    assert a.strategies["conv1"].status == "frozen"
    assert_same_arrays(a.model.state_arrays(), b.model.state_arrays())
    assert_same_arrays({n: m.values for n, m in a.maps.items()},
                       {n: m.values for n, m in b.maps.items()})
    assert a.global_epoch == b.global_epoch


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

    def test_zero_prune_epochs_is_refused_before_any_file(self, tmp_path):
        cfg = ExperimentConfig(prune_epochs=0, out_dir=str(tmp_path / "run"))
        with pytest.raises(ConfigError, match="prune_epochs must be >= 1, got 0"):
            run_pipeline(cfg)
        assert not (tmp_path / "run").exists()

    def test_phase_requires_an_epoch(self):
        with pytest.raises(ConfigError):
            Phase("baseline", None, 0)


def refreshed_target(trainer, running, target):
    """conv1's target after a refresh whose fresh capture equals ``running``
    (one value per channel), starting from ``target``."""
    layer = trainer.prunable["conv1"].layer
    values = np.broadcast_to(running.reshape(8, 1, 1, 1), layer.weight.shape).copy()
    state = StrategyState("conv1", np.full(8, 0.5), target=target)
    anneal = LayerAnneal(state, layer, InfluenceMap("conv1", values, 1), 1,
                         trainer.steps_per_epoch())
    anneal.influence.total[:] = values
    anneal.influence.samples = 1
    merged = anneal.refresh(InfluenceMap("conv1", values.copy(), 1))
    assert merged.samples == 2 and anneal.influence.samples == 0
    assert_allclose(merged.values, values, rtol=1e-15)
    assert np.array_equal(anneal.map_in, np.abs(merged.values))
    return state.target


class TestTargetRefresh:
    def test_removal_budget_is_preserved(self, tmp_path):
        trainer = make_trainer(quick_config(tmp_path))
        start = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        plan = build_plan({"conv1": start}, rate=0.25)
        assert_allclose(plan.targets["conv1"], [0, 0, 1, 1, 1, 1, 1, 1])
        # drift: channels 6 and 7 are now the weakest
        drifted = np.array([5.0, 6.0, 7.0, 8.0, 3.0, 4.0, 1.0, 2.0])
        new = refreshed_target(trainer, drifted, plan.targets["conv1"])
        assert int((new == 0).sum()) == 2
        assert_allclose(new, [1, 1, 1, 1, 1, 1, 0, 0])
        # re-ranked in place: the plan shares the target array and follows it
        assert new is plan.targets["conv1"]

    def test_ties_drop_lower_index_first(self, tmp_path):
        trainer = make_trainer(quick_config(tmp_path))
        plan = build_plan({"conv1": np.arange(8.0)}, rate=0.25)
        new = refreshed_target(trainer, np.full(8, 2.0), plan.targets["conv1"])
        assert_allclose(new, [0, 0, 1, 1, 1, 1, 1, 1])

    def test_the_count_is_the_current_targets(self, tmp_path):
        # nothing reads the plan: the count comes from the target itself,
        # including a target that drops nothing
        trainer = make_trainer(quick_config(tmp_path))
        drifted = np.array([5.0, 6.0, 7.0, 8.0, 3.0, 4.0, 1.0, 2.0])
        assert_allclose(refreshed_target(trainer, drifted, np.array([0, 0, 0, 1, 1, 1, 1, 1])),
                        [1, 1, 1, 1, 0, 1, 0, 0])
        assert_allclose(refreshed_target(trainer, drifted, np.ones(8, dtype=np.int64)),
                        np.ones(8))


class TestResumedPlan:
    def test_a_resume_past_a_swapping_refresh_holds_the_straight_plan(self, tmp_path):
        """At this seed conv1's refresh swaps its keep set.  Each strategy's
        target is the plan's array, in a straight run and after a load, so a
        trainer resumed past the swap holds the straight run's plan."""
        cfg = quick_config(tmp_path, rate=0.25, prune_epochs=2, max_prune_epochs=6,
                           finetune_epochs=1)
        _, straight = run_pipeline(cfg)
        _, measured = load_checkpoint(Path(cfg.out_dir) / "checkpoint-measure.ckpt")
        assert not np.array_equal(measured["strategy.conv1.target"],
                                  straight.strategies["conv1"].target)
        for stage in ("prune-conv1", "finetune"):
            resumed = make_trainer(cfg)
            resumed.load(Path(cfg.out_dir) / f"checkpoint-{stage}.ckpt")
            assert (resumed.plan.rate, resumed.plan.threshold) == (straight.plan.rate,
                                                                   straight.plan.threshold)
            assert_same_arrays(resumed.plan.targets, straight.plan.targets)
            for t in (straight, resumed):
                assert all(t.plan.targets[n] is s.target for n, s in t.strategies.items())


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

    def test_lenet_run_compacts_through_its_flatten_block(self, tmp_path):
        """lenet at lr 0.01 converges to its plan, and the run narrows fc1's
        input through the flatten block; the report's compacted copy gives
        the trained model's logits and cost."""
        from tests.test_models import dense_eval

        cfg = ExperimentConfig(model="lenet", dataset="synthetic", synthetic_train=1000,
                               synthetic_test=256, batch_size=64, baseline_epochs=2,
                               lr=0.01, seed=0, out_dir=str(tmp_path / "run")).validate()
        report, trainer = run_pipeline(cfg)
        plan = trainer.plan
        for name, state in trainer.strategies.items():
            assert state.status in ("frozen", "skipped"), name
            assert state.kept == int(plan.targets[name].sum()), name
        assert report.rate_actual == 1.0 - plan.kept_channels / plan.total_channels
        assert report.rate_actual > 0.0
        assert {n: (s.kept, s.target.size) for n, s in trainer.strategies.items()} == {
            "conv1": (6, 6), "conv2": (8, 16), "fc1": (66, 120), "fc2": (55, 84)}
        # the trained model itself is narrowed, through the flatten block too
        kept_conv2 = trainer.strategies["conv2"].kept
        assert trainer.model.blocks[3].linear.in_channels == kept_conv2 * 5 * 5
        assert [ref.layer.out_channels for ref in trainer.model.prunable()] == [6, 8, 66, 55]
        for x, _ in batches(trainer.test_ds, 128, 0, cfg.seed, train=False):
            assert_allclose(dense_eval(trainer.model, x),
                            trainer.compacted.forward(x, train=False), rtol=0, atol=1e-5)
        assert count_flops(trainer.model) == count_flops(trainer.compacted)

    def test_evaluate_is_deterministic(self, tmp_path):
        cfg = quick_config(tmp_path, baseline_epochs=1)
        trainer = make_trainer(cfg)
        trainer.run(until="baseline")
        assert trainer.evaluate() == trainer.evaluate()

    def test_evaluate_compacts_a_hand_gated_model_once(self, tmp_path, monkeypatch):
        """The ``eval`` path for a hard-gated model: one compaction serves
        every batch of the test split."""
        from tests.test_models import frozen_strategies, random_keep

        cfg = quick_config(tmp_path, eval_batch=16)
        trainer = make_trainer(cfg)
        trainer.run(until="baseline")
        keep = random_keep(trainer.model, np.random.default_rng(0))
        frozen_strategies(trainer.model, keep)
        calls = []
        real = Model.compact
        monkeypatch.setattr(Model, "compact", lambda m, k: calls.append(k) or real(m, k))
        acc = trainer.evaluate()
        assert len(calls) == 1 and cfg.synthetic_test > 2 * cfg.eval_batch
        assert acc == trainer.evaluate(real(trainer.model, keep))
        assert trainer.evaluate() == acc and len(calls) == 1

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

    def test_prune_stage_folds_the_active_layers_influence_into_its_map(self, tmp_path):
        """Between anneal windows the influence summed over the epoch's steps
        is folded into the active layer's map; no other map moves."""
        trainer = make_trainer(quick_config(tmp_path, rate=0.25, prune_epochs=2))
        trainer.run(until="measure")
        before = {n: (m.samples, m.values.copy()) for n, m in trainer.maps.items()}
        trainer.run(until="prune:conv1")
        epoch = trainer.steps_per_epoch() * trainer.cfg.batch_size
        for name, m in trainer.maps.items():
            samples, values = before[name]
            moved = name == "conv1"
            assert m.samples == samples + (epoch if moved else 0), name
            assert np.array_equal(m.values, values) != moved, name

    def test_state_with_old_influence_sums_loads_and_resumes_the_same(self, tmp_path):
        """Arrays the model lacks are ignored on load: a state that also holds
        every masked layer's mask-gradient sum (``<layer>.mask_grad`` and
        ``<layer>.mask_samples``, as format 1 once did) loads and resumes byte
        for byte like the same one without them."""
        cfg = quick_config(tmp_path, rate=0.25)
        path, meta, arrays = measured_checkpoint(cfg, tmp_path)
        rng = np.random.default_rng(0)
        old = dict(arrays)
        for key in arrays:
            if key.endswith(".gate"):
                layer = key[:-len(".gate")]
                old[f"{layer}.mask_grad"] = rng.normal(size=arrays[f"{layer}.weight"].shape)
                old[f"{layer}.mask_samples"] = np.array(224.0)
        assert len(old) > len(arrays)
        old_path = save_checkpoint(tmp_path / "old.ckpt", meta, old)
        assert_resumes_the_same(cfg, path, old_path)

    def test_config_with_removed_keys_is_refused_naming_them(self, tmp_path):
        """A stored config holding keys of settings now fixed in code, even at
        the values in force, is refused by name; the trainer is untouched."""
        from tests.test_config import REMOVED_KEYS

        cfg = quick_config(tmp_path, rate=0.25)
        path, meta, arrays = measured_checkpoint(cfg, tmp_path)
        meta["config"].update(REMOVED_KEYS)
        old_path = save_checkpoint(tmp_path / "old.ckpt", meta, arrays)
        other = make_trainer(cfg)
        with pytest.raises(ConfigError, match="unknown configuration key.*ema_decay.*"
                                              "influence_mode.*stall_boost"):
            other.load(old_path)
        assert other.completed == [] and other.maps == {} and other.strategies == {}

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


class TestOneWayToRun:
    def test_from_config_is_a_built_and_loaded_trainer(self, narrowed_run, tmp_path):
        cfg = narrowed_config(tmp_path)
        path = Path(narrowed_run[0].out_dir) / "checkpoint-prune-conv2.ckpt"
        built = make_trainer(cfg)
        built.load(path)
        opened = Trainer.from_config(cfg, path)
        assert_same_arrays(opened.model.state_arrays(), built.model.state_arrays())
        assert_same_arrays({n: m.values for n, m in opened.maps.items()},
                           {n: m.values for n, m in built.maps.items()})
        assert ({n: m.samples for n, m in opened.maps.items()}
                == {n: m.samples for n, m in built.maps.items()})
        for t in (opened, built):
            assert all(t.plan.targets[n] is s.target for n, s in t.strategies.items())
        assert_same_arrays({n: s.soft for n, s in opened.strategies.items()},
                           {n: s.soft for n, s in built.strategies.items()})
        assert_same_arrays(opened.plan.targets, built.plan.targets)
        assert ({n: s.status for n, s in opened.strategies.items()}
                == {n: s.status for n, s in built.strategies.items()})
        assert (opened.plan.rate, opened.plan.threshold) == (built.plan.rate,
                                                             built.plan.threshold)
        assert (opened.completed, opened.global_epoch, opened.metrics) == (
            built.completed, built.global_epoch, built.metrics)
        assert_same_arrays(Trainer.from_config(cfg).model.state_arrays(),
                           make_trainer(cfg).model.state_arrays())

    def test_finish_refuses_a_run_with_stages_left(self, narrowed_run, tmp_path):
        cfg = narrowed_config(tmp_path)
        trainer = Trainer.from_config(
            cfg, Path(narrowed_run[0].out_dir) / "checkpoint-measure.ckpt")
        with pytest.raises(ConfigError, match="^run is not complete; remaining stages: "
                                              "prune:conv1, prune:conv2, prune:conv3, "
                                              "prune:conv4, finetune$"):
            trainer.finish()
        assert not hasattr(trainer, "compacted") and "compact" not in trainer.phase_seconds
        assert not Path(cfg.out_dir).exists()

    def test_the_effective_config_is_written_once_per_run(self, tmp_path, monkeypatch):
        import maskprune.trainer as trainer_module

        written = []
        real = trainer_module.write_effective_config
        monkeypatch.setattr(trainer_module, "write_effective_config",
                            lambda cfg, out: written.append(out) or real(cfg, out))
        cfg = quick_config(tmp_path)
        trainer = Trainer.from_config(cfg)
        assert written == []
        trainer.run(until="baseline")
        trainer.run(until="measure")
        assert written == [trainer.out_dir] * 2
        run_pipeline(quick_config(tmp_path, out_dir=str(tmp_path / "whole")))
        assert written[2:] == [tmp_path / "whole"]
        path = Path(cfg.out_dir) / "effective-config.txt"
        assert path.read_text() == config_text(cfg)

    @pytest.mark.parametrize("over,until", [({}, "prune:conv9"), ({}, "prune"),
                                            ({"baseline_epochs": 0}, "baseline"),
                                            ({}, "finetune")],
                             ids=["no-such-layer", "kind-alone", "zero-baseline",
                                  "zero-finetune"])
    def test_an_until_the_run_lacks_is_refused_before_anything_is_written(
            self, tmp_path, over, until):
        cfg = quick_config(tmp_path, **over)
        trainer = make_trainer(cfg)
        stages = ", ".join(p.stage_id for p in trainer.phases())
        with pytest.raises(ConfigError, match=f"^no stage '{until}' in this run; "
                                              f"its stages are {stages}$"):
            trainer.run(until=until)
        assert trainer.completed == [] and trainer.global_epoch == 0
        assert not Path(cfg.out_dir).exists()

    def test_an_until_already_completed_runs_nothing(self, narrowed_run, tmp_path):
        cfg = narrowed_config(tmp_path)
        trainer = Trainer.from_config(
            cfg, Path(narrowed_run[0].out_dir) / "checkpoint-measure.ckpt")
        epoch = trainer.global_epoch
        trainer.run(until="baseline")
        assert trainer.completed == ["baseline", "measure"]
        assert trainer.global_epoch == epoch
        assert not list(Path(cfg.out_dir).glob("*.ckpt"))


#: config fields a resume may change, besides RUN_FIELDS: where the run writes,
#: how often it logs, and the schedule of the stages still to run
MAY_DIFFER_ON_RESUME = {"out_dir", "log_every", "eval_batch", "lr", "baseline_epochs",
                        "prune_epochs", "max_prune_epochs", "finetune_epochs", "prune_lr",
                        "finetune_lr"}


def test_every_config_field_is_a_run_field_or_may_differ_on_resume():
    """A new field must be classified: in RUN_FIELDS, or added here."""
    assert not MAY_DIFFER_ON_RESUME & set(RUN_FIELDS)
    assert sorted(MAY_DIFFER_ON_RESUME | set(RUN_FIELDS)) == sorted(
        f.name for f in dataclasses.fields(ExperimentConfig))
    assert len(RUN_FIELDS) == len(set(RUN_FIELDS))


class TestStateFormat:
    def test_a_saved_state_carries_the_format(self, tmp_path):
        _, meta, _ = measured_checkpoint(quick_config(tmp_path, rate=0.25), tmp_path)
        assert meta["state_format"] == STATE_FORMAT == 2

    @pytest.mark.parametrize("stored", [None, 1, 3], ids=["unnumbered", "1", "3"])
    def test_another_format_is_refused_naming_both(self, tmp_path, stored):
        """Checked before the config or any array: the loading trainer keeps
        its model, maps and strategies."""
        cfg = quick_config(tmp_path, rate=0.25)
        path, meta, arrays = measured_checkpoint(cfg, tmp_path)
        del meta["state_format"]
        if stored is not None:
            meta["state_format"] = stored
        meta["config"]["ema_decay"] = 0.9   # would be refused, but is never read
        other_path = save_checkpoint(tmp_path / "other.ckpt", meta, arrays)
        trainer = make_trainer(cfg)
        trainer.load(path)
        model = {k: v.copy() for k, v in trainer.model.state_arrays().items()}
        maps, strategies = trainer.maps, trainer.strategies
        with pytest.raises(CheckpointError,
                           match=rf"trainer state format {stored or 1}; this version "
                                 rf"reads format 2 only"):
            trainer.load(other_path)
        assert_same_arrays(trainer.model.state_arrays(), model)
        assert trainer.maps is maps and trainer.strategies is strategies
        assert trainer.completed == ["baseline", "measure"]


class TestNonFiniteGuard:
    @pytest.mark.parametrize("until,stage", [(None, "baseline"), ("baseline", "measure"),
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
        # the failing stage writes no checkpoint: a measure pass that fails
        # builds no plan
        assert not (Path(cfg.out_dir) / f"checkpoint-{stage.replace(':', '-')}.ckpt").exists()
        assert stage != "measure" or (trainer.plan is None and trainer.maps == {})
        after = trainer.model.state_arrays()
        for k, v in before.items():
            # gates take the soft keep vector before the forward pass; the
            # running statistics are not weights
            if not k.endswith(("gate", "running_mean", "running_var")):
                assert_allclose(after[k], v, rtol=0, atol=0, equal_nan=True)


    @pytest.mark.parametrize("stage", ["baseline", "prune:conv1"])
    def test_a_non_finite_gradient_stops_before_any_update(self, tmp_path, monkeypatch,
                                                           stage):
        """The loss stays finite: in the baseline the classifier sends NaN to
        every layer below it; in a prune stage only the active gate's
        gradient is NaN."""
        cfg = quick_config(tmp_path, rate=0.25)
        trainer = make_trainer(cfg)
        if stage != "baseline":
            trainer.run(until="measure")
        epoch = trainer.global_epoch
        if stage == "baseline":
            block = trainer.model.blocks[-1]
            real = block.backward
            monkeypatch.setattr(block, "backward",
                                lambda g, input_grad=True: real(g, input_grad) * np.nan)
        else:
            layer = trainer.prunable["conv1"].layer
            real = layer.gate_backward

            def nan_gate_grad(g):
                out = real(g)
                layer.gate_grad = layer.gate_grad * np.nan
                return out
            monkeypatch.setattr(layer, "gate_backward", nan_gate_grad)
        before = {k: v.copy() for k, v in trainer.model.state_arrays().items()}
        with pytest.raises(NumericalError, match=rf"non-finite gradient in stage {stage}, "
                                                 rf"epoch {epoch}, step 0; no update was "
                                                 rf"applied"):
            trainer.run()
        assert not (Path(cfg.out_dir) / f"checkpoint-{stage.replace(':', '-')}.ckpt").exists()
        after = trainer.model.state_arrays()
        for k, v in before.items():
            if not k.endswith(("gate", "running_mean", "running_var")):
                assert after[k].tobytes() == v.tobytes(), k


#: per architecture, a prunable layer and the next one, which reads it (through
#: a max-pool, a flatten block, or a residual stream it does not narrow)
NARROWED_NEXT = {"tiny-cnn": ("conv1", "conv2"), "lenet": ("conv2", "fc1"),
                 "vgg16": ("conv2", "conv3"), "resnet56": ("res1.conv1", "res2.conv1")}


def twin_trainers(arch, tmp_path, seed=0):
    """Two trainers over identical models of ``arch`` after one baseline step
    (so every parameter has a velocity), with one probe batch."""
    from tests.test_models import ARCH_INPUTS

    in_ch, hw = ARCH_INPUTS[arch]
    rng = np.random.default_rng(seed)
    ds = Dataset("probe", rng.random((8, in_ch, hw, hw)), rng.integers(0, 10, 8),
                 np.full(in_ch, 0.5), np.full(in_ch, 0.25))
    cfg = ExperimentConfig(model=arch, batch_size=4, seed=seed, out_dir=str(tmp_path))
    x, y = ds.images[:4], ds.labels[:4]
    twins = []
    for _ in range(2):
        trainer = Trainer(cfg, build_model(arch, in_ch, hw, 10, seed), ds, ds)
        trainer.train_step(x, y, None, cfg.lr)
        twins.append(trainer)
    return twins, x, y


class TestNarrowedTraining:
    """A frozen layer's closed channels carry only zeros, so the narrowed
    model takes the gated dense model's steps."""

    @pytest.mark.parametrize("arch", list(NARROWED_NEXT))
    def test_a_prune_step_matches_the_gated_dense_model(self, arch, tmp_path):
        frozen, active = NARROWED_NEXT[arch]
        (dense, narrow), x, y = twin_trainers(arch, tmp_path)
        rng = np.random.default_rng(1)
        width = dense.prunable[frozen].layer.out_channels
        keep = np.zeros(width, dtype=np.int64)
        keep[rng.choice(width, size=int(rng.integers(1, width)), replace=False)] = 1
        full = dense.prunable[active].layer.weight.shape
        infl = np.abs(rng.normal(size=full))
        for t in (dense, narrow):
            for name, ref in t.prunable.items():
                w = ref.layer.out_channels
                t.strategies[name] = StrategyState(name, np.full(w, 0.5),
                                                   target=np.ones(w, dtype=np.int64))
            t.strategies[frozen].soft = keep.astype(np.float64)
            t.strategies[frozen].status = "frozen"
            t.strategies[active].target[: full[0] // 3] = 0
            t.prunable[frozen].layer.gate[:] = keep
            t.maps[active] = InfluenceMap(active, infl.copy(), 8)
        cols = narrow.model.narrow({frozen: keep.astype(bool)}).get(active)
        assert narrow.prunable[frozen].layer.out_channels == keep.sum()
        steps, maps = [], []
        for t, in_cols in ((dense, None), (narrow, cols)):
            anneal = LayerAnneal(t.strategies[active], t.prunable[active].layer, t.maps[active],
                                 1, t.steps_per_epoch(), in_cols)
            steps.append(t.train_step(x, y, anneal, t.cfg.prune_lr))
            maps.append(anneal.capture())
        assert abs(steps[0].loss_total - steps[1].loss_total) <= 1e-12
        assert abs(steps[0].loss_classification - steps[1].loss_classification) <= 1e-12
        if arch == "resnet56":
            assert cols is None        # the next block reads the whole stream
        else:
            assert cols is not None and not cols.all()
            assert narrow.prunable[active].layer.weight.shape[1] == cols.sum()
            for m in maps:
                assert np.all(m.values[:, ~cols] == 0.0)
        assert maps[1].values.shape == full
        assert_allclose(maps[1].values, maps[0].values, rtol=0, atol=1e-12)
        # the dense model's open channels, sliced after its step
        dense.model.narrow({frozen: keep.astype(bool)})
        got, want = narrow.model.state_arrays(), dense.model.state_arrays()
        assert got.keys() == want.keys()
        assert any(k.endswith(".velocity") for k in got)
        assert any(k.endswith(".running_var") for k in got) == (arch != "lenet")
        for key in want:
            assert got[key].shape == want[key].shape, key
            assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)


def narrowed_config(tmp_path):
    return quick_config(tmp_path, rate=0.25, seed=11, max_prune_epochs=6, finetune_epochs=1)


@pytest.fixture(scope="module")
def narrowed_run(tmp_path_factory):
    """A quick tiny-cnn run at rate 0.25, every stage checkpointed."""
    tmp_path = tmp_path_factory.mktemp("narrowed")
    cfg = narrowed_config(tmp_path)
    report, trainer = run_pipeline(cfg)
    return cfg, report, trainer, tmp_path


def prune_checkpoints(cfg) -> list:
    return sorted(Path(cfg.out_dir).glob("checkpoint-prune-*.ckpt"))


def full_width_state(cfg, path, numbered=True):
    """The conv1 prune-stage checkpoint with its model arrays at full
    width, as format 1 held them; without the format number if not
    ``numbered``."""
    meta, arrays = load_checkpoint(Path(cfg.out_dir) / "checkpoint-prune-conv1.ckpt")
    _, measured = load_checkpoint(Path(cfg.out_dir) / "checkpoint-measure.ckpt")
    model_keys = make_trainer(cfg).model.state_arrays().keys()
    old = dict(arrays, **{k: measured[k] for k in measured
                          if k.split(".velocity")[0] in model_keys})
    if not numbered:
        del meta["state_format"]
    return save_checkpoint(path, meta, old)


class TestNarrowedCheckpoints:
    def test_every_frozen_layer_is_narrowed(self, narrowed_run):
        cfg, report, trainer, _ = narrowed_run
        widths = [ref.layer.out_channels for ref in trainer.model.prunable()]
        assert widths == [s.kept for s in trainer.strategies.values()]
        assert sum(widths) < 80 and report.rate_actual > 0.0
        assert count_flops(trainer.model) == count_flops(trainer.compacted)

    def test_resuming_from_each_prune_stage_is_bit_identical(self, narrowed_run, tmp_path):
        cfg, report, trainer, _ = narrowed_run
        _, final = load_checkpoint(Path(cfg.out_dir) / "checkpoint-final.ckpt")
        stages = prune_checkpoints(cfg)
        assert [p.name for p in stages] == [f"checkpoint-prune-conv{i}.ckpt" for i in (1, 2, 3, 4)]
        for path in stages:
            resumed_cfg = narrowed_config(tmp_path / path.stem)
            resumed, _ = run_pipeline(resumed_cfg, resume_from=path)
            assert resumed.comparable() == report.comparable(), path.name
            _, arrays = load_checkpoint(Path(resumed_cfg.out_dir) / "checkpoint-final.ckpt")
            assert_same_arrays(arrays, final)

    def test_a_narrowed_checkpoint_loads_without_drawing(self, narrowed_run, monkeypatch):
        from tests.test_models import count_draws

        cfg = narrowed_run[0]
        path = Path(cfg.out_dir) / "checkpoint-prune-conv2.ckpt"
        _, arrays = load_checkpoint(path)
        fresh = make_trainer(cfg)
        made = count_draws(monkeypatch)
        fresh.load(path)
        assert made == []
        state = fresh.model.state_arrays()
        assert_same_arrays(state, {k: arrays[k] for k in state})
        assert fresh.prunable["conv2"].layer.out_channels == fresh.strategies["conv2"].kept

    def test_an_unnumbered_full_width_state_is_refused_by_its_format(self, narrowed_run,
                                                                     tmp_path):
        cfg = narrowed_run[0]
        path = full_width_state(cfg, tmp_path / "old.ckpt", numbered=False)
        fresh = make_trainer(cfg)
        blocks = list(fresh.model.blocks)
        with pytest.raises(CheckpointError, match="trainer state format 1; this version "
                                                  "reads format 2 only"):
            fresh.load(path)
        assert all(a is b for a, b in zip(fresh.model.blocks, blocks))
        assert fresh.completed == [] and fresh._in_cols == {}

    def test_a_full_width_state_with_a_frozen_layer_is_refused(self, narrowed_run,
                                                               tmp_path):
        """Format 1 held every layer at full width behind its gates; such
        arrays under format 2 are refused by the first one that does not fit,
        and the model is untouched."""
        cfg = narrowed_run[0]
        path = full_width_state(cfg, tmp_path / "old.ckpt")
        fresh = make_trainer(cfg)
        blocks = list(fresh.model.blocks)
        with pytest.raises(ShapeError, match="state array conv1.conv.weight has shape"):
            fresh.load(path)
        assert all(a is b for a, b in zip(fresh.model.blocks, blocks))
        assert fresh.prunable["conv1"].layer is blocks[0].conv
        assert fresh.completed == [] and fresh._in_cols == {}


def with_retired_state(path, out, rng, **config):
    """``path``'s state plus what earlier versions also wrote: every
    strategy's hard pattern, a scorer per started layer, every sigmoid centre,
    the model's input shape and classes, and ``config`` in the stored config."""
    meta, arrays = load_checkpoint(path)
    old = dict(arrays)
    for key, soft in arrays.items():
        if key.startswith("strategy.") and key.endswith(".soft"):
            name = key[len("strategy."):-len(".soft")]
            old[f"strategy.{name}.hard"] = binarize(soft)
            if meta["strategy_meta"][name]["status"] != "pending":
                slab = arrays[f"map.{name}.values"].shape[1:]
                old[f"scorer.{name}.kernel"] = rng.normal(size=slab)
                old[f"scorer.{name}.bias"] = rng.normal(size=1)
            meta["strategy_meta"][name]["center"] = float(rng.normal())
    meta.update(input_shape=[1, 28, 28], classes=10)
    meta["config"].update(config)
    return save_checkpoint(out, meta, old)


#: config keys earlier versions wrote for settings now fixed in code, at the
#: values they are fixed at
FIXED_SETTINGS = dict(delta_bin=0.01, window=3, anneal_start=0.01, anneal_end_factor=100.0,
                      momentum=0.9, weight_decay=5e-4, lr_decay=0.1, lr_milestones=[0.5, 0.75])


class TestStageLifetime:
    def test_nothing_of_a_prune_stage_outlives_it(self, narrowed_run, tmp_path,
                                                   monkeypatch):
        """The layer conv4's stage trains is replaced when that stage narrows
        it; once the run is over nothing holds it or the stage's anneal (its
        influence sum, scorer, schedule and monitor), and the trainer keeps
        no anneal attribute."""
        built, build = [], LayerAnneal.__init__

        def record(anneal, *args):
            build(anneal, *args)
            built.append(weakref.ref(anneal))
        monkeypatch.setattr(LayerAnneal, "__init__", record)
        cfg = narrowed_config(tmp_path)
        trainer = make_trainer(cfg)
        trainer.load(Path(narrowed_run[0].out_dir) / "checkpoint-prune-conv3.ckpt")
        stage_layer = weakref.ref(trainer.prunable["conv4"].layer)
        trainer.run()
        trainer.finish()
        trainer.save(Path(cfg.out_dir) / "checkpoint-final.ckpt")
        gc.collect()
        assert trainer.prunable["conv4"].layer.out_channels < 32
        assert stage_layer() is None
        assert len(built) == 1 and built[0]() is None
        assert not [a for a in ("_schedule", "_scorer", "_scorer_lr", "_influence", "_map_in")
                    if hasattr(trainer, a)]


class TestRetiredState:
    def test_a_state_holds_only_what_a_load_reads(self, narrowed_run):
        cfg = narrowed_run[0]
        meta, arrays = load_checkpoint(Path(cfg.out_dir) / "checkpoint-prune-conv2.ckpt")
        assert not [k for k in arrays if k.endswith(".hard") or k.startswith("scorer.")]
        assert {k for k in arrays if k.startswith("strategy.")} == {
            f"strategy.conv{i}.{part}" for i in (1, 2, 3, 4) for part in ("soft", "target")}
        assert "input_shape" not in meta and "classes" not in meta
        assert all(set(m) == {"status"} for m in meta["strategy_meta"].values())
        assert set(meta["config"]) == set(cfg.to_dict())

    @pytest.mark.parametrize("stage", ["measure", "prune-conv1", "prune-conv3"])
    def test_a_state_with_retired_arrays_and_meta_resumes_the_same(self, narrowed_run,
                                                                   tmp_path, stage):
        """States written before the hard patterns, scorers, centres and the
        two data limits went still resume to the straight run's report and
        final arrays."""
        cfg, report, _, _ = narrowed_run
        _, final = load_checkpoint(Path(cfg.out_dir) / "checkpoint-final.ckpt")
        old = with_retired_state(Path(cfg.out_dir) / f"checkpoint-{stage}.ckpt",
                                 tmp_path / "old.ckpt", np.random.default_rng(0),
                                 train_limit=0, test_limit=0)
        resumed_cfg = narrowed_config(tmp_path)
        resumed, _ = run_pipeline(resumed_cfg, resume_from=old)
        assert resumed.comparable() == report.comparable()
        _, arrays = load_checkpoint(Path(resumed_cfg.out_dir) / "checkpoint-final.ckpt")
        assert_same_arrays(arrays, final)

    def test_a_state_with_the_fixed_settings_resumes_bit_identically(self, narrowed_run,
                                                                     tmp_path):
        """A state whose config still holds the settings now fixed in code, at
        the values they are fixed at, resumes to the straight run's report and
        final arrays."""
        cfg, report, _, _ = narrowed_run
        _, final = load_checkpoint(Path(cfg.out_dir) / "checkpoint-final.ckpt")
        old = with_retired_state(Path(cfg.out_dir) / "checkpoint-prune-conv2.ckpt",
                                 tmp_path / "old.ckpt", np.random.default_rng(0),
                                 **FIXED_SETTINGS)
        resumed_cfg = narrowed_config(tmp_path)
        resumed, _ = run_pipeline(resumed_cfg, resume_from=old)
        assert resumed.comparable() == report.comparable()
        _, arrays = load_checkpoint(Path(resumed_cfg.out_dir) / "checkpoint-final.ckpt")
        assert_same_arrays(arrays, final)

    @pytest.mark.parametrize("key,value", [("momentum", 0.8), ("window", 4),
                                           ("lr_milestones", [0.5])])
    def test_a_state_with_another_fixed_value_is_refused(self, narrowed_run, tmp_path,
                                                         key, value):
        cfg = narrowed_run[0]
        old = with_retired_state(Path(cfg.out_dir) / "checkpoint-measure.ckpt",
                                 tmp_path / "old.ckpt", np.random.default_rng(0),
                                 **dict(FIXED_SETTINGS, **{key: value}))
        fresh = make_trainer(cfg)
        with pytest.raises(ConfigError, match=rf"unknown configuration key\(s\): {key}$"):
            fresh.load(old)
        assert fresh.completed == [] and fresh.strategies == {}

    def test_a_state_that_set_a_data_limit_is_refused(self, narrowed_run, tmp_path):
        cfg = narrowed_run[0]
        old = with_retired_state(Path(cfg.out_dir) / "checkpoint-measure.ckpt",
                                 tmp_path / "old.ckpt", np.random.default_rng(0),
                                 train_limit=128, test_limit=0)
        fresh = make_trainer(cfg)
        with pytest.raises(ConfigError, match=r"unknown configuration key\(s\): train_limit$"):
            fresh.load(old)
        assert fresh.completed == [] and fresh.strategies == {}


class TestConvergenceFailure:
    """At rate 0.25 the quick config runs conv2 out of its 4 prune epochs."""

    def test_run_pipeline_raises_with_the_soft_vector(self, tmp_path):
        cfg = quick_config(tmp_path, rate=0.25)
        with pytest.raises(ConvergenceError, match="layer conv2 did not reach a stable "
                                                   "binary strategy within 4 epochs") as err:
            run_pipeline(cfg)
        soft = err.value.soft_keep
        assert soft.shape == (16,) and np.all((soft >= 0) & (soft <= 1))
        assert (Path(cfg.out_dir) / "checkpoint-prune-conv1.ckpt").exists()
        assert not (Path(cfg.out_dir) / "checkpoint-prune-conv2.ckpt").exists()

    def test_finetune_command_exits_2(self, tmp_path, capsys):
        cfg = quick_config(tmp_path, rate=0.25)
        path = tmp_path / "quick.cfg"
        path.write_text(config_text(cfg))
        assert main(["finetune", "--config", str(path)]) == 2
        assert ("runtime failure: layer conv2 did not reach a stable binary strategy "
                "within 4 epochs") in capsys.readouterr().err
        assert not (Path(cfg.out_dir) / "report.json").exists()


class TestLoadDatasets:
    def test_cifar10_reads_comma_separated_files(self, tmp_path):
        from tests.test_data import write_cifar_batch

        paths = [tmp_path / f"batch{i}.bin" for i in range(3)]
        labels = [write_cifar_batch(p, n, seed=i)[0]
                  for i, (p, n) in enumerate(zip(paths, (3, 4, 2)))]
        cfg = ExperimentConfig(dataset="cifar10", train_files=f"{paths[0]}, {paths[1]},",
                               test_files=str(paths[2]), batch_size=4)
        train, test = load_datasets(cfg)
        assert (train.name, len(train), len(test)) == ("cifar10", 7, 2)
        assert train.images.shape[1:] == (3, 32, 32)
        assert train.labels.tolist() == labels[0].tolist() + labels[1].tolist()
        assert test.labels.tolist() == labels[2].tolist()

    def test_mnist_reads_idx_files(self, tmp_path):
        splits = {}
        for split, n in (("train", 12), ("test", 5)):
            images, labels = generate_digits(n, seed=n)
            splits[split] = labels, write_idx(images, labels, tmp_path / f"{split}-im.idx",
                                              tmp_path / f"{split}-lb.idx")
        cfg = ExperimentConfig(
            dataset="mnist", batch_size=4,
            train_images=str(splits["train"][1][0]), train_labels=str(splits["train"][1][1]),
            test_images=str(splits["test"][1][0]), test_labels=str(splits["test"][1][1]))
        train, test = load_datasets(cfg)
        assert (train.name, len(train), len(test)) == ("mnist", 12, 5)
        assert train.images.shape[1:] == (1, 28, 28)
        assert train.labels.tolist() == splits["train"][0].tolist()
        assert test.labels.tolist() == splits["test"][0].tolist()
