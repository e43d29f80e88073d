"""Pipeline orchestration: anchoring, joint strategy steps, stage plumbing."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.checkpoint import load_checkpoint, save_checkpoint
from maskprune.config import ExperimentConfig
from maskprune.data import Dataset, batches, synthetic_dataset
from maskprune.errors import ConfigError, NumericalError, ShapeError
from maskprune.influence import (
    BINARY_CUTOFF,
    ChannelScorer,
    InfluenceMap,
    StrategyState,
    binarize,
    scaled_sigmoid,
)
from maskprune.metrics import count_flops
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
            state.hard = binarize(state.soft)
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
        """States once stored every masked layer's mask-gradient sum as
        ``<layer>.mask_grad`` and ``<layer>.mask_samples``; such a checkpoint
        loads and resumes byte for byte like the same one without them."""
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

    def test_config_with_retired_keys_loads_and_resumes_the_same(self, tmp_path):
        """Checkpoint configs once carried seven more keys for settings that
        are now fixed; one holding them at those values loads and resumes
        byte for byte like the same checkpoint without them."""
        cfg = quick_config(tmp_path, rate=0.25)
        path, meta, arrays = measured_checkpoint(cfg, tmp_path)
        meta["config"].update(influence_mode="absolute", scorer_input="absolute",
                              binary_cutoff=1e-6, delta_freeze=1e-3,
                              strategy_weight_scale=5.0, anneal_start_fc=0.01,
                              anneal_end_factor_fc=100.0)
        old_path = save_checkpoint(tmp_path / "old.ckpt", meta, arrays)
        assert_resumes_the_same(cfg, path, old_path)

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
            # running statistics are not weights
            if not k.endswith(("gate", "running_mean", "running_var")):
                assert_allclose(after[k], v, rtol=0, atol=0, equal_nan=True)


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
                                                   np.ones(w, dtype=np.int64),
                                                   np.ones(w, dtype=np.int64))
            t.strategies[frozen].hard, t.strategies[frozen].status = keep, "frozen"
            t.strategies[active].target[: full[0] // 3] = 0
            t.prunable[frozen].layer.gate[:] = keep
            t.maps[active] = InfluenceMap(active, infl.copy(), 8)
        narrow._narrow({frozen: keep.astype(bool)})
        assert narrow.prunable[frozen].layer.out_channels == keep.sum()
        steps = []
        for t in (dense, narrow):
            t._start_prune(active, 1)
            steps.append(t.train_step(x, y, active, t.cfg.prune_lr))
        assert abs(steps[0].loss_total - steps[1].loss_total) <= 1e-12
        assert abs(steps[0].loss_classification - steps[1].loss_classification) <= 1e-12
        maps = [t._captured_map(active) for t in (dense, narrow)]
        cols = narrow._in_cols.get(active)
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
        dense._narrow({frozen: keep.astype(bool)})
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

    def test_a_full_width_state_with_a_frozen_layer_is_refused(self, narrowed_run,
                                                               tmp_path):
        """Checkpoints once held every layer at full width behind its gates;
        one with a frozen layer no longer loads, and the model is untouched."""
        cfg = narrowed_run[0]
        meta, arrays = load_checkpoint(Path(cfg.out_dir) / "checkpoint-prune-conv1.ckpt")
        _, measured = load_checkpoint(Path(cfg.out_dir) / "checkpoint-measure.ckpt")
        model_keys = make_trainer(cfg).model.state_arrays().keys()
        old = dict(arrays, **{k: measured[k] for k in measured
                              if k.split(".velocity")[0] in model_keys})
        path = save_checkpoint(tmp_path / "old.ckpt", meta, old)
        fresh = make_trainer(cfg)
        blocks = list(fresh.model.blocks)
        with pytest.raises(ShapeError, match="state array conv1.conv.weight has shape"):
            fresh.load(path)
        assert all(a is b for a, b in zip(fresh.model.blocks, blocks))
        assert fresh.prunable["conv1"].layer is blocks[0].conv
        assert fresh.completed == [] and fresh._in_cols == {}
