"""Acceptance gate: one test per release criterion.

Every test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers (visible even under capture, via ``capsys.disabled``), then asserts.
Criteria 1-8 are quick; 9 and 10 run real pipelines and dominate the wall
time of the whole suite.
"""

import math
import time

import numpy as np
import pytest

from maskprune.config import ExperimentConfig
from maskprune.data import batches
from maskprune.influence import (
    ChannelScorer,
    InfluenceSum,
    StrategyState,
    binarize,
    capture_influence,
)
from maskprune.layers import (
    BatchNorm2d,
    GlobalAvgPool,
    MaskedLinear,
    MaxPool2d,
    ReLU,
    softmax_cross_entropy,
)
from maskprune.metrics import count_flops
from maskprune.models import LinearBlock, Model, PoolBlock, build_model
from maskprune.pruning import (
    SharpnessSchedule,
    build_plan,
    frozen_keep,
    lambda_value,
)
from maskprune.trainer import (
    StrategyMonitor,
    Trainer,
    anchor_center,
    load_datasets,
    run_pipeline,
    score_strategy,
    strategy_step,
)
from tests.test_layers import make_conv, make_linear, numgrad, rel_err
from tests.test_metrics import single_conv_model
from tests.test_models import dense_eval, frozen_strategies, mini_resnet


def verdict(capsys, ok: bool, label: str, detail: str = "") -> None:
    """Print one always-visible pass/fail line for a criterion."""
    with capsys.disabled():
        line = f"[{'PASS' if ok else 'FAIL'}] {label}"
        if detail:
            line += f" -- {detail}"
        print(line, flush=True)


def fresh_trainer(cfg: ExperimentConfig) -> Trainer:
    cfg.validate()
    train_ds, test_ds = load_datasets(cfg)
    model = build_model(cfg.model, train_ds.channels, train_ds.image_size,
                        cfg.classes, cfg.seed)
    return Trainer(cfg, model, train_ds, test_ds)


DESK_SETTINGS = dict(synthetic_train=5000, synthetic_test=1000, rate=0.4,
                     baseline_epochs=8, prune_epochs=2, max_prune_epochs=12,
                     finetune_epochs=2, batch_size=128, seed=0)


def desk_config(out_dir) -> ExperimentConfig:
    return ExperimentConfig(out_dir=str(out_dir), **DESK_SETTINGS)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """One full desk-scale pipeline run, shared by criteria 9 and 10."""
    out = tmp_path_factory.mktemp("desk")
    t0 = time.perf_counter()
    report, _ = run_pipeline(desk_config(out))
    return report, out, time.perf_counter() - t0


class TestC01InfluenceAccumulator:
    def test_c01_mask_gradient_is_weight_gradient_times_weight(self, capsys):
        rng = np.random.default_rng(101)
        layers = []
        for _ in range(12):
            cin = int(rng.integers(1, 6))
            cout = int(rng.integers(2, 9))
            k = int(rng.choice([1, 3, 5]))
            layers.append(("conv", make_conv(
                cin, cout, k, stride=int(rng.choice([1, 2])),
                padding=int(rng.integers(0, 3)), seed=int(rng.integers(1 << 30)))))
        for _ in range(8):
            layers.append(("fc", make_linear(int(rng.integers(3, 40)),
                                             int(rng.integers(2, 20)),
                                             seed=int(rng.integers(1 << 30)))))

        worst = 0.0
        for kind, layer in layers:
            acc = InfluenceSum(layer)
            manual = np.zeros_like(layer.weight.data)
            samples = 0
            for _ in range(2):
                n = int(rng.integers(2, 6))
                if kind == "conv":
                    k = layer.weight.data.shape[-1]
                    hw = int(rng.integers(max(4, k), 11))
                    x = rng.standard_normal((n, layer.in_channels, hw, hw))
                else:
                    x = rng.standard_normal((n, layer.in_channels))
                out = layer.forward(x)
                layer.backward(rng.standard_normal(out.shape))
                acc.add(n)
                manual += layer.weight.grad * layer.weight.data
                samples += n
            worst = max(worst, float(np.max(np.abs(manual - acc.total))))
            assert acc.samples == samples

        # independent anchor: the accumulator against finite differences of
        # the mask entries themselves, d/de L(w[idx] * (1 + e)) at e = 0 (the
        # loss is linear in each entry, so a central difference is exact up
        # to rounding)
        conv = make_conv(3, 4, 3, padding=1, seed=7)
        x = np.random.default_rng(7).standard_normal((2, 3, 8, 8))
        proj = np.random.default_rng(8).standard_normal((2, 4, 8, 8))
        acc = InfluenceSum(conv)
        conv.forward(x)
        conv.backward(proj)
        acc.add(x.shape[0])
        w = conv.weight.data
        idx_rng = np.random.default_rng(9)
        fd_worst = 0.0
        for _ in range(5):
            idx = tuple(int(idx_rng.integers(0, s)) for s in w.shape)
            h = 1e-5
            w0 = w[idx]
            w[idx] = w0 * (1 + h)
            up = float((conv.forward(x) * proj).sum())
            w[idx] = w0 * (1 - h)
            dn = float((conv.forward(x) * proj).sum())
            w[idx] = w0
            fd = (up - dn) / (2 * h)
            fd_worst = max(fd_worst, rel_err(np.asarray(fd), np.asarray(acc.total[idx])))

        ok = worst <= 1e-10 and fd_worst <= 1e-8
        verdict(capsys, ok, "C1 influence accumulator",
                f"{len(layers)} random layers, max |acc - grad*w| = {worst:.2e} "
                f"(tol 1e-10); mask FD spot check {fd_worst:.2e} (tol 1e-8)")
        assert ok


class TestC02FirstOrderFidelity:
    def test_c02_influence_predicts_loss_change_to_first_order(self, capsys, tmp_path):
        cfg = ExperimentConfig(synthetic_train=1280, synthetic_test=256,
                               batch_size=128, baseline_epochs=2, crop_pad=0,
                               seed=5, out_dir=str(tmp_path / "c2"))
        trainer = fresh_trainer(cfg)
        trainer.run(until="baseline")
        model = trainer.model

        x, y = next(batches(trainer.train_ds, 256, 0, cfg.seed, train=False))
        sums = {name: InfluenceSum(ref.layer) for name, ref in trainer.prunable.items()}

        def probe_loss():
            return softmax_cross_entropy(model.forward(x, train=True,
                                                       update_stats=False), y)

        loss0, grad = probe_loss()
        model.backward(grad)
        slopes = {}
        for name, acc in sums.items():
            acc.add(x.shape[0])
            m = capture_influence(acc, name)
            assert m.samples == 256
            # accumulated per-example influence times the example count is
            # the loss derivative w.r.t. a multiplicative weight perturbation
            slopes[name] = m.values * m.samples

        # probe the 50 largest-|slope| weights: weights with near-zero slope
        # also have near-zero curvature along this direction, so their
        # residuals sit in activation-kink lumpiness and float noise rather
        # than measuring the Taylor order
        cands = []
        for name, s in slopes.items():
            w = trainer.prunable[name].layer.weight.data.ravel()
            flat = s.ravel()
            for i in np.argsort(-np.abs(flat))[:30]:
                if abs(w[i]) > 1e-8:
                    cands.append((name, int(i), float(flat[i])))
        cands.sort(key=lambda c: -abs(c[2]))
        cands = cands[:50]

        halvings = (1e-2, 5e-3, 2.5e-3)
        ratios, n_valid = [], 0
        for name, i, slope in cands:
            w = trainer.prunable[name].layer.weight.data
            orig = w.flat[i]
            residuals = []
            for h in halvings:
                w.flat[i] = orig * (1.0 - h)
                loss_h, _ = probe_loss()
                w.flat[i] = orig
                residuals.append(abs((loss_h - loss0) - (-h * slope)))
            if residuals[-1] < 1e-13:          # flat direction: below noise
                continue
            n_valid += 1
            ratios.append(residuals[0] / residuals[1])
            ratios.append(residuals[1] / residuals[2])

        med = float(np.median(ratios))
        ok = n_valid >= 25 and 3.0 <= med <= 5.0
        verdict(capsys, ok, "C2 first-order fidelity",
                f"residual shrinks x{med:.2f} per halved perturbation "
                f"(expect ~4, accept [3, 5]) over {n_valid} weights")
        assert ok


class TestC03GradientOracles:
    def test_c03_backward_passes_match_finite_differences(self, capsys):
        rng = np.random.default_rng(33)
        results = []

        def check(label, module, x, tol=1e-5, params=(), **fw):
            proj = rng.standard_normal(module.forward(x, **fw).shape)

            def loss():
                return float((module.forward(x, **fw) * proj).sum())

            module.forward(x, **fw)
            gx = module.backward(proj)
            results.append((f"{label}/input", rel_err(gx, numgrad(loss, x)), tol))
            for pname in params:
                p = getattr(module, pname)
                module.forward(x, **fw)
                module.backward(proj)
                results.append((f"{label}/{pname}",
                                rel_err(p.grad, numgrad(loss, p.data)), tol))

        check("conv3x3", make_conv(3, 4, 3, padding=1, seed=1),
              rng.standard_normal((2, 3, 6, 6)), params=("weight", "bias"))
        check("conv5x5s2", make_conv(2, 3, 5, stride=2, padding=2, seed=2),
              rng.standard_normal((2, 2, 9, 9)))
        check("conv1x1", make_conv(4, 5, 1, seed=3),
              rng.standard_normal((2, 4, 5, 5)), params=("weight",))
        check("conv3x3s2p0", make_conv(1, 2, 3, stride=2, seed=4),
              rng.standard_normal((2, 1, 7, 7)))
        check("fc", make_linear(12, 7, seed=5),
              rng.standard_normal((3, 12)), params=("weight", "bias"))
        check("fc-wide", make_linear(30, 10, seed=6), rng.standard_normal((4, 30)))
        check("bn-train", BatchNorm2d(4), rng.standard_normal((3, 4, 5, 5)),
              tol=1e-4, params=("gamma", "beta"), train=True, update_stats=False)
        bn = BatchNorm2d(3)
        bn.running_mean = rng.standard_normal(3)
        bn.running_var = 0.5 + rng.random(3)
        check("bn-eval", bn, rng.standard_normal((2, 3, 4, 4)),
              params=("gamma", "beta"), train=False)
        check("relu", ReLU(), rng.standard_normal((3, 4, 5, 5)))
        check("maxpool", MaxPool2d(2), rng.standard_normal((2, 3, 6, 6)))
        check("gap", GlobalAvgPool(), rng.standard_normal((2, 5, 4, 4)))

        # loss head: analytic logit gradient against finite differences
        logits = rng.standard_normal((5, 7))
        labels = rng.integers(0, 7, size=5)
        _, g = softmax_cross_entropy(logits, labels)
        num = numgrad(lambda: softmax_cross_entropy(logits, labels)[0], logits)
        results.append(("softmax-ce/logits", rel_err(g, num), 1e-5))

        bad = [(lbl, err, tol) for lbl, err, tol in results if err > tol]
        n_instances = 12
        worst = max(err / tol for _, err, tol in results)
        verdict(capsys, not bad, "C3 gradient oracles",
                f"{n_instances} layer instances, {len(results)} gradient checks "
                f"vs central differences, worst err/tol = {worst:.3f}")
        assert not bad, bad


class TestC04StrategyWeightRule:
    def test_c04_pinned_values_and_random_sweep(self, capsys):
        pinned = [
            (50, 30, 100, 1.0),
            (50, 60, 100, 0.0),   # thinned past the budget: penalty off
            (32, 32, 64, 0.0),    # exactly on the boundary
            (2, 3, 10, 2.5),
            (4, 0, 8, 2.5),       # everything removed
        ]
        for kept_target, kept_actual, total, expect in pinned:
            got = lambda_value(kept_target, kept_actual, total)
            assert got == pytest.approx(expect, abs=1e-12), (kept_target, kept_actual, total)

        rng = np.random.default_rng(44)
        for _ in range(20):
            total = int(rng.integers(1, 200))
            kept_target = int(rng.integers(0, total + 1))
            kept_actual = int(rng.integers(0, total + 1))
            t, b = kept_target / total, kept_actual / total
            expect = 5.0 * abs(t + b - 1.0) if 1.0 - b >= t else 0.0
            # same-form direct evaluation: equality must be exact
            assert lambda_value(kept_target, kept_actual, total) == expect

        verdict(capsys, True, "C4 strategy-weight rule",
                "5 pinned values exact, 20-case random sweep matches closed form")


class TestC05PlantedStrategyConvergence:
    def test_c05_separable_maps_freeze_exactly_on_target(self, capsys):
        details = []
        for n, k_drop, seed in [(10, 4, 0), (24, 9, 1), (48, 20, 2)]:
            rng = np.random.default_rng(40 + seed)
            dropped = rng.choice(n, size=k_drop, replace=False)
            target = np.ones(n, dtype=np.int64)
            target[dropped] = 0
            map_vals = (np.abs(rng.normal(2.0, 0.3, size=(n, 1, 1, 1)))
                        + rng.normal(0.0, 0.05, size=(n, 3, 3, 3)))
            map_vals[dropped] *= 0.05
            map_in = np.abs(map_vals)

            scorer = ChannelScorer(map_in.shape[1:])
            scorer.rescale_for_spread(map_in, 14.0)
            schedule = SharpnessSchedule(0.01, 1.0, 400, boost_factor=2.0)
            state = StrategyState(layer=f"planted{n}", soft=np.full(n, 0.5), target=target)
            state.center = anchor_center(scorer.score(map_in), target,
                                         schedule.value())
            monitor = StrategyMonitor(3, 0.01, 3)
            converged = False
            steps = 0
            for step in range(1, 1601):
                score_strategy(scorer, state, schedule.value(), map_in)
                strategy_step(scorer, state, schedule, map_in)
                if step % 10 == 0:
                    if monitor.observe(state, schedule):
                        converged, steps = True, step
                        break
                    state.center = anchor_center(scorer.score(map_in),
                                                 target, schedule.value())
            softness = float(np.minimum(state.soft, 1.0 - state.soft).max())
            assert converged, f"width {n}: no convergence in 1600 steps"
            assert np.array_equal(binarize(state.soft), target)
            assert softness <= 0.01
            details.append(f"{n}ch/{k_drop}drop in {steps} steps")

        verdict(capsys, True, "C5 planted-map convergence",
                "exact target patterns, all probabilities within 0.01 of binary "
                f"({'; '.join(details)})")


class TestC06CompactionEquivalence:
    def test_c06_compacted_model_reproduces_gated_outputs(self, capsys):
        worst = 0.0
        for label, builder in [("tiny-cnn", lambda s: build_model("tiny-cnn", 3, 32, 10, seed=s)),
                               ("mini-resnet", mini_resnet)]:
            for seed in (60, 61):
                model = builder(seed)
                rng = np.random.default_rng(seed)
                keep = {}
                for ref in model.prunable():
                    width = ref.layer.out_channels
                    k = int(rng.integers(1, width + 1))
                    v = np.zeros(width, dtype=np.int64)
                    v[rng.choice(width, size=k, replace=False)] = 1
                    keep[ref.name] = v
                strategies = frozen_strategies(model, keep)
                x = rng.standard_normal((256, *model.input_shape))
                want = dense_eval(model, x)
                small = model.compact(frozen_keep(strategies))
                got = small.forward(x, train=False)
                worst = max(worst, float(np.max(np.abs(got - want))))

        ok = worst <= 1e-5
        verdict(capsys, ok, "C6 compaction equivalence",
                f"4 random keep patterns x 256 inputs, max |gated - compacted| "
                f"= {worst:.2e} (tol 1e-5)")
        assert ok


class TestC07GlobalThreshold:
    def test_c07_marks_exactly_the_requested_fraction(self, capsys):
        rng = np.random.default_rng(70)
        infl = {"a": rng.random(300), "b": rng.random(400), "c": rng.random(300)}
        infl["b"][50:60] = 0.123456          # exact tie group inside one layer
        total = 1000
        below_tie = sum(int((v < 0.123456).sum()) for v in infl.values())
        rates = [0.1, 0.37, 0.5, (below_tie + 5) / total]  # last lands mid-tie

        for rate in rates:
            plan = build_plan(infl, rate)
            n_mark = math.ceil(rate * total)
            assert total - plan.kept_channels == n_mark

            # independent oracle: flat sort by (value, layer position, channel)
            entries = sorted((float(v), pos, ch)
                             for pos, vals in enumerate(infl.values())
                             for ch, v in enumerate(vals))
            expect = {(pos, ch) for _, pos, ch in entries[:n_mark]}
            got = {(pos, int(ch))
                   for pos, (name, _) in enumerate(infl.items())
                   for ch in np.flatnonzero(plan.targets[name] == 0)}
            assert got == expect
            assert plan.threshold == entries[n_mark - 1][0]

            # marked set is stable under dict-order permutation and repetition
            perm = {"c": infl["c"], "a": infl["a"], "b": infl["b"]}
            plan2 = build_plan(perm, rate)
            plan3 = build_plan(infl, rate)
            for name in infl:
                assert np.array_equal(plan.targets[name], plan2.targets[name])
                assert np.array_equal(plan.targets[name], plan3.targets[name])

        verdict(capsys, True, "C7 global threshold",
                f"rates {[f'{r:.3f}' for r in rates]} mark exactly ceil(r*1000) "
                "channels; tie group and dict order resolved deterministically")


class TestC08CostAccounting:
    def test_c08_pinned_flop_and_param_fixtures(self, capsys):
        conv_model = single_conv_model()          # 16 filters, 3x3, on 32x32
        cost = count_flops(conv_model)
        conv_entry = cost["layers"][0]
        checks = [conv_entry["macs"] == 442_368, conv_entry["flops"] == 884_736]

        fc_model = Model("fc-only", [PoolBlock("gap"),
                                     LinearBlock("fc", MaskedLinear(
                                         np.zeros((10, 10)), np.zeros(10)),
                                         relu=False, prunable=False)],
                         (10, 4, 4), 10)
        fc_entry = count_flops(fc_model)["layers"][0]
        checks += [fc_entry["macs"] == 100, fc_entry["params"] == 110]

        # gating off half the filters halves the conv cost and shrinks the
        # consumer; compacting must reproduce the gated totals exactly
        keep = np.ones(16, dtype=np.int64)
        keep[:8] = 0
        conv_model.blocks[0].conv.gate[:] = keep
        gated = count_flops(conv_model)
        checks += [gated["layers"][0]["flops"] == 442_368,
                   gated["layers"][-1]["macs"] == 80]
        strategies = frozen_strategies(conv_model, {"conv": keep})
        compacted_cost = count_flops(conv_model.compact(frozen_keep(strategies)))
        checks += [compacted_cost["total_flops"] == gated["total_flops"],
                   compacted_cost["total_params"] == gated["total_params"]]

        verdict(capsys, all(checks), "C8 cost accounting",
                "conv fixture 442,368 MACs / 884,736 FLOPs; fc fixture 100 MACs / "
                "110 params; half-gated conv halves; compacted totals match gated")
        assert all(checks)


class TestC09EndToEnd:
    def test_c09_desk_scale_compression_run(self, capsys, desk_run):
        report, _, wall = desk_run
        checks = {
            "baseline_acc >= 95": report.baseline_acc >= 95.0,
            "acc_drop <= 2.0": report.acc_drop <= 2.0,
            "rate_actual >= 0.30": report.rate_actual >= 0.30,
            "rate_actual <= rate_target": report.rate_actual <= DESK_SETTINGS["rate"] + 1e-9,
            "wall < 1200 s": wall < 1200.0,
        }
        verdict(capsys, all(checks.values()), "C9 end-to-end compression",
                f"baseline {report.baseline_acc:.2f}%, pruned {report.pruned_acc:.2f}% "
                f"(drop {report.acc_drop:+.2f}), removed {report.rate_actual:.4f} "
                f"of channels, FLOPs -{report.flops_reduction:.1%}, {wall:.0f}s")
        assert all(checks.values()), checks


class TestC10Determinism:
    def test_c10_identical_runs_and_resume_agree_exactly(self, capsys, desk_run,
                                                         tmp_path):
        report_a, out_a, _ = desk_run
        report_b, _ = run_pipeline(desk_config(tmp_path / "twin"))
        twin_ok = report_a.comparable() == report_b.comparable()

        ckpt = out_a / "checkpoint-prune-conv2.ckpt"
        assert ckpt.exists()
        report_c, _ = run_pipeline(desk_config(tmp_path / "resumed"),
                                   resume_from=ckpt)
        resume_ok = report_c.comparable() == report_a.comparable()

        verdict(capsys, twin_ok and resume_ok, "C10 determinism",
                f"twin desk runs identical: {twin_ok}; resume from mid-run "
                f"checkpoint identical: {resume_ok} "
                f"(pruned acc {report_a.pruned_acc:.2f}%)")
        assert twin_ok and resume_ok
