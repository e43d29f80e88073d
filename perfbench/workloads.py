"""The benchmark's three workloads, driven through maskprune's public API.

Each workload sets up (several times; the median is reported), may run a
fixed pipeline once, then repeats a round of its steady-state operations
until the run's measurement window closes.  Rounds interleave the different
operations, so each metric's samples are spread over the whole window and
their median rides out the machine's short bursts of contention.  In a
traced run a fixed number of rounds runs instead, alternating untraced and
traced: per-layer totals then cover the same work on every commit, and the
alternation gives the tracing overhead.

    desk-tiny       full run_pipeline, tiny-cnn on synthetic 1x28x28 digits;
                    rounds: reload the final checkpoint, serve a probe batch
    resnet56-train  baseline + influence pass on CIFAR-format 3x32x32 input
                    with a stage checkpoint and a resume; rounds: a training
                    step on the resumed model, a served batch, a resume
    vgg16-serve     rounds: load a vgg16 state, plan at rate 0.5, compact,
                    then serve batches through the gated and compacted models
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import maskprune as mp
from spans import Patcher, durations, median, percentile

#: C6 bound: gated and compacted logits agree to this (max absolute difference)
AGREE_TOL = 1e-5
#: rounds run at least this often, even past the window, so every median
#: rests on enough samples
MIN_ROUNDS = {"desk-tiny": 24, "resnet56-train": 3, "vgg16-serve": 3}
#: traced runs alternate this many untraced/traced pairs of rounds
TRACE_ROUNDS = {"desk-tiny": 12, "resnet56-train": 2, "vgg16-serve": 2}


@dataclass
class Sizes:
    """Input sizes; ``smoke`` shrinks them so each workload runs in seconds."""

    desk_train: int = 512
    desk_test: int = 256
    desk_batch: int = 64
    desk_baseline_epochs: int = 4
    probe_batch: int = 128
    probe_batches: int = 4
    resnet_train: int = 64
    resnet_test: int = 32
    resnet_batch: int = 8
    serve_batch: int = 8
    serve_batches: int = 4
    setup_repeats: int = 5              # the first builds run cold; 5 gives a warm median
    rounds: int | None = None           # overrides MIN_ROUNDS and TRACE_ROUNDS

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(desk_train=128, desk_test=64, desk_batch=32, desk_baseline_epochs=2,
                   probe_batch=32, probe_batches=2, resnet_train=16, resnet_test=8,
                   serve_batches=1, setup_repeats=1, rounds=1)


@dataclass
class Run:
    """State shared by a workload and run.py: timing window, operation
    accounting, correctness checks, samples and the metrics gathered so far."""

    name: str
    seed: int
    seconds: float
    work: Path
    tracer: object
    patcher: Patcher
    traced: bool
    sizes: Sizes
    import_s: float
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    deadline: float = 0.0
    _plain: bool = False
    _op_failed: bool = False
    _counted: BaseException | None = None

    # -- accounting ------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self._op_failed = True
        return bool(ok)

    @contextlib.contextmanager
    def op(self):
        """One attempted operation; it fails if it raises or a check in it fails."""
        self.attempted += 1
        self._op_failed = False
        try:
            yield
        except (mp.MaskPruneError, FloatingPointError) as exc:
            self.count_failure(exc)
            raise
        if self._op_failed:
            self.failed += 1

    def count_failure(self, exc: BaseException) -> None:
        """Count an exception the program raised as one failed operation, once."""
        if exc is self._counted:
            return
        self._counted = exc
        self.attempted = max(self.attempted, 1)
        self.failed += 1
        self.checks.append({"check": "operation", "ok": False,
                            "detail": f"{type(exc).__name__}: {exc}"})

    def check_summary(self) -> list[dict]:
        """Checks grouped by name: all passed?, how often run, first failure."""
        out: dict[str, dict] = {}
        for c in self.checks:
            row = out.setdefault(c["check"], {"check": c["check"], "ok": True, "n": 0,
                                              "detail": c["detail"]})
            row["n"] += 1
            if row["ok"] and not c["ok"]:
                row["ok"], row["detail"] = False, c["detail"]
        return list(out.values())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks)

    # -- timing ------------------------------------------------------------

    def setup(self, build):
        """Run ``build`` several times; report import time plus the median.
        The measurement window opens when setup ends."""
        times, result = [], None
        for _ in range(self.sizes.setup_repeats):
            result = None
            t0 = time.perf_counter()
            result = build()
            times.append(time.perf_counter() - t0)
        self.metrics["setup_s"] = self.import_s + median(times)
        self.deadline = time.perf_counter() + self.seconds
        return result

    def timed(self, key: str, fn, *args, **kwargs):
        """Call ``fn`` and keep its wall time as a sample of ``key`` (untraced
        rounds of a traced run keep none)."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        if not self._plain:
            self.samples.setdefault(key, []).append(time.perf_counter() - t0)
        return out

    def median_of(self, key: str) -> float:
        return median(self.samples[key])

    def _round(self, ops) -> float:
        t0 = time.perf_counter()
        for fn in ops:
            with self.op():
                fn()
        return time.perf_counter() - t0

    def rounds(self, ops) -> None:
        """Run ``ops`` in rotation, each as one operation: until the window
        closes in an untraced run, a fixed number of times in a traced one."""
        if not self.traced:
            n = 0
            least = self.sizes.rounds or MIN_ROUNDS[self.name]
            while n < least or time.perf_counter() < self.deadline:
                self._round(ops)
                n += 1
            return
        plain, traced = [], []
        for _ in range(self.sizes.rounds or TRACE_ROUNDS[self.name]):
            self.patcher.restore()
            self._plain = True
            try:
                plain.append(self._round(ops))
            finally:
                self._plain = False
                self.patcher.install()
            traced.append(self._round(ops))
        self.layer["trace.overhead_pct"] = 100.0 * (median(traced) / median(plain) - 1.0)

    # -- metrics -------------------------------------------------------------

    def step_times_ms(self) -> list[float]:
        return [d / 1e6 for d in durations(s for s in self.tracer.spans
                                           if s[0] == "trainer.step")]

    def training_metrics(self, batch: int) -> None:
        """Step latency (end to end) and, in traced runs, training throughput
        with data wait included and the p90 where enough steps exist."""
        steps = self.step_times_ms()
        self.metrics["step_ms_p50"] = median(steps)
        if len(steps) >= 100:
            self.layer["trainer.step_ms_p90"] = percentile(steps, 90.0)
        if self.traced:
            spans = self.tracer.spans
            wait_ms = sum(d / 1e6 for s, d in zip(spans, durations(spans))
                          if s[0] == "data.batches" and s[4] == "train")
            self.layer["trainer.train_img_s"] = len(steps) * batch / ((sum(steps) + wait_ms) / 1e3)

    def serving_metrics(self, batch: int) -> None:
        self.metrics["gated_infer_img_s"] = batch / self.median_of("gated")
        self.metrics["infer_img_s"] = batch / self.median_of("compact")
        self.metrics["load_s"] = self.median_of("load")

    def finish(self) -> None:
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not self.step_times_ms():
            return
        nonfinite = self.tracer.counts.get("trainer.nonfinite_loss", 0.0)
        self.check("training losses are finite", nonfinite == 0,
                   f"{nonfinite:.0f} non-finite losses")
        if nonfinite:
            self.failed += 1


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def snapshot(model) -> dict[str, np.ndarray]:
    """Copies of a model's state arrays (``state_arrays`` returns live ones)."""
    return {k: v.copy() for k, v in model.state_arrays().items()}


def states_equal(a: dict, b: dict) -> bool:
    """Same array names, dtypes, shapes and bytes."""
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and np.array_equal(a[k], b[k])
        for k in a)


def serve_pair(run: Run, gated, compacted, x) -> None:
    """Forward one batch through both models, timed, and compare the logits."""
    a = run.timed("gated", gated.forward, x, train=False)
    b = run.timed("compact", compacted.forward, x, train=False)
    diff = max_abs_diff(a, b)
    run.check("compacted == gated on served batches", diff <= AGREE_TOL,
              f"max |diff| {diff:.2e}, max |logit| {np.max(np.abs(a)):.3g}")


def write_cifar10(path: Path, images: np.ndarray, labels: np.ndarray) -> Path:
    """CIFAR-10 binary batch: per record a label byte then 3x32x32 uint8 planes."""
    n = images.shape[0]
    records = np.empty((n, 3073), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = images.reshape(n, 3072)
    path.write_bytes(records.tobytes())
    return path


def cifar_like(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    return (rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8),
            rng.integers(0, 10, size=n, dtype=np.uint8))


def quantile_influences(model, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Per layer, a random permutation of the same evenly spaced quantiles.

    Which channels go varies with the seed, but the global threshold then
    removes the same number from each layer on every seed, so the compacted
    architecture, and what it costs to run, does not depend on the seed.
    """
    out = {}
    for ref in model.prunable():
        width = ref.layer.out_channels
        out[ref.name] = (rng.permutation(width) + 0.5) / width
    return out


def apply_plan(model, plan) -> dict[str, np.ndarray]:
    """Set each prunable layer's gates to its hard keep target."""
    for ref in model.prunable():
        ref.layer.gate[:] = plan.targets[ref.name]
    return {n: t.astype(bool) for n, t in plan.targets.items()}


# ---------------------------------------------------------------------------
# desk-tiny
# ---------------------------------------------------------------------------

#: The pipeline's own seed is pinned: how many epochs each prune stage needs
#: depends on it through convergence (one seed took 35 % longer than another),
#: so a per-run seed would swamp any timing difference.  --seed drives the
#: probe images served after the pipeline.
DESK_PIPELINE_SEED = 0


def desk_tiny(run: Run) -> None:
    sz = run.sizes
    cfg = mp.ExperimentConfig(
        model="tiny-cnn", dataset="synthetic", synthetic_train=sz.desk_train,
        synthetic_test=sz.desk_test, batch_size=sz.desk_batch, rate=0.4, crop_pad=2,
        baseline_epochs=sz.desk_baseline_epochs, prune_epochs=2, finetune_epochs=1,
        seed=DESK_PIPELINE_SEED, out_dir=str(run.work / "desk"))

    def build():
        train, test = mp.data.synthetic_dataset(cfg.synthetic_train, cfg.synthetic_test,
                                                cfg.seed)
        model = mp.build_model(cfg.model, train.channels, train.image_size, cfg.classes,
                               cfg.seed)
        rng = np.random.default_rng(run.seed)
        probes = rng.random((sz.probe_batches, sz.probe_batch, 1, 28, 28))
        return train, test, model, probes

    train, test, _, probes = run.setup(build)

    with run.op():
        t0 = time.perf_counter()
        report, trainer = mp.run_pipeline(cfg)
        run.metrics["pipeline_s"] = time.perf_counter() - t0
        states = trainer.strategies.values()
        run.check("every layer converged", all(s.status in ("frozen", "skipped") for s in states),
                  ", ".join(f"{n}={s.status}" for n, s in trainer.strategies.items()))
        run.check("rate_actual <= target", report.rate_actual <= cfg.rate + 1e-12,
                  f"{report.rate_actual:.4f} vs {cfg.rate}")
        worst = max(max_abs_diff(trainer.model.forward(x, train=False),
                                 trainer.compacted.forward(x, train=False))
                    for x, _ in mp.data.batches(test, sz.probe_batch, 0, cfg.seed, train=False))
        run.check("compacted == gated on the test split", worst <= AGREE_TOL,
                  f"max |diff| {worst:.2e}")

    used = trainer.global_epoch - cfg.baseline_epochs - 1 - cfg.finetune_epochs
    planned = cfg.prune_epochs * sum(s.status == "frozen" for s in states)
    run.layer["trainer.prune_epochs_used"] = float(used)
    run.layer["trainer.prune_useful_ratio"] = planned / used if used else 1.0
    run.layer["metrics.baseline_acc_pct"] = report.baseline_acc
    run.layer["metrics.pruned_acc_pct"] = report.pruned_acc
    run.training_metrics(cfg.batch_size)

    final = Path(cfg.out_dir) / "checkpoint-final.ckpt"
    finished = snapshot(trainer.model)
    served = 0

    def reload():
        def load():
            fresh = mp.Trainer(cfg, mp.build_model(cfg.model, 1, 28, cfg.classes, cfg.seed),
                               train, test)
            fresh.load(final)
            return fresh
        fresh = run.timed("load", load)
        run.check("reloaded state equals the finished run",
                  states_equal(fresh.model.state_arrays(), finished))

    def serve():
        nonlocal served
        serve_pair(run, trainer.model, trainer.compacted, probes[served % len(probes)])
        served += 1

    run.rounds([reload, serve])
    run.serving_metrics(sz.probe_batch)


# ---------------------------------------------------------------------------
# resnet56-train
# ---------------------------------------------------------------------------

RESNET_RATE = 0.4


def resnet56_train(run: Run) -> None:
    sz = run.sizes
    data_dir = run.work / "cifar"
    data_dir.mkdir(parents=True, exist_ok=True)
    train_file, test_file = data_dir / "data_batch_1.bin", data_dir / "test_batch.bin"
    cfg = mp.ExperimentConfig(
        model="resnet56", dataset="cifar10", train_files=str(train_file),
        test_files=str(test_file), batch_size=sz.resnet_batch, eval_batch=sz.resnet_batch,
        crop_pad=4, flip=True, rate=RESNET_RATE, baseline_epochs=1, seed=run.seed,
        out_dir=str(run.work / "resnet"))

    def build():
        rng = np.random.default_rng(run.seed)
        write_cifar10(train_file, *cifar_like(rng, sz.resnet_train))
        write_cifar10(test_file, *cifar_like(rng, sz.resnet_test))
        train = mp.data.cifar10_dataset([str(train_file)])
        test = mp.data.cifar10_dataset([str(test_file)])
        return train, test, mp.build_model(cfg.model, 3, 32, cfg.classes, cfg.seed)

    train, test, model = run.setup(build)
    ckpt = Path(cfg.out_dir) / "checkpoint-measure.ckpt"

    def resume() -> mp.Trainer:
        fresh = mp.Trainer(cfg, mp.build_model(cfg.model, 3, 32, cfg.classes, cfg.seed),
                           train, test)
        fresh.load(ckpt)
        return fresh

    with run.op():
        t0 = time.perf_counter()
        trainer = mp.Trainer(cfg, model, train, test)
        trainer.run(until="measure")
        resumed = run.timed("load", resume)
        run.metrics["pipeline_s"] = time.perf_counter() - t0
        saved = snapshot(trainer.model)
        run.check("resumed state equals the saved state bit for bit",
                  states_equal(resumed.model.state_arrays(), saved)
                  and all(np.array_equal(resumed.maps[n].values, m.values)
                          for n, m in trainer.maps.items())
                  and all(np.array_equal(resumed.plan.targets[n], t)
                          for n, t in trainer.plan.targets.items()))

    # serve the measured model under a seed-independent plan shape
    plan = mp.build_plan(quantile_influences(trainer.model, np.random.default_rng(run.seed)),
                         RESNET_RATE)
    compacted = trainer.model.compact(apply_plan(trainer.model, plan))
    test_batches = [x for x, _ in mp.data.batches(test, sz.resnet_batch, 0, cfg.seed,
                                                  train=False)]
    epoch = resumed.global_epoch
    served = 0

    def train_step():
        # first batch of a fresh shuffle each step: no generator outlives a round
        nonlocal epoch
        x, y = next(mp.data.batches(train, cfg.batch_size, epoch, cfg.seed, train=True,
                                    crop_pad=cfg.crop_pad, flip=cfg.flip))
        epoch += 1
        m = resumed.train_step(x, y, None, cfg.finetune_lr)
        run.check("training loss is finite", np.isfinite(m.loss_total), f"{m.loss_total}")

    def serve():
        nonlocal served
        serve_pair(run, trainer.model, compacted, test_batches[served % len(test_batches)])
        served += 1

    def reload():
        again = run.timed("load", resume)
        run.check("resumed state equals the saved state bit for bit",
                  states_equal(again.model.state_arrays(), saved))

    run.rounds([train_step, serve, reload, reload])
    run.training_metrics(cfg.batch_size)
    run.serving_metrics(sz.resnet_batch)


# ---------------------------------------------------------------------------
# vgg16-serve
# ---------------------------------------------------------------------------

VGG_RATE = 0.5


def calibrate_batchnorm(model, plan, x) -> None:
    """Set every running mean/variance to the statistics of one batch through
    the gated network, so a served forward stays normalised layer by layer
    and the logits are O(1) rather than shrinking with depth."""
    apply_plan(model, plan)
    norms = [b.bn for b in model.blocks if getattr(b, "bn", None) is not None]
    for bn in norms:
        bn.momentum = 1.0
    model.forward(x, train=True)
    for bn in norms:
        bn.momentum = 0.1
    for ref in model.prunable():
        ref.layer.gate[:] = 1.0


def vgg16_serve(run: Run) -> None:
    sz = run.sizes
    fixture = run.work / "vgg16-state.ckpt"

    def build():
        rng = np.random.default_rng(run.seed)
        model = mp.build_model("vgg16", 3, 32, 10, run.seed)
        influences = quantile_influences(model, rng)
        batches = rng.standard_normal((sz.serve_batches, sz.serve_batch, 3, 32, 32))
        return model, influences, batches

    model, influences, batches = run.setup(build)
    calibrate_batchnorm(model, mp.build_plan(influences, VGG_RATE), batches[0])
    mp.save_checkpoint(fixture, {"arch": "vgg16", "seed": run.seed}, model.state_arrays())
    del model

    serving: dict = {}

    def load() -> mp.Model:
        fresh = mp.build_model("vgg16", 3, 32, 10, run.seed)
        _, arrays = mp.load_checkpoint(fixture)
        fresh.load_state_arrays(arrays)
        return fresh

    def load_plan_compact():
        gated = run.timed("load", load)
        keep = apply_plan(gated, mp.build_plan(influences, VGG_RATE))
        gated.forward(batches[0], train=False)      # records the flatten geometry
        compacted = gated.compact(keep)
        return gated, compacted, mp.count_flops(gated), mp.count_flops(compacted)

    def pipeline():
        serving.clear()                     # one loaded copy alive at a time
        gated, compacted, cost_gated, cost_compact = run.timed("pipeline", load_plan_compact)
        run.check("compacted FLOPs == gated FLOPs",
                  cost_gated["total_flops"] == cost_compact["total_flops"],
                  f"{cost_gated['total_flops']} vs {cost_compact['total_flops']}")
        serving.update(gated=gated, compacted=compacted)

    def serve(i):
        return lambda: serve_pair(run, serving["gated"], serving["compacted"], batches[i])

    run.rounds([pipeline, *(serve(i) for i in range(sz.serve_batches))])
    run.metrics["pipeline_s"] = run.median_of("pipeline")
    run.metrics["step_ms_p50"] = 1e3 * run.median_of("compact")
    run.serving_metrics(sz.serve_batch)


WORKLOADS = {
    "desk-tiny": desk_tiny,
    "resnet56-train": resnet56_train,
    "vgg16-serve": vgg16_serve,
}
