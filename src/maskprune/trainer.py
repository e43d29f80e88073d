"""Training pipeline: baseline fit, influence measurement, per-layer strategy
annealing with joint loss, fine-tuning, and compaction.

Stage order: ``baseline`` -> ``measure`` (model-wide influence, computed once,
fixing the global threshold and per-layer targets) -> one ``prune:<layer>``
stage per prunable layer from input to output -> ``finetune`` -> compact,
evaluate, report.  A checkpoint is written after every stage, and a run can
resume from any of them; batch order, augmentation, and initialization are
pure functions of (seed, epoch/index), so a resumed run replays exactly.

During a layer's prune stage its gates carry the soft keep probabilities, so
classification gradients flow into the scorer while the sharpness anneal
pushes the probabilities to 0/1 ("false pruning").  When the stage freezes the
layer, or skips it with a channel closed, `Model.narrow` removes the closed
channels from the trained model, along with the input columns that read them,
so later stages train only open channels.  Strategies, targets and influence
maps stay at full width; the active layer's influence is scattered back to it,
with 0.0 in the input columns narrowing removed (their gradient was exactly 0,
since they only ever multiplied zeros).  Unlike a full-width run, weight decay
no longer shrinks those columns; they never reach the compacted model either
way.  Checkpoints hold the narrowed arrays, and a load narrows the fresh model
from the stored hard patterns first.  At the end every layer is narrowed, so
the compacted model is a copy.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pruning
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, write_effective_config
from .data import Dataset, batches, cifar10_dataset, mnist_dataset, synthetic_dataset
from .errors import ConfigError, ConvergenceError, NumericalError, ShapeError
from .influence import (
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
from .layers import sgd_step, softmax_cross_entropy
from .metrics import RunReport, count_flops
from .models import Model, build_model
from .pruning import (
    CompressionPlan,
    SharpnessSchedule,
    build_plan,
    has_converged,
    lambda_value,
    strategy_loss,
)

log = logging.getLogger("maskprune")

#: config fields that define a run: a checkpoint resumes only under a config
#: that agrees on every one of them (``out_dir`` and ``log_every`` may differ,
#: so a run can resume into a new directory)
RUN_FIELDS = ("model", "dataset", "train_images", "train_labels", "test_images",
              "test_labels", "train_files", "test_files", "synthetic_train",
              "synthetic_test", "train_limit", "test_limit", "classes", "batch_size",
              "crop_pad", "flip", "rate", "seed")


@dataclass
class Phase:
    """One planned pipeline phase; a phase always covers at least one epoch."""

    kind: str                 # baseline | measure | prune | finetune
    layer: str | None
    epochs: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"phase {self.kind} must span at least one epoch")

    @property
    def stage_id(self) -> str:
        return f"{self.kind}:{self.layer}" if self.layer else self.kind


@dataclass
class StepMetrics:
    loss_total: float
    loss_classification: float
    loss_strategy: float
    strategy_weight: float
    sharpness: float
    kept: int


def anchor_center(scores: np.ndarray, target: np.ndarray, sharpness: float,
                  delta_bin: float = 0.01) -> float:
    """Place the sigmoid center so the score split lines up with the target.

    This is the global influence threshold carried into score space: with
    ``k`` channels targeted for removal, the center sits midway between the
    k-th and (k+1)-th smallest scores, so the anneal drives exactly the
    targeted number of channels toward zero.  When nothing in the layer is
    targeted the center is dropped far enough below the smallest score that
    every entry is already saturated at the current sharpness.
    """
    scores = np.asarray(scores, dtype=np.float64)
    k = int((np.asarray(target) == 0).sum())
    order = np.sort(scores, kind="stable")
    saturation = 2.0 * np.log((1.0 - delta_bin) / delta_bin) / sharpness
    if k <= 0:
        return float(order[0] - saturation)
    if k >= scores.size:
        return float(order[-1] + saturation)
    return float(0.5 * (order[k - 1] + order[k]))


def score_strategy(scorer: ChannelScorer, state: StrategyState, sharpness: float,
                   map_in: np.ndarray) -> None:
    """Set ``state.soft`` to the scorer's keep probabilities at ``sharpness``
    and ``state.hard`` to their binary pattern."""
    state.soft = scaled_sigmoid(sharpness, scorer.score(map_in), state.center)
    state.hard = binarize(state.soft)


def strategy_step(scorer: ChannelScorer, state: StrategyState, schedule: SharpnessSchedule,
                  map_in: np.ndarray, extra_grad_soft: np.ndarray | None = None,
                  lr: float = 0.05, momentum: float = 0.9) -> tuple[float, float]:
    """One refinement step of a layer's keep strategy.

    ``state.soft`` and ``state.hard`` must hold the keep vectors at the
    schedule's current sharpness, as :func:`score_strategy` leaves them (a
    training step scores once, before its forward pass, and the step reuses
    that).  Weights the strategy loss, folds in any gradient arriving from the
    classification path (``extra_grad_soft``), updates the scorer, and
    advances the anneal.  Returns ``(strategy_weight, strategy_loss)``.
    """
    sharp = schedule.value()
    soft = state.soft
    weight = lambda_value(int(state.target.sum()), state.kept, state.target.size)
    grad_soft = 2.0 * weight * (soft - state.target)
    if extra_grad_soft is not None:
        grad_soft = grad_soft + extra_grad_soft
    gk, gb = scorer_gradients(scorer, map_in, soft, grad_soft, sharp)
    scorer.kernel.grad, scorer.bias.grad = gk, gb
    sgd_step(scorer, lr, momentum, weight_decay=0.0)
    schedule.advance()
    return weight, strategy_loss(soft, state.target)


class StrategyMonitor:
    """Snapshot bookkeeping: convergence detection and the stall booster."""

    def __init__(self, window: int = 3, delta_bin: float = 0.01, patience: int = 3):
        self.window = window
        self.delta_bin = delta_bin
        self.patience = patience
        self._stalls = 0
        self._prev_hard: np.ndarray | None = None

    def observe(self, state: StrategyState, schedule: SharpnessSchedule) -> bool:
        """Record a snapshot; True once the strategy has converged on target.

        Convergence needs the window rule to hold *and* the binary pattern to
        equal the target: entries parked between the binarization cutoff and
        ``delta_bin`` satisfy the window rule while still binarizing as kept,
        and freezing there would silently under-prune.  A stall — hard
        pattern unchanged across ``patience`` consecutive snapshots while any
        entry is still above the cutoff — multiplies the remaining anneal by
        the schedule's boost factor, which is what drives those parked
        entries the rest of the way down.
        """
        state.snapshot()
        if (has_converged(state.history, self.delta_bin, self.window)
                and np.array_equal(state.hard, state.target)):
            return True
        softness = float(np.minimum(state.soft, 1.0 - state.soft).max())
        if (self._prev_hard is not None and np.array_equal(self._prev_hard, state.hard)
                and softness >= BINARY_CUTOFF):
            self._stalls += 1
            if self._stalls >= self.patience:
                schedule.apply_boost()
                log.info("strategy %s stalled at sharpness %.4g; boosting to %.4g",
                         state.layer, schedule.value() / schedule.boost_factor,
                         schedule.value())
                self._stalls = 0
        else:
            self._stalls = 0
        self._prev_hard = state.hard.copy()
        return False


def load_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if cfg.dataset == "synthetic":
        train, test = synthetic_dataset(cfg.synthetic_train, cfg.synthetic_test, cfg.seed)
    elif cfg.dataset == "mnist":
        train = mnist_dataset(cfg.train_images, cfg.train_labels)
        test = mnist_dataset(cfg.test_images, cfg.test_labels)
    elif cfg.dataset == "cifar10":
        train = cifar10_dataset([p.strip() for p in cfg.train_files.split(",") if p.strip()])
        test = cifar10_dataset([p.strip() for p in cfg.test_files.split(",") if p.strip()])
    else:
        raise ConfigError(f"unknown dataset '{cfg.dataset}'")
    if cfg.train_limit:
        train = train.take(cfg.train_limit)
    if cfg.test_limit:
        test = test.take(cfg.test_limit)
    if len(train) < cfg.batch_size:
        raise ConfigError(f"train split holds {len(train)} images, fewer than one batch")
    if len(test) == 0:
        raise ConfigError("test split is empty")
    return train, test


class Trainer:
    def __init__(self, cfg: ExperimentConfig, model: Model, train_ds: Dataset,
                 test_ds: Dataset):
        self.cfg = cfg
        self.model = model
        self.train_ds = train_ds
        self.test_ds = test_ds
        self.prunable = {ref.name: ref for ref in model.prunable()}
        self.strategies: dict[str, StrategyState] = {}
        self.scorers: dict[str, ChannelScorer] = {}
        self.maps: dict[str, InfluenceMap] = {}
        self.plan: CompressionPlan | None = None
        self.global_epoch = 0
        self.completed: list[str] = []
        self.metrics: dict = {}
        self.phase_seconds: dict[str, float] = {}
        self.out_dir = Path(cfg.out_dir)
        self.stage: str | None = None  # stage id a failing train_step reports
        # per layer whose input narrowing cut, the inputs it still reads
        self._in_cols: dict[str, np.ndarray] = {}

    # -- data/loss plumbing ---------------------------------------------

    def _train_batches(self, epoch: int):
        return batches(self.train_ds, self.cfg.batch_size, epoch, self.cfg.seed,
                       train=True, crop_pad=self.cfg.crop_pad, flip=self.cfg.flip)

    def steps_per_epoch(self) -> int:
        return len(self.train_ds) // self.cfg.batch_size

    def _baseline_lr(self, epoch_in_phase: int) -> float:
        lr = self.cfg.lr
        for frac in self.cfg.lr_milestones:
            if epoch_in_phase >= int(frac * self.cfg.baseline_epochs):
                lr *= self.cfg.lr_decay
        return lr

    def train_step(self, x: np.ndarray, y: np.ndarray, active: str | None,
                   lr: float, step: int = 0) -> StepMetrics:
        """One optimization step; with an active layer the loss gains the
        weighted strategy term and the scorer trains jointly.

        A non-finite classification loss raises :class:`NumericalError`
        naming the stage, epoch and ``step`` before any gradient is applied.
        """
        cfg = self.cfg
        if active is not None:
            state = self.strategies[active]
            layer = self.prunable[active].layer
            schedule = self._schedule
            score_strategy(self.scorers[active], state, schedule.value(), self._map_in)
            layer.gate[:] = state.soft
        logits = self.model.forward(x, train=True)
        loss_cls, grad = softmax_cross_entropy(logits, y)
        if not math.isfinite(loss_cls):
            raise NumericalError(
                f"non-finite loss {loss_cls} in stage {self.stage or '(none)'}, epoch "
                f"{self.global_epoch}, step {step}; no update was applied")
        self.model.backward(grad)
        if active is not None:
            self._influence.add(x.shape[0])
            weight, s_loss = strategy_step(
                self.scorers[active], state, schedule, self._map_in,
                extra_grad_soft=layer.gate_grad, lr=self._scorer_lr,
                momentum=cfg.scorer_momentum)
        else:
            weight, s_loss = 0.0, 0.0
        sgd_step(self.model, lr, cfg.momentum, cfg.weight_decay)
        kept = self.strategies[active].kept if active else -1
        return StepMetrics(loss_cls + weight * s_loss, loss_cls, s_loss, weight,
                           self._schedule.value() if active else 0.0, kept)

    def evaluate(self, model: Model | None = None) -> float:
        """Top-1 accuracy (percent) on the test split, deterministic order."""
        model = model or self.model
        correct = total = 0
        for x, y in batches(self.test_ds, self.cfg.eval_batch, 0, self.cfg.seed, train=False):
            pred = model.forward(x, train=False).argmax(axis=1)
            correct += int((pred == y).sum())
            total += y.size
        return 100.0 * correct / total

    # -- stages -----------------------------------------------------------

    def _stage_baseline(self, phase: Phase) -> None:
        for e in range(phase.epochs):
            lr = self._baseline_lr(e)
            running = 0.0
            for i, (x, y) in enumerate(self._train_batches(self.global_epoch)):
                m = self.train_step(x, y, None, lr, step=i)
                running += m.loss_total
                if (i + 1) % self.cfg.log_every == 0:
                    log.info("baseline epoch %d step %d loss %.4f", e, i + 1,
                             running / (i + 1))
            self.global_epoch += 1
            log.info("baseline epoch %d done, mean loss %.4f", e,
                     running / max(1, self.steps_per_epoch()))

    def measure_influence(self) -> dict[str, np.ndarray]:
        """One update-free pass over the training data, summing the influence
        of every prunable layer; refreshes the stored maps and returns the
        per-channel influence vectors."""
        sums = {name: InfluenceSum(ref.layer) for name, ref in self.prunable.items()}
        for x, y in self._train_batches(self.global_epoch):
            logits = self.model.forward(x, train=True, update_stats=False)
            _, grad = softmax_cross_entropy(logits, y)
            self.model.backward(grad)
            for acc in sums.values():
                acc.add(x.shape[0])
        self.global_epoch += 1
        influences = {}
        for name, acc in sums.items():
            fresh = capture_influence(acc, name)
            self.maps[name] = ema_merge(None, fresh, self.cfg.ema_decay)
            influences[name] = channel_influence(fresh)
        return influences

    def _stage_measure(self, phase: Phase) -> None:
        """Model-wide influence measurement; fixes the plan for the whole run."""
        cfg = self.cfg
        self.metrics["baseline_acc"] = self.evaluate()
        cost = count_flops(self.model)
        self.metrics["flops_before"] = cost["total_flops"]
        self.metrics["params_before"] = cost["total_params"]
        log.info("baseline accuracy %.2f%%, %d FLOPs", self.metrics["baseline_acc"],
                 cost["total_flops"])
        influences = self.measure_influence()
        self.plan = build_plan(influences, cfg.rate)
        for name, ref in self.prunable.items():
            width = ref.layer.out_channels
            self.strategies[name] = StrategyState(
                layer=name, soft=np.full(width, 0.5), hard=np.ones(width, dtype=np.int64),
                target=self.plan.targets[name], history_cap=cfg.window)
        log.info("plan fixed: threshold %.6g, keeping %d of %d channels",
                 self.plan.threshold, self.plan.kept_channels, self.plan.total_channels)

    def _refresh_target(self, name: str) -> None:
        """Budget-preserving target refresh between anneal windows.

        Influence magnitudes drift while the network retrains around the
        gates, so comparing a refreshed map against the run-level threshold
        would let a layer's removal budget dissolve or balloon.  Instead the
        layer keeps the removal count the plan assigned it and re-selects
        which channels to drop by current influence rank (ties broken by
        channel index).
        """
        k0 = int((self.plan.targets[name] == 0).sum())
        infl = channel_influence(self.maps[name])
        target = np.ones(infl.size, dtype=np.int64)
        if k0 > 0:
            order = np.lexsort((np.arange(infl.size), infl))
            target[order[:k0]] = 0
        self.strategies[name].target = target

    def _start_prune(self, name: str, epochs: int) -> None:
        """Make ``name`` the active layer: a fresh influence sum for
        ``train_step`` to feed, an anneal over ``epochs`` epochs and a scorer
        over the layer's map."""
        cfg = self.cfg
        state = self.strategies[name]
        state.status = "active"
        state.history = []
        self._influence = InfluenceSum(self.prunable[name].layer)
        total = max(1, epochs * self.steps_per_epoch())
        self._schedule = SharpnessSchedule(cfg.anneal_start,
                                           cfg.anneal_start * cfg.anneal_end_factor, total,
                                           boost_factor=cfg.stall_boost)
        self._map_in = np.abs(self.maps[name].values)
        self.scorers[name] = ChannelScorer(self._map_in.shape[1:])
        self.scorers[name].rescale_for_spread(self._map_in, cfg.score_margin)
        self._scorer_lr = cfg.scorer_lr

    def _captured_map(self, name: str) -> InfluenceMap:
        """Drain the active layer's influence sum into a de-gated map at the
        layer's full width.  Input columns that narrowing removed read 0.0:
        they only ever multiplied zeros, so their gradient, and their
        influence, was exactly 0."""
        fresh = capture_influence(self._influence, name, degate=True)
        cols = self._in_cols.get(name)
        if cols is not None:
            values = np.zeros(fresh.values.shape[:1] + cols.shape + fresh.values.shape[2:])
            values[:, cols] = fresh.values
            fresh.values = values
        return fresh

    def _narrow(self, keep: dict[str, np.ndarray]) -> None:
        """Narrow the model over the open channels of ``keep``'s layers (see
        :meth:`Model.narrow`); strategies, targets and maps stay at full
        width."""
        self._in_cols.update(self.model.narrow(keep))
        self.prunable = {ref.name: ref for ref in self.model.prunable()}

    def _stage_prune(self, phase: Phase) -> None:
        cfg = self.cfg
        name = phase.layer
        ref = self.prunable[name]
        state = self.strategies[name]
        self._start_prune(name, phase.epochs)
        scorer = self.scorers[name]

        def recenter():
            state.center = anchor_center(scorer.score(self._map_in), state.target,
                                         self._schedule.value(), cfg.delta_bin)

        recenter()
        score_strategy(scorer, state, self._schedule.value(), self._map_in)
        if (np.minimum(state.soft, 1.0 - state.soft).max() <= cfg.delta_bin
                and np.array_equal(state.hard, state.target)):
            # already binary and on target at the current sharpness: nothing
            # to anneal (typical for an all-keep target)
            ref.layer.gate[:] = state.hard
            state.status = "skipped"
            self._narrow({name: state.hard.astype(bool)})
            log.info("prune %s: target already satisfied, skipping", name)
            return

        monitor = StrategyMonitor(cfg.window, cfg.delta_bin, cfg.stall_patience)
        converged = False
        step_count = 0
        # snapshot a few times per epoch even when epochs are short, else the
        # convergence window and the stall booster starve on small datasets
        eval_every = max(1, min(cfg.strategy_eval_every, self.steps_per_epoch() // 3))
        for epoch_i in range(cfg.max_prune_epochs):
            for i, (x, y) in enumerate(self._train_batches(self.global_epoch)):
                m = self.train_step(x, y, name, cfg.prune_lr, step=i)
                step_count += 1
                if step_count % eval_every == 0:
                    if monitor.observe(state, self._schedule):
                        converged = True
                        break
                    recenter()
            self.global_epoch += 1
            if converged:
                break
            if epoch_i < cfg.prune_epochs - 1 and self._influence.samples > 0:
                # between scheduled anneal windows: fold a de-gated influence
                # re-measurement into the running map and re-derive the target
                # against the fixed global threshold.  Extension epochs past
                # the schedule keep the target fixed so the strategy can
                # settle instead of chasing measurement drift.
                fresh = self._captured_map(name)
                self.maps[name] = ema_merge(self.maps[name], fresh, cfg.ema_decay)
                self._map_in = np.abs(self.maps[name].values)
                self._refresh_target(name)
            if epoch_i >= cfg.prune_epochs:
                self._scorer_lr *= 0.5
            recenter()
            log.info("prune %s epoch %d: kept %d/%d, sharpness %.4g, strategy loss %.4g",
                     name, epoch_i, state.kept, state.target.size,
                     self._schedule.value(), m.loss_strategy)
        if not converged:
            raise ConvergenceError(
                f"layer {name} did not reach a stable binary strategy within "
                f"{cfg.max_prune_epochs} epochs", soft_keep=state.soft.copy())
        state.hard = binarize(state.soft)
        ref.layer.gate[:] = state.hard
        state.status = "frozen"
        self._narrow({name: state.hard.astype(bool)})
        log.info("prune %s frozen: kept %d/%d channels", name, state.kept,
                 state.target.size)

    def _stage_finetune(self, phase: Phase) -> None:
        for e in range(phase.epochs):
            for i, (x, y) in enumerate(self._train_batches(self.global_epoch)):
                self.train_step(x, y, None, self.cfg.finetune_lr, step=i)
            self.global_epoch += 1
            log.info("finetune epoch %d done", e)

    # -- orchestration ------------------------------------------------------

    def phases(self) -> list[Phase]:
        cfg = self.cfg
        out = []
        if cfg.baseline_epochs > 0:
            out.append(Phase("baseline", None, cfg.baseline_epochs))
        out.append(Phase("measure", None, 1))
        for name in self.prunable:
            out.append(Phase("prune", name, cfg.prune_epochs))
        if cfg.finetune_epochs > 0:
            out.append(Phase("finetune", None, cfg.finetune_epochs))
        return out

    def run(self, until: str | None = None) -> None:
        """Execute every not-yet-completed stage (optionally stopping after
        ``until``), checkpointing at each stage boundary."""
        runners = {"baseline": self._stage_baseline, "measure": self._stage_measure,
                   "prune": self._stage_prune, "finetune": self._stage_finetune}
        for phase in self.phases():
            stage = phase.stage_id
            if stage in self.completed:
                continue
            t0 = time.perf_counter()
            self.stage = stage
            runners[phase.kind](phase)
            self.phase_seconds[stage] = self.phase_seconds.get(stage, 0.0) + (
                time.perf_counter() - t0)
            self.completed.append(stage)
            self.save(self.out_dir / f"checkpoint-{stage.replace(':', '-')}.ckpt")
            if until is not None and stage == until:
                return

    def finish(self) -> RunReport:
        """Compact, evaluate, and assemble the report (after all stages ran).

        Each prune stage narrowed its layer as it froze it, so the compacted
        model is a copy of ``self.model``: fresh arrays, no velocity."""
        t0 = time.perf_counter()
        pruning.frozen_keep(self.strategies)
        compacted = self.model.compact({})
        pruned_acc = self.evaluate(compacted)
        cost_after = count_flops(compacted)
        kept = sum(s.kept for s in self.strategies.values())
        total = sum(s.target.size for s in self.strategies.values())
        self.phase_seconds["compact"] = time.perf_counter() - t0
        report = RunReport(
            model=self.cfg.model, dataset=self.train_ds.name,
            rate_target=self.cfg.rate, rate_actual=1.0 - kept / total,
            baseline_acc=self.metrics["baseline_acc"], pruned_acc=pruned_acc,
            flops_before=self.metrics["flops_before"],
            flops_after=cost_after["total_flops"],
            params_before=self.metrics["params_before"],
            params_after=cost_after["total_params"],
            per_layer=[{"layer": n, "width": int(s.target.size), "kept": int(s.kept)}
                       for n, s in self.strategies.items()],
            phase_seconds=dict(self.phase_seconds),
            seed=self.cfg.seed, config=self.cfg.to_dict())
        self.metrics["pruned_acc"] = pruned_acc
        self.metrics["report"] = report.to_dict()
        self.compacted = compacted
        return report

    # -- persistence --------------------------------------------------------

    def save(self, path) -> Path:
        arrays = dict(self.model.state_arrays())
        for name, m in self.maps.items():
            arrays[f"map.{name}.values"] = m.values
        for name, s in self.strategies.items():
            arrays[f"strategy.{name}.soft"] = s.soft
            arrays[f"strategy.{name}.hard"] = s.hard
            arrays[f"strategy.{name}.target"] = s.target
        for name, sc in self.scorers.items():
            arrays[f"scorer.{name}.kernel"] = sc.kernel.data
            arrays[f"scorer.{name}.bias"] = sc.bias.data
        meta = {
            "config": self.cfg.to_dict(),
            "completed": self.completed,
            "global_epoch": self.global_epoch,
            "metrics": {k: v for k, v in self.metrics.items() if k != "report"},
            "phase_seconds": self.phase_seconds,
            "map_samples": {n: m.samples for n, m in self.maps.items()},
            "strategy_meta": {n: {"status": s.status, "center": s.center}
                              for n, s in self.strategies.items()},
            "plan": None if self.plan is None else
                    {"rate": self.plan.rate, "threshold": self.plan.threshold},
            "input_shape": list(self.model.input_shape),
            "classes": self.model.classes,
        }
        return save_checkpoint(path, meta, arrays)

    def load(self, path) -> None:
        meta, arrays = load_checkpoint(path)
        stored = ExperimentConfig.from_dict(meta["config"])
        diffs = [f"{f}: checkpoint {getattr(stored, f)!r}, config {getattr(self.cfg, f)!r}"
                 for f in RUN_FIELDS if getattr(stored, f) != getattr(self.cfg, f)]
        if diffs:
            raise ConfigError(f"checkpoint {path} belongs to a different run ("
                              + "; ".join(diffs) + ")")
        samples = meta.get("map_samples", {})
        maps, strategies, scorers = {}, {}, {}
        for name in self.prunable:
            key = f"map.{name}.values"
            if key in arrays:
                maps[name] = InfluenceMap(name, arrays[key], int(samples.get(name, 0)))
            skey = f"strategy.{name}.soft"
            if skey in arrays:
                s_meta = meta["strategy_meta"][name]
                strategies[name] = StrategyState(
                    layer=name, soft=arrays[skey], hard=arrays[f"strategy.{name}.hard"],
                    target=arrays[f"strategy.{name}.target"], center=float(s_meta["center"]),
                    status=s_meta["status"], history_cap=self.cfg.window)
            kkey = f"scorer.{name}.kernel"
            if kkey in arrays:
                scorers[name] = ChannelScorer(arrays[kkey].shape, kernel=arrays[kkey],
                                              bias=float(arrays[f"scorer.{name}.bias"][0]))
        # the stored model is narrowed over every frozen or skipped layer's
        # open channels; the fresh one gets the same shapes, drawing nothing
        closed = {n: s.hard.astype(bool) for n, s in strategies.items()
                  if s.status in ("frozen", "skipped") and not s.hard.all()}
        blocks, in_cols = list(self.model.blocks), dict(self._in_cols)
        try:
            if closed:
                self._narrow(closed)
            self.model.load_state_arrays(arrays)
        except ShapeError:
            # a refused state leaves the model as it was
            self.model.blocks[:], self._in_cols = blocks, in_cols
            self.prunable = {ref.name: ref for ref in self.model.prunable()}
            raise
        self.completed = list(meta["completed"])
        self.global_epoch = int(meta["global_epoch"])
        self.metrics = dict(meta["metrics"])
        self.phase_seconds = dict(meta["phase_seconds"])
        self.maps, self.strategies, self.scorers = maps, strategies, scorers
        if meta.get("plan"):
            targets = {n: self.strategies[n].target for n in self.prunable
                       if n in self.strategies}
            self.plan = CompressionPlan(meta["plan"]["rate"], meta["plan"]["threshold"],
                                        targets)


def run_pipeline(cfg: ExperimentConfig, resume_from=None) -> tuple[RunReport, Trainer]:
    """Build everything from a config, run (or resume) the full pipeline, and
    emit the report files into the output directory."""
    from .metrics import emit_report

    cfg.validate()
    train_ds, test_ds = load_datasets(cfg)
    model = build_model(cfg.model, train_ds.channels, train_ds.image_size, cfg.classes,
                        cfg.seed)
    trainer = Trainer(cfg, model, train_ds, test_ds)
    write_effective_config(cfg, cfg.out_dir)
    if resume_from is not None:
        trainer.load(resume_from)
    trainer.run()
    report = trainer.finish()
    trainer.save(trainer.out_dir / "checkpoint-final.ckpt")
    emit_report(report, cfg.out_dir)
    return report, trainer
