"""Training pipeline: baseline fit, influence measurement, per-layer strategy
annealing with joint loss, fine-tuning, and compaction.

Stage order: ``baseline`` -> ``measure`` (model-wide influence, computed once,
fixing the global threshold and per-layer targets) -> one ``prune:<layer>``
stage per prunable layer from input to output -> ``finetune`` -> compact,
evaluate, report.  A checkpoint is written after every stage, and a run can
resume from any of them; batch order, augmentation, and initialization are
pure functions of (seed, epoch/index), so a resumed run replays exactly.
Every run, :func:`run_pipeline` and each command, opens through
:meth:`Trainer.from_config`; :meth:`Trainer.run` writes the effective config,
and :meth:`Trainer.finish` refuses a run with a stage left.

During a layer's prune stage its gates carry the soft keep probabilities, so
classification gradients flow into the scorer while the sharpness anneal
pushes the probabilities to 0/1 ("false pruning").  The stage's one
:class:`LayerAnneal` owns the layer, its influence sum, the scorer, the anneal
schedule and the :class:`StrategyMonitor` counters; it is passed to each
``train_step`` and dropped when the stage returns.  The monitor freezes the
layer once its last :data:`WINDOW` snapshots are nearly binary with one hard
pattern, the target.  When the stage freezes the layer, or skips it with a
channel closed, `Model.narrow` removes the closed channels from the trained
model, along with the input columns that read them, so later stages train
only open channels.  Strategies, targets and influence maps stay at full
width; the active layer's influence is scattered back to it, with 0.0 in the
input columns narrowing removed (their gradient was exactly 0, since they only
ever multiplied zeros).  Unlike a full-width run, weight decay no longer
shrinks those columns; they never reach the compacted model either way.  At
the end every layer is narrowed, so the compacted model is a copy.

A checkpoint records the trainer's :data:`STATE_FORMAT`, and a load refuses
any other format before it reads anything else.  Format 2 holds the narrowed
arrays, the influence maps, and each layer's soft keep vector, target and
status; a load narrows the fresh model from the hard patterns those soft
vectors binarize to first.  States written while format 2 also held hard
patterns, scorers and sigmoid centres load the same: nothing reads those.
So do states whose config holds a :data:`RETIRED_KEYS` key at its value.
Format 1, which carried no number, held every layer at full width.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, write_effective_config
from .data import Dataset, batches, cifar10_dataset, mnist_dataset, synthetic_dataset
from .errors import CheckpointError, ConfigError, ConvergenceError, NumericalError, ShapeError
from .influence import (
    BINARY_CUTOFF,
    ChannelScorer,
    InfluenceMap,
    InfluenceSum,
    StrategyState,
    capture_influence,
    channel_influence,
    ema_merge,
    scaled_sigmoid,
    scorer_gradients,
)
from .layers import SGD_MOMENTUM, WEIGHT_DECAY, sgd_step, softmax_cross_entropy
from .metrics import RunReport, count_flops, emit_report
from .models import Model, build_model
from .pruning import (
    CompressionPlan,
    SharpnessSchedule,
    build_plan,
    lambda_value,
    strategy_loss,
)

log = logging.getLogger("maskprune")

#: config fields that define a run: a checkpoint resumes only under a config
#: that agrees on every one.  The rest may differ: ``out_dir`` and ``log_every``
#: (a run may resume into a new directory) and the schedule, ``eval_batch``,
#: ``lr``, the four phase lengths, ``prune_lr`` and ``finetune_lr``
RUN_FIELDS = ("model", "dataset", "train_images", "train_labels", "test_images",
              "test_labels", "train_files", "test_files", "synthetic_train",
              "synthetic_test", "classes", "batch_size", "crop_pad", "flip", "rate",
              "seed")

#: what a trainer checkpoint holds; 1 (no number stored) kept every layer at
#: full width, 2 holds frozen and skipped layers narrowed
STATE_FORMAT = 2

#: scorer SGD step size and momentum; the step size halves each prune epoch
#: past the planned anneal
SCORER_LR = 0.05
SCORER_MOMENTUM = 0.9

#: median absolute deviation of a fresh scorer's scores from their median
SCORE_MARGIN = 14.0

#: training steps between strategy snapshots (fewer when an epoch is short)
STRATEGY_EVAL_EVERY = 20

#: snapshots with an unchanged, still-soft hard pattern before a stall boost
STALL_PATIENCE = 3

#: a strategy settles once its last WINDOW snapshots lie within DELTA_BIN of 0
#: or 1 and share one hard pattern
WINDOW = 3
DELTA_BIN = 0.01

#: a prune stage anneals the sigmoid sharpness from ANNEAL_START to
#: ANNEAL_START * ANNEAL_END_FACTOR over its planned epochs
ANNEAL_START = 0.01
ANNEAL_END_FACTOR = 100.0

#: the baseline lr is multiplied by LR_DECAY at each of these fractions of the
#: baseline epochs
LR_DECAY = 0.1
LR_MILESTONES = (0.5, 0.75)

#: config keys removed since format 2, with the value each was fixed at as a
#: checkpoint's JSON holds it; a load drops a stored key at that value and
#: refuses any other as unknown
RETIRED_KEYS = {"train_limit": 0, "test_limit": 0, "window": WINDOW, "delta_bin": DELTA_BIN,
                "anneal_start": ANNEAL_START, "anneal_end_factor": ANNEAL_END_FACTOR,
                "momentum": SGD_MOMENTUM, "weight_decay": WEIGHT_DECAY, "lr_decay": LR_DECAY,
                "lr_milestones": list(LR_MILESTONES)}


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


def anchor_center(scores: np.ndarray, target: np.ndarray, sharpness: float,
                  delta_bin: float = DELTA_BIN) -> float:
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
    (``state.hard`` is their binary pattern)."""
    state.soft = scaled_sigmoid(sharpness, scorer.score(map_in), state.center)


def strategy_step(scorer: ChannelScorer, state: StrategyState, schedule: SharpnessSchedule,
                  map_in: np.ndarray, extra_grad_soft: np.ndarray | None = None,
                  lr: float = SCORER_LR,
                  momentum: float = SCORER_MOMENTUM) -> tuple[float, float]:
    """One refinement step of a layer's keep strategy.

    ``state.soft`` must hold the keep vector at the schedule's current
    sharpness, as :func:`score_strategy` leaves it (a training step scores
    once, before its forward pass, and the step reuses that).  Weights the
    strategy loss, folds in any gradient arriving from the classification
    path (``extra_grad_soft``), updates the scorer, and advances the anneal.
    Returns ``(strategy_weight, strategy_loss)``.
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
    """Snapshot bookkeeping for one prune stage: the settle rule and the stall
    booster."""

    def __init__(self, window: int = WINDOW, delta_bin: float = DELTA_BIN,
                 patience: int = STALL_PATIENCE):
        self.window = window
        self.delta_bin = delta_bin
        self.patience = patience
        self._stalls = 0
        # trailing snapshots within delta_bin of 0 or 1 that share one pattern
        self._settled = 0
        self._prev_hard: np.ndarray | None = None

    def observe(self, state: StrategyState, schedule: SharpnessSchedule) -> bool:
        """Record a snapshot; True once the strategy has settled on target.

        A strategy settles when its last ``window`` snapshots are all within
        ``delta_bin`` of 0 or 1 and share one hard pattern, *and* that pattern
        equals the target: entries parked between the binarization cutoff and
        ``delta_bin`` satisfy the window rule while still binarizing as kept,
        and freezing there would silently under-prune.  A stall — hard
        pattern unchanged across ``patience`` consecutive snapshots while any
        entry is still above the cutoff — multiplies the remaining anneal by
        the schedule's boost factor, which is what drives those parked
        entries the rest of the way down.
        """
        hard, softness = state.hard, state.softness
        same = self._prev_hard is not None and np.array_equal(self._prev_hard, hard)
        if softness <= self.delta_bin:
            self._settled = self._settled + 1 if same and self._settled else 1
        else:
            self._settled = 0
        if self._settled >= self.window and np.array_equal(hard, state.target):
            return True
        if same and softness >= BINARY_CUTOFF:
            self._stalls += 1
            if self._stalls >= self.patience:
                schedule.apply_boost()
                log.info("strategy %s stalled at sharpness %.4g; boosting to %.4g",
                         state.layer, schedule.value() / schedule.boost_factor,
                         schedule.value())
                self._stalls = 0
        else:
            self._stalls = 0
        self._prev_hard = hard
        return False


class LayerAnneal:
    """One layer's prune stage: its strategy and layer, a fresh influence sum
    and scorer over the layer's map, an anneal over ``epochs`` epochs and the
    snapshot monitor.  ``in_cols`` are the inputs narrowing left the layer
    (None: all of them).  Building it recentres and scores the strategy."""

    def __init__(self, state: StrategyState, layer, infl_map: InfluenceMap, epochs: int,
                 steps_per_epoch: int, in_cols: np.ndarray | None = None):
        self.state = state
        self.layer = layer
        self.in_cols = in_cols
        self.influence = InfluenceSum(layer)
        self.schedule = SharpnessSchedule(ANNEAL_START, ANNEAL_START * ANNEAL_END_FACTOR,
                                          max(1, epochs * steps_per_epoch))
        self.map_in = np.abs(infl_map.values)
        self.scorer = ChannelScorer(self.map_in.shape[1:])
        self.scorer.rescale_for_spread(self.map_in, SCORE_MARGIN)
        self.scorer_lr = SCORER_LR
        self.monitor = StrategyMonitor()
        self.steps = 0
        # snapshot a few times per epoch even when epochs are short, else the
        # convergence window and the stall booster starve on small datasets
        self.eval_every = max(1, min(STRATEGY_EVAL_EVERY, steps_per_epoch // 3))
        self.settled = False
        self.recenter()
        score_strategy(self.scorer, state, self.schedule.value(), self.map_in)

    def recenter(self) -> None:
        """Re-anchor the sigmoid centre to the target (see :func:`anchor_center`)."""
        self.state.center = anchor_center(self.scorer.score(self.map_in), self.state.target,
                                          self.schedule.value(), self.monitor.delta_bin)

    def gate(self) -> None:
        """Score the strategy at the current sharpness into the layer's gates."""
        score_strategy(self.scorer, self.state, self.schedule.value(), self.map_in)
        self.layer.gate[:] = self.state.soft

    def step(self, batch: int) -> tuple[float, float]:
        """After the backward over ``batch`` examples: add the influence and
        step the scorer with the gates' gradient (see :func:`strategy_step`)."""
        self.influence.add(batch)
        self.steps += 1
        return strategy_step(self.scorer, self.state, self.schedule, self.map_in,
                             extra_grad_soft=self.layer.gate_grad, lr=self.scorer_lr)

    def observe(self) -> bool:
        """At every ``eval_every``-th step, snapshot the strategy and recentre
        unless it has settled; returns :attr:`settled`."""
        if self.steps % self.eval_every == 0:
            self.settled = self.monitor.observe(self.state, self.schedule)
            if not self.settled:
                self.recenter()
        return self.settled

    def capture(self) -> InfluenceMap:
        """Drain the influence sum into a de-gated map at the layer's full
        width.  Input columns that narrowing removed read 0.0: they only ever
        multiplied zeros, so their gradient, and influence, was exactly 0."""
        fresh = capture_influence(self.influence, self.state.layer, degate=True)
        if self.in_cols is not None:
            values = np.zeros((fresh.channels, self.in_cols.size, *fresh.values.shape[2:]))
            values[:, self.in_cols] = fresh.values
            fresh.values = values
        return fresh

    def refresh(self, running: InfluenceMap) -> InfluenceMap:
        """Fold a fresh capture into ``running`` and return the merged map;
        the scorer reads it from now on, and the target is re-ranked by it in
        place, so the plan, which shares the target array, follows.

        Influence drifts while the network retrains around the gates, so a
        refreshed map held against the run-level threshold would let the
        layer's removal budget dissolve or balloon.  Instead the target keeps
        its removal count, the plan's, and drops the channels of least
        influence, ties broken by channel index."""
        merged = ema_merge(running, self.capture())
        self.map_in = np.abs(merged.values)
        infl = channel_influence(merged)
        drop = int((self.state.target == 0).sum())
        self.state.target[:] = 1
        self.state.target[np.lexsort((np.arange(infl.size), infl))[:drop]] = 0
        return merged


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
    if len(train) < cfg.batch_size:
        raise ConfigError(f"train split holds {len(train)} images, fewer than one batch")
    if len(test) == 0:
        raise ConfigError("test split is empty")
    return train, test


class Trainer:
    @classmethod
    def from_config(cls, cfg: ExperimentConfig, resume_from=None) -> "Trainer":
        """Validate ``cfg``, load its datasets, build its model and, given a
        checkpoint ``resume_from``, resume from it."""
        cfg.validate()
        train_ds, test_ds = load_datasets(cfg)
        model = build_model(cfg.model, train_ds.channels, train_ds.image_size, cfg.classes,
                            cfg.seed)
        trainer = cls(cfg, model, train_ds, test_ds)
        if resume_from is not None:
            trainer.load(resume_from)
        return trainer

    def __init__(self, cfg: ExperimentConfig, model: Model, train_ds: Dataset,
                 test_ds: Dataset):
        self.cfg = cfg
        self.model = model
        self.train_ds = train_ds
        self.test_ds = test_ds
        self.strategies: dict[str, StrategyState] = {}
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

    @property
    def prunable(self) -> dict:
        """The model's prunable layers by name, at their current widths."""
        return {ref.name: ref for ref in self.model.prunable()}

    # -- data/loss plumbing ---------------------------------------------

    def _train_batches(self, epoch: int):
        return batches(self.train_ds, self.cfg.batch_size, epoch, self.cfg.seed,
                       train=True, crop_pad=self.cfg.crop_pad, flip=self.cfg.flip)

    def steps_per_epoch(self) -> int:
        return len(self.train_ds) // self.cfg.batch_size

    def _baseline_lr(self, epoch_in_phase: int) -> float:
        lr = self.cfg.lr
        for frac in LR_MILESTONES:
            if epoch_in_phase >= int(frac * self.cfg.baseline_epochs):
                lr *= LR_DECAY
        return lr

    def train_step(self, x: np.ndarray, y: np.ndarray, anneal: LayerAnneal | None,
                   lr: float, step: int = 0) -> StepMetrics:
        """One optimization step; with an ``anneal`` the loss gains its
        weighted strategy term and the scorer trains jointly.

        A non-finite classification loss, or a non-finite parameter or gate
        gradient after the backward, raises :class:`NumericalError` naming the
        stage, epoch and ``step`` before any gradient is applied.
        """
        if anneal is not None:
            anneal.gate()
        logits = self.model.forward(x, train=True)
        loss_cls, grad = softmax_cross_entropy(logits, y)
        self._check_finite(f"loss {loss_cls}", math.isfinite(loss_cls), step)
        self.model.backward(grad)
        grads = [p.grad for p, _ in self.model.param_groups()]
        if anneal is not None:
            grads.append(anneal.layer.gate_grad)
        self._check_finite(
            "gradient", all(g is None or np.isfinite(g).all() for g in grads), step)
        weight, s_loss = anneal.step(x.shape[0]) if anneal is not None else (0.0, 0.0)
        sgd_step(self.model, lr)
        return StepMetrics(loss_cls + weight * s_loss, loss_cls, s_loss)

    def _check_finite(self, what: str, finite: bool, step: int,
                      stage: str | None = None) -> None:
        """Raise :class:`NumericalError` naming ``what``, the stage, epoch and
        ``step`` unless ``finite``."""
        if not finite:
            raise NumericalError(
                f"non-finite {what} in stage {stage or self.stage or '(none)'}, epoch "
                f"{self.global_epoch}, step {step}; no update was applied")

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

    def _stage_train(self, phase: Phase) -> None:
        """Baseline or fine-tune epochs; only the learning rate differs."""
        for e in range(phase.epochs):
            lr = self._baseline_lr(e) if phase.kind == "baseline" else self.cfg.finetune_lr
            running = 0.0
            for i, (x, y) in enumerate(self._train_batches(self.global_epoch)):
                running += self.train_step(x, y, None, lr, step=i).loss_total
                if (i + 1) % self.cfg.log_every == 0:
                    log.info("%s epoch %d step %d loss %.4f", phase.kind, e, i + 1,
                             running / (i + 1))
            self.global_epoch += 1
            log.info("%s epoch %d done, mean loss %.4f", phase.kind, e,
                     running / max(1, self.steps_per_epoch()))

    def measure_influence(self) -> dict[str, np.ndarray]:
        """One update-free pass over the training data, summing the influence
        of every prunable layer; refreshes the stored maps and returns the
        per-channel influence vectors.  A non-finite loss raises
        :class:`NumericalError` naming stage ``measure`` before any map moves."""
        sums = {name: InfluenceSum(ref.layer) for name, ref in self.prunable.items()}
        for i, (x, y) in enumerate(self._train_batches(self.global_epoch)):
            logits = self.model.forward(x, train=True, update_stats=False)
            loss, grad = softmax_cross_entropy(logits, y)
            self._check_finite(f"loss {loss}", math.isfinite(loss), i, "measure")
            self.model.backward(grad)
            for acc in sums.values():
                acc.add(x.shape[0])
        self.global_epoch += 1
        influences = {}
        for name, acc in sums.items():
            fresh = capture_influence(acc, name)
            self.maps[name] = ema_merge(None, fresh)
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
            self.strategies[name] = StrategyState(name, np.full(width, 0.5),
                                                  target=self.plan.targets[name])
        log.info("plan fixed: threshold %.6g, keeping %d of %d channels",
                 self.plan.threshold, self.plan.kept_channels, self.plan.total_channels)

    def _close(self, name: str, status: str) -> None:
        """End ``name``'s prune stage with ``status``: its gate takes the hard
        pattern, and the model is narrowed over the open channels."""
        state = self.strategies[name]
        self.prunable[name].layer.gate[:] = state.hard
        state.status = status
        self._in_cols.update(self.model.narrow({name: state.hard.astype(bool)}))

    def _stage_prune(self, phase: Phase) -> None:
        cfg = self.cfg
        name = phase.layer
        state = self.strategies[name]
        state.status = "active"
        anneal = LayerAnneal(state, self.prunable[name].layer, self.maps[name], phase.epochs,
                             self.steps_per_epoch(), self._in_cols.get(name))
        if state.softness <= DELTA_BIN and np.array_equal(state.hard, state.target):
            # already binary and on target at the current sharpness: nothing
            # to anneal (typical for an all-keep target)
            self._close(name, "skipped")
            log.info("prune %s: target already satisfied, skipping", name)
            return

        for epoch_i in range(cfg.max_prune_epochs):
            for i, (x, y) in enumerate(self._train_batches(self.global_epoch)):
                m = self.train_step(x, y, anneal, cfg.prune_lr, step=i)
                if anneal.observe():
                    break
            self.global_epoch += 1
            if anneal.settled:
                break
            if epoch_i < cfg.prune_epochs - 1 and anneal.influence.samples > 0:
                # between scheduled anneal windows: fold a de-gated influence
                # re-measurement into the running map and re-rank the target.
                # Extension epochs past the schedule keep the target fixed so
                # the strategy can settle instead of chasing measurement drift.
                self.maps[name] = anneal.refresh(self.maps[name])
            if epoch_i >= cfg.prune_epochs:
                anneal.scorer_lr *= 0.5
            anneal.recenter()
            log.info("prune %s epoch %d: kept %d/%d, sharpness %.4g, strategy loss %.4g",
                     name, epoch_i, state.kept, state.target.size,
                     anneal.schedule.value(), m.loss_strategy)
        if not anneal.settled:
            raise ConvergenceError(
                f"layer {name} did not reach a stable binary strategy within "
                f"{cfg.max_prune_epochs} epochs", soft_keep=state.soft.copy())
        self._close(name, "frozen")
        log.info("prune %s frozen: kept %d/%d channels", name, state.kept,
                 state.target.size)

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
        """Write the effective config, then run every stage not yet completed
        up to and including ``until`` (default: all), checkpointing after
        each.  An ``until`` the run lacks raises :class:`ConfigError` first."""
        phases = self.phases()
        stages = [p.stage_id for p in phases]
        if until is not None and until not in stages:
            raise ConfigError(f"no stage '{until}' in this run; its stages are "
                              + ", ".join(stages))
        write_effective_config(self.cfg, self.out_dir)
        runners = {"baseline": self._stage_train, "measure": self._stage_measure,
                   "prune": self._stage_prune, "finetune": self._stage_train}
        for phase in phases:
            stage = phase.stage_id
            if stage not in self.completed:
                t0 = time.perf_counter()
                self.stage = stage
                runners[phase.kind](phase)
                self.phase_seconds[stage] = self.phase_seconds.get(stage, 0.0) + (
                    time.perf_counter() - t0)
                self.completed.append(stage)
                self.save(self.out_dir / f"checkpoint-{stage.replace(':', '-')}.ckpt")
            if stage == until:
                return

    def finish(self) -> RunReport:
        """Compact, evaluate, and assemble the report.  A run with a stage
        not yet completed raises :class:`ConfigError` naming those stages.

        Each prune stage narrowed its layer as it froze it, so the compacted
        model is a copy of ``self.model``: fresh arrays, no velocity."""
        missing = [p.stage_id for p in self.phases() if p.stage_id not in self.completed]
        if missing:
            raise ConfigError("run is not complete; remaining stages: " + ", ".join(missing))
        t0 = time.perf_counter()
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
        self.compacted = compacted
        return report

    # -- persistence --------------------------------------------------------

    def save(self, path) -> Path:
        arrays = dict(self.model.state_arrays())
        for name, m in self.maps.items():
            arrays[f"map.{name}.values"] = m.values
        for name, s in self.strategies.items():
            arrays[f"strategy.{name}.soft"] = s.soft
            arrays[f"strategy.{name}.target"] = s.target
        meta = {
            "state_format": STATE_FORMAT,
            "config": self.cfg.to_dict(),
            "completed": self.completed,
            "global_epoch": self.global_epoch,
            "metrics": self.metrics,
            "phase_seconds": self.phase_seconds,
            "map_samples": {n: m.samples for n, m in self.maps.items()},
            "strategy_meta": {n: {"status": s.status} for n, s in self.strategies.items()},
            "plan": None if self.plan is None else
                    {"rate": self.plan.rate, "threshold": self.plan.threshold},
        }
        return save_checkpoint(path, meta, arrays)

    def load(self, path) -> None:
        meta, arrays = load_checkpoint(path)
        found = meta.get("state_format", 1)
        if found != STATE_FORMAT:
            raise CheckpointError(f"checkpoint {path} holds trainer state format {found!r}; "
                                  f"this version reads format {STATE_FORMAT} only")
        stored = ExperimentConfig.from_dict({k: v for k, v in meta["config"].items()
                                             if k not in RETIRED_KEYS or v != RETIRED_KEYS[k]})
        diffs = [f"{f}: checkpoint {getattr(stored, f)!r}, config {getattr(self.cfg, f)!r}"
                 for f in RUN_FIELDS if getattr(stored, f) != getattr(self.cfg, f)]
        if diffs:
            raise ConfigError(f"checkpoint {path} belongs to a different run ("
                              + "; ".join(diffs) + ")")
        maps, strategies = {}, {}
        for name in self.prunable:
            key = f"map.{name}.values"
            if key in arrays:
                maps[name] = InfluenceMap(name, arrays[key], int(meta["map_samples"][name]))
            skey = f"strategy.{name}.soft"
            if skey in arrays:
                strategies[name] = StrategyState(
                    name, arrays[skey], target=arrays[f"strategy.{name}.target"],
                    status=meta["strategy_meta"][name]["status"])
        # the stored model is narrowed over every frozen or skipped layer's
        # open channels; the fresh one gets the same shapes, drawing nothing
        closed = {n: s.hard.astype(bool) for n, s in strategies.items()
                  if s.status in ("frozen", "skipped") and not s.hard.all()}
        blocks, in_cols = list(self.model.blocks), dict(self._in_cols)
        try:
            if closed:
                self._in_cols.update(self.model.narrow(closed))
            self.model.load_state_arrays(arrays)
        except ShapeError:
            # a refused state leaves the model as it was
            self.model.blocks[:], self._in_cols = blocks, in_cols
            raise
        self.completed = list(meta["completed"])
        self.global_epoch = int(meta["global_epoch"])
        self.metrics = dict(meta["metrics"])
        self.phase_seconds = dict(meta["phase_seconds"])
        self.maps, self.strategies = maps, strategies
        if meta.get("plan"):
            targets = {n: s.target for n, s in self.strategies.items()}
            self.plan = CompressionPlan(meta["plan"]["rate"], meta["plan"]["threshold"],
                                        targets)


def run_pipeline(cfg: ExperimentConfig, resume_from=None) -> tuple[RunReport, Trainer]:
    """Build a trainer from a config (see :meth:`Trainer.from_config`), run or
    resume the full pipeline, save ``checkpoint-final.ckpt`` and emit the
    report files into the output directory."""
    trainer = Trainer.from_config(cfg, resume_from)
    trainer.run()
    report = trainer.finish()
    trainer.save(trainer.out_dir / "checkpoint-final.ckpt")
    emit_report(report, cfg.out_dir)
    return report, trainer
