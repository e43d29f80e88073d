"""Compression planning: the global influence threshold, per-layer keep
targets, the strategy-loss weighting rule, and the sharpness anneal schedule.

The threshold is computed once, model-wide, from the baseline influence
measurement: with compression rate ``r`` and ``N`` prunable channels overall,
exactly ``ceil(r * N)`` channels are marked for removal — the ones with the
smallest influence, ties broken by (layer position, channel index) ascending.
Per-layer re-measurement later updates soft strategies but never moves the
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_DELTA_BIN, DEFAULT_WINDOW
from .errors import ShapeError
from .influence import binarize

#: multiplier in the strategy-loss weighting rule
STRATEGY_WEIGHT_SCALE = 5.0

#: factor a stalled anneal's remaining sharpness is multiplied by
STALL_BOOST = 2.0

#: fraction of would-be survivors force-kept when a whole layer falls under
#: the threshold
COLLAPSE_GUARD_FRACTION = 0.2


@dataclass
class CompressionPlan:
    """Result of global thresholding: rate, threshold, per-layer keep targets."""

    rate: float
    threshold: float
    targets: dict[str, np.ndarray]    # layer name -> 0/1 keep vector

    @property
    def total_channels(self) -> int:
        return sum(t.size for t in self.targets.values())

    @property
    def kept_channels(self) -> int:
        return int(sum(t.sum() for t in self.targets.values()))


def _check_rate(rate: float) -> None:
    if not (0.0 <= rate < 1.0):
        raise ShapeError(f"compression rate must be in [0, 1), got {rate}")


def _marked_order(influences: dict[str, np.ndarray]):
    """All (influence, layer position, channel) entries in removal order."""
    entries = []
    for pos, (layer, vals) in enumerate(influences.items()):
        for ch in range(vals.size):
            entries.append((float(vals[ch]), pos, ch, layer))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return entries


def _collapse_guard(influence: np.ndarray, rate: float) -> np.ndarray:
    """Keep vector for a layer with every channel marked: its top
    ``max(1, ceil(0.2 * (1 - rate) * width))`` channels by influence."""
    influence = np.asarray(influence, dtype=np.float64)
    keep = np.zeros(influence.size, dtype=np.int64)
    n_keep = max(1, math.ceil(COLLAPSE_GUARD_FRACTION * (1.0 - rate) * influence.size))
    # stable top-k: larger influence first, earlier index wins ties
    order = np.lexsort((np.arange(influence.size), -influence))
    keep[order[:n_keep]] = 1
    return keep


def build_plan(influences: dict[str, np.ndarray], rate: float) -> CompressionPlan:
    """Mark exactly ``ceil(rate * N)`` channels model-wide and derive per-layer
    keep targets (collapse guard applied per layer)."""
    _check_rate(rate)
    entries = _marked_order(influences)
    if not entries:
        raise ShapeError("cannot build a compression plan from an empty influence set")
    n_mark = math.ceil(rate * len(entries))
    threshold = entries[n_mark - 1][0] if n_mark else float("-inf")
    targets = {layer: np.ones(vals.size, dtype=np.int64) for layer, vals in influences.items()}
    for _, _, ch, layer in entries[:n_mark]:
        targets[layer][ch] = 0
    for layer, vals in influences.items():
        if targets[layer].sum() == 0:
            targets[layer] = _collapse_guard(vals, rate)
    return CompressionPlan(rate, threshold, targets)


def lambda_value(kept_target: int, kept_actual: int, total: int) -> float:
    """Weight of the strategy-matching loss term.

    Active only while actual retention is at or below the complement of the
    target retention (i.e. the layer has been thinned at least as far as the
    plan asks); then it grows with the distance from that boundary:
    ``STRATEGY_WEIGHT_SCALE * |kept_target/total + kept_actual/total - 1|``.
    """
    if total <= 0:
        raise ShapeError(f"layer width must be positive, got {total}")
    if not (0 <= kept_target <= total and 0 <= kept_actual <= total):
        raise ShapeError(
            f"keep counts out of range: target {kept_target}, actual {kept_actual}, "
            f"width {total}"
        )
    t = kept_target / total
    b = kept_actual / total
    if 1.0 - b >= t:
        return STRATEGY_WEIGHT_SCALE * abs(t + b - 1.0)
    return 0.0


def strategy_loss(soft: np.ndarray, target: np.ndarray) -> float:
    """Squared L2 distance between the soft keep vector and its target."""
    soft = np.asarray(soft, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if soft.shape != target.shape:
        raise ShapeError(f"strategy loss shape mismatch: {soft.shape} vs {target.shape}")
    diff = soft - target
    return float(diff @ diff)


@dataclass
class SharpnessSchedule:
    """Geometric anneal of the sigmoid sharpness, with a stall booster.

    The base trajectory runs from ``start`` to ``end`` over ``total_steps``;
    when the strategy stalls (hard pattern stable but entries still soft) the
    remaining schedule is multiplied by ``boost_factor``.  The value is
    monotone non-decreasing in the step count and never drops when boosted.
    """

    start: float
    end: float
    total_steps: int
    step: int = 0
    boost: float = 1.0
    boost_factor: float = STALL_BOOST

    def __post_init__(self):
        if not (self.start > 0 and self.end > 0):  # also refuses a NaN bound
            raise ShapeError(f"sharpness bounds must be positive, got {self.start}, {self.end}")
        if self.end < self.start:
            raise ShapeError(f"sharpness end {self.end} below start {self.start}")
        if self.total_steps < 1:
            raise ShapeError("schedule needs at least one step")
        if not self.boost_factor >= 1:  # a boost below 1 would lower the sharpness
            raise ShapeError(f"boost factor must be >= 1, got {self.boost_factor}")

    def value(self) -> float:
        frac = min(self.step, self.total_steps) / self.total_steps
        return self.start * (self.end / self.start) ** frac * self.boost

    def advance(self, steps: int = 1) -> None:
        self.step += steps

    def apply_boost(self) -> None:
        self.boost *= self.boost_factor


def has_converged(history: list[np.ndarray], delta_bin: float = DEFAULT_DELTA_BIN,
                  window: int = DEFAULT_WINDOW) -> bool:
    """True when the last ``window`` soft snapshots are all nearly binary and
    share one hard pattern."""
    if len(history) < window:
        return False
    recent = history[-window:]
    pattern = None
    for soft in recent:
        if np.minimum(soft, 1.0 - soft).max() > delta_bin:
            return False
        hard = binarize(soft)
        if pattern is None:
            pattern = hard
        elif not np.array_equal(pattern, hard):
            return False
    return True


def frozen_keep(strategies: dict) -> dict[str, np.ndarray]:
    """Each layer's frozen hard pattern as a boolean keep vector.

    Every prunable layer must hold a frozen strategy (or have been skipped
    with its target already met); refusing to compact a half-annealed model
    keeps the operation prediction-preserving.
    """
    keep = {}
    for name, state in strategies.items():
        if state.status not in ("frozen", "skipped"):
            raise ShapeError(
                f"cannot compact: strategy for layer {name} is {state.status}, not frozen"
            )
        keep[name] = state.hard.astype(bool)
    return keep

