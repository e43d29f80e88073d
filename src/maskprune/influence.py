"""Per-weight influence capture and the learned keep/drop strategy.

Influence of a weight is the loss gradient w.r.t. a multiplicative mask on it
at m = 1, ``w * dL/dw`` — a first-order estimate of how much the loss would
move if the weight were wiped.  No mask is stored: where influence is read, an
:class:`InfluenceSum` adds ``w * dL/dw`` after each backward pass, and
:func:`capture_influence` drains it into an :class:`InfluenceMap`.

Channel-level decisions are produced by a tiny learned scorer: a single
kernel the size of one channel slab plus a scalar bias, shared across the
channels of a layer.  Its scalar outputs pass through a sharpness-scaled
sigmoid centered at an offset; annealing the sharpness drives the soft keep
probabilities to a hard 0/1 pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .layers import Parameter

#: a soft keep value below this is treated as a hard zero
BINARY_CUTOFF = 1e-6

_SIGMOID_CLIP = 50.0


@dataclass
class InfluenceMap:
    """Per-weight influence for one layer, averaged over the examples seen."""

    layer: str
    values: np.ndarray      # same shape as the layer's weights
    samples: int            # number of examples aggregated

    @property
    def channels(self) -> int:
        return self.values.shape[0]


class InfluenceSum:
    """One masked layer's summed influence and the examples it covers."""

    def __init__(self, layer):
        self.layer = layer
        self.total = np.zeros_like(layer.weight.data)
        self.samples = 0

    def add(self, batch: int) -> None:
        """Add the last backward pass over ``batch`` examples; call it before
        the weights are updated."""
        weight = self.layer.weight
        self.total += weight.grad * weight.data
        self.samples += batch


def capture_influence(acc: InfluenceSum, name: str | None = None,
                      degate: bool = False) -> InfluenceMap:
    """Drain an influence sum into an InfluenceMap (the per-example mean).

    The sum is zeroed and the sample counter reset.  With ``degate`` the slab
    of every channel is divided by the layer's current gate value (channels
    gated below :data:`~maskprune.layers.DELTA_FREEZE`, which are frozen, are
    left as-is): during soft gating the influence scales linearly with the
    applied gate, which is instrumentation, not importance, so measurements
    stay commensurate with a threshold that was calibrated on the ungated
    network.
    """
    if acc.samples <= 0:
        raise ShapeError("influence capture with empty accumulator (no samples seen)")
    values = acc.total / float(acc.samples)
    if degate:
        scale = np.where(acc.layer.frozen, 1.0, acc.layer.gate)
        values = values / scale.reshape((-1,) + (1,) * (values.ndim - 1))
    fresh = InfluenceMap(name or "layer", values, acc.samples)
    acc.total.fill(0.0)
    acc.samples = 0
    return fresh


def channel_influence(infl_map: InfluenceMap) -> np.ndarray:
    """Reduce a per-weight map to one number per channel: the sum of
    magnitudes over the channel's slab, so positive and negative per-weight
    influences cannot cancel."""
    vals = np.abs(infl_map.values)
    return vals.sum(axis=tuple(range(1, vals.ndim)))


def ema_merge(running: InfluenceMap | None, fresh: InfluenceMap, rho: float = 0.9) -> InfluenceMap:
    """Exponential moving average of influence maps.

    ``running`` may be None for the first window, in which case the fresh map
    is adopted unchanged.
    """
    if not (0.0 <= rho < 1.0):
        raise ShapeError(f"ema decay must be in [0, 1), got {rho}")
    if running is None:
        return InfluenceMap(fresh.layer, fresh.values.copy(), fresh.samples)
    if running.values.shape != fresh.values.shape:
        raise ShapeError(
            f"ema merge shape mismatch: {running.values.shape} vs {fresh.values.shape}"
        )
    merged = rho * running.values + (1.0 - rho) * fresh.values
    return InfluenceMap(fresh.layer, merged, running.samples + fresh.samples)


class ChannelScorer:
    """One learnable kernel (the size of a channel slab) plus a scalar bias.

    The score of channel ``k`` is the inner product of the kernel with that
    channel's slab of the influence map, plus the bias.  The kernel is shared
    across channels, so the scorer is a learned linear functional on slabs.
    """

    def __init__(self, slab_shape: tuple[int, ...], kernel: np.ndarray | None = None,
                 bias: float = 0.0):
        if kernel is None:
            size = int(np.prod(slab_shape))
            kernel = np.full(slab_shape, 1.0 / size)
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.shape != tuple(slab_shape):
            raise ShapeError(
                f"scorer kernel shape {kernel.shape} does not match slab {tuple(slab_shape)}"
            )
        self.kernel = Parameter(kernel)
        self.bias = Parameter(np.array([float(bias)]))

    def score(self, map_values: np.ndarray) -> np.ndarray:
        """s[k] = <kernel, slab_k> + bias for every channel k."""
        if map_values.shape[1:] != self.kernel.data.shape:
            raise ShapeError(
                f"map slab shape {map_values.shape[1:]} does not match scorer kernel "
                f"{self.kernel.data.shape}"
            )
        flat = map_values.reshape(map_values.shape[0], -1)
        return flat @ self.kernel.data.reshape(-1) + self.bias.data[0]

    def rescale_for_spread(self, map_values: np.ndarray, target_spread: float) -> None:
        """Scale the kernel so initial scores have a usable dynamic range.

        The sharpness anneal ends at a fixed value, so the score spread
        decides whether the sigmoid can actually saturate; this normalizes
        the median absolute deviation from the median score to
        ``target_spread``.
        """
        s = self.score(map_values)
        dev = np.median(np.abs(s - np.median(s)))
        if dev <= 0:
            dev = np.max(np.abs(s)) or 1.0
        self.kernel.data *= target_spread / dev

    def param_groups(self):
        yield self.kernel, None
        yield self.bias, None


def scaled_sigmoid(sharpness: float, scores: np.ndarray, center: float) -> np.ndarray:
    """Soft keep probabilities: 1 / (1 + exp(-sharpness * (s - center))).

    The exponent is clipped so extreme scores saturate without overflow while
    staying strictly inside (0, 1).
    """
    if sharpness <= 0:
        raise ShapeError(f"sigmoid sharpness must be positive, got {sharpness}")
    z = np.clip(sharpness * (np.asarray(scores, dtype=np.float64) - center),
                -_SIGMOID_CLIP, _SIGMOID_CLIP)
    return 1.0 / (1.0 + np.exp(-z))


def binarize(soft: np.ndarray) -> np.ndarray:
    """Hard keep pattern: 0 where the soft value is strictly below
    :data:`BINARY_CUTOFF`."""
    return (np.asarray(soft) >= BINARY_CUTOFF).astype(np.int64)


def scorer_gradients(scorer: ChannelScorer, map_values: np.ndarray, soft: np.ndarray,
                     grad_soft: np.ndarray, sharpness: float) -> tuple[np.ndarray, np.ndarray]:
    """Chain-rule gradients for the scorer parameters.

    ``grad_soft`` is dLoss/dE; through the sigmoid dE/ds = sharpness*E*(1-E),
    and the score is linear in the kernel with slope = the channel slab.
    Returns ``(grad_kernel, grad_bias)``; the center offset is treated as a
    constant (it is only recomputed between annealing stages).
    """
    grad_s = grad_soft * sharpness * soft * (1.0 - soft)
    flat = map_values.reshape(map_values.shape[0], -1)
    grad_kernel = (grad_s @ flat).reshape(scorer.kernel.data.shape)
    grad_bias = np.array([grad_s.sum()])
    return grad_kernel, grad_bias


@dataclass
class StrategyState:
    """Mutable pruning-strategy state for one prunable layer."""

    layer: str
    soft: np.ndarray                  # soft keep probabilities, in (0, 1)
    hard: np.ndarray                  # current hard keep pattern (0/1)
    target: np.ndarray                # target keep pattern from the global plan
    center: float = 0.0               # sigmoid center offset
    status: str = "pending"           # pending | active | frozen | skipped
    history: list = field(default_factory=list)   # recent soft snapshots
    history_cap: int = 3

    def snapshot(self) -> None:
        self.history.append(self.soft.copy())
        if len(self.history) > self.history_cap:
            self.history.pop(0)

    @property
    def kept(self) -> int:
        return int(self.hard.sum())
