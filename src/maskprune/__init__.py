"""maskprune: influence-guided channel pruning for small CNNs on numpy.

The package trains a compact CNN, measures per-channel influence from mask
gradients, learns a binary keep/drop strategy per layer with a
sharpness-annealed sigmoid, fine-tunes, and physically compacts the network.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, parse_config
from .errors import (
    CheckpointError,
    ConfigError,
    ConvergenceError,
    DataError,
    MaskPruneError,
    NumericalError,
    ShapeError,
)
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
)
from .metrics import RunReport, count_flops, emit_report
from .models import Model, build_model
from .pruning import (
    CompressionPlan,
    SharpnessSchedule,
    build_plan,
    compact,
    has_converged,
    lambda_value,
    strategy_loss,
)
from .trainer import Trainer, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "BINARY_CUTOFF",
    "ChannelScorer",
    "CheckpointError",
    "CompressionPlan",
    "ConfigError",
    "ConvergenceError",
    "DataError",
    "ExperimentConfig",
    "InfluenceMap",
    "InfluenceSum",
    "MaskPruneError",
    "Model",
    "NumericalError",
    "RunReport",
    "ShapeError",
    "SharpnessSchedule",
    "StrategyState",
    "Trainer",
    "binarize",
    "build_model",
    "build_plan",
    "capture_influence",
    "channel_influence",
    "compact",
    "count_flops",
    "ema_merge",
    "emit_report",
    "has_converged",
    "lambda_value",
    "load_checkpoint",
    "parse_config",
    "run_pipeline",
    "save_checkpoint",
    "scaled_sigmoid",
    "strategy_loss",
]
