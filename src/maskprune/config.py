"""Experiment configuration: a flat, typed key-value text format.

One ``key = value`` assignment per line, ``#`` starts a comment.  Every key
must be a known field of :class:`ExperimentConfig`; unknown keys are rejected
by name so typos cannot silently fall back to defaults.  Values are parsed
according to the field's declared type.  Keys of settings now fixed in code
(:data:`RETIRED_KEYS`) are accepted only at the value in force, so older
configs and checkpoints still load but never silently change a run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .influence import BINARY_CUTOFF
from .layers import DELTA_FREEZE
from .pruning import STRATEGY_WEIGHT_SCALE


@dataclass
class ExperimentConfig:
    # model / data
    model: str = "tiny-cnn"
    dataset: str = "synthetic"          # synthetic | mnist | cifar10
    train_images: str = ""              # IDX paths (mnist)
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_files: str = ""               # comma-separated CIFAR-10 .bin files
    test_files: str = ""
    synthetic_train: int = 5000
    synthetic_test: int = 1000
    train_limit: int = 0                # 0 = use everything
    test_limit: int = 0
    classes: int = 10
    batch_size: int = 128
    eval_batch: int = 512
    crop_pad: int = 2
    flip: bool = False

    # compression
    rate: float = 0.4                   # fraction of channels to remove
    ema_decay: float = 0.9
    delta_bin: float = 0.01
    window: int = 3
    score_margin: float = 14.0          # initial score-spread normalization

    # sharpness anneal (one schedule for conv and fc layers)
    anneal_start: float = 0.01
    anneal_end_factor: float = 100.0
    stall_boost: float = 2.0
    stall_patience: int = 3
    strategy_eval_every: int = 20

    # optimization
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay: float = 0.1
    lr_milestones: tuple = (0.5, 0.75)  # fractions of baseline epochs
    baseline_epochs: int = 8
    prune_epochs: int = 2               # planned anneal length per layer
    max_prune_epochs: int = 12          # hard cap before reporting failure
    finetune_epochs: int = 2
    prune_lr: float = 0.02
    finetune_lr: float = 0.02
    scorer_lr: float = 0.05
    scorer_momentum: float = 0.9

    # run control
    seed: int = 0
    out_dir: str = "runs/out"
    log_every: int = 50

    def validate(self) -> "ExperimentConfig":
        if not (0.0 <= self.rate < 1.0):
            raise ConfigError(f"rate must be in [0, 1), got {self.rate}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.anneal_start <= 0:
            raise ConfigError("anneal_start must be positive")
        if self.anneal_end_factor < 1:
            raise ConfigError("anneal_end_factor must be >= 1")
        if not (0.0 <= self.ema_decay < 1.0):
            raise ConfigError(f"ema_decay must be in [0, 1), got {self.ema_decay}")
        if not (0.0 < self.delta_bin < 0.5):
            raise ConfigError(f"delta_bin must be in (0, 0.5), got {self.delta_bin}")
        if not self.score_margin > 0:
            raise ConfigError(f"score_margin must be positive, got {self.score_margin}")
        if not self.stall_boost >= 1:  # a boost below 1 would lower the sharpness
            raise ConfigError(f"stall_boost must be >= 1, got {self.stall_boost}")
        if self.window < 1 or self.stall_patience < 1:
            raise ConfigError("window and stall_patience must be >= 1")
        for name in ("baseline_epochs", "prune_epochs", "finetune_epochs", "train_limit",
                     "test_limit", "synthetic_train", "synthetic_test", "crop_pad"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("eval_batch", "log_every", "strategy_eval_every", "max_prune_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        return self

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["lr_milestones"] = list(self.lr_milestones)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        retired = {k: d.pop(k) for k in list(d) if k in RETIRED_KEYS}
        unknown = sorted(set(d) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
        if "lr_milestones" in d:
            d["lr_milestones"] = tuple(d["lr_milestones"])
        return _check_retired(cls(**d).validate(), retired)


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _in_force(cfg: ExperimentConfig) -> dict:
    """The value each retired key must hold under ``cfg``: the fc anneal pair
    follows the conv pair, the rest are module constants."""
    return {"influence_mode": "absolute", "scorer_input": "absolute",
            "binary_cutoff": BINARY_CUTOFF, "delta_freeze": DELTA_FREEZE,
            "strategy_weight_scale": STRATEGY_WEIGHT_SCALE,
            "anneal_start_fc": cfg.anneal_start, "anneal_end_factor_fc": cfg.anneal_end_factor}


#: keys of settings that are no longer configurable
RETIRED_KEYS = frozenset(_in_force(ExperimentConfig()))


def _check_retired(cfg: ExperimentConfig, retired: dict) -> ExperimentConfig:
    """Accept each retired key (raw text or a loaded value) only at the value
    in force; refuse any other, naming the key and both values."""
    in_force = _in_force(cfg)
    for key, value in retired.items():
        want = in_force[key]
        try:
            same = type(want)(value) == want
        except (TypeError, ValueError):
            same = False
        if not same:
            raise ConfigError(f"'{key}' is no longer configurable: fixed at {want!r}, "
                              f"got {value!r}")
    return cfg


def _parse_value(key: str, raw: str, line_no: int):
    f = _FIELDS[key]
    ftype = f.type if isinstance(f.type, type) else {"str": str, "int": int, "float": float,
                                                     "bool": bool, "tuple": tuple}[f.type]
    try:
        if ftype is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if ftype is int:
            return int(raw)
        if ftype is float:
            return float(raw)
        if ftype is tuple:
            return tuple(float(part) for part in raw.split(",") if part.strip())
        return raw
    except ValueError:
        raise ConfigError(
            f"line {line_no}: cannot parse value {raw!r} for key '{key}' as {ftype.__name__}"
        ) from None


def parse_config(path) -> ExperimentConfig:
    """Read a flat key-value config file; unknown keys are an error."""
    cfg = ExperimentConfig()
    retired = {}
    text = Path(path).read_text()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in RETIRED_KEYS:
            retired[key] = raw
            continue
        if key not in _FIELDS:
            raise ConfigError(f"line {line_no}: unknown configuration key '{key}'")
        setattr(cfg, key, _parse_value(key, raw, line_no))
    return _check_retired(cfg.validate(), retired)


def config_text(cfg: ExperimentConfig) -> str:
    """Render the effective configuration in the same flat format it is
    parsed from (round-trips through parse_config)."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def write_effective_config(cfg: ExperimentConfig, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "effective-config.txt"
    path.write_text(config_text(cfg))
    return path
