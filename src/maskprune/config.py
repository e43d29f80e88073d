"""Experiment configuration: a flat, typed key-value text format.

One ``key = value`` assignment per line, ``#`` starts a comment.  Every key
must be a known field of :class:`ExperimentConfig`; unknown keys are rejected
by name so typos cannot silently fall back to defaults.  A value is parsed as
its field's declared type: ``str`` as written, ``int``, ``float``, or ``bool``
(``true/yes/1/on`` or ``false/no/0/off``).  A string value holds no ``#``,
line break, or leading or trailing whitespace, so :func:`config_text` writes
one that parses back.  Settings with one value in use are module constants
where they are used, not fields.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

#: per numeric field, the range a valid value lies in: its wording and its test
_RANGES = {
    "batch_size": (">= 2", lambda v: v >= 2),
    "rate": ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
    **dict.fromkeys(("lr", "prune_lr", "finetune_lr"), ("> 0", lambda v: v > 0)),
    **dict.fromkeys(("baseline_epochs", "finetune_epochs", "synthetic_train",
                     "synthetic_test", "crop_pad"), (">= 0", lambda v: v >= 0)),
    **dict.fromkeys(("eval_batch", "log_every", "prune_epochs", "max_prune_epochs"),
                    (">= 1", lambda v: v >= 1)),
}


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
    classes: int = 10
    batch_size: int = 128
    eval_batch: int = 512
    crop_pad: int = 2
    flip: bool = False

    # compression
    rate: float = 0.4                   # fraction of channels to remove

    # optimization
    lr: float = 0.1                     # baseline lr, see trainer.LR_MILESTONES
    baseline_epochs: int = 8
    prune_epochs: int = 2               # planned anneal length per layer
    max_prune_epochs: int = 12          # hard cap before reporting failure
    finetune_epochs: int = 2
    prune_lr: float = 0.02
    finetune_lr: float = 0.02

    # run control
    seed: int = 0
    out_dir: str = "runs/out"
    log_every: int = 50

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or len(value.splitlines()) > 1):
                raise ConfigError(f"{f.name} must hold no '#', line break, or leading or "
                                  f"trailing whitespace, got {value!r}")
            if f.name in _RANGES and not _RANGES[f.name][1](value):
                raise ConfigError(f"{f.name} must be {_RANGES[f.name][0]}, got {value}")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        unknown = sorted(set(d) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
        return cls(**d).validate()


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str, line_no: int):
    # annotations are strings here (``from __future__ import annotations``)
    ftype = {"str": str, "int": int, "float": float, "bool": bool}[_FIELDS[key].type]
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
        return raw
    except ValueError:
        raise ConfigError(
            f"line {line_no}: cannot parse value {raw!r} for key '{key}' as {ftype.__name__}"
        ) from None


def parse_config(path) -> ExperimentConfig:
    """Read a flat key-value config file; unknown keys are an error."""
    cfg = ExperimentConfig()
    text = Path(path).read_text()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {line_no}: unknown configuration key '{key}'")
        setattr(cfg, key, _parse_value(key, raw, line_no))
    return cfg.validate()


def config_text(cfg: ExperimentConfig) -> str:
    """Render the effective configuration in the same flat format it is
    parsed from (round-trips through parse_config)."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
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
