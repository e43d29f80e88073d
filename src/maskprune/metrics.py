"""Cost accounting and the end-of-run report.

FLOPs counting convention: one multiply-accumulate is two FLOPs; only conv
and linear layers are counted (bias adds, batch norm, activations, and
pooling are excluded).  A convolution writing an Ho x Wo map therefore costs
``Cout * Cin * Kh * Kw * Ho * Wo`` MACs.  On a gated model, channels gated
below :data:`~maskprune.layers.DELTA_FREEZE` do not count, so the numbers
match what physical compaction produces.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ShapeError
from .models import ConvBlock, FlattenBlock, LinearBlock, Model, PoolBlock, ResidualBlock
from .tensor import conv_output_hw


def _active(layer) -> int:
    """Output channels of ``layer`` that are not frozen."""
    return int((~layer.frozen).sum())


def _conv_cost(cout: int, cin: int, kh: int, kw: int, ho: int, wo: int) -> int:
    return cout * cin * kh * kw * ho * wo


def count_flops(model: Model, input_hw: int | None = None) -> dict:
    """Per-layer and total MACs/FLOPs/parameter counts for a model.

    Channels with an off gate are excluded, so a gated model costs what its
    compaction does.
    """
    c, h, w = model.input_shape
    if input_hw is not None:
        h = w = input_hw
    active_in = c
    layers = []

    def add(name, kind, macs, params):
        layers.append({"name": name, "kind": kind, "macs": int(macs),
                       "flops": int(2 * macs), "params": int(params)})

    for block in model.blocks:
        if isinstance(block, ConvBlock):
            conv = block.conv
            kh, kw = conv.weight.shape[2:]
            out_active = _active(conv)
            ho, wo = conv_output_hw(h, w, kh, kw, conv.stride, conv.padding)
            params = out_active * active_in * kh * kw + out_active
            if block.bn is not None:
                params += 2 * out_active
            add(block.name, "conv", _conv_cost(out_active, active_in, kh, kw, ho, wo), params)
            if block.pool is not None:
                ho, wo = block.pool.out_hw(ho, wo)
            h, w, active_in = ho, wo, out_active
        elif isinstance(block, ResidualBlock):
            w1 = block.conv1.weight.shape
            w2 = block.conv2.weight.shape
            internal = _active(block.conv1)
            ho, wo = conv_output_hw(h, w, w1[2], w1[3], block.conv1.stride, block.conv1.padding)
            macs = _conv_cost(internal, active_in, w1[2], w1[3], ho, wo)
            macs += _conv_cost(w2[0], internal, w2[2], w2[3], ho, wo)
            params = internal * active_in * w1[2] * w1[3] + internal + 2 * internal
            params += w2[0] * internal * w2[2] * w2[3] + w2[0] + 2 * w2[0]
            if block.ds_conv is not None:
                dw = block.ds_conv.weight.shape
                macs += _conv_cost(dw[0], active_in, dw[2], dw[3], ho, wo)
                params += dw[0] * active_in * dw[2] * dw[3] + dw[0] + 2 * dw[0]
            add(block.name, "res", macs, params)
            h, w, active_in = ho, wo, w2[0]
        elif isinstance(block, PoolBlock):
            pass  # global average pooling: channel count unchanged, no MACs
        elif isinstance(block, FlattenBlock):
            active_in = active_in * h * w
        elif isinstance(block, LinearBlock):
            out_active = _active(block.linear)
            add(block.name, "fc", out_active * active_in, out_active * active_in + out_active)
            active_in = out_active
        else:
            raise ShapeError(f"cannot count cost of block type {type(block).__name__}")
    total_macs = sum(l["macs"] for l in layers)
    total_params = sum(l["params"] for l in layers)
    return {"layers": layers, "total_macs": total_macs, "total_flops": 2 * total_macs,
            "total_params": total_params}


@dataclass
class RunReport:
    """Everything the pipeline measured, with the derived deltas."""

    model: str
    dataset: str
    rate_target: float
    rate_actual: float
    baseline_acc: float
    pruned_acc: float
    flops_before: int
    flops_after: int
    params_before: int
    params_after: int
    acc_drop: float = field(init=False)
    flops_reduction: float = field(init=False)
    params_reduction: float = field(init=False)
    per_layer: list = field(default_factory=list)
    phase_seconds: dict = field(default_factory=dict)
    seed: int = 0
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        # accuracy drop is baseline minus pruned: negative means the pruned
        # model improved
        self.acc_drop = self.baseline_acc - self.pruned_acc
        self.flops_reduction = 1.0 - (self.flops_after / self.flops_before
                                      if self.flops_before else 1.0)
        self.params_reduction = 1.0 - (self.params_after / self.params_before
                                       if self.params_before else 1.0)

    def to_dict(self) -> dict:
        return asdict(self)

    def comparable(self) -> dict:
        """All content except wall-clock timings and artifact paths, for
        determinism checks."""
        d = self.to_dict()
        d.pop("phase_seconds")
        if "out_dir" in d.get("config", {}):
            d["config"] = {k: v for k, v in d["config"].items() if k != "out_dir"}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        d = dict(d)
        for derived in ("acc_drop", "flops_reduction", "params_reduction"):
            d.pop(derived, None)
        return cls(**d)


_CSV_COLUMNS = ["model", "dataset", "baseline_acc", "pruned_acc", "acc_drop",
                "flops_reduction", "params_reduction", "r_target", "r_actual"]


def emit_report(report: RunReport, out_dir) -> list[Path]:
    """Write the report as ``report.json`` and a one-row ``report.csv``.

    Floats are written with full precision (repr round-trip), so parsing the
    files back reproduces every numeric field exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    json_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    csv_path = out_dir / "report.csv"
    row = {
        "model": report.model,
        "dataset": report.dataset,
        "baseline_acc": repr(report.baseline_acc),
        "pruned_acc": repr(report.pruned_acc),
        "acc_drop": repr(report.acc_drop),
        "flops_reduction": repr(report.flops_reduction),
        "params_reduction": repr(report.params_reduction),
        "r_target": repr(report.rate_target),
        "r_actual": repr(report.rate_actual),
    }
    with open(csv_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        writer.writerow(row)
    return [json_path, csv_path]


def load_report_json(path) -> RunReport:
    return RunReport.from_dict(json.loads(Path(path).read_text()))


def load_report_csv(path) -> dict:
    """Parse the one-row summary CSV back into typed values."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != 1:
        raise ShapeError(f"{path}: expected exactly one report row, found {len(rows)}")
    row = rows[0]
    return {k: (row[k] if k in ("model", "dataset") else float(row[k])) for k in _CSV_COLUMNS}
