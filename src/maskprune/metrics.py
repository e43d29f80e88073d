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
from .models import Model


def count_flops(model: Model) -> dict:
    """Per-layer and total MACs/FLOPs/parameter counts for a model at its
    input shape: one entry per block with weights, from the block's own
    ``cost``.  Channels with an off gate are excluded, so a gated model costs
    what its compaction does.
    """
    shape = model.input_shape
    active_in = shape[0]
    layers = []
    for block in model.blocks:
        macs, params, active_in = block.cost(shape, active_in)
        if block.kind is not None:
            layers.append({"name": block.name, "kind": block.kind, "macs": int(macs),
                           "flops": int(2 * macs), "params": int(params)})
        shape = block.out_shape(shape)
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
