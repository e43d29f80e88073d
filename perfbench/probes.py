"""Which maskprune calls the traced run times, and how spans become the
per-layer metrics.

Layers are the package's modules.  Each probe names the public function or
method it wraps and the span name it records; per-layer metrics are sums of
self time (or, where the table says so, inclusive time) over spans of one
name, in milliseconds over the whole traced run.
"""

from __future__ import annotations

import math
import os

from spans import Probe, totals_by_name

PACKAGE = "maskprune"

BLOCK_CLASSES = ("ConvBlock", "LinearBlock", "ResidualBlock", "PoolBlock", "FlattenBlock")
PLAIN_BLOCK_CLASSES = ("PlainConvBlock", "PlainLinearBlock", "PlainResidualBlock")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _shape(a):
    return getattr(a, "shape", None) or a.data.shape


def _conv_fwd_flops(tracer, args, kwargs, result):
    """2 * output elements * (Cin*Kh*Kw) multiply-adds, from the call's shapes."""
    w = _shape(_arg(args, kwargs, 1, "w"))
    out = _shape(result[0] if isinstance(result, tuple) else result)
    n_out = out[0] * out[1] * out[2] * out[3]
    tracer.count("tensor.conv_flops", 2.0 * n_out * w[1] * w[2] * w[3])


def _conv_bwd_flops(tracer, args, kwargs, result):
    """Two GEMMs of the forward's size: grad_w and grad_cols."""
    w = _shape(_arg(args, kwargs, 1, "w"))
    g = _shape(_arg(args, kwargs, 2, "grad_out"))
    n_out = g[0] * g[1] * g[2] * g[3]
    tracer.count("tensor.conv_flops", 4.0 * n_out * w[1] * w[2] * w[3])


def _saved_bytes(tracer, args, kwargs, result):
    tracer.count("checkpoint.save_bytes", os.path.getsize(result))
    tracer.count("checkpoint.saves")


def _loaded_bytes(tracer, args, kwargs, result):
    tracer.count("checkpoint.load_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _batch_kind(args, kwargs):
    return "train" if _arg(args, kwargs, 4, "train") else "eval"


def _block_name(args, kwargs):
    return args[0].name


def _loss_check(tracer, args, kwargs, result):
    if not math.isfinite(result.loss_total):
        tracer.count("trainer.nonfinite_loss")


def _strategy_step_count(tracer, args, kwargs, result):
    tracer.count("trainer.prune_steps")


def _boost_count(tracer, args, kwargs, result):
    tracer.count("pruning.boosts")


def probes() -> list[Probe]:
    p = [
        Probe("maskprune.data:batches", "data.batches", detail=_batch_kind, generator=True),
        Probe("maskprune.data:synthetic_dataset", "data.load"),
        Probe("maskprune.data:cifar10_dataset", "data.load"),
        Probe("maskprune.data:load_cifar10", "data.load"),
        Probe("maskprune.tensor:conv2d_forward", "tensor.conv_fwd", count=_conv_fwd_flops),
        Probe("maskprune.tensor:conv2d_backward", "tensor.conv_bwd", count=_conv_bwd_flops),
        Probe("maskprune.tensor:im2col", "tensor.im2col"),
        Probe("maskprune.tensor:col2im", "tensor.col2im"),
        Probe("maskprune.layers:BatchNorm2d.forward", "layers.bn_fwd"),
        Probe("maskprune.layers:BatchNorm2d.backward", "layers.bn_bwd"),
        Probe("maskprune.models:PlainBatchNorm.forward", "layers.bn_fwd"),
        Probe("maskprune.layers:MaxPool2d.forward", "layers.pool"),
        Probe("maskprune.layers:MaxPool2d.backward", "layers.pool"),
        Probe("maskprune.layers:GlobalAvgPool.forward", "layers.pool"),
        Probe("maskprune.layers:GlobalAvgPool.backward", "layers.pool"),
        Probe("maskprune.layers:MaskedConv2d.forward", "layers.masked_conv"),
        Probe("maskprune.layers:MaskedConv2d.backward", "layers.masked_conv"),
        Probe("maskprune.layers:sgd_step", "layers.sgd"),
        Probe("maskprune.layers:softmax_cross_entropy", "layers.loss"),
        Probe("maskprune.models:Model.forward", "models.fwd"),
        Probe("maskprune.models:Model.backward", "models.bwd"),
        Probe("maskprune.models:Model.compact", "models.compact"),
        Probe("maskprune.models:Model.load_state_arrays", "models.load_state"),
        Probe("maskprune.influence:capture_influence", "influence.capture"),
        Probe("maskprune.influence:ChannelScorer.score", "influence.score"),
        Probe("maskprune.influence:scorer_gradients", "influence.scorer_grad"),
        Probe("maskprune.pruning:build_plan", "pruning.plan"),
        Probe("maskprune.pruning:SharpnessSchedule.apply_boost", "pruning.boost",
              count=_boost_count),
        Probe("maskprune.trainer:run_pipeline", "trainer.pipeline"),
        Probe("maskprune.trainer:Trainer.run", "trainer.run"),
        Probe("maskprune.trainer:Trainer.finish", "trainer.finish"),
        Probe("maskprune.trainer:Trainer.train_step", "trainer.step", count=_loss_check),
        Probe("maskprune.trainer:strategy_step", "trainer.strategy_step",
              count=_strategy_step_count),
        Probe("maskprune.trainer:StrategyMonitor.observe", "trainer.monitor"),
        Probe("maskprune.trainer:Trainer.evaluate", "trainer.eval"),
        Probe("maskprune.trainer:Trainer.measure_influence", "trainer.measure"),
        Probe("maskprune.trainer:Trainer.save", "trainer.save"),
        Probe("maskprune.trainer:Trainer.load", "trainer.load"),
        Probe("maskprune.checkpoint:save_checkpoint", "checkpoint.save", count=_saved_bytes),
        Probe("maskprune.checkpoint:load_checkpoint", "checkpoint.load", count=_loaded_bytes),
        Probe("maskprune.metrics:count_flops", "metrics.flops"),
    ]
    for cls in BLOCK_CLASSES:
        p.append(Probe(f"maskprune.models:{cls}.forward", f"models.block.{cls}.fwd",
                       detail=_block_name))
        p.append(Probe(f"maskprune.models:{cls}.backward", f"models.block.{cls}.bwd",
                       detail=_block_name))
    for cls in PLAIN_BLOCK_CLASSES:
        p.append(Probe(f"maskprune.models:{cls}.forward", f"models.block.{cls}.fwd",
                       detail=_block_name))
    return p


def step_probe() -> list[Probe]:
    """The one probe untraced runs keep: train-step latency and loss
    finiteness, which the program does not expose.  It costs two clock reads
    and a float check per step."""
    return [p for p in probes() if p.name == "trainer.step"]


# metric name -> the span names whose self time it sums, in ms
_SELF_MS = {
    "data.wait_ms": ["data.batches"],
    "tensor.conv_fwd_ms": ["tensor.conv_fwd"],
    "tensor.conv_bwd_ms": ["tensor.conv_bwd"],
    "tensor.im2col_ms": ["tensor.im2col"],
    "tensor.col2im_ms": ["tensor.col2im"],
    "layers.bn_fwd_ms": ["layers.bn_fwd"],
    "layers.bn_bwd_ms": ["layers.bn_bwd"],
    "layers.pool_ms": ["layers.pool"],
    "layers.masked_conv_self_ms": ["layers.masked_conv"],
    "layers.sgd_ms": ["layers.sgd"],
    "layers.loss_ms": ["layers.loss"],
    "models.compact_ms": ["models.compact"],
    "models.load_state_ms": ["models.load_state"],
    "influence.capture_ms": ["influence.capture"],
    "influence.score_ms": ["influence.score"],
    "influence.scorer_grad_ms": ["influence.scorer_grad"],
    "pruning.plan_ms": ["pruning.plan"],
    "trainer.step_self_ms": ["trainer.step"],
    "trainer.strategy_step_ms": ["trainer.strategy_step"],
    "trainer.monitor_ms": ["trainer.monitor"],
    "checkpoint.save_ms": ["checkpoint.save"],
    "checkpoint.load_ms": ["checkpoint.load"],
    "metrics.flops_ms": ["metrics.flops"],
}
for _cls in BLOCK_CLASSES:
    _SELF_MS[f"models.block.{_cls}.fwd_ms"] = [f"models.block.{_cls}.fwd"]
    _SELF_MS[f"models.block.{_cls}.bwd_ms"] = [f"models.block.{_cls}.bwd"]
for _cls in PLAIN_BLOCK_CLASSES:
    _SELF_MS[f"models.block.{_cls}.fwd_ms"] = [f"models.block.{_cls}.fwd"]

# the same, summing inclusive time
_INCLUSIVE_MS = {
    "models.fwd_ms": ["models.fwd"],
    "models.bwd_ms": ["models.bwd"],
}

# metrics the workloads themselves supply (0 where a workload has no such thing)
WORKLOAD_METRICS = {
    "trainer.train_img_s": "img/s",
    "trainer.step_ms_p90": "ms",
    "trainer.prune_epochs_used": "count",
    "trainer.prune_useful_ratio": "ratio",
    "metrics.baseline_acc_pct": "%",
    "metrics.pruned_acc_pct": "%",
    "trace.overhead_pct": "%",
}


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics computed from the spans and counters of one run."""
    self_ns = totals_by_name(tracer.spans)
    incl_ns = totals_by_name(tracer.spans, inclusive=True)
    out: dict[str, tuple[float, str]] = {}
    for metric, names in _SELF_MS.items():
        out[metric] = (_ms(sum(self_ns.get(n, 0) for n in names)), "ms")
    for metric, names in _INCLUSIVE_MS.items():
        out[metric] = (_ms(sum(incl_ns.get(n, 0) for n in names)), "ms")
    out["data.load_s"] = (self_ns.get("data.load", 0) / 1e9, "s")
    out["trainer.eval_s"] = (incl_ns.get("trainer.eval", 0) / 1e9, "s")
    out["trainer.measure_s"] = (incl_ns.get("trainer.measure", 0) / 1e9, "s")

    conv_busy_s = (incl_ns.get("tensor.conv_fwd", 0) + incl_ns.get("tensor.conv_bwd", 0)) / 1e9
    flops = tracer.counts.get("tensor.conv_flops", 0.0)
    out["tensor.conv_gflop_s"] = (flops / conv_busy_s / 1e9 if conv_busy_s else 0.0, "GFLOP/s")

    def rate_mb_s(nbytes_key, span):
        secs = self_ns.get(span, 0) / 1e9
        return tracer.counts.get(nbytes_key, 0.0) / 1e6 / secs if secs else 0.0

    out["checkpoint.save_mb_s"] = (rate_mb_s("checkpoint.save_bytes", "checkpoint.save"), "MB/s")
    out["checkpoint.load_mb_s"] = (rate_mb_s("checkpoint.load_bytes", "checkpoint.load"), "MB/s")
    out["checkpoint.saves"] = (tracer.counts.get("checkpoint.saves", 0.0), "count")
    out["pruning.boosts"] = (tracer.counts.get("pruning.boosts", 0.0), "count")
    out["trainer.prune_steps"] = (tracer.counts.get("trainer.prune_steps", 0.0), "count")
    out["trace.spans"] = (float(len(tracer.spans)), "count")
    return out


LAYERS = ("data", "tensor", "layers", "models", "influence", "pruning", "trainer",
          "checkpoint", "metrics", "trace")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, grouped by layer."""
    from spans import Tracer

    units = {name: unit for name, (_, unit) in layer_metrics(Tracer()).items()}
    units.update(WORKLOAD_METRICS)
    order = sorted(units, key=lambda n: LAYERS.index(n.split(".")[0]))
    return {n: units[n] for n in order}
