"""Command-line entry points.

Subcommands::

    maskprune train             fit the dense baseline, checkpoint it
    maskprune prune             run through the per-layer pruning stages
    maskprune finetune          complete the pipeline and write the report
    maskprune eval              accuracy of a checkpointed model
    maskprune report            compact + evaluate a finished run, emit report
    maskprune inspect-influence dump per-channel influence as CSV

Every command builds its trainer with :meth:`Trainer.from_config`, resuming
from ``--checkpoint`` when given; ``finetune`` is :func:`run_pipeline`.  A
stage command runs any stage that has not completed yet, so ``train`` ->
``prune`` -> ``finetune`` with chained checkpoints and a single ``finetune``
from scratch produce the same artifacts.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure
(non-convergence, corrupted checkpoint, ...).
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

from .config import ExperimentConfig, parse_config
from .errors import ConfigError, DataError, MaskPruneError
from .influence import channel_influence
from .metrics import emit_report
from .trainer import Trainer, run_pipeline


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _build_trainer(args) -> Trainer:
    return Trainer.from_config(_load_config(args), args.checkpoint)


def cmd_train(args) -> int:
    trainer = _build_trainer(args)
    if trainer.cfg.baseline_epochs == 0:
        print("baseline_epochs is 0; nothing to train")
        return 0
    trainer.run(until="baseline")
    print(f"baseline accuracy: {trainer.evaluate():.2f}%")
    print(f"checkpoint: {trainer.out_dir / 'checkpoint-baseline.ckpt'}")
    return 0


def cmd_prune(args) -> int:
    trainer = _build_trainer(args)
    prune_stages = [p.stage_id for p in trainer.phases() if p.kind == "prune"]
    if not prune_stages:
        raise ConfigError(f"model {trainer.cfg.model} has no prunable layers")
    trainer.run(until=prune_stages[-1])
    for name, state in trainer.strategies.items():
        print(f"{name}: kept {state.kept}/{state.target.size} ({state.status})")
    return 0


def cmd_finetune(args) -> int:
    cfg = _load_config(args)
    report, _ = run_pipeline(cfg, args.checkpoint)
    _print_report(report, cfg.out_dir)
    return 0


def cmd_eval(args) -> int:
    trainer = _build_trainer(args)
    acc = trainer.evaluate()
    print(f"accuracy: {acc:.2f}% on {len(trainer.test_ds)} test examples")
    return 0


def cmd_report(args) -> int:
    trainer = _build_trainer(args)
    report = trainer.finish()
    emit_report(report, trainer.cfg.out_dir)
    _print_report(report, trainer.cfg.out_dir)
    return 0


def cmd_inspect_influence(args) -> int:
    trainer = _build_trainer(args)
    if not trainer.maps:
        trainer.measure_influence()
    rows = []
    for name in trainer.maps:
        for ch, value in enumerate(channel_influence(trainer.maps[name])):
            rows.append((name, ch, float(value)))
    rows.sort(key=lambda r: (r[2], r[0], r[1]))
    out = Path(args.table) if args.table else Path(trainer.cfg.out_dir) / "influence.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["layer", "channel", "influence"])
        for layer, ch, value in rows:
            writer.writerow([layer, ch, repr(value)])
    print(f"wrote {len(rows)} channel influences to {out}")
    return 0


def _print_report(report, out_dir) -> None:
    print(f"model={report.model} dataset={report.dataset} seed={report.seed}")
    print(f"accuracy: {report.baseline_acc:.2f}% -> {report.pruned_acc:.2f}% "
          f"(drop {report.acc_drop:+.2f} points)")
    print(f"flops: {report.flops_before} -> {report.flops_after} "
          f"({100 * report.flops_reduction:.1f}% reduction)")
    print(f"params: {report.params_before} -> {report.params_after} "
          f"({100 * report.params_reduction:.1f}% reduction)")
    print(f"channels removed: target rate {report.rate_target:.3f}, "
          f"actual {report.rate_actual:.3f}")
    for name in ("report.json", "report.csv"):
        print(f"wrote {Path(out_dir) / name}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maskprune",
                                     description="channel pruning for small CNNs")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="log per-stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--checkpoint", help="checkpoint to resume from")
        p.set_defaults(func=func)
        return p

    add("train", cmd_train, "fit the dense baseline")
    add("prune", cmd_prune, "run the per-layer pruning stages")
    add("finetune", cmd_finetune, "finish the pipeline and write the report")
    add("eval", cmd_eval, "evaluate a checkpointed model")
    add("report", cmd_report, "compact and report a finished run")
    p = add("inspect-influence", cmd_inspect_influence,
            "dump per-channel influence, smallest first")
    p.add_argument("--table", help="CSV destination (default: <out_dir>/influence.csv)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        return args.func(args)
    except (ConfigError, DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MaskPruneError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
