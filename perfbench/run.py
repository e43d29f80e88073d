"""maskprune benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload desk-tiny --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Run from the repository root (or any checkout of it): the package is imported
from ``src/`` next to this directory, never from an installed copy.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones, and the traced run also writes
its spans to ``.bench_work/traces/``.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys
import time

#: BLAS threads, pinned before numpy loads (one is at most nproc anywhere)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

NAMES = ("desk-tiny", "resnet56-train", "vgg16-serve")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "load_s": "s",
    "step_ms_p50": "ms",
    "gated_infer_img_s": "img/s",
    "infer_img_s": "img/s",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import maskprune from this checkout's source tree, timing the import
    (numpy is loaded first: its import is not the program's); exit if the
    tree is absent."""
    if not (SRC / "maskprune" / "__init__.py").is_file():
        sys.exit(f"error: no maskprune source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import maskprune

    import_s = time.perf_counter() - t0
    if Path(maskprune.__file__).resolve().parent != (SRC / "maskprune").resolve():
        sys.exit(f"error: maskprune imported from {maskprune.__file__}, not {SRC}")
    return maskprune, import_s


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "maskprune").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_lib = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_lib,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def run_one(args) -> int:
    mp, import_s = _import_package()

    import probes
    from spans import Patcher, Tracer
    from workloads import WORKLOADS, Run, Sizes

    tracer = Tracer()
    traced = bool(args.trace)
    patcher = Patcher(tracer, probes.probes() if traced else probes.step_probe(), probes.PACKAGE)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(name=args.workload, seed=args.seed, seconds=args.seconds, work=work,
              tracer=tracer, patcher=patcher, traced=traced,
              sizes=Sizes.smoke() if args.smoke else Sizes(), import_s=import_s)
    env = environment()
    try:
        with patcher:
            WORKLOADS[args.workload](run)
    except (mp.MaskPruneError, FloatingPointError) as exc:
        # a failure the program reports is a result (correct: false).
        # Anything else is a crash of the benchmark itself.
        import traceback

        traceback.print_exc()
        run.count_failure(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.finish()

    print(json.dumps({"environment": env}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": int(traced),
                      "checks": run.check_summary()}))
    if traced:
        layer_values = {k: v for k, (v, _) in probes.layer_metrics(tracer).items()}
        layer_values.update(run.layer)
        units = probes.layer_metric_units()
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(json.dumps({"trace_file": str(trace_path.relative_to(ROOT)),
                          "traced_end_to_end": run.metrics}))
        metrics = _metric_block(layer_values, units)
    else:
        metrics = _metric_block(run.metrics, END_TO_END)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": run.correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process; prints
    the end-to-end metrics and the tracing overhead on each."""
    status = 0
    for name in NAMES:
        lines = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines[trace] = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
        untraced, traced = lines[0][-1], lines[1][-1]
        info = {k: v for line in lines[1] for k, v in line.items()}
        traced_e2e = info["traced_end_to_end"]
        ok = untraced["correct"] and traced["correct"]
        status |= 0 if ok else 1
        print(f"{name}: correct={ok} attempted={untraced['attempted']} "
              f"failed={untraced['failed']} trace={info['trace_file']}")
        print(f"  {'metric':<20} {'untraced':>12} {'unit':<6} traced/untraced - 1")
        for metric, m in untraced["metrics"].items():
            t = traced_e2e.get(metric)
            overhead = f"{100.0 * (t / m['value'] - 1.0):+7.2f}%" if t and m["value"] else ""
            print(f"  {metric:<20} {m['value']:>12.6g} {m['unit']:<6} {overhead}")
        overhead = traced["metrics"]["trace.overhead_pct"]["value"]
        print(f"  {'trace.overhead_pct':<20} {overhead:>12.4g} %"
              f"      (rounds traced vs untraced, same process)")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs so each workload finishes in seconds (tests)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
