"""Tests for the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import maskprune as mp  # noqa: E402
import probes  # noqa: E402
import run as bench_run  # noqa: E402
from spans import (  # noqa: E402
    NO_PARENT,
    Patcher,
    Probe,
    Tracer,
    median,
    percentile,
    self_times,
    totals_by_name,
)
from workloads import WORKLOADS, cifar_like, write_cifar10  # noqa: E402

# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

# root [0,100) holds a [10,40) and b [50,90); b holds c [60,70)
SPANS = [
    ["root", 0, 100, NO_PARENT, None],
    ["a", 10, 40, 0, None],
    ["b", 50, 90, 0, None],
    ["c", 60, 70, 2, None],
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(SPANS) == [30, 30, 30, 10]


def test_totals_by_name_self_and_inclusive():
    spans = SPANS + [["a", 95, 99, 0, None]]
    assert totals_by_name(spans) == {"root": 26, "a": 34, "b": 30, "c": 10}
    assert totals_by_name(spans, inclusive=True) == {"root": 100, "a": 34, "b": 40, "c": 10}


def test_tracer_records_nesting_from_its_clock():
    ticks = iter([0, 10, 40, 50, 60, 70, 90, 100, 110])
    t = Tracer(clock=lambda: next(ticks))
    root = t.begin("root")
    t.end(t.begin("a"))
    b = t.begin("b")
    t.end(t.begin("c"))
    t.end(b)
    t.end(root)
    assert t.spans == SPANS
    with pytest.raises(RuntimeError):
        t.begin("x")
        t.end(root)


def test_percentiles_interpolate_linearly():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    assert percentile(range(1, 101), 90) == pytest.approx(90.1)
    assert percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


def _originals():
    return {
        "data.batches": mp.data.batches,
        "trainer.batches": mp.trainer.batches,
        "tensor.conv2d_forward": mp.tensor.conv2d_forward,
        "layers.conv2d_forward": mp.layers.conv2d_forward,
        "pkg.load_checkpoint": mp.load_checkpoint,
        "trainer.load_checkpoint": mp.trainer.load_checkpoint,
        "BatchNorm2d.forward": mp.layers.BatchNorm2d.__dict__["forward"],
        "Trainer.train_step": mp.trainer.Trainer.__dict__["train_step"],
    }


def test_patcher_wraps_every_lookup_site_and_restores():
    before = _originals()
    with Patcher(Tracer(), probes.probes(), probes.PACKAGE):
        inside = _originals()
        assert all(inside[k] is not before[k] for k in before)
        # names bound by `from .x import f` share the wrapper of the original
        assert mp.trainer.batches is mp.data.batches
        assert mp.layers.conv2d_forward is mp.tensor.conv2d_forward
        assert mp.trainer.load_checkpoint is mp.load_checkpoint
    assert _originals() == before


def test_patcher_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Patcher(Tracer(), probes.probes(), probes.PACKAGE):
            raise RuntimeError("boom")
    assert _originals() == before


def test_patcher_rejects_unknown_target_and_leaves_nothing_patched():
    before = _originals()
    bad = probes.probes() + [Probe("maskprune.tensor:no_such_function", "x")]
    with pytest.raises(AttributeError):
        with Patcher(Tracer(), bad, probes.PACKAGE):
            pass
    assert _originals() == before


def test_traced_calls_nest_and_count():
    tracer = Tracer()
    layer = mp.layers.MaskedConv2d(np.ones((4, 2, 3, 3)), np.zeros(4), 1, 1)
    ds = mp.data.Dataset("t", np.zeros((6, 2, 5, 5)), np.arange(6) % 2,
                         np.zeros(2), np.ones(2))
    with Patcher(tracer, probes.probes(), probes.PACKAGE):
        for x, _ in mp.data.batches(ds, 3, 0, 0, train=True):
            layer.backward(layer.forward(x).data)
    names = [s[0] for s in tracer.spans]
    assert names.count("data.batches") == 3          # two batches, then exhaustion
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    for i, s in by_index.items():
        if s[0] == "tensor.im2col":
            assert by_index[s[3]][0] == "tensor.conv_fwd"
        if s[0] == "tensor.conv_fwd":
            assert by_index[s[3]][0] == "layers.masked_conv"
    # 2 * N*Ho*Wo*Cout * Cin*Kh*Kw per forward, twice that per backward, 2 batches
    fwd = 2 * 3 * 5 * 5 * 4 * 2 * 3 * 3
    assert tracer.counts["tensor.conv_flops"] == 2 * (fwd + 2 * fwd)
    metrics = probes.layer_metrics(tracer)
    assert metrics["tensor.conv_fwd_ms"][0] > 0 and metrics["tensor.conv_gflop_s"][0] > 0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def test_generated_cifar_file_round_trips_through_the_loader(tmp_path):
    images, labels = cifar_like(np.random.default_rng(7), 5)
    path = write_cifar10(tmp_path / "data_batch_1.bin", images, labels)
    assert path.stat().st_size == 5 * 3073
    got_images, got_labels = mp.data.load_cifar10(path)
    np.testing.assert_array_equal(got_images, images.astype(np.float64) / 255.0)
    np.testing.assert_array_equal(got_labels, labels)


def test_generated_cifar_inputs_follow_the_seed():
    a = cifar_like(np.random.default_rng(3), 4)
    b = cifar_like(np.random.default_rng(3), 4)
    c = cifar_like(np.random.default_rng(4), 4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


# ---------------------------------------------------------------------------
# the declared contract
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_what_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == probes.layer_metric_units()


def _run(args, cwd=ROOT, timeout=180):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct_and_prints_every_end_to_end_metric(workload):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0",
                 "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_writes_spans_and_every_per_layer_metric():
    proc = _run(["--workload", "desk-tiny", "--seed", "5", "--seconds", "1", "--trace", "1",
                 "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(probes.layer_metric_units())
    trace = next(json.loads(l)["trace_file"] for l in lines if '"trace_file"' in l)
    spans = [json.loads(l) for l in (ROOT / trace).read_text().splitlines()]
    assert {"trainer.step", "tensor.conv_fwd", "data.batches"} <= {s["name"] for s in spans}
    assert all(s["parent"] < s["i"] for s in spans)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "desk-tiny", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
