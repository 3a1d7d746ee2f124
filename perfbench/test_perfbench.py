"""Tests of the benchmark itself: tiny passes, the gate and the tracer."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ops  # noqa: E402
from calibration import reference_loop_s  # noqa: E402
from spans import Tracer  # noqa: E402

from delpezzo import enumerator, multiplet  # noqa: E402

# One small operation of the same kind as each workload.
TINY = {
    "classify-large": ["classify:4"],
    "classify-small": ["classify:4"],
    "audit-sweep": ["audit:5:14"],
    "fuzz-ladders": ["fuzz:1:20"],
}


def traced_pass(op_ids):
    tracer = Tracer()
    tracer.install()
    try:
        _, results = ops.run_ops(op_ids)
    finally:
        tracer.uninstall()
    return tracer, results


def test_workloads_have_pinned_operations():
    pins = ops.load_pins()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for op in ops.workload_ops(w["name"], 1):
            assert op in pins, op
    assert ops.workload_ops("classify-small", 3) == ops.workload_ops("classify-small", 3)
    assert sorted(ops.workload_ops("classify-small", 3)) == sorted(ops.workload_ops("classify-small", 4))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_traced_pass_passes_the_gate(workload):
    tracer, results = traced_pass(TINY[workload])
    attempted, failed, messages = ops.check(results, ops.load_pins())
    assert attempted == sum(ops.op_count(op) for op in TINY[workload])
    assert (failed, messages) == (0, [])
    layers = tracer.layer_metrics()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        name = m["name"]
        if not name.startswith(("enumerator.kill.", "enumerator.search.rejected.", "trace.")):
            assert name in layers or name == "enumerator.degrees_feasible.misses", name


def test_gate_counts_a_perturbed_reference_as_failed():
    _, results = ops.run_ops(["classify:4", "audit:5:14", "fuzz:1:20"])
    pins = ops.load_pins()
    assert ops.check(results, pins)[1] == 0

    digest = copy.deepcopy(pins)
    digest["classify:4"]["sha256"] = "0" * 64
    attempted, failed, messages = ops.check(results, digest)
    assert (attempted, failed) == (1 + 1 + 21, 1)
    assert "sha256" in messages[0]

    counter = copy.deepcopy(pins)
    counter["audit:5:14"]["counters"]["killed"]["window"] += 1
    _, failed, messages = ops.check(results, counter)
    assert failed == 1 and "counters.killed" in messages[0]

    fuzz = copy.deepcopy(pins)
    fuzz["fuzz:1:20"]["ladders"] = 19
    assert ops.check(results, fuzz)[1] == 1


def test_gate_counts_raised_and_uncertified_operations():
    ladders, verdicts = ops.run_op("fuzz:1:20")
    results = {
        "classify:4": ValueError("boom"),
        "fuzz:1:20": (ladders[:-1], [True] * 18 + [False]),
    }
    attempted, failed, _ = ops.check(results, ops.load_pins())
    # one raised report; one missing and one uncertified ladder, one digest
    assert (attempted, failed) == (22, 1 + 2 + 1)


def test_tracer_rebinds_imported_names_and_restores_them():
    originals = (enumerator.build_ladder, multiplet.build_ladder, enumerator.eliminate)
    intersect = vars(multiplet.SurfaceModel)["intersect"]
    tracer = Tracer()
    tracer.install()
    try:
        assert enumerator.build_ladder is multiplet.build_ladder
        assert enumerator.build_ladder is not originals[0]
        assert enumerator.eliminate is not originals[2]
        assert vars(multiplet.SurfaceModel)["intersect"] is not intersect
    finally:
        tracer.uninstall()
    assert (enumerator.build_ladder, multiplet.build_ladder, enumerator.eliminate) == originals
    assert vars(multiplet.SurfaceModel)["intersect"] is intersect


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans[:] = [
        ["enumerator.search_cell", 0.0, 10.0, -1],
        ["multiplet.build_ladder", 1.0, 4.0, 0],
        ["elimination.eliminate", 2.0, 3.0, 1],
        ["elimination.eliminate", 5.0, 6.0, 0],
    ]
    layers = tracer.layer_metrics()
    assert layers["enumerator.search_cell.s"] == 10.0
    assert layers["enumerator.search_cell.self_s"] == 10.0 - 3.0 - 1.0
    assert layers["multiplet.build_ladder.self_s"] == 2.0
    assert layers["elimination.eliminate.calls"] == 2


def test_reference_loop_takes_measurable_time():
    times = [reference_loop_s() for _ in range(2)]
    assert all(0.001 < t < 10 for t in times)


def test_run_fails_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
