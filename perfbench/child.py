"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/child.py <spawn_time> <workload> <seed> <trace>

``spawn_time`` is the parent's ``time.perf_counter()`` just before it
started this interpreter; on Linux that clock is CLOCK_MONOTONIC, shared by
all processes, so ``setup_s`` covers interpreter start-up plus
``import delpezzo``.  Prints one JSON object with the pass's figures.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
import delpezzo  # noqa: E402

SETUP_S = time.perf_counter() - float(sys.argv[1])

import json  # noqa: E402
import resource  # noqa: E402

import ops  # noqa: E402
from calibration import reference_loop_s  # noqa: E402
from spans import Tracer  # noqa: E402


def main(workload: str, seed: int, trace: bool) -> dict:
    if SRC not in Path(delpezzo.__file__).resolve().parents:
        raise SystemExit(f"delpezzo was imported from {delpezzo.__file__}, not from {SRC}")
    pass_ops = ops.workload_ops(workload, seed)
    pins = ops.load_pins()
    tracer = Tracer() if trace else None
    reference_before_s = reference_loop_s()
    if tracer:
        tracer.install()
    try:
        wall_s, results = ops.run_ops(pass_ops)
    finally:
        if tracer:
            tracer.uninstall()
    reference_s = (reference_before_s + reference_loop_s()) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, messages = ops.check(results, pins)
    out = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "reference_s": reference_s,
        "wall_ref": wall_s / reference_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
    }
    if tracer:
        layers = tracer.layer_metrics()
        layers["enumerator.degrees_feasible.misses"] = (
            delpezzo.enumerator._degrees_feasible.cache_info().misses
        )
        out["layers"] = layers
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}.jsonl")
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")))
