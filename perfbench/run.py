"""The repository benchmark.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs passes of one workload, each in a fresh interpreter (``child.py``),
one after another, until ``--seconds`` have gone by and at least
``MIN_PASSES`` passes are done.  Every output is checked against the pinned
references in ``pins.json``.  With ``--trace 0`` it reports the end-to-end
metrics of ``BENCHMARK.json`` as medians over the passes; with ``--trace 1``
it alternates traced and untraced passes and reports the per-layer metrics
as medians over the traced ones, plus the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-large", "classify-small", "audit-sweep", "fuzz-ladders")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# Counters keyed by a kill or rejection reason exist only for reasons that occurred.
REASON_COUNTERS = ("enumerator.kill.", "enumerator.search.rejected.")


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), repr(spawn), workload, str(seed), str(int(traced))],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"a pass of {workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    return result


def summary(name: str, values: list[float], unit: str) -> str:
    return (
        f"{name}: {statistics.median(values):.6g} {unit} "
        f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})"
    )


def end_to_end(passes: list[dict], spec: dict) -> dict:
    for name in ("wall_s", "reference_s"):
        print(summary(name, [p[name] for p in passes], "s"))
    metrics = {}
    for m in spec["end_to_end"]:
        values = [p[m["name"]] for p in passes]
        print(summary(m["name"], values, m["unit"]))
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    return metrics


def per_layer(passes: list[dict], spec: dict, errors: list[str]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_s":
            overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
                p["wall_s"] for p in plain
            )
            print(
                f"{name}: {overhead:.6g} {unit} (median of {len(traced)} traced "
                f"minus median of {len(plain)} untraced passes)"
            )
            metrics[name] = {"value": overhead, "unit": unit}
            continue
        elif name.startswith(REASON_COUNTERS):
            values = [p["layers"].get(name, 0) for p in traced]
        else:
            values = [p["layers"][name] for p in traced]
        if unit == "count" and len(set(values)) > 1:
            errors.append(f"counter {name} differs between passes: {values}")
        print(summary(name, values, unit))
        median = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = {"value": median(values), "unit": unit}
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> None:
    args = parse_args(argv)
    source = ROOT / "src" / "delpezzo" / "__init__.py"
    if not source.is_file():
        raise SystemExit(f"no library source at {source.parent}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    passes: list[dict] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 0
        passes.append(run_pass(args.workload, args.seed, traced))

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for message in sorted({m for p in passes for m in p["messages"]}):
        print(f"gate: {message}", file=sys.stderr)
    errors: list[str] = []
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes")
    if args.trace:
        metrics = per_layer(passes, spec, errors)
    else:
        metrics = end_to_end(passes, spec)
    print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
