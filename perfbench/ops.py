"""Workloads, their operations, and the output gate.

An operation is one public library call, named by an id string:

- ``classify:<a>``: ``classify(a)``;
- ``audit:<a>:<n_max>``: ``audit(a, n_max)``;
- ``fuzz:<seed>:<count>``: ``random_pseudo_fundamental_ladders(seed, count)``,
  then ``certify_ladder(require_fundamental=False)`` and ``identities_check``
  on each ladder.

``run_ops`` times the operations; ``check`` compares their outputs with the
pinned references in ``pins.json`` afterwards, outside the timed window.
Library functions are looked up on their modules at call time, so a traced
pass goes through the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

from delpezzo import enumerator, multiplet

PINS = Path(__file__).with_name("pins.json")

# Fields of each report's ``to_json`` kept next to its digest, so that a
# failed gate names the counter that moved.
COUNTERS = {
    "classify": ("cells_visited", "configurations", "candidates", "killed_cells"),
    "audit": ("cells_swept", "searched", "killed", "candidates_rejected", "survivors_in_catalog"),
}

FUZZ_COUNT = 1000


def workload_ops(workload: str, seed: int) -> list[str]:
    """The operation ids of one pass; the seed fixes their order or inputs."""
    if workload == "classify-large":
        ops = [f"classify:{a}" for a in (256, 384, 512)]
    elif workload == "classify-small":
        ops = [f"classify:{a}" for a in range(4, 33)]
    elif workload == "audit-sweep":
        return ["audit:28:112"]
    elif workload == "fuzz-ladders":
        return [f"fuzz:{seed}:{FUZZ_COUNT}"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def run_op(op: str):
    kind, *args = op.split(":")
    args = [int(x) for x in args]
    if kind == "classify":
        return enumerator.classify(*args)
    if kind == "audit":
        return enumerator.audit(*args)
    if kind == "fuzz":
        ladders = enumerator.random_pseudo_fundamental_ladders(*args)
        verdicts = [
            multiplet.certify_ladder(lad, require_fundamental=False).passed
            and multiplet.identities_check(lad)
            for lad in ladders
        ]
        return ladders, verdicts
    raise ValueError(f"unknown operation {op!r}")


def run_ops(ops: list[str]) -> tuple[float, dict]:
    """Run the operations serially; return the wall time and the outputs.

    An operation that raises is recorded by its exception and the pass goes
    on, so the gate can count it as failed.
    """
    results = {}
    start = time.perf_counter()
    for op in ops:
        try:
            results[op] = run_op(op)
        except Exception as exc:  # the gate reports it as a failed operation
            results[op] = exc
    return time.perf_counter() - start, results


def report_reference(op: str, report) -> dict:
    blob = json.dumps(report.to_json(), sort_keys=True).encode()
    data = json.loads(blob)
    return {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "counters": {k: data[k] for k in COUNTERS[op.split(":")[0]]},
    }


def fuzz_reference(ladders) -> dict:
    combined = hashlib.sha256()
    for lad in ladders:
        blob = json.dumps(multiplet.ladder_json(lad), sort_keys=True).encode()
        combined.update(hashlib.sha256(blob).hexdigest().encode())
    return {"ladders": len(ladders), "sha256": combined.hexdigest()}


def reference(op: str, result) -> dict:
    if op.startswith("fuzz:"):
        return fuzz_reference(result[0])
    return report_reference(op, result)


def op_count(op: str) -> int:
    """Operations an id stands for: a fuzz id is the generator call plus one
    certification per ladder it must produce."""
    if op.startswith("fuzz:"):
        return 1 + int(op.split(":")[2])
    return 1


def check(results: dict, pins: dict) -> tuple[int, int, list[str]]:
    """Compare outputs with their pinned references.

    Returns (attempted, failed, messages).  A report fails when it raised,
    or when a counter or its digest differs from the reference.  For a fuzz
    id, each ladder that fails its certificates is one failed operation,
    each ladder missing from the requested count is another, and the
    generator call fails when the ladder digest differs.  A fuzz seed with
    no pinned reference is checked by its certificates and count only.
    """
    attempted = failed = 0
    messages = []
    for op, result in results.items():
        n = op_count(op)
        attempted += n
        if isinstance(result, Exception):
            failed += n
            messages.append(f"{op}: raised {type(result).__name__}: {result}")
            continue
        if op.startswith("fuzz:"):
            ladders, verdicts = result
            bad = verdicts.count(False) + (n - 1 - len(ladders))
            if bad:
                failed += bad
                messages.append(f"{op}: {bad} ladder(s) missing or failing certificates")
        ref = pins.get(op)
        if ref is None:
            if op.startswith("fuzz:"):
                messages.append(f"{op}: no pinned digest, certificates and count checked")
                continue
            failed += n
            messages.append(f"{op}: no pinned reference")
            continue
        got = reference(op, result)
        diffs = [k for k in ref if k != "counters" and got[k] != ref[k]]
        diffs += [
            f"counters.{k}" for k, v in ref.get("counters", {}).items() if got["counters"].get(k) != v
        ]
        if diffs:
            failed += 1
            messages.append(f"{op}: differs from its reference in {', '.join(diffs)}")
    return attempted, failed, messages


def load_pins() -> dict:
    return json.loads(PINS.read_text())
