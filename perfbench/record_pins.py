"""Record the output gate's references into perfbench/pins.json.

Usage: PYTHONPATH=src python3 perfbench/record_pins.py

Run it only on a commit whose outputs are known to be right: the gate then
holds every later commit to exactly these outputs.  It pins every operation
of every workload, the fuzz-ladders workload for seeds 0..99 and the
held-out seed, and the small operations the benchmark's tests use.
"""

import json

import ops

HELD_OUT_SEED = 4242
FUZZ_SEEDS = list(range(100)) + [HELD_OUT_SEED]
TEST_OPS = ["classify:4", "audit:5:14", "fuzz:1:20"]


def pinned_ops() -> list[str]:
    out = list(TEST_OPS)
    for workload in ("classify-large", "classify-small", "audit-sweep"):
        out += sorted(ops.workload_ops(workload, 0))
    out += [f"fuzz:{seed}:{ops.FUZZ_COUNT}" for seed in FUZZ_SEEDS]
    return out


def main() -> None:
    pins = {}
    for op in pinned_ops():
        pins[op] = ops.reference(op, ops.run_op(op))
        print(op, pins[op]["sha256"][:16], flush=True)
    ops.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
