"""A fixed pure-Python loop that measures the machine's current speed.

On a shared host the speed of the whole machine drifts by tens of percent
over minutes, and every pass slows with it.  ``reference_loop_s`` times a
loop that never touches the library: integer arithmetic, tuple keys, dict
updates and small sorts, the same kinds of interpreter work the library
does.  Dividing a pass's wall time by the loop's time, measured in the same
process just before and after the pass, cancels that drift, while a change
to the library still moves the quotient.  The loop keeps well under 1 MB
live, so it does not move ``peak_rss_mb``.
"""

from __future__ import annotations

import time

REFERENCE_STEPS = 120_000


def reference_loop_s() -> float:
    """Run the reference loop once and return its wall time in seconds."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(REFERENCE_STEPS):
        key = (i % 251, i % 7)
        table[key] = table.get(key, 0) + (i * i) % 11 - (i >> 3)
        acc += sorted((i % 5, key[1], -key[0]))[1]
    if acc + sum(table.values()) == 0:  # keeps the work observable
        raise AssertionError("reference loop produced a degenerate sum")
    return time.perf_counter() - start
