"""Mutation check of the cell stage: does a test fail for each small change?

Each mutant changes one expression of ``src/delpezzo/enumerator.py``:

- each bound of ``_rules`` moved by +1 and by -1;
- each of the two cuts ``_row_pieces`` makes per line crossing dropped;
- a block's ``last`` row in ``generate_cells`` moved by +1 and by -1;
- a row's p6 prefix ``n_lo`` moved by +1 and by -1;
- the block loop started at k = 2, which skips the row h0 = a + 1.

For each mutant the script copies the package to a temporary directory,
writes the mutated module there and runs the cell-stage tests of
``tests/test_enumerator.py`` against it, with a timeout per mutant (a block
end moved down by one loops forever).  A mutant is killed when a test fails
or the run times out.  The script prints each mutant's fate and the kill
rate, and exits 1 if a mutant survives that is not a known equivalent one.

Run from the repository root, with pytest installed:

    python tools/mutate_cells.py

It takes about 3 minutes with Python 3.11 on one core of a 2-core x86-64 host.

Stdlib only; the source is located with ``ast`` and spliced as text, so the
rest of the module keeps its bytes.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = ROOT / "src" / "delpezzo" / "enumerator.py"

CELL_TESTS = (
    "test_small_multiple_kills",
    "test_large_multiple_kill_values",
    "test_degree_cap",
    "test_cell_verdict_matches_the_reference_chain",
    "test_sections_excluded_on_generated_cells",
    "test_audit_and_classify_share_the_cell_verdict",
    "test_cell_verdict_is_constant_between_breakpoints",
    "test_rules_are_affine_in_n_on_each_parity",
    "test_large_multiple_kill_is_monotone_in_h0_at_fixed_n",
    "test_large_multiple_kill_holds_on_a_prefix_of_each_row",
    "test_generate_cells_refuses_a_rule_that_is_not_affine",
    "test_generate_cells_matches_the_per_h_sweep",
    "test_a_block_killed_at_one_end_only_is_walked_row_by_row",
    "test_large_multiple_volume_is_a_floor_sum",
    "test_generate_cells_makes_o_sqrt_a_p6_calls",
    "test_cells_deterministic",
    "test_classify_four_exact",
    "test_classify_low_index_reports_are_byte_stable",
    "test_audit_matches_the_per_h_sweep",
)

# Mutants no test can kill, because they change no output; label -> why.
_BELOW = "no rule is asked about h < n h0, outside the window"
EQUIVALENT = {
    "_rules: entry 1 (window) lo -1": _BELOW,
    "_rules: entry 2 (window) lo -1": _BELOW,
    "_rules: entry 4 (volume) lo -1": _BELOW,
    "_rules: entry 5 (section_budget) lo -1": _BELOW,
    "_rules: entry 6 (sigma_budget) lo -1": _BELOW,
    "_rules: entry 3 (coefficient_persistence) hi +1": "(n + 2) a + 1 is past the window's end already",
    "_rules: entry 6 (sigma_budget) lo +1": (
        "at h = n h0, h + n h0 < -c0 gives h < -(c0 // 2): volume kills the cell first"
    ),
    "_row_pieces: drop cut 1 of 2": "the other cut alone gives the same runs under today's _rules",
    "_row_pieces: drop cut 2 of 2": "the other cut alone gives the same runs under today's _rules",
}

MEMORY_LIMIT = 2 << 30  # bytes of address space per test run


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _assigned(fn: ast.AST, target: str) -> list[ast.expr]:
    """The values assigned to the plain name ``target`` inside ``fn``."""
    return [
        n.value
        for n in ast.walk(fn)
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == [target]
    ]


def mutants(source: str) -> list[tuple[str, ast.expr, str]]:
    """(label, node, replacement text): each mutant replaces one node."""
    tree = ast.parse(source)

    def seg(node):
        return ast.get_source_segment(source, node)

    out = []

    def shift(label, node):
        out.append((f"{label} +1", node, f"({seg(node)}) + 1"))
        out.append((f"{label} -1", node, f"({seg(node)}) - 1"))

    rules = next(n for n in ast.walk(_function(tree, "_rules")) if isinstance(n, ast.Return)).value
    for pos, entry in enumerate(rules.elts, 1):
        name = entry.elts[0].value
        shift(f"_rules: entry {pos} ({name}) lo", entry.elts[1])
        shift(f"_rules: entry {pos} ({name}) hi", entry.elts[2])

    cuts = next(
        n.args[0]
        for n in ast.walk(_function(tree, "_row_pieces"))
        if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "update"
    )
    for pos, kept in ((1, cuts.elts[1]), (2, cuts.elts[0])):
        out.append((f"_row_pieces: drop cut {pos} of 2", cuts, f"({seg(kept)},)"))

    cells = _function(tree, "generate_cells")
    (last,) = _assigned(cells, "last")
    shift("generate_cells: block end last", last)
    (n_lo,) = _assigned(_function(cells, "row"), "n_lo")
    shift("generate_cells: row's p6 prefix n_lo", n_lo)
    (k_start,) = [v for v in _assigned(cells, "k") if isinstance(v, ast.Constant)]
    out.append(("generate_cells: blocks start at k = 2", k_start, "2"))
    return out


def splice(source: str, node: ast.expr, text: str) -> str:
    """``source`` with ``node``'s text replaced by ``text``."""
    lines = source.splitlines(keepends=True)

    def offset(lineno: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return sum(map(len, lines[: lineno - 1])) + len(lines[lineno - 1].encode()[:col].decode())

    start, end = offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)
    return source[:start] + text + source[end:]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(package: Path, timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for the cell-stage tests on ``package``."""
    env = {**os.environ, "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "tests/test_enumerator.py", "-k", " or ".join(CELL_TESTS),
    ]
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=env, timeout=timeout, preexec_fn=_limit_memory,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main() -> int:
    source = MODULE.read_text()
    todo = mutants(source)
    with tempfile.TemporaryDirectory(prefix="mutate_cells_") as tmp:
        package = Path(tmp) / "delpezzo"
        shutil.copytree(MODULE.parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        t0 = time.perf_counter()
        if run_tests(package, timeout=600) != "pass":
            print("the cell-stage tests fail on the unmutated module", file=sys.stderr)
            return 2
        timeout = max(30.0, 5 * (time.perf_counter() - t0))
        print(f"unmutated run passes in {time.perf_counter() - t0:.1f} s; timeout {timeout:.0f} s")

        killed, unexplained = 0, []
        for label, node, text in todo:
            (package / "enumerator.py").write_text(splice(source, node, text))
            fate = run_tests(package, timeout)
            change = f"{ast.get_source_segment(source, node)!r} -> {text!r}"
            if fate == "pass":
                note = EQUIVALENT.get(label)
                if note is None:
                    unexplained.append(label)
                print(f"SURVIVED  {label}: {change}" + (f"  (equivalent: {note})" if note else ""))
            else:
                killed += 1
                print(f"killed    {label}: {change}  ({'test failed' if fate == 'fail' else 'timed out'})")
            sys.stdout.flush()

    print(f"killed {killed} of {len(todo)} mutants ({killed / len(todo):.0%})")
    for label in unexplained:
        print(f"survivor without a test or an equivalence note: {label}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
