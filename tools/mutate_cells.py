"""Mutation check of the cell, search, survivor, datum, elimination, recipe
and key-map stages: does a test fail for each small change?

Each mutant changes one expression or statement of one module:
``src/delpezzo/enumerator.py`` for the cell, search and key-map stages,
``src/delpezzo/multiplet.py`` for the survivor stage,
``src/delpezzo/elimination.py`` for the datum and elimination stages and
``src/delpezzo/catalog.py`` for the recipe stage.  There is one mutant
table per stage.

The cell stage (``cell_mutants``):

- each bound of ``_rules`` moved by +1 and by -1;
- in ``_verdict_pieces``, each clamp of a rule's interval to a free
  interval (a piece's start and its stop) moved by +1 and by -1, the None
  pieces of the unclaimed remainder dropped, and the empty-window return,
  the skip of empty rules and the early stop deleted;
- a block's ``last`` row in ``generate_cells`` moved by +1 and by -1;
- a row's p6 prefix ``n_lo`` moved by +1 and by -1;
- the block loop started at k = 2, which skips the row h0 = a + 1;
- in a row's walk, the 2 of the ``volume`` block's first window
  ``n_vol = max(n_lo, 2)``, the block sum's ``4 * a + 2`` and
  ``n_vol + top``, and the start of the loop over the windows above the
  block, each moved by +1 and by -1;
- in ``audit``, the stop at a row's first empty window deleted, and
  turned into a stop at its first nonempty window.

The search stage (``search_mutants``):

- each test the walk of ``search_cell`` keeps, deleted: the entry
  precondition, the state test ``all(r <= v_left ...)``, the loop condition
  ``_degrees_feasible``, the clamp ``i = min(i, v_left)``, the
  ``_level_below`` jump, level 1's degree filter ``keep`` and the level-1
  stop ``if i == 1 and be: break``;
- each bound of ``_node_shapes``, ``_node_pairs`` and ``_level_below``
  moved by +1 and by -1, and so the bound s of ``_datum_options``' test
  ``e >= s``, which lets an on-curve point of coefficient e take the
  shapes of a node whose first branch has coefficient 0.

The survivor stage (``survivor_mutants``), in ``certify_survivor``:

- each of the seven checks deleted;
- each check's test flipped: the volume's ``>=``, the index's ``==``, the
  degrees' ``d < 0``, and the ``identities_check`` and
  ``certificate_index_is_a`` verdicts negated;
- the stop at the first failure deleted, and moved above the line that
  records the failed check.

The datum stage (``datum_mutants``), in the ``contacts`` of each kind of
subscheme point, which the search, the elimination and the certificates
read:

- an on-curve point's contact k moved by +1 and by -1;
- a node's first-branch contact 1 made 0 and 2, its second-branch contact
  k2 moved by +1 and by -1, and its two entries swapped.

The elimination stage (``elimination_mutants``), in the record of an
elimination, which keeps the curves through each blow-up centre and
derives each new curve's id from its position:

- ``transform``'s first new id moved by +1 and by -1;
- ``transform_class``'s base count (the exceptional classes below the
  elimination) moved by +1 and by -1, and the sign of its -s flipped;
- in ``eliminate``, a chain's continuation along its host,
  ``(chain[-1], host)``, made ``(chain[-1],)``, and its test ``j <= k``
  made ``j < k``.

The recipe stage (``recipe_mutants``), in ``catalog.entry_recipe``, which
gives the recipe that a catalog configuration is looked up by:

- the steps' ``reverse=True`` dropped, so they run bottom up;
- the length ``_length(a)`` moved by +1 and by -1.

The key-map stage (``key_map_mutants``), in ``catalog_key_map``, which
tags survivors and lists the missing configurations:

- the ``raise`` on a key collision deleted;
- a missing configuration's number ``idx + 1`` made ``idx``;
- the test ``key is None`` inverted.

For each mutant the script copies the package to a temporary directory,
writes the mutated module there and runs the stage's tests against it, with
a timeout per mutant (a block end moved down by one loops forever) and a
memory limit.  A mutant is killed when a test fails or the run times out.
The script prints each mutant's fate and each stage's kill rate, and exits
1 if a mutant survives that is not a known equivalent one.

Run from the repository root, with pytest installed:

    python tools/mutate_cells.py

With Python 3.11 on one core of a 2-core x86-64 host the seven stages take
about 7 minutes together.

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
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delpezzo"

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
    "test_volume_claims_whole_windows_on_a_prefix_of_each_row",
    "test_generate_cells_needs_no_affine_rule",
    "test_generate_cells_matches_the_per_h_sweep",
    "test_a_block_killed_at_one_end_only_is_walked_row_by_row",
    "test_large_multiple_volume_is_a_floor_sum",
    "test_generate_cells_makes_o_sqrt_a_p6_calls",
    "test_generate_cells_reads_a_fixed_handful_of_windows",
    "test_empty_windows_are_the_tail_of_each_row",
    "test_audit_reads_one_empty_window_per_row",
    "test_cells_deterministic",
    "test_classify_four_exact",
    "test_classify_low_index_reports_are_byte_stable",
    "test_audit_matches_the_per_h_sweep",
)

SEARCH_TESTS = (
    "test_plane_branch_excluded",
    "test_level_below_is_where_the_level_walk_stops",
    "test_classify_four_exact",
    "test_classify_low_index_reports_are_byte_stable",
    "test_search_cell_rejects_low_index_candidates",
    "test_search_cell_refuses_a_cell_outside_the_search_model",
    "test_volume_rejects_what_the_allowance_would_let_through",
    "test_search_cell_matches_the_per_level_walk",
    "test_search_cell_counts_its_states_against_the_cap",
    "test_search_cost_does_not_depend_on_the_index",
    "test_subscheme_candidates_match_the_recursive_reference",
    "test_option_shapes_match_the_coefficient_lists",
    "test_node_scan_from_the_support_matches_the_full_scan",
    "test_budgets_take_l_dot_e_from_the_component_degrees",
    "test_the_walk_builds_subschemes_only_where_a_point_fits",
    "test_level_one_walk_spends_every_budget_exactly",
    "test_fuzz_stream_is_pinned",
    "test_fuzz_memo_matches_the_per_attempt_walk",
    "test_fuzz_draws_stop_at_the_largest_fitting_degree",
    "test_fuzz_bottoms_key_into_the_classification",
    "test_audit_small_clean",
    "test_audit_matches_the_per_h_sweep",
)

# Mutants no test can kill, because they change no output; label -> why.
_BELOW = "no rule is asked about h < n h0, outside the window"
_SAVES_WORK = "it only saves work: a rule that meets no free interval leaves them as they are"
CELL_EQUIVALENT = {
    "_rules: entry 1 (window) lo -1": _BELOW,
    "_rules: entry 2 (window) lo -1": _BELOW,
    "_rules: entry 5 (section_budget) lo -1": _BELOW,
    "_rules: entry 6 (sigma_budget) lo -1": _BELOW,
    "_rules: entry 3 (coefficient_persistence) hi +1": "(n + 2) a + 1 is past the window's end already",
    "_rules: entry 6 (sigma_budget) lo +1": (
        "at h = n h0, h + n h0 < -c0 gives h < -(c0 // 2): volume kills the cell first"
    ),
    "_verdict_pieces: delete the skip of empty rules": _SAVES_WORK,
    "_verdict_pieces: delete the early stop": _SAVES_WORK,
}

SEARCH_EQUIVALENT = {
    "_datum_options: on-curve e >= s, bound s -1": (
        "at e = s - 1 >= 1 the k2 range starts at s m / e > m, so it is empty; the test only saves the loop"
    ),
    "_node_shapes: m from -1": "at m = 0 the k2 range 1..min(m, k_cap) is empty",
}

SURVIVOR_TESTS = (
    "test_every_catalog_config_passes_certificates",
    "test_verification_failure_exits_one",
    "test_verify_type_reads_not_run_after_a_failed_check",
    "test_a_survivor_that_fails_a_check_after_the_index_is_an_engine_fault",
    "test_multi_point_configurations_print_stable_bytes",
    "test_failed_identity_reverification_is_a_consistency_error",
    "test_search_cell_rejects_low_index_candidates",
    "test_volume_rejects_what_the_allowance_would_let_through",
    "test_classify_four_exact",
    "test_classify_low_index_reports_are_byte_stable",
)

DATUM_TESTS = (
    "test_chain_shape_on_curve",
    "test_node_chain_attachments",
    "test_transform_node_example",
    "test_eliminate_matches_the_per_kind_reference",
    "test_eliminate_refuses_a_point_of_neither_kind",
    "test_batched_blow_up_matches_the_incidence",
    "test_identity_values_on_c4",
    "test_identities_check_matches_the_per_level_rescan",
    "test_identities_check_rejects_a_tampered_subscheme",
    "test_local_checks_boundary_case",
    "test_local_checks_fire_the_multiplicity_and_level_one_node_rules",
    "test_every_catalog_config_passes_certificates",
    "test_subscheme_candidates_match_the_recursive_reference",
    "test_search_cell_matches_the_per_level_walk",
    "test_level_one_walk_spends_every_budget_exactly",
    "test_classify_four_exact",
)

ELIMINATION_TESTS = (
    "test_chain_shape_on_curve",
    "test_node_chain_attachments",
    "test_transform_on_curve_example",
    "test_transform_node_example",
    "test_relative_canonical_coefficient_is_position",
    "test_closed_forms_match_tape_pullback_spot",
    "test_eliminate_matches_the_per_kind_reference",
    "test_basis_mismatch_is_structural",
    "test_one_pass_kernel_matches_the_chain_arithmetic",
    "test_batched_blow_up_matches_the_incidence",
    "test_identities_check_matches_the_per_level_rescan",
    "test_every_catalog_config_passes_certificates",
)

RECIPE_TESTS = (
    "test_catalog_keys_reuse_exactly_the_survivors_ladders",
    "test_a_configuration_no_survivor_has_is_reported_missing",
    "test_survivors_of_a_dropped_entry_are_unexpected",
    "test_two_entries_sharing_a_key_are_a_consistency_error",
    "test_a_recipe_one_datum_away_lends_no_key",
    "test_classify_four_exact",
)

MEMORY_LIMIT = 2 << 30  # bytes of address space per test run


@dataclass(frozen=True)
class Mutant:
    label: str
    node: ast.AST  # the expression or statement replaced
    text: str  # its replacement


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _assigned(fn: ast.AST, target: str) -> list[ast.expr]:
    """The values assigned to the plain name ``target`` inside ``fn``."""
    return [
        n.value
        for n in ast.walk(fn)
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == [target]
    ]


def _own_nodes(fn: ast.FunctionDef) -> list[ast.AST]:
    """The nodes of ``fn``'s body, not those of the functions it defines."""
    out, todo = [], [fn]
    while todo:
        out.append(todo.pop())
        todo.extend(c for c in ast.iter_child_nodes(out[-1]) if not isinstance(c, ast.FunctionDef))
    return out


def _calls(fn: ast.FunctionDef, name: str) -> list[ast.Call]:
    """The calls of the plain name ``name`` in ``fn``'s own body, in source order."""
    calls = [n for n in _own_nodes(fn) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == name]
    return sorted(calls, key=lambda n: (n.lineno, n.col_offset))


class _Table:
    """The mutants of one source, collected in order."""

    def __init__(self, source: str):
        self.source = source
        self.tree = ast.parse(source)
        self.out: list[Mutant] = []

    def seg(self, node: ast.AST) -> str:
        return ast.get_source_segment(self.source, node)

    def shift(self, label: str, node: ast.expr) -> None:
        self.out.append(Mutant(f"{label} +1", node, f"({self.seg(node)}) + 1"))
        self.out.append(Mutant(f"{label} -1", node, f"({self.seg(node)}) - 1"))

    def shift_range(self, label: str, call: ast.Call) -> None:
        """Shift ``range(lo, hi + 1)``'s lo and its inclusive end hi."""
        lo, stop = call.args
        self.shift(f"{label} from", lo)
        self.shift(f"{label} to", stop.left)


def cell_mutants(source: str) -> list[Mutant]:
    t = _Table(source)
    rules = next(n for n in ast.walk(_function(t.tree, "_rules")) if isinstance(n, ast.Return)).value
    for pos, entry in enumerate(rules.elts, 1):
        name = entry.elts[0].value
        t.shift(f"_rules: entry {pos} ({name}) lo", entry.elts[1])
        t.shift(f"_rules: entry {pos} ({name}) hi", entry.elts[2])

    pieces = _function(t.tree, "_verdict_pieces")
    (start,) = _assigned(pieces, "s")
    (stop,) = _assigned(pieces, "e")
    t.shift("_verdict_pieces: clamp of a piece's start", start)
    t.shift("_verdict_pieces: clamp of a piece's stop", stop)
    (rest,) = [n for n in pieces.body if isinstance(n, ast.For) and getattr(n.iter, "id", None) == "free"]
    t.out.append(Mutant("_verdict_pieces: drop the None pieces", rest, "pass"))
    ifs = [n for n in _own_nodes(pieces) if isinstance(n, ast.If)]
    for what, kind in (("the empty-window return", ast.Return), ("the skip of empty rules", ast.Continue),
                       ("the early stop", ast.Break)):
        (node,) = [n for n in ifs if isinstance(n.body[0], kind)]
        t.out.append(Mutant(f"_verdict_pieces: delete {what}", node, "pass"))

    cells = _function(t.tree, "generate_cells")
    (last,) = _assigned(cells, "last")
    t.shift("generate_cells: block end last", last)
    row = _function(cells, "row")
    (n_lo,) = _assigned(row, "n_lo")
    t.shift("generate_cells: row's p6 prefix n_lo", n_lo)
    (k_start,) = [v for v in _assigned(cells, "k") if isinstance(v, ast.Constant)]
    t.out.append(Mutant("generate_cells: blocks start at k = 2", k_start, "2"))

    (n_vol,) = _assigned(row, "n_vol")
    t.shift("generate_cells: n_vol's 2", n_vol.args[1])
    (block,) = [c.args[1] for c in _calls(row, "kill") if getattr(c.args[0], "value", None) == "volume"]
    sums = [n for n in ast.walk(block) if isinstance(n, ast.BinOp)]
    (size,) = [n for n in sums if t.seg(n).endswith("4 * a + 2")]  # (... + 4 * a) + 2
    t.shift("generate_cells: the volume block sum's 4 * a + 2", size.right)
    (ends,) = [n for n in sums if t.seg(n) == "n_vol + top"]
    t.shift("generate_cells: the volume block sum's n_vol + top", ends)
    (upper,) = [c for c in _calls(row, "range") if t.seg(c.args[0]) == "top + 1"]
    t.shift("generate_cells: start of the windows above the volume block", upper.args[0])

    sweep = _function(t.tree, "audit")
    (stop,) = [n for n in _own_nodes(sweep) if isinstance(n, ast.If) and isinstance(n.body[0], ast.Break)]
    t.out.append(Mutant("audit: delete the stop at a row's first empty window", stop, "pass"))
    t.out.append(Mutant("audit: stop at a row's first nonempty window", stop.test, "pieces"))
    return t.out


def search_mutants(source: str) -> list[Mutant]:
    t = _Table(source)
    search = _function(t.tree, "search_cell")
    own = _own_nodes(search)
    ifs = [n for n in own if isinstance(n, ast.If)]
    (entry,) = [n for n in search.body if isinstance(n, ast.If)]
    t.out.append(Mutant("search_cell: delete the entry precondition", entry, "pass"))
    (state,) = [n for n in ifs if n.test in _calls(search, "all")]
    t.out.append(Mutant("search_cell: delete the state test", state.test, "True"))
    (walk,) = [n for n in own if isinstance(n, ast.While) and n.test in _calls(search, "_degrees_feasible")]
    t.out.append(Mutant("search_cell: delete the degree test of the level walk", walk.test, "True"))
    (clamp,) = [n for n in own if isinstance(n, ast.Assign) and n.value in _calls(search, "min")]
    t.out.append(Mutant("search_cell: delete the clamp i = min(i, v_left)", clamp, "pass"))
    (jump,) = [n for n in ifs if getattr(n.body[0], "value", None) in _calls(search, "_level_below")]
    t.out.append(Mutant("search_cell: delete the _level_below jump", jump, "pass"))
    (keep,) = _assigned(search, "keep")
    t.out.append(Mutant("search_cell: delete level 1's degree filter", keep, "None"))
    (stop,) = [n for n in ifs if isinstance(n.body[0], ast.Break) and isinstance(n.test, ast.BoolOp)]
    t.out.append(Mutant("search_cell: delete the level-1 stop", stop, "pass"))

    options = _function(t.tree, "_datum_options")
    (on_curve,) = [
        n for n in ast.walk(options) if isinstance(n, ast.Compare) and isinstance(n.ops[0], ast.GtE)
    ]
    t.shift("_datum_options: on-curve e >= s, bound s", on_curve.comparators[0])

    node = _function(t.tree, "_node_shapes")
    t.shift("_node_shapes: k_cap's (a - 1 - e1) // (e2 - s)", _calls(node, "min")[0].args[1])
    m_range, k_range = _calls(node, "range")
    t.shift_range("_node_shapes: m", m_range)
    (k_lo,) = _assigned(node, "k_lo")
    t.shift("_node_shapes: k2 from, need > 0", k_lo.body)
    t.shift("_node_shapes: k2 from, need <= 0", k_lo.orelse)
    t.shift("_node_shapes: k2 to", k_range.args[1].left)

    pairs = next(n for n in ast.walk(_function(t.tree, "_node_pairs")) if isinstance(n, ast.Compare) and len(n.ops) == 2)
    t.shift("_node_pairs: first coefficient's lower bound 0", pairs.left)
    t.shift("_node_pairs: first coefficient's upper bound a", pairs.comparators[1])

    t.shift("_level_below: the level", _calls(_function(t.tree, "_level_below"), "max")[0].args[1])
    return t.out


def survivor_mutants(source: str) -> list[Mutant]:
    t = _Table(source)
    survivor = _function(t.tree, "certify_survivor")
    (checks,) = _assigned(survivor, "checks")
    for entry in checks.elts:
        kept = ", ".join(t.seg(e) for e in checks.elts if e is not entry)
        t.out.append(Mutant(f"certify_survivor: delete the {entry.elts[0].value} check", checks, f"({kept})"))
    for entry in checks.elts:  # the ladder and local checks have no test of their own
        name, body = entry.elts[0].value, entry.elts[1].body
        if isinstance(body, ast.IfExp):
            tests = [body.test]
        else:
            tests = [n.ifs[0] for n in ast.walk(body) if getattr(n, "ifs", None)]
        for test in tests:
            t.out.append(Mutant(f"certify_survivor: flip the {name} check's test", test, f"not ({t.seg(test)})"))
    (loop,) = [n for n in survivor.body if isinstance(n, ast.For)]
    record, stop = loop.body
    t.out.append(Mutant("certify_survivor: delete the stop at the first failure", stop, "pass"))
    (entry, failures), indent = record.targets, " " * record.col_offset  # ran[name] = failures = ...
    failures = t.seg(failures)
    moved = f"{failures} = {t.seg(record.value)}\n{indent}{t.seg(stop)}\n{indent}{t.seg(entry)} = {failures}"
    t.out.append(Mutant("certify_survivor: stop before the failed check is recorded", record, moved))
    return t.out


def datum_mutants(source: str) -> list[Mutant]:
    t = _Table(source)

    def contacts(kind: str) -> ast.Tuple:
        cls = next(n for n in ast.walk(t.tree) if isinstance(n, ast.ClassDef) and n.name == kind)
        return next(n for n in ast.walk(_function(cls, "contacts")) if isinstance(n, ast.Return)).value

    (on_curve,) = contacts("OnCurveDatum").elts
    t.shift("OnCurveDatum.contacts: k", on_curve.elts[1])
    node = contacts("NodeDatum")
    first, second = node.elts
    for value in ("0", "2"):
        t.out.append(Mutant(f"NodeDatum.contacts: first-branch contact {value}", first.elts[1], value))
    t.shift("NodeDatum.contacts: k2", second.elts[1])
    t.out.append(Mutant("NodeDatum.contacts: entries swapped", node, f"({t.seg(second)}, {t.seg(first)})"))
    return t.out


def elimination_mutants(source: str) -> list[Mutant]:
    t = _Table(source)
    (first,) = _assigned(_function(t.tree, "transform"), "first")
    t.shift("transform: the first new id", first)
    transform_class = _function(t.tree, "transform_class")
    (below,) = _assigned(transform_class, "below")
    t.shift("transform_class: the base count", below)
    (minus_s,) = [n for n in ast.walk(transform_class) if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)]
    t.out.append(Mutant("transform_class: the sign of -s", minus_s, "s"))
    (through,) = _assigned(_function(t.tree, "eliminate"), "through")
    later = through.orelse  # (chain[-1], host) if j <= k else (chain[-1],)
    t.out.append(Mutant("eliminate: the continuation along the host dropped", later.body, "(chain[-1],)"))
    t.out.append(Mutant("eliminate: j <= k made j < k", later.test, "j < k"))
    return t.out


def recipe_mutants(source: str) -> list[Mutant]:
    t = _Table(source)
    recipe = _function(t.tree, "entry_recipe")
    (steps,) = _calls(recipe, "sorted")
    t.out.append(Mutant("entry_recipe: reverse=True dropped", steps, f"sorted({t.seg(steps.args[0])})"))
    (length,) = _calls(recipe, "_length")
    t.shift("entry_recipe: the length", length)
    return t.out


def key_map_mutants(source: str) -> list[Mutant]:
    t = _Table(source)
    key_map = _function(t.tree, "catalog_key_map")
    own = _own_nodes(key_map)
    (collision,) = [n for n in own if isinstance(n, ast.Raise)]
    t.out.append(Mutant("catalog_key_map: delete the raise on a key collision", collision, "pass"))
    (number,) = [n for n in own if isinstance(n, ast.BinOp) and t.seg(n) == "idx + 1"]
    t.out.append(Mutant("catalog_key_map: idx + 1 made idx", number, "idx"))
    (unknown,) = [n for n in own if isinstance(n, ast.Compare) and t.seg(n) == "key is None"]
    t.out.append(Mutant("catalog_key_map: key is None inverted", unknown, "key is not None"))
    return t.out


@dataclass(frozen=True)
class Stage:
    module: str  # the mutated module's file name in src/delpezzo
    mutants: Callable[[str], list[Mutant]]  # the module's source -> its mutants
    files: tuple[str, ...]  # the test files that hold ``tests``
    tests: tuple[str, ...]  # test names
    equivalent: dict[str, str]


STAGES = {
    "cells": Stage("enumerator.py", cell_mutants, ("tests/test_enumerator.py",), CELL_TESTS, CELL_EQUIVALENT),
    "search": Stage("enumerator.py", search_mutants, ("tests/test_enumerator.py",), SEARCH_TESTS, SEARCH_EQUIVALENT),
    "survivor": Stage(
        "multiplet.py",
        survivor_mutants,
        ("tests/test_multiplet.py", "tests/test_cli.py", "tests/test_enumerator.py"),
        SURVIVOR_TESTS,
        {},
    ),
    "datum": Stage(
        "elimination.py",
        datum_mutants,
        ("tests/test_elimination.py", "tests/test_lattice.py", "tests/test_multiplet.py", "tests/test_enumerator.py"),
        DATUM_TESTS,
        {},
    ),
    "elimination": Stage(
        "elimination.py",
        elimination_mutants,
        ("tests/test_elimination.py", "tests/test_lattice.py", "tests/test_multiplet.py"),
        ELIMINATION_TESTS,
        {},
    ),
    "recipe": Stage("catalog.py", recipe_mutants, ("tests/test_enumerator.py",), RECIPE_TESTS, {}),
    "key-map": Stage("enumerator.py", key_map_mutants, ("tests/test_enumerator.py",), RECIPE_TESTS, {}),
}


def splice(source: str, node: ast.AST, text: str) -> str:
    """``source`` with ``node``'s text replaced by ``text``."""
    lines = source.splitlines(keepends=True)

    def offset(lineno: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return sum(map(len, lines[: lineno - 1])) + len(lines[lineno - 1].encode()[:col].decode())

    start, end = offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)
    return source[:start] + text + source[end:]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(package: Path, stage: Stage, timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for ``stage``'s tests on ``package``."""
    env = {**os.environ, "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        *stage.files, "-k", " or ".join(stage.tests),
    ]
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=env, timeout=timeout, preexec_fn=_limit_memory,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def run_stage(name: str, stage: Stage) -> list[str] | None:
    """Run every mutant of ``stage``; return the labels of the survivors
    without an equivalence note, or None if the stage's tests fail on the
    unmutated module."""
    source = (PACKAGE / stage.module).read_text()
    todo = stage.mutants(source)
    with tempfile.TemporaryDirectory(prefix=f"mutate_{name}_") as tmp:
        package = Path(tmp) / "delpezzo"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        t0 = time.perf_counter()
        if run_tests(package, stage, timeout=600) != "pass":
            print(f"the {name}-stage tests fail on the unmutated module", file=sys.stderr)
            return None
        timeout = max(30.0, 5 * (time.perf_counter() - t0))
        print(f"{name}: unmutated run passes in {time.perf_counter() - t0:.1f} s; timeout {timeout:.0f} s")

        killed, unexplained = 0, []
        for m in todo:
            (package / stage.module).write_text(splice(source, m.node, m.text))
            fate = run_tests(package, stage, timeout)
            change = f"{ast.get_source_segment(source, m.node)!r} -> {m.text!r}"
            if fate == "pass":
                note = stage.equivalent.get(m.label)
                if note is None:
                    unexplained.append(m.label)
                print(f"SURVIVED  {m.label}: {change}" + (f"  (equivalent: {note})" if note else ""))
            else:
                killed += 1
                print(f"killed    {m.label}: {change}  ({'test failed' if fate == 'fail' else 'timed out'})")
            sys.stdout.flush()

    print(f"{name}: killed {killed} of {len(todo)} mutants ({killed / len(todo):.0%})")
    for label in unexplained:
        print(f"survivor without a test or an equivalence note: {label}")
    return unexplained


def main() -> int:
    code = 0
    for name, stage in STAGES.items():
        unexplained = run_stage(name, stage)
        if unexplained is None:
            return 2
        code = code or int(bool(unexplained))
    return code


if __name__ == "__main__":
    sys.exit(main())
