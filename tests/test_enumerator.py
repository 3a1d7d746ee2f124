import hashlib
import itertools
import json
import random
import re
from dataclasses import fields, replace
from math import factorial, isqrt

import pytest

from delpezzo import catalog, enumerator, graphs, multiplet
from delpezzo.catalog import (
    _partitions,
    build_entry_ladder,
    catalog_entries,
    entry_by_name,
    entry_recipe,
    top_divisor,
    top_model,
)
from delpezzo.elimination import (
    NodeDatum,
    OnCurveDatum,
    Subscheme,
    node_coefficients,
    on_curve_coefficients,
)
from delpezzo.enumerator import (
    AUDIT_WINDOW_CAP,
    AuditReport,
    SearchCell,
    SearchExplosion,
    _normalization_active,
    _verdict_pieces,
    audit,
    canonical_form,
    catalog_key_map,
    cell_verdict,
    classify,
    generate_cells,
    p1_plane_excluded,
    p2_multiple_range,
    p4_length,
    p5_region_killed,
    p6_large_multiple_kill,
    p7_degree_cap,
    random_pseudo_fundamental_ladders,
    search_cell,
)
from delpezzo.graphs import CanonicalizationError, WeightedGraph, canonical_key
from delpezzo.lattice import Divisor
from delpezzo.multiplet import (
    BasicPair,
    InternalConsistencyError,
    _datum_json,
    build_ladder,
    certificate_index_is_a,
    certify_ladder,
    check_basic_pair,
    close_ladder,
    descend_step,
    identities_check,
    ladder_json,
)


@pytest.mark.parametrize("a", [4, 5, 6, 7, 8])
def test_plane_branch_excluded(a):
    assert p1_plane_excluded(a)


def test_small_multiple_kills():
    # every cell with 2 <= h0 <= a dies by the window or one of the three
    # small-multiple reasons, as p5_region_killed claims
    small = {"window", "coefficient_persistence", "volume", "section_budget"}
    for a in range(3, 13):
        assert p5_region_killed(a)
        for h0 in range(2, a + 1):
            for n in range(0, 2 * a + 5):
                for h in range(n * h0, (n + 2) * a + 1):
                    assert cell_verdict(a, n, h0, h) in small


def test_large_multiple_kill_values():
    # at index 4 the bound leaves a handful of cells open, at 5 none
    assert not p6_large_multiple_kill(4, 3, 6)
    assert p6_large_multiple_kill(4, 1, 6)
    for n in range(0, p7_degree_cap(5, 7) + 1):
        assert p6_large_multiple_kill(5, n, 7)


def test_degree_cap():
    assert p7_degree_cap(4, 5) == 8
    assert p7_degree_cap(4, 6) == 4
    assert p7_degree_cap(8, 9) == 16


def _cell_verdict_reference(a, n, h0, h):
    """The if chain that the rule table replaced, kept as the reference."""
    b = h0 // 2
    if (
        not n * h0 <= h <= (n + 2) * a
        or h0 * (2 * h - n * h0) <= 0
        or h - (n + 2) * b < n * (h0 - 2 * b)
    ):
        return "window"
    if h0 <= a and h > 2 * a + n * (h0 - 1):
        return "coefficient_persistence"
    cap = -n * h0 + 2 * h0 + 2 * h - 2 * a * a
    if cap < 0:
        return "volume"
    if h0 <= a and 2 * a * a > (2 - n) * h0 + h:
        return "section_budget"
    if h - n * h0 > cap:
        return "sigma_budget"
    if (n + 2) * a - h >= n and h <= cap:
        return "unresolved_sections"
    return None


def test_cell_verdict_matches_the_reference_chain():
    for a in range(2, 11):
        for h0 in range(1, 2 * a):
            for n in range(0, 3 * a + 1):
                for h in range(n * h0 - 2, (n + 2) * a + 3):
                    want = _cell_verdict_reference(a, n, h0, h)
                    assert cell_verdict(a, n, h0, h) == want, (a, n, h0, h)


def test_sections_excluded_on_generated_cells():
    for a in (4, 5, 6):
        cells, _ = generate_cells(a)
        for c in cells:
            assert cell_verdict(c.a, c.n, c.h0, c.h) is None


def test_audit_and_classify_share_the_cell_verdict():
    # audit sweeps each cell that classify prunes by region, so with n up to
    # 2a it must search exactly the cells classify generates
    for a in range(3, 13):
        rep = classify(a)
        swept = audit(a, 2 * a)
        assert swept.searched == rep.cells_visited
        if a >= 4:
            assert swept.survivors_in_catalog == len(rep.survivors)


def _cells_per_h(a):
    """Reference for generate_cells: one cell_verdict call per cell."""
    killed = {}

    def kill(reason):
        killed[reason] = killed.get(reason, 0) + 1

    cells = []
    if not p5_region_killed(a):
        killed["small_multiple_region_open"] = 1
    for h0 in range(1, 2 * a):
        b = p4_length(h0)
        if b < 1:
            kill("length_zero")
            continue
        if h0 <= a:
            if p5_region_killed(a):
                kill("small_multiple_region")
                continue
            n_hi = 2 * a
        else:
            n_hi = p7_degree_cap(a, h0)
        for n in range(0, n_hi + 1):
            if enumerator.p6_large_multiple_kill(a, n, h0):
                kill("large_multiple_volume")
                continue
            for h in range(n * h0, (n + 2) * a + 1):
                reason = cell_verdict(a, n, h0, h)
                if reason:
                    kill(reason)
                    continue
                cells.append(SearchCell(a, n, h0, h))
    return cells, killed


def test_cell_verdict_is_constant_between_breakpoints():
    # over the wider sweep audit makes (h0 <= a, n beyond the n-cap), the
    # pieces tile the window in order and each one's verdict holds at every
    # h in it; at a = 16 and 28 (the audit-sweep index) it samples n, up to
    # and past 2a, where generate_cells ends the rows h0 <= a
    sweeps = [(a, range(0, 3 * a + 1)) for a in range(2, 9)]
    sweeps += [(a, (0, 1, a, *range(2 * a - 5, 2 * a + 1), 4 * a)) for a in (16, 28)]
    for a, ns in sweeps:
        for h0 in range(1, 2 * a):
            for n in ns:
                h = n * h0
                for start, stop, verdict in _verdict_pieces(a, n, h0):
                    assert start == h < stop, (a, n, h0, start)
                    for h in range(start, stop):
                        assert cell_verdict(a, n, h0, h) == verdict, (a, n, h0, h)
                    h = stop
                assert h == max(n * h0, (n + 2) * a + 1), (a, n, h0)


def test_rules_are_affine_in_n_on_each_parity():
    # generate_cells does not rely on this, but a closed-form count of the
    # kills for all a would: the window ends and every bound of _rules have
    # zero second difference at step 2 in n
    def lines(a, n, h0):
        bounds = (x for _, lo, hi in enumerator._rules(a, n, h0) for x in (lo, hi))
        return (n * h0, (n + 2) * a, *bounds)

    for a in range(2, 25):
        for h0 in range(1, 2 * a):
            for n in range(0, 3 * a - 3):
                second = zip(lines(a, n, h0), lines(a, n + 2, h0), lines(a, n + 4, h0))
                assert all(x - 2 * y + z == 0 for x, y, z in second), (a, n, h0)


def test_large_multiple_kill_is_monotone_in_h0_at_fixed_n():
    # generate_cells kills a block of rows from p6 at its two end rows: at
    # fixed n the left side of p6 is affine in h0, so the rows it kills are
    # a prefix or a suffix of h0 >= a + 2
    for a in [*range(2, 65), 512]:
        for n in range(0, 2 * a + 1):
            kills = [p6_large_multiple_kill(a, n, h0) for h0 in range(a + 2, 2 * a)]
            assert kills in (sorted(kills), sorted(kills, reverse=True)), (a, n)


def test_large_multiple_kill_holds_on_a_prefix_of_each_row():
    # generate_cells finds the end of the p6 kills of a row by a forward scan,
    # which stops at the first n where p6 fails
    for a in [*range(2, 65), 512]:
        for h0 in range(a + 2, 2 * a):
            kills = [p6_large_multiple_kill(a, n, h0) for n in range(p7_degree_cap(a, h0) + 1)]
            assert kills == sorted(kills, reverse=True), (a, h0)


def test_volume_claims_whole_windows_on_a_prefix_of_each_row():
    # generate_cells kills the windows n >= 2 that volume claims whole as one
    # block and finds its end by walking down from the n-cap: on the rows
    # h0 > a rules 1-3 are empty there, volume starts at n h0, and the
    # windows it claims whole come first in n
    for a in [*range(2, 65), 512]:
        for h0 in range(a + 1, 2 * a):
            whole = []
            for n in range(2, p7_degree_cap(a, h0) + 1):
                rules = enumerator._rules(a, n, h0)
                lo, top = n * h0, (n + 2) * a + 1
                assert all(max(r_lo, lo) >= min(r_hi, top) for _, r_lo, r_hi in rules[:3]), (a, n, h0)
                assert rules[3][:2] == ("volume", lo), (a, n, h0)
                whole.append(_verdict_pieces(a, n, h0) == [(lo, top, "volume")])
            assert whole == sorted(whole, reverse=True), (a, h0)
    # on the rows h0 <= a, which only a = 2 walks, coefficient_persistence
    # claims the end of every window n >= 1: none is one volume piece
    for a in range(2, 13):
        for h0 in range(1, a + 1):
            for n in range(1, 2 * a + 1):
                assert _verdict_pieces(a, n, h0)[-1][2] == "coefficient_persistence", (a, n, h0)


def test_empty_windows_are_the_tail_of_each_row():
    # audit ends a row at its first empty window: n h0 <= h <= (n + 2) a is
    # empty exactly when n (h0 - a) > 2a, past the n-cap for h0 > a and
    # never for h0 <= a
    for a in [*range(2, 65), 512]:
        for h0 in range(a + 1, 2 * a):
            cap = p7_degree_cap(a, h0)
            for n in range(cap + 4):
                assert (_verdict_pieces(a, n, h0) == []) == (n > cap), (a, n, h0)
        for h0 in range(1, a + 1):
            for n in range(3 * a + 1):
                assert _verdict_pieces(a, n, h0), (a, n, h0)


def test_generate_cells_needs_no_affine_rule(monkeypatch):
    # a bound that is not affine in n changes no count: generate_cells takes
    # every window it does not kill whole from _verdict_pieces
    rules = enumerator._rules

    def bent(a, n, h0):
        *head, (name, lo, hi) = rules(a, n, h0)
        return (*head, (name, lo, hi + n * n))

    monkeypatch.setattr(enumerator, "_rules", bent)
    for a in (5, 16):
        cells, killed = generate_cells(a)
        ref_cells, ref_killed = _cells_per_h(a)
        assert cells == ref_cells
        assert list(killed.items()) == list(ref_killed.items())


@pytest.mark.parametrize("a", [*range(2, 65), 127, 129, 255, 256, 257, 384, 512])
def test_generate_cells_matches_the_per_h_sweep(a):
    # a missed breakpoint would miscount kills silently: compare the cells,
    # the kill counts and the order in which kill reasons first appear
    cells, killed = generate_cells(a)
    ref_cells, ref_killed = _cells_per_h(a)
    assert cells == ref_cells
    assert killed == ref_killed
    assert list(killed) == list(ref_killed)


@pytest.mark.parametrize("tilt", [0, 4])
def test_a_block_killed_at_one_end_only_is_walked_row_by_row(monkeypatch, tilt):
    # at a = 50 the rows k = h0 - a = 21..25 share the n-cap 4.  This p6 is
    # affine in h0 and grows with n, as the real one, but spares the rows on
    # one side of k = 23 at the cap: the near side without tilt, the far
    # side with it.  generate_cells must then walk the block row by row
    a, cap = 50, 4

    def left(n, h0):
        return n * (2 * a - h0) + 2 * h0 + 4 * a + tilt * h0

    bound = left(cap, a + 23) + 1
    monkeypatch.setattr(
        enumerator, "p6_large_multiple_kill", lambda a, n, h0: h0 >= a + 2 and left(n, h0) < bound
    )
    spared = [k for k in range(21, 26) if left(cap, a + k) >= bound]
    assert spared == ([21, 22] if tilt == 0 else [24, 25])
    cells, killed = generate_cells(a)
    ref_cells, ref_killed = _cells_per_h(a)
    assert cells == ref_cells
    assert list(killed.items()) == list(ref_killed.items())


@pytest.mark.parametrize("a", [64, 512, 4096, 65536])
def test_large_multiple_volume_is_a_floor_sum(a):
    # rows h0 = a + k, 2 <= k <= a - 1, die whole at every n up to the cap 2a // k
    _, killed = generate_cells(a)
    assert killed["large_multiple_volume"] == sum(2 * a // k + 1 for k in range(2, a))


@pytest.mark.parametrize("a", [4096, 65536])
def test_generate_cells_makes_o_sqrt_a_p6_calls(monkeypatch, a):
    # one test per end row of each block of equal n-cap (about 2 sqrt(2a)
    # blocks), plus one scan step on row a + 1, the first block; not one per row
    calls = []
    p6 = enumerator.p6_large_multiple_kill
    monkeypatch.setattr(enumerator, "p6_large_multiple_kill", lambda *args: calls.append(args) or p6(*args))
    generate_cells(a)
    assert len(calls) <= 6 * isqrt(a)


@pytest.mark.parametrize("a", [8, 512, 4096, 65536])
def test_generate_cells_reads_a_fixed_handful_of_windows(monkeypatch, a):
    # from a = 5 on only the row h0 = a + 1 is walked: the windows n = 0 and 1,
    # the top windows that volume does not claim whole (five from a = 8 on)
    # and the first one it does, not one window per n
    calls = []
    pieces = enumerator._verdict_pieces
    monkeypatch.setattr(enumerator, "_verdict_pieces", lambda *args: calls.append(args) or pieces(*args))
    generate_cells(a)
    assert len(calls) <= 8


def test_level_below_is_where_the_level_walk_stops():
    # search_cell and _degrees_feasible jump to the largest level j' <= j with
    # j'(a - j') <= w, or to 0, in place of walking down one level at a time
    for a in range(2, 65):
        for j in range(a + 1):
            for w in range(-1, -(-a * a // 4) + 2):
                walked = j
                while walked and walked * (a - walked) > w:
                    walked -= 1
                jumped = j if j * (a - j) <= w else enumerator._level_below(a, w)
                assert jumped == walked, (a, j, w)


def test_cells_deterministic():
    c1, k1 = generate_cells(5)
    c2, k2 = generate_cells(5)
    assert c1 == c2 and k1 == k2


def test_canonical_form_separates_the_double_point_configurations():
    a = 6
    k1 = canonical_form(build_entry_ladder(entry_by_name(a, "II_1"), a, 0).bottom_pair)
    k2 = canonical_form(build_entry_ladder(entry_by_name(a, "II_2"), a, 0).bottom_pair)
    assert k1 != k2


def test_canonical_form_separates_equal_volumes():
    kb = canonical_form(build_entry_ladder(entry_by_name(4, "B4"), 4, 0).bottom_pair)
    kc = canonical_form(build_entry_ladder(entry_by_name(4, "C4"), 4, 0).bottom_pair)
    assert kb != kc


def test_canonical_form_ignores_fiber_labels():
    # build the same surface with fibers introduced in both orders
    from delpezzo.elimination import OnCurveDatum, Subscheme
    from delpezzo.lattice import Divisor, SurfaceModel
    from delpezzo.multiplet import InternalConsistencyError, build_ladder

    keys = []
    for flip in (False, True):
        top = SurfaceModel.hirzebruch(8)
        top, la = top.add_fiber()
        top, lb = top.add_fiber()
        first, second = (lb, la) if flip else (la, lb)
        E = Divisor.from_dict({0: 4, first.id: 2, second.id: 2})
        steps = {3: Subscheme((OnCurveDatum(first.id, 2, 2), OnCurveDatum(second.id, 2, 2)))}
        lad = build_ladder(5, top, E, 3, steps)
        keys.append(canonical_form(lad.bottom_pair))
    assert keys[0] == keys[1]


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(20240817)
    for _ in range(50):
        n = rng.randint(1, 7)
        weights = [(rng.randint(-8, -1), rng.randint(0, 3)) for _ in range(n)]
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.add((i, j))
        g = WeightedGraph.build(weights, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = WeightedGraph.build(
            [weights[perm[i]] for i in range(n)],
            {(perm.index(i), perm.index(j)) for i, j in edges},
        )
        assert canonical_key(g) == canonical_key(g2)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_canonical_key_refuses_a_class_over_the_labeling_cap(monkeypatch, k):
    # a star whose k leaves share one colour class has k! candidate labelings
    star = WeightedGraph.build([(-k, 1)] + [(-2, 1)] * k, [(0, j) for j in range(1, k + 1)])
    labelings = factorial(k)
    monkeypatch.setattr(graphs, "_PERM_CAP", labelings - 1)
    with pytest.raises(
        CanonicalizationError,
        match=re.escape(f"too many candidate labelings ({labelings}) for a graph on {k + 1} vertices"),
    ):
        canonical_key(star)
    monkeypatch.setattr(graphs, "_PERM_CAP", labelings)
    weights, edges = canonical_key(star)
    assert sorted(weights) == sorted(star.weights) and len(edges) == k


def test_classify_refuses_an_index_over_the_cap_before_it_starts(monkeypatch):
    # the library refuses what the command line refuses, before any cell is made
    def unreachable(a):
        raise AssertionError("generate_cells ran")

    monkeypatch.setattr(enumerator, "generate_cells", unreachable)
    message = f"classify takes an index of at most {enumerator.CLASSIFY_INDEX_CAP}"
    with pytest.raises(ValueError, match=re.escape(message)):
        classify(enumerator.CLASSIFY_INDEX_CAP + 1)
    with pytest.raises(ValueError, match="starts at index 2"):
        classify(1)


def test_classify_four_exact():
    rep = classify(4)
    assert rep.catalog_match
    assert [(r["type"], r["volume"], r["configurations"]) for r in rep.rows] == [
        ("O", "25/2", 1),
        ("I", "23/2", 1),
        ("II_1", "21/2", 1),
        ("II_2", "21/2", 1),
        ("III", "19/2", 3),
        ("IV", "17/2", 5),
        ("B4", "8", 1),
        ("C4", "8", 1),
    ]
    assert len(rep.survivors) == 14
    assert all(s["index"] == 4 for s in rep.survivors)
    assert all(s["index_certificate"] for s in rep.survivors)


def _built_key_map(a):
    """Entry name by canonical key, each catalog configuration at a built
    with ``build_entry_ladder``, certified and keyed: the catalog's own
    route, independent of the search."""
    out = {}
    for entry in catalog_entries(a):
        for idx in range(len(entry.configs)):
            ladder = build_entry_ladder(entry, a, idx)
            assert certify_ladder(ladder).passed, (a, entry.name, idx)
            key = canonical_form(ladder.bottom_pair)
            assert out.setdefault(key, entry.name) == entry.name, (a, entry.name, idx)
    return out


def test_classify_reports_are_sound():
    rep = classify(5)
    keys = {s["key"] for s in rep.survivors}
    assert keys == set(_built_key_map(5))
    assert rep.configurations < 2_000_000  # explicit termination counter


def test_report_json_keys_are_the_report_fields():
    # a report field has one name, its JSON key: to_json adds only the one
    # derived key of each report
    rep = classify(5)
    assert set(rep.to_json()) == {f.name for f in fields(rep)} | {"catalog_match"}
    rep = audit(4, 12)
    assert set(rep.to_json()) == {f.name for f in fields(rep)} | {"clean"}


def _ladder_recipe(ladder):
    """A ladder's recipe, read off the built ladder: the key of ``CellOutcome.known``."""
    steps = tuple((lv.i, lv.delta) for lv in ladder.levels[:-1])
    return ladder.top.model.n, ladder.top.E, ladder.b, steps


def test_catalog_keys_reuse_exactly_the_survivors_ladders(monkeypatch):
    # classify and audit take a catalog configuration's key from the survivor
    # with its recipe, and build no catalog ladder, not even in a partial
    # audit; that survivor is the configuration, built the same way, and
    # wherever every configuration is reached the map equals the one that
    # builds them all
    closed, built, calls = {}, [], []

    def closing(*args):
        ladder = close_ladder(*args)
        closed[_ladder_recipe(ladder)] = ladder
        return ladder

    def building(*args):
        built.append(args)
        return build_ladder(*args)

    def key_map(a, entries, known):
        calls.append((a, known, *catalog_key_map(a, entries, known)))
        return calls[-1][2:]

    assert not hasattr(enumerator, "build_entry_ladder")
    monkeypatch.setattr(enumerator, "close_ladder", closing)
    monkeypatch.setattr(catalog, "build_ladder", building)  # what build_entry_ladder calls
    monkeypatch.setattr(enumerator, "catalog_key_map", key_map)
    full = [(classify, (a,)) for a in [*range(4, 41), 64, 512]] + [(audit, (5, 14)), (audit, (28, 112))]
    partial = [(audit, (8, 4)), (audit, (5, 5)), (audit, (4, 4)), (audit, (12, 10, 13))]
    for run, args in full + partial:
        for log in (closed, built, calls):
            log.clear()
        run(*args)
        [(a, known, keys, missing)] = calls
        # the catalog lists its points as the search does, so nothing is built
        assert built == [], args
        reached, unreached = {}, []
        for entry in catalog_entries(a):
            for idx in range(len(entry.configs)):
                recipe = entry_recipe(entry, a, idx)
                if recipe in known:
                    ladder = build_entry_ladder(entry, a, idx)
                    assert ladder == closed[recipe], (args, entry.name, idx)
                    assert canonical_form(ladder.bottom_pair) == known[recipe]
                    reached[known[recipe]] = entry.name
                else:
                    unreached.append({"type": entry.name, "volume": str(entry.volume), "configuration": idx + 1})
        assert (keys, missing) == (reached, unreached), args
        # only a partial audit leaves configurations unreached
        assert (missing == []) == ((run, args) in full), args
        if not missing:
            assert keys == _built_key_map(a), args


def _recording_ladder_json(monkeypatch):
    """Route ``search_cell``'s survivor records through a recorder; returns
    the list of (ladder, record) it fills, one per certified survivor."""
    recorded = []

    def recording(ladder, certificates=None):
        recorded.append((ladder, ladder_json(ladder, certificates)))
        return recorded[-1][1]

    monkeypatch.setattr(enumerator, "ladder_json", recording)
    return recorded


def _deltas_one_list_per_level(ladder):
    """Reference for ``ladder_json``'s deltas: a fresh empty list per level."""
    deltas = [[] for _ in range(ladder.b)]
    for lv in ladder.levels[:-1]:
        deltas[ladder.b - lv.i] = [_datum_json(lv.model, p) for p in lv.delta.points]
    return deltas


def _list_ids(obj):
    """The ids of the distinct list objects under ``obj``."""
    ids, stack = set(), [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            ids.add(id(x))
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
    return ids


def test_survivor_records_share_one_empty_delta_list(monkeypatch):
    # the records read as if each level had its own list, and the number of
    # lists they hold does not grow with the index
    recorded = _recording_ladder_json(monkeypatch)
    counts = []
    for a in (512, 4096):
        recorded.clear()
        report = classify(a)
        assert recorded, a
        for ladder, record in recorded:
            certificates = record["certificates"]
            reference = {**ladder_json(ladder, certificates), "deltas": _deltas_one_list_per_level(ladder)}
            assert json.dumps(record, sort_keys=True) == json.dumps(reference, sort_keys=True)
        counts.append(len(_list_ids(report.to_json()["survivors"])))
    assert counts[0] == counts[1]


def _check_pair_degrees(pair):
    """``BasicPair.degrees`` and the vertices of ``BasicPair.graph`` against
    one intersection per tracked curve."""
    model, L = pair.model, pair.L0
    want = [model.intersect(L, model.curve(c).cls) for c in range(len(model.curves))]
    assert list(pair.degrees) == want
    assert set(pair.graph.names) == {rec.name for rec, d in zip(model.curves, want) if d == 0}
    assert pair.graph.order == want.count(0)


def test_pair_degrees_and_survivor_graphs_match_the_intersection_routes(monkeypatch):
    # one L0.C pass per pair gives the degrees, the contracted support and,
    # cut to E0's support, the DOT of every survivor record
    recorded = _recording_ladder_json(monkeypatch)
    for a in [*range(4, 41), 64, 512]:
        recorded.clear()
        report = classify(a)
        ladders = {id(record): ladder for ladder, record in recorded}
        for ladder, _ in recorded:
            _check_pair_degrees(ladder.bottom_pair)
        for s in report.survivors:
            pair = ladders[id(s["multiplet"])].bottom_pair
            assert s["dual_graph"] == pair.model.dual_graph(pair.E0.support, pair.E0.as_dict()).to_dot()
            # a tampered fundamental class still fails orthogonality
            model = pair.model
            tampered = BasicPair(model, pair.E0, pair.a, pair.L0 + model.fiber_class())
            _check_pair_degrees(tampered)
            assert "orthogonality" in check_basic_pair(tampered).failures
    for seed in range(3):
        for ladder in random_pseudo_fundamental_ladders(seed, 1000):
            _check_pair_degrees(ladder.bottom_pair)


def test_a_configuration_no_survivor_has_is_reported_missing(monkeypatch, capsys):
    # the catalog check is a recipe check: a configuration whose recipe no
    # survivor has is missing, numbered as verify-type numbers it, and no
    # exception is raised
    entries = catalog_entries

    def with_a_bad_config(a):
        bad = {1: Subscheme((OnCurveDatum(0, 1, 2),))}  # E turns negative at level 0
        return [replace(e, configs=e.configs + (bad,)) if e.name == "IV" else e for e in entries(a)]

    monkeypatch.setattr(enumerator, "catalog_entries", with_a_bad_config)
    rep = classify(5)
    volume = str(entry_by_name(5, "IV").volume)
    assert rep.missing == [{"type": "IV", "volume": volume, "configuration": 6}]
    assert rep.catalog_match is False and rep.unexpected == []
    assert rep.to_json()["missing"] == rep.missing
    assert f" MISSING IV {volume}\n" in rep.to_text()
    assert [r["configurations"] for r in rep.rows if r["type"] == "IV"] == [5]
    from delpezzo.cli import main

    assert main(["classify", "--a", "5"]) == 1
    out, err = capsys.readouterr()
    assert "catalog match: no" in out and err == ""


def test_survivors_of_a_dropped_entry_are_unexpected(monkeypatch, capsys):
    # a survivor whose key no catalog configuration takes is unexpected
    iii = {k for k, name in _built_key_map(5).items() if name == "III"}
    assert len(iii) == 3
    entries = catalog_entries
    monkeypatch.setattr(enumerator, "catalog_entries", lambda a: [e for e in entries(a) if e.name != "III"])
    rep = classify(5)
    assert {s["key"] for s in rep.unexpected} == iii
    assert all(s["volume"] == str(entry_by_name(5, "III").volume) for s in rep.unexpected)
    assert rep.to_json()["unexpected"] == rep.unexpected and rep.to_json()["catalog_match"] is False
    assert rep.missing == [] and "III" not in [r["type"] for r in rep.rows]
    text = rep.to_text()
    assert [line for line in text.splitlines() if "UNEXPECTED" in line] == [
        f" UNEXPECTED {s['volume']} {s['key']}" for s in rep.unexpected
    ]
    from delpezzo.cli import main

    assert main(["classify", "--a", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == text and err == ""


def test_two_entries_sharing_a_key_are_a_consistency_error(monkeypatch, capsys):
    # two entries whose configurations key to one survivor are an engine fault
    entries = catalog_entries
    monkeypatch.setattr(
        enumerator, "catalog_entries", lambda a: [*entries(a), replace(entry_by_name(a, "O"), name="O_copy")]
    )
    message = "catalog key collision between O and O_copy"
    with pytest.raises(InternalConsistencyError, match=message):
        classify(5)
    from delpezzo.cli import main

    assert main(["classify", "--a", "5"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_recipe_one_datum_away_lends_no_key():
    a = 5
    entry = entry_by_name(a, "A5")
    n, E, b, steps = recipe = entry_recipe(entry, a, 0)
    [(level, sub)] = steps
    [point] = sub.points
    assert (b, point, E) == (3, OnCurveDatum(1, 2, 2), top_divisor(4, (2,)))
    near = [
        (n, E, b + 1, steps),
        (n, E, b, ((level, Subscheme((replace(point, k=1),))),)),
        (n, top_divisor(4, (3,)), b, steps),
    ]
    entries = catalog_entries(a)
    configs = [(e.name, idx + 1) for e in entries for idx in range(len(e.configs))]
    for other in near:
        keys, missing = catalog_key_map(a, entries, {other: "borrowed"})
        assert keys == {} and [(m["type"], m["configuration"]) for m in missing] == configs
    keys, missing = catalog_key_map(a, entries, {recipe: "borrowed"})
    assert keys == {"borrowed": "A5"}
    assert [(m["type"], m["configuration"]) for m in missing] == [c for c in configs if c != ("A5", 1)]


@pytest.mark.parametrize("n, c0, fibers", [(0, 1, ()), (3, 2, (1,)), (8, 4, (2, 1, 3))])
def test_top_model_gives_the_ids_the_recipes_read(n, c0, fibers):
    # entry_recipe reads sigma as id 0 and l_k as id k without building
    model, E = top_model(n, c0, fibers)
    assert model.n == n
    names = [(rec.id, rec.name) for rec in model.curves]
    assert names == [(0, "sigma")] + [(k, f"l_{k}") for k in range(1, len(fibers) + 1)]
    assert E == top_divisor(c0, fibers)
    assert E.as_dict() == {0: c0, **{k: e for k, e in enumerate(fibers, 1)}}


@pytest.mark.parametrize(
    "a, text_sha, json_sha",
    [
        (
            2,
            "1a6bb597e7c1489a9e395994df8448af5f549a328db154beb4dc279df852775f",
            "4d2571cb8892735c916a0268fadf06a28563d0254122b6ca80957a25a7facd7a",
        ),
        (
            3,
            "2e1707e10835e87e390ead8d3c9de0ac859918aae7929565a545cc15223a4661",
            "de11f1c7b9db8e519194d75e09a5c84466c28340c11077453d8e4641a0de6591",
        ),
    ],
)
def test_classify_low_index_reports_are_byte_stable(a, text_sha, json_sha):
    # below index 4 no catalog is compared: every survivor is a "-" row and
    # the match reads "not tested" (JSON null)
    rep = classify(a)
    assert hashlib.sha256(rep.to_text().encode()).hexdigest() == text_sha
    payload = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == json_sha


def test_failed_identity_reverification_is_a_consistency_error(monkeypatch):
    # a survivor whose identities do not re-verify is an engine fault, not a
    # search explosion
    monkeypatch.setattr(multiplet, "identities_check", lambda ladder: False)
    with pytest.raises(InternalConsistencyError, match="identity re-verification failed"):
        classify(4)


def test_search_cell_rejects_low_index_candidates():
    # the open cells at h0 = a + 2 carry candidates of index 2, which the
    # exact index computation rejects
    assert _normalization_active(4, 3, 6, 20)  # the top subscheme is kept off sigma
    out = search_cell(SearchCell(4, 3, 6, 20))
    assert not out.survivors
    assert out.rejected.get("index", 0) == 1


def _search_cell_per_level(cell):
    """Reference for search_cell: the walk with one node per level, which
    pushes the empty subscheme's child at every level, where no point fits
    too."""
    a, n, h0, h = cell.a, cell.n, cell.h0, cell.h
    b = p4_length(h0)
    out = enumerator.CellOutcome(cell)
    c0 = 2 * a - h0
    f = (n + 2) * a - h
    v_max = enumerator._volume_cap(a, n, h0, h)
    forbid_top_sigma = _normalization_active(a, n, h0, h)

    def reject(reason):
        out.rejected[reason] = out.rejected.get(reason, 0) + 1

    def finish(ladder):
        out.candidates += 1
        report = certify_ladder(ladder)
        if not report.passed:
            reject("certificates:" + ",".join(report.failures))
            return
        if ladder.volume < 2 * a:
            reject("volume")
            return
        pair = ladder.bottom_pair
        if pair.index != a:
            reject("index")
            return
        assert identities_check(ladder)
        index_certificate = certificate_index_is_a(pair)
        certificates = {
            "ladder": True,
            "basic_pair": True,
            "identities": True,
            "volume_at_least_2a": True,
            "index_is_a": True,
            "index_certificate": index_certificate,
        }
        record = ladder_json(ladder, certificates)
        out.survivors.append({
            "key": canonical_form(pair),
            "type": None,
            "volume": record["volume"],
            "index": a,
            "cell": (a, n, h0, h),
            "E0": record["E_0"],
            "dual_graph": pair.model.dual_graph(pair.E0.support, pair.E0.as_dict()).to_dot(),
            "multiplet": record,
            "index_certificate": index_certificate,
        })

    stack = []
    for parts in reversed(_partitions(f, a - 1)):
        model, E = enumerator.top_model(n, c0, parts)
        stack.append((b, model, E, model.fundamental_class(a, E), 0, [], None))
    while stack:
        i, model, E, L, spent, levels, found = stack.pop()
        out.configs += 1
        if found is None:
            found = enumerator._budgets(model, E, L)
        if found is None:
            continue
        be, budgets = found
        v_left = v_max - spent
        if v_left < 0 or not enumerator._degrees_feasible(a, i, be, v_left):
            continue
        if any(r > v_left for r in budgets.values()):
            continue
        if i == 0:
            if be == 0 and all(r == 0 for r in budgets.values()):
                finish(close_ladder(a, b, levels, model, E, L))
            continue
        forbid = forbid_top_sigma and i == b
        children = []
        cands = enumerator._subscheme_candidates(model, E, i, a, v_left, budgets, forbid)
        for d, points in cands:
            if i == 1 and d * (a - 1) != be:
                continue
            if not points:
                children.append((i - 1, model, E, L, spent, levels, found))
                continue
            level, E2, L2 = descend_step(a, i, model, E, L, Subscheme(points))
            if E2.is_effective() and not E2.is_zero():
                children.append(
                    (i - 1, level.elim.model, E2, L2, spent + i * d, levels + [level], None)
                )
        stack.extend(reversed(children))
    return out


def _outcome(out):
    return out.configs, out.candidates, out.rejected, out.survivors


def test_search_cell_matches_the_per_level_walk():
    cells = [cell for a in [*range(4, 41), 64, 128] for cell in generate_cells(a)[0]]
    assert len(cells) > 400
    for cell in cells:
        assert _outcome(search_cell(cell)) == _outcome(_search_cell_per_level(cell)), cell


def _states(cell, monkeypatch):
    """The configurations of the cell's search and the states it pops, one
    ``_budgets`` call each."""
    states = 0

    def counted(*args, _budgets=enumerator._budgets):
        nonlocal states
        states += 1
        return _budgets(*args)

    with monkeypatch.context() as m:
        m.setattr(enumerator, "_budgets", counted)
        configs = search_cell(cell).configs
    return configs, states


def test_search_cell_counts_its_states_against_the_cap(monkeypatch):
    # the cap bounds the states popped, not the configurations, which also
    # count the levels a state steps over untested
    trials = stepped = 0
    for a in (6, 9, 12, 20):
        for cell in generate_cells(a)[0]:
            configs, states = _states(cell, monkeypatch)
            stepped += configs > states
            for cap, raises in ((states - 1, True), (states, False)):
                monkeypatch.setattr(enumerator, "_STATE_CAP", cap)
                if raises:
                    with pytest.raises(SearchExplosion, match="state cap exceeded"):
                        search_cell(cell)
                else:
                    search_cell(cell)
                trials += 1
            monkeypatch.undo()
    assert trials > 100 and stepped > 10
    # a cap below the largest cell's state count stops classify(64)
    largest = max(_states(cell, monkeypatch)[1] for cell in generate_cells(64)[0])
    monkeypatch.setattr(enumerator, "_STATE_CAP", largest - 1)
    with pytest.raises(SearchExplosion):
        classify(64)
    monkeypatch.setattr(enumerator, "_STATE_CAP", largest)
    assert classify(64).catalog_match


def test_search_cost_does_not_depend_on_the_index(monkeypatch):
    # a state walks its own levels and steps over those where no point
    # fits, so classify(a) makes the same search calls at every large index:
    # one _budgets call per state, no degree test where a step lands.  From
    # a = 8 on every cell's tree is the same too: per cell, its offsets
    # (n - 2a, h0 - a, (n + 2) a - h), its states (_budgets calls), its
    # candidates, its survivors and its rejections, in search order
    counts = {}
    for name in ("_budgets", "_degrees_feasible", "_subscheme_candidates"):
        def counted(*args, _call=getattr(enumerator, name), _name=name):
            counts[_name] += 1
            return _call(*args)
        monkeypatch.setattr(enumerator, name, counted)
    trees = {}

    def searched(cell, _search=enumerator.search_cell):
        before = counts["_budgets"]
        out = _search(cell)
        a, n, h0, h = cell.a, cell.n, cell.h0, cell.h
        offsets = (n - 2 * a, h0 - a, (n + 2) * a - h)
        trees[a].append((offsets, counts["_budgets"] - before, out.candidates, len(out.survivors), out.rejected))
        return out

    monkeypatch.setattr(enumerator, "search_cell", searched)
    seen = {}
    for a in (8, 9, 16, 17, 64, 511, 512, 4096, 4097, 65_536, 65_537):
        counts.update(dict.fromkeys(("_budgets", "_degrees_feasible", "_subscheme_candidates"), 0))
        trees[a] = []
        assert classify(a).catalog_match
        seen[a] = dict(counts)
    assert trees[8] == [
        ((-4, 1, 2), 2, 0, 0, {}),
        ((-4, 1, 1), 1, 0, 0, {}),
        ((-4, 1, 0), 11, 5, 5, {}),
        ((-3, 1, 3), 3, 0, 0, {}),
        ((-3, 1, 2), 2, 0, 0, {}),
        ((-3, 1, 1), 1, 0, 0, {}),
        ((-3, 1, 0), 6, 3, 3, {}),
        ((-2, 1, 2), 2, 0, 0, {}),
        ((-2, 1, 1), 1, 0, 0, {}),
        ((-2, 1, 0), 4, 2, 2, {}),
        ((-1, 1, 1), 1, 0, 0, {}),
        ((-1, 1, 0), 2, 1, 1, {}),
        ((0, 1, 0), 1, 1, 1, {}),
    ]  # 13 cells, 37 states
    assert all(tree == trees[8] for tree in trees.values())
    large = [seen[a] for a in seen if a >= 64]
    assert large == [{"_budgets": 37, "_degrees_feasible": 36, "_subscheme_candidates": 10}] * 7


def _datum_options_reference(model, E, i, a, v_cap, be_cap, budgets, forbid_sigma):
    """Reference for the options: the two allowances tested separately."""
    s = a - i
    coeff = dict(E.items)
    m_cap_global = min(v_cap // i, be_cap // (i * (a - i)))
    if m_cap_global < 1:
        return []
    options = []
    sigma_ids = {rec.id for rec in model.curves if rec.name == "sigma"}
    for cid, e in sorted(coeff.items()):
        if e < s:
            continue
        if forbid_sigma and cid in sigma_ids:
            continue
        k_cap = budgets[cid] // i if cid in budgets else m_cap_global
        for m in range(1, m_cap_global + 1):
            for k in range(1, min(m, k_cap) + 1):
                cs = on_curve_coefficients(e, s, m, k)
                if any(c < 0 for c in cs) or any(c > a - 1 for c in cs):
                    continue
                options.append(OnCurveDatum(cid, k, m))
    pairs = []
    ids = [rec.id for rec in model.curves]
    for c1, c2 in itertools.combinations(ids, 2):
        if model.intersection(c1, c2) == 1:
            pairs += [(c1, c2), (c2, c1)]
    for c1, c2 in sorted(pairs):
        if forbid_sigma and (c1 in sigma_ids or c2 in sigma_ids):
            continue
        e1, e2 = coeff.get(c1, 0), coeff.get(c2, 0)
        if c1 in budgets and budgets[c1] < i:
            continue
        k2_cap = budgets[c2] // i if c2 in budgets else m_cap_global
        for m in range(1, m_cap_global + 1):
            for k2 in range(1, min(m, k2_cap) + 1):
                if k2 == 1 and c1 > c2:
                    continue
                cs = node_coefficients(e1, e2, s, m, k2)
                if any(c < 0 for c in cs) or any(c > a - 1 for c in cs):
                    continue
                options.append(NodeDatum(c1, c2, k2, m))
    return options


def _subscheme_candidates_reference(model, E, i, a, v_cap, be_cap, budgets, forbid_sigma):
    """Reference for the flat generator: the recursive walk that tracks the
    volume allowance, L.E and every component budget separately."""
    options = _datum_options_reference(model, E, i, a, v_cap, be_cap, budgets, forbid_sigma)
    results = []

    def extend(start, chosen, used_nodes, v_left, be_left, bud_left):
        results.append(Subscheme(tuple(chosen)))
        for idx in range(start, len(options)):
            d = options[idx]
            if i * d.m > v_left or i * (a - i) * d.m > be_left:
                continue
            bud2 = dict(bud_left)
            ok = True
            if isinstance(d, OnCurveDatum):
                if d.curve in bud2:
                    bud2[d.curve] -= i * d.k
                    ok = bud2[d.curve] >= 0
                pair = None
            else:
                pair = frozenset((d.curve1, d.curve2))
                if pair in used_nodes:
                    continue
                if d.curve1 in bud2:
                    bud2[d.curve1] -= i
                    ok = bud2[d.curve1] >= 0
                if ok and d.curve2 in bud2:
                    bud2[d.curve2] -= i * d.k2
                    ok = bud2[d.curve2] >= 0
            if not ok:
                continue
            extend(
                idx if isinstance(d, OnCurveDatum) else idx + 1,
                chosen + [d],
                used_nodes | {pair} if pair else used_nodes,
                v_left - i * d.m,
                be_left - i * (a - i) * d.m,
                bud2,
            )

    extend(0, [], frozenset(), v_cap, be_cap, dict(budgets))
    return results


def _reference_pairs(*args, keep=None):
    """The reference's (degree, points) pairs, only those of a degree in
    ``keep`` if given."""
    pairs = [(sub.degree, sub.points) for sub in _subscheme_candidates_reference(*args)]
    return pairs if keep is None else [pair for pair in pairs if pair[0] in keep]


def test_subscheme_candidates_match_the_recursive_reference(monkeypatch):
    # every call the search and the fuzz generator make, on both generators
    calls = []
    flat = enumerator._subscheme_candidates

    def recorded(*args):
        result = flat(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(enumerator, "_subscheme_candidates", recorded)
    for a in [*range(4, 41), 64, 128]:
        classify(a)
    audit(28, 112)
    for seed in range(3):
        random_pseudo_fundamental_ladders(seed, 100)
    assert len(calls) > 1000
    assert sum(len(result) > 1 for _, result in calls) > 500
    # the reference also tests L.E, the real one, which the flat generator
    # leaves to the contact budgets; a call with a kept set of degrees is
    # compared with the reference filtered by that set
    calls = [((*args, None)[:8], result) for args, result in calls]  # keep is None if not given
    assert sum(args[7] is not None for args, _ in calls) > 1000
    for (model, E, i, a, v_cap, budgets, forbid, keep), result in calls:
        be = sum(e * budgets[c] for c, e in E.items)
        want = _reference_pairs(model, E, i, a, v_cap, be, budgets, forbid, keep=keep)
        assert result == want, (i, a, v_cap, keep)
    # the recorded volume allowances seldom bind, so tighten each by one
    # unit, i, and both generators must agree
    changed = 0
    for (model, E, i, a, v_cap, budgets, forbid, keep), result in calls:
        if len(result) == 1:
            continue
        be = sum(e * budgets[c] for c, e in E.items)
        got = flat(model, E, i, a, v_cap - i, budgets, forbid, keep)
        assert got == _reference_pairs(model, E, i, a, v_cap - i, be, budgets, forbid, keep=keep), (
            i, a, v_cap, keep
        )
        changed += got != result
    assert changed  # the volume allowance binds somewhere


def _partitions_recursive(n, cap):
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in _partitions_recursive(n - first, first)
    ]


def test_partitions_match_the_recursive_reference():
    for n in range(13):
        assert _partitions(n) == _partitions_recursive(n, n)
        for cap in range(n + 1):
            assert _partitions(n, cap) == _partitions_recursive(n, cap), (n, cap)
    assert len(_partitions(12)) == 77
    # one long partition, far deeper than the interpreter's recursion limit
    assert _partitions(5000, 1) == [(1,) * 5000]


def test_option_shapes_match_the_coefficient_lists():
    # the closed bounds against the chain coefficients themselves, for every
    # multiplicity cap up to 6 and every contact cap below it; coefficients
    # run one past a - 1, since the bounds do not assume them in range, but a
    # node's pair has its first coefficient in range, as ``_node_pairs`` passes
    shapes = 0
    for a in range(4, 13):
        for s in range(1, a):
            for e in range(a + 1):
                want = [
                    (m, k)
                    for m in range(1, 7)
                    for k in range(1, m + 1)
                    if all(0 <= c < a for c in on_curve_coefficients(e, s, m, k))
                ]
                shapes += len(want)
                if e < s:  # _datum_options asks for no shape here
                    assert not want, (a, s, e)
                    continue
                for m_cap in range(1, 7):
                    for k_cap in range(1, m_cap + 1):
                        # an on-curve point is a node whose first branch has coefficient 0
                        got = list(enumerator._node_shapes(a, s, 0, e, m_cap, k_cap))
                        assert got == [x for x in want if x[0] <= m_cap and x[1] <= k_cap], (a, s, e)
            for e1, e2 in itertools.product(range(a + 1), repeat=2):
                if not 0 <= e1 + e2 - s < a:
                    continue
                want = [
                    (m, k2)
                    for m in range(1, 7)
                    for k2 in range(1, m + 1)
                    if all(0 <= c < a for c in node_coefficients(e1, e2, s, m, k2))
                ]
                shapes += len(want)
                for m_cap in range(1, 7):
                    for k_cap in range(1, m_cap + 1):
                        got = list(enumerator._node_shapes(a, s, e1, e2, m_cap, k_cap))
                        assert got == [x for x in want if x[0] <= m_cap and x[1] <= k_cap], (s, e1, e2)
    assert shapes > 10_000


def test_node_scan_from_the_support_matches_the_full_scan(monkeypatch):
    # every state the fuzz generator reaches, and each again with the
    # lowest curve of E taken out of it: the pairs scanned from E's support
    # are the nodes of the full scan whose first chain coefficient is in
    # range, and no node left out has an admissible shape
    states = []
    options = enumerator._datum_options

    def recorded(model, E, i, a, m_cap, caps, forbid_sigma):
        states.append((model, E, i, a, m_cap))
        if len(E.items) > 1:
            states.append((model, Divisor(E.items[1:]), i, a, m_cap))
        return options(model, E, i, a, m_cap, caps, forbid_sigma)

    monkeypatch.setattr(enumerator, "_datum_options", recorded)
    for seed in range(3):
        random_pseudo_fundamental_ladders(seed, 100)
    assert len(states) > 500
    dropped = [0, 0]  # nodes left out on E's support, and away from it
    for model, E, i, a, m_cap in states:
        s, coeff = a - i, dict(E.items)
        full = sorted(
            pair
            for c1, c2 in itertools.combinations([rec.id for rec in model.curves], 2)
            if model.intersection(c1, c2) == 1
            for pair in ((c1, c2), (c2, c1))
        )
        scanned = enumerator._node_pairs(model, coeff, a, s)
        assert scanned == [
            (c1, c2) for c1, c2 in full if 0 <= coeff.get(c1, 0) + coeff.get(c2, 0) - s < a
        ]
        for c1, c2 in set(full) - set(scanned):
            e1, e2 = coeff.get(c1, 0), coeff.get(c2, 0)
            assert not any(
                all(0 <= c < a for c in node_coefficients(e1, e2, s, m, k2))
                for m in range(1, m_cap + 1)
                for k2 in range(1, m + 1)
            )
            dropped[not (c1 in coeff or c2 in coeff)] += 1
    assert min(dropped) > 10, dropped


def _fuzz_digest(ladders):
    """The ladder digest of ``perfbench/ops.fuzz_reference``."""
    combined = hashlib.sha256()
    for lad in ladders:
        blob = json.dumps(ladder_json(lad), sort_keys=True).encode()
        combined.update(hashlib.sha256(blob).hexdigest().encode())
    return combined.hexdigest()


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "81dc46c82622559c779881518c94e29cd4fab21b40c7c89d6fd7499a168e018c"),
        (4242, "1400bd71b741a5889f401fbfc9828d7051ad6b36efe9c693ab109d6e93223554"),
    ],
)
def test_fuzz_stream_is_pinned(seed, digest):
    # any change in what the generator offers, or in the order of its random
    # draws, changes the ladders it returns
    ladders = random_pseudo_fundamental_ladders(seed, 100)
    assert len(ladders) == 100
    assert _fuzz_digest(ladders) == digest


def test_fuzzer_ladders_equal_their_rebuilds():
    # the fuzzer keeps the steps it descended; rebuilding them from the top
    # data and the chosen subschemes must give the same ladder, level by level
    ladders = random_pseudo_fundamental_ladders(0, 100)
    assert len(ladders) == 100
    for lad in ladders:
        steps = {lv.i: lv.delta for lv in lad.levels[:-1]}
        rebuilt = build_ladder(lad.a, lad.top.model, lad.top.E, lad.b, steps)
        assert rebuilt.b == lad.b
        assert len(rebuilt.levels) == len(lad.levels)
        for got, want in zip(lad.levels, rebuilt.levels):
            assert got == want


def _fuzz_per_attempt(seed, count):
    """Reference for random_pseudo_fundamental_ladders: every attempt builds
    its own top, draw lists, descents and ladder.  Also returns the distinct
    keys that reach ``top_model``, ``descend_step`` and ``certify_ladder``."""
    rng = random.Random(seed)
    out = []
    keys = {"top_model": set(), "descend_step": set(), "certify_ladder": set()}
    attempts = 0
    while len(out) < count and attempts < 200_000:
        attempts += 1
        a = rng.randint(4, 8)
        c0 = rng.choice([a - 1, a - 1, a - 2, rng.randint(1, a - 1)])
        h0 = 2 * a - c0
        n = rng.randint(1, 2 * a)
        f = rng.choice([0, 0, 1, 2, rng.randint(0, 4)])
        h = (n + 2) * a - f
        if cell_verdict(a, n, h0, h) in ("window", "unresolved_sections"):
            continue
        b_top = p4_length(h0)
        if b_top < 1:
            continue
        b = rng.randint(1, min(b_top, 4))
        parts = rng.choice(_partitions(f, a - 1))

        path = (a, n, c0, parts)
        keys["top_model"].add(path)
        model, E = enumerator.top_model(n, c0, parts)
        L = model.fundamental_class(a, E)
        be_top = model.intersect(L, E.class_in(model))
        if be_top < 0 or be_top > 60:
            continue
        v_cap = be_top

        levels = []
        spent = 0
        for i in range(b, 0, -1):
            found = enumerator._budgets(model, E, L)
            v_left = v_cap - spent
            if found is None or not enumerator._degrees_feasible(a, i, found[0], v_left):
                break
            be, budgets = found
            cands = enumerator._subscheme_candidates(model, E, i, a, v_left, budgets, False)
            fits = {
                d
                for d in {d for d, _ in cands}
                if enumerator._degrees_feasible(a, i - 1, be - i * (a - i) * d, v_left - i * d)
            }
            cands = [cand for cand in cands if cand[0] in fits]
            if not cands:
                break
            d, points = rng.choice(cands)
            if not points:
                continue
            path += ((i, points),)
            keys["descend_step"].add(path)
            level, E, L = descend_step(a, i, model, E, L, Subscheme(points))
            if not E.is_effective() or E.is_zero():
                break
            model = level.elim.model
            spent += i * d
            levels.append(level)
        else:
            keys["certify_ladder"].add((path, b))
            ladder = close_ladder(a, b, levels, model, E, L)
            if certify_ladder(ladder, require_fundamental=False).passed:
                out.append(ladder)
    return out, keys


@pytest.mark.parametrize("seed, count", [(0, 100), (1, 100), (2, 100), (20240817, 1000)])
def test_fuzz_memo_matches_the_per_attempt_walk(seed, count):
    got = random_pseudo_fundamental_ladders(seed, count)
    want, _ = _fuzz_per_attempt(seed, count)
    assert len(got) == count
    assert got == want
    # a repeated path returns the ladder built for it the first time
    assert len({id(lad) for lad in got}) == len({(lad.a, lad.b, lad.levels) for lad in want})


def test_fuzz_memo_builds_each_drawn_key_once(monkeypatch):
    _, keys = _fuzz_per_attempt(0, 100)
    calls = dict.fromkeys(keys, 0)
    for name in calls:
        def counted(*args, _call=getattr(enumerator, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(enumerator, name, counted)
    random_pseudo_fundamental_ladders(0, 100)
    assert calls == {name: len(drawn) for name, drawn in keys.items()}
    # 100 ladders from 92 certified paths
    assert calls == {"top_model": 177, "descend_step": 152, "certify_ladder": 92}


def _record(monkeypatch, name):
    """Patch ``enumerator.<name>`` to record (args, result) of each call."""
    calls = []
    call = getattr(enumerator, name)

    def recorded(*args):
        calls.append((args, call(*args)))
        return calls[-1][1]

    monkeypatch.setattr(enumerator, name, recorded)
    return calls


def test_budgets_take_l_dot_e_from_the_component_degrees(monkeypatch):
    # L.E = sum e_C (L.C) by bilinearity; check it against the class of E on
    # every state the cell search and the fuzz draws see, together with the
    # walk invariants that let them skip the tests: E nonzero effective and
    # every L.C nonnegative
    calls = _record(monkeypatch, "_budgets")
    for a in range(4, 17):
        classify(a)
    searched = len(calls)
    random_pseudo_fundamental_ladders(0, 100)
    assert searched > 100 and len(calls) > searched + 100
    for (model, E, L), found in calls:
        assert E.is_effective() and not E.is_zero()
        degrees = {c: model.intersect(L, model.curve(c).cls) for c in E.support}
        assert min(degrees.values()) >= 0
        assert found == (model.intersect(L, E.class_in(model)), degrees)


def test_the_walk_builds_subschemes_only_where_a_point_fits(monkeypatch):
    # a point of degree m at level i takes i m of the allowance left, so
    # where that is below i the walk clamps the level to it instead of
    # building an empty candidate list; without the clamp classify(4..16)
    # makes 5 such calls
    calls = _record(monkeypatch, "_subscheme_candidates")
    for a in range(4, 17):
        classify(a)
    assert len(calls) > 100
    assert all(v_cap >= i for (model, E, i, a, v_cap, *_), _ in calls)


@pytest.mark.parametrize("cell", [SearchCell(4, 3, 4, 20), SearchCell(4, 3, 8, 30), SearchCell(4, 3, 6, 17)])
def test_search_cell_refuses_a_cell_outside_the_search_model(cell):
    # the model needs a < h0 < 2a (the sigma coefficient 2a - h0 in
    # 1..a-1) and n h0 <= h (L nef on the top)
    with pytest.raises(InternalConsistencyError, match="outside the search model"):
        search_cell(cell)


def test_volume_rejects_what_the_allowance_would_let_through(monkeypatch):
    # the walk trusts the volume allowance, and finish checks the exact
    # volume on every candidate: with the allowance 40 too large, the
    # extra candidates of a cell have volume below 2a and are rejected
    monkeypatch.setattr(enumerator, "_volume_cap", lambda *args, _cap=enumerator._volume_cap: _cap(*args) + 40)
    out = search_cell(SearchCell(4, 5, 5, 25))
    assert out.rejected == {"volume": 8}
    assert not out.survivors


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_draws_stop_at_the_largest_fitting_degree(monkeypatch, seed):
    # the candidates built up to the largest fitting degree are those of the
    # full allowance, filtered by the same fit set, in the same order
    calls = _record(monkeypatch, "_fitting_draws")
    random_pseudo_fundamental_ladders(seed, 1000)
    trimmed = 0  # calls where the full allowance builds a larger degree
    for (a, i, model, E, L, v_left), got in calls:
        want = []
        found = enumerator._budgets(model, E, L)
        if found is not None:
            be, budgets = found
            full = enumerator._subscheme_candidates(model, E, i, a, v_left, budgets, False)
            fits = {
                d
                for d, _ in full
                if enumerator._degrees_feasible(a, i - 1, be - i * (a - i) * d, v_left - i * d)
            }
            want = [cand for cand in full if cand[0] in fits]
            trimmed += max(d for d, _ in full) > max(fits, default=-1)
        assert got == want
    assert len(calls) > 1500 and trimmed > 1000  # 1,800-2,077 and 1,100-1,287 on seeds 0..2


def test_level_one_walk_spends_every_budget_exactly(monkeypatch):
    # at level 1 both callers keep only the degree d with d(a - 1) = L.E;
    # the walk then takes only the options whose last chain coefficient is
    # 0, and must give the full walk's candidates of that degree, each
    # spending every component's L.C in full
    calls = _record(monkeypatch, "_subscheme_candidates")
    for a in [*range(4, 65), 512]:
        classify(a)
    audit(28, 112)
    ends = [len(calls)]
    for seed in range(3):
        random_pseudo_fundamental_ladders(seed, 1000)
        ends.append(len(calls))
    monkeypatch.undo()
    counts = [[0, 0, 0] for _ in ends]  # calls, built, kept: the search, then seeds 0..2
    nodes = 0  # kept candidates with a point at a node
    for n, ((model, E, i, a, v_cap, budgets, forbid, *keep), got) in enumerate(calls):
        if i != 1:
            continue
        be = sum(e * budgets[c] for c, e in E.items)
        assert be % (a - 1) == 0 and keep == [{be // (a - 1)}]
        full = enumerator._subscheme_candidates(model, E, 1, a, v_cap, budgets, forbid)
        assert got == [cand for cand in full if cand[0] * (a - 1) == be]
        for _, points in got:
            assert all(sum(k for p in points for d, k in p.contacts if d == c) == r for c, r in budgets.items())
            nodes += any(isinstance(p, NodeDatum) for p in points)
        count = counts[sum(n >= end for end in ends)]
        count[0] += 1
        count[1] += len(full)
        count[2] += len(got)
    assert counts[0][0] > 200 and nodes > 100
    assert counts[2][1:] == [7697, 867]  # fuzz seed 1: built by the full walk, kept


def test_fuzz_bottoms_key_into_the_classification():
    # a fuzz bottom of index a' and volume at least 2a' is a surface that
    # the theorem covers, so it must be a survivor of classify(a'); for a' a
    # proper divisor of a, E / (a / a') is its index-a' divisor.  Indices
    # a' < 4 are left out: five index-2 bottoms of volume 4 do not key into
    # classify(2), an open finding of ROADMAP.md.
    keys = {a: {s["key"] for s in classify(a).survivors} for a in range(4, 9)}
    tested = [0, 0]  # index a, and a proper divisor of a
    reached = set()
    for seed in range(3):
        for lad in random_pseudo_fundamental_ladders(seed, 1000):
            pair = lad.bottom_pair
            if pair.volume < 2 * pair.index or pair.index < 4:
                continue
            r = pair.a // pair.index
            assert all(v % r == 0 for _, v in pair.E0.items)
            E0 = Divisor.from_dict({c: v // r for c, v in pair.E0.items})
            rescaled = BasicPair(pair.model, E0, pair.index, pair.model.fundamental_class(pair.index, E0))
            assert check_basic_pair(rescaled).passed
            assert (rescaled.index, rescaled.volume) == (pair.index, pair.volume)
            key = canonical_form(rescaled)
            assert key in keys[pair.index]
            reached.add(key)
            tested[r > 1] += 1
    assert tested == [1392, 71]
    # the oracle's blind spot: no draw reaches A5's configuration 1 (one
    # point of multiplicity 2 on the tracked fiber at level 3), whose bottoms
    # all key as configuration 2; every other survivor is reached
    assert set().union(*keys.values()) - reached == {
        "a=5|v=54/5|i=5|g=(((-8, 4), (-2, 0), (-2, 2)), ((0, 2),))"
    }


@pytest.mark.parametrize(
    "seed, count, failure",
    [
        (46, 200, ("bottom_adjoint_positivity",)),
        (13, 400, ("top_minus_one_curve", "bottom_adjoint_positivity")),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else None,  # a case is named by its first failure
)
def test_fuzz_certificate_filter_drops_a_closed_path(monkeypatch, seed, count, failure):
    # the generator's budgets do not imply the certificate: on these seeds
    # one closed path fails it and is dropped.  The bottom is checked even
    # where the top fails: the F_1 path of seed 13 fails both
    failures = []

    def counted(ladder, **kwargs):
        report = certify_ladder(ladder, **kwargs)
        failures.extend(report.failures)
        return report

    monkeypatch.setattr(enumerator, "certify_ladder", counted)
    ladders = random_pseudo_fundamental_ladders(seed, count)
    assert tuple(failures) == failure
    assert len(ladders) == count
    assert all(certify_ladder(lad, require_fundamental=False).passed for lad in ladders)


def test_audit_small_clean():
    rep = audit(4, 8)
    assert rep.clean
    assert rep.survivors_in_catalog == 14
    rep = audit(4, 12, h0=4)
    assert rep.clean and rep.searched == 0


def test_audit_degenerate_cap():
    rep = audit(4, 0)
    assert rep.clean and rep.searched == 0 and not rep.survivors_outside


def test_audit_rejects_vacuous_sweeps():
    # a negative n-cap or an h0 outside 1..2a-1 would sweep nothing and
    # report clean
    with pytest.raises(ValueError):
        audit(5, -3)
    for h0 in (0, 10, 99):
        with pytest.raises(ValueError):
            audit(5, 3, h0=h0)


def test_audit_rejects_sweeps_over_the_window_cap(monkeypatch):
    # an unbounded sweep fails before it starts: (2a - 1)(n_max + 1) windows
    # without h0, n_max + 1 with it, and the index alone can exceed the cap
    message = f"the sweep has 4194309 (n, h0) windows, more than {AUDIT_WINDOW_CAP}"
    with pytest.raises(ValueError, match=re.escape(message)):
        audit(4, AUDIT_WINDOW_CAP // 7)
    with pytest.raises(ValueError, match="windows"):
        audit(4, AUDIT_WINDOW_CAP, h0=5)
    with pytest.raises(ValueError, match="windows"):
        audit(10**9, 0)
    monkeypatch.setattr(enumerator, "AUDIT_WINDOW_CAP", 14)
    assert audit(4, 1).cells_swept == 126
    assert audit(4, 13, h0=5).cells_swept > 0
    with pytest.raises(ValueError, match="the sweep has 21 "):
        audit(4, 2)
    with pytest.raises(ValueError, match="the sweep has 15 "):
        audit(4, 14, h0=5)


@pytest.mark.parametrize(
    "a, n_max, h0, windows", [(4, 20, None, 104), (12, 60, None, 824), (12, 60, 13, 26), (28, 112, None, 3427)]
)
def test_audit_reads_one_empty_window_per_row(monkeypatch, a, n_max, h0, windows):
    # every row h0 <= a is read whole; a row h0 > a stops after its first
    # empty window, n = 2a // (h0 - a) + 1, not at n_max
    calls = []
    pieces = enumerator._verdict_pieces
    monkeypatch.setattr(enumerator, "_verdict_pieces", lambda *args: calls.append(args) or pieces(*args))
    audit(a, n_max, h0)
    rows = range(1, 2 * a) if h0 is None else [h0]
    assert len(calls) == windows == sum(
        n_max + 1 if r <= a else min(n_max + 1, 2 * a // (r - a) + 2) for r in rows
    )


def _audit_per_h(a, n_max, h0=None):
    """Reference for audit: one cell_verdict call per cell."""
    h0_values = tuple(range(1, 2 * a)) if h0 is None else (h0,)
    killed = {}
    inconsistencies = []
    to_search = []
    swept = 0

    def kill(reason):
        killed[reason] = killed.get(reason, 0) + 1

    for h0v in h0_values:
        if not p2_multiple_range(a, h0v):
            continue
        b = p4_length(h0v)
        for n in range(0, n_max + 1):
            for h in range(n * h0v, (n + 2) * a + 1):
                swept += 1
                if b < 1:
                    kill("length_zero")
                    continue
                reason = cell_verdict(a, n, h0v, h)
                if reason in (None, "sigma_budget", "unresolved_sections"):
                    if h0v <= a:
                        inconsistencies.append(
                            f"cell (n={n}, h0={h0v}, h={h}) escapes the small-multiple kills"
                        )
                        continue
                    if reason == "unresolved_sections":
                        inconsistencies.append(
                            f"cell (n={n}, h0={h0v}, h={h}) admits unmodelled sections"
                        )
                        continue
                    if reason is None:
                        to_search.append(SearchCell(a, n, h0v, h))
                        continue
                kill(reason)

    rejected = {}
    survivors = {}
    for o in (search_cell(c) for c in to_search):
        for reason, count in o.rejected.items():
            rejected[reason] = rejected.get(reason, 0) + count
        for s in o.survivors:
            survivors.setdefault(s["key"], s)
    outside = in_catalog = None  # below index 4 the catalog is not compared
    if a >= 4:
        outside, in_catalog = [], 0
        key_map = _built_key_map(a)
        for key in sorted(survivors):
            if key in key_map:
                survivors[key]["type"] = key_map[key]
                in_catalog += 1
            else:
                survivors[key]["type"] = "unexpected"
                outside.append(survivors[key])
    return AuditReport(
        a, n_max, h0_values, swept, killed, len(to_search), rejected, in_catalog, outside,
        inconsistencies,
    )


_AUDIT_CASES = [(a, n_max, None) for a in range(2, 13) for n_max in sorted({0, 1, a, 2 * a, 5 * a})]
_AUDIT_CASES += [(a, 3 * a, h0) for a in range(2, 9) for h0 in range(1, 2 * a)]


def test_audit_matches_the_per_h_sweep():
    # a missed breakpoint would miscount kills or misplace a reported cell:
    # compare the report bytes (key order included) against the per-h sweep
    assert (2, 4, None) in _AUDIT_CASES
    for a, n_max, h0 in _AUDIT_CASES:
        rep, ref = audit(a, n_max, h0), _audit_per_h(a, n_max, h0)
        assert json.dumps(rep.to_json()) == json.dumps(ref.to_json()), (a, n_max, h0)
        assert rep.to_text() == ref.to_text()
        assert list(rep.killed) == list(ref.killed)
        assert rep.inconsistencies == ref.inconsistencies
    # audit(2, 4) reports both kinds of inconsistency
    messages = audit(2, 4).inconsistencies
    assert len(messages) == 5
    assert {m.split(") ")[1] for m in messages} == {
        "escapes the small-multiple kills",
        "admits unmodelled sections",
    }
