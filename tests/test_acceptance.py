"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is exact; there are no tolerances anywhere.
"""

import sys
import time
from fractions import Fraction

from delpezzo.catalog import build_entry_ladder, catalog_entries, entry_by_name
from delpezzo.elimination import (
    NodeDatum,
    OnCurveDatum,
    Subscheme,
    eliminate,
    node_coefficients,
    on_curve_coefficients,
    transform,
)
from delpezzo.enumerator import (
    audit,
    classify,
    random_pseudo_fundamental_ladders,
)
from delpezzo.graphs import canonical_key
from delpezzo.lattice import Divisor, SurfaceModel
from delpezzo.multiplet import (
    certificate_index_is_a,
    identities_check,
    index_of,
    volume,
)
from delpezzo.toric import (
    anticanonical_square,
    exceptional_graph,
    gorenstein_index,
    hj_resolve,
    family_fan,
)


def _volume_formula(a: int, k: int) -> Fraction:
    return Fraction(2 * a * a + k * a + 2, a)


def _kills_formula(a: int) -> dict[str, int]:
    """The cells each rule kills at index a >= 8, in closed form."""
    return {
        "volume": 2 * a * a + 3 * a // 2 - 13 if a % 2 == 0 else (4 * a * a + 3 * a - 29) // 2,
        "window": 3 * a // 2 if a % 2 == 0 else (3 * a + 3) // 2,
        "small_multiple_region": a - 1,
        "sigma_budget": 1,
        "length_zero": 1,
        "large_multiple_volume": sum(2 * a // k + 1 for k in range(2, a)),
    }


def test_criterion_1_theorem_regression():
    """classify reproduces the full catalog with exact volumes at every
    4 <= a <= 512, and its counts follow closed forms in a: from a = 6 on,
    13 cells, 12 candidates and 12 survivors; from a = 8 on, the kills of
    ``_kills_formula`` and no other; from a = 18 on, 5 floor((a-1)/2) + 38
    configurations.  About 2 s on one core (Python 3.11)."""
    for a in range(4, 513):
        report = classify(a)
        if a >= 6:
            assert (report.cells_visited, report.candidates, len(report.survivors)) == (13, 12, 12), a
        if a >= 8:
            assert report.killed_cells == _kills_formula(a), a
        if a >= 18:
            assert report.configurations == 5 * ((a - 1) // 2) + 38, a
        assert report.catalog_match, (a, report.unexpected, report.missing)
        got = [(r["type"], r["volume"]) for r in report.rows]
        expected = [
            ("O", _volume_formula(a, 4)),
            ("I", _volume_formula(a, 3)),
            ("II_1", _volume_formula(a, 2)),
            ("II_2", _volume_formula(a, 2)),
            ("III", _volume_formula(a, 1)),
            ("IV", _volume_formula(a, 0)),
        ]
        if a == 5:
            expected.append(("A5", Fraction(54, 5)))
        if a == 4:
            expected.append(("B4", Fraction(8)))
            expected.append(("C4", Fraction(8)))
        want = [
            (name, f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator))
            for name, v in expected
        ]
        assert got == want, (a, got)
        assert all(r["configurations"] >= 1 for r in report.rows)
    print("ACCEPTANCE 1 theorem regression: PASS")


def test_classify_matches_the_catalog_at_large_index():
    """The search runs from explicit stacks: its depth, h0 // 2 levels (about
    a / 2), is not bounded by the recursion limit.  Each index takes about
    0.005-0.02 s on one core (Python 3.11) up to 16,384, and 0.1 s at 65,536;
    cell generation walks blocks of rows of equal n-cap, so it costs
    O(sqrt a), and what still grows with a is the JSON record's delta list
    per level.  30 s is the bound."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        for a in (1000, 1024, 2048, 4096, 16384, 65536):
            start = time.perf_counter()
            report = classify(a)
            assert report.catalog_match, (a, report.unexpected, report.missing)
            assert time.perf_counter() - start < 30, a
    finally:
        sys.setrecursionlimit(limit)


def test_criterion_2_toric_agreement():
    """Anticanonical squares and Gorenstein indices of the toric families."""
    for a in range(2, 11):
        assert anticanonical_square(family_fan("O", a)) == _volume_formula(a, 4)
        assert anticanonical_square(family_fan("I", a)) == _volume_formula(a, 3)
        assert anticanonical_square(family_fan("II1", a)) == _volume_formula(a, 2)
        assert anticanonical_square(family_fan("II2", a)) == _volume_formula(a, 2)
        for family in ("O", "I", "II1", "II2"):
            assert gorenstein_index(family_fan(family, a)) == a
    assert anticanonical_square(family_fan("P113", 3)) == Fraction(25, 3)
    assert gorenstein_index(family_fan("P113", 3)) == 3
    print("ACCEPTANCE 2 toric agreement: PASS")


def test_criterion_3_resolution_fidelity():
    """Family I inserts exactly (0,-1) with coefficient a-1; the exceptional
    graphs of the three split families match the multiplet descents."""
    for a in range(2, 11):
        res = hj_resolve(family_fan("I", a))
        assert res.inserted_rays() == ((0, -1),)
        assert -a * res.discrepancies[(0, -1)] == a - 1
        for family, entry in (("I", "I"), ("II1", "II_1"), ("II2", "II_2")):
            toric_side = exceptional_graph(family_fan(family, a), a)
            pair = build_entry_ladder(entry_by_name(a, entry), a, 0).bottom_pair
            assert canonical_key(toric_side) == canonical_key(pair.graph), (family, a)
    print("ACCEPTANCE 3 resolution fidelity: PASS")


def test_criterion_4_elimination_oracle():
    """Closed-form chain coefficients equal brute-force tape pullback,
    exhaustively over e <= 5, s <= 5, m <= 6, k <= m (and both branches of
    the node case)."""
    checked = 0
    for e in range(0, 6):
        for s in range(1, 6):
            for m in range(1, 7):
                for k in range(1, m + 1):
                    model = SurfaceModel.hirzebruch(6)
                    res = eliminate(model, Subscheme((OnCurveDatum(0, k, m),)))
                    out = transform(Divisor.from_dict({0: e}), res, s)
                    (chain,) = res.chains
                    assert [out.coeff(c) for c in chain] == on_curve_coefficients(e, s, m, k)
                    assert out.coeff(0) == e
                    checked += 1
    for e1 in range(0, 6):
        for e2 in range(0, 6):
            for s in range(1, 6):
                for m in range(1, 7):
                    for k2 in range(1, m + 1):
                        model = SurfaceModel.hirzebruch(3)
                        model, l1 = model.add_fiber()
                        res = eliminate(model, Subscheme((NodeDatum(0, l1.id, k2, m),)))
                        out = transform(Divisor.from_dict({0: e1, l1.id: e2}), res, s)
                        (chain,) = res.chains
                        assert [out.coeff(c) for c in chain] == node_coefficients(e1, e2, s, m, k2)
                        assert (out.coeff(0), out.coeff(l1.id)) == (e1, e2)
                        checked += 1
    print(f"ACCEPTANCE 4 elimination oracle: PASS ({checked} cases, exact)")


def test_criterion_5_identity_suite():
    """On at least 1000 fuzzed valid pseudo-fundamental multiplets, the four
    intersection identities hold exactly and both volume computations agree."""
    ladders = random_pseudo_fundamental_ladders(seed=20240817, count=1000)
    assert len(ladders) >= 1000
    for ladder in ladders:
        assert identities_check(ladder)
        volume(ladder)  # raises on any disagreement between its two routes
    lengths = {ladder.b for ladder in ladders}
    assert lengths >= {1, 2, 3}
    print(f"ACCEPTANCE 5 identity suite: PASS ({len(ladders)} multiplets)")


def test_criterion_6_index_suite():
    """Exact index a and the sufficient certificate on all catalog types;
    agreement with the toric indices."""
    count = 0
    for a in (4, 5, 6, 7, 8):
        for entry in catalog_entries(a):
            for idx in range(len(entry.configs)):
                pair = build_entry_ladder(entry, a, idx).bottom_pair
                assert index_of(pair) == a, (a, entry.name)
                assert certificate_index_is_a(pair), (a, entry.name)
                count += 1
    for a in range(2, 11):
        for family, entry in (("O", "O"), ("I", "I"), ("II1", "II_1"), ("II2", "II_2")):
            pair = build_entry_ladder(entry_by_name(a, entry), a, 0).bottom_pair
            assert index_of(pair) == gorenstein_index(family_fan(family, a))
    print(f"ACCEPTANCE 6 index suite: PASS ({count} pairs)")


def test_criterion_7_audit():
    """Desk-scale audits of the excluded region report no survivors outside
    the catalog."""
    for a, nmax in ((4, 12), (5, 14)):
        report = audit(a, nmax)
        assert report.clean, (a, report.survivors_outside, report.inconsistencies)
        assert not report.survivors_outside
    print("ACCEPTANCE 7 audit: PASS")
