import dataclasses
from fractions import Fraction

import pytest

from delpezzo.catalog import build_entry_ladder, catalog_entries, entry_by_name
from delpezzo.elimination import OnCurveDatum, Subscheme, eliminate, transform
from delpezzo.enumerator import random_pseudo_fundamental_ladders
from delpezzo.lattice import Divisor, DivisorClass, SurfaceModel
from delpezzo.multiplet import (
    BasicPair,
    InternalConsistencyError,
    LadderLevel,
    build_ladder,
    certificate_index_is_a,
    certify_ladder,
    check_basic_pair,
    close_ladder,
    contracted_graph,
    contracted_support,
    descend_step,
    identities_check,
    index_of,
    ladder_json,
    local_lemma_checks,
    nef_certificate,
    volume,
)
from delpezzo.toric import gorenstein_index, family_fan


def _entry_ladder(a, name, config=0):
    return build_entry_ladder(entry_by_name(a, name), a, config)


def _graph_shape(pair):
    model = pair.model
    ids = pair.E0.support
    verts = sorted(
        (model.curve(c).name, model.self_intersection(c), pair.E0.coeff(c)) for c in ids
    )
    edges = sorted(
        tuple(sorted((model.curve(x).name, model.curve(y).name)))
        for i, x in enumerate(ids)
        for y in ids[i + 1 :]
        if model.intersection(x, y) == 1
    )
    return verts, edges


@pytest.mark.parametrize("a", [2, 3, 4, 5, 6, 7, 8])
def test_principal_series_bottom(a):
    lad = _entry_ladder(a, "O")
    pair = lad.bottom_pair
    assert pair.E0.as_dict() == {0: a - 1}
    assert pair.model.self_intersection(0) == -2 * a
    assert volume(lad) == Fraction(2 * a * a + 4 * a + 2, a)


def test_a5_bottom_and_graph():
    lad = _entry_ladder(5, "A5")
    pair = lad.bottom_pair
    names = {pair.model.curve(c).name: v for c, v in pair.E0.items}
    assert names == {"sigma": 4, "l_1": 2}
    verts, edges = _graph_shape(pair)
    assert verts == [("l_1", -2, 2), ("sigma", -8, 4)]
    assert edges == [("l_1", "sigma")]
    assert volume(lad) == Fraction(54, 5)


def test_b4_bottom_and_graph():
    lad = _entry_ladder(4, "B4")
    pair = lad.bottom_pair
    names = {pair.model.curve(c).name: v for c, v in pair.E0.items}
    assert names == {"sigma": 3, "Gamma_P1_2": 2, "Gamma_P1_1": 1}
    verts, edges = _graph_shape(pair)
    assert verts == [("Gamma_P1_1", -2, 1), ("Gamma_P1_2", -2, 2), ("sigma", -6, 3)]
    assert edges == [("Gamma_P1_1", "Gamma_P1_2"), ("Gamma_P1_2", "sigma")]
    assert volume(lad) == Fraction(8)


def test_c4_bottom_and_graph():
    lad = _entry_ladder(4, "C4")
    pair = lad.bottom_pair
    names = {pair.model.curve(c).name: v for c, v in pair.E0.items}
    assert names == {"sigma": 3, "Gamma_P2_1": 2, "Gamma_P2_2": 1, "l_1": 2}
    verts, edges = _graph_shape(pair)
    assert verts == [
        ("Gamma_P2_1", -2, 2),
        ("Gamma_P2_2", -2, 1),
        ("l_1", -4, 2),
        ("sigma", -6, 3),
    ]
    # one chain of three plus an isolated fiber
    assert edges == [("Gamma_P2_1", "Gamma_P2_2"), ("Gamma_P2_1", "sigma")]
    assert volume(lad) == Fraction(8)


@pytest.mark.parametrize(
    "a,name,vol",
    [
        (4, "O", Fraction(25, 2)),
        (4, "I", Fraction(23, 2)),
        (4, "II_1", Fraction(21, 2)),
        (4, "II_2", Fraction(21, 2)),
        (4, "III", Fraction(19, 2)),
        (4, "IV", Fraction(17, 2)),
        (7, "III", Fraction(107, 7)),
        (8, "IV", Fraction(65, 4)),
    ],
)
def test_series_volumes(a, name, vol):
    assert volume(_entry_ladder(a, name)) == vol


def test_every_catalog_config_passes_certificates():
    for a in (4, 5, 6, 7, 8):
        for entry in catalog_entries(a):
            for idx in range(len(entry.configs)):
                lad = build_entry_ladder(entry, a, idx)
                report = certify_ladder(lad)
                assert report.passed, (a, entry.name, idx, report.failures)
                assert identities_check(lad)
                assert not local_lemma_checks(lad)
                assert volume(lad) == entry.volume


def test_basic_pair_positivity_value():
    # adjoint positivity of the length-zero pair behind the principal series
    lad = _entry_ladder(4, "O")
    pair = lad.bottom_pair
    report = check_basic_pair(pair, nef_evidence=True)
    assert report.passed
    # (K + L).L = 2 (a-1)(a+1)^2 at a = 4
    assert report.details["adjoint_positivity"] == 150


def test_basic_pair_failures():
    a = 4
    F8 = SurfaceModel.hirzebruch(2 * a)
    bad = BasicPair.build(F8, Divisor.from_dict({0: a}), a)
    report = check_basic_pair(bad)
    assert "coefficient_range" in report.failures

    empty = BasicPair.build(F8, Divisor.from_dict({}), a)
    report = check_basic_pair(empty)
    assert "nonzero" in report.failures


def test_nef_certificate():
    lad = _entry_ladder(5, "O")
    top = lad.top
    assert nef_certificate(top.model, top.L, top.E, lad.b)
    bot = lad.bottom
    assert nef_certificate(bot.model, bot.L, bot.E, 1)
    # a component meeting L negatively disqualifies
    F4 = SurfaceModel.hirzebruch(4)
    L = F4.base_class(1, 3)  # (L.sigma) = -1
    assert not nef_certificate(F4, L, Divisor.from_dict({0: 1}), 1)
    # a zero divisor is vacuously fine here; its rejection is the separate
    # nonzero condition
    assert nef_certificate(F4, L, Divisor.from_dict({}), 1)
    report = check_basic_pair(BasicPair.build(F4, Divisor.from_dict({}), 4))
    assert "nonzero" in report.failures


def test_identity_values_on_c4():
    lad = _entry_ladder(4, "C4")
    top = lad.top
    # (L_2 . E_2) = sum over levels of j(a-j) deg = 4*1 + 3*3
    assert top.model.intersect(top.L, top.E.class_in(top.model)) == 13
    assert identities_check(lad)


def test_identities_all_levels_empty_multiplet():
    lad = _entry_ladder(6, "O")
    for lv in lad.levels:
        assert lv.model.intersect(lv.L, lv.E.class_in(lv.model)) == 0
    assert identities_check(lad)


def _identities_per_level(ladder):
    """Reference for identities_check: every level rescans the levels below."""
    a = ladder.a
    degs = ladder.delta_degrees()
    bot = ladder.bottom
    k0l0 = bot.model.intersect(bot.model.canonical_class + bot.L, bot.L)
    l0sq = bot.model.intersect(bot.L, bot.L)
    for lv in ladder.levels:
        below = [j for j in degs if j <= lv.i]
        lhs = lv.model.intersect(lv.L, lv.E.class_in(lv.model))
        if lhs != sum(j * (a - j) * degs[j] for j in below):
            return False
        kl = lv.model.intersect(lv.model.canonical_class + lv.L, lv.L)
        if kl - k0l0 != sum(j * (j - 1) * degs[j] for j in below):
            return False
        for cid in lv.E.support:
            contact = sum(j * ladder.level(j).delta.contact(cid) for j in below)
            if lv.model.intersect(lv.L, lv.model.curve(cid).cls) != contact:
                return False
        mk = -1 * lv.model.canonical_class
        rhs = lv.model.intersect(mk, lv.L) - sum(j * degs[j] for j in below)
        if Fraction(l0sq, a) != rhs:
            return False
    return True


def test_identities_check_matches_the_per_level_rescan():
    ladders = [
        build_entry_ladder(entry, a, idx)
        for a in (4, 5, 6, 7, 8)
        for entry in catalog_entries(a)
        for idx in range(len(entry.configs))
    ]
    ladders += random_pseudo_fundamental_ladders(0, 100)
    assert len(ladders) > 100
    for lad in ladders:
        assert identities_check(lad) == _identities_per_level(lad)


def _with_level(lad, i, **fields):
    levels = list(lad.levels)
    levels[lad.b - i] = dataclasses.replace(lad.level(i), **fields)
    return dataclasses.replace(lad, levels=tuple(levels))


@pytest.mark.parametrize(
    "name, datum, tampered",
    [
        # same degree 2, contact with sigma 1 instead of 2
        ("II_1", OnCurveDatum(0, 2, 2), OnCurveDatum(0, 1, 2)),
        # same contact 1, degree 2 instead of 1
        ("I", OnCurveDatum(0, 1, 1), OnCurveDatum(0, 1, 2)),
    ],
)
def test_identities_check_rejects_a_tampered_subscheme(name, datum, tampered):
    lad = _entry_ladder(5, name)
    assert lad.level(1).delta == Subscheme((datum,))
    assert identities_check(lad) and _identities_per_level(lad)
    bad = _with_level(lad, 1, delta=Subscheme((tampered,)))
    assert not identities_check(bad)
    assert not _identities_per_level(bad)


def test_identities_check_rejects_a_moved_adjoint_square():
    # On level 2 of A5, D = E_2 - E_1 meets K and every component of E in 0,
    # hence L in 0 too.  L + D keeps L.E, every contact sum and -K.L, so only
    # the (K+L).L identity sees that (K+L).L moved by D^2 = -2.
    lad = _entry_ladder(5, "A5")
    lv = lad.level(2)
    m = lv.model
    D = DivisorClass((0, 0), (-1, 1) + (0,) * (m.exc_count - 2))
    assert m.intersect(m.canonical_class, D) == 0
    assert all(m.intersect(m.curve(c).cls, D) == 0 for c in lv.E.support)
    assert m.intersect(D, D) == -2
    bad = _with_level(lad, 2, L=lv.L + D)
    assert not identities_check(bad)
    assert not _identities_per_level(bad)


def _catalog_ladders(indices):
    return [
        build_entry_ladder(entry, a, idx)
        for a in indices
        for entry in catalog_entries(a)
        for idx in range(len(entry.configs))
    ]


def test_empty_descent_step_is_the_identity():
    ladders = _catalog_ladders(range(4, 13)) + random_pseudo_fundamental_ladders(0, 100)
    empty = 0
    for lad in ladders:
        for lv in lad.levels[:-1]:
            if not lv.delta.is_empty():
                continue
            empty += 1
            level, E, L = descend_step(lad.a, lv.i, lv.model, lv.E, lv.L, lv.delta)
            elim = eliminate(lv.model, lv.delta)
            assert level == LadderLevel(lv.i, lv.model, lv.E, lv.L, elim.subscheme, elim)
            assert E == transform(lv.E, elim, lad.a - lv.i)
            assert L == elim.transform_class(lv.L, lv.i)
            assert E is lv.E and L is lv.L and level.elim.model is lv.model
    assert empty > 200


def _closes(lad):
    bot = lad.bottom
    try:
        close_ladder(lad.a, list(lad.levels[:-1]), bot.model, bot.E, bot.L)
    except InternalConsistencyError:
        return False
    return True


def _closes_per_level(lad):
    """Reference for close_ladder's check: every level, none skipped."""
    return all(lv.model.fundamental_class(lad.a, lv.E) == lv.L for lv in lad.levels)


def _level_failures(lad):
    """The failures certify_ladder's level loop reports."""
    return [f for f in certify_ladder(lad).failures if not f.startswith(("top_", "bottom_"))]


def _level_failures_per_level(lad):
    """Reference for certify_ladder's level loop: every level, none skipped."""
    for lv in lad.levels[1:]:
        if not lv.E.is_effective():
            return [f"effectivity_level_{lv.i}"]
        if lv.E.is_zero():
            return [f"nonzero_level_{lv.i}"]
        if not nef_certificate(lv.model, lv.L, lv.E, lv.i + 1):
            return [f"nef_level_{lv.i}"]
    return []


def _checks_match_the_references(lad):
    assert _closes(lad) == _closes_per_level(lad)
    assert _level_failures(lad) == _level_failures_per_level(lad)
    # the identities reference rescans the levels below each level: quadratic in b
    if lad.a <= 24:
        assert identities_check(lad) == _identities_per_level(lad)


def test_shared_checks_match_the_per_level_references():
    ladders = _catalog_ladders([*range(4, 65), 256, 512])
    ladders += [lad for seed in range(3) for lad in random_pseudo_fundamental_ladders(seed, 100)]
    tampered = 0
    for lad in ladders:
        _checks_match_the_references(lad)
        # the same ladder with L moved on its lowest empty level above 0
        empty = [lv for lv in lad.levels[1:-1] if lv.delta.is_empty()]
        if empty:
            lv = empty[-1]
            bad = _with_level(lad, lv.i, L=lv.L + lv.model.fiber_class())
            _checks_match_the_references(bad)
            assert not _closes(bad)
            tampered += 1
    assert tampered > 700


def test_shared_checks_see_a_moved_class_inside_a_run_of_empty_levels():
    lad = _entry_ladder(64, "IV")
    i = lad.b // 2
    lv = lad.level(i)
    above, below = lad.level(i + 1), lad.level(i - 1)
    assert above.delta.is_empty() and lv.delta.is_empty()
    assert above.L is lv.L is below.L and above.E is lv.E is below.E
    assert above.model is lv.model is below.model
    f = lv.model.fiber_class()
    # L.sigma = 4 here: L + f still meets E nonnegatively, L - 5f does not
    assert lv.model.intersect(lv.L, lv.model.curve(0).cls) == 4
    for L, closes, levels_pass, identities in (
        (lv.L + f, False, True, False),
        (lv.L + (-5) * f, False, False, False),
        (DivisorClass(lv.L.base, lv.L.exc), True, True, True),
    ):
        bad = _with_level(lad, i, L=L)
        _checks_match_the_references(bad)
        assert _closes(bad) == closes
        assert (not _level_failures(bad)) == levels_pass
        assert certify_ladder(bad).passed == levels_pass
        assert identities_check(bad) == _identities_per_level(bad) == identities


def test_volume_cross_check_runs():
    lad = _entry_ladder(5, "II_1")
    assert volume(lad) == Fraction(62, 5)


@pytest.mark.parametrize("a", [4, 5, 6, 7, 8])
def test_index_on_series(a):
    for name in ("O", "I", "II_1", "II_2", "III", "IV"):
        pair = _entry_ladder(a, name).bottom_pair
        assert index_of(pair) == a
        assert certificate_index_is_a(pair)


def test_index_on_exceptional_types():
    for a, name in ((5, "A5"), (4, "B4"), (4, "C4")):
        pair = _entry_ladder(a, name).bottom_pair
        assert index_of(pair) == a
        assert certificate_index_is_a(pair)


def test_index_drops_on_even_coefficient():
    # 2 sigma on F_4: the section has square -4 and is orthogonal to L
    a = 4
    F4 = SurfaceModel.hirzebruch(4)
    pair = BasicPair.build(F4, Divisor.from_dict({0: 2}), a)
    assert pair.model.intersect(pair.L0, pair.model.sigma_class()) == 0
    assert index_of(pair) == 2
    assert not certificate_index_is_a(pair)


@pytest.mark.parametrize("a", range(2, 11))
def test_index_matches_toric(a):
    for name, family in (("O", "O"), ("I", "I"), ("II_1", "II1"), ("II_2", "II2")):
        pair = _entry_ladder(a, name).bottom_pair
        assert index_of(pair) == gorenstein_index(family_fan(family, a)) == a


def test_contracted_support_includes_canonical_chains():
    pair = _entry_ladder(5, "II_1").bottom_pair
    ids = contracted_support(pair)
    names = sorted(pair.model.curve(c).name for c in ids)
    # the interior (-2)-curve of the double point's chain is contracted with
    # coefficient zero
    assert names == ["Gamma_P1_1", "sigma"]
    g = contracted_graph(pair)
    assert sorted(g.weights) == [(-10, 4), (-2, 0)]
    assert not g.edges


def test_component_bound_on_accepted_pairs():
    # accepted components satisfy 2 <= -(C^2) <= 2a/(a - coeff)
    for a in (4, 5, 6):
        for entry in catalog_entries(a):
            for idx in range(len(entry.configs)):
                pair = build_entry_ladder(entry, a, idx).bottom_pair
                for c, e in pair.E0.items:
                    d = -pair.model.self_intersection(c)
                    assert 2 <= d
                    assert d * (a - e) <= 2 * a


def test_local_checks_boundary_case():
    # a double point with transverse contact on a coefficient-(a-1) curve is
    # admissible exactly when 2i = a + 1
    F = SurfaceModel.hirzebruch(9)
    E = Divisor.from_dict({0: 4})
    deltas = [Subscheme((OnCurveDatum("sigma", 1, 2),)), Subscheme(()), Subscheme(())]
    lad = build_ladder(5, F, E, deltas, strict=False)
    assert local_lemma_checks(lad) == []

    F = SurfaceModel.hirzebruch(11)
    E = Divisor.from_dict({0: 5})
    deltas = [Subscheme((OnCurveDatum("sigma", 1, 2),)), Subscheme(()), Subscheme(())]
    lad = build_ladder(6, F, E, deltas, strict=False)
    assert any("2i = a+1" in v for v in local_lemma_checks(lad))


def test_volume_mismatch_raises():
    import dataclasses

    from delpezzo.multiplet import InternalConsistencyError

    lad = _entry_ladder(4, "O")
    bottom = lad.levels[-1]
    doctored_bottom = dataclasses.replace(bottom, L=bottom.L + bottom.model.fiber_class())
    doctored = dataclasses.replace(lad, levels=lad.levels[:-1] + (doctored_bottom,))
    with pytest.raises(InternalConsistencyError):
        volume(doctored)


def test_ladder_json_shape():
    lad = _entry_ladder(4, "C4")
    data = ladder_json(lad, certificates={"ok": True})
    assert data["a"] == 4 and data["b"] == 2
    assert data["base_n"] == 5
    assert data["volume"] == "8"
    assert data["index"] == 4
    assert {d["curve"] for d in data["E_b"]} == {"sigma", "l_1"}
    assert data["deltas"][0] == [{"kind": "on_curve", "curve": "l_1", "k": 1, "m": 1}]
    assert data["deltas"][1][0]["kind"] == "at_node"
    assert data["certificates"] == {"ok": True}
