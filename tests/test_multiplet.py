import collections
import dataclasses
from fractions import Fraction

import pytest

from delpezzo.catalog import _length, build_entry_ladder, catalog_entries, entry_by_name, top_model
from delpezzo.elimination import NodeDatum, OnCurveDatum, Subscheme, eliminate, transform
from delpezzo.enumerator import SearchCell, random_pseudo_fundamental_ladders
from delpezzo.lattice import Divisor, DivisorClass, StructuralError, SurfaceModel
from delpezzo.multiplet import (
    BasicPair,
    InternalConsistencyError,
    Ladder,
    LadderLevel,
    build_ladder,
    certificate_index_is_a,
    certify_ladder,
    certify_survivor,
    check_basic_pair,
    close_ladder,
    identities_check,
    index_of,
    ladder_json,
    local_lemma_checks,
    volume,
)
from delpezzo.toric import gorenstein_index, family_fan


def _entry_ladder(a, name, config=0):
    return build_entry_ladder(entry_by_name(a, name), a, config)


def _pair(model, E0, a):
    return BasicPair(model, E0, a, model.fundamental_class(a, E0))


def _adjoint_positivity(pair):
    """(K + L).L of a basic pair."""
    model = pair.model
    return model.intersect(model.canonical_class + pair.L0, pair.L0)


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


# The checks of ``certify_survivor``, in the order it runs them.
SURVIVOR_CHECKS = ("ladder", "volume", "index", "identities", "degrees", "index_certificate", "local")


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
                assert certify_survivor(lad) == dict.fromkeys(SURVIVOR_CHECKS, ()), (a, entry.name, idx)


def test_top_fundamental_rejects_every_catalog_ladder_one_level_short():
    # with b - 1 levels, (b K + L) is still nef on top: the ladder is
    # pseudo-fundamental but not fundamental, and nothing else fails
    checked = 0
    for a in (4, 5, 6, 8):
        for entry in catalog_entries(a):
            steps = entry.configs[0]
            if any(level >= _length(a) for level in steps):
                continue  # B4, C4 and A5 eliminate at the top level
            top = top_model(entry.base_n, entry.c0, entry.fibers)
            lad = build_ladder(a, *top, _length(a) - 1, steps)
            assert certify_ladder(lad).failures == ("top_fundamental",), (a, entry.name)
            assert certify_ladder(lad, require_fundamental=False).passed
            checked += 1
    assert checked == 24


def test_top_minus_one_curve_rejects_an_f1_top_that_meets_sigma_b_times():
    # F_1, E = sigma + 2 l_1 at a = 5, b = 4: L.sigma = a + 1 - 2 = b, so
    # b K + L is nef and (b+1) K + L is not, but (b+1) K + L meets the
    # (-1)-curve sigma negatively
    a, b = 5, 4
    model, fiber = SurfaceModel.hirzebruch(1).add_fiber()
    E = Divisor.from_dict({0: 1, fiber.id: 2})
    assert model.intersect(model.fundamental_class(a, E), model.sigma_class()) == b
    steps = {
        4: Subscheme((OnCurveDatum("sigma", 1, 1),)),
        3: Subscheme((OnCurveDatum("l_1", 1, 1),) * 3),
    }
    lad = build_ladder(a, model, E, b, steps)
    assert certify_ladder(lad).failures == ("top_minus_one_curve",)
    assert certify_ladder(lad, require_fundamental=False).failures == ("top_minus_one_curve",)
    # the bottom checks, which certify_ladder skips once a check has failed
    assert check_basic_pair(lad.bottom_pair).passed


def test_top_nef_rejects_every_catalog_ladder_one_level_long():
    # with b + 1 levels, the top level b + 1 eliminates nothing and
    # (b + 1) K + L is not nef on top; nothing else fails
    checked = 0
    for a in (4, 5, 6, 8):
        for entry in catalog_entries(a):
            top = top_model(entry.base_n, entry.c0, entry.fibers)
            lad = build_ladder(a, *top, _length(a) + 1, entry.configs[0])
            assert certify_ladder(lad).failures == ("top_nef",), (a, entry.name)
            assert certify_ladder(lad, require_fundamental=False).failures == ("top_nef",)
            checked += 1
    assert checked == 27


def test_top_not_minimal_rejects_a_catalog_top_with_one_more_point_blown_up():
    # a general point away from E, blown up on top: the curve ids stay, so
    # the same steps descend, and only the top's minimality fails
    for a in (4, 5):
        for entry in catalog_entries(a):
            model, E = top_model(entry.base_n, entry.c0, entry.fibers)
            model, _ = model.blow_up()
            lad = build_ladder(a, model, E, _length(a), entry.configs[0])
            for require in (True, False):
                report = certify_ladder(lad, require_fundamental=require)
                assert report.failures == ("top_not_minimal",), (a, entry.name)


def _top_failures_by_classes(model, b, L, require_fundamental):
    """The top tests of ``certify_ladder`` on the classes bK+L and (b+1)K+L."""
    K = model.canonical_class
    out = []
    if not model.nef_on_base(b * K + L):
        out.append("top_nef")
    cls = (b + 1) * K + L
    if require_fundamental and model.nef_on_base(cls):
        out.append("top_fundamental")
    if model.n == 1 and model.intersect(cls, model.sigma_class()) < 0:
        out.append("top_minus_one_curve")
    return out


def test_top_tests_in_integers_match_the_class_route():
    # a one-level ladder whose top is also its bottom, with L = (p, q) over
    # a box around the thresholds p' = 0 and q' = n p' of bK+L and of
    # (b+1)K+L; the top failures are those the classes give, and the
    # closed nef criterion is that of meeting sigma and the fiber
    # nonnegatively
    top_names = {"top_nef", "top_fundamental", "top_minus_one_curve"}
    checked = collections.Counter()
    for n in range(7):
        model = SurfaceModel.hirzebruch(n)
        sigma, fiber = model.sigma_class(), model.fiber_class()
        E = Divisor.from_dict({0: 1})
        for b in range(1, 6):
            for p in range(2 * b - 1, 2 * b + 6):
                for q in range((n + 2) * b - 2, (n + 2) * (b + 1) + 5 * n + 3):
                    L = model.base_class(p, q)
                    for cls in (b * model.canonical_class + L, (b + 1) * model.canonical_class + L):
                        nef = model.intersect(cls, sigma) >= 0 and model.intersect(cls, fiber) >= 0
                        assert model.nef_on_base(cls) == nef
                    lad = Ladder(b + 1, b, (LadderLevel(0, model, E, L, None, None),))
                    for require in (True, False):
                        failures = certify_ladder(lad, require_fundamental=require).failures
                        got = [f for f in failures if f in top_names]
                        assert got == _top_failures_by_classes(model, b, L, require), (n, b, p, q)
                        checked.update(got)
    assert checked == {"top_nef": 5740, "top_fundamental": 1890, "top_minus_one_curve": 350}


def test_top_tests_check_the_shape_of_the_top_class():
    # B4 eliminates at its top level, so no level check reads the top class
    lad = _entry_ladder(4, "B4")
    top = lad.top
    assert top.i == lad.b
    bad = dataclasses.replace(top, L=DivisorClass(top.L.base, (0,)))
    with pytest.raises(StructuralError, match="does not live on this model"):
        certify_ladder(dataclasses.replace(lad, levels=(bad, *lad.levels[1:])))


def test_basic_pair_positivity_value():
    # adjoint positivity of the length-zero pair behind the principal series
    lad = _entry_ladder(4, "O")
    pair = lad.bottom_pair
    report = check_basic_pair(pair)
    assert report.passed
    # (K + L).L = 2 (a-1)(a+1)^2 at a = 4
    assert _adjoint_positivity(pair) == 150


def test_basic_pair_failures():
    a = 4
    F8 = SurfaceModel.hirzebruch(2 * a)
    bad = _pair(F8, Divisor.from_dict({0: a}), a)
    report = check_basic_pair(bad)
    assert "coefficient_range" in report.failures

    empty = _pair(F8, Divisor.from_dict({}), a)
    report = check_basic_pair(empty)
    assert "nonzero" in report.failures


def test_adjoint_positivity_alone_rejects_a_pair_with_nine_free_points():
    # E = 2 sigma on F_4 at a = 4 meets L = -4K - E in 0, and (K+L).L is
    # (a-1)(aK^2 + K.E) = 3(4K^2 + 4).  Blowing up k general points away
    # from sigma makes K^2 = 8 - k; at k = 9, (K+L).L = 0 and every other
    # basic-pair condition still holds.
    positivity = {}
    for k in (8, 9):
        model = SurfaceModel.hirzebruch(4)
        for _ in range(k):
            model, _ = model.blow_up()
        pair = _pair(model, Divisor.from_dict({0: 2}), 4)
        report = check_basic_pair(pair)
        assert [model.intersect(pair.L0, model.curve(c).cls) for c in pair.E0.support] == [0]
        positivity[k] = _adjoint_positivity(pair), report.failures
    assert positivity == {8: (12, ()), 9: (0, ("adjoint_positivity",))}


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


def _identities_per_level(a, levels):
    """Reference for identities_check: every level rescans the levels below.

    ``levels`` runs top down to level 0: a sparse ladder's stored levels, or
    the dense reference's one record per level."""
    steps = {lv.i: lv.delta for lv in levels if lv.delta is not None and not lv.delta.is_empty()}
    degs = {j: sub.degree for j, sub in steps.items()}
    bot = levels[-1]
    k0l0 = bot.model.intersect(bot.model.canonical_class + bot.L, bot.L)
    l0sq = bot.model.intersect(bot.L, bot.L)
    for lv in levels:
        below = [j for j in degs if j <= lv.i]
        lhs = lv.model.intersect(lv.L, lv.E.class_in(lv.model))
        if lhs != sum(j * (a - j) * degs[j] for j in below):
            return False
        kl = lv.model.intersect(lv.model.canonical_class + lv.L, lv.L)
        if kl - k0l0 != sum(j * (j - 1) * degs[j] for j in below):
            return False
        for cid in lv.E.support:
            contact = sum(j * steps[j].contact(cid) for j in below)
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
        assert identities_check(lad) == _identities_per_level(lad.a, lad.levels)


def _with_level(lad, k, **fields):
    """``lad`` with the fields of its stored level ``k`` (an index into
    ``levels``) replaced."""
    levels = list(lad.levels)
    levels[k] = dataclasses.replace(levels[k], **fields)
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
    assert lad.levels[0].i == 1 and lad.levels[0].delta == Subscheme((datum,))
    assert identities_check(lad) and _identities_per_level(lad.a, lad.levels)
    bad = _with_level(lad, 0, delta=Subscheme((tampered,)))
    assert not identities_check(bad)
    assert not _identities_per_level(bad.a, bad.levels)


def _a5_step_then_a_point_of_sigma():
    """A5's first step on F_7, then one point of sigma at level 1."""
    top, fiber = SurfaceModel.hirzebruch(7).add_fiber()
    steps = {3: Subscheme((OnCurveDatum("l_1", 2, 2),)), 1: Subscheme((OnCurveDatum("sigma", 1, 1),))}
    return build_ladder(5, top, Divisor.from_dict({0: 4, fiber.id: 2}), 3, steps)


def test_identities_check_rejects_a_moved_coefficient():
    # E_3 = 4 sigma + 2 l_1 meets L_3 in 4 (L.sigma) + 2 (L.l_1) = 4 + 12,
    # the weighted degree 3*2*2 + 1*4*1.  3 sigma + 2 l_1 keeps the support,
    # L and so every L.C, contact sum, K.L and (K+L).L; only the L.E
    # identity sees that L.E dropped by L.sigma = 1.
    lad = _a5_step_then_a_point_of_sigma()
    assert identities_check(lad)
    top = lad.levels[0]
    m = top.model
    assert [m.intersect(top.L, m.curve(c).cls) for c in top.E.support] == [1, 6]
    bad = _with_level(lad, 0, E=Divisor.from_dict({0: 3, 1: 2}))
    assert not identities_check(bad)
    assert not _identities_per_level(bad.a, bad.levels)


def test_identities_check_rejects_a_moved_adjoint_square():
    # On the state that levels 2 and 1 hold, D = E_2 - E_1 meets K and every
    # component of E in 0, hence L in 0 too.  L + D keeps L.E, every contact
    # sum and -K.L, so only the (K+L).L identity sees that (K+L).L moved by
    # D^2 = -2.
    lad = _a5_step_then_a_point_of_sigma()
    assert identities_check(lad)
    lv = lad.levels[1]
    assert lv.i == 1
    m = lv.model
    D = DivisorClass((0, 0), (-1, 1) + (0,) * (m.exc_count - 2))
    assert m.intersect(m.canonical_class, D) == 0
    assert all(m.intersect(m.curve(c).cls, D) == 0 for c in lv.E.support)
    assert m.intersect(D, D) == -2
    bad = _with_level(lad, 1, L=lv.L + D)
    assert not identities_check(bad)
    assert not _identities_per_level(bad.a, bad.levels)


def test_identities_check_rejects_a_moved_anticanonical_degree():
    # Type I at a = 4 starts on F_7 with E = 3 sigma.  D = x(sigma + 7 l)
    # meets sigma in 0, so L + D keeps L.E and the contact sums.  D.L is
    # -a D.K - D.E = -4 D.K, so (K+L).L moves by D.K + 2 D.L + D^2 =
    # 7x^2 + 63x, which is 0 at x = -9.  Only the -K.L identity sees that
    # K.L moved by D.K = 81.
    lad = _entry_ladder(4, "I")
    assert identities_check(lad)
    top = lad.levels[0]
    m = top.model
    assert (m.n, m.exc_count, top.E.items) == (7, 0, ((0, 3),))
    D = m.base_class(-9, -63)
    K, L = m.canonical_class, top.L
    assert m.intersect(m.sigma_class(), D) == 0
    assert m.intersect(K + L + D, L + D) == m.intersect(K + L, L)
    assert m.intersect(K, D) == 81
    bad = _with_level(lad, 0, L=L + D)
    assert not identities_check(bad)
    assert not _identities_per_level(bad.a, bad.levels)


def _catalog_ladders(indices):
    return [
        build_entry_ladder(entry, a, idx)
        for a in indices
        for entry in catalog_entries(a)
        for idx in range(len(entry.configs))
    ]


def _closes(lad):
    bot = lad.bottom
    try:
        close_ladder(lad.a, lad.b, list(lad.levels[:-1]), bot.model, bot.E, bot.L)
    except InternalConsistencyError:
        return False
    return True


def _level_failures(lad):
    """The failures certify_ladder's level loop reports."""
    return [f for f in certify_ladder(lad).failures if not f.startswith(("top_", "bottom_"))]


def _dense_levels(lad):
    """Reference descent: one record per level b..0, re-descended from the
    top data with eliminate, transform and transform_class, empty levels
    included."""
    a, steps = lad.a, {lv.i: lv.delta for lv in lad.levels[:-1]}
    model, E, L = lad.top.model, lad.top.E, lad.top.L
    dense = []
    for i in range(lad.b, 0, -1):
        elim = eliminate(model, steps.get(i, Subscheme(())))
        dense.append(LadderLevel(i, model, E, L, elim.subscheme, elim))
        model, E, L = elim.model, transform(E, elim, a - i), elim.transform_class(L, i)
    dense.append(LadderLevel(0, model, E, L, None, None))
    return dense


def _holder(lad, i):
    """Index in ``lad.levels`` of the stored level that holds the state of level i."""
    return next(k for k, lv in enumerate(lad.levels) if lv.i <= i)


def _closes_per_level(a, dense):
    """Reference for close_ladder's check: every level."""
    return all(lv.model.fundamental_class(a, lv.E) == lv.L for lv in dense)


def _level_failures_per_level(dense):
    """Reference for certify_ladder's level loop: every level below the top."""
    for lv in dense[1:]:
        if not lv.E.is_effective():
            return [f"effectivity_level_{lv.i}"]
        if lv.E.is_zero():
            return [f"nonzero_level_{lv.i}"]
        if any(lv.model.intersect(lv.L, lv.model.curve(c).cls) < 0 for c in lv.E.support):
            return [f"nef_level_{lv.i}"]
    return []


def _local_checks_per_level(a, dense):
    """Reference for local_lemma_checks: every level, the state below read
    from level i-1 and "no step below" from levels i-1..1."""
    by_level = {lv.i: lv for lv in dense}
    violations = []
    for lv in dense[:-1]:
        i = lv.i
        below_empty = all(by_level[j].delta.is_empty() for j in range(1, i))
        next_model = by_level[i - 1].model
        next_L = by_level[i - 1].L

        for chain in lv.elim.chains:
            for cid in chain:
                got = next_model.intersect(next_L, next_model.curve(cid).cls)
                want = i if next_model.self_intersection(cid) == -1 else 0
                if got != want:
                    violations.append(
                        f"level {i}: chain curve {next_model.curve(cid).name} meets L in {got}, expected {want}"
                    )

        for datum in lv.delta.points:
            comps = [(c, lv.E.coeff(c)) for c in _datum_curves(datum) if lv.E.coeff(c) > 0]
            mult = sum(v for _, v in comps)
            if mult < a - i:
                violations.append(
                    f"level {i}: point multiplicity {mult} of the divisor is below {a - i}"
                )
            if isinstance(datum, OnCurveDatum) and len(comps) == 1:
                e = comps[0][1]
                if e <= a - i and not (e == a - i and datum.k == datum.m):
                    violations.append(
                        f"level {i}: coefficient {e} forces full contact at coefficient {a - i}"
                    )
                if (
                    e == a - 1
                    and 2 * i <= a + 1
                    and datum.k == 1
                    and datum.m >= 2
                    and not (2 * i == a + 1 and datum.m == 2)
                ):
                    violations.append(
                        f"level {i}: transverse double point on a coefficient-{a - 1} curve "
                        f"needs 2i = a+1 and multiplicity 2, got m={datum.m}"
                    )
                if (
                    i >= 2
                    and below_empty
                    and e == a - i + 1
                    and datum.m < 2 * (a - i + 1)
                    and not (datum.m == a - i + 1 and datum.k == a - i)
                ):
                    violations.append(
                        f"level {i}: on a coefficient-{e} curve the point must have "
                        f"(m, k) = ({a - i + 1}, {a - i}), got ({datum.m}, {datum.k})"
                    )
            if isinstance(datum, NodeDatum) and i == 1 and a >= 4 and len(comps) == 2:
                coeffs = {datum.curve1: lv.E.coeff(datum.curve1), datum.curve2: lv.E.coeff(datum.curve2)}
                big = [c for c, v in coeffs.items() if v == a - 1]
                small = [c for c, v in coeffs.items() if 1 <= v <= 2]
                if big and small and big[0] != small[0]:
                    e = coeffs[small[0]]
                    contact_small = datum.k2 if datum.curve2 == small[0] else 1
                    ok = (
                        e == 2
                        and contact_small == datum.m
                        and (a, datum.m) in ((5, 2), (4, 3))
                    )
                    if not ok:
                        violations.append(
                            f"level 1: node on coefficient ({a - 1}, {e}) branches admits only "
                            f"(a, m) in {{(5, 2), (4, 3)}} with full contact on the small branch"
                        )
    return violations


def _datum_curves(datum):
    if isinstance(datum, OnCurveDatum):
        return [datum.curve]
    if isinstance(datum, NodeDatum):
        return [datum.curve1, datum.curve2]
    return []


def _checks_match_the_dense_reference(lad, dense):
    """Assert that the shared checks agree with their references on ``dense``;
    return which of them failed."""
    closes = _closes(lad)
    assert closes == _closes_per_level(lad.a, dense)
    failures = _level_failures(lad)
    assert failures == _level_failures_per_level(dense)
    violations = local_lemma_checks(lad)
    assert violations == _local_checks_per_level(lad.a, dense)
    identities = identities_check(lad)
    # the identities reference rescans the levels below each level: quadratic in b
    if lad.a <= 24:
        assert identities == _identities_per_level(lad.a, dense)
    return {"close": not closes, "levels": bool(failures), "local": bool(violations),
            "identities": not identities}


def test_shared_checks_match_the_per_level_references():
    ladders = _catalog_ladders([*range(4, 65), 256, 512])
    ladders += [lad for seed in range(3) for lad in random_pseudo_fundamental_ladders(seed, 100)]
    failed = collections.Counter()
    for lad in ladders:
        dense = _dense_levels(lad)
        # an empty elimination changes nothing: every level's state is the
        # one its stored level holds, and each step is stored where it is taken
        for lv in dense:
            held = lad.levels[_holder(lad, lv.i)]
            assert (lv.model, lv.E, lv.L) == (held.model, held.E, held.L)
            assert lv.delta == (held.delta if held.i == lv.i else Subscheme(()) if lv.i else None)
        assert not any(_checks_match_the_dense_reference(lad, dense).values())
        # the same ladder with one stored level moved, hence every level that
        # holds its state: L by a fiber, by enough fibers to meet sigma
        # negatively, or by the last exceptional class; or every point of
        # the step made transverse to its curve
        for k, held in enumerate(lad.levels):
            m = held.model
            fiber = m.fiber_class()
            moves = [fiber, (-m.intersect(held.L, m.curve_by_name("sigma").cls) - 1) * fiber]
            if m.exc_count:
                moves.append(DivisorClass((0, 0), (0,) * (m.exc_count - 1) + (1,)))
            for D in moves:
                bad = _with_level(lad, k, L=held.L + D)
                bad_dense = [
                    dataclasses.replace(lv, L=lv.L + D) if _holder(lad, lv.i) == k else lv
                    for lv in dense
                ]
                failed.update(name for name, f in _checks_match_the_dense_reference(bad, bad_dense).items() if f)
            if held.delta is not None:
                sub = Subscheme(tuple(
                    dataclasses.replace(p, k=1) if isinstance(p, OnCurveDatum) else p
                    for p in held.delta.points
                ))
                bad = _with_level(lad, k, delta=sub)
                bad_dense = [dataclasses.replace(lv, delta=sub) if lv.i == held.i else lv for lv in dense]
                failed.update(name for name, f in _checks_match_the_dense_reference(bad, bad_dense).items() if f)
    assert min(failed[name] for name in ("close", "levels", "local", "identities")) > 500, failed


def test_close_ladder_rejects_malformed_steps():
    lad = _entry_ladder(4, "C4")  # steps at levels 2 and 1
    step2, step1, bot = lad.levels

    def close(b, *levels):
        return close_ladder(lad.a, b, list(levels), bot.model, bot.E, bot.L)

    assert close(2, step2, step1) == lad
    for b, levels in (
        (2, (step1, step2)),  # not decreasing
        (2, (step2, step2)),  # repeated
        (1, (step2, step1)),  # above b
        (2, (step2, dataclasses.replace(step1, i=0))),  # at level 0
    ):
        with pytest.raises(StructuralError, match="is not inside"):
            close(b, *levels)
    with pytest.raises(StructuralError, match="empty subscheme stored at level 1"):
        close(2, step2, dataclasses.replace(step1, delta=Subscheme(())))


@pytest.mark.parametrize("level", [0, 4])
def test_build_ladder_rejects_a_step_outside_the_ladder(level):
    # type I at index 5 has length 3 and one step, at level 1
    top = _entry_ladder(5, "I").top
    with pytest.raises(StructuralError, match=f"step at level {level} is not inside 3..1"):
        build_ladder(5, top.model, top.E, 3, {level: Subscheme((OnCurveDatum("sigma", 1, 1),))})


@pytest.mark.parametrize("b", [0, 4, -1])
def test_a_ladder_length_outside_one_to_a_minus_one_is_refused(b):
    # E = 2 sigma on F_4 at a = 4: K+L and 2K+L are both nef, so at b = 0 the
    # top passed as fundamental while no descent certified the bottom
    F4 = SurfaceModel.hirzebruch(4)
    E = Divisor.from_dict({0: 2})
    with pytest.raises(StructuralError, match=f"ladder length {b} is not inside 1..3"):
        build_ladder(4, F4, E, b, {})
    with pytest.raises(StructuralError, match=f"ladder length {b} is not inside 1..3"):
        close_ladder(4, b, [], F4, E, F4.fundamental_class(4, E))


def test_certify_ladder_names_the_level_where_the_divisor_fails():
    # a = 5, b = 3 on F_2 with E = 4 sigma + l_1: the top passes, the sigma
    # point at level 3 leaves E effective (only the bottom fails), and an
    # l_1 point at level i gives its chain the coefficient 1 - (a - i) < 0.
    # The bottom pair is checked whatever failed above it.
    F, fiber = SurfaceModel.hirzebruch(2).add_fiber()
    E = Divisor.from_dict({0: 4, fiber.id: 1})
    on_sigma = Subscheme((OnCurveDatum("sigma", 1, 1),))
    on_fiber = Subscheme((OnCurveDatum("l_1", 1, 1),))
    bottom = ("bottom_effective", "bottom_coefficient_range", "bottom_orthogonality")
    assert certify_ladder(build_ladder(5, F, E, 3, {3: on_sigma})).failures == ("bottom_orthogonality",)
    lad = build_ladder(5, F, E, 3, {3: on_sigma, 2: on_fiber})
    assert certify_ladder(lad).failures == ("effectivity_level_1", *bottom)
    lad = build_ladder(5, F, E, 3, {2: on_fiber})
    assert certify_ladder(lad).failures == ("effectivity_level_1", *bottom)
    lad = build_ladder(5, F, E, 3, {3: on_fiber})
    assert certify_ladder(lad).failures == ("effectivity_level_2", *bottom)
    # with E = 0 on top the state at level b - 1 is zero, whatever lies below
    zero = Divisor.from_dict({})
    lad = build_ladder(5, F, zero, 3, {1: on_sigma})
    failures = certify_ladder(lad, require_fundamental=False).failures
    assert failures == ("top_divisor_not_effective", "nonzero_level_2", *bottom)


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
    pair = _pair(F4, Divisor.from_dict({0: 2}), a)
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
    g = pair.graph
    # the interior (-2)-curve of the double point's chain is contracted with
    # coefficient zero
    assert sorted(g.names) == ["Gamma_P1_1", "sigma"]
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
    lad = build_ladder(5, F, E, 3, {3: Subscheme((OnCurveDatum("sigma", 1, 2),))})
    assert local_lemma_checks(lad) == []

    F = SurfaceModel.hirzebruch(11)
    E = Divisor.from_dict({0: 5})
    lad = build_ladder(6, F, E, 3, {3: Subscheme((OnCurveDatum("sigma", 1, 2),))})
    assert any("2i = a+1" in v for v in local_lemma_checks(lad))


_NODE_RULE = "node on coefficient (3, 2) branches admits only"
_MULTIPLICITY_RULE = "point multiplicity 2 of the divisor is below 3"


@pytest.mark.parametrize(
    "datum, fired",
    [
        # C4 as built: sigma (coefficient 3) and l_1 (coefficient 2) meet at
        # the node, full contact 3 = m on the small branch l_1
        (NodeDatum(0, 1, 3, 3), None),
        (NodeDatum(0, 1, 2, 3), _NODE_RULE),  # contact 2 on the small branch
        (NodeDatum(0, 1, 3, 4), _NODE_RULE),  # m = 4
        (NodeDatum(1, 0, 1, 3), _NODE_RULE),  # branches swapped: contact 1 on l_1
        # Gamma_P1_1, the level-2 exceptional curve, has coefficient 0 here
        (NodeDatum(1, 2, 1, 1), _MULTIPLICITY_RULE),
        (NodeDatum(2, 1, 2, 2), _MULTIPLICITY_RULE),
        (OnCurveDatum(1, 2, 2), _MULTIPLICITY_RULE),
    ],
)
def test_local_checks_fire_the_multiplicity_and_level_one_node_rules(datum, fired):
    # C4 at a = 4 with its level-1 node replaced: each rule against the reference
    lad = _entry_ladder(4, "C4")
    step2, step1, _ = lad.levels
    assert step1.delta == Subscheme((NodeDatum(0, 1, 3, 3),))
    bad = build_ladder(4, lad.top.model, lad.top.E, lad.b, {2: step2.delta, 1: Subscheme((datum,))})
    violations = local_lemma_checks(bad)
    assert violations == _local_checks_per_level(bad.a, _dense_levels(bad))
    if fired:
        assert any(v.startswith(f"level 1: {fired}") for v in violations)
    else:
        assert violations == []


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


def test_value_types_are_slotted_and_stay_frozen():
    # the value types built on every descent and certificate carry no
    # __dict__, and slots leave every field as read-only as before
    lad = _entry_ladder(4, "C4")  # an on-curve point at level 2, a node at level 1
    top, below = lad.levels[0], lad.levels[1]
    points = top.delta.points + below.delta.points
    values = [
        top.L,
        top.model.curves[0],
        top.E,
        next(p for p in points if isinstance(p, OnCurveDatum)),
        next(p for p in points if isinstance(p, NodeDatum)),
        top.delta,
        top.elim.steps[0],
        top.elim,
        top,
        certify_ladder(lad),
        SearchCell(4, 5, 6, 26),
        lad.bottom_pair.graph,
    ]
    assert sorted(type(v).__name__ for v in values) == sorted(
        (
            "DivisorClass", "CurveRecord", "Divisor", "OnCurveDatum", "NodeDatum", "Subscheme",
            "EliminationStep", "EliminationResult", "LadderLevel", "CertificateReport",
            "SearchCell", "WeightedGraph",
        )
    )
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
        # a new attribute is refused as well: Python 3.11's slotted frozen
        # __setattr__ raises TypeError for a name that is not a field, and
        # without a __dict__ not even object.__setattr__ can add one
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            value.extra = 0
        with pytest.raises(AttributeError):
            object.__setattr__(value, "extra", 0)
    # the types with cached properties keep their __dict__
    for value in (lad, lad.bottom_pair, top.model):
        assert hasattr(value, "__dict__")
