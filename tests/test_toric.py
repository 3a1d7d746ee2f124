from fractions import Fraction

import pytest

from delpezzo.catalog import entry_by_name, build_entry_ladder
from delpezzo.graphs import canonical_key
from delpezzo import toric
from delpezzo.toric import (
    Fan2D,
    FanError,
    anticanonical_square,
    exceptional_graph,
    gorenstein_index,
    hj_resolve,
    family_fan,
)


def _unimodular(fan):
    """True iff every cone of the fan is unimodular, i.e. the fan is smooth."""
    return all(v[0] * w[1] - v[1] * w[0] == 1 for v, w in fan.cones())


def test_fan_validation():
    with pytest.raises(FanError):
        Fan2D(((2, 0), (0, 1), (-1, -1)))  # non-primitive
    with pytest.raises(FanError):
        Fan2D(((1, 0), (-1, -1), (0, 1)))  # wrong cyclic order
    with pytest.raises(FanError):
        Fan2D(((1, 0), (0, 1)))  # not complete
    with pytest.raises(FanError):
        Fan2D(((1, 0), (0, 1), (1, 0)))  # repeated ray


def test_resolution_invariants_raise_fan_errors(monkeypatch):
    # the checks inside the resolution walk are errors, not asserts, so they
    # hold under python -O too
    monkeypatch.setattr(toric, "_ext_gcd", lambda a, b: (2, 1, 0))
    with pytest.raises(FanError):
        hj_resolve(family_fan("O", 5))


def test_ext_gcd_of_consecutive_fibonacci_numbers_takes_no_stack():
    # F_1502 and F_1501 (314 digits) take 1500 Euclid steps, more than the
    # default recursion limit of 1000 frames
    f0, f1 = 0, 1
    for _ in range(1501):
        f0, f1 = f1, f0 + f1
    assert len(str(f1)) == 314
    g, x, y = toric._ext_gcd(f1, f0)
    assert g == 1 and x * f1 + y * f0 == 1
    assert toric._ext_gcd(-12, 18) == (6, 1, 1) and toric._ext_gcd(0, -5) == (5, 0, -1)


def test_smooth_fan_has_no_insertions():
    p2 = Fan2D(((1, 0), (0, 1), (-1, -1)))
    res = hj_resolve(p2)
    assert res.inserted == ()
    assert _unimodular(p2)


def test_hirzebruch_fan_convention():
    # the section ray gets square -n, the opposite one +n, fibers 0
    for n in (0, 1, 2, 5):
        fan = Fan2D(((1, 0), (0, 1), (-1, n), (0, -1)))
        assert _unimodular(fan)
        si = hj_resolve(fan).self_intersections()
        assert si[(0, 1)] == -n
        assert si[(0, -1)] == n
        assert si[(1, 0)] == 0
        assert si[(-1, n)] == 0
        assert anticanonical_square(fan) == 8


@pytest.mark.parametrize("a", range(2, 11))
def test_family_one_resolution(a):
    res = hj_resolve(family_fan("I", a))
    assert res.inserted == ((0, -1),)
    d = res.discrepancies[(0, -1)]
    assert d == Fraction(-(a - 1), a)
    assert -a * d == a - 1
    assert res.self_intersections()[(0, -1)] == -2 * a


def test_weighted_plane_resolution():
    fan = family_fan("O", 4)
    res = hj_resolve(fan)
    assert res.inserted == ((0, -1),)
    assert res.discrepancies[(0, -1)] == Fraction(-3, 4)
    assert anticanonical_square(fan) == Fraction(25, 2)


def test_du_val_chain_walk():
    # the cone over (1,0), (1,5) is a chain of four (-2)-curves; the other
    # three cones of this fan are already smooth
    fan = Fan2D(((1, 0), (1, 5), (0, 1), (-1, -1)))
    res = hj_resolve(fan)
    assert res.inserted == ((1, 1), (1, 2), (1, 3), (1, 4))
    si = res.self_intersections()
    for r in res.inserted:
        assert si[r] == -2
        assert res.discrepancies[r] == 0
    assert gorenstein_index(fan) == 1


@pytest.mark.parametrize("a", range(2, 11))
def test_family_volumes(a):
    assert anticanonical_square(family_fan("O", a)) == Fraction(2 * a * a + 4 * a + 2, a)
    assert anticanonical_square(family_fan("I", a)) == Fraction(2 * a * a + 3 * a + 2, a)
    assert anticanonical_square(family_fan("II1", a)) == Fraction(2 * a * a + 2 * a + 2, a)
    assert anticanonical_square(family_fan("II2", a)) == Fraction(2 * a * a + 2 * a + 2, a)


def test_small_plane_quotient_volume():
    assert anticanonical_square(family_fan("P113", 3)) == Fraction(25, 3)
    assert gorenstein_index(family_fan("P113", 3)) == 3


@pytest.mark.parametrize("a", range(2, 11))
def test_family_indices(a):
    for family in ("O", "I", "II1", "II2"):
        assert gorenstein_index(family_fan(family, a)) == a


def test_index_equals_smallest_discrepancy_clearing():
    for family in ("O", "I", "II1", "II2"):
        for a in (2, 3, 4, 7):
            fan = family_fan(family, a)
            res = hj_resolve(fan)
            idx = gorenstein_index(fan)
            discs = list(res.discrepancies.values())
            for aa in range(1, idx):
                assert any((aa * d).denominator != 1 for d in discs)
            assert all((idx * d).denominator == 1 for d in discs)


def test_gorenstein_index_of_specific_cones():
    assert gorenstein_index(family_fan("O", 5)) == 5
    assert gorenstein_index(Fan2D(((1, 0), (0, 1), (-1, -1)))) == 1
    assert gorenstein_index(family_fan("II2", 4)) == 4


def test_resolution_minimality():
    for family, a in (("O", 4), ("I", 5), ("II1", 3), ("II2", 6)):
        res = hj_resolve(family_fan(family, a))
        for d in res.discrepancies.values():
            assert Fraction(-1) < d <= 0
        rays = list(res.fan.rays)
        for r in res.inserted:
            restricted = tuple(v for v in rays if v != r)
            assert not _unimodular(Fan2D(restricted))


@pytest.mark.parametrize("a", range(2, 11))
def test_exceptional_graphs_match_multiplet_descent(a):
    for family, entry_name in (("I", "I"), ("II1", "II_1"), ("II2", "II_2"), ("O", "O")):
        toric_side = exceptional_graph(family_fan(family, a), a)
        pair = build_entry_ladder(entry_by_name(a, entry_name), a, 0).bottom_pair
        assert canonical_key(toric_side) == canonical_key(pair.graph), (family, a)


def test_resolution_report_shape():
    rep = hj_resolve(family_fan("I", 4)).report_json(4)
    assert rep["inserted"] == [[0, -1]]
    assert rep["discrepancies"] == ["-3/4"]
    assert rep["relative_anticanonical_coefficients"] == ["3"]
    assert rep["index"] == 4
    assert rep["volume"] == "23/2"
