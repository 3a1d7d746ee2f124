import dataclasses
import itertools
import random

import pytest

from delpezzo.catalog import build_entry_ladder, catalog_entries
from delpezzo.elimination import OnCurveDatum, Subscheme, eliminate
from delpezzo.enumerator import random_pseudo_fundamental_ladders
from delpezzo.lattice import (
    CurveRecord,
    Divisor,
    DivisorClass,
    InvalidPointError,
    StructuralError,
    SurfaceModel,
    base_nef,
)


def test_hirzebruch_form():
    F4 = SurfaceModel.hirzebruch(4)
    s = F4.base_class(1, 0)
    l = F4.fiber_class()
    assert F4.intersect(s, s) == -4
    assert F4.intersect(s, l) == 1
    assert F4.intersect(l, l) == 0


def test_form_example_on_f8():
    # expand by hand: (2s+10l).(6s+48l) = 12 s^2 + (2*48 + 10*6) s.l = -96 + 156
    F8 = SurfaceModel.hirzebruch(8)
    mk = -1 * F8.canonical_class
    assert mk == F8.base_class(2, 10)
    assert F8.intersect(mk, F8.base_class(6, 48)) == 60


def test_canonical_classes():
    F10 = SurfaceModel.hirzebruch(10)
    assert F10.canonical_class == F10.base_class(-2, -12)

    F5 = SurfaceModel.hirzebruch(5)
    F5b, _ = F5.blow_up()
    K = F5b.canonical_class
    assert F5b.intersect(K, K) == 7


def test_blow_up_on_curve():
    F4 = SurfaceModel.hirzebruch(4)
    model, e1 = F4.blow_up(0)
    assert model.self_intersection(0) == -5
    assert model.self_intersection(e1.id) == -1
    assert model.intersection(0, e1.id) == 1


def test_blow_up_node_separates():
    F5 = SurfaceModel.hirzebruch(5)
    F5, l1 = F5.add_fiber()
    assert F5.intersection(0, l1.id) == 1
    model, e1 = F5.blow_up(0, l1.id)
    assert model.intersection(0, l1.id) == 0
    assert model.intersection(0, e1.id) == 1
    assert model.intersection(l1.id, e1.id) == 1


@pytest.mark.parametrize("a", [2, 3, 4, 5, 6])
def test_blow_up_on_minimal_section(a):
    model = SurfaceModel.hirzebruch(2 * a - 1)
    model, _ = model.blow_up(0)
    assert model.self_intersection(0) == -2 * a


def test_node_requires_intersection():
    F2 = SurfaceModel.hirzebruch(2)
    F2, l1 = F2.add_fiber()
    F2, l2 = F2.add_fiber()
    with pytest.raises(InvalidPointError):
        F2.blow_up(l1.id, l2.id)
    with pytest.raises(InvalidPointError):
        F2.blow_up(0, 0)


def test_blow_up_rejects_three_curves_and_unknown_ids():
    F2 = SurfaceModel.hirzebruch(2)
    F2, l1 = F2.add_fiber()
    F2, e1 = F2.blow_up(0, l1.id)
    with pytest.raises(InvalidPointError, match="at most two"):
        F2.blow_up(0, l1.id, e1.id)
    for through in ((7,), (0, 7), (7, 0)):
        with pytest.raises(StructuralError, match="no tracked curve with id 7"):
            F2.blow_up(*through)


def test_negative_curve_ids_are_unknown():
    # a negative id must not index the curve table from its end
    F2, _ = SurfaceModel.hirzebruch(2).add_fiber()
    with pytest.raises(StructuralError, match="no tracked curve with id -1"):
        F2.curve(-1)
    with pytest.raises(StructuralError, match="no tracked curve with id -1"):
        F2.blow_up(-1)
    with pytest.raises(StructuralError, match="no tracked curve with id -2"):
        eliminate(F2, Subscheme((OnCurveDatum(-2, 1, 1),)))


def test_basis_mismatch_is_structural():
    # F_2 with one blow-up and with two: their classes live in different
    # lattices; ``bad`` has a base part of the wrong rank
    short, _ = SurfaceModel.hirzebruch(2).blow_up(0)
    long, _ = short.blow_up()
    s, bad = short.base_class(1, 0), DivisorClass((1,), (0,))
    for x in (long.base_class(1, 0), bad):
        for d1, d2 in ((s, x), (x, s)):
            with pytest.raises(StructuralError):
                short.intersect(d1, d2)
            with pytest.raises(StructuralError):
                d1 + d2
    # a curve table that does not belong to the model
    E = Divisor.from_dict({0: 2})
    for tape, curves in ((short, long.curves), (long, short.curves), (short, (CurveRecord(0, "x", bad),))):
        mixed = dataclasses.replace(tape, curves=curves)
        with pytest.raises(StructuralError):
            E.class_in(mixed)
        with pytest.raises(StructuralError):
            mixed.fundamental_class(3, E)
    elim = eliminate(short, Subscheme((OnCurveDatum(0, 1, 2),)))
    for cls in (long.base_class(1, 0), elim.model.base_class(1, 0), bad):
        with pytest.raises(StructuralError):
            elim.transform_class(cls, 1)


def test_intersection_symmetric_bilinear():
    rng = random.Random(20240817)
    model = SurfaceModel.hirzebruch(3)
    for _ in range(3):
        model, _ = model.blow_up()
    for _ in range(200):
        def rand_cls():
            return DivisorClass(
                (rng.randint(-9, 9), rng.randint(-9, 9)),
                tuple(rng.randint(-9, 9) for _ in range(3)),
            )

        x, y, z = rand_cls(), rand_cls(), rand_cls()
        c = rng.randint(-4, 4)
        assert model.intersect(x, y) == model.intersect(y, x)
        assert model.intersect(x + z, y) == model.intersect(x, y) + model.intersect(z, y)
        assert model.intersect(c * x, y) == c * model.intersect(x, y)


def test_canonical_square_drops_by_one_per_blow_up():
    rng = random.Random(7)
    model = SurfaceModel.hirzebruch(6)
    model, l1 = model.add_fiber()
    expect = 8
    for step in range(6):
        K = model.canonical_class
        assert model.intersect(K, K) == expect
        choices = [(), (0,), (l1.id,)]
        model, rec = model.blow_up(*rng.choice(choices))
        assert model.self_intersection(rec.id) == -1
        expect -= 1


def test_strict_transform_bookkeeping():
    # self-intersection of a tracked curve drops once per centre on it
    model = SurfaceModel.hirzebruch(3)
    model, l1 = model.add_fiber()
    hits = 0
    for k in range(4):
        model, _ = model.blow_up(0)
        hits += 1
        assert model.self_intersection(0) == -3 - hits
    assert model.self_intersection(l1.id) == 0
    model, _ = model.blow_up(0, l1.id)
    assert model.self_intersection(0) == -3 - 5
    assert model.self_intersection(l1.id) == -1


def test_nef_criterion_on_fn():
    assert base_nef(3, 2, 6)
    assert not base_nef(3, 2, 5)
    assert not base_nef(3, -1, 5)


def test_divisor_arithmetic():
    d = Divisor.from_dict({0: 2, 3: -1})
    assert not d.is_effective()
    assert Divisor.from_dict({0: 2, 3: 0}).is_effective()
    assert Divisor.from_dict({}).is_zero()


def test_dual_graph_single_curve():
    F2 = SurfaceModel.hirzebruch(2)
    g = F2.dual_graph([0], {})
    assert g.names == ("sigma",)
    assert g.weights == ((-2, 0),)
    assert g.edges == ()


def test_dot_output_is_stable():
    F2 = SurfaceModel.hirzebruch(2)
    F2, l1 = F2.add_fiber()
    g1 = F2.dual_graph([0, l1.id], {0: 1, l1.id: 2})
    g2 = F2.dual_graph([l1.id, 0], {l1.id: 2, 0: 1})
    assert g1.to_dot() == g2.to_dot()
    assert 'label="sigma\\n(s=-2, c=1)"' in g1.to_dot()
    assert "v0 -- v1;" in g1.to_dot()


def test_induced_graph_is_the_dual_graph_of_the_kept_curves():
    # cutting a contracted graph to some of its vertices, renumbered in
    # order, gives the dual graph of those curves, names and edges included
    checked = 0
    for a in range(4, 9):
        for entry in catalog_entries(a):
            for idx in range(len(entry.configs)):
                pair = build_entry_ladder(entry, a, idx).bottom_pair
                ids = [c for c, d in enumerate(pair.degrees) if d == 0]
                coeffs = pair.E0.as_dict()
                for r in range(len(ids) + 1):
                    for keep in itertools.combinations(range(len(ids)), r):
                        want = pair.model.dual_graph([ids[k] for k in keep], coeffs)
                        assert pair.graph.induced(list(keep)) == want
                        checked += bool(want.edges) and keep[0] > 0
    assert checked  # some kept edge sits past a dropped vertex


def test_dual_graph_rejects_curves_meeting_twice():
    # two tracked curves of class (1,1) on F_0 meet in two points
    bidegree = DivisorClass((1, 1))
    F0 = SurfaceModel(0, curves=(CurveRecord(0, "c_1", bidegree), CurveRecord(1, "c_2", bidegree)))
    assert F0.intersection(0, 1) == 2
    with pytest.raises(StructuralError, match="meet 2 times"):
        F0.dual_graph([0, 1], {0: 1, 1: 1})


# The chain-of-``+`` forms the one-pass kernel replaced, kept as references.


def _exc(model, *js):
    """The class of the sum of the exceptional curves E_j, j in js."""
    return DivisorClass((0, 0), tuple(int(j in js) for j in range(model.exc_count)))


def _class_in_by_chain(E, model):
    cls = _exc(model)
    for c, v in E.items:
        cls = cls + v * model.curve(c).cls
    return cls


def _canonical_by_chain(model):
    cls = model.base_class(-2, -(model.n + 2))
    for j in range(model.exc_count):
        cls = cls + _exc(model, j)
    return cls


def _relative_canonical_by_chain(elim):
    cls = _exc(elim.model)
    for j in range(elim.model.exc_count - len(elim.centres), elim.model.exc_count):
        cls = cls + _exc(elim.model, j)
    return cls


def test_one_pass_kernel_matches_the_chain_arithmetic():
    ladders = [
        build_entry_ladder(entry, a, idx)
        for a in range(4, 13)
        for entry in catalog_entries(a)
        for idx in range(len(entry.configs))
    ]
    ladders += random_pseudo_fundamental_ladders(0, 100)
    assert len(ladders) > 100
    for lad in ladders:
        for lv in lad.levels:
            m, E, a = lv.model, lv.E, lad.a
            assert m.canonical_class == _canonical_by_chain(m)
            assert E.class_in(m) == _class_in_by_chain(E, m)
            want = -a * _canonical_by_chain(m) + -1 * _class_in_by_chain(E, m)
            assert m.fundamental_class(a, E) == want == lv.L
            if lv.elim is not None:
                rel = _relative_canonical_by_chain(lv.elim)
                zeros = (0,) * (lv.elim.model.exc_count - m.exc_count)  # the pullback
                for cls, s in ((lv.L, lv.i), (m.canonical_class, 1), (m.base_class(1, 0), -2)):
                    pulled = DivisorClass(cls.base, cls.exc + zeros)
                    assert lv.elim.transform_class(cls, s) == pulled + -s * rel


def _eliminations():
    """(model below, subscheme, elimination) of every step of the catalog
    ladders at a = 4..12 and of the fuzz ladders of seed 0."""
    ladders = [
        build_entry_ladder(entry, a, idx)
        for a in range(4, 13)
        for entry in catalog_entries(a)
        for idx in range(len(entry.configs))
    ]
    ladders += random_pseudo_fundamental_ladders(0, 100)
    return [(lv.model, lv.delta, lv.elim) for lad in ladders for lv in lad.levels if lv.elim is not None]


def test_batched_blow_up_matches_the_incidence():
    # every elimination builds its model in one ``blow_up_all``; the
    # intersection numbers must be those that the centres' incidence dictates
    eliminations = _eliminations()
    assert len(eliminations) > 100
    for below, sub, elim in eliminations:
        above = elim.model
        K0, K1 = below.canonical_class, above.canonical_class
        assert above.intersect(K1, K1) == below.intersect(K0, K0) - sub.degree
        for rec in below.curves:
            drop = sum(k for p in sub.points for c, k in p.contacts if c == rec.id)
            assert above.self_intersection(rec.id) == below.self_intersection(rec.id) - drop
        for chain in elim.chains:
            assert [above.self_intersection(c) for c in chain] == [-2] * (len(chain) - 1) + [-1]


def test_batched_blow_up_rejects_a_node_of_curves_that_do_not_meet():
    # the third centre pairs the second exceptional curve with a fiber it
    # does not meet; the first two centres are a valid start of a chain
    F3, l1 = SurfaceModel.hirzebruch(3).add_fiber()
    e1, e2 = len(F3.curves), len(F3.curves) + 1
    centres = [((0,), "g_1"), ((e1, 0), "g_2"), ((e2, l1.id), "g_3"), ((), "g_4")]
    assert F3.blow_up_all(centres[:2], 1).intersection(e2, 0) == 1
    with pytest.raises(InvalidPointError, match="curves g_2 and l_1 do not meet in a single node"):
        F3.blow_up_all(centres, 1)
    with pytest.raises(InvalidPointError, match="curves e_2 and sigma do not meet in a single node"):
        F3.blow_up_all([((0,), None), ((e1,), None), ((e2, 0), None)], 0)
