from dataclasses import dataclass

import pytest

from delpezzo.elimination import (
    NodeDatum,
    OnCurveDatum,
    Subscheme,
    eliminate,
    node_coefficients,
    on_curve_coefficients,
    transform,
)
from delpezzo.lattice import Divisor, StructuralError, SurfaceModel


def test_chain_shape_on_curve():
    F4 = SurfaceModel.hirzebruch(4)
    res = eliminate(F4, Subscheme((OnCurveDatum("sigma", 2, 3),)))
    m = res.model
    (chain,) = res.chains
    assert [m.self_intersection(c) for c in chain] == [-2, -2, -1]
    # straight chain: consecutive curves meet, nothing else does
    assert m.intersection(chain[0], chain[1]) == 1
    assert m.intersection(chain[1], chain[2]) == 1
    assert m.intersection(chain[0], chain[2]) == 0
    # the host is attached below the contact position
    sigma = m.curve_by_name("sigma").id
    assert [m.intersection(sigma, c) for c in chain] == [0, 1, 0]
    assert res.relative_canonical().as_dict() == {chain[0]: 1, chain[1]: 2, chain[2]: 3}


def test_node_chain_attachments():
    F5 = SurfaceModel.hirzebruch(5)
    F5, l1 = F5.add_fiber()
    res = eliminate(F5, Subscheme((NodeDatum("sigma", "l_1", 3, 3),)))
    m = res.model
    (chain,) = res.chains
    sigma = m.curve_by_name("sigma").id
    fib = m.curve_by_name("l_1").id
    assert [m.intersection(sigma, c) for c in chain] == [1, 0, 0]
    assert [m.intersection(fib, c) for c in chain] == [0, 0, 1]
    assert m.intersection(sigma, fib) == 0


def test_degree_counts_blow_ups():
    F3 = SurfaceModel.hirzebruch(3)
    sub = Subscheme((OnCurveDatum("sigma", 1, 2), OnCurveDatum("sigma", 2, 3)))
    res = eliminate(F3, sub)
    assert sub.degree == 5
    assert res.model.exc_count == 5
    assert [len(c) for c in res.chains] == [2, 3]


def test_transform_on_curve_example():
    F6 = SurfaceModel.hirzebruch(6)
    res = eliminate(F6, Subscheme((OnCurveDatum("sigma", 2, 4),)))
    out = transform(Divisor.from_dict({0: 3}), res, 1)
    (chain,) = res.chains
    assert out.coeff(0) == 3
    assert [out.coeff(c) for c in chain] == [2, 4, 3, 2]


def test_transform_node_example():
    F5 = SurfaceModel.hirzebruch(5)
    F5, l1 = F5.add_fiber()
    res = eliminate(F5, Subscheme((NodeDatum("sigma", "l_1", 3, 3),)))
    out = transform(Divisor.from_dict({0: 3, l1.id: 2}), res, 3)
    (chain,) = res.chains
    assert out.coeff(0) == 3
    assert out.coeff(l1.id) == 2
    assert [out.coeff(c) for c in chain] == [2, 1, 0]


def test_transform_empty_subscheme_is_identity():
    F3 = SurfaceModel.hirzebruch(3)
    res = eliminate(F3, Subscheme(()))
    E = Divisor.from_dict({0: 7})
    assert transform(E, res, 5) == E


def test_relative_canonical_coefficient_is_position():
    F7 = SurfaceModel.hirzebruch(7)
    F7, l1 = F7.add_fiber()
    sub = Subscheme(
        (
            OnCurveDatum("sigma", 3, 5),
            NodeDatum("sigma", "l_1", 2, 4),
            OnCurveDatum("l_1", 1, 2),
        )
    )
    res = eliminate(F7, sub)
    kyx = res.relative_canonical().as_dict()
    for chain in res.chains:
        for pos, cid in enumerate(chain, start=1):
            assert kyx[cid] == pos


def test_closed_forms_match_tape_pullback_spot():
    # single-curve route, a couple of spot values away from the exhaustive run
    F9 = SurfaceModel.hirzebruch(9)
    res = eliminate(F9, Subscheme((OnCurveDatum("sigma", 3, 6),)))
    out = transform(Divisor.from_dict({0: 4}), res, 2)
    (chain,) = res.chains
    assert [out.coeff(c) for c in chain] == on_curve_coefficients(4, 2, 6, 3)


def test_invalid_data_rejected():
    F3 = SurfaceModel.hirzebruch(3)
    with pytest.raises(StructuralError):
        OnCurveDatum("sigma", 3, 2)
    with pytest.raises(StructuralError):
        NodeDatum("sigma", "l_1", 0, 2)
    with pytest.raises(StructuralError):
        eliminate(F3, Subscheme((OnCurveDatum("no_such_curve", 1, 1),)))


@dataclass(frozen=True)
class _NeitherKind:
    """Lists contacts like a datum, but is neither an on-curve point nor a node."""

    m: int = 1
    contacts: tuple = ((0, 1),)


def test_eliminate_refuses_a_point_of_neither_kind():
    F3 = SurfaceModel.hirzebruch(3)
    with pytest.raises(StructuralError, match="unknown local datum"):
        eliminate(F3, Subscheme((_NeitherKind(),)))


def test_node_requires_meeting_curves():
    F3 = SurfaceModel.hirzebruch(3)
    F3, l1 = F3.add_fiber()
    F3, l2 = F3.add_fiber()
    with pytest.raises(StructuralError):
        eliminate(F3, Subscheme((NodeDatum(l1.id, l2.id, 1, 1),)))


def test_closed_form_guards():
    with pytest.raises(StructuralError):
        on_curve_coefficients(1, 1, 2, 3)
    with pytest.raises(StructuralError):
        node_coefficients(1, 1, 1, 2, 0)


def _eliminate_reference(model, subscheme):
    """One branch per datum kind: the chain construction before ``eliminate``
    walked one loop for both."""
    chains, steps = [], []
    for datum in subscheme.points:
        tag = f"P{model.next_point_index}"
        model = model.blow_up_all((), 1)
        chain = []

        def blow(position, *through):
            nonlocal model
            model, rec = model.blow_up(*through, name=f"Gamma_{tag}_{position}")
            steps.append((through, rec.id))
            chain.append(rec.id)

        if isinstance(datum, OnCurveDatum):
            host = model.resolve(datum.curve)
            blow(1, host)
            for j in range(2, datum.k + 1):
                blow(j, chain[-1], host)
            for j in range(datum.k + 1, datum.m + 1):
                blow(j, chain[-1])
        else:
            c1, c2 = model.resolve(datum.curve1), model.resolve(datum.curve2)
            blow(1, c1, c2)
            for j in range(2, datum.k2 + 1):
                blow(j, chain[-1], c2)
            for j in range(datum.k2 + 1, datum.m + 1):
                blow(j, chain[-1])
        chains.append(tuple(chain))
    return model, tuple(chains), tuple(steps)


def _reference_cases():
    for m in range(1, 5):
        for k in range(1, m + 1):
            yield (OnCurveDatum("sigma", k, m),)
            yield (OnCurveDatum("l_1", k, m),)
            yield (NodeDatum("sigma", "l_1", k, m),)
            yield (NodeDatum("l_1", "sigma", k, m),)
    yield (NodeDatum("l_1", "sigma", 2, 3), OnCurveDatum("sigma", 2, 4))


def test_eliminate_matches_the_per_kind_reference():
    F3, _ = SurfaceModel.hirzebruch(3).add_fiber()
    F3 = F3.blow_up_all((), 2)
    for points in _reference_cases():
        sub = Subscheme(points)
        res = eliminate(F3, sub)
        model, chains, steps = _eliminate_reference(F3, sub)
        assert res.model.curves == model.curves, points
        assert res.model == model, points
        assert res.chains == chains, points
        assert [(s.incident, s.new_curve) for s in res.steps] == list(steps), points
