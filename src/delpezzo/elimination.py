"""Curvilinear subschemes and their eliminations.

A zero-dimensional subscheme in which every point has order one sits on a
smooth local arc, so combinatorially a point of it is just a multiplicity
``m`` together with contact orders against the tracked curves through it.
Two kinds of local data cover everything this engine needs:

* ``OnCurveDatum(curve, k, m)``: a point on one tracked curve, meeting it
  with contact ``k`` (``1 <= k <= m``);
* ``NodeDatum(curve1, curve2, k2, m)``: a point at the node of two tracked
  curves, contact 1 along the first branch and ``k2`` along the second.

Each point lists its contacts, ``contacts``: ((curve, contact order), ...),
the host curve that its chain follows last.  The search, the elimination
and the certificates read only that list; the kinds differ only in the
paper's local rules and in their JSON fields.

A point on no tracked curve has no datum, because no certified ladder
holds one: eliminated at level i <= a-1, it gives the first curve of its
chain the coefficient -(a-i) < 0 in the transformed divisor, which is then
not effective.

The elimination of a subscheme blows the points up into straight chains:
``m`` blow-ups per point, the first ``k`` following the host curve, the
rest free on the last exceptional.  Each chain consists of (-2)-curves
ending in a single (-1)-curve, and the relative canonical divisor carries
coefficient ``i`` on the i-th chain curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Divisor, DivisorClass, StructuralError, SurfaceModel


@dataclass(frozen=True, slots=True)
class OnCurveDatum:
    curve: int | str
    k: int
    m: int

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.m):
            raise StructuralError(f"contact order must satisfy 1 <= k <= m, got k={self.k}, m={self.m}")

    @property
    def contacts(self) -> tuple[tuple[int | str, int], ...]:
        return ((self.curve, self.k),)


@dataclass(frozen=True, slots=True)
class NodeDatum:
    curve1: int | str
    curve2: int | str
    k2: int
    m: int

    def __post_init__(self) -> None:
        if not (1 <= self.k2 <= self.m):
            raise StructuralError(f"contact order must satisfy 1 <= k2 <= m, got k2={self.k2}, m={self.m}")

    @property
    def contacts(self) -> tuple[tuple[int | str, int], ...]:
        return ((self.curve1, 1), (self.curve2, self.k2))


LocalDatum = OnCurveDatum | NodeDatum


@dataclass(frozen=True, slots=True)
class Subscheme:
    points: tuple[LocalDatum, ...] = ()

    @property
    def degree(self) -> int:
        return sum(p.m for p in self.points)

    def is_empty(self) -> bool:
        return not self.points

    def contact(self, curve_id: int) -> int:
        """Total contact order against one tracked curve, summed over points."""
        return sum(k for p in self.points for c, k in p.contacts if c == curve_id)


@dataclass(frozen=True, slots=True)
class EliminationStep:
    incident: tuple[int, ...]  # tracked-curve ids through the centre
    new_curve: int  # id of the new exceptional curve record


@dataclass(frozen=True, slots=True)
class EliminationResult:
    """The blown-up model together with the chain bookkeeping.

    ``chains`` lists, per subscheme point, the curve ids of its exceptional
    chain in creation order (the last entry is the (-1)-curve).
    """

    model: SurfaceModel
    subscheme: Subscheme
    chains: tuple[tuple[int, ...], ...]
    steps: tuple[EliminationStep, ...]
    base_exc_count: int  # exceptional classes before the elimination

    def transform_class(self, cls: DivisorClass, s: int) -> DivisorClass:
        """Pull the class back and subtract ``s`` times the relative canonical
        class, which is the sum of the new exceptional classes."""
        if len(cls.base) != 2 or len(cls.exc) != self.base_exc_count:
            raise StructuralError(
                f"class of shape ({len(cls.base)},{len(cls.exc)}) does not live below "
                f"this elimination, of shape (2,{self.base_exc_count})"
            )
        return DivisorClass(cls.base, cls.exc + (-s,) * (self.model.exc_count - self.base_exc_count))

    def relative_canonical(self) -> Divisor:
        """The relative canonical divisor in terms of strict transforms: the
        transform of the zero divisor with s = -1, since each new curve
        carries 1 plus the coefficients of the curves through its centre."""
        return Divisor.from_dict(_push_through(self.steps, {}, -1))


def eliminate(model: SurfaceModel, subscheme: Subscheme) -> EliminationResult:
    """Realize the elimination of a curvilinear subscheme as a chain of point
    blow-ups per point.

    Points are processed in order, each through its ``contacts``: the first
    centre lies on the curves listed there, and the last entry names the
    host curve and its contact order k, so an on-curve point follows its
    curve and a node follows its second branch.
    Blow-ups 2..k sit at the node of the last exceptional curve with the
    host's strict transform; the remaining ones at general points of the
    last exceptional curve.  The centres of all points are listed first and
    blown up by one ``SurfaceModel.blow_up_all``, so each elimination builds
    one model and each curve class once.  The result's subscheme names its
    curves by id; a datum, or a whole subscheme, that already does is kept.
    """
    resolved = []
    plans = []  # (first centre, host, k, m) per point
    for datum in subscheme.points:
        if not isinstance(datum, (OnCurveDatum, NodeDatum)):
            raise StructuralError(f"unknown local datum {datum!r}")
        named = first = ()
        for c, k in datum.contacts:  # k ends as the host's contact, the last
            named += (c,)
            first += (model.resolve(c),)
        if first != named:  # both kinds take their curves first, then k and m
            datum = type(datum)(*first, k, datum.m)
        plans.append((first, first[-1], k, datum.m))
        resolved.append(datum)
    resolved = tuple(resolved)
    if resolved != subscheme.points:
        subscheme = Subscheme(resolved)

    centres = []  # (through, name) per blow-up, for one ``blow_up_all``
    chains: list[tuple[int, ...]] = []
    steps: list[EliminationStep] = []
    for index, (first, host, k, m) in enumerate(plans, model.next_point_index):
        chain: list[int] = []
        for j in range(1, m + 1):
            through = first if j == 1 else (chain[-1], host) if j <= k else (chain[-1],)
            new_id = len(model.curves) + len(centres)  # the id blow_up_all gives it
            centres.append((through, f"Gamma_P{index}_{j}"))
            steps.append(EliminationStep(through, new_id))
            chain.append(new_id)
        chains.append(tuple(chain))

    return EliminationResult(
        model.blow_up_all(centres, len(plans)),
        subscheme,
        tuple(chains),
        tuple(steps),
        model.exc_count,
    )


def transform(E: Divisor, result: EliminationResult, s: int) -> Divisor:
    """Transform a divisor through an elimination: pullback minus ``s`` times
    the relative canonical divisor.

    Coefficients on strict transforms persist.  A new exceptional curve
    takes the sum of the coefficients of the curves through its centre in
    the pullback, and 1 plus that sum in K_rel, so its transformed
    coefficient is the sum of the transformed coefficients through its
    centre, minus s: one integer pass over the steps, with no K_rel
    divisor.  Negative output coefficients are allowed, callers test
    effectivity.
    """
    return Divisor.from_dict(_push_through(result.steps, E.as_dict(), s))


def _push_through(
    steps: tuple[EliminationStep, ...], coeffs: dict[int, int], s: int
) -> dict[int, int]:
    """Give each step's new curve the sum of ``coeffs`` over the curves
    through its centre, minus s, in creation order; ``coeffs`` is updated
    in place and returned."""
    for step in steps:
        coeffs[step.new_curve] = sum(coeffs.get(c, 0) for c in step.incident) - s
    return coeffs


# Closed-form chain coefficients for the transform of a divisor supported on
# the curves through a single point.  These are the reference that
# ``test_option_shapes_match_the_coefficient_lists`` holds the enumerator's
# ``_on_curve_shapes`` and ``_node_shapes`` to, and that the transform tests
# compare the step-by-step arithmetic of ``transform`` against.


def on_curve_coefficients(e: int, s: int, m: int, k: int) -> list[int]:
    """Chain coefficients of ``(e C)^{Delta,s}`` for one point with contact k."""
    if not (1 <= k <= m):
        raise StructuralError("need 1 <= k <= m")
    return [i * (e - s) for i in range(1, k + 1)] + [e * k - s * i for i in range(k + 1, m + 1)]


def node_coefficients(e1: int, e2: int, s: int, m: int, k2: int) -> list[int]:
    """Chain coefficients of ``(e1 C1 + e2 C2)^{Delta,s}`` for one node point."""
    if not (1 <= k2 <= m):
        raise StructuralError("need 1 <= k2 <= m")
    return [i * (e2 - s) + e1 for i in range(1, k2 + 1)] + [
        e1 + k2 * e2 - i * s for i in range(k2 + 1, m + 1)
    ]
