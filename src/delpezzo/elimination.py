"""Curvilinear subschemes and their eliminations.

A zero-dimensional subscheme in which every point has order one sits on a
smooth local arc, so combinatorially a point of it is just a multiplicity
``m`` together with contact orders against the tracked curves through it.
Two kinds of local data cover everything this engine needs:

* ``OnCurveDatum(curve, k, m)``: a point on one tracked curve, meeting it
  with contact ``k`` (``1 <= k <= m``);
* ``NodeDatum(curve1, curve2, k2, m)``: a point at the node of two tracked
  curves, contact 1 along the first branch and ``k2`` along the second.

A datum names curves only by id, in the model that its subscheme is
eliminated from.  Each point lists its contacts, ``contacts``: ((curve,
contact order), ...), the host curve that its chain follows last.  The
search, the elimination and the certificates read only that list; the
kinds differ only in the paper's local rules and in their JSON fields.

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
    curve: int
    k: int
    m: int

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.m):
            raise StructuralError(f"contact order must satisfy 1 <= k <= m, got k={self.k}, m={self.m}")

    @property
    def contacts(self) -> tuple[tuple[int, int], ...]:
        return ((self.curve, self.k),)


@dataclass(frozen=True, slots=True)
class NodeDatum:
    curve1: int
    curve2: int
    k2: int
    m: int

    def __post_init__(self) -> None:
        if not (1 <= self.k2 <= self.m):
            raise StructuralError(f"contact order must satisfy 1 <= k2 <= m, got k2={self.k2}, m={self.m}")

    @property
    def contacts(self) -> tuple[tuple[int, int], ...]:
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


@dataclass(frozen=True, slots=True)
class EliminationResult:
    """The blown-up model together with the chain bookkeeping.

    ``chains`` lists, per subscheme point, the curve ids of its exceptional
    chain in creation order (the last entry is the (-1)-curve).
    ``centres`` lists, per blow-up in creation order, the tracked-curve ids
    through its centre; the k-th blow-up (from 0) made the curve of id
    ``len(model.curves) - len(centres) + k``.
    """

    model: SurfaceModel
    chains: tuple[tuple[int, ...], ...]
    centres: tuple[tuple[int, ...], ...]

    def transform_class(self, cls: DivisorClass, s: int) -> DivisorClass:
        """Pull the class back and subtract ``s`` times the relative canonical
        class, which is the sum of the new exceptional classes."""
        below = self.model.exc_count - len(self.centres)
        if len(cls.base) != 2 or len(cls.exc) != below:
            raise StructuralError(
                f"class of shape ({len(cls.base)},{len(cls.exc)}) does not live below "
                f"this elimination, of shape (2,{below})"
            )
        return DivisorClass(cls.base, cls.exc + (-s,) * len(self.centres))


def eliminate(model: SurfaceModel, subscheme: Subscheme) -> EliminationResult:
    """Realize the elimination of a curvilinear subscheme as a chain of point
    blow-ups per point.

    Points are processed in order, each through its ``contacts``: the first
    centre lies on the curves listed there, and the last entry names the
    host curve and its contact order k, so an on-curve point follows its
    curve and a node follows its second branch.  Every curve a point names
    must be a curve of ``model``, not one that the elimination makes.
    Blow-ups 2..k sit at the node of the last exceptional curve with the
    host's strict transform; the remaining ones at general points of the
    last exceptional curve.  The centres of all points are listed first and
    blown up by one ``SurfaceModel.blow_up_all``, so each elimination builds
    one model and each curve class once.
    """
    count = len(model.curves)
    centres = []  # (through, name) per blow-up, for one ``blow_up_all``
    chains: list[tuple[int, ...]] = []
    for index, datum in enumerate(subscheme.points, model.next_point_index):
        if not isinstance(datum, (OnCurveDatum, NodeDatum)):
            raise StructuralError(f"unknown local datum {datum!r}")
        first = tuple(c for c, _ in datum.contacts)
        for c in first:
            if not (isinstance(c, int) and 0 <= c < count):
                raise StructuralError(f"no tracked curve with id {c!r}")
        host, k = datum.contacts[-1]
        chain: list[int] = []
        for j in range(1, datum.m + 1):
            through = first if j == 1 else (chain[-1], host) if j <= k else (chain[-1],)
            chain.append(count + len(centres))  # the id blow_up_all gives it
            centres.append((through, f"Gamma_P{index}_{j}"))
        chains.append(tuple(chain))

    return EliminationResult(
        model.blow_up_all(centres, len(chains)),
        tuple(chains),
        tuple(through for through, _ in centres),
    )


def transform(E: Divisor, result: EliminationResult, s: int) -> Divisor:
    """Transform a divisor through an elimination: pullback minus ``s`` times
    the relative canonical divisor.

    Coefficients on strict transforms persist.  A new exceptional curve
    takes the sum of the coefficients of the curves through its centre in
    the pullback, and 1 plus that sum in K_rel, so its transformed
    coefficient is the sum of the transformed coefficients through its
    centre, minus s: one integer pass over the centres, with no K_rel
    divisor.  Negative output coefficients are allowed, callers test
    effectivity.
    """
    coeffs = E.as_dict()
    first = len(result.model.curves) - len(result.centres)
    for new_curve, through in enumerate(result.centres, first):
        coeffs[new_curve] = sum(coeffs.get(c, 0) for c in through) - s
    return Divisor.from_dict(coeffs)


# Closed-form chain coefficients for the transform of a divisor supported on
# the curves through a single point.  These are the reference that
# ``test_option_shapes_match_the_coefficient_lists`` holds the enumerator's
# ``_node_shapes`` to, for both kinds of point, and that the transform tests
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
