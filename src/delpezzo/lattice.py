"""Picard lattices of blown-up Hirzebruch surfaces, with exact integer arithmetic.

A ``SurfaceModel`` is a Hirzebruch surface F_n blown up in a sequence of
points.  Divisor classes are integer vectors over the basis ``(sigma, l)``
plus one exceptional class per blow-up, in order; the intersection form is
``sigma^2 = -n, sigma.l = 1, l^2 = 0`` with exceptional classes of square
-1 orthogonal to everything else.  Blow-ups of the projective plane
never occur: the plane is excluded by arithmetic alone
(``enumerator.p1_plane_excluded``).

Curves are tracked symbolically, by incidence only.  Every tracked curve is
a smooth rational curve, two tracked curves meet transversally in at most
one point, and a blow-up centre is the tuple of tracked curves through it:
none (a general point), one (a general point of that curve) or two (their
node).  Under these conventions the divisor class of a strict transform
determines all intersection numbers, so no coordinates are ever needed.

An elimination blows up all its centres in one ``blow_up_all``, which
builds one model and each curve class once; a later centre may lie on a
curve that an earlier one made.  ``blow_up`` is its one-centre case.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .graphs import WeightedGraph


class StructuralError(ValueError):
    """Raised when lattice data from different or incompatible models meet."""


class InvalidPointError(StructuralError):
    """Raised for a blow-up centre that the incidence conventions forbid."""


def base_nef(n: int, p: int, q: int) -> bool:
    """The class p sigma + q l on F_n is nef iff p >= 0 and q >= n p: it
    meets sigma in q - n p and the fiber in p, and these span the cone of
    curves."""
    return p >= 0 and q >= n * p


@dataclass(frozen=True, slots=True)
class DivisorClass:
    """Integer vector in the lattice basis: base part plus exceptional part."""

    base: tuple[int, ...]
    exc: tuple[int, ...] = ()

    def _check_compatible(self, other: "DivisorClass") -> None:
        if len(self.base) != len(other.base) or len(self.exc) != len(other.exc):
            raise StructuralError(
                f"divisor classes live in different lattices: "
                f"({len(self.base)},{len(self.exc)}) vs ({len(other.base)},{len(other.exc)})"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_compatible(other)
        return DivisorClass(
            tuple(a + b for a, b in zip(self.base, other.base)),
            tuple(a + b for a, b in zip(self.exc, other.exc)),
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.base), tuple(-a for a in self.exc))

    def __rmul__(self, c: int) -> "DivisorClass":
        return DivisorClass(tuple(c * a for a in self.base), tuple(c * a for a in self.exc))

    __mul__ = __rmul__


@dataclass(frozen=True, slots=True)
class CurveRecord:
    """A tracked curve: opaque id, printable name, current strict-transform class."""

    id: int
    name: str
    cls: DivisorClass


@dataclass(frozen=True, slots=True)
class Divisor:
    """Formal integer combination of tracked curves, stored as sorted (id, coeff) pairs."""

    items: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_dict(coeffs: dict[int, int]) -> "Divisor":
        return Divisor(tuple(sorted((c, v) for c, v in coeffs.items() if v != 0)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)

    def coeff(self, curve_id: int) -> int:
        for c, v in self.items:
            if c == curve_id:
                return v
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.items)

    def is_effective(self) -> bool:
        return all(v >= 0 for _, v in self.items)

    def is_zero(self) -> bool:
        return not self.items

    def class_in(self, model: "SurfaceModel") -> DivisorClass:
        return model._add_curves(self, 1, [0, 0], [0] * model.exc_count)


@dataclass(frozen=True)
class SurfaceModel:
    """A Hirzebruch surface F_n blown up ``exc_count`` times, plus the table of
    tracked curves.

    Immutable; ``blow_up_all``, ``blow_up`` and ``add_fiber`` return new
    models.  Curve ids are indices into ``curves`` and stay valid in every
    later model.
    """

    n: int
    exc_count: int = 0
    curves: tuple[CurveRecord, ...] = ()
    next_point_index: int = 1

    @staticmethod
    def hirzebruch(n: int) -> "SurfaceModel":
        """F_n with the minimal section already tracked (named ``sigma``)."""
        if n < 0:
            raise StructuralError("Hirzebruch degree must be nonnegative")
        sigma = CurveRecord(0, "sigma", DivisorClass((1, 0)))
        return SurfaceModel(n, curves=(sigma,))

    # -- basic lattice data ------------------------------------------------

    def base_class(self, *coords: int) -> DivisorClass:
        if len(coords) != 2:
            raise StructuralError("wrong number of base coordinates")
        return DivisorClass(tuple(coords), (0,) * self.exc_count)

    def fiber_class(self) -> DivisorClass:
        return self.base_class(0, 1)

    def _check_class(self, *classes: DivisorClass) -> None:
        m = self.exc_count
        for d in classes:
            if len(d.base) != 2 or len(d.exc) != m:
                raise StructuralError(
                    f"class of shape ({len(d.base)},{len(d.exc)}) does not live on this "
                    f"model of shape (2,{m})"
                )

    def intersect(self, d1: DivisorClass, d2: DivisorClass) -> int:
        m = self.exc_count
        if len(d1.exc) != m or len(d2.exc) != m or len(d1.base) != 2 or len(d2.base) != 2:
            self._check_class(d1, d2)  # raises, naming the operand at fault
        (p1, q1), (p2, q2) = d1.base, d2.base
        return -self.n * p1 * p2 + p1 * q2 + q1 * p2 - sum(map(operator.mul, d1.exc, d2.exc))

    @cached_property
    def canonical_class(self) -> DivisorClass:
        """K = -2 sigma - (n+2) l + sum of the exceptional classes; one per model."""
        return DivisorClass((-2, -(self.n + 2)), (1,) * self.exc_count)

    def fundamental_class(self, a: int, E: "Divisor") -> DivisorClass:
        """The fundamental class -aK - [E], in one pass over E's curves."""
        return self._add_curves(E, -1, [2 * a, a * (self.n + 2)], [-a] * self.exc_count)

    def _add_curves(
        self, E: "Divisor", sign: int, base: list[int], exc: list[int]
    ) -> DivisorClass:
        """``(base, exc) + sign * [E]``, accumulated in place; each curve class
        is checked against this model once."""
        m = self.exc_count
        for c, v in E.items:
            cls = self.curve(c).cls
            if len(cls.exc) != m or len(cls.base) != 2:
                self._check_class(cls)  # raises
            v *= sign
            base[0] += v * cls.base[0]
            base[1] += v * cls.base[1]
            for j, x in enumerate(cls.exc):
                if x:
                    exc[j] += v * x
        return DivisorClass(tuple(base), tuple(exc))

    # -- tracked curves ----------------------------------------------------

    def curve(self, curve_id: int) -> CurveRecord:
        if 0 <= curve_id < len(self.curves):
            return self.curves[curve_id]
        raise StructuralError(f"no tracked curve with id {curve_id}")

    def self_intersection(self, curve_id: int) -> int:
        c = self.curve(curve_id).cls
        return self.intersect(c, c)

    def intersection(self, id1: int, id2: int) -> int:
        return self.intersect(self.curve(id1).cls, self.curve(id2).cls)

    def add_fiber(self) -> tuple["SurfaceModel", CurveRecord]:
        """Track one more fiber of F_n, named ``l_<k>`` for the k-th (all fibers
        are disjoint, each meets sigma once)."""
        k = sum(1 for r in self.curves if r.name.startswith("l_")) + 1
        rec = CurveRecord(len(self.curves), f"l_{k}", self.fiber_class())
        return (
            SurfaceModel(self.n, self.exc_count, self.curves + (rec,), self.next_point_index),
            rec,
        )

    def blow_up(self, *through: int, name: str | None = None) -> tuple["SurfaceModel", CurveRecord]:
        """Blow up the point through the tracked curves ``through``; returns the
        new model and the new exceptional curve.  The one-centre case of
        ``blow_up_all``."""
        model = self.blow_up_all(((through, name),), 0)
        return model, model.curves[-1]

    def blow_up_all(
        self, centres: Sequence[tuple[tuple[int, ...], str | None]], points: int
    ) -> "SurfaceModel":
        """Blow up the centres ``(through, name)`` in order, as one new model
        whose ``next_point_index`` is ``points`` further on.

        ``through`` lists the tracked curves through the centre: none means a
        general point, one a general point of that curve, two their node,
        which requires intersection number exactly one; blowing it up
        separates them.  The k-th centre makes the curve of id
        ``len(self.curves) + k``, named ``name`` or ``e_<its class index>``,
        and a later centre may lie on it.  Strict transforms of the curves
        through a centre drop by its exceptional class.  Each class is built
        once, at its final length.
        """
        m, count, new = self.exc_count, len(self.curves), len(centres)
        names = [f"e_{m + j + 1}" if name is None else name for j, (_, name) in enumerate(centres)]
        drops: dict[int, list[int]] = {}  # curve id -> the new classes it drops by

        def tail(c: int) -> list[int]:
            """The new exceptional part of curve c's class so far."""
            out = [0] * new
            if c >= count:
                out[c - count] = 1
            for j in drops.get(c, ()):
                out[j] = -1
            return out

        for j, (through, _) in enumerate(centres):
            for c in through:
                if not 0 <= c < count + j:
                    raise StructuralError(f"no tracked curve with id {c}")
            if len(through) > 2:
                raise InvalidPointError("a centre lies on at most two tracked curves")
            if len(through) == 2:
                c1, c2 = through
                if c1 == c2:
                    raise InvalidPointError("a node needs two distinct curves")
                meet = self.intersection(c1, c2) if max(c1, c2) < count else 0
                if meet - sum(map(operator.mul, tail(c1), tail(c2))) != 1:
                    n1, n2 = (self.curves[c].name if c < count else names[c - count] for c in through)
                    raise InvalidPointError(f"curves {n1} and {n2} do not meet in a single node")
            for c in through:
                drops.setdefault(c, []).append(j)

        zeros = (0,) * new
        curves = []
        for rec in self.curves:
            cls = rec.cls
            if len(cls.exc) != m or len(cls.base) != 2:
                self._check_class(cls)  # raises
            exc = cls.exc + (tuple(tail(rec.id)) if rec.id in drops else zeros)
            curves.append(CurveRecord(rec.id, rec.name, DivisorClass(cls.base, exc)))
        for j, name in enumerate(names):
            exc = (0,) * m + tuple(tail(count + j))
            curves.append(CurveRecord(count + j, name, DivisorClass((0, 0), exc)))
        return SurfaceModel(self.n, m + new, tuple(curves), self.next_point_index + points)

    # -- dual graphs ---------------------------------------------------------

    def dual_graph(
        self, support: tuple[int, ...] | list[int], coeffs: dict[int, int]
    ) -> WeightedGraph:
        """Dual graph of the tracked curves in ``support``, in id order, named
        and weighted by (self-intersection, coefficient in ``coeffs``)."""
        ids = sorted(set(support))
        edges = []
        for a, b in itertools.combinations(range(len(ids)), 2):
            v = self.intersection(ids[a], ids[b])
            if v not in (0, 1):
                raise StructuralError(
                    f"tracked curves {ids[a]} and {ids[b]} meet {v} times; "
                    "dual graphs need pairwise intersection 0 or 1"
                )
            if v == 1:
                edges.append((a, b))
        return WeightedGraph(
            tuple((self.self_intersection(c), coeffs.get(c, 0)) for c in ids),
            tuple(edges),  # (a, b) with a < b, in order
            tuple(self.curve(c).name for c in ids),
        )
