"""Complete fans in Z^2: minimal resolutions, discrepancies, volumes, indices.

Everything is exact: rays are primitive integer vectors, discrepancies and
volumes are ``Fraction``s.  The minimal resolution of a two-dimensional cone
inserts exactly the lattice points on the bounded part of the boundary of
the convex hull of the nonzero lattice points of the cone; the walk below
produces them one at a time, always taking the primitive vector that spans
a unimodular cone with the current left edge and is as close to it as
possible.

Self-intersections in a smooth complete fan follow the relation
``v_{i-1} + v_{i+1} = c_i v_i`` with ``(D_i^2) = -c_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import WeightedGraph


class FanError(ValueError):
    pass


def _det(v: tuple[int, int], w: tuple[int, int]) -> int:
    return v[0] * w[1] - v[1] * w[0]


def _angular_key(v: tuple[int, int]) -> tuple:
    """Total order on primitive directions, counterclockwise from (1, 0)."""
    x, y = v
    half = 0 if (y > 0 or (y == 0 and x > 0)) else 1
    if y == 0:
        return (half, 0, Fraction(0))
    return (half, 1, Fraction(-x, y))


@dataclass(frozen=True)
class Fan2D:
    """A complete fan, given by its cyclically ordered primitive rays."""

    rays: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.rays) < 3:
            raise FanError("a complete fan needs at least three rays")
        for v in self.rays:
            if math.gcd(v[0], v[1]) != 1:
                raise FanError(f"ray {v} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise FanError("repeated ray")
        for v, w in self.cones():
            if _det(v, w) <= 0:
                raise FanError(f"rays {v}, {w} are not positively oriented")
        # Positive consecutive determinants make each angular step less than a
        # half turn; a single full sweep is equivalent to the cyclic order
        # agreeing with the angular order.
        start = min(range(len(self.rays)), key=lambda i: _angular_key(self.rays[i]))
        rot = self.rays[start:] + self.rays[:start]
        if list(rot) != sorted(rot, key=_angular_key):
            raise FanError("rays do not sweep the plane exactly once")

    def cones(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        return [
            (self.rays[i], self.rays[(i + 1) % len(self.rays)])
            for i in range(len(self.rays))
        ]


def _resolve_cone(v: tuple[int, int], w: tuple[int, int]) -> list[tuple[int, int]]:
    """Rays inserted by the minimal resolution of the cone <v, w>.

    Repeatedly find the primitive u with det(v, u) = 1 lying in the cone and
    minimizing det(u, w); that u is the next lattice point on the hull
    boundary, and det(u, w) strictly drops, so the walk terminates.
    """
    inserted = []
    while _det(v, w) > 1:
        d = _det(v, w)
        # Solve det(v, u) = 1; solutions form u0 + t v.
        g, x, y = _ext_gcd(v[0], v[1])
        if g != 1:
            raise FanError(f"ray {v} is not primitive: gcd {g}")
        u0 = (-y, x)  # det(v, u0) = v_x x + v_y y = 1
        t_val = _det(u0, w)
        # Shift into the window 1 <= det(u, w) <= d.
        t = -((t_val - 1) // d)
        u = (u0[0] + t * v[0], u0[1] + t * v[1])
        if not (_det(v, u) == 1 and 1 <= _det(u, w) < d):
            raise FanError(f"inserted ray {u} is not the next boundary point of <{v}, {w}>")
        inserted.append(u)
        v = u
    return inserted


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x a + y b.

    One loop over the Euclid steps on (a, b), keeping the Bezout
    coefficients of the last two remainders, so no input runs out of stack.
    """
    x0, y0, x1, y1 = 1, 0, 0, 1  # (a, b) is (x0 A + y0 B, x1 A + y1 B) for the inputs (A, B)
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    sign = 1 if a >= 0 else -1
    return (sign * a, sign * x0, sign * y0)


@dataclass(frozen=True)
class ResolvedFan:
    """Minimal smooth refinement of a fan, with per-ray discrepancies."""

    original: Fan2D
    fan: Fan2D
    inserted: tuple[tuple[int, int], ...]  # the inserted rays, in fan order
    discrepancies: dict[tuple[int, int], Fraction]

    def self_intersections(self) -> dict[tuple[int, int], int]:
        rays = self.fan.rays
        out = {}
        for i, r in enumerate(rays):
            prev = rays[(i - 1) % len(rays)]
            nxt = rays[(i + 1) % len(rays)]
            out[r] = -_det(prev, nxt)
        return out

    def report_json(self, a: int) -> dict:
        discs = [self.discrepancies[r] for r in self.inserted]
        return {
            "inserted": [list(r) for r in self.inserted],
            "discrepancies": [f"{d.numerator}/{d.denominator}" for d in discs],
            "index": gorenstein_index(self.original),
            "volume": str(anticanonical_square(self.original)),
            "relative_anticanonical_coefficients": [str(-a * d) for d in discs],
        }


def hj_resolve(fan: Fan2D) -> ResolvedFan:
    """Minimal smooth refinement of a complete fan with discrepancy data.

    The discrepancy of an inserted ray u written as u = p v + q w over its
    cone is p + q - 1, always in (-1, 0] for two-dimensional cones.
    """
    new_rays: list[tuple[int, int]] = []
    inserted = []
    discrepancies: dict[tuple[int, int], Fraction] = {}
    for v, w in fan.cones():
        new_rays.append(v)
        chain = _resolve_cone(v, w)
        inserted.extend(chain)
        for u in chain:
            p, q = _barycentric(u, v, w)
            disc = p + q - 1
            if not (Fraction(-1) < disc <= 0):
                raise FanError(f"discrepancy {disc} of {u} out of range")
            discrepancies[u] = disc
            new_rays.append(u)
    return ResolvedFan(fan, Fan2D(tuple(new_rays)), tuple(inserted), discrepancies)


def _barycentric(
    u: tuple[int, int], v: tuple[int, int], w: tuple[int, int]
) -> tuple[Fraction, Fraction]:
    d = _det(v, w)
    p = Fraction(_det(u, w), d)
    q = Fraction(_det(v, u), d)
    if (p * v[0] + q * w[0], p * v[1] + q * w[1]) != (u[0], u[1]):
        raise FanError(f"barycentric coordinates of {u} in <{v}, {w}> do not reproduce it")
    return p, q


def anticanonical_square(fan: Fan2D) -> Fraction:
    """Self-intersection of the anticanonical class of the toric surface.

    Pull the anticanonical class back to the minimal resolution, where the
    coefficient of an inserted ray is one plus its discrepancy, and square
    with the smooth intersection form.
    """
    res = hj_resolve(fan)
    rays = res.fan.rays
    n = len(rays)
    coeff = [Fraction(1) + res.discrepancies.get(r, Fraction(0)) for r in rays]
    selfint = res.self_intersections()
    total = Fraction(0)
    for i in range(n):
        total += coeff[i] * coeff[i] * selfint[rays[i]]
        j = (i + 1) % n
        total += 2 * coeff[i] * coeff[j]
    return total


def gorenstein_index(fan: Fan2D) -> int:
    """Smallest positive integer a such that a times the canonical class is Cartier.

    Per cone the supporting linear functional taking value -1 on both rays is
    rational; the index is the least common multiple of its denominators.
    The same number is the smallest a clearing all resolution discrepancies
    to integers, which ``tests`` assert independently.
    """
    result = 1
    for v, w in fan.cones():
        d = _det(v, w)
        # Solve m . v = -1, m . w = -1 by Cramer's rule.
        mx = Fraction(-w[1] + v[1], d)
        my = Fraction(-v[0] + w[0], d)
        result = math.lcm(result, mx.denominator, my.denominator)
    return result


_FAMILIES = ("O", "I", "II1", "II2", "P113")


def family_fan(family: str, a: int) -> Fan2D:
    """The published toric models: ray lists of the five reference families."""
    if a < 2:
        raise FanError("family fans need a >= 2")
    if family == "O":
        rays = [(1, 0), (0, 1), (-1, -2 * a)]
    elif family == "I":
        rays = [(1, 0), (0, 1), (-1, -2 * a + 1), (-1, -2 * a)]
    elif family == "II1":
        rays = [(1, 0), (0, 1), (-1, -2 * a + 2), (-1, -2 * a)]
    elif family == "II2":
        rays = [(1, 0), (0, 1), (-1, -2 * a + 2), (-1, -2 * a + 1), (1, -1)]
    elif family == "P113":
        rays = [(1, 0), (0, 1), (-1, -3)]
    else:
        raise FanError(f"unknown family {family!r}; expected one of {_FAMILIES}")
    return Fan2D(tuple(rays))


def exceptional_graph(fan: Fan2D, a: int) -> WeightedGraph:
    """Weighted dual graph of the resolution's exceptional configuration.

    Vertices are the inserted rays, weighted by (self-intersection in the
    resolution, coefficient in -a times the relative canonical divisor);
    edges join rays that are adjacent in the resolved fan.
    """
    res = hj_resolve(fan)
    rays = res.fan.rays
    selfint = res.self_intersections()
    index = {r: i for i, r in enumerate(res.inserted)}
    weights = []
    for r in res.inserted:
        coeff = -a * res.discrepancies[r]
        if coeff.denominator != 1:
            raise FanError(f"-{a}K is not Cartier along {r}")
        weights.append((selfint[r], int(coeff)))
    edges = set()
    n = len(rays)
    for i in range(n):
        r, s = rays[i], rays[(i + 1) % n]
        if r in index and s in index:
            edges.add((min(index[r], index[s]), max(index[r], index[s])))
    return WeightedGraph.build(weights, sorted(edges))
