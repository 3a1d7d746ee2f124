"""Basic pairs, fundamental multiplets, and their certificates.

A basic pair of index candidate ``a`` is a nonsingular rational surface M
with a nonzero effective divisor E whose coefficients lie in 1..a-1 and
simple normal crossing support, such that the class L = -aK - E satisfies:
K+L is nef, (K+L.L) > 0, and (L.C) = 0 for every component C of E.
Contracting everything orthogonal to L produces a log del Pezzo surface
whose anticanonical pullback is L; its volume is (L^2)/a^2.

A fundamental multiplet of length b in 1..a-1 stores a top surface F_n, a
divisor E_b on it, and one curvilinear subscheme per level b..1; repeated
elimination descends it to a basic pair through
E_{i-1} = transform(E_i, a-i) and L_{i-1} = L_i - i.K_rel.  The descent is
what certifies that K+L_0 is nef.  An empty subscheme blows nothing up and
leaves (model, E, L) as they were, so a ladder stores only its nonempty
eliminations: a level without one holds the state of the nearest stored
level below it.  The machinery here descends ladders, certifies every
defining condition with exact integer arithmetic, evaluates the
intersection-number identities that tie the levels together, and computes
volumes and Gorenstein indices.  ``certify_survivor`` is the one certificate
of a surface, for ``classify`` and ``verify-type`` alike: seven checks in
order, up to the first that fails (the ladder certificate, volume at least
2a, index a, the identities, L0 nonnegative on every tracked curve, the
index certificate, the local checks).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .elimination import (
    EliminationResult,
    NodeDatum,
    OnCurveDatum,
    Subscheme,
    eliminate,
    transform,
)
from .graphs import WeightedGraph
from .lattice import Divisor, DivisorClass, StructuralError, SurfaceModel, base_nef


class InternalConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


@dataclass(frozen=True)
class BasicPair:
    model: SurfaceModel
    E0: Divisor
    a: int
    L0: DivisorClass

    # Built once per pair and shared by certificates, keys and JSON records.

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """L0.C for every tracked curve C, in id order."""
        model, L = self.model, self.L0
        return tuple(model.intersect(L, rec.cls) for rec in model.curves)

    @cached_property
    def graph(self) -> WeightedGraph:
        """Weighted dual graph of the contracted configuration.

        Its vertices are the tracked curves orthogonal to L0, exactly the
        curves contracted to singular points: the support of E plus any
        chains of discrepancy-zero (-2)-curves, which enter with
        coefficient 0.  Vertex weights are (self-intersection, coefficient
        in E).
        """
        support = tuple(c for c, d in enumerate(self.degrees) if d == 0)
        return self.model.dual_graph(support, self.E0.as_dict())

    @cached_property
    def divisor_graph(self) -> WeightedGraph:
        """Dual graph of E0's support, cut from ``graph``: on a certified
        pair that support is L0-orthogonal."""
        graph = self.graph
        return graph.induced([v for v, (_, c) in enumerate(graph.weights) if c])

    @cached_property
    def volume(self) -> Fraction:
        """(L0^2)/a^2, the bottom route of ``volume``."""
        return Fraction(self.model.intersect(self.L0, self.L0), self.a * self.a)

    @cached_property
    def index(self) -> int:
        return index_of(self)


@dataclass(frozen=True, slots=True)
class LadderLevel:
    i: int
    model: SurfaceModel
    E: Divisor
    L: DivisorClass
    delta: Subscheme | None  # nonempty subscheme eliminated at level i; None at level 0
    elim: EliminationResult | None


@dataclass(frozen=True)
class Ladder:
    """Descent of a multiplet of length b: its nonempty eliminations, top
    level first, then level 0.  The state at level b is that of
    ``levels[0]``, whatever its ``i``; a level with no step holds the state
    of the nearest stored level below it."""

    a: int
    b: int
    levels: tuple[LadderLevel, ...]

    @property
    def top(self) -> LadderLevel:
        return self.levels[0]

    @property
    def bottom(self) -> LadderLevel:
        return self.levels[-1]

    @cached_property
    def bottom_pair(self) -> BasicPair:
        """The basic pair at level 0; one object per ladder."""
        bot = self.bottom
        return BasicPair(bot.model, bot.E, self.a, bot.L)

    @cached_property
    def volume(self) -> Fraction:
        """The module-level ``volume`` of this ladder, computed once."""
        return volume(self)


def build_ladder(
    a: int,
    top_model: SurfaceModel,
    E_top: Divisor,
    b: int,
    steps: Mapping[int, Subscheme],
) -> Ladder:
    """Descend a multiplet of length b in 1..a-1 given as (top surface,
    divisor, steps).

    ``steps`` maps a level in b..1 to the nonempty subscheme eliminated
    there; every other level eliminates nothing.  Each subscheme may
    reference curves by id or by name against the model of its own level.
    The intermediate divisors are not tested here: ``certify_ladder``
    reports a divisor that turns non-effective or zero, and certifies
    nefness, along the descent.
    """
    model = top_model
    E = E_top
    L = model.fundamental_class(a, E)
    levels = []
    for i in sorted(steps, reverse=True):
        level, E, L = descend_step(a, i, model, E, L, steps[i])
        levels.append(level)
        model = level.elim.model
    return close_ladder(a, b, levels, model, E, L)


def descend_step(
    a: int, i: int, model: SurfaceModel, E: Divisor, L: DivisorClass, sub: Subscheme
) -> tuple[LadderLevel, Divisor, DivisorClass]:
    """Eliminate ``sub`` at level i: the level-i record, then E and L one level
    down (E_{i-1} = transform(E_i, a-i), L_{i-1} = L_i - i.K_rel) on the model
    ``level.elim.model``.  The one place a ladder is descended."""
    elim = eliminate(model, sub)
    level = LadderLevel(i, model, E, L, elim.subscheme, elim)
    return level, transform(E, elim, a - i), elim.transform_class(L, i)


def close_ladder(
    a: int, b: int, levels: list[LadderLevel], model: SurfaceModel, E: Divisor, L: DivisorClass
) -> Ladder:
    """Append level 0 to the descended steps of a length-b ladder.

    Every ladder passes through here.  Raises ``StructuralError`` unless b
    lies in 1..a-1 and the steps are nonempty with levels strictly
    decreasing inside b..1, and ``InternalConsistencyError`` unless the
    divisor-level and class-level transforms agree on every stored state.
    It certifies nothing else: ``certify_ladder`` checks the descent, the
    only certificate that K+L_0 is nef.
    """
    if not 1 <= b <= a - 1:
        raise StructuralError(f"ladder length {b} is not inside 1..{a - 1}")
    above = b + 1
    for lv in levels:
        if not 0 < lv.i < above:
            raise StructuralError(f"step at level {lv.i} is not inside {above - 1}..1")
        if lv.delta.is_empty():
            raise StructuralError(f"empty subscheme stored at level {lv.i}")
        above = lv.i
    ladder = Ladder(a, b, (*levels, LadderLevel(0, model, E, L, None, None)))
    for lv in ladder.levels:
        if lv.model.fundamental_class(a, lv.E) != lv.L:
            raise InternalConsistencyError("class of E and fundamental class disagree")
    return ladder


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CertificateReport:
    passed: bool
    failures: tuple[str, ...]


def certify_ladder(ladder: Ladder, *, require_fundamental: bool = True) -> CertificateReport:
    """Check every defining condition of a (pseudo-)fundamental multiplet;
    the one verdict on a ladder, whose length b lies in 1..a-1.

    Top level: the top surface must be minimal, F_n, and the tests run on
    the base coordinates (p, q) of L_b, whose shape is checked.  Since
    K = (-2, -(n+2)), jK+L_b = (p - 2j, q - (n+2)j).  bK+L_b must be nef
    by the closed criterion ``lattice.base_nef``; on F_1, whose minimal
    section is a (-1)-curve, (b+1)K+L_b = (p'', q'') must meet it
    nonnegatively, -n p'' + q'' >= 0; with ``require_fundamental``
    (b+1)K+L_b must also not be nef.  Each elimination step:
    the transformed divisor stays nonzero effective and meets L
    nonnegatively on its components.  Given that iK+L was nef one level up,
    that makes every jK+L with 0 <= j <= i nef below, all the way down; this
    descent is the only certificate that K+L_0 is nef.  Bottom:
    ``check_basic_pair``, whatever failed above, so a ladder rejected at
    the top still reports its bottom.

    The level checks run once per state below the top, named by the first
    level that holds it: b-1 for the top state when level b eliminates
    nothing, and i-1 for the state below a step at level i.
    """
    b = ladder.b
    failures = []

    top = ladder.top
    if top.model.exc_count != 0:
        failures.append("top_not_minimal")
    else:
        n = top.model.n
        top.model._check_class(top.L)
        p, q = top.L.base
        if not base_nef(n, p - 2 * b, q - (n + 2) * b):
            failures.append("top_nef")
        p, q = p - 2 * (b + 1), q - (n + 2) * (b + 1)  # now (b+1)K+L_b
        if require_fundamental and base_nef(n, p, q):
            failures.append("top_fundamental")
        if n == 1 and -n * p + q < 0:
            failures.append("top_minus_one_curve")

    if top.E.is_zero() or not top.E.is_effective():
        failures.append("top_divisor_not_effective")

    states = [(lv.i - 1, below) for lv, below in zip(ladder.levels, ladder.levels[1:])]
    if top.i < b:
        states.insert(0, (b - 1, top))
    for i, lv in states:
        if not lv.E.is_effective():
            failures.append(f"effectivity_level_{i}")
            break
        if lv.E.is_zero():
            failures.append(f"nonzero_level_{i}")
            break
        if any(lv.model.intersect(lv.L, lv.model.curve(c).cls) < 0 for c in lv.E.support):
            failures.append(f"nef_level_{i}")
            break

    failures.extend("bottom_" + f for f in check_basic_pair(ladder.bottom_pair).failures)

    return CertificateReport(not failures, tuple(failures))


def check_basic_pair(pair: BasicPair) -> CertificateReport:
    """Evaluate the basic-pair conditions other than nefness; failures are
    data, not errors.

    E nonzero and effective with coefficients in 1..a-1, (L.C) = 0 on every
    component of E, and (K+L.L) > 0, taken as K.L + L.L.  Nefness of K+L
    is not checked here: for a pair at the bottom of a ladder of length
    1..a-1 the descent certifies it, and ``certify_ladder`` checks the
    descent.  The simple-normal-crossing requirement holds for every
    configuration the point blow-ups can produce, so it is passed by
    construction.
    """
    model, E, a, L = pair.model, pair.E0, pair.a, pair.L0
    failures = []

    if E.is_zero():
        failures.append("nonzero")
    if not E.is_effective():
        failures.append("effective")
    bad = [v for _, v in E.items if not (1 <= v <= a - 1)]
    if bad:
        failures.append("coefficient_range")

    orth = [model.intersect(L, model.curve(c).cls) for c in E.support]
    if any(v != 0 for v in orth):
        failures.append("orthogonality")

    if model.intersect(model.canonical_class, L) + model.intersect(L, L) <= 0:
        failures.append("adjoint_positivity")

    return CertificateReport(not failures, tuple(failures))


# -- numerical invariants ----------------------------------------------------


def volume(ladder: Ladder) -> Fraction:
    """Anticanonical volume of the associated surface, as an exact rational.

    Computed from the top of the ladder and cross-checked against the bottom
    lattice; a mismatch means the engine itself is broken, so it raises.
    """
    top = ladder.top
    mk = -top.model.canonical_class
    weighted_degree = sum(lv.i * lv.delta.degree for lv in ladder.levels[:-1])
    primary = Fraction(top.model.intersect(mk, top.L) - weighted_degree, ladder.a)
    cross = ladder.bottom_pair.volume
    if primary != cross:
        raise InternalConsistencyError(f"volume mismatch: {primary} vs {cross}")
    return primary


def identities_check(ladder: Ladder) -> bool:
    """Re-verify the four intersection-number identities at every stored level.

    These are computed from raw lattice intersections on one side and from
    the subscheme degrees and contact orders on the other, independently of
    the bookkeeping used to build the ladder.  One bottom-up pass keeps
    running totals of the degree side over the subschemes at and below
    each level, contacts per curve included.  A level with no step holds
    the state of the stored level below it and adds nothing to the degree
    side, so it needs no check of its own.  All four tests are in integers,
    and (K0+L0).L0 is taken as K0.L0 + L0.L0, with no K0+L0 class.
    """
    a = ladder.a
    bot = ladder.bottom
    l0sq = bot.model.intersect(bot.L, bot.L)
    k0l0 = bot.model.intersect(bot.model.canonical_class, bot.L) + l0sq

    weighted = genus = linear = 0  # sums of j(a-j) deg, j(j-1) deg, j deg
    contacts: dict[int, int] = {}  # curve -> sum of j (contact) so far
    for lv in reversed(ladder.levels):
        if lv.delta is not None:
            j, d = lv.i, lv.delta.degree
            weighted += j * (a - j) * d
            genus += j * (j - 1) * d
            linear += j * d
            for p in lv.delta.points:
                for c, k in p.contacts:
                    contacts[c] = contacts.get(c, 0) + j * k

        # L.E is the sum of e_C (L.C), by bilinearity
        degrees = {c: lv.model.intersect(lv.L, lv.model.curve(c).cls) for c in lv.E.support}
        if sum(e * degrees[c] for c, e in lv.E.items) != weighted:
            return False

        k_dot_l = lv.model.intersect(lv.model.canonical_class, lv.L)
        if k_dot_l + lv.model.intersect(lv.L, lv.L) - k0l0 != genus:
            return False

        for cid, lc in degrees.items():
            if lc != contacts.get(cid, 0):
                return False

        if l0sq != a * (-k_dot_l - linear):
            return False
    return True


def index_of(pair: BasicPair) -> int:
    """Gorenstein index of the associated surface.

    Per connected component of the contracted locus the index contribution
    is a / gcd(a, coefficients of E on the component); components carrying
    only zero coefficients are canonical points of index one.  The overall
    index is the least common multiple.
    """
    a, g = pair.a, pair.graph
    return math.lcm(
        *(a // math.gcd(a, *(g.weights[v][1] for v in comp)) for comp in g.components())
    )


def certificate_index_is_a(pair: BasicPair) -> bool:
    """Sufficient index certificate: some component of E has self-intersection
    below -a, or a coefficient coprime to a."""
    model, a = pair.model, pair.a
    for c, v in pair.E0.items:
        if model.self_intersection(c) < -a or math.gcd(a, v) == 1:
            return True
    return False


# -- local structure checks ---------------------------------------------------


def local_lemma_checks(ladder: Ladder) -> list[str]:
    """Evaluate the local multiplicity and contact constraints level by level.

    Unconditional checks: the divisor multiplicity at every subscheme point
    is at least a-i, and the fundamental class meets each chain curve in i
    (for the (-1)-end) or 0 (for the (-2)-curves).  The conditional ones fire
    only when their hypotheses hold and then require the stated conclusions.
    Returns a list of human-readable violations, empty for valid ladders.
    Each step reads the state below it from the next stored level, and each
    point reads, from its ``contacts``, the (coefficient, contact) of every
    component of E through it.
    """
    a = ladder.a
    violations = []
    for lv, below in zip(ladder.levels, ladder.levels[1:]):
        i = lv.i
        below_empty = below.delta is None  # no step at levels i-1..1

        for chain in lv.elim.chains:
            for cid in chain:
                got = below.model.intersect(below.L, below.model.curve(cid).cls)
                want = i if below.model.self_intersection(cid) == -1 else 0
                if got != want:
                    violations.append(
                        f"level {i}: chain curve {below.model.curve(cid).name} meets L in {got}, expected {want}"
                    )

        for datum in lv.delta.points:
            comps = [(e, k) for c, k in datum.contacts if (e := lv.E.coeff(c)) > 0]
            mult = sum(e for e, _ in comps)
            if mult < a - i:
                violations.append(
                    f"level {i}: point multiplicity {mult} of the divisor is below {a - i}"
                )
            if isinstance(datum, OnCurveDatum) and len(comps) == 1:
                e = comps[0][0]
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
                small = [(e, k) for e, k in comps if 1 <= e <= 2]
                if small and any(e == a - 1 for e, _ in comps):  # a >= 4: not the small branch
                    e, k = small[0]
                    ok = e == 2 and k == datum.m and (a, datum.m) in ((5, 2), (4, 3))
                    if not ok:
                        violations.append(
                            f"level 1: node on coefficient ({a - 1}, {e}) branches admits only "
                            f"(a, m) in {{(5, 2), (4, 3)}} with full contact on the small branch"
                        )
    return violations


# -- the survivor certificate --------------------------------------------------


def certify_survivor(ladder: Ladder) -> dict[str, tuple[str, ...]]:
    """The one certificate of a surface of index a and volume at least 2a,
    for ``classify`` and ``verify-type``: runs ``checks`` in order up to the
    first that fails, and returns the checks that ran, each with its
    failures (empty when it passed).  The order matters: on a ladder that
    fails ``certify_ladder``, the cross-check in ``volume`` can raise.
    """
    a, pair = ladder.a, ladder.bottom_pair
    checks = (
        ("ladder", lambda: certify_ladder(ladder).failures),
        ("volume", lambda: () if ladder.volume >= 2 * a else (f"{ladder.volume} is below 2a = {2 * a}",)),
        ("index", lambda: () if pair.index == a else (f"{pair.index} is not a = {a}",)),
        ("identities", lambda: () if identities_check(ladder) else ("identity re-verification failed",)),
        ("degrees", lambda: tuple(
            f"fundamental class meets curve {rec.name} in {d}"
            for rec, d in zip(pair.model.curves, pair.degrees) if d < 0
        )),
        ("index_certificate", lambda: () if certificate_index_is_a(pair) else ("index certificate failed",)),
        ("local", lambda: tuple(f"local check failed at {v}" for v in local_lemma_checks(ladder))),
    )
    ran = {}
    for name, check in checks:
        ran[name] = failures = tuple(check())
        if failures:
            break
    return ran


# -- serialization -------------------------------------------------------------


def _datum_json(model: SurfaceModel, datum) -> dict:
    if isinstance(datum, OnCurveDatum):
        return {"kind": "on_curve", "curve": model.curve(datum.curve).name, "k": datum.k, "m": datum.m}
    return {
        "kind": "at_node",
        "curve1": model.curve(datum.curve1).name,
        "curve2": model.curve(datum.curve2).name,
        "k2": datum.k2,
        "m": datum.m,
    }


def ladder_json(ladder: Ladder, certificates: dict | None = None) -> dict:
    """JSON form of a descended multiplet: top data, subschemes, invariants.

    The record is read-only: every level without a step shares one empty
    list of deltas.
    """
    top = ladder.top
    pair = ladder.bottom_pair
    deltas = [[]] * ladder.b  # level i at b - i
    for lv in ladder.levels[:-1]:
        deltas[ladder.b - lv.i] = [_datum_json(lv.model, p) for p in lv.delta.points]
    out = {
        "a": ladder.a,
        "b": ladder.b,
        "base_n": top.model.n,
        "E_b": [
            {"curve": top.model.curve(c).name, "coeff": v} for c, v in top.E.items
        ],
        "deltas": deltas,
        "volume": str(ladder.volume),
        "index": pair.index,
        "E_0": [
            {"curve": pair.model.curve(c).name, "coeff": v, "self_intersection": pair.model.self_intersection(c)}
            for c, v in pair.E0.items
        ],
    }
    if certificates is not None:
        out["certificates"] = certificates
    return out
