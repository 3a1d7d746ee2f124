"""Pruned exhaustive search for index-a surfaces of volume at least 2a.

The search space is organised in cells.  Writing the fundamental class on
the top Hirzebruch surface F_n as ``h0 sigma + h l``, a cell is a tuple
(a, n, h0, h); the divisor on top is then ``(2a - h0) sigma`` plus fibers of
total multiplicity ``(n+2)a - h``, and the per-curve intersection numbers
give exact budgets that every admissible stack of subschemes must consume
precisely.  Cells are cut down by exact integer inequalities: whole ranges
of h0 and n die by ``length_zero``, ``small_multiple_region``,
``large_multiple_volume`` and the n-cap, and each remaining cell gets a
verdict from one rule table, ``_rules`` (``window``,
``coefficient_persistence``, ``volume``, ``section_budget``,
``sigma_budget``, ``unresolved_sections``).  ``generate_cells`` kills the
rows h0 >= a + 2 in O(sqrt a) blocks of equal n-cap; on the other rows it
kills the windows that ``volume`` claims whole as one block and takes the
few others from the table piece by piece; ``audit`` re-derives every
verdict one (n, h0) window at a time.  The cells
with no verdict run a depth-first search over ladder states, one per
prefix of nonempty eliminations: the empty subscheme changes nothing, so a
state walks its own levels down in place and pushes a child state for each
nonempty subscheme of each level, drawn against one degree allowance.
Every configuration that reaches the bottom is certified from scratch:
effectivity and nefness down the ladder, the basic-pair conditions, exact
volume, exact Gorenstein index, and the intersection identities on an
independent code path.

Candidates are deduplicated by a canonical form: the weighted dual graph of
the contracted configuration together with (a, volume, index).  Isomorphic
surfaces have isomorphic minimal resolutions, hence equal keys.  A catalog
configuration takes the key of the survivor with its recipe; one that no
survivor has is reported missing (none at any index tested).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

from .catalog import _partitions, catalog_entries, entry_recipe, top_model
from .elimination import NodeDatum, OnCurveDatum, Subscheme
from .graphs import canonical_key
from .lattice import Divisor, DivisorClass, SurfaceModel
from .multiplet import (
    BasicPair,
    InternalConsistencyError,
    Ladder,
    LadderLevel,
    certificate_index_is_a,
    certify_ladder,
    close_ladder,
    descend_step,
    identities_check,
    ladder_json,
)

# Not called here; perfbench/test_perfbench.py reads enumerator.build_ladder and .eliminate.
from .elimination import eliminate
from .multiplet import build_ladder

_CONFIG_CAP = 2_000_000
# Attempts (turns of the draw loop) per ``random_pseudo_fundamental_ladders``
# call before it returns what it has; 1000 ladders take 4,136-4,526 on seeds
# 0, 1, 2 and 4242, of which 2,788-3,042 get past ``cell_verdict``.
_FUZZ_ATTEMPT_CAP = 200_000
# A sweep at the cap takes 4.5-5.3 s, 1.1-1.3 us per (n, h0) window of the
# sweep (a = 4, 28 and 512; Python 3.11, one core of a 2-core x86-64 host),
# of which it reads little more than half: the rows h0 <= a whole, the rest
# up to their first empty window.
AUDIT_WINDOW_CAP = 1 << 22
# Every level without a step shares one empty delta list, but the JSON text
# still has b (about a / 2) delta entries for each of the twelve survivors,
# so JSON time and memory grow with a: measured cold on one core (Python
# 3.11), 2 s and 75 MB at the cap, against 0.2 s and 30 MB for the text
# report.  A sparse JSON record, which lists only the nonempty levels, would
# let the cap rise.
CLASSIFY_INDEX_CAP = 1 << 18


class SearchExplosion(RuntimeError):
    """Raised when a cell's search exceeds the configuration cap."""


# -- canonical form -----------------------------------------------------------


def canonical_form(pair: BasicPair) -> str:
    """Canonical key of a basic pair: contracted-configuration graph plus
    (a, volume, index).  Equal keys mean isomorphic weighted graphs and
    equal numerical invariants."""
    vol, gkey = pair.volume, canonical_key(pair.graph)
    return f"a={pair.a}|v={vol.numerator}/{vol.denominator}|i={pair.index}|g={gkey}"


# -- pruning predicates --------------------------------------------------------


def _level_below(a: int, w: int) -> int:
    """Where the walk ``while j and j * (a - j) > w: j -= 1`` stops, for a j
    in 0..a that fails the test: the largest j' with j'(a - j') <= w below
    the peak a / 2, or 0.  There (a - 2j')^2 >= a^2 - 4w, so a - 2j' is at
    least the ceiling of the square root."""
    return max(0, (a - isqrt(a * a - 4 * w - 1) - 1) // 2)


# Bounded so a long-lived process cannot grow it without limit; one cold
# classify(a) fills 26 entries (10 hits) at a = 512, 4096 and 65,536, and
# classify(4..32) in one process 841 (332 hits), so no single run evicts.
@lru_cache(maxsize=1 << 16)
def _degrees_feasible(a: int, levels: int, weighted: int, cap: int) -> bool:
    """Does some degree vector (d_1..d_levels) satisfy
    sum j(a-j) d_j = weighted with sum j d_j <= cap?

    Walks the states (level, weighted left, cap left) from an explicit
    stack, so the depth is not bounded by the recursion limit.
    """
    stack = [(levels, weighted, cap)]
    seen = set()
    while stack:
        j, w, c = stack.pop()
        if w == 0:
            return True
        if w < 0 or c <= 0:
            continue
        if j * (a - j) > w:
            j = _level_below(a, w)  # the levels between can only take d_j = 0
        if j == 0 or (j, w, c) in seen:
            continue
        seen.add((j, w, c))
        unit = j * (a - j)
        for d in range(min(w // unit, c // j) + 1):
            stack.append((j - 1, w - unit * d, c - j * d))
    return False


def p1_plane_excluded(a: int) -> bool:
    """No candidate lives over the projective plane.

    With L = h * line, the length and volume bounds confine h to
    ceil(2a^2/3) <= h <= 3a - 1, where the length b = h // 3 lies in
    1..a-1, the allowance 3h - 2a^2 and the weighted-degree budget
    h(3a - h) are nonnegative, and the budget admits no degree vector within
    the allowance.  From a = 5 on that window is empty.
    """
    lo = -((-2 * a * a) // 3)  # ceil(2a^2/3)
    return not any(
        _degrees_feasible(a, h // 3, h * (3 * a - h), 3 * h - 2 * a * a) for h in range(lo, 3 * a)
    )


def p2_multiple_range(a: int, h0: int) -> bool:
    return 1 <= h0 <= 2 * a - 1


def p4_length(h0: int) -> int:
    return h0 // 2


def _volume_cap(a: int, n: int, h0: int, h: int) -> int:
    """Largest allowed sum of j * deg(Delta_j) for volume at least 2a."""
    return -n * h0 + 2 * h0 + 2 * h - 2 * a * a


def _rules(a: int, n: int, h0: int) -> tuple[tuple[str, int, int], ...]:
    """The kill rules of the window n h0 <= h <= (n + 2) a, h0 >= 1, in order.

    An entry (name, lo, hi) kills every h of the window with lo <= h < hi;
    a cell takes the name of the first entry that kills it.

    ``window``: L must be nef and big on top, the divisor effective, and
    the adjoint multiple b K + L nef on the base.  For h0 <= a the sigma
    coefficient 2a - h0 of the top divisor persists to the bottom, where
    coefficients are capped at a - 1, so the excess must be carried by extra
    sections; each section consumes n fiber units of the divisor class and
    carries an orthogonality budget of at least h
    (``coefficient_persistence``, ``section_budget``: the budget h exceeds the
    allowance).  The volume allowance ``_volume_cap`` must be nonnegative
    (``volume``) and must cover the sigma budget h - n h0 (``sigma_budget``).
    A cell whose divisor could hold a section other than sigma, with n fiber
    units and an orthogonality budget of at least h inside the allowance, is
    outside the search model (``unresolved_sections``).  The two rules that
    need h0 <= a get empty intervals otherwise.

    ``generate_cells`` relies on one property of the table: the windows
    n >= 2 that ``volume`` claims whole are a prefix of n, because for
    h0 > a the first three entries are empty there and ``volume`` starts at
    n h0, and for h0 <= a ``coefficient_persistence`` claims the end of
    every window n >= 1
    (``test_volume_claims_whole_windows_on_a_prefix_of_each_row``).  Every
    other window it takes from ``_verdict_pieces``, so no bound needs to be
    affine in n.
    """
    lo, top = n * h0, (n + 2) * a + 1
    b = h0 // 2
    c0 = _volume_cap(a, n, h0, 0)  # the allowance at h is c0 + 2h
    return (
        ("window", lo, n * h0 // 2 + 1),
        ("window", lo, (n + 2) * b + n * (h0 - 2 * b)),
        ("coefficient_persistence", 2 * a + n * (h0 - 1) + 1 if h0 <= a else top, top),
        ("volume", lo, -(c0 // 2)),
        ("section_budget", lo, -c0 if h0 <= a else lo),
        ("sigma_budget", lo, -c0 - n * h0),
        ("unresolved_sections", -c0, top - n),
    )


def _first_rule(rules, h: int) -> str | None:
    for name, lo, hi in rules:
        if lo <= h < hi:
            return name
    return None


def cell_verdict(a: int, n: int, h0: int, h: int) -> str | None:
    """Name of the first rule of ``_rules`` that kills the cell (h0 >= 1),
    or ``window`` outside n h0 <= h <= (n + 2) a, or None."""
    if not n * h0 <= h <= (n + 2) * a:
        return "window"
    return _first_rule(_rules(a, n, h0), h)


def _verdict_pieces(a: int, n: int, h0: int) -> list[tuple[int, int, str | None]]:
    """The pieces (start, stop, verdict) that tile the window
    n h0 <= h <= (n + 2) a, sorted by start.

    The rules of ``_rules`` paint the window in table order: each claims
    the part of the window still unclaimed that lies in its [lo, hi), and
    whatever no rule claims gets verdict None.  So ``verdict`` is that of
    ``cell_verdict`` at every h in range(start, stop).  Neighbouring pieces
    may share a verdict.
    """
    lo, top = n * h0, (n + 2) * a + 1
    if lo >= top:
        return []
    free, pieces = [(lo, top)], []
    for name, r_lo, r_hi in _rules(a, n, h0):
        if r_lo >= r_hi:
            continue
        left = []
        for start, stop in free:
            s = r_lo if r_lo > start else start
            e = r_hi if r_hi < stop else stop
            if s < e:
                pieces.append((s, e, name))
                if start < s:
                    left.append((start, s))
                if e < stop:
                    left.append((e, stop))
            else:
                left.append((start, stop))
        free = left
        if not free:
            break
    # A plain loop, not a comprehension: on Python 3.11 each evaluation of a
    # comprehension builds a function object and a frame, and ``free`` is
    # empty in nearly every window that audit reads.
    for start, stop in free:
        pieces.append((start, stop, None))
    pieces.sort()  # the pieces are disjoint, so no two starts tie
    return pieces


def p5_region_killed(a: int) -> bool:
    """All cells with h0 <= a die, uniformly in n: inside the persistence
    window, (2 - n) h0 + h <= 2 h0 + 2a - n <= 4a < 2a^2."""
    return 4 * a < 2 * a * a


def p6_large_multiple_kill(a: int, n: int, h0: int) -> bool:
    """Volume bound for h0 >= a + 2: even with the largest admissible degree
    the anticanonical volume stays below 2a."""
    if h0 < a + 2:
        return False
    return n * (2 * a - h0) + 2 * h0 + 4 * a < 2 * a * a


def p7_degree_cap(a: int, h0: int) -> int:
    """Largest n compatible with a nef and big fundamental class when h0 > a."""
    if h0 <= a:
        raise ValueError("degree cap applies to h0 > a only")
    return (2 * a) // (h0 - a)


# -- cells ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SearchCell:
    a: int
    n: int
    h0: int
    h: int


def _normalization_active(a: int, n: int, h0: int, h: int) -> bool:
    # Top subscheme kept off sigma whenever b K + L_b is a nonzero multiple
    # of the fiber class; the replacement trick behind this needs it non-big
    # and nontrivial, which for n >= 2 is exactly that shape.
    b = p4_length(h0)
    return h0 == 2 * b and h != (n + 2) * b and n >= 2


def generate_cells(a: int) -> tuple[list[SearchCell], dict[str, int]]:
    """Cells surviving the closed-form predicates, plus kill statistics.

    Rows h0 = 2..a die as one block when ``p5_region_killed`` holds.  Rows
    h0 = a + k, 1 <= k <= a - 1, come in O(sqrt a) blocks of equal n-cap
    2a // k.  At fixed n the left side of ``p6_large_multiple_kill`` is
    affine in h0 and grows with n, so if p6 holds at the cap on a block's
    two end rows it kills the whole block.  Every other row is walked on
    its own (from a = 5 on, only h0 = a + 1, where p6 never holds): p6
    holds on a prefix of n, found by a forward scan, and from n = 2 on the
    windows that ``volume`` claims whole are one block, found by walking
    down from the n-cap.  The few windows outside both are taken piece by
    piece from ``_verdict_pieces``, with h one by one only where the
    verdict is None.  Cells, kill counts and the order in which kill
    reasons first appear are those of a per-h sweep.
    """
    killed: dict[str, int] = {}
    cells = []

    def kill(reason: str, count: int) -> None:
        killed[reason] = killed.get(reason, 0) + count

    def emit(n: int, h0: int, pieces) -> None:
        for start, stop, reason in pieces:
            if reason:
                kill(reason, stop - start)
            else:
                cells.extend(SearchCell(a, n, h0, h) for h in range(start, stop))

    def row(h0: int, n_hi: int) -> None:
        # p6 holds on a prefix n < n_lo of the row: its left side grows with n
        n_lo = next((n for n in range(n_hi + 1) if not p6_large_multiple_kill(a, n, h0)), n_hi + 1)
        if n_lo:
            kill("large_multiple_volume", n_lo)
        # For h0 > a and n >= 2 both window rules end at or below n h0 and
        # coefficient_persistence is empty, so volume is the first rule and
        # starts at the window's start n h0.  Each step of n raises volume's
        # end -(c0 // 2) by at most ceil(h0 / 2) <= a and the window's end
        # (n + 2) a + 1 by exactly a, so the windows that volume claims whole
        # are a prefix n_vol..top of n >= 2, killed as one block.  For
        # h0 <= a coefficient_persistence claims the end of every window
        # n >= 1, so no window is one volume piece and the walk down takes
        # the whole row.
        n_vol = max(n_lo, 2)
        for n in range(n_lo, n_vol):
            emit(n, h0, _verdict_pieces(a, n, h0))
        top, tail = n_hi, []
        while top >= n_vol:
            pieces = _verdict_pieces(a, top, h0)
            if pieces == [(top * h0, (top + 2) * a + 1, "volume")]:
                break
            tail.append(pieces)
            top -= 1
        if top >= n_vol:  # each window n holds n (a - h0) + 2a + 1 cells
            kill("volume", (top - n_vol + 1) * ((n_vol + top) * (a - h0) + 4 * a + 2) // 2)
        for n in range(top + 1, n_hi + 1):
            emit(n, h0, tail.pop())

    region_killed = p5_region_killed(a)
    if not region_killed:
        kill("small_multiple_region_open", 1)
    kill("length_zero", 1)  # h0 = 1
    if region_killed:
        kill("small_multiple_region", a - 1)
    else:
        for h0 in range(2, a + 1):
            row(h0, 2 * a)
    k = 1
    while k < a:
        cap = p7_degree_cap(a, a + k)
        last = min(a - 1, 2 * a // cap)  # the last k with this cap
        if p6_large_multiple_kill(a, cap, a + k) and p6_large_multiple_kill(a, cap, a + last):
            kill("large_multiple_volume", (cap + 1) * (last - k + 1))
        else:
            for h0 in range(a + k, a + last + 1):
                row(h0, cap)
        k = last + 1
    return cells, killed


# -- the per-cell search ---------------------------------------------------------


@dataclass
class CellOutcome:
    cell: SearchCell
    survivors: list[dict] = field(default_factory=list)
    configs: int = 0
    candidates: int = 0
    rejected: dict = field(default_factory=dict)
    known: dict = field(default_factory=dict)  # survivor recipe (``entry_recipe``) -> key


def _on_curve_shapes(a: int, s: int, e: int, m_cap: int, k_cap: int):
    """Yield the (m, k), k <= min(m, k_cap) and m <= m_cap, for which every
    coefficient of ``on_curve_coefficients(e, s, m, k)`` lies in 0..a-1, in
    (m, k) order.

    With s >= 1 the coefficients climb by e - s up to the k-th, k(e - s),
    then fall by s to the last, e k - s m; so e >= s, k(e - s) <= a - 1 and
    e k >= s m say it all.  The last one also stops m at e k_top // s.
    """
    if e < s:
        return
    k_top = min(k_cap, (a - 1) // (e - s)) if e > s else k_cap
    for m in range(1, min(m_cap, e * k_top // s) + 1):
        for k in range(-(-s * m // e), min(m, k_top) + 1):
            yield m, k


def _node_shapes(a: int, s: int, e1: int, e2: int, m_cap: int, k_cap: int):
    """Yield the (m, k2), k2 <= min(m, k_cap) and m <= m_cap, for which every
    coefficient of ``node_coefficients(e1, e2, s, m, k2)`` lies in 0..a-1,
    in (m, k2) order.  The caller passes a pair whose first coefficient,
    e1 + e2 - s, lies in 0..a-1, as ``_node_pairs`` does.

    With s >= 1 the coefficients move by e2 - s from the first to the k2-th,
    e1 + k2(e2 - s), then fall by s to the last, e1 + k2 e2 - s m; so the
    k2-th lies in 0..a-1 and the last is nonnegative.  The last bounds the
    k2-th from below, as m >= k2, and stops m at (e1 + k_cap e2) // s.
    """
    if e2 > s:
        k_cap = min(k_cap, (a - 1 - e1) // (e2 - s))
    for m in range(1, min(m_cap, (e1 + k_cap * e2) // s) + 1):
        need = s * m - e1  # the last coefficient is k2 e2 - need; need > 0 needs e2 > 0
        k_lo = -(-need // e2) if need > 0 else 1
        for k2 in range(k_lo, min(m, k_cap) + 1):
            yield m, k2


def _node_pairs(model, coeff: dict[int, int], a: int, s: int) -> list[tuple[int, int]]:
    """The ordered pairs (C1, C2) of tracked curves that meet in a node whose
    first chain coefficient e1 + e2 - s lies in 0..a-1, sorted; ``coeff``
    holds E's nonzero coefficients.

    With s >= 1 that needs a curve of E's support, so the scan starts there
    and computes each intersection number at most once.
    """
    pairs = []
    for c1, e1 in coeff.items():
        for rec in model.curves:
            e2 = coeff.get(rec.id, 0)
            if (c1 < rec.id or not e2) and 0 <= e1 + e2 - s < a:
                if model.intersection(c1, rec.id) == 1:
                    pairs += [(c1, rec.id), (rec.id, c1)]
    return sorted(pairs)


def _datum_options(model, E, i, a, m_cap, caps, forbid_sigma):
    """All admissible single-point data at this level, canonically ordered,
    each as (datum, node pair or None, spend).

    Effectivity of the transformed divisor and the coefficient cap a-1
    (coefficients persist to the bottom) are enforced through the closed
    chain-coefficient bounds of ``_on_curve_shapes`` and ``_node_shapes``.
    ``spend`` lists the contacts the datum takes from each divisor
    component, ((curve, contact), ...); component C takes at most
    ``caps[C]`` contacts in all, its exact orthogonality allowance L.C
    divided by i.  Points away from every tracked curve are never
    admissible: their leading chain coefficient would be negative.
    """
    s = a - i
    coeff = dict(E.items)
    sigma = model.curve_by_name("sigma").id if forbid_sigma else None
    options = []
    for cid, e in E.items:
        if cid != sigma:
            for m, k in _on_curve_shapes(a, s, e, m_cap, caps[cid]):
                options.append((OnCurveDatum(cid, k, m), None, ((cid, k),)))

    for c1, c2 in _node_pairs(model, coeff, a, s):
        if sigma in (c1, c2) or caps.get(c1, 1) < 1:  # c1 takes one contact
            continue
        pair = frozenset((c1, c2))
        shapes = _node_shapes(a, s, coeff.get(c1, 0), coeff.get(c2, 0), m_cap, caps.get(c2, m_cap))
        for m, k2 in shapes:
            if k2 == 1 and c1 > c2:
                continue  # the two orientations agree at transverse contact
            spend = tuple((c, k) for c, k in ((c1, 1), (c2, k2)) if c in caps)
            options.append((NodeDatum(c1, c2, k2, m), pair, spend))
    return options


def _subscheme_candidates(model, E, i, a, v_cap, budgets, forbid_sigma, keep=None):
    """All admissible subschemes at this level as (degree, points) pairs:
    multisets of point data in the preorder of option order, the empty one
    first.  With ``keep``, a set of degrees, only those of a kept degree are
    recorded.  The caller wraps the points it keeps in a ``Subscheme``.

    On-curve data may repeat (distinct points of the same curve); a node is
    a single point, so each unordered pair of curves is used at most once.
    Degree m takes i m from ``v_cap``: a total degree of at most v_cap // i.
    The walk keeps one path of options and extends and cuts it back in
    place, so a child costs no copy of the budgets.

    The L.E allowance, degree at most L.E // (i s) with s = a - i, needs no
    test of its own.  Every option's last chain coefficient is nonnegative:
    e k >= s m on a curve, e1 + k2 e2 >= s m at a node.  So the options of
    a subscheme that spends ``spent_C`` contacts on each component C of E
    have s deg <= sum_C e_C spent_C <= sum_C e_C (L.C // i) <= L.E / i.
    The same bound, per option, ends the shape loops long before ``m_cap``
    when the volume allowance is loose.  At level 1 the callers keep only
    L.E / (a - 1), where the bound is an equality: each L.C is spent in
    full, and each option's last chain coefficient is 0, so a node enters
    only if e1 + k2 e2 = s m (on a curve e = s there, so k = m always).

    The walks that descend through these subschemes, from a top F_n with
    L = h0 sigma + h l, a < h0 < 2a and n h0 <= h, keep three invariants
    that they use untested:

    - E is nonzero and effective.  The shapes keep every new chain
      coefficient in 0..a-1, and strict transforms keep E's coefficients.
    - Every L.C is nonnegative, hence L.E too.  On top L.sigma = h - n h0
      and L.l_k = h0; a subscheme spends at most L.C // i contacts on C,
      which leaves L.C - i (contacts) >= 0, and a new chain curve meets L
      in 0 or i.
    - The allowance left, v_left, is nonnegative below the top: degree m
      takes i m of it.  On a top with v_left < 0 the state's test
      ``all(r <= v_left ...)`` fails, because sigma is in E with L.sigma >= 0.
    """
    m_cap = v_cap // i
    caps = {c: r // i for c, r in budgets.items()}  # the keys are E.support
    options = _datum_options(model, E, i, a, m_cap, caps, forbid_sigma) if m_cap > 0 else []
    if i == 1 and keep is not None:
        coeff = dict(E.items)
        options = [o for o in options if sum(coeff[c] * k for c, k in o[2]) == (a - 1) * o[0].m]
    results = [(0, ())] if keep is None or 0 in keep else []
    path, points, used, left, m_left, idx, end = [], [], set(), caps, m_cap, 0, len(options)
    while True:
        while idx < end:  # the first option from idx on that fits
            d, pair, spend = options[idx]
            if d.m <= m_left and pair not in used:
                for c, k in spend:
                    if left[c] < k:
                        break
                else:
                    break
            idx += 1
        else:  # none fits: cut the path back by one option
            if not path:
                return results
            idx = path.pop()
            d, pair, spend = options[idx]
            points.pop()
            used.discard(pair)
            m_left += d.m
            for c, k in spend:
                left[c] += k
            idx += 1
            continue
        path.append(idx)  # its children start at the same option
        points.append(d)
        if pair is not None:
            used.add(pair)
        m_left -= d.m
        for c, k in spend:
            left[c] -= k
        if keep is None or m_cap - m_left in keep:
            results.append((m_cap - m_left, tuple(points)))


def _budgets(model: SurfaceModel, E: Divisor, L: DivisorClass) -> tuple[int, dict]:
    """L.E and L.C for every component C of E; on every state of the walks
    each L.C is nonnegative (see ``_subscheme_candidates``), so L.E is too.

    L.E is the sum of e_C (L.C) over E = sum e_C C, by bilinearity, so the
    class of E is never formed.
    """
    be = 0
    budgets = {}
    for cid, e in E.items:
        budgets[cid] = r = model.intersect(L, model.curve(cid).cls)
        be += e * r
    return be, budgets


def search_cell(cell: SearchCell) -> CellOutcome:
    """Exhaust the subscheme configurations of one cell.

    The search model needs a < h0 < 2a and n h0 <= h: the sigma coefficient
    c0 = 2a - h0 of the top divisor in 1..a-1, and L nef on the top.  Both
    callers search only such cells; any other raises
    ``InternalConsistencyError``.
    """
    a, n, h0, h = cell.a, cell.n, cell.h0, cell.h
    if not (a < h0 < 2 * a and n * h0 <= h):
        raise InternalConsistencyError(f"cell {cell} is outside the search model")
    b = p4_length(h0)
    out = CellOutcome(cell)
    c0 = 2 * a - h0
    f = (n + 2) * a - h
    v_max = _volume_cap(a, n, h0, h)
    forbid_top_sigma = _normalization_active(a, n, h0, h)

    def reject(reason: str) -> None:
        out.rejected[reason] = out.rejected.get(reason, 0) + 1

    def finish(ladder: Ladder) -> None:
        out.candidates += 1
        report = certify_ladder(ladder)
        if not report.passed:
            reject("certificates:" + ",".join(report.failures))
            return
        if ladder.volume < 2 * a:
            reject("volume")
            return
        pair = ladder.bottom_pair
        if pair.index != a:
            reject("index")
            return
        if not identities_check(ladder):
            raise InternalConsistencyError("identity re-verification failed on a survivor")
        if any(d < 0 for d in pair.degrees):
            raise InternalConsistencyError("fundamental class negative on a tracked curve")
        index_certificate = certificate_index_is_a(pair)
        certificates = {
            "ladder": True,
            "basic_pair": True,
            "identities": True,
            "volume_at_least_2a": True,
            "index_is_a": True,
            "index_certificate": index_certificate,
        }
        record = ladder_json(ladder, certificates)
        key = canonical_form(pair)
        out.known[n, ladder.top.E, b, tuple((lv.i, lv.delta) for lv in ladder.levels[:-1])] = key
        out.survivors.append({
            "key": key,
            "type": None,  # tagged against the catalog by the caller
            "volume": record["volume"],
            "index": a,
            "cell": (a, n, h0, h),
            "E0": record["E_0"],
            "dual_graph": pair.divisor_graph.to_dot(),
            "multiplet": record,
            "index_certificate": index_certificate,
        })

    # Depth-first over ladder states (i, model, E, L, spent, levels), one per
    # prefix of nonempty eliminations (``levels``), from an explicit stack.
    # Every state keeps the invariants of ``_subscheme_candidates``: E is
    # nonzero effective, every L.C >= 0, and v_left >= 0 below the top, so
    # the one state test is a component budget over the allowance.  The
    # empty subscheme keeps model, E and L, so a state walks its levels down
    # in place: the state test runs once, the degree test per level until it
    # fails.  Where no point fits (v_left < i or be < i(a-i)) its answer
    # holds down to the highest level where one does, or 0, so the walk jumps
    # there untested.  Level 0 is feasible only with be = 0, which makes
    # every L.C zero: a bottom.  At level 1 the empty subscheme passes only
    # when be == 0, where the jump lands on 0; a walk there has
    # be = d(a - 1) > 0 and keeps the degree d alone, with no empty
    # subscheme.  Children pushed per level pop lowest level first: the
    # preorder of one node per level, empty child first.  Each level walked
    # is a configuration; ``_CONFIG_CAP`` is checked once per state, after
    # its walk.
    stack = []
    for parts in reversed(_partitions(f, a - 1)):
        model, E = top_model(n, c0, parts)
        stack.append((b, model, E, model.fundamental_class(a, E), 0, []))
    while stack:
        entry, model, E, L, spent, levels = stack.pop()
        i = entry
        be, budgets = _budgets(model, E, L)
        v_left = v_max - spent
        if all(r <= v_left for r in budgets.values()):
            while _degrees_feasible(a, i, be, v_left):
                i = min(i, v_left)
                if be < i * (a - i):
                    i = _level_below(a, be)
                if i == 0:
                    finish(close_ladder(a, b, levels, model, E, L))
                    break
                forbid = forbid_top_sigma and i == b
                children = []
                keep = {be // (a - 1)} if i == 1 else None
                cands = _subscheme_candidates(model, E, i, a, v_left, budgets, forbid, keep)
                for d, points in cands if keep else cands[1:]:
                    level, E2, L2 = descend_step(a, i, model, E, L, Subscheme(points))
                    children.append((i - 1, level.elim.model, E2, L2, spent + i * d, levels + [level]))
                stack.extend(reversed(children))
                if i == 1 and be:
                    break
                i -= 1
        out.configs += entry - i + 1
        if out.configs > _CONFIG_CAP:
            raise SearchExplosion(f"configuration cap exceeded in cell {cell}")
    return out


# -- classification ---------------------------------------------------------------


@dataclass
class ClassificationReport:
    a: int
    rows: list[dict]
    unexpected: list[dict]
    missing: list[dict]
    cells_visited: int
    configurations: int
    candidates: int
    warnings: list[str]
    survivors: list[dict]
    killed_cells: dict

    @property
    def catalog_match(self) -> bool | None:
        """None below index 4, where no catalog comparison is made."""
        if self.a < 4:
            return None
        return not self.unexpected and not self.missing

    def to_json(self) -> dict:
        return {**vars(self), "catalog_match": self.catalog_match}

    def to_text(self) -> str:
        lines = [f"classification for index {self.a}"]
        w = max([len(r["type"]) for r in self.rows] + [4])
        lines.append(f" {'type':<{w}}  {'volume':>8}  index  configurations")
        for r in self.rows:
            lines.append(
                f" {r['type']:<{w}}  {r['volume']:>8}  {r['index']:>5}  {r['configurations']:>14}"
            )
        for s in self.unexpected:
            lines.append(f" UNEXPECTED {s['volume']} {s['key']}")
        for s in self.missing:
            lines.append(f" MISSING {s['type']} {s['volume']}")
        lines.append(
            f" cells: {self.cells_visited}  configurations: {self.configurations}  candidates: {self.candidates}"
        )
        match = {None: "not tested", True: "yes", False: "no"}[self.catalog_match]
        lines.append(f" catalog match: {match}")
        for msg in self.warnings:
            lines.append(f" warning: {msg}")
        return "\n".join(lines) + "\n"


def catalog_key_map(a: int, entries: list, known: dict) -> tuple[dict[str, str], list[dict]]:
    """Entry name by canonical key, and the missing configurations.  A
    configuration whose ``entry_recipe`` is in ``known`` (a search's
    ``CellOutcome.known``) takes that survivor's key; the rest are missing,
    numbered from 1 within their entry as ``verify-type`` numbers them."""
    out: dict[str, str] = {}
    missing: list[dict] = []
    for entry in entries:
        for idx in range(len(entry.configs)):
            key = known.get(entry_recipe(entry, a, idx))
            if key is None:
                missing.append({"type": entry.name, "volume": str(entry.volume), "configuration": idx + 1})
            elif out.setdefault(key, entry.name) != entry.name:
                raise InternalConsistencyError(
                    f"catalog key collision between {out[key]} and {entry.name}"
                )
    return out, missing


def _search_and_tag(a: int, cells: list[SearchCell], entries: list):
    """Search the cells; return the outcomes, the survivors merged by key (the
    first found kept) in key order, and the configurations of ``entries``
    that no survivor has.  From index 4 on each survivor's ``type`` is its
    catalog type, by ``catalog_key_map``, or ``unexpected``; below, no
    catalog is compared, the type stays None and nothing is missing."""
    outcomes = [search_cell(c) for c in cells]
    merged: dict[str, dict] = {}
    known = {r: k for o in outcomes for r, k in o.known.items()}
    for o in outcomes:
        for s in o.survivors:
            merged.setdefault(s["key"], s)
    survivors = [merged[k] for k in sorted(merged)]
    if a < 4:
        return outcomes, survivors, []
    key_map, missing = catalog_key_map(a, entries, known)
    for s in survivors:
        s["type"] = key_map.get(s["key"], "unexpected")
    return outcomes, survivors, missing


def check_classify_index(a: int) -> None:
    """Raise ``ValueError`` for an index below 2 or above
    ``CLASSIFY_INDEX_CAP`` (2^18)."""
    if a < 2:
        raise ValueError("classification starts at index 2")
    if a > CLASSIFY_INDEX_CAP:
        raise ValueError(f"classify takes an index of at most {CLASSIFY_INDEX_CAP}")


def classify(a: int) -> ClassificationReport:
    """Enumerate all index-a surfaces of volume at least 2a and compare the
    survivors against the built-in catalog.  An index that
    ``check_classify_index`` refuses raises ``ValueError`` before the
    search starts."""
    check_classify_index(a)
    warnings = []
    if a < 4:
        warnings.append(
            "index below 4 is outside the theorem hypotheses; catalog comparison skipped"
        )
        warnings.append("candidates over the projective plane are not searched")
    elif not p1_plane_excluded(a):
        raise InternalConsistencyError("plane branch unexpectedly open")

    cells, killed = generate_cells(a)
    if killed.get("unresolved_sections"):
        warnings.append(
            f"{killed['unresolved_sections']} cell(s) admit divisor shapes outside the "
            "section-plus-fibers model and were not searched"
        )
    entries = catalog_entries(a)
    outcomes, survivors, missing = _search_and_tag(a, cells, entries)
    configs = sum(o.configs for o in outcomes)
    candidates = sum(o.candidates for o in outcomes)

    rows: list[dict] = []
    if a >= 4:
        for entry in entries:
            rows.append({
                "type": entry.name,
                "volume": str(entry.volume),
                "index": a,
                "configurations": sum(s["type"] == entry.name for s in survivors),
            })
    else:
        for s in survivors:
            s["type"] = "-"
            rows.append(
                {"type": "-", "volume": s["volume"], "index": s["index"], "configurations": 1}
            )
    unexpected = [
        {"key": s["key"], "volume": s["volume"]} for s in survivors if s["type"] == "unexpected"
    ]
    return ClassificationReport(
        a, rows, unexpected, missing, len(cells), configs, candidates, warnings, survivors, killed
    )


# -- audit ------------------------------------------------------------------------


@dataclass
class AuditReport:
    a: int
    n_max: int
    h0_values: tuple[int, ...]
    cells_swept: int
    killed: dict
    searched: int
    candidates_rejected: dict
    survivors_in_catalog: int | None  # None below index 4, where no catalog is compared
    survivors_outside: list[dict] | None
    inconsistencies: list[str]

    @property
    def clean(self) -> bool:
        return not self.survivors_outside and not self.inconsistencies

    def to_json(self) -> dict:
        return {**vars(self), "clean": self.clean}

    def to_text(self) -> str:
        lines = [f"audit for index {self.a} with n <= {self.n_max}"]
        lines.append(f" cells swept: {self.cells_swept}  searched: {self.searched}")
        for reason in sorted(self.killed):
            lines.append(f" killed by {reason}: {self.killed[reason]}")
        for reason in sorted(self.candidates_rejected):
            lines.append(f" candidates rejected by {reason}: {self.candidates_rejected[reason]}")
        tested = self.survivors_outside is not None
        lines.append(f" survivors matching the catalog: {self.survivors_in_catalog if tested else 'not tested'}")
        lines.append(f" survivors outside the catalog: {len(self.survivors_outside) if tested else 'not tested'}")
        for s in self.survivors_outside or ():
            lines.append(f"  OUTSIDE {s['volume']} {s['key']}")
        for msg in self.inconsistencies:
            lines.append(f" inconsistency: {msg}")
        lines.append(f" clean: {'yes' if self.clean else 'no'}")
        return "\n".join(lines) + "\n"


def check_audit_sweep(a: int, n_max: int, h0: int | None = None) -> None:
    """Raise ``ValueError`` for an audit sweep that would cover no cell or
    more than ``AUDIT_WINDOW_CAP`` windows (n, h0): (2a - 1)(n_max + 1)
    windows, or n_max + 1 with ``h0``."""
    if a < 2:
        raise ValueError("audit starts at index 2")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if h0 is not None and not p2_multiple_range(a, h0):
        raise ValueError(f"h0 must lie in 1..{2 * a - 1}")
    windows = (2 * a - 1 if h0 is None else 1) * (n_max + 1)
    if windows > AUDIT_WINDOW_CAP:
        raise ValueError(f"the sweep has {windows} (n, h0) windows, more than {AUDIT_WINDOW_CAP}")


def audit(a: int, n_max: int, h0: int | None = None) -> AuditReport:
    """Sweep every cell up to the caps, re-deriving the closed-form kills and
    running the full search on whatever they leave open.

    Unlike ``classify`` this does not discard the excluded region wholesale:
    kills are counted per piece of a window that ``_verdict_pieces`` gives
    one verdict, with the counts of a per-h sweep, the cells left open are
    searched to exhaustion, and from index 4 on every survivor must be in
    the catalog (catalog configurations the sweep does not reach are no
    fault).  The sweep stays one (n, h0) window at a time on purpose: it is
    the independent route, which takes every window's verdicts from
    ``_verdict_pieces`` without the row blocks, the ``volume`` block and
    the p6 prefix that ``generate_cells`` relies on.  Each row h0 > a ends
    at its first empty window: n h0 <= h <= (n + 2) a is empty exactly
    when n (h0 - a) > 2a, which then holds for every larger n, and a row
    h0 <= a has no empty window.  Empty windows hold no cell, so stopping
    there changes no count.  A sweep that
    ``check_audit_sweep`` refuses, such as one of more than
    ``AUDIT_WINDOW_CAP`` (2^22) windows (n, h0), raises ``ValueError``
    before it starts.
    """
    check_audit_sweep(a, n_max, h0)
    h0_values = tuple(range(1, 2 * a)) if h0 is None else (h0,)
    killed: dict[str, int] = {}
    inconsistencies: list[str] = []
    to_search: list[SearchCell] = []
    swept = 0

    for h0v in h0_values:
        b = p4_length(h0v)
        for n in range(0, n_max + 1):
            pieces = _verdict_pieces(a, n, h0v)
            if not pieces:
                # n h0 <= h <= (n + 2) a is empty exactly when n (h0 - a) > 2a:
                # never for h0 <= a, and for h0 > a for every larger n too
                break
            for start, stop, reason in pieces:
                swept += stop - start
                if b < 1:
                    reason = "length_zero"
                elif reason is None and h0v > a:
                    to_search.extend(SearchCell(a, n, h0v, h) for h in range(start, stop))
                    continue
                elif reason == "unresolved_sections" or (h0v <= a and reason in (None, "sigma_budget")):
                    why = "escapes the small-multiple kills" if h0v <= a else "admits unmodelled sections"
                    inconsistencies.extend(
                        f"cell (n={n}, h0={h0v}, h={h}) {why}" for h in range(start, stop)
                    )
                    continue
                killed[reason] = killed.get(reason, 0) + stop - start

    outcomes, survivors, _ = _search_and_tag(a, to_search, catalog_entries(a))
    rejected: dict[str, int] = {}
    for o in outcomes:
        for reason, count in o.rejected.items():
            rejected[reason] = rejected.get(reason, 0) + count
    outside = [s for s in survivors if s["type"] == "unexpected"] if a >= 4 else None

    return AuditReport(
        a,
        n_max,
        h0_values,
        swept,
        killed,
        len(to_search),
        rejected,
        len(survivors) - len(outside) if a >= 4 else None,
        outside,
        inconsistencies,
    )


# -- pseudo-multiplet fuzzing ---------------------------------------------------


def _fitting_draws(a: int, i: int, model, E, L, v_left: int) -> list:
    """The (degree, points) candidates at level i whose degree leaves the
    lower levels feasible; empty where the walk stops.

    The degrees that fit are found first, from the allowance alone; the
    walk then goes only up to the largest of them and records only the
    candidates of a fitting degree, in the preorder of the full walk.  At
    level 1, where no level is left, the one fit is d(a - 1) == be, and the
    walk takes only the options that spend exactly.
    """
    be, budgets = _budgets(model, E, L)
    unit = i * (a - i)
    fits = [
        d
        for d in range(min(v_left // i, be // unit) + 1)
        if _degrees_feasible(a, i - 1, be - unit * d, v_left - i * d)
    ]
    if not fits:
        return []
    return _subscheme_candidates(model, E, i, a, i * fits[-1], budgets, False, set(fits))


def random_pseudo_fundamental_ladders(seed: int, count: int):
    """Deterministically sample valid pseudo-fundamental multiplets.

    Draws random cells (with no volume requirement and any admissible
    length), walks random paths through the same candidate generator the
    classifier uses, and keeps the ladders whose certificates pass.  The
    walk's own tests do not imply the certificate: an occasional closed
    path fails ``bottom_adjoint_positivity``, sometimes together with
    ``top_minus_one_curve``, and is dropped.  Each level draws uniformly
    among the candidates whose degree leaves the lower levels feasible, and
    builds a ``Subscheme`` for the drawn one only.  Used by the identity
    test suite.

    Draws repeat: 1000 ladders take about 4,400 attempts (turns of the
    loop), about 3,000 of which get past ``cell_verdict``, on about 500
    distinct tops.  So the draw paths form a trie, built once per call, with
    integer node ids: a top (a, n, c0, parts), then one node per nonempty
    elimination.  Its draw lists, descents and closed ladders are built and
    certified once, a repeated path shares them down to the same ``Ladder``,
    and no key hashes a subscheme.  Each draw is ``rng.randrange(len(draws))``,
    which takes from the stream what ``rng.choice(draws)`` takes, so every
    random draw is made as an unshared walk makes it.
    """
    rng = random.Random(seed)
    # (a, n, c0, parts) -> top node, (node, i) -> draw list at level i,
    # (node, i, k) -> the node draw k descends to, ("ladder", node, b) and
    # ("parts", f, a).  Only a top (be_top > 60) or a ladder that fails its
    # certificate maps to None; an empty draw list stops the walk.
    # states[node] is (model, E, L) and the top's v_cap or the level
    # descended to.
    memo: dict = {}
    states: list = []
    out = []
    attempts = 0
    while len(out) < count and attempts < _FUZZ_ATTEMPT_CAP:
        attempts += 1
        a = rng.randint(4, 8)
        c0 = rng.choice([a - 1, a - 1, a - 2, rng.randint(1, a - 1)])
        h0 = 2 * a - c0
        n = rng.randint(1, 2 * a)
        f = rng.choice([0, 0, 1, 2, rng.randint(0, 4)])
        h = (n + 2) * a - f
        if cell_verdict(a, n, h0, h) in ("window", "unresolved_sections"):
            continue  # h0 > a here, so every other kill implies sections excluded
        b = rng.randint(1, min(p4_length(h0), 4))
        if ("parts", f, a) not in memo:
            memo["parts", f, a] = _partitions(f, a - 1)
        parts = rng.choice(memo["parts", f, a])

        top = (a, n, c0, parts)
        if top not in memo:
            model, E = top_model(n, c0, parts)
            L = model.fundamental_class(a, E)
            be_top = model.intersect(L, E.class_in(model))
            memo[top] = None
            if be_top <= 60:
                memo[top] = len(states)
                states.append((model, E, L, be_top))
        node = memo[top]
        if node is None:
            continue
        model, E, L, v_cap = states[node]  # sum j d_j never exceeds sum j(a-j) d_j

        levels: list[LadderLevel] = []
        spent = 0
        for i in range(b, 0, -1):
            if (node, i) not in memo:
                memo[node, i] = _fitting_draws(a, i, model, E, L, v_cap - spent)
            draws = memo[node, i]
            if not draws:
                break
            k = rng.randrange(len(draws))
            d, points = draws[k]
            if not points:
                continue  # nothing to eliminate: the state holds at level i-1
            if (node, i, k) not in memo:
                level, E2, L2 = descend_step(a, i, model, E, L, Subscheme(points))
                memo[node, i, k] = len(states)
                states.append((level.elim.model, E2, L2, level))
            node = memo[node, i, k]
            model, E, L, level = states[node]
            spent += i * d
            levels.append(level)
        else:
            key = ("ladder", node, b)
            if key not in memo:
                ladder = close_ladder(a, b, levels, model, E, L)
                passed = certify_ladder(ladder, require_fundamental=False).passed
                memo[key] = ladder if passed else None
            if memo[key] is not None:
                out.append(memo[key])
    return out
