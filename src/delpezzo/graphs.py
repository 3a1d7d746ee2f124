"""Weighted graphs, the engine's one graph type, and their canonical labeling.

The configurations this engine compares are tiny (a handful of weighted
vertices, forest-shaped in practice), so canonicalization is done by
refining vertex colours Weisfeiler-Lehman style and then brute-forcing
permutations inside the remaining colour classes, keeping the
lexicographically smallest encoding.  Degree-zero vertices never need
permuting: with equal weights their order cannot change the encoding.
Vertex names play no part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

_PERM_CAP = 2_000_000


class CanonicalizationError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class WeightedGraph:
    """Vertices 0..order-1 with weights and optional names; edges (i, j) with
    i < j, sorted."""

    weights: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    names: tuple[str, ...] = ()

    @staticmethod
    def build(weights, edge_pairs) -> "WeightedGraph":
        return WeightedGraph(
            tuple(tuple(w) for w in weights),
            tuple(sorted({tuple(sorted(e)) for e in edge_pairs})),
        )

    @property
    def order(self) -> int:
        return len(self.weights)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbours(self, v: int) -> list[int]:
        return sorted(j if i == v else i for i, j in self.edges if v in (i, j))

    def induced(self, keep: list[int]) -> "WeightedGraph":
        """The subgraph on the vertices ``keep``, in increasing order,
        renumbered 0.. in that order, with their weights and names."""
        pos = {v: i for i, v in enumerate(keep)}
        return WeightedGraph(
            tuple(self.weights[v] for v in keep),
            tuple((pos[i], pos[j]) for i, j in self.edges if i in pos and j in pos),
            tuple(self.names[v] for v in keep) if self.names else (),
        )

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        out = []
        for start in range(self.order):
            if start not in seen:
                seen.add(start)
                out.append([start])
                for v in out[-1]:  # the list grows while it is walked
                    new = [w for w in self.neighbours(v) if w not in seen]
                    seen.update(new)
                    out[-1].extend(new)
        return out

    def to_dot(self) -> str:
        """DOT text of a named dual graph weighted by (self-intersection, coefficient)."""
        lines = ["graph dual {"]
        for i, (name, (s, c)) in enumerate(zip(self.names, self.weights)):
            lines.append(f'  v{i} [label="{name}\\n(s={s}, c={c})"];')
        lines.extend(f"  v{i} -- v{j};" for i, j in self.edges)
        lines.append("}")
        return "\n".join(lines) + "\n"


def _stable_colours(g: WeightedGraph) -> list[tuple]:
    colours: list[tuple] = [(g.weights[v], g.degree(v)) for v in range(g.order)]
    while True:
        refined = [
            (colours[v], tuple(sorted(colours[u] for u in g.neighbours(v))))
            for v in range(g.order)
        ]
        if len(set(refined)) == len(set(colours)):
            return refined
        colours = refined


def canonical_key(g: WeightedGraph) -> tuple:
    """A complete isomorphism invariant of the weighted graph."""
    n = g.order
    if n == 0:
        return ((), ())
    colours = _stable_colours(g)
    order_by_colour = sorted(range(n), key=lambda v: (colours[v], v))
    groups: list[list[int]] = []
    for v in order_by_colour:
        if groups and colours[groups[-1][0]] == colours[v]:
            groups[-1].append(v)
        else:
            groups.append([v])

    # The orders to try, per colour class.  Degree-zero classes are inert:
    # any ordering gives the same encoding.
    orders = []
    total = 1
    for grp in groups:
        if len(grp) == 1 or all(g.degree(v) == 0 for v in grp):
            orders.append((grp,))
        else:
            orders.append(itertools.permutations(grp))
            total *= math.factorial(len(grp))
            if total > _PERM_CAP:
                raise CanonicalizationError(
                    f"too many candidate labelings ({total}) for a graph on {n} vertices"
                )

    best = None
    for choice in itertools.product(*orders):
        order = list(itertools.chain.from_iterable(choice))
        pos = {v: i for i, v in enumerate(order)}
        enc_weights = tuple(g.weights[v] for v in order)
        enc_edges = tuple(sorted(tuple(sorted((pos[a], pos[b]))) for a, b in g.edges))
        enc = (enc_weights, enc_edges)
        if best is None or enc < best:
            best = enc
    return best
