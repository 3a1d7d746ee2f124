"""The built-in catalog of large-volume types.

Each entry names a family of fundamental multiplets: a top Hirzebruch
surface, a divisor on it, and the subschemes its levels eliminate.  A
single entry can cover several point configurations (splitting a subscheme
of given degree on a curve into points of various multiplicities); the
configurations descend to basic pairs that may or may not be isomorphic,
but they share the entry's volume and index.  Configurations name curves
by the ids ``top_model`` gives and list points smallest first, as the
search does, so ``entry_recipe`` needs no model and matches a survivor's.

The degree-two series on the section is split into one entry per
configuration ("II_1" with one point, "II_2" with two) because their
surfaces have distinct toric models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .elimination import NodeDatum, OnCurveDatum, Subscheme
from .lattice import Divisor, SurfaceModel
from .multiplet import Ladder, build_ladder


def _partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n into nonincreasing positive parts, each at most cap,
    largest first part first.

    Runs from an explicit stack, so a long partition such as (1,) * 5000
    costs list entries, not interpreter frames.  Every caller passes
    n <= 4: catalog degrees are at most 4, the fuzz generator draws f <= 4,
    and the fiber multiplicity f of every cell searched by classify(2..64)
    and seven audits is at most 4.
    """
    out = []
    stack = [((), n, n if cap is None else cap)]
    while stack:
        head, left, top = stack.pop()
        if left == 0:
            out.append(head)
        # the largest next part is pushed last, so it pops first
        stack.extend((head + (p,), left - p, p) for p in range(1, min(left, top) + 1))
    return out


def _on_curve(curve: int, parts: tuple[int, ...]) -> Subscheme:
    return Subscheme(tuple(OnCurveDatum(curve, m, m) for m in sorted(parts)))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    base_n: int
    c0: int  # coefficient of sigma in the top divisor
    fibers: tuple[int, ...]  # coefficients of the tracked fibers l_1, l_2, ...
    configs: tuple[dict[int, Subscheme], ...]  # per config: level -> nonempty subscheme
    volume: Fraction


def _length(a: int) -> int:
    return (a + 1) // 2


def _sigma_series(a: int, name: str, degree: int) -> CatalogEntry:
    """The five principal families: all data of degree d sit on the section,
    at level 1."""
    return CatalogEntry(
        name,
        2 * a - degree,
        a - 1,
        (),
        tuple({1: _on_curve(0, parts)} if parts else {} for parts in _partitions(degree)),
        Fraction(2 * a * a + (4 - degree) * a + 2, a),
    )


def catalog_entries(a: int) -> list[CatalogEntry]:
    """All catalog entries applicable at the given index."""
    if a < 2:
        raise ValueError("catalog starts at index 2")
    ii = _sigma_series(a, "II", 2)
    entries = [
        _sigma_series(a, "O", 0),
        _sigma_series(a, "I", 1),
        *(replace(ii, name=f"II_{k}", configs=(c,)) for k, c in enumerate(ii.configs, 1)),
        _sigma_series(a, "III", 3),
        _sigma_series(a, "IV", 4),
    ]
    if a == 5:
        entries.append(
            CatalogEntry(
                "A5",
                8,
                4,
                (2,),
                tuple({3: _on_curve(1, parts)} for parts in _partitions(2)),
                Fraction(54, 5),
            )
        )
    if a == 4:
        entries.append(
            CatalogEntry(
                "B4",
                4,
                3,
                (),
                ({2: Subscheme((OnCurveDatum(0, 2, 3),))},),
                Fraction(8),
            )
        )
        entries.append(
            CatalogEntry(
                "C4",
                5,
                3,
                (2,),
                (
                    {
                        2: Subscheme((OnCurveDatum(1, 1, 1),)),
                        1: Subscheme((NodeDatum(0, 1, 3, 3),)),
                    },
                ),
                Fraction(8),
            )
        )
    return entries


def top_divisor(c0: int, fibers: tuple[int, ...]) -> Divisor:
    """c0 sigma plus e_k l_k for the k-th e_k in ``fibers``: sigma has id 0, l_k id k."""
    return Divisor.from_dict(dict(enumerate((c0, *fibers))))


def top_model(n: int, c0: int, fibers: tuple[int, ...]) -> tuple[SurfaceModel, Divisor]:
    """F_n with one tracked fiber l_k per coefficient in ``fibers``, and
    ``top_divisor(c0, fibers)`` on it.  The top of every catalog entry and
    of every searched or fuzzed multiplet."""
    model = SurfaceModel.hirzebruch(n)
    for _ in fibers:
        model = model.add_fiber()[0]
    return model, top_divisor(c0, fibers)


def entry_recipe(entry: CatalogEntry, a: int, config: int) -> tuple:
    """The input of ``build_entry_ladder``: n, top divisor, length, and the
    steps top down as (level, subscheme).  At one index, equal recipes give ``==`` ladders."""
    steps = tuple(sorted(entry.configs[config].items(), reverse=True))
    return entry.base_n, top_divisor(entry.c0, entry.fibers), _length(a), steps


def build_entry_ladder(entry: CatalogEntry, a: int, config: int) -> Ladder:
    model, E = top_model(entry.base_n, entry.c0, entry.fibers)
    return build_ladder(a, model, E, _length(a), entry.configs[config])


def entry_by_name(a: int, name: str) -> CatalogEntry:
    for e in catalog_entries(a):
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry {name!r} at index {a}")


# CLI-facing type names; "II" expands to both configurations.
TYPE_NAMES = ("O", "I", "II", "III", "IV", "A5", "B4", "C4")


def entries_for_type(a: int, type_name: str) -> list[CatalogEntry]:
    if type_name == "II":
        return [entry_by_name(a, "II_1"), entry_by_name(a, "II_2")]
    return [entry_by_name(a, type_name)]
