"""Exact-arithmetic engine for log del Pezzo surfaces of fixed index.

The package models nonsingular rational surfaces as point blow-ups of
a Hirzebruch surface, realizes curvilinear zero-dimensional
subschemes and their eliminations, descends fundamental multiplets to
basic pairs, computes exact anticanonical volumes and Gorenstein
indices, cross-checks everything against toric models, and enumerates
all surfaces of index a with volume at least 2a.
"""

from .lattice import (
    DivisorClass,
    Divisor,
    SurfaceModel,
    StructuralError,
    InvalidPointError,
)
from .elimination import (
    Subscheme,
    OnCurveDatum,
    NodeDatum,
    eliminate,
    transform,
)
from .multiplet import (
    BasicPair,
    Ladder,
    build_ladder,
    volume,
    check_basic_pair,
    identities_check,
    index_of,
    certificate_index_is_a,
    local_lemma_checks,
)
from .toric import Fan2D, hj_resolve, anticanonical_square, gorenstein_index, family_fan
from .enumerator import classify, audit, canonical_form

__version__ = "0.1.0"

__all__ = [
    "DivisorClass",
    "Divisor",
    "SurfaceModel",
    "StructuralError",
    "InvalidPointError",
    "Subscheme",
    "OnCurveDatum",
    "NodeDatum",
    "eliminate",
    "transform",
    "BasicPair",
    "Ladder",
    "build_ladder",
    "volume",
    "check_basic_pair",
    "identities_check",
    "index_of",
    "certificate_index_is_a",
    "local_lemma_checks",
    "Fan2D",
    "hj_resolve",
    "anticanonical_square",
    "gorenstein_index",
    "family_fan",
    "classify",
    "audit",
    "canonical_form",
]
