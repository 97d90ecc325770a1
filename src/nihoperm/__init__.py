"""Permutation trinomials from Niho exponents over GF(2^n).

Construction, two independent verification engines, no-root certificates
for the associated unit-circle quartics, reproduction of the known-pair
table, and exhaustive pair surveys. See the README for the CLI.
"""

from .errors import NihopermError
from .field import FieldCtx, make_field, smallest_irreducible
from .loweq import verify_lemma_quartics
from .niho import (
    NihoPair,
    TrinomialSpec,
    family_trinomial,
    known_pairs_table1,
    pair_to_trinomial,
    resolve_fraction,
)
from .permcheck import (
    PermReport,
    is_permutation_exhaustive,
    pair_verdicts,
    unit_circle_check,
)
from .survey import search_pairs
from .tower import TowerCtx, make_tower

__version__ = "0.1.0"

__all__ = [
    "FieldCtx",
    "NihoPair",
    "NihopermError",
    "PermReport",
    "TowerCtx",
    "TrinomialSpec",
    "family_trinomial",
    "is_permutation_exhaustive",
    "known_pairs_table1",
    "make_field",
    "make_tower",
    "pair_to_trinomial",
    "pair_verdicts",
    "resolve_fraction",
    "search_pairs",
    "smallest_irreducible",
    "unit_circle_check",
    "verify_lemma_quartics",
]
