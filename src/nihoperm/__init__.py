"""Permutation trinomials from Niho exponents over GF(2^n).

Construction, two independent verification engines, no-root certificates
for the associated unit-circle quartics, reproduction of the known-pair
table, and exhaustive pair surveys. See the README for the CLI.
"""

from .errors import NihopermError
from .field import FieldCtx, make_field, smallest_irreducible
from .loweq import verify_lemma_quartics
from .niho import (
    FamilyInstance,
    NihoPair,
    TrinomialSpec,
    equivalent_pairs,
    family_trinomial,
    is_niho_exponent,
    known_pairs_table1,
    pair_to_trinomial,
    resolve_fraction,
)
from .permcheck import (
    PermReport,
    is_permutation_exhaustive,
    unit_circle_check,
    verify_pairs,
    zieve_check,
)
from .survey import SearchRow, canonical_orbit, search_pairs
from .tower import TowerCtx, cayley_param, in_unit_circle, make_tower, unit_circle_iter

__version__ = "0.1.0"

__all__ = [
    "FamilyInstance",
    "FieldCtx",
    "NihoPair",
    "NihopermError",
    "PermReport",
    "SearchRow",
    "TowerCtx",
    "TrinomialSpec",
    "canonical_orbit",
    "cayley_param",
    "equivalent_pairs",
    "family_trinomial",
    "in_unit_circle",
    "is_niho_exponent",
    "is_permutation_exhaustive",
    "known_pairs_table1",
    "make_field",
    "make_tower",
    "pair_to_trinomial",
    "resolve_fraction",
    "search_pairs",
    "smallest_irreducible",
    "unit_circle_check",
    "unit_circle_iter",
    "verify_lemma_quartics",
    "verify_pairs",
    "zieve_check",
]
