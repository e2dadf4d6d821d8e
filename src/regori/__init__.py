"""Regular origamis: constructions, stratum existence, translation maxima."""

from .enumerator import EnumWitness, enumerate_regular
from .groups import (
    FiniteGroup,
    Subgroup,
    automorphism_count,
    center,
    closure_from_generators,
    derived_subgroup,
    is_isomorphic,
    subgroup_generated,
)
from .oracle import ExistenceVerdict, decide, decide_uniform
from .origami import (
    Origami,
    extend_by_cyclic,
    genus_of,
    one_cylinder,
    regular_origami,
    stratum_of,
    translation_group,
    translation_order,
)
from .search import TransBound, candidate_ms, t_of_g
from .strata import Stratum, parse_stratum, uniform_stratum

__version__ = "0.1.0"

__all__ = [
    "EnumWitness",
    "ExistenceVerdict",
    "FiniteGroup",
    "Origami",
    "Stratum",
    "Subgroup",
    "TransBound",
    "automorphism_count",
    "candidate_ms",
    "center",
    "closure_from_generators",
    "decide",
    "decide_uniform",
    "derived_subgroup",
    "enumerate_regular",
    "extend_by_cyclic",
    "genus_of",
    "is_isomorphic",
    "one_cylinder",
    "parse_stratum",
    "regular_origami",
    "stratum_of",
    "subgroup_generated",
    "t_of_g",
    "translation_group",
    "translation_order",
    "uniform_stratum",
]
