"""Regular origamis: constructions, stratum existence, translation maxima."""

from importlib import import_module

# public name -> module; a name's module is imported on first access
_HOMES = {
    "enumerator": ("EnumWitness", "enumerate_regular"),
    "groups": ("FiniteGroup", "Subgroup", "automorphism_count", "center",
               "closure_from_generators", "derived_subgroup", "is_isomorphic",
               "subgroup_generated"),
    "oracle": ("ExistenceVerdict", "decide", "decide_uniform"),
    "origami": ("Origami", "extend_by_cyclic", "genus_of", "one_cylinder",
                "regular_origami", "stratum_of", "translation_group", "translation_order"),
    "search": ("TransBound", "candidate_ms", "t_of_g"),
    "strata": ("Stratum", "parse_stratum", "uniform_stratum"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
