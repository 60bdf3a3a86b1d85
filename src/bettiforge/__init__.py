"""Exact pfaffian algebra and Betti-sequence classification for codimension-3 almost complete intersections.

The exported names resolve lazily (PEP 562): each is imported from its
home module on first access and then cached here, so ``import bettiforge``
loads none of the package's modules, and the numeric code paths never
load the polynomial ones (``exact``, ``pfaffian``, ``structure``).
"""

import importlib

# Each exported name and the module that defines it.
_HOMES = {
    "IntMultiset": "multiset",
    "Poly": "exact",
    "PolyMatrix": "exact",
    "parse_poly": "exact",
    "parse_matrix": "exact",
    "variables": "exact",
    "AlternatingMatrix": "pfaffian",
    "block_pfaffian": "pfaffian",
    "congruence": "pfaffian",
    "sign_bracket": "pfaffian",
    "three_generator_embedding": "pfaffian",
    "GorensteinBetti": "gorenstein",
    "HilbertFn": "gorenstein",
    "check_gorenstein_betti": "gorenstein",
    "ci_index_sets": "gorenstein",
    "hilbert_from_resolution": "gorenstein",
    "hilbert_of_ci": "gorenstein",
    "mci": "gorenstein",
    "AciBetti": "aci",
    "AciDecomposition": "aci",
    "Verdict": "aci",
    "check_betti": "aci",
    "decompose": "aci",
    "enumerate_admissible": "aci",
    "induced_gorenstein": "aci",
    "link_betti": "aci",
    "AlternatingPresentation": "structure",
    "GradedComplex": "structure",
    "GradedFreeModule": "structure",
    "build_aci_complex": "structure",
    "colon_generators": "structure",
    "verify_complex": "structure",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
