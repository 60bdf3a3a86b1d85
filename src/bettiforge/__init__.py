"""Exact pfaffian algebra and Betti-sequence classification for codimension-3 almost complete intersections."""

from .multiset import IntMultiset
from .exact import Poly, PolyMatrix, parse_poly, parse_matrix, variables
from .pfaffian import (
    AlternatingMatrix,
    block_pfaffian,
    congruence,
    sign_bracket,
    three_generator_embedding,
)
from .gorenstein import (
    GorensteinBetti,
    HilbertFn,
    check_gorenstein_betti,
    ci_index_sets,
    hilbert_from_resolution,
    hilbert_of_ci,
    mci,
)
from .aci import (
    AciBetti,
    AciDecomposition,
    Verdict,
    check_betti,
    decompose,
    enumerate_admissible,
    induced_gorenstein,
    link_betti,
)
from .structure import (
    AlternatingPresentation,
    GradedComplex,
    GradedFreeModule,
    build_aci_complex,
    colon_generators,
    verify_complex,
)

__all__ = [
    "IntMultiset",
    "Poly",
    "PolyMatrix",
    "parse_poly",
    "parse_matrix",
    "variables",
    "AlternatingMatrix",
    "block_pfaffian",
    "congruence",
    "sign_bracket",
    "three_generator_embedding",
    "GorensteinBetti",
    "HilbertFn",
    "check_gorenstein_betti",
    "ci_index_sets",
    "hilbert_from_resolution",
    "hilbert_of_ci",
    "mci",
    "AciBetti",
    "AciDecomposition",
    "Verdict",
    "check_betti",
    "decompose",
    "enumerate_admissible",
    "induced_gorenstein",
    "link_betti",
    "AlternatingPresentation",
    "GradedComplex",
    "GradedFreeModule",
    "build_aci_complex",
    "colon_generators",
    "verify_complex",
]

__version__ = "0.1.0"
