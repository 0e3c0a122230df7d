"""Difference-set local properties toolkit.

Exact-arithmetic classification of k-configurations of difference equalities
(validity, collinearity, c-lightness, certified pairs, stars), minimal
implication structure checks, progression-free set constructions with a
randomized alteration step, local-property verification, and desk-scale
scans that reproduce the extremal certified-pair bounds.
"""

__version__ = "0.1.0"

from . import harness  # loaded so that the benchmark's tracer finds it
from .configuration import DifferenceEquality, KConfiguration, from_equalities, from_points
from .constructions import SetArtifact, behrend_auto, behrend_set, random_local_set
from .goodness import PAPER_C, GoodnessReport, is_c_good, largest_star
from .lemmas import lemma_property_suite
from .scan import odd_equality_case, scan_ground, star_bound_check
from .verifier import check_local_property, cross_check, difference_set

__all__ = [
    "DifferenceEquality",
    "KConfiguration",
    "from_equalities",
    "from_points",
    "SetArtifact",
    "behrend_auto",
    "behrend_set",
    "random_local_set",
    "GoodnessReport",
    "is_c_good",
    "largest_star",
    "PAPER_C",
    "lemma_property_suite",
    "odd_equality_case",
    "scan_ground",
    "star_bound_check",
    "check_local_property",
    "cross_check",
    "difference_set",
    "__version__",
]
