"""Exact quasimorphism probes on free and free-by-abelian groups.

The package computes homogenizations, defect bounds, approximate-kernel
certificates, Rips connectivity profiles, value-constrained path
searches with peak reduction, and windowed boundary solves, all in
exact arithmetic over Q(sqrt(d)), and emits machine-checkable reports.
"""

from .errors import (
    CapExceededError,
    ConfigError,
    ExtractionError,
    LibraryIncompleteError,
    ModelMismatchError,
    QmprobeError,
    ReplayError,
)
from .exact import ExactReal, ONE, ZERO
from .groups import Generator, GroupElement, GroupModel, commutator
from .paths import Path, path_from_letters, phi_extrema, straight_path
from .quasimorphisms import (
    AkerCertificate,
    BrooksQM,
    CombinationQM,
    DefectEstimate,
    HomogenizedQM,
    HomomorphismQM,
    certify_aker_approximate_subgroup,
    defect_lower_bound,
)
from .rips import RipsGraph, build_rips, components, connectivity_profile
from .search import (
    ConstantsBundle,
    NotFoundWithinBall,
    PathWitness,
    QLibrary,
    bounded_path_search,
    build_q_library,
    compute_constants,
    f2z_kernel_path_normalize,
    free_group_obstruction_probe,
    peak_reduction,
)
from .novikov import (
    CayleyComplex,
    WindowedChain,
    build_zs_cycle,
    keep_negative_and_extract_path,
    ray_cycle,
    windowed_boundary_solve,
)

__version__ = "0.1.0"
