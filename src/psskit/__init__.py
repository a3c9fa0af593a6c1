"""psskit: exact rational analysis of positive spanning structure.

Finite sets of nonzero rational vectors are classified by exact
arithmetic: simplex sub-bases, positive bases via the span-intersection
factorization test, the boolean lattice of positively spanning subsets,
maximal pointed-cone frames, conical decompositions and Gale diagrams.
"""

from .errors import (
    DimensionMismatchError,
    DuplicateVectorError,
    PreconditionError,
    PropertyViolation,
    PssKitError,
    VectorInputError,
    ZeroVectorError,
)
from .ratlin import (
    FeasWitness,
    QVec,
    kernel_basis,
    rank,
    solve_nonneg,
    strict_separator,
)
from .spanset import (
    DependenceReport,
    SpanPoint,
    VecSet,
    caratheodory_reduce,
    core_contains,
    extract_positive_basis,
    in_rint_positive_span,
    is_positive_basis,
    is_pss,
    linearly_dependent,
    negatively_independent,
    positively_dependent,
    replace_element,
    skeleton_contains,
)
from .simplicial import (
    BasisDecomposition,
    FactorizationReport,
    ReayPartition,
    Simplex,
    SwapReport,
    basis_decomposition,
    enumerate_simplices,
    factorization_condition,
    is_simplex,
    reay_partition,
    sxy_classify,
)
from .latticemod import LatticeElement, SpanLattice, build_lattice
from .conical import (
    ConeCover,
    ConeFrame,
    FrameRestriction,
    MainBoundsReport,
    cone_decomposition,
    enumerate_mns,
    is_cross,
    max_disjoint_family,
    restrict_frames,
    verify_main_bounds,
)
from .gale import (
    Dependency,
    GaleDiagram,
    GaleReport,
    characteristic_basis,
    dependency_basis,
    gale_diagram,
    is_locally_equilibrated,
    nonneg_dependency_basis,
    verify_gale_theorem,
)
from .genlib import (
    AntichainSpec,
    example_x9,
    make_cross,
    make_from_antichain,
    make_simplex,
    polygon_example,
    random_positive_basis,
)
from .suite import SuiteCheck, run_property_suite, suite_passed

__version__ = "0.1.0"
