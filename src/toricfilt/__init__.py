"""Exact-arithmetic toolkit for torus-equivariant principal-bundle data on
toric fans: filtration calculus with per-cone compatibility certificates,
transition gluing checks, truncated coordinate-algebra axioms, and reduction
of structure group."""

from .algebras import (
    TruncatedAlgebra,
    build_truncation,
    check_coaction_commutes,
    check_compatible_algebra,
    check_multiplicative,
)
from .bundles import (
    CocharBundleData,
    GluingReport,
    GroupSpec,
    RayConsistencyError,
    associated_klyachko,
    check_gluing,
    determinant_data,
    validate_bundle,
)
from .compatibility import (
    ConeCompatibility,
    ConeDecomposition,
    GlobalCompatibilityReport,
    Refutation,
    cone_compatibility,
    global_compatibility,
    verify_cone_decomposition,
)
from .errors import InputError, PreconditionError
from .fans import (
    CharQuotient,
    Cone,
    Fan,
    NotPointedError,
    cone_from_generators,
    cone_intersection,
    validate_fan,
)
from .filtrations import (
    FiltrationData,
    RayFiltration,
    check_morphism,
    direct_sum,
    dual,
    morphism_failure,
    tensor,
    validate,
)
from .linalg import (
    QMatrix,
    Subspace,
    annihilator,
    complement_in,
    intersect,
    span_canonical,
    subspace_sum,
)
from .reduction import (
    SlReductionResult,
    TorusReductionResult,
    check_sl_reduction,
    check_torus_reduction,
)

__version__ = "0.1.0"
