"""Exact certificates for algebra-level Anosov actions.

Everything is computed over the rationals: Lie algebra structure theory
(series, radical, nilradical, Levi part, Cartan subalgebras), exact root
counting relative to the imaginary axis, restricted root systems with
Weyl chambers, and the Anosov acceptance test with machine-checkable
stable/unstable certificates, classification, and nil-suspension
analysis.
"""

from .algebra import (
    AlgebraError,
    LieAlgebra,
    Quotient,
    StructureError,
    Subalgebra,
    Subspace,
    ValidationError,
    as_subalgebra,
    bracket_space,
    center,
    centralizer,
    derived_series,
    direct_sum,
    full_space,
    is_nilpotent,
    is_solvable,
    killing_form,
    levi_decomposition,
    lie_algebra_from_matrices,
    lower_central_series,
    nilradical,
    normalizer,
    quotient_by_ideal,
    radical,
    zero_space,
)
from .anosov import (
    ActionSpec,
    AnosovCertificate,
    AnosovRefusal,
    ClassificationReport,
    Inconclusive,
    NilSuspensionReport,
    action_csa,
    check_anosov,
    classify,
    codimension,
    derived_ideal_check,
    find_anosov_elements,
    is_codimension_one,
    nil_suspension_check,
    simplification,
    splitting_invariance,
)
from .builders import (
    CATALOG,
    ExampleDescriptor,
    build_central_extension,
    build_example,
    build_heisenberg_starkov,
    build_modified_weyl,
    build_sl2_geodesic,
    build_so13_frame_flow,
    build_so13_geodesic,
    build_suspension,
    build_wedge_example,
    build_weyl_chamber,
    catalog_names,
)
from .cartan import (
    Chamber,
    ChamberSet,
    EllipticityReport,
    RootInfo,
    RootSystem,
    cartan_subspace,
    compact_levi_split,
    csa_from_action,
    ellipticity_proxy,
    engel_subalgebra,
    find_csa,
    hyperbolic_part,
    is_ad_hyperbolic,
    is_csa,
    is_hyperbolic_csa,
    restricted_roots,
    split_hyperbolic_csa,
    weyl_chambers,
)
from .documents import (
    AlgebraDocument,
    DocumentError,
    action_to_document,
    algebra_to_document,
    document_to_action,
    document_to_algebra,
    parse_document,
    serialize_document,
)
from .poly import RationalPolynomial, RootSignCount, root_sign_counts
from .spectral import (
    JordanChevalley,
    char_poly,
    invariant_splitting,
    is_hyperbolic,
    jordan_chevalley,
    spectral_gap,
)

__version__ = "0.1.0"
