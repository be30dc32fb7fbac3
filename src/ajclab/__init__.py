"""Numerical lab for compatible almost complex structures on the flat
4-torus: pointwise 2-form algebra, spectral exterior calculus, cut-off
deformations, and two independent computations of the harmonic
anti-invariant dimension."""

from .config import LabConfig
from .cohomlab import (
    EllipticReport,
    GramReport,
    anti_invariant_frame,
    delta_j_estimate,
    elliptic_kernel_dim,
    gram_matrix,
    intersection_dim,
    select_null_form,
    v_measure,
)
from .fieldio import deserialize_field, serialize_field
from .hermitian import (
    AcsField,
    BumpSpec,
    DeformLog,
    HermitianTriple,
    deform_field,
    load_triple,
    one_bump_deform,
    random_compatible_acs,
    save_triple,
    standard_acs,
    two_stage_deform,
)
from .reporting import Check, ScenarioReport
from .torusfield import (
    GridSpec,
    OneFormField,
    ScalarField,
    ThreeFormField,
    TwoFormField,
    bump_cutoff,
    codiff_twoform,
    d_oneform,
    d_scalar,
    d_twoform,
    integrate,
    l2_inner,
    wedge_integral,
)

__version__ = "0.1.0"

__all__ = [
    "AcsField",
    "BumpSpec",
    "Check",
    "DeformLog",
    "EllipticReport",
    "GramReport",
    "GridSpec",
    "HermitianTriple",
    "LabConfig",
    "OneFormField",
    "ScalarField",
    "ScenarioReport",
    "ThreeFormField",
    "TwoFormField",
    "anti_invariant_frame",
    "bump_cutoff",
    "codiff_twoform",
    "d_oneform",
    "d_scalar",
    "d_twoform",
    "deform_field",
    "delta_j_estimate",
    "deserialize_field",
    "elliptic_kernel_dim",
    "gram_matrix",
    "integrate",
    "intersection_dim",
    "l2_inner",
    "load_triple",
    "one_bump_deform",
    "random_compatible_acs",
    "save_triple",
    "select_null_form",
    "standard_acs",
    "two_stage_deform",
    "v_measure",
    "wedge_integral",
]
