"""Sobolev mapping groups on the circle and torus, at desk scale.

Band-limited fractional Sobolev calculus, chart-wise sections over small
atlases, pointwise matrix-group operations, exponent ladders with compact
inclusions, the right-translation evolution equation, and inner-normal
domain flows, with a CLI for reproducible experiment runs.
"""

from .atlas import (
    Atlas,
    AtlasReport,
    Chart,
    builtin_atlas,
    circle_two_charts,
    torus_four_charts,
    validate_atlas,
    wrap_angle,
)
from .axioms import AxiomCheck, run_axiom_suite
from .cutoffs import SmoothCutoff, bump_profile, cutoff_multiply, smooth_step
from .domains import (
    FlowField,
    LevelSetDomain,
    ShrinkCertificate,
    boundary_samples,
    descent_and_shrink,
    disc,
    domain_by_name,
    ellipse,
    flow,
    monotone_descent_check,
    peanut,
    shrink_domain,
)
from .errors import (
    AliasingError,
    ChartDomainError,
    CoverageError,
    EmptyMaskError,
    IncompatibleSectionError,
    InputError,
    NumericError,
    ShapeMismatchError,
    SolverError,
    SupportError,
)
from .fields import (
    BandlimitedField,
    GridDomain,
    SampledField,
    extend_by_zero,
    random_field,
    restrict_sampled,
    sample,
    synthesize,
)
from .groups import (
    AlgebraSection,
    GroupSection,
    MatrixGroup,
    adjoint_operator,
    bch_order2_probe,
    bch_residual,
    bracket,
    bracket_from_products,
    exp_section,
    group_by_name,
    group_invert,
    group_multiply,
    identity_group_section,
    log_section,
    random_algebra_section,
    so3,
    su2_real,
    upper_triangular2,
)
from .limits import (
    RungCompactnessReport,
    SobolevLadder,
    TimeSampledCurve,
    constant_curve,
    critical_order_estimate,
    decay_partial_norm_sq,
    evolution_smoothness_probe,
    evolve,
    ladder,
    rung_compactness_probe,
)
from .maps import (
    Diffeo,
    compose_maps,
    nemytskij,
    pullback,
    torus_translation,
)
from .sections import (
    Section,
    compatibility_defect,
    glue,
    hilbert_inner,
    point_eval,
    pushforward,
    pushforward_derivative,
    random_section,
    section_from_function,
    theta_embed,
)
from .sobolev import (
    CONVENTION_TAGS,
    CONVENTIONS,
    extension_probe,
    group_norms,
    hs_inner,
    hs_norm,
    hs_norms,
    min_norm_extension,
    mode_weights,
    rellich_spectrum,
    restriction_kernel_basis,
)

__version__ = "0.1.0"
