"""Finite-difference calculus and pointwise Sobolev inequality checks.

The package splits into a thin stack of layers:

``fields``
    analytic test fields (polynomial, Gaussian, power, sinusoid), their
    partial derivatives and derivatives along lines, grid sampling, and
    derivative magnitudes on grids;
``differences``
    forward differences, Lagrange interpolation and its remainder, and
    the quadrature form of the difference as an integral of a derivative;
``maximal``
    ball and lens volumes, the segment ratio constant, and discrete
    local maximal functions of sampled fields on a ladder of radii;
``mollify``
    mollification kernels, discrete convolution, and Young inequality
    checks;
``verify``
    pair sampling, inequality scan drivers, and machine-readable
    reports.

Everything numerical is vectorized over numpy arrays; the scalar paths
for polynomial fields are exact, in integers at a common dyadic scale
rounded once, so the algebraic identities hold to the last bit.
"""

from .differences import (
    QuadratureRule,
    binomial,
    forward_difference,
    g_integral,
    g_sum,
    irwin_hall_density,
    lagrange_interpolant,
    lagrange_remainder,
    taylor_remainder,
    telescope_residual,
)
from .exceptions import (
    ConfigError,
    DegeneratePairError,
    DomainError,
    EmptyScanError,
    UnsupportedOrderError,
)
from .fields import (
    AnalyticField,
    GaussianField,
    GridSpec,
    PolynomialField,
    PowerField,
    SampledField,
    SinusoidField,
    default_directions,
    evaluate,
    gradient_magnitude_field,
    parse_field,
    random_polynomial,
    sample,
    scan_corpus,
)
from .maximal import (
    MaximalConfig,
    ball_averages,
    ball_volume,
    default_radii,
    ladder_config,
    lens_volume,
    local_maximal_function,
    segment_ratio_constant,
)
from .mollify import (
    Mollifier,
    YoungReport,
    convolve,
    default_epsilons,
    lp_norm,
    young_check,
)
from .verify import (
    Box,
    Domain,
    InequalityReport,
    PairBatch,
    PairSampler,
    all_node_coefficient,
    build_report,
    hatl_scan,
    identity_suite,
    lemma1_scan,
    main_inequality_scan,
    mollified_scan,
    node_discard_check,
    quasinorm_upper,
    triebel_scan,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticField",
    "Box",
    "ConfigError",
    "DegeneratePairError",
    "Domain",
    "DomainError",
    "EmptyScanError",
    "GaussianField",
    "GridSpec",
    "InequalityReport",
    "MaximalConfig",
    "Mollifier",
    "PairBatch",
    "PairSampler",
    "PolynomialField",
    "PowerField",
    "QuadratureRule",
    "SampledField",
    "SinusoidField",
    "UnsupportedOrderError",
    "YoungReport",
    "all_node_coefficient",
    "ball_averages",
    "ball_volume",
    "binomial",
    "build_report",
    "convolve",
    "default_directions",
    "default_epsilons",
    "default_radii",
    "evaluate",
    "forward_difference",
    "g_integral",
    "g_sum",
    "gradient_magnitude_field",
    "hatl_scan",
    "identity_suite",
    "irwin_hall_density",
    "ladder_config",
    "lagrange_interpolant",
    "lagrange_remainder",
    "lemma1_scan",
    "lens_volume",
    "local_maximal_function",
    "lp_norm",
    "main_inequality_scan",
    "mollified_scan",
    "node_discard_check",
    "parse_field",
    "quasinorm_upper",
    "random_polynomial",
    "sample",
    "scan_corpus",
    "segment_ratio_constant",
    "taylor_remainder",
    "telescope_residual",
    "triebel_scan",
    "young_check",
]
