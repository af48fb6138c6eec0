"""Mirror-corrected kernel U-statistic estimation of Sobol' sensitivity indices."""

from .bandwidth import (
    bandwidth_curve,
    default_grid,
    rule_of_thumb_h0,
)
from .density import (
    DensityEstimate,
    beta_moment_estimator,
    mirror_kde,
    uniform_max_estimator,
)
from .domain import Domain, check_mirror_condition
from .errors import (
    BandwidthTooLargeError,
    DegenerateOutputError,
    DomainViolationError,
    InsufficientSampleError,
    MirrorSobolError,
    PilotTargetError,
    SingularDensityError,
)
from .estimator import (
    EstimateResult,
    FullSample,
    SubsetSpec,
    default_bandwidth,
    estimate_first_order_all,
    estimate_sobol,
    estimate_t,
    estimate_total_sobol,
)
from .inputs import Beta, InputModel, Uniform, input_model_from_json
from .kernels import build_kernel
from .testbed import builtin_models, model_by_name

__version__ = "0.1.0"

__all__ = [
    "bandwidth_curve",
    "default_grid",
    "rule_of_thumb_h0",
    "DensityEstimate",
    "beta_moment_estimator",
    "mirror_kde",
    "uniform_max_estimator",
    "Domain",
    "check_mirror_condition",
    "BandwidthTooLargeError",
    "DegenerateOutputError",
    "DomainViolationError",
    "InsufficientSampleError",
    "MirrorSobolError",
    "PilotTargetError",
    "SingularDensityError",
    "EstimateResult",
    "FullSample",
    "SubsetSpec",
    "default_bandwidth",
    "estimate_first_order_all",
    "estimate_sobol",
    "estimate_t",
    "estimate_total_sobol",
    "Beta",
    "InputModel",
    "Uniform",
    "input_model_from_json",
    "build_kernel",
    "builtin_models",
    "model_by_name",
    "__version__",
]
