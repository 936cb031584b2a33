"""heatlab: heat kernels, Green functions and criticality on weighted graphs."""

from .domains import (
    DomainFixture,
    Exhaustion,
    IndexedSubdomain,
    WeightedDomain,
    build_lattice_1d,
    build_radial,
    closed_path_domain,
    fixture,
    load_edge_list,
    restrict,
    single_vertex_domain,
)
from .errors import (
    HeatLabError,
    InconclusiveError,
    NegativeLambda0Error,
    NoSignChangeError,
    NumericalError,
    QuadratureError,
    ValidationError,
)
from .kernels import (
    HeatKernelEvaluator,
    LimitResult,
    LimitStatus,
    green_finite,
    heat_kernel_finite,
    heat_matrix_finite,
)
from .criticality import (
    Classification,
    CouplingResult,
    CriticalityReport,
    Lambda0Result,
    PerturbationIntegralSeries,
    classify,
    critical_coupling,
    edge_weight_domination,
    ground_state,
    ground_state_green_comparison,
    lambda0,
    lambda0_log_estimate,
    perturbation_integrals,
)
from .experiments import (
    RatioSeries,
    ScenarioConfig,
    SeriesStatus,
    conjecture_ratio_series,
    davies_ratio_series,
    resolvent_limit,
    run_scenario,
    theorem_limit_series,
    time_shift_ratio_series,
)
from .perturbation import (
    ConvexityReport,
    EquivalenceReport,
    IteratedKernelStack,
    ThreeKResult,
    convexity_check,
    duhamel_residual,
    equivalence_check,
    first_layer_spectral,
    iterated_kernel,
    neumann_heat_kernel,
    three_k_constant,
)
from .operators import (
    EllipticOperator,
    Potential,
    add_potential,
    adjoint,
    assemble,
    inner_product,
    quadratic_form,
    shift,
)

__version__ = "0.1.0"
