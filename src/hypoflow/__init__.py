"""Phase-space kinetic simulator with entropy-dissipation diagnostics,
decay-rate certificates and a numerical verifier for the underlying
differential identities."""

__version__ = "0.1.0"

from .certificate import (
    CertificateParams,
    ConstantEstimate,
    FeasibilityReport,
    certify,
    estimate_functional_constant,
    optimize_rate,
    paper_constants_bgk,
    paper_constants_fp,
)
from .functionals import (
    BOLTZMANN,
    FunctionalReport,
    PIndex,
    build_report,
    composite_report,
    correction_weight,
    entropy,
    torus_entropy,
    torus_fisher,
)
from .initial import (
    cosine,
    equilibrium,
    random_band_limited,
    velocity_perturbation,
)
from .integrator import (
    Schedule,
    SimulationError,
    Trajectory,
    load_trajectory,
    save_trajectory,
    simulate,
)
from .operators import (
    BGK,
    CollisionKind,
    FokkerPlanck,
    Transport,
    collision_flow,
    transport_flow,
    transport_generator,
)
from .phase_space import (
    Grid,
    GridSpec,
    PositivityError,
    State,
    build_grid,
    integrate_mu,
    load_state,
    project_pi,
    save_state,
)
from .verifier import (
    DecayFit,
    LemmaCheckResult,
    check_lemma_table,
    check_mixed_term,
    check_projection_inequalities,
    fit_decay,
    report_derivatives,
    run_suite,
)
