"""Online gradient learning for parameterized dynamical systems.

Library map:
  dynamics     systems T_t, losses, trajectories, example factory
  rtrl         forward-mode learner, open-loop gradients, deviation
  rankone      sign-based rank-one Jacobian reductions and their errors
  tbptt        growing-truncation interval learning (adjoint pass)
  updates      update rules, parameter-update operators, stability algebra
  schedules    step-size schedules, sampling schemes, exponent validation
  diagnostics  runtime checkers for the convergence hypotheses
  harness      config-driven seeded experiments, CSV emission
"""

from .dynamics import (
    ConfigurationError,
    ContractViolation,
    InfluenceBalancing,
    LinearCoefficientLoss,
    LinearSystem,
    MomentumSystem,
    NonRecurrentRegression,
    NumericOverflow,
    RNNSystem,
    ResetWrapper,
    SquaredErrorLoss,
    System,
    TanhSystem,
    compound_loss,
    make_example,
    run_trajectory,
    step,
)
from .rankone import (
    RankOneInjector,
    RankOnePair,
    ZeroInjector,
    error_term,
    nbt_reduce,
    norm_equalize,
    sample_signs,
    uoro_reduce,
    verify_unbiased,
)
from .records import TrialRecord
from .rtrl import LearnerState, deviation, forward_step, open_loop_gradient, rtrl_step, run_learning
from .schedules import (
    ExponentProfile,
    StepSchedule,
    ergodic_exponent_estimate,
    moment_rate_range,
    validate_exponents,
)
from .tbptt import TruncationSchedule, bptt_interval_gradient, run_tbptt
from .updates import (
    AdaptiveRule,
    ClippedUpdate,
    PreconditionedRule,
    ProjectedUpdate,
    estimate_lambda,
    extended_hessian_fd,
    is_positive_stable,
    rule_adam,
    solve_lyapunov,
)
from .diagnostics import (
    HorizonCertificate,
    check_stability,
    convergence_detector,
    local_optimum_report,
    spectral_radius_horizon,
)

__version__ = "0.1.0"
