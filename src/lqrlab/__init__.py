"""Finite-horizon noisy LQR: exact and model-free policy optimization,
optimal liquidation, order-book execution, and a tabular Q-learning baseline."""

__version__ = "0.1.0"

from .core import (
    CovarianceProfile,
    InitialStateModel,
    LqrInstance,
    NoiseModel,
    RiccatiSolution,
    Trajectory,
    ValueBackup,
    backup_value,
    constant_instance,
    covariance_profile,
    exact_cost,
    exact_gradient,
    make_rng,
    operator_decomposition,
    pathwise_cost_terms,
    simulate_trajectory,
    solve_riccati,
)
from .optimize import (
    DescentConfig,
    DescentTrace,
    ProjectionSet,
    normalized_error,
    run_exact_pg,
    run_exact_ppg,
)
from .zeroth import (
    LqrSimulator,
    SmoothingConfig,
    estimate_gradient,
    run_modelfree_pg,
    run_modelfree_ppg,
    sample_sphere,
    sample_sphere_batch,
    smoothed_gradient_reference,
)
from .liquidation import (
    AcParams,
    ExecutionRecord,
    LobSeries,
    LobSnapshot,
    SyntheticBookConfig,
    ac_to_lqr,
    almgren_chriss_reference,
    estimate_impact_params,
    estimate_temporary_impact,
    liquidation_constraint,
    liquidation_cost,
    simulate_lob,
    synthetic_lob,
    walk_the_book,
)
from .qlearn import QTable, greedy_policy_cost, make_qtable, q_learning_step
