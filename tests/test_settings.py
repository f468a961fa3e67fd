"""Every number a user sets goes through one check (core._number): a real
number that is not a bool, finite unless a bound is infinite, and in range,
or an integer that is not a bool; anything else raises ValueError naming the
setting."""

import numpy as np
import pytest

from lqrlab import (
    AcParams,
    DescentConfig,
    InitialStateModel,
    LobSnapshot,
    NoiseModel,
    ProjectionSet,
    SmoothingConfig,
    SyntheticBookConfig,
    constant_instance,
    estimate_temporary_impact,
    greedy_policy_cost,
    make_qtable,
    q_learning_step,
    simulate_lob,
    smoothed_gradient_reference,
    synthetic_lob,
    walk_the_book,
)
from lqrlab.benchmarks import scalar_benchmark

AC = dict(beta=2e-6, gamma=1e-6, sigma=0.1, phi=1e-6, epsilon=1e-8, T=3)
BOOK = synthetic_lob(SyntheticBookConfig(T=3, depth_mean=1000.0), 0)


def _ac(name):
    return lambda v: AcParams(**AC | {name: v})


def _book(name):
    return lambda v: SyntheticBookConfig(**{"T": 3, name: v})


def _qtable():
    return make_qtable(scalar_benchmark(), 5, 3)


def _noise_sigma(v):
    return constant_instance([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], 2, NoiseModel("gaussian", v),
                             InitialStateModel("point", np.ones(1)))


# (name in the message, build(value), a value that passes, one out of range or
# None, whole: an integer setting, unbounded: +-inf pass)
SETTINGS = [
    ("eta", lambda v: DescentConfig(eta=v, iters=1), 1, 0, False, False),
    ("iters", lambda v: DescentConfig(eta=1.0, iters=v), 1, -1, True, False),
    ("target_error", lambda v: DescentConfig(eta=1.0, iters=1, target_error=v), 1, None, False, False),
    ("smoothing radius", lambda v: SmoothingConfig(radius=v, samples=1), 1, -0.1, False, False),
    ("smoothing samples", lambda v: SmoothingConfig(radius=0.1, samples=v), 1, 0, True, False),
    ("slot t", lambda v: smoothed_gradient_reference(scalar_benchmark(), np.zeros((5, 1, 1)), v, 0.1, 3, 0),
     1, 5, True, False),
    ("constraint.lo", lambda v: ProjectionSet("box", lo=v), 0, None, False, True),
    ("constraint.hi", lambda v: ProjectionSet("box", hi=v), 0, None, False, True),
    ("constraint.gamma_bar", lambda v: ProjectionSet("liquidation", gamma_bar=v), 1, None, False, False),
    ("constraint.zeta", lambda v: ProjectionSet("liquidation", gamma_bar=1.0, zeta=v), 0, None, False, False),
    *[(f"ac.{n}", _ac(n), 1, -1e-9, False, False) for n in ("beta", "sigma", "phi", "epsilon", "q0_std")],
    ("ac.gamma", _ac("gamma"), 0, -1e-9, False, False),
    *[(f"ac.{n}", _ac(n), 1, None, False, False) for n in ("S0", "q0_mean")],
    ("ac.T", _ac("T"), 1, 0, True, False),
    *[(f"book.{n}", _book(n), 1, 0, True, False) for n in ("T", "levels")],
    *[(f"book.{n}", _book(n), 1, 0, False, False) for n in ("tick", "depth_mean", "mid0")],
    ("book.sigma_mid", _book("sigma_mid"), 0, -0.1, False, False),
    ("n_states", lambda v: make_qtable(scalar_benchmark(), v, 3), 2, 1, True, False),
    ("n_actions", lambda v: make_qtable(scalar_benchmark(), 5, v), 1, 0, True, False),
    ("lr", lambda v: q_learning_step(_qtable(), scalar_benchmark(), v, 0), 1, 1.5, False, False),
    ("n_rollouts", lambda v: greedy_policy_cost(_qtable(), scalar_benchmark(), v, 0), 1, 0, True, False),
    ("phi_prime", lambda v: simulate_lob(BOOK, np.zeros(3), v, 100.0), 0, None, False, False),
    ("q0", lambda v: simulate_lob(BOOK, np.zeros(3), 0.0, v), 100, -1.0, False, False),
    ("spread", lambda v: estimate_temporary_impact(v, 100.0), 1, 0, False, False),
    ("avg_queue", lambda v: estimate_temporary_impact(0.02, v), 100, None, False, False),
    ("order size", lambda v: walk_the_book(LobSnapshot([200.0], [10.0]), v), 1, -1.0, False, False),
    ("noise.sigma", _noise_sigma, 1, None, False, False),
]
IDS = [row[0] for row in SETTINGS]


@pytest.mark.parametrize("name,build,good,bad,whole,unbounded", SETTINGS, ids=IDS)
def test_rejects_what_is_not_a_number_in_range(name, build, good, bad, whole, unbounded):
    values = [True, "1.0", np.nan] + [None] * (name != "target_error")  # whose default None sets no target
    values += [np.inf, -np.inf] * (not unbounded) + [bad] * (bad is not None)
    values += [good + 0.5, np.float64(good)] if whole else []
    for value in values:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            build(value)


@pytest.mark.parametrize("name,build,good,bad,whole,unbounded", SETTINGS, ids=IDS)
def test_accepts_numpy_scalars(name, build, good, bad, whole, unbounded):
    build(good)
    build(np.int64(good))
    if not whole:
        build(np.float64(good))
    if unbounded:
        build(np.inf)
        build(-np.inf)
