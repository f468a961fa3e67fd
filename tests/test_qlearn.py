import statistics
import tracemalloc
import warnings

import numpy as np
import pytest

from lqrlab import (
    InitialStateModel,
    NoiseModel,
    constant_instance,
    make_rng,
    solve_riccati,
)
from lqrlab.benchmarks import scalar_benchmark
from lqrlab import qlearn
from lqrlab.qlearn import QTable, greedy_policy_cost, make_qtable, q_learning_step


def noiseless_scalar(T=3):
    return constant_instance(
        np.eye(1), 0.5 * np.eye(1), 0.8 * np.eye(1), 0.3 * np.eye(1), 0.6 * np.eye(1),
        T, NoiseModel("zero"), InitialStateModel("point", np.array([0.5])),
    )


class TestTable:
    def test_terminal_layer_fixed(self):
        inst = noiseless_scalar()
        tab = make_qtable(inst, n_states=11, n_actions=5)
        np.testing.assert_allclose(tab.q[-1], np.tile((tab.x_grid**2 * 0.6)[:, None], (1, 5)))
        tab2 = q_learning_step(tab, inst, lr=0.5, seed=0)
        np.testing.assert_array_equal(tab2.q[-1], tab.q[-1])

    def test_snap(self):
        tab = make_qtable(noiseless_scalar(), n_states=5, n_actions=3)
        # grid is [-1, -0.5, 0, 0.5, 1]
        np.testing.assert_array_equal(tab.snap(np.array([-2.0, -0.3, 0.26, 5.0])), [0, 1, 3, 4])

    def test_snap_clamps_states_past_the_int_range(self):
        # the index used to be cast to int before the clamp, so these snapped
        # to bin 0 with "invalid value encountered in cast"
        tab = make_qtable(noiseless_scalar(), n_states=5, n_actions=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = tab.snap(np.array([-5.0, 1e19, 1e300, np.inf]))
        np.testing.assert_array_equal(idx, [0, 4, 4, 4])

    def test_clamp_count(self):
        inst = noiseless_scalar(T=1)
        tab = make_qtable(inst, n_states=3, n_actions=3)
        # x' = x + 0.5 u over grid {-1,0,1} x {-1,0,1}: only (1, 1) -> 1.5
        # and (-1, -1) -> -1.5 leave the grid
        tab2 = q_learning_step(tab, inst, lr=1.0, seed=0)
        assert tab2.clamp_count == 2

    def test_lr_zero_is_identity(self):
        inst = scalar_benchmark()
        tab = make_qtable(inst, n_states=9, n_actions=9)
        tab2 = q_learning_step(tab, inst, lr=0.0, seed=1)
        np.testing.assert_array_equal(tab2.q, tab.q)

    @pytest.mark.parametrize("lr", [-1.0, -1e-12, 1.0 + 1e-12, 5.0, np.nan, np.inf])
    def test_rejects_step_sizes_outside_the_unit_interval(self, lr):
        inst = noiseless_scalar()
        with pytest.raises(ValueError, match="lr must be in"):
            q_learning_step(make_qtable(inst, n_states=5, n_actions=3), inst, lr, seed=0)

    def test_lr_one_noiseless_hits_bellman_target(self):
        # with lr = 1 and no noise a sweep writes the exact snapped Bellman
        # backup, so a second sweep is a fixed point
        inst = noiseless_scalar()
        tab = make_qtable(inst, n_states=21, n_actions=11)
        t1 = q_learning_step(tab, inst, lr=1.0, seed=0)
        t2 = q_learning_step(t1, inst, lr=1.0, seed=0)
        np.testing.assert_allclose(t2.q, t1.q, atol=1e-12)

    def test_greedy_tie_break_prefers_small_action(self):
        tab = QTable(
            x_grid=np.linspace(-1, 1, 3),
            u_grid=np.linspace(-1, 1, 5),
            q=np.zeros((2, 3, 5)),  # all ties
        )
        idx = tab.greedy_indices()
        np.testing.assert_array_equal(tab.u_grid[idx], np.zeros((1, 3)))


class TestLearning:
    def test_noiseless_converges_to_near_optimal(self):
        inst = noiseless_scalar(T=3)
        tab = make_qtable(inst, n_states=41, n_actions=41)
        for j in range(5):
            tab = q_learning_step(tab, inst, lr=1.0, seed=j)
        cstar = solve_riccati(inst).optimal_cost
        got = greedy_policy_cost(tab, inst, n_rollouts=1, seed=0)
        assert got <= 1.05 * cstar

    def test_noisy_benchmark_smoke(self):
        inst = scalar_benchmark()
        tab = make_qtable(inst, n_states=61, n_actions=61)
        for j in range(300):
            tab = q_learning_step(tab, inst, lr=0.1, seed=j)
        cstar = solve_riccati(inst).optimal_cost
        got = greedy_policy_cost(tab, inst, n_rollouts=200_000, seed=123)
        assert got <= 1.6 * cstar
        assert tab.clamp_count > 0

    def test_greedy_cost_draws_the_instance_noise_kind(self):
        # x0 = 0 and the untrained table plays u = 0, so the cost is w^2 with
        # w drawn from the instance's uniform noise, sqrt(3) (2 Phi(z) - 1)
        # of the stream's first normal z, never above (sqrt(3) * 0.5)^2
        inst = constant_instance(
            np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), 1,
            NoiseModel("uniform", 0.5), InitialStateModel("point", np.zeros(1)),
        )
        got = greedy_policy_cost(make_qtable(inst, 11, 11), inst, n_rollouts=1, seed=7)
        u = np.sqrt(3.0) * (2 * statistics.NormalDist().cdf(make_rng(7).standard_normal()) - 1)
        expected = (0.5 * u) ** 2
        assert got == pytest.approx(expected, rel=1e-12)
        assert got <= (np.sqrt(3.0) * 0.5) ** 2


def one_pass_greedy_cost(table, instance, n_rollouts, seed):
    """greedy_policy_cost as one pass over all rollouts a step: whole-array
    temporaries, one sample call a step, the same draws."""
    a, b = float(instance.A[0, 0]), float(instance.B[0, 0])
    qcoef, rcoef = instance.Q[:, 0, 0], instance.R[:, 0, 0]
    greedy = table.greedy_indices()
    rng = make_rng(seed)
    x = instance.init.sample(rng, (n_rollouts,), 1)[:, 0]
    cost = np.zeros(n_rollouts)
    for t in range(instance.T):
        u = table.u_grid[greedy[t][table.snap(x)]]
        cost += x**2 * qcoef[t] + u**2 * rcoef[t]
        x = a * x + b * u
        x += instance.noise.sample(rng, (n_rollouts,), 1)[:, 0]
    cost += x**2 * qcoef[instance.T]
    return float(cost.mean())


def trained_table(init_kind, noise_kind):
    inst = constant_instance(
        [[0.9]], [[0.5]], [[0.2]], [[0.1]], [[0.4]], 5,
        NoiseModel(noise_kind, 0.3), InitialStateModel(init_kind, [0.2], 0.4),
    )
    table = make_qtable(inst, 21, 11)
    for sweep in range(3):
        table = q_learning_step(table, inst, 0.5, (13, sweep))
    return table, inst


class TestBlockedEvaluation:
    B = qlearn._BLOCK

    @pytest.mark.parametrize("init_kind", ["gaussian", "uniform", "point"])
    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform", "zero"])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 5])
    def test_blocks_equal_one_pass(self, init_kind, noise_kind, n):
        table, inst = trained_table(init_kind, noise_kind)
        assert greedy_policy_cost(table, inst, n, (17, 1)) == one_pass_greedy_cost(table, inst, n, (17, 1))

    def test_traced_peak_is_two_doubles_a_rollout_plus_a_block(self):
        # the one-pass evaluation peaks at 5.0 doubles a rollout
        n = 200_000
        inst = scalar_benchmark()
        table = q_learning_step(make_qtable(inst, 100, 100), inst, 0.1, 0)
        greedy_policy_cost(table, inst, 10, 0)
        tracemalloc.start()
        try:
            greedy_policy_cost(table, inst, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * 8
