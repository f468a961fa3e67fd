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

    def test_csv_dump(self, tmp_path):
        inst = noiseless_scalar(T=1)
        tab = make_qtable(inst, n_states=3, n_actions=2)
        path = tmp_path / "qtable.csv"
        tab.to_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.shape[0] == 2 * 3 * 2


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
        # w drawn from the instance's uniform noise, never above (sqrt(3) * 0.5)^2
        inst = constant_instance(
            np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), 1,
            NoiseModel("uniform", 0.5), InitialStateModel("point", np.zeros(1)),
        )
        got = greedy_policy_cost(make_qtable(inst, 11, 11), inst, n_rollouts=1, seed=7)
        expected = (0.5 * make_rng(7).uniform(-np.sqrt(3.0), np.sqrt(3.0), 1)[0]) ** 2
        assert got == pytest.approx(expected, rel=1e-12)
        assert got <= (np.sqrt(3.0) * 0.5) ** 2
