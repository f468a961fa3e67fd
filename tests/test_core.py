import dataclasses
import re
import statistics
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from lqrlab import (
    InitialStateModel,
    LqrInstance,
    NoiseModel,
    backup_value,
    constant_instance,
    covariance_profile,
    exact_cost,
    exact_gradient,
    operator_decomposition,
    simulate_trajectory,
    solve_riccati,
)
from lqrlab import core
from lqrlab.benchmarks import scalar_benchmark
from lqrlab.core import keyed_draws, keyed_paths, make_rng, pathwise_cost_terms, standard_draw
from lqrlab.errors import HorizonTooShort, NonPositiveDefinite
from lqrlab.zeroth import LqrSimulator

from conftest import random_instance, random_policy


def one_step_unit_instance():
    return constant_instance(
        np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), 1,
        NoiseModel("zero"), InitialStateModel("point", np.ones(1)),
    )


def scalar_riccati_oracle():
    """Independent scalar backward recursion for the 5-step test problem."""
    T, a, b = 5, 1.0, 0.2
    q = [0.2] * T + [0.4]
    r = [0.1 * (t + 1) for t in range(T)]
    P = [0.0] * (T + 1)
    K = [0.0] * T
    P[T] = q[T]
    for t in range(T - 1, -1, -1):
        g = r[t] + b * P[t + 1] * b
        K[t] = b * P[t + 1] * a / g
        P[t] = q[t] + a * P[t + 1] * a - a * P[t + 1] * b * K[t]
    return np.array(K), np.array(P)


class TestRiccati:
    def test_one_step_closed_form(self):
        sol = solve_riccati(one_step_unit_instance())
        assert sol.gains[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert sol.P[0, 0, 0] == pytest.approx(1.5, abs=1e-12)
        assert sol.optimal_cost == pytest.approx(1.5, abs=1e-12)

    def test_five_step_scalar_recursion(self):
        K_ref, P_ref = scalar_riccati_oracle()
        sol = solve_riccati(scalar_benchmark())
        np.testing.assert_allclose(sol.gains[:, 0, 0], K_ref, atol=1e-10)
        np.testing.assert_allclose(sol.P[:, 0, 0], P_ref, atol=1e-10)

    def test_optimal_gains_are_stationary(self, rng):
        inst = random_instance(rng)
        sol = solve_riccati(inst)
        grads = exact_gradient(inst, sol.gains)
        assert np.abs(grads).max() < 1e-9

    def test_riccati_cost_is_minimal(self, rng):
        inst = random_instance(rng)
        sol = solve_riccati(inst)
        for _ in range(10):
            K = sol.gains + random_policy(rng, inst, scale=0.05)
            assert exact_cost(inst, K) >= sol.optimal_cost - 1e-12

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1.0))
    def test_no_perturbed_gain_beats_riccati(self, seed, scale):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        sol = solve_riccati(inst)
        costs = exact_cost(inst, sol.gains + scale * rng.normal(size=(16, *sol.gains.shape)))
        assert costs.min() >= sol.optimal_cost - 1e-12 * abs(sol.optimal_cost)


def scalar_realized_costs(inst, K, x, w):
    """(n,) realized costs of rollouts of a scalar instance (d = k = 1) from
    start states x (n,) under noise w (n, T): simulate_trajectory's
    operations on every row at once, in its order."""
    a, b = inst.A[0, 0], inst.B[0, 0]
    cost = np.zeros(len(x))
    for t in range(inst.T):
        u = -K[t, 0, 0] * x
        cost += x * inst.Q[t, 0, 0] * x + u * inst.R[t, 0, 0] * u
        x = a * x + b * u + w[:, t]
    return cost + x * inst.Q[inst.T, 0, 0] * x


class TestBackup:
    def test_zero_policy_scalar_recursion(self):
        # with K = 0 and A = 1 the value recursion is P_t = Q_t + P_{t+1}
        bk = backup_value(scalar_benchmark(), np.zeros((5, 1, 1)))
        np.testing.assert_allclose(bk.P[:, 0, 0], [1.4, 1.2, 1.0, 0.8, 0.6, 0.4], atol=1e-14)
        assert bk.L[5] == 0.0

    def test_backup_at_optimum_matches_riccati(self, rng):
        inst = random_instance(rng)
        sol = solve_riccati(inst)
        bk = backup_value(inst, sol.gains)
        np.testing.assert_allclose(bk.P, sol.P, atol=1e-10)
        assert bk.cost == pytest.approx(sol.optimal_cost, rel=1e-12)

    def test_monte_carlo_cost(self):
        # the realized costs of simulate_trajectory(inst, K, [7, i]), i < 100000,
        # in one array pass over keyed paths, pinned bit for bit to the
        # per-trajectory loop on 1001 keys across the range
        inst = scalar_benchmark()
        K = np.zeros((5, 1, 1))
        exact = exact_cost(inst, K)
        n = 100000
        x0, w = keyed_paths(inst, [(7, i) for i in range(n)], np.zeros((1, 3)))
        costs = scalar_realized_costs(inst, K, x0[:, 0, 0], w[:, 0, :, 0])
        for i in np.linspace(0, n - 1, 1001).astype(int):
            assert _same_bits(costs[i], simulate_trajectory(inst, K, [7, int(i)]).realized_cost), i
        se = costs.std() / np.sqrt(costs.size)
        assert abs(costs.mean() - exact) < 3 * se


class TestGradient:
    def test_matches_finite_differences(self, rng):
        inst = random_instance(rng, d=3, k=2, T=4)
        K = random_policy(rng, inst)
        g = exact_gradient(inst, K)
        h = 1e-6
        for t in range(inst.T):
            for i in range(inst.k):
                for j in range(inst.d):
                    Kp = K.copy(); Kp[t, i, j] += h
                    Km = K.copy(); Km[t, i, j] -= h
                    fd = (exact_cost(inst, Kp) - exact_cost(inst, Km)) / (2 * h)
                    assert g[t, i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_error_terms_vanish_at_optimum(self, rng):
        inst = random_instance(rng)
        sol = solve_riccati(inst)
        _, E, _, _ = exact_gradient(inst, sol.gains, return_terms=True)
        assert np.abs(E).max() < 1e-9


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedEvaluation:
    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 9), d=st.integers(1, 4), k=st.integers(1, 2), T=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1), zero_noise=st.booleans())
    def test_batch_equals_per_policy_calls(self, n, d, k, T, seed, zero_noise):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, d=d, k=k, T=T, noise_sigma=0.0 if zero_noise else 0.4)
        K = rng.normal(size=(n, T, k, d)) * 0.4
        bk = backup_value(inst, K)
        costs = exact_cost(inst, K)
        grads = exact_gradient(inst, K)
        g, E, bk2, prof = exact_gradient(inst, K, return_terms=True)
        prof2 = covariance_profile(inst, K, warn_degenerate=False)
        assert bk.P.shape == (n, T + 1, d, d) and costs.shape == (n,) and prof.sigma_x.shape == (n,)
        for i in range(n):
            one = backup_value(inst, K[i])
            gi, Ei, bki, pi = exact_gradient(inst, K[i], return_terms=True)
            pi2 = covariance_profile(inst, K[i], warn_degenerate=False)
            pairs = [
                (bk.P[i], one.P), (bk.L[i], one.L), (bk.cost[i], one.cost), (costs[i], exact_cost(inst, K[i])),
                (grads[i], exact_gradient(inst, K[i])), (g[i], gi), (E[i], Ei), (bk2.cost[i], bki.cost),
                (prof.sigmas[i], pi.sigmas), (prof.sigma_x[i], pi.sigma_x),
                (prof2.sigmas[i], pi2.sigmas), (prof2.aggregate[i], pi2.aggregate), (prof2.sigma_x[i], pi2.sigma_x),
            ]
            assert all(_same_bits(a, b) for a, b in pairs)

    def test_single_policy_shapes(self, rng):
        inst = random_instance(rng, d=2, k=1, T=3)
        K = random_policy(rng, inst)
        bk = backup_value(inst, K)
        prof = covariance_profile(inst, K, warn_degenerate=False)
        assert bk.P.shape == (4, 2, 2) and bk.L.shape == (4,) and np.ndim(bk.cost) == 0
        assert prof.aggregate.shape == (2, 2) and np.ndim(prof.sigma_x) == 0
        assert exact_gradient(inst, K).shape == K.shape

    def test_rejects_wrong_shapes(self, rng):
        inst = random_instance(rng, d=2, k=1, T=3)
        for shape in [(2, 1, 2), (3, 2, 1), (2, 2, 3, 1, 2), (3, 1, 2, 1)]:
            with pytest.raises(ValueError):
                backup_value(inst, np.zeros(shape))

    def test_degenerate_warning_on_a_batch(self):
        inst = constant_instance(
            np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.eye(2), 2,
            NoiseModel("zero"), InitialStateModel("point", np.zeros(2)),
        )
        with pytest.warns(RuntimeWarning):
            covariance_profile(inst, np.zeros((3, 2, 2, 2)))


def reference_backup(instance, K):
    """(P, L, cost) by the backward value loop backup_value ran on its own
    before both chains shared one recursion."""
    T = instance.T
    batch = K.shape[:-3]
    M = instance.A - instance.B @ K
    Mt = M.swapaxes(-1, -2)
    stage = instance.Q[:T] + K.swapaxes(-1, -2) @ instance.R @ K
    P = np.empty((*batch, T + 1, instance.d, instance.d))
    P[..., T, :, :] = instance.Q[T]
    for t in range(T - 1, -1, -1):
        P[..., t, :, :] = core._sym(stage[..., t, :, :] + Mt[..., t, :, :] @ P[..., t + 1, :, :] @ M[..., t, :, :])
    noise = (instance.W @ P[..., :0:-1, :, :]).trace(axis1=-2, axis2=-1)
    L = np.cumsum(np.concatenate([np.zeros((*batch, 1)), noise], axis=-1), axis=-1)[..., ::-1].copy()
    cost = (instance.S0 @ P[..., 0, :, :]).trace(axis1=-2, axis2=-1) + L[..., 0]
    return P, L, cost


def reference_moments(instance, K):
    """Sigma by the forward moment loop covariance_profile and the gradient
    ran on their own before both chains shared one recursion."""
    T, d, W = instance.T, instance.d, instance.W
    M = instance.A - instance.B @ K
    Mt = M.swapaxes(-1, -2)
    sig = np.empty((*K.shape[:-3], T + 1, d, d))
    sig[..., 0, :, :] = instance.S0
    for t in range(T):
        S = M[..., t, :, :] @ sig[..., t, :, :] @ Mt[..., t, :, :]
        S += W
        core._sym(S, out=sig[..., t + 1, :, :])
    return sig


class TestClosedLoopRecursion:
    @settings(deadline=None, max_examples=150)
    @given(d=st.integers(1, 4), k=st.integers(1, 2), T=st.integers(1, 10), n=st.sampled_from([None, 1, 2, 5, 16]),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 0.3, 3.0]))
    def test_equals_separate_loops(self, d, k, T, n, seed, scale):
        """P, L, cost and Sigma of one policy or a batch, from every entry
        point, equal the separate reference loops bit for bit."""
        rng = np.random.default_rng(seed)
        noise = NoiseModel("gaussian", 0.4, rng.normal(size=(d, d)))
        init = InitialStateModel("gaussian", rng.normal(size=d), 0.6, rng.normal(size=(d, d)))
        M, N = rng.normal(size=(d, d)), rng.normal(size=(k, k))
        inst = constant_instance(rng.normal(size=(d, d)), rng.normal(size=(d, k)), M @ M.T + 0.3 * np.eye(d),
                                 N @ N.T + 0.3 * np.eye(k), 2.0 * M @ M.T + 0.1 * np.eye(d), T, noise, init)
        K = rng.normal(size=(T, k, d) if n is None else (n, T, k, d)) * scale
        P, L, cost = reference_backup(inst, K)
        sig = reference_moments(inst, K)
        bk = backup_value(inst, K)
        prof = covariance_profile(inst, K, warn_degenerate=False)
        _, _, bk2, prof2 = exact_gradient(inst, K, return_terms=True)
        both = core._closed_loop(inst, K)
        pairs = [(bk.P, P), (bk.L, L), (bk.cost, cost), (exact_cost(inst, K), cost), (prof.sigmas, sig),
                 (bk2.P, P), (bk2.L, L), (bk2.cost, cost), (prof2.sigmas, sig), (both[0], P), (both[1], sig)]
        assert all(_same_bits(a, b) for a, b in pairs)
        assert bk.P.flags.c_contiguous and prof.sigmas.flags.c_contiguous


class TestCovariance:
    def test_aggregate_decomposition(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            K = random_policy(rng, inst)
            tk, delta = operator_decomposition(inst, K)
            prof = covariance_profile(inst, K, warn_degenerate=False)
            np.testing.assert_allclose(tk + delta, prof.aggregate, atol=1e-9 * (1 + np.abs(prof.aggregate).max()))

    def test_positive_definite_with_pd_inputs(self, rng):
        inst = random_instance(rng)
        prof = covariance_profile(inst, random_policy(rng, inst), warn_degenerate=False)
        assert prof.sigma_x > 0

    def test_degenerate_warning(self):
        inst = constant_instance(
            np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.eye(2), 2,
            NoiseModel("zero"), InitialStateModel("point", np.zeros(2)),
        )
        with pytest.warns(RuntimeWarning):
            covariance_profile(inst, np.zeros((2, 2, 2)))


class TestSimulation:
    def test_deterministic_given_seed(self, rng):
        inst = random_instance(rng)
        K = random_policy(rng, inst)
        t1 = simulate_trajectory(inst, K, 42)
        t2 = simulate_trajectory(inst, K, 42)
        assert t1.realized_cost == t2.realized_cost
        np.testing.assert_array_equal(t1.states, t2.states)
        t3 = simulate_trajectory(inst, K, 43)
        assert t3.realized_cost != t1.realized_cost

    def test_noise_free_cost_is_exact(self):
        inst = constant_instance(
            np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), 3,
            NoiseModel("zero"), InitialStateModel("point", np.ones(1)),
        )
        K = np.full((3, 1, 1), 0.3)
        traj = simulate_trajectory(inst, K, 0)
        assert traj.realized_cost == pytest.approx(exact_cost(inst, K), rel=1e-12)

    def test_pathwise_decomposition_exact(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            K = random_policy(rng, inst)
            traj = simulate_trajectory(inst, K, int(rng.integers(1 << 30)))
            head, quad, cross = pathwise_cost_terms(inst, K, traj)
            assert traj.realized_cost == pytest.approx(head + quad + cross, rel=1e-9)

    def test_two_term_decomposition_holds_in_expectation(self, rng):
        # dropping the noise-state cross term leaves a zero-mean residual
        inst = random_instance(rng, d=2, k=1, T=4)
        K = random_policy(rng, inst)
        bk = backup_value(inst, K)
        resid = []
        for i in range(20000):
            traj = simulate_trajectory(inst, K, [99, i])
            head, quad, _ = pathwise_cost_terms(inst, K, traj, bk)
            resid.append(traj.realized_cost - head - quad)
        resid = np.array(resid)
        se = resid.std() / np.sqrt(resid.size)
        assert abs(resid.mean()) < 4 * se
        assert resid.std() > 0  # the cross term is *not* pathwise zero

    def test_uniform_noise_matches_covariance(self):
        inst = constant_instance(
            np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), 1,
            NoiseModel("uniform", 0.5), InitialStateModel("point", np.zeros(1)),
        )
        draws = np.array([inst.noise.draw(np_rng, 1, 1)[0, 0] for np_rng in (inst_rng(i) for i in range(20000))])
        assert abs(draws.std() - 0.5) < 0.01
        assert np.abs(draws).max() <= 0.5 * np.sqrt(3) + 1e-12


def inst_rng(i):
    return make_rng([123, i])


def _reference_check(M, name):
    """Per-slice reference of the instance check: slice after slice, the
    2-norm of a slice taken by SVD."""
    for t, S in enumerate(M):
        with np.errstate(invalid="ignore"):  # np.allclose warns of the nan atol of a slice with a NaN
            close = np.allclose(S, S.T, atol=1e-10 * (1.0 + np.abs(S).max()))
        if not close:
            raise NonPositiveDefinite(f"{name}[{t}] is not symmetric")
        eigmin = float(np.linalg.eigvalsh(S)[0])
        if eigmin <= 1e-12 * (1.0 + float(np.linalg.norm(S, 2))):
            raise NonPositiveDefinite(f"{name}[{t}] is not positive definite (min eig {eigmin:g})")


@st.composite
def weight_stacks(draw):
    """(n, d, d) stacks whose slices are each symmetric positive definite,
    asymmetric by a relative 1e-13 to 1e-1, indefinite, on the edge of
    definiteness (min eig 0, +-0.5 or 2 times the threshold), or holding a
    NaN, at scales 1e-4 to 1e4."""
    n, d = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    stack = np.empty((n, d, d))
    for t in range(n):
        kind = draw(st.sampled_from(["spd", "asym", "indefinite", "edge", "nan"]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = 10.0 ** draw(st.integers(-4, 4))
        V = np.linalg.qr(rng.normal(size=(d, d)))[0]
        lam = rng.uniform(0.3, 3.0, d) * scale
        if kind == "indefinite":
            lam[0] = -rng.uniform(0.01, 1.0) * scale
        elif kind == "edge":
            lam[0] = draw(st.sampled_from([0.0, -0.5, 0.5, 2.0])) * 1e-12 * (1.0 + lam[1:].max(initial=0.0))
        S = (V * lam) @ V.T
        if kind == "asym":
            S += draw(st.sampled_from([1e-13, 1e-9, 1e-5, 1e-3, 1e-1])) * scale * rng.normal(size=(d, d))
        elif kind == "nan":
            S[rng.integers(d), rng.integers(d)] = np.nan
        stack[t] = S
    return stack


def _check_message(build):
    try:
        build()
    except NonPositiveDefinite as e:
        return str(e)
    return None


class TestValidation:
    @settings(deadline=None, max_examples=300)
    @given(stack=weight_stacks())
    @example(stack=np.stack([np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), -np.eye(2)]))
    def test_batched_check_matches_per_slice_reference(self, stack):
        n, d = stack.shape[:2]
        noise, init = NoiseModel("zero"), InitialStateModel("point", np.ones(d))
        ones = np.ones((1, 1))
        as_q = _check_message(lambda: LqrInstance(np.eye(d), np.ones((d, 1)), stack, np.tile(ones, (n - 1, 1, 1)),
                                                  noise, init))
        assert as_q == _check_message(lambda: _reference_check(stack, "Q"))
        as_r = _check_message(lambda: LqrInstance(np.eye(1), np.ones((1, d)), np.tile(ones, (n + 1, 1, 1)), stack,
                                                  NoiseModel("zero"), InitialStateModel("point", np.ones(1))))
        assert as_r == _check_message(lambda: _reference_check(stack, "R"))

    def test_first_failing_slice_is_named(self):
        Q = np.stack([np.eye(2), np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), -np.eye(2)])
        with pytest.raises(NonPositiveDefinite, match=r"^Q\[2\] is not symmetric$"):
            LqrInstance(np.eye(2), np.ones((2, 1)), Q, np.ones((3, 1, 1)), NoiseModel("zero"),
                        InitialStateModel("point", np.ones(2)))

    @pytest.mark.parametrize("bad,message", [
        (np.full((2, 2), np.nan), "is not symmetric"),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), "is not symmetric"),
        (np.full((2, 2), np.inf), "is not positive definite (min eig nan)"),
    ])
    def test_non_finite_slices_raise_non_positive_definite(self, bad, message):
        # not a LinAlgError, and never a pass on a nan eigenvalue
        with pytest.raises(NonPositiveDefinite) as err:
            LqrInstance(np.eye(2), np.ones((2, 1)), np.stack([np.eye(2), bad]), np.ones((1, 1, 1)),
                        NoiseModel("zero"), InitialStateModel("point", np.ones(2)))
        assert str(err.value) == f"Q[1] {message}"

    def test_validate_false_still_checks_r(self):
        with pytest.raises(NonPositiveDefinite, match=r"^R\[0\] is not positive definite"):
            constant_instance(
                np.eye(1), np.eye(1), -np.eye(1), -np.eye(1), np.eye(1), 1,
                NoiseModel("zero"), InitialStateModel("point", np.ones(1)), validate=False,
            )

    def test_moments_are_read_only_and_follow_replace(self, rng):
        inst = random_instance(rng, d=2, k=1, T=3)
        W, S0 = inst.noise_covariance(), inst.S0
        np.testing.assert_array_equal(W, inst.noise.covariance(2))
        np.testing.assert_array_equal(S0, inst.init.second_moment())
        for moment in (W, S0):
            assert not moment.flags.writeable
            with pytest.raises(ValueError):
                moment[0, 0] = 1.0
        louder = dataclasses.replace(inst, noise=NoiseModel("gaussian", 2.0))
        np.testing.assert_array_equal(louder.noise_covariance(), 4.0 * np.eye(2))
        moved = dataclasses.replace(inst, init=InitialStateModel("point", np.array([1.0, 2.0])))
        np.testing.assert_array_equal(moved.S0, [[1.0, 2.0], [2.0, 4.0]])
        assert inst.noise_covariance() is W and inst.S0 is S0

    @staticmethod
    def _two_state(noise, init):
        return constant_instance(np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(1), np.eye(2), 3, noise, init)

    def test_rejects_a_noise_factor_with_three_columns(self):
        # W = F F' would be 2 x 2 from three noise dimensions, which a path cannot draw
        with pytest.raises(ValueError, match=r"^noise\.factor must have shape \(2, 2\), got \(2, 3\)$"):
            self._two_state(NoiseModel("gaussian", 0.4, np.ones((2, 3))), InitialStateModel("point", np.ones(2)))

    def test_rejects_a_factor_of_one_row(self):
        with pytest.raises(ValueError, match=r"^noise\.factor must have shape \(2, 2\), got \(1, 2\)$"):
            self._two_state(NoiseModel("gaussian", 0.4, np.ones((1, 2))), InitialStateModel("point", np.ones(2)))
        with pytest.raises(ValueError, match=r"^init\.factor must have shape \(2, 2\), got \(1, 2\)$"):
            self._two_state(NoiseModel("zero"), InitialStateModel("gaussian", np.ones(2), 0.6, np.ones((1, 2))))

    def test_rejects_a_mean_of_another_length(self):
        with pytest.raises(ValueError, match=r"^init\.mean must have shape \(2,\), got \(3,\)$"):
            self._two_state(NoiseModel("gaussian", 0.4), InitialStateModel("point", np.ones(3)))

    def test_degenerate_kinds_ignore_sigma_and_factor(self):
        # a point start and zero noise read neither field, so neither is checked
        inst = self._two_state(NoiseModel("zero", np.nan, np.ones((2, 3))),
                               InitialStateModel("point", np.ones(2), np.inf, np.full((1, 2), np.nan)))
        np.testing.assert_array_equal(inst.W, np.zeros((2, 2)))
        np.testing.assert_array_equal(inst.S0, np.ones((2, 2)))

    @pytest.mark.parametrize("field,build", [
        ("noise.factor", lambda: (NoiseModel("gaussian", 0.4, np.array([[1.0, 0.0], [np.nan, 1.0]])),
                                  InitialStateModel("point", np.ones(2)))),
        ("init.factor", lambda: (NoiseModel("zero"), InitialStateModel("uniform", np.ones(2), 0.6, np.diag([np.inf, 1.0])))),
        ("init.mean", lambda: (NoiseModel("gaussian", 0.4), InitialStateModel("point", np.array([0.0, np.nan])))),
        ("noise.sigma", lambda: (NoiseModel("gaussian", np.nan), InitialStateModel("point", np.ones(2)))),
        ("init.sigma", lambda: (NoiseModel("zero"), InitialStateModel("gaussian", np.ones(2), np.inf))),
    ])
    def test_rejects_non_finite_model_fields(self, field, build):
        # a nan here would reach every cost as nan, a failed run rather than bad input
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be finite"):
            self._two_state(*build())

    def test_rejects_indefinite_q(self):
        with pytest.raises(NonPositiveDefinite):
            constant_instance(
                np.eye(1), np.eye(1), -np.eye(1), np.eye(1), np.eye(1), 1,
                NoiseModel("zero"), InitialStateModel("point", np.ones(1)),
            )

    def test_rejects_short_horizon(self):
        with pytest.raises(HorizonTooShort):
            LqrInstance(
                np.eye(1), np.eye(1), np.ones((1, 1, 1)), np.zeros((0, 1, 1)),
                NoiseModel("zero"), InitialStateModel("point", np.ones(1)),
            )

    def test_psd_waiver(self):
        inst = constant_instance(
            np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1), np.eye(1), 1,
            NoiseModel("zero"), InitialStateModel("point", np.ones(1)), validate=False,
        )
        assert solve_riccati(inst).optimal_cost >= 0


class TestBatchRollouts:
    def test_batch_matches_single_trajectory_streams(self, rng):
        inst = random_instance(rng, d=2, k=1, T=4)
        K = random_policy(rng, inst)
        sim = LqrSimulator(inst)
        U = rng.normal(size=(8, 1, 2)) * 0.1
        batch = sim.rollout_perturbed_batch(K, 1, U, [5, 0, 1])
        for i in range(8):
            pert = K.copy()
            pert[1] = pert[1] + U[i]
            single = sim.rollout(pert, [5, 0, 1, i, 1])
            assert batch[i] == pytest.approx(single, rel=1e-12)


# stream words: negative ints wrap to two's complement, so both ends of the
# 64-bit range and beyond 2**63 are covered
WORDS = st.integers(min_value=-(2**63), max_value=2**64 - 1)
U64 = st.integers(min_value=0, max_value=2**64 - 1)
PREFIXES = st.lists(WORDS, min_size=2, max_size=2)
TAILS = st.lists(st.tuples(U64, U64, U64), min_size=1, max_size=8)
LAYOUTS = st.lists(st.tuples(st.sampled_from(["gaussian", "uniform"]), st.integers(1, 30)), min_size=1, max_size=3)
# a layout part that maps all its words, or (kind, width, live) with ascending live offsets
LIVE_PARTS = st.tuples(st.sampled_from(["gaussian", "uniform"]), st.integers(1, 30)).flatmap(
    lambda part: st.one_of(st.just(part), st.sets(st.integers(0, part[1] - 1)).map(lambda live: (*part, tuple(sorted(live))))))
KIND_PAIRS = [("gaussian", "gaussian"), ("uniform", "uniform"), ("point", "gaussian"), ("gaussian", "zero"),
              ("uniform", "gaussian"), ("gaussian", "uniform"), ("point", "zero")]
SQRT3 = np.sqrt(3.0)


def _per_key_draws(layout, prefix, tails) -> np.ndarray:
    """The reference: one make_rng per key, standard_draw per part."""
    rows = []
    for tail in tails:
        rng = make_rng([*prefix, *tail])
        rows.append(np.concatenate([standard_draw(kind, rng, width) for kind, width in layout]))
    return np.array(rows)


def _word_draw(kind: str, w: int) -> float:
    """The number one raw word w maps to, computed on Python scalars."""
    if kind == "gaussian":
        return ndtri(((w >> 12) + 0.5) * 2.0**-52)
    return -SQRT3 + 2 * SQRT3 * ((w >> 11) * 2.0**-53)


def _mapped(kind: str, words) -> np.ndarray:
    return core._standardize(kind, np.array(words, dtype=np.uint64))


def _assert_same_bits(a, b) -> None:
    # compares the float64 bit patterns, so a -0.0 for a 0.0 fails
    np.testing.assert_array_equal(np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64))


def _instance_of_kinds(pair, d: int, T: int):
    noise = NoiseModel(pair[1], 0.4)
    init = InitialStateModel(pair[0], np.linspace(-1.0, 1.0, d), 0.6)
    return constant_instance(np.eye(d), np.ones((d, 1)), np.eye(d), np.eye(1), np.eye(d), T, noise, init)


class TestStandardDraw:
    @settings(deadline=None, max_examples=100)
    @given(prefix=PREFIXES, tails=TAILS, layout=LAYOUTS)
    def test_rows_map_each_raw_word_on_its_own(self, prefix, tails, layout):
        # the bit-exact scalar reference: ndtri or the uniform map of each
        # make_rng(key).bit_generator.random_raw() word, in order
        ref = []
        for tail in tails:
            bits = make_rng([*prefix, *tail]).bit_generator
            ref.append([_word_draw(kind, int(bits.random_raw())) for kind, width in layout for _ in range(width)])
        _assert_same_bits(keyed_draws(layout, prefix, tails), ref)

    def test_normals_match_an_independent_inverse_cdf(self):
        words = make_rng(17).bit_generator.random_raw(4096).tolist() + [0, 1 << 12, 2**64 - 1, 2**63, 2**63 - 1]
        ref = [statistics.NormalDist().inv_cdf(((w >> 12) + 0.5) * 2.0**-52) for w in words]
        np.testing.assert_allclose(_mapped("gaussian", words), ref, rtol=0, atol=1e-12)

    def test_extreme_words_map_to_finite_values(self):
        x = _mapped("gaussian", [0, 2**64 - 1])
        assert np.isfinite(x).all() and x[0] == -x[1] and 8.2 < x[1] < 8.3
        u = _mapped("uniform", [0, 2**64 - 1])
        assert u[0] == -SQRT3 and -SQRT3 < u[1] < SQRT3

    def test_smallest_magnitude_words_are_not_zero(self):
        # w >> 12 = 2**51 and 2**51 - 1: u = 1/2 +- 2**-53, so no normal is 0
        # and no sphere draw has a zero norm
        x = _mapped("gaussian", [2**51 << 12, (2**51 - 1) << 12 | 0xFFF])
        assert x[0] == -x[1] > 2e-16

    def test_rejects_long_keys(self):
        with pytest.raises(ValueError):
            make_rng([1, 2, 3, 4, 5, 6])

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError):
            standard_draw("point-mass", make_rng(0), 3)

    def test_sizes_are_shapes_and_degenerate_or_empty_draws_take_no_word(self):
        for kind in ("gaussian", "uniform"):
            flat = standard_draw(kind, make_rng(8), 6)
            _assert_same_bits(standard_draw(kind, make_rng(8), (2, 3)), flat.reshape(2, 3))
            rng = make_rng(8)
            assert standard_draw(kind, rng, 0).shape == (0,)
            _assert_same_bits(standard_draw("point", rng, 4), np.zeros(4))
            _assert_same_bits(standard_draw("zero", rng, (2, 2)), np.zeros((2, 2)))
            _assert_same_bits(standard_draw(kind, rng, 6), flat)

    def test_uniforms_equal_generator_uniform(self):
        # the uniform map is the one Generator.uniform applies to a raw word
        _assert_same_bits(standard_draw("uniform", make_rng([5, 1, 2]), 4096),
                          make_rng([5, 1, 2]).uniform(-SQRT3, SQRT3, 4096))

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_draws_keep_no_third_word_sized_array(self, kind):
        # the raw words are shifted in place and mapped into the output, so a
        # draw of n numbers peaks at two n-word arrays, not three
        n = 2**17
        standard_draw(kind, make_rng(1), 8)  # imports ndtri outside the trace
        rng = make_rng(2)
        tracemalloc.start()
        try:
            x = standard_draw(kind, rng, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (n,) and 2 * 8 * n <= peak < 2.5 * 8 * n

    def test_moments_and_ks_distance_of_a_million_draws(self):
        # 2**20 keyed normals; thresholds fixed before the first run: five
        # standard errors for each moment and a KS distance whose chance
        # under a true normal is about 1e-6 (2 exp(-2 * 2.7**2))
        n = 2**20
        tails = np.stack([np.arange(4096), np.zeros(4096), np.ones(4096)], axis=1).astype(np.uint64)
        x = np.sort(keyed_draws([("gaussian", n // 4096)], (29, 3), tails).ravel())
        z = (x - x.mean()) / x.std()
        assert abs(x.mean()) < 5 / np.sqrt(n)
        assert abs(x.var() - 1) < 5 * np.sqrt(2 / n)
        assert abs((z**3).mean()) < 5 * np.sqrt(6 / n)
        assert abs((z**4).mean() - 3) < 5 * np.sqrt(24 / n)
        cdf = ndtr(x)
        ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert ks < 2.7 / np.sqrt(n)


class TestSamplePaths:
    @pytest.mark.parametrize("init_kind,noise_kind", KIND_PAIRS)
    def test_matches_model_draws(self, init_kind, noise_kind):
        # keyed_paths under full start and noise factors against the models'
        # own draw methods on make_rng of each key
        rng = np.random.default_rng(7)
        d, T = 3, 4
        noise = NoiseModel(noise_kind, 0.4, rng.normal(size=(d, d)))
        init = InitialStateModel(init_kind, rng.normal(size=d), 0.6, rng.normal(size=(d, d)))
        inst = constant_instance(np.eye(d), np.ones((d, 1)), np.eye(d), np.eye(1), np.eye(d), T, noise, init)
        tails = [(j, 2**64 - 1, 1) for j in range(6)]
        x0, w = keyed_paths(inst, (4, -1), tails)
        for j, tail in enumerate(tails):
            ref = make_rng([4, -1, *tail])
            _assert_same_bits(x0[j], init.draw(ref))
            _assert_same_bits(w[j], noise.draw(ref, T, d))

    def test_models_reject_unknown_kinds(self):
        with pytest.raises(ValueError):
            NoiseModel("point")
        with pytest.raises(ValueError):
            InitialStateModel("zero", np.zeros(1))


class TestKeyedDraws:
    @settings(deadline=None, max_examples=200)
    @given(prefix=PREFIXES, tails=TAILS, layout=LAYOUTS)
    # a one-word part in rows of 8 words: a strided column of the words
    @example(prefix=[0, 1], tails=[(0, 0, 0), (0, 0, 0)], layout=[("gaussian", 1), ("gaussian", 7)])
    def test_matches_per_key_draws(self, prefix, tails, layout):
        ref = _per_key_draws(layout, prefix, tails)
        _assert_same_bits(keyed_draws(layout, prefix, tails), ref)
        _assert_same_bits(keyed_draws(layout, np.array([w % 2**64 for w in prefix], dtype=np.uint64), tails), ref)

    @settings(deadline=None, max_examples=100)
    @given(prefix=PREFIXES, tails=TAILS, pair=st.sampled_from(KIND_PAIRS), d=st.integers(1, 3), T=st.integers(1, 9))
    @example(prefix=[3, 4], tails=[(0, i, 1) for i in range(8)], pair=("gaussian", "uniform"), d=1, T=7)
    def test_paths_match_simulated_trajectories(self, prefix, tails, pair, d, T):
        # path layouts of every kind pair, degenerate parts skipped, against
        # the start state and noise simulate_trajectory draws on each key
        inst = _instance_of_kinds(pair, d, T)
        x0, w = keyed_paths(inst, prefix, tails)
        for j, tail in enumerate(tails):
            traj = simulate_trajectory(inst, np.zeros((T, 1, d)), [*prefix, *tail])
            _assert_same_bits(x0[j], traj.states[0])
            _assert_same_bits(w[j], traj.noises)

    @settings(deadline=None, max_examples=100)
    @given(prefixes=st.lists(PREFIXES, min_size=1, max_size=4), tails=TAILS, pair=st.sampled_from(KIND_PAIRS),
           d=st.integers(1, 3), T=st.integers(1, 6), chunk=st.sampled_from([3, 4096]))
    def test_prefix_batch_equals_one_call_per_prefix(self, prefixes, tails, pair, d, T, chunk):
        # a (B, 2) batch of prefixes, as nested ints and as uint64 words, in
        # passes of a few rows or of all
        layout = core._path_layout(_instance_of_kinds(pair, d, T))
        singles = [keyed_draws(layout, prefix, tails) for prefix in prefixes]
        words = np.array([[w % 2**64 for w in prefix] for prefix in prefixes], dtype=np.uint64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_KEYED_CHUNK", chunk)
            batches = keyed_draws(layout, prefixes, tails), keyed_draws(layout, words, tails)
        for batch in batches:
            assert batch.shape == (len(prefixes), *singles[0].shape)
            for got, single in zip(batch, singles):
                _assert_same_bits(got, single)

    @settings(deadline=None, max_examples=100)
    @given(prefix=PREFIXES, tails=TAILS, parts=st.lists(LIVE_PARTS, min_size=1, max_size=3))
    # two mapped words in the first of four blocks, then a part that maps none
    @example(prefix=[1, 2], tails=[(0, 0, 0), (5, 6, 7)], parts=[("uniform", 9, (0, 4)), ("gaussian", 6, ())])
    def test_live_offsets_pick_the_full_rows_numbers(self, prefix, tails, parts):
        # a part (kind, width, live) maps only the words at the live offsets,
        # each to the number the full row holds there
        cols, at = [], 0
        for kind, width, *live in parts:
            cols += [at + j for j in (live[0] if live else range(width))]
            at += width
        full = keyed_draws([part[:2] for part in parts], prefix, tails)
        _assert_same_bits(keyed_draws(parts, prefix, tails), full[:, cols])

    @pytest.mark.parametrize("live", [(3, 1), (1, 1), (-1, 2), (0, 6), (7,)])
    def test_rejects_live_offsets_out_of_order_or_range(self, live):
        # an offset at or past the width would map a word of the next part
        with pytest.raises(ValueError, match="must ascend strictly inside"):
            keyed_draws([("gaussian", 6, live), ("uniform", 4)], (1, 2), np.zeros((2, 3), dtype=np.uint64))

    @pytest.mark.parametrize("width", [1, 3, 4, 5, 8, 9])
    def test_widths_around_block_edges_take_the_stream_in_order(self, width):
        # ceil(width / 4) Philox blocks per key: a row is the key's first
        # width raw words, so a narrower row is the start of a wider one
        prefix = (3, 2**64 - 2)
        tails = np.array([[0, 0, 0], [7, 2**64 - 1, 1], [2**63, 5, 2**32]], dtype=np.uint64)
        ref = [make_rng([*prefix, *map(int, tail)]).bit_generator.random_raw(width) for tail in tails]
        np.testing.assert_array_equal(core._philox_words(prefix, tails, width), ref)
        wide = keyed_draws([("uniform", 2), ("gaussian", 7)], prefix, tails)
        layout = [("uniform", min(width, 2)), ("gaussian", max(width - 2, 0))]
        _assert_same_bits(keyed_draws(layout, prefix, tails), wide[:, :width])

    def test_zero_width_layouts_draw_nothing(self):
        # a point start with zero noise: no words, and no pass is run
        tails = np.zeros((3, 3), dtype=np.uint64)
        assert keyed_draws([], (1, 2), tails).shape == (3, 0)
        assert keyed_draws([("gaussian", 0), ("uniform", 0)], [(1, 2), (3, 4)], tails).shape == (2, 3, 0)
        inst = _instance_of_kinds(("point", "zero"), 2, 4)
        x0, w = keyed_paths(inst, (1, 2), tails)
        _assert_same_bits(x0, np.tile(inst.init.mean, (3, 1)))
        _assert_same_bits(w, np.zeros((3, 4, 2)))

    @pytest.mark.parametrize("prefix", [5, [5], (1, 2, 3), [1, 2, 3, 4, 5, 6], [(1, 2), (1, 2, 3)],
                                        np.zeros(3, dtype=np.uint64), np.zeros((2, 3), dtype=np.uint64)],
                             ids=["one word", "a list of one word", "three words", "six words",
                                  "a three-word prefix in a batch", "a uint64 array of three words", "a (B, 3) array"])
    def test_rejects_prefixes_that_are_not_two_words(self, prefix):
        # a padded or cut prefix would key other streams than make_rng((*prefix, *tail))
        with pytest.raises(ValueError, match="two words"):
            keyed_draws([("gaussian", 2)], prefix, np.zeros((1, 3), dtype=np.uint64))

    def test_threads_drawing_interleaved_keys_get_the_serial_arrays(self):
        # more threads than cores, switching often; thread j draws every
        # fourth key from j on, one pass at a time
        layout = [("gaussian", 5), ("uniform", 2), ("gaussian", 9)]
        tails = np.stack([np.arange(400), np.zeros(400), np.ones(400)], axis=1).astype(np.uint64)
        serial = keyed_draws(layout, (11, 1), tails)
        got = [[] for _ in range(4)]
        barrier = threading.Barrier(4)

        def draw(j):
            barrier.wait()
            for lo in range(j, 400, 40):
                got[j].append(keyed_draws(layout, (11, 1), tails[lo:lo + 40:4]))

        threads = [threading.Thread(target=draw, args=(j,)) for j in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for j in range(4):
            _assert_same_bits(np.concatenate(got[j]), serial[j::4])
