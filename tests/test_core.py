import dataclasses
import os
import pickle
import re
import statistics
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf, ndtr

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
from lqrlab.core import make_rng, path_normals, pathwise_cost_terms
from lqrlab.errors import HorizonTooShort, NonPositiveDefinite
from lqrlab.zeroth import LqrSimulator

from conftest import cost_to_go, error_terms, mapped, path_width, random_instance, random_policy, simulated_rows


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

    @pytest.mark.parametrize("a,q_terminal,T,error,message", [
        (1e200, 1.0, 5, NonPositiveDefinite, r"^Riccati step matrix R \+ B'PB\[3\] is not finite$"),  # inf at 3, then NaN
        (1e200, 1.0, 1, FloatingPointError, r"^Riccati optimal cost is nan"),  # P_0 alone overflows
        (0.0, -3.0, 1, NonPositiveDefinite, r"^Riccati step matrix R \+ B'PB\[0\] is not positive definite \(min eig -2\)$"),
        (0.0, -1.0, 1, NonPositiveDefinite, r"^Riccati step matrix R \+ B'PB\[0\] is singular$"),
    ])
    def test_bad_step_raises_rather_than_returning_nan(self, a, q_terminal, T, error, message):
        # an overflow used to return NaN gains and cost; an indefinite Q_T
        # (validate=False) makes the step matrix indefinite or singular
        inst = LqrInstance([[a]], [[1.0]], [[[1.0]]] * T + [[[q_terminal]]], [[[1.0]]] * T, NoiseModel("zero"),
                           InitialStateModel("point", np.ones(1)), validate=False)
        with pytest.raises(error, match=message):
            solve_riccati(inst)


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
        # the realized costs of the first 100000 path rows of make_rng(7) in
        # one trajectories call, pinned bit for bit to simulate_trajectory on
        # the stream advanced to 1001 rows across the range: at d = k = 1
        # every product has one term, so no row count changes its rounding
        inst = scalar_benchmark()
        K = np.zeros((5, 1, 1))
        exact = exact_cost(inst, K)
        n = 100000
        costs = LqrSimulator(inst).trajectories(K, path_normals(inst, make_rng(7), n)).realized_cost
        for i, traj in simulated_rows(inst, 7, {int(i): K for i in np.linspace(0, n - 1, 1001)}).items():
            assert _same_bits(costs[i], traj.realized_cost), i
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
        E = error_terms(inst, sol.gains, backup_value(inst, sol.gains).P)
        assert np.abs(E).max() < 1e-9

    def test_is_twice_error_terms_times_moments(self, rng):
        # grad_t = 2 E_t Sigma_t, E_t from backup_value's P and Sigma_t from covariance_profile
        for _ in range(10):
            inst = random_instance(rng)
            K = random_policy(rng, inst)
            E = error_terms(inst, K, backup_value(inst, K).P)
            sig = covariance_profile(inst, K).sigmas
            np.testing.assert_allclose(exact_gradient(inst, K), 2.0 * E @ sig[:-1], rtol=1e-12, atol=1e-14)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedEvaluation:
    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 9), d=st.integers(1, 4), k=st.integers(1, 2), T=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1), zero_noise=st.booleans())
    @pytest.mark.filterwarnings("ignore:state covariance is degenerate:RuntimeWarning")
    def test_batch_equals_per_policy_calls(self, n, d, k, T, seed, zero_noise):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, d=d, k=k, T=T, noise_sigma=0.0 if zero_noise else 0.4)
        K = rng.normal(size=(n, T, k, d)) * 0.4
        bk = backup_value(inst, K)
        costs = exact_cost(inst, K)
        grads = exact_gradient(inst, K)
        prof = covariance_profile(inst, K)
        assert bk.P.shape == (n, T + 1, d, d) and costs.shape == (n,) and prof.sigma_x.shape == (n,)
        for i in range(n):
            one = backup_value(inst, K[i])
            pi = covariance_profile(inst, K[i])
            pairs = [
                (bk.P[i], one.P), (bk.L[i], one.L), (bk.cost[i], one.cost), (costs[i], exact_cost(inst, K[i])),
                (grads[i], exact_gradient(inst, K[i])),
                (prof.sigmas[i], pi.sigmas), (prof.aggregate[i], pi.aggregate), (prof.sigma_x[i], pi.sigma_x),
            ]
            assert all(_same_bits(a, b) for a, b in pairs)

    def test_single_policy_shapes(self, rng):
        inst = random_instance(rng, d=2, k=1, T=3)
        K = random_policy(rng, inst)
        bk = backup_value(inst, K)
        prof = covariance_profile(inst, K)
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
    @pytest.mark.filterwarnings("ignore:state covariance is degenerate:RuntimeWarning")
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
        prof = covariance_profile(inst, K)
        both = core._closed_loop(inst, K)
        pairs = [(bk.P, P), (bk.L, L), (bk.cost, cost), (exact_cost(inst, K), cost), (prof.sigmas, sig),
                 (both[0], P), (both[1], sig), (exact_gradient(inst, K), core._gradient_terms(inst, K, P, sig))]
        assert all(_same_bits(a, b) for a, b in pairs)
        assert bk.P.flags.c_contiguous and prof.sigmas.flags.c_contiguous


class TestCovariance:
    def test_aggregate_decomposition(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            K = random_policy(rng, inst)
            tk, delta = operator_decomposition(inst, K)
            prof = covariance_profile(inst, K)
            np.testing.assert_allclose(tk + delta, prof.aggregate, atol=1e-9 * (1 + np.abs(prof.aggregate).max()))

    def test_positive_definite_with_pd_inputs(self, rng):
        inst = random_instance(rng)
        prof = covariance_profile(inst, random_policy(rng, inst))
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
        # dropping the noise-state cross term leaves a zero-mean residual: the
        # residuals of the first 20000 path rows of make_rng(99) in one
        # trajectories call and one pathwise_cost_terms call on the batch,
        # pinned to both on single rows, simulate_trajectory on the stream
        # advanced to 201 rows across the range (1e-12 of the terms' size, as
        # BLAS rounds by row count)
        inst = random_instance(rng, d=2, k=1, T=4)
        K = random_policy(rng, inst)
        n = 20000
        batch = LqrSimulator(inst).trajectories(K, path_normals(inst, make_rng(99), n))
        head, quad, _ = pathwise_cost_terms(inst, K, batch)
        resid = batch.realized_cost - head - quad
        for j, traj in simulated_rows(inst, 99, {int(j): K for j in np.linspace(0, n - 1, 201)}).items():
            h, q, _ = pathwise_cost_terms(inst, K, traj)
            assert abs(resid[j] - (traj.realized_cost - h - q)) <= 1e-12 * (abs(traj.realized_cost) + abs(h) + abs(q)), j
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
        if not np.isfinite(S).all():
            raise NonPositiveDefinite(f"{name}[{t}] is not finite")
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
        (np.full((2, 2), np.nan), "is not finite"),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), "is not finite"),
        (np.full((2, 2), np.inf), "is not finite"),
    ])
    def test_non_finite_slices_raise_non_positive_definite(self, bad, message):
        # not a LinAlgError, and never a pass on a nan eigenvalue; a NaN
        # slice used to read "is not symmetric", as NaN never equals itself
        with pytest.raises(NonPositiveDefinite) as err:
            LqrInstance(np.eye(2), np.ones((2, 1)), np.stack([np.eye(2), bad]), np.ones((1, 1, 1)),
                        NoiseModel("zero"), InitialStateModel("point", np.ones(2)))
        assert str(err.value) == f"Q[1] {message}"

    def test_validate_false_still_checks_r(self):
        with pytest.raises(NonPositiveDefinite, match=r"^R\[0\] is not positive definite"):
            LqrInstance(
                np.eye(1), np.eye(1), [-np.eye(1), np.eye(1)], [-np.eye(1)],
                NoiseModel("zero"), InitialStateModel("point", np.ones(1)), validate=False,
            )

    def test_validate_false_still_checks_q_is_finite(self):
        # the waiver skips the positive-definiteness test alone: a nan Q
        # fails at construction, not later as a nan exact_cost
        Q = np.ones((3, 1, 1))
        Q[1] = np.nan
        with pytest.raises(ValueError, match=r"^Q must be finite$"):
            LqrInstance(np.eye(1), np.eye(1), Q, np.ones((2, 1, 1)),
                        NoiseModel("zero"), InitialStateModel("point", np.ones(1)), validate=False)

    def test_moments_are_read_only_and_follow_replace(self, rng):
        inst = random_instance(rng, d=2, k=1, T=3)
        W, S0 = inst.W, inst.S0
        np.testing.assert_array_equal(W, inst.noise.covariance(2))
        np.testing.assert_array_equal(S0, inst.init.second_moment())
        for moment in (W, S0):
            assert not moment.flags.writeable
            with pytest.raises(ValueError):
                moment[0, 0] = 1.0
        louder = dataclasses.replace(inst, noise=NoiseModel("gaussian", 2.0))
        np.testing.assert_array_equal(louder.W, 4.0 * np.eye(2))
        moved = dataclasses.replace(inst, init=InitialStateModel("point", np.array([1.0, 2.0])))
        np.testing.assert_array_equal(moved.S0, [[1.0, 2.0], [2.0, 4.0]])
        assert inst.W is W and inst.S0 is S0

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

    @pytest.mark.parametrize("A,B,message", [
        (np.ones((1, 2)), np.ones((1, 1)), r"^A must have shape \(1, 1\), got \(1, 2\)$"),
        (np.full((1, 1), np.inf), np.ones((1, 1)), r"^A must be finite$"),
        (np.eye(1), np.full((1, 1), np.nan), r"^B must be finite$"),
        (np.eye(1), np.ones((2, 1)), r"^B must have shape \(1, 1\), got \(2, 1\)$"),
        (np.eye(2), np.ones(2), r"^B must have shape \(2, 1\), got \(2,\)$"),  # a 1-D B is no column
    ])
    def test_rejects_dynamics_that_do_not_fit(self, A, B, message):
        # a non-finite A or B used to give NaN Riccati gains, a non-square A a broadcast error
        with pytest.raises(ValueError, match=message):
            constant_instance(A, B, np.eye(1), np.eye(1), np.eye(1), 2, NoiseModel("zero"),
                              InitialStateModel("point", np.ones(1)))

    @pytest.mark.parametrize("Q,R,message", [
        (1.0, np.ones((1, 1, 1)), r"^Q must have shape \(T \+ 1, 1, 1\), got \(\)$"),  # an IndexError before
        (np.ones((2, 1, 1)), 1.0, r"^R must have shape \(1, 1, 1\), got \(\)$"),
    ])
    def test_rejects_scalar_weights(self, Q, R, message):
        with pytest.raises(ValueError, match=message):
            LqrInstance(np.eye(1), np.eye(1), Q, R, NoiseModel("zero"), InitialStateModel("point", np.ones(1)))

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
        inst = LqrInstance(
            np.eye(1), np.eye(1), [np.zeros((1, 1)), np.eye(1)], [np.eye(1)],
            NoiseModel("zero"), InitialStateModel("point", np.ones(1)), validate=False,
        )
        assert solve_riccati(inst).optimal_cost >= 0


class TestBatchRollouts:
    def test_batch_matches_single_trajectory_streams(self, rng):
        # cost i of slot 1 is the cost to go from step 1 of simulate_trajectory
        # on path row i of the stream, with gain 1 perturbed by U[i]
        inst = random_instance(rng, d=2, k=1, T=4)
        K = random_policy(rng, inst)
        sim = LqrSimulator(inst)
        U = rng.normal(size=(8, 1, 2)) * 0.1
        batch = sim.rollout_perturbed_batch(K, 1, U, [5, 0, 1])
        perts = {i: K.copy() for i in range(8)}
        for i in range(8):
            perts[i][1] += U[i]
        singles = simulated_rows(inst, (5, 0, 0, 0, 1), perts)
        for i in range(8):
            assert batch[i] == pytest.approx(cost_to_go(inst, perts[i], singles[i].states, 1), rel=1e-12)


# stream key words: negative ints wrap to two's complement, so both ends of
# the 64-bit range and beyond 2**63 are covered
WORDS = st.integers(min_value=-(2**63), max_value=2**64 - 1)
KEYS = st.lists(WORDS, min_size=1, max_size=5)
LAYOUTS = st.lists(st.tuples(st.sampled_from(["gaussian", "uniform"]), st.integers(0, 30)), min_size=1, max_size=3)
KIND_PAIRS = [("gaussian", "gaussian"), ("uniform", "uniform"), ("point", "gaussian"), ("gaussian", "zero"),
              ("uniform", "gaussian"), ("gaussian", "uniform"), ("point", "zero")]
SQRT3 = np.sqrt(3.0)


def _uniform(z: np.ndarray) -> np.ndarray:
    """The uniform kind's map of normals z, sqrt(3) (2 Phi(z) - 1) written
    as sqrt(3) erf(z sqrt(1/2)), in the operations lqrlab rounds."""
    return SQRT3 * erf(z * np.sqrt(0.5))


def _assert_same_bits(a, b) -> None:
    # compares the float64 bit patterns, so a -0.0 for a 0.0 fails
    np.testing.assert_array_equal(np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64))


def _instance_of_kinds(pair, d: int, T: int, factors=(None, None)):
    noise = NoiseModel(pair[1], 0.4, factors[1])
    init = InitialStateModel(pair[0], np.linspace(-1.0, 1.0, d), 0.6, factors[0])
    return constant_instance(np.eye(d), np.ones((d, 1)), np.eye(d), np.eye(1), np.eye(d), T, noise, init)


@st.composite
def factors(draw, d: int):
    """A (d, d) factor, or None for the identity: full (rows mixing
    columns), full with a zero column, or each row reading at most one
    column, with zero rows and zero columns, some zeros -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["identity", "full", "full, a zero column", "one a row"]))
    if shape == "identity":
        return None
    if shape.startswith("full"):
        F = rng.normal(size=(d, d))
        if shape.endswith("column"):
            F[:, draw(st.integers(0, d - 1))] = -0.0
        return F
    F = np.where(rng.random((d, d)) < 0.5, -0.0, 0.0)
    for r, c in enumerate(draw(st.lists(st.one_of(st.none(), st.integers(0, d - 1)), min_size=d, max_size=d))):
        if c is not None:
            F[r, c] = rng.normal() * 10.0 ** rng.uniform(-3, 3)
    return F


class TestModelSample:
    # a model of unit sigma and the identity factor samples standardized
    # draws: one number a coordinate, zero mean and unit variance

    @settings(deadline=None, max_examples=100)
    @given(key=KEYS, layout=LAYOUTS)
    def test_draws_are_the_streams_normals_in_order(self, key, layout):
        # sample calls of several kinds on one generator take consecutive runs
        # of make_rng(key).standard_normal, one number a coordinate, a
        # uniform as sqrt(3) erf(z sqrt(1/2)) of its normal
        z = make_rng(key).standard_normal(sum(width for _, width in layout))
        ref = np.split(z, np.cumsum([width for _, width in layout])[:-1])
        ref = [part if kind == "gaussian" else _uniform(part) for (kind, _), part in zip(layout, ref)]
        rng = make_rng(key)
        drawn = [NoiseModel(kind).sample(rng, (), width) for kind, width in layout]
        _assert_same_bits(np.concatenate(drawn), np.concatenate(ref))

    def test_uniforms_match_an_independent_normal_cdf(self):
        z = make_rng(17).standard_normal(4096).tolist() + [-40.0, -8.5, -0.0, 0.0, 8.5, 40.0]
        ref = [SQRT3 * (2 * statistics.NormalDist().cdf(v) - 1) for v in z]
        u = core._standardize("uniform", np.array(z))
        np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12)
        # the closed interval: far tails map to its ends, and 0 to 0
        assert u[-6] == -SQRT3 and u[-1] == SQRT3 and u[-4] == u[-3] == 0.0

    def test_make_rng_generators_pickle(self):
        # make_rng is public: a generator sent to another process by pickle
        # goes on with the same draws
        rng = make_rng((3, -1, 2**63))
        rng.standard_normal(5)
        copy = pickle.loads(pickle.dumps(rng))
        _assert_same_bits(copy.standard_normal(9), rng.standard_normal(9))

    def test_rejects_long_keys(self):
        with pytest.raises(ValueError):
            make_rng([1, 2, 3, 4, 5, 6])

    @pytest.mark.parametrize("key", [1.5, "3", None, [1, 2.0], (4, np.float64(1.0)), np.array([1.0, 2.0])])
    def test_rejects_keys_that_are_not_integers(self, key):
        # a fraction used to draw the stream of its integer part and a string that of its number
        for draw in (make_rng, lambda key: core._stream_normals(key, 3)):
            with pytest.raises(TypeError, match="got " + re.escape(repr(key))):
                draw(key)

    def test_numpy_integer_words_name_the_streams_of_python_ints(self):
        for key, same in [(np.uint64(2**64 - 1), -1), (np.array([3, -2]), (3, 2**64 - 2)), ((np.int8(-1), 5), (-1, 5))]:
            _assert_same_bits(make_rng(key).standard_normal(9), make_rng(same).standard_normal(9))
            _assert_same_bits(core._stream_normals(key, 9), make_rng(same).standard_normal(9))

    @settings(deadline=None, max_examples=100)
    @given(draws=st.lists(st.tuples(KEYS, st.lists(st.integers(0, 6), max_size=3).map(tuple), st.integers(0, 9)),
                          min_size=1, max_size=6), live_key=KEYS)
    def test_stream_normals_are_make_rngs_normals(self, draws, live_key):
        # each draw on the thread's reused generator is make_rng(key)'s first
        # numbers, whatever keys came before it; a live make_rng generator
        # drawing between them goes on with its own stream
        live, taken = make_rng(live_key), []
        for key, shape, between in draws:
            got = core._stream_normals(key, shape)
            ref = make_rng(key).standard_normal(shape)
            assert type(got) is np.ndarray and got.shape == ref.shape
            _assert_same_bits(got, ref)
            taken.append(live.standard_normal(between))
        _assert_same_bits(np.concatenate(taken), make_rng(live_key).standard_normal(sum(map(len, taken))))

    def test_rejects_unknown_kinds(self):
        for model in (NoiseModel, lambda kind: InitialStateModel(kind, np.zeros(1))):
            with pytest.raises(ValueError, match="unknown .* kind 'point-mass'"):
                model("point-mass")

    def test_shapes_lead_and_degenerate_or_empty_draws_take_no_number(self):
        for kind in ("gaussian", "uniform"):
            model = NoiseModel(kind)
            flat = model.sample(make_rng(8), (), 6)
            _assert_same_bits(model.sample(make_rng(8), (2,), 3), flat.reshape(2, 3))
            rng = make_rng(8)
            assert model.sample(rng, (), 0).shape == (0,) and model.sample(rng, (0,), 3).shape == (0, 3)
            _assert_same_bits(InitialStateModel("point", np.zeros(4)).sample(rng, (), 4), np.zeros(4))
            _assert_same_bits(NoiseModel("zero").sample(rng, (2,), 2), np.zeros((2, 2)))
            _assert_same_bits(model.sample(rng, (), 6), flat)

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_vectors_keep_one_array(self, kind):
        # a uniform maps its normals in place, so the vectors of n numbers
        # peak at the one n-number result
        n = 2**17
        model = NoiseModel(kind)
        model.sample(make_rng(1), (), 8)  # imports erf outside the trace
        z = make_rng(2).standard_normal(n)
        tracemalloc.start()
        try:
            x = model.vectors(z, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (n,) and 8 * n <= peak < 1.5 * 8 * n

    def test_moments_and_ks_distance_of_a_million_draws(self):
        # 2**20 normals of one stream; thresholds fixed before the first run:
        # five standard errors for each moment and a KS distance whose chance
        # under a true normal is about 1e-6 (2 exp(-2 * 2.7**2))
        n = 2**20
        x = np.sort(NoiseModel("gaussian").sample(make_rng((29, 3)), (), n))
        z = (x - x.mean()) / x.std()
        assert abs(x.mean()) < 5 / np.sqrt(n)
        assert abs(x.var() - 1) < 5 * np.sqrt(2 / n)
        assert abs((z**3).mean()) < 5 * np.sqrt(6 / n)
        assert abs((z**4).mean() - 3) < 5 * np.sqrt(24 / n)
        cdf = ndtr(x)
        ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert ks < 2.7 / np.sqrt(n)

    def test_ks_distance_of_a_million_uniforms(self):
        # 2**20 uniforms of one stream against the uniform CDF on
        # [-sqrt(3), sqrt(3)], with the KS threshold of the normals
        n = 2**20
        x = np.sort(NoiseModel("uniform").sample(make_rng((31, 3)), (), n))
        assert -SQRT3 <= x[0] and x[-1] <= SQRT3
        cdf = (x + SQRT3) / (2 * SQRT3)
        ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert ks < 2.7 / np.sqrt(n)


def test_gaussian_work_leaves_scipy_special_unimported(tmp_path):
    # the CLI module, the Riccati solve, exact and zeroth-order descents, a
    # Gaussian-only estimate, simulate_trajectory and a Q-learning sweep never
    # import scipy (its RSS and import time); CLI runs import the top-level
    # package for the manifest's scipy version, and their aggregate medians
    # not numpy.ma; the first uniform draw imports scipy.special
    code = """if True:
        import io, json, os, sys
        from contextlib import redirect_stdout
        import numpy as np
        import lqrlab.cli
        from lqrlab import (DescentConfig, LqrSimulator, SmoothingConfig, estimate_gradient, run_exact_pg,
                            run_modelfree_ppg, simulate_trajectory, solve_riccati)
        from lqrlab.benchmarks import scalar_benchmark, stock_liquidation
        from lqrlab.core import NoiseModel, make_rng
        from lqrlab.liquidation import ac_to_lqr, liquidation_constraint
        from lqrlab.qlearn import make_qtable, q_learning_step
        liq, scalar = ac_to_lqr(stock_liquidation()), scalar_benchmark()
        K0 = np.full((liq.T, 1, 2), -0.2)
        solve_riccati(liq)
        run_exact_pg(scalar, np.zeros((5, 1, 1)), DescentConfig(eta=0.5, iters=2))
        run_modelfree_ppg(liq, K0, DescentConfig(eta=0.05, iters=2), SmoothingConfig(0.6, 20), 3,
                          liquidation_constraint(5e-5, 1e-12))
        estimate_gradient(LqrSimulator(liq), K0, SmoothingConfig(0.6, 20), 3)
        simulate_trajectory(scalar, np.zeros((5, 1, 1)), 1)
        q_learning_step(make_qtable(scalar, 11, 11), scalar, 0.5, 2)
        print("scipy" in sys.modules)
        base = ("instance.A = [[1.0]]\\ninstance.B = [[0.2]]\\ninstance.Q = [[0.2]]\\ninstance.R = [[0.1]]\\n"
                "instance.T = 5\\ninstance.noise.sigma = 0.1\\ninstance.init.mean = [1.0]\\n")
        versions = []
        for kind, extra in [("zo-pg", "eta = 0.2\\niters = 3\\nradius = 0.1\\nsamples = 5\\n"),
                            ("qlearn", "sweeps = 2\\nn_states = 11\\nn_actions = 5\\neval_rollouts = 20\\n")]:
            cfg = os.path.join(sys.argv[1], kind + ".cfg")
            with open(cfg, "w") as f:
                f.write(base + extra)
            with redirect_stdout(io.StringIO()) as text:
                argv = [kind, "--config", cfg, "--seeds", "0", "1", "--out", os.path.join(sys.argv[1], kind)]
                assert lqrlab.cli.main(argv) == 0
            versions.append(json.loads(text.getvalue())["versions"]["scipy"])
        import scipy
        print("numpy.ma" in sys.modules, versions == [scipy.__version__] * 2)
        print("scipy.linalg" in sys.modules, "scipy.special" in sys.modules)
        NoiseModel("uniform").sample(make_rng(0), (), 3)
        print("scipy.special" in sys.modules)
    """
    src = str(Path(core.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False", "True", "False", "False", "True"]


class TestFactorProducts:
    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), d=st.integers(1, 4), sigma=st.floats(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_models_read_the_live_columns_as_the_matrix_products(self, data, d, sigma, seed):
        # a model draws one number per live (nonzero) column of its factor,
        # all d for the identity and at least one, and reads them as the
        # matrix product over every column, on numbers with +-0.0 entries:
        # byte for byte, except to rounding where rows mix columns and a
        # zero column drops a term from each sum
        F = data.draw(factors(d))
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(4, 3, d))
        v[rng.random(v.shape) < 0.2] = -0.0
        v[rng.random(v.shape) < 0.1] = 0.0
        mean = rng.normal(size=d)
        Fm = np.eye(d) if F is None else F
        live = (Fm != 0).any(axis=0)
        live[0] |= not live.any()
        noise, init = NoiseModel("gaussian", sigma, F), InitialStateModel("gaussian", mean, sigma, F)
        assert noise._width(d) == init._width(d) == live.sum()
        scaled, placed = noise.vectors(v[..., live], d), init.vectors(v[..., live], d)
        noise_ref, init_ref = sigma * (v @ Fm.T), mean + sigma * (Fm @ v[..., None])[..., 0]
        if ((Fm != 0).sum(axis=1) > 1).any() and not live.all():
            atol = 1e-12 * (1 + np.abs(noise_ref).max())
            np.testing.assert_allclose(scaled, noise_ref, rtol=1e-12, atol=atol)
            np.testing.assert_allclose(placed, init_ref, rtol=1e-12, atol=atol)
        else:
            assert scaled.tobytes() == noise_ref.tobytes()
            assert placed.tobytes() == init_ref.tobytes()


class TestSamplePaths:
    @pytest.mark.parametrize("init_kind,noise_kind", KIND_PAIRS)
    def test_matches_model_draws(self, init_kind, noise_kind):
        # LqrSimulator's paths under full start and noise factors, whose rows
        # mix columns, against the models' own draw methods, called in turn on
        # one stream
        rng = np.random.default_rng(7)
        d, T, seed, iteration = 3, 4, 4, 2**64 - 1
        noise = NoiseModel(noise_kind, 0.4, rng.normal(size=(d, d)))
        init = InitialStateModel(init_kind, rng.normal(size=d), 0.6, rng.normal(size=(d, d)))
        inst = constant_instance(np.eye(d), np.ones((d, 1)), np.eye(d), np.eye(1), np.eye(d), T, noise, init)
        x0, w = mapped(inst, LqrSimulator(inst).paths(seed, iteration, 6))
        ref = make_rng((seed, iteration, 0, 0, 1))
        for j in range(6):
            _assert_same_bits(x0[j], init.draw(ref))
            _assert_same_bits(w[j], noise.draw(ref, T, d))

    def test_models_reject_unknown_kinds(self):
        with pytest.raises(ValueError):
            NoiseModel("point")
        with pytest.raises(ValueError):
            InitialStateModel("zero", np.zeros(1))


class TestStreamPaths:
    @pytest.mark.parametrize("pair", KIND_PAIRS, ids="-".join)
    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), seed=WORDS, iteration=WORDS, d=st.integers(1, 3), T=st.integers(1, 6),
           n=st.integers(0, 40))
    @example(data=None, seed=4, iteration=2**64 - 1, d=3, T=4, n=6)
    def test_rows_are_consecutive_model_draws(self, pair, data, seed, iteration, d, T, n):
        # row j of LqrSimulator's paths: the (j + 1)-th pair of init.draw and
        # noise.draw on its stream, byte for byte, for factors that mix
        # columns or leave some unread (data=None: full factors), so row j is
        # the j-th run of N normals and n rows leave the stream n * N normals on
        if data is None:
            fs = tuple(np.random.default_rng(7).normal(size=(2, d, d)))
        else:
            fs = data.draw(factors(d)), data.draw(factors(d))
        inst = _instance_of_kinds(pair, d, T, fs)
        key = (seed, iteration, 0, 0, 1)
        x0, w = mapped(inst, LqrSimulator(inst).paths(seed, iteration, n))
        assert x0.shape == (n, d) and w.shape == (n, T, d)
        ref = make_rng(key)
        for j in range(n):
            assert x0[j].tobytes() == inst.init.draw(ref).tobytes()
            assert w[j].tobytes() == inst.noise.draw(ref, T, d).tobytes()
        rng = make_rng(key)
        path_normals(inst, rng, n)
        N = path_width(inst)
        assert rng.standard_normal() == ref.standard_normal() == make_rng(key).standard_normal(n * N + 1)[-1]

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), key=KEYS, pair=st.sampled_from(KIND_PAIRS), d=st.integers(1, 3), T=st.integers(1, 6),
           n=st.integers(0, 40), split=st.integers(0, 40))
    def test_two_calls_continuing_a_stream_equal_one_call(self, data, key, pair, d, T, n, split):
        # two calls that continue one stream give the rows of one call, for
        # factors that mix columns or leave some unread
        inst = _instance_of_kinds(pair, d, T, (data.draw(factors(d)), data.draw(factors(d))))
        one = mapped(inst, path_normals(inst, make_rng(key), n))
        rest, cut = make_rng(key), min(split, n)
        parts = mapped(inst, path_normals(inst, rest, cut)), mapped(inst, path_normals(inst, rest, n - cut))
        for a, c in zip(one, (np.concatenate(p) for p in zip(*parts))):
            _assert_same_bits(a, c)

    @settings(deadline=None, max_examples=100)
    @given(seed=WORDS, iteration=WORDS, pair=st.sampled_from(KIND_PAIRS), d=st.integers(1, 3), T=st.integers(1, 9))
    @example(seed=3, iteration=4, pair=("gaussian", "uniform"), d=1, T=7)
    def test_rows_match_simulated_trajectories(self, seed, iteration, pair, d, T):
        # path layouts of every kind pair, degenerate parts skipped, against
        # the start state and noise simulate_trajectory draws on the stream
        # advanced to each row
        inst = _instance_of_kinds(pair, d, T)
        x0, w = mapped(inst, LqrSimulator(inst).paths(seed, iteration, 5))
        rows = simulated_rows(inst, (seed, iteration, 0, 0, 1), {j: np.zeros((T, 1, d)) for j in range(5)})
        for j, traj in rows.items():
            _assert_same_bits(x0[j], traj.states[0])
            _assert_same_bits(w[j], traj.noises)

    @pytest.mark.parametrize("width", [1, 3, 4, 5, 8, 9])
    def test_widths_around_block_edges_take_the_stream_in_order(self, width):
        # numpy's Philox hands out four words a block and the normal sampler
        # takes about one word a number: a row of N numbers is numbers j * N
        # to (j + 1) * N - 1 of one make_rng(key).standard_normal sequence,
        # wherever the block edges fall, and the stream ends n * N numbers on
        pair, T = (("gaussian", "uniform"), width - 1) if width > 1 else (("gaussian", "zero"), 1)
        inst = _instance_of_kinds(pair, 1, T)
        assert path_width(inst) == width
        n = 9
        for key in [(3, 2**64 - 2), (7, -1, 1, 2**63, 5)]:
            ref = make_rng(key)
            z = ref.standard_normal((n, width))
            rng = make_rng(key)
            x0, w = mapped(inst, path_normals(inst, rng, n))
            # the uniform noise as the Gaussian model's vectors of _uniform's map
            scaled = dataclasses.replace(inst.noise, kind="gaussian")
            for j, row in enumerate(z):
                _assert_same_bits(x0[j], inst.init.vectors(row[:1], 1))
                noise = np.zeros((1, 1)) if width == 1 else scaled.vectors(_uniform(row[1:, None]), 1)
                _assert_same_bits(w[j], noise)
            assert rng.standard_normal() == ref.standard_normal()

    def test_threads_drawing_interleaved_keys_get_the_serial_arrays(self):
        # more threads than cores, switching often; thread j draws the rows of
        # every fourth key from j on, in one paths call and in two calls that
        # continue one stream, on models whose live columns no draw has read yet
        def instances():
            fs = (np.diag([1.0, 0.0, 2.0]), np.diag([0.0, 0.5, 0.0]))
            return [_instance_of_kinds(pair, 3, 4, fs) for pair in KIND_PAIRS]

        def draw(insts, n):
            inst = insts[n % len(insts)]
            rng = make_rng((11, n, 0, 0, 1))
            first, rest = mapped(inst, path_normals(inst, rng, 17)), mapped(inst, path_normals(inst, rng, 20))
            return [*mapped(inst, LqrSimulator(inst).paths(11, n, 37)), *(np.concatenate(part) for part in zip(first, rest))]

        serial_insts = instances()
        serial = [draw(serial_insts, n) for n in range(40)]
        insts, got = instances(), {}
        barrier = threading.Barrier(4)

        def run(j):
            barrier.wait()
            for n in range(j, 40, 4):
                got[n] = draw(insts, n)

        threads = [threading.Thread(target=run, args=(j,)) for j in range(4)]
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
        for n, ref in enumerate(serial):
            for a, b in zip(got[n], ref):
                _assert_same_bits(a, b)

    def test_zero_width_paths_draw_nothing(self):
        # a point start with zero noise takes no number from the stream
        inst = _instance_of_kinds(("point", "zero"), 2, 4)
        rng = make_rng((1, 2))
        x0, w = mapped(inst, path_normals(inst, rng, 3))
        _assert_same_bits(x0, np.tile(inst.init.mean, (3, 1)))
        _assert_same_bits(w, np.zeros((3, 4, 2)))
        assert rng.standard_normal() == make_rng((1, 2)).standard_normal()
