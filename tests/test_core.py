import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from lqrlab.benchmarks import scalar_benchmark, stock_liquidation
from lqrlab.core import (CounterStream, keyed_draws, keyed_paths, make_rng, pathwise_cost_terms, sample_paths,
                         standard_draw)
from lqrlab.liquidation import ac_to_lqr
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
        inst = scalar_benchmark()
        K = np.zeros((5, 1, 1))
        exact = exact_cost(inst, K)
        costs = np.array([simulate_trajectory(inst, K, [7, i]).realized_cost for i in range(100000)])
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
KEYS = st.lists(WORDS, min_size=1, max_size=5)


def _consume(rng, kind: int, n: int) -> None:
    """Leave a generator mid-stream: an odd count of 32-bit halves leaves a
    pending half word, the others stop inside Philox's 4-word output block."""
    if kind == 0:
        rng.integers(0, 2**32, size=2 * n + 1, dtype=np.uint32)
    elif kind == 1:
        rng.standard_normal(n)
    else:
        rng.random(n)


def _draws(rng) -> list:
    return [rng.integers(0, 2**32, size=3, dtype=np.uint32), rng.standard_normal(5), rng.uniform(-2.0, 2.0, 4),
            rng.integers(0, 2**64, size=2, dtype=np.uint64)]


def _assert_same_draws(a, b) -> None:
    for x, y in zip(_draws(a), _draws(b)):
        np.testing.assert_array_equal(x, y)


class TestCounterStream:
    @settings(deadline=None, max_examples=200)
    @given(previous=KEYS, key=KEYS, kind=st.integers(0, 2), n=st.integers(0, 9))
    def test_rekey_matches_make_rng(self, previous, key, kind, n):
        stream = CounterStream()
        _consume(stream.rekey(previous), kind, n)
        _assert_same_draws(stream.rekey(key), make_rng(key))

    @settings(deadline=None, max_examples=100)
    @given(prefix=st.lists(WORDS, min_size=2, max_size=2),
           tails=st.lists(st.lists(st.integers(0, 2**64 - 1), max_size=3), min_size=1, max_size=3),
           kind=st.integers(0, 2), n=st.integers(0, 9))
    def test_rekey_tail_keeps_the_first_two_words(self, prefix, tails, kind, n):
        stream = CounterStream()
        stream.rekey(prefix)
        for tail in tails:
            rng = stream.rekey_tail(*tail)
            _assert_same_draws(rng, make_rng([*prefix, *tail]))
            _consume(rng, kind, n)

    def test_rejects_long_keys(self):
        with pytest.raises(ValueError):
            CounterStream().rekey([1, 2, 3, 4, 5, 6])


class TestSamplePaths:
    @pytest.mark.parametrize("init_kind,noise_kind", [
        ("gaussian", "gaussian"), ("uniform", "uniform"), ("point", "gaussian"), ("gaussian", "zero"),
        ("uniform", "gaussian"), ("gaussian", "uniform"), ("point", "zero"),
    ])
    def test_matches_model_draws(self, init_kind, noise_kind):
        rng = np.random.default_rng(7)
        d, T = 3, 4
        noise = NoiseModel(noise_kind, 0.4, rng.normal(size=(d, d)))
        init = InitialStateModel(init_kind, rng.normal(size=d), 0.6, rng.normal(size=(d, d)))
        inst = constant_instance(np.eye(d), np.ones((d, 1)), np.eye(d), np.eye(1), np.eye(d), T, noise, init)
        keys = [[4, j, -1] for j in range(6)]
        x0, w = sample_paths(inst, (make_rng(key) for key in keys), len(keys))
        for j, key in enumerate(keys):
            ref = make_rng(key)
            np.testing.assert_array_equal(x0[j], init.draw(ref))
            np.testing.assert_array_equal(w[j], noise.draw(ref, T, d))

    def test_models_reject_unknown_kinds(self):
        with pytest.raises(ValueError):
            NoiseModel("point")
        with pytest.raises(ValueError):
            InitialStateModel("zero", np.zeros(1))


U64 = st.integers(min_value=0, max_value=2**64 - 1)
PREFIXES = st.lists(WORDS, min_size=2, max_size=2)
TAILS = st.lists(st.tuples(U64, U64, U64), min_size=1, max_size=8)
KIND_PAIRS = [("gaussian", "gaussian"), ("uniform", "uniform"), ("point", "gaussian"), ("gaussian", "zero"),
              ("uniform", "gaussian"), ("gaussian", "uniform"), ("point", "zero")]


def _per_key_draws(layout, prefix, tails) -> np.ndarray:
    """The reference: one make_rng per key, standard_draw per part."""
    rows = []
    for tail in tails:
        rng = make_rng([*prefix, *tail])
        rows.append(np.concatenate([standard_draw(kind, rng, width) for kind, width in layout]))
    return np.array(rows)


def _assert_same_bits(a, b) -> None:
    # compares the float64 bit patterns, so a -0.0 for a 0.0 fails
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


_RABS = (1 << 52) - 1


def _ziggurat_walk(words, layout, tables):
    """numpy's standard_normal and uniform read off one row of raw words with
    the derived tables, output by output: the (case, layer, output) of every
    Gaussian word off the fast path, where "tail", "guard" (words numpy is
    left to decide) and "end" (of the words given) stop the walk."""
    wi, ki, kw, fd, fi = tables
    events, p = [], 0
    for kind, width in layout:
        for o in range(width):
            while True:
                if p >= len(words):
                    return events + [("end", None, o)]
                w = int(words[p])
                i, rabs = w & 0x1FF, (w >> 9) & _RABS
                if kind == "uniform" or rabs < ki[i]:
                    p += 1
                    break
                if rabs < kw[i]:
                    return events + [("tail" if i % 256 == 0 else "guard", i % 256, o)]
                if p + 1 >= len(words):
                    return events + [("end", i % 256, o)]
                x = rabs * wi[i]
                accept = fd[i] * ((int(words[p + 1]) >> 11) * 2.0**-53) + fi[i] < np.exp(-0.5 * x * x)
                events.append(("accept" if accept else "reject", i % 256, o))
                p += 2
                if accept:
                    break
    return events


def _wedge_events(events):
    return [e for e in events if e[0] in ("accept", "reject")]


# rows that exercise numpy's wedge branch, each with the case it must hit
# among the words keyed_draws computes: (case, prefix, tails, layout)
WEDGE_CASES = [
    ("layer 1", [5, 8], [(8, 0, 1)], [("gaussian", 6)]),
    ("accept", [5, 8], [(26, 0, 1)], [("gaussian", 6)]),
    ("reject", [5, 8], [(2, 0, 1)], [("gaussian", 6)]),
    ("two events", [5, 8], [(590, 0, 1)], [("gaussian", 6)]),
    ("reject before a uniform part", [5, 8], [(187, 0, 1)], [("gaussian", 3), ("uniform", 3)]),
    ("accept after a uniform part", [5, 8], [(26, 0, 1)], [("uniform", 2), ("gaussian", 4)]),
    ("tail", [5, 8], [(1383, 0, 1)], [("gaussian", 6)]),
    ("end", [5, 8], [(142, 0, 1)], [("gaussian", 6)]),
]
WEDGE_HITS = {
    "layer 1": lambda ev, layout: any(e[1] == 1 for e in _wedge_events(ev)),
    "accept": lambda ev, layout: any(e[0] == "accept" and e[1] != 1 for e in ev),
    "reject": lambda ev, layout: any(e[0] == "reject" for e in ev),
    "two events": lambda ev, layout: len(_wedge_events(ev)) == 2 and ev[-1][0] in ("accept", "reject"),
    "reject before a uniform part": lambda ev, layout: any(e[0] == "reject" and e[2] == layout[0][1] - 1 for e in ev),
    "accept after a uniform part": lambda ev, layout: any(e[0] == "accept" and e[2] >= layout[0][1] for e in ev),
    "tail": lambda ev, layout: ev[-1:] and ev[-1][0] == "tail",
    "end": lambda ev, layout: ev[-1:] and ev[-1][0] == "end",
}
LAYOUTS = st.one_of(
    st.builds(lambda g: [("gaussian", g)], st.integers(1, 30)),
    st.builds(lambda g, u: [("gaussian", g), ("uniform", u)], st.integers(1, 30), st.integers(1, 8)),
    st.builds(lambda u, g: [("uniform", u), ("gaussian", g)], st.integers(1, 8), st.integers(1, 30)),
)


def _with_wedge_examples(test):
    for _, prefix, tails, layout in reversed(WEDGE_CASES):
        test = example(prefix=prefix, tails=tails, layout=layout)(test)
    return test


def _liquidation_slot_keys():
    """The path layout and keys of one zo-liquidation estimate (T = 10, m = 200)."""
    inst = ac_to_lqr(stock_liquidation())
    tails = np.array([(t, i, 1) for t in range(inst.T) for i in range(200)], dtype=np.uint64)
    return inst, (3 << 20, 5), tails


class TestKeyedDraws:
    @settings(deadline=None, max_examples=200)
    @given(prefix=PREFIXES, tails=TAILS,
           layout=st.lists(st.tuples(st.sampled_from(["gaussian", "uniform"]), st.integers(1, 30)), min_size=1, max_size=3))
    # a one-word part in rows of 8 words: numpy 2.4's masked in-place negative
    # reads such a column with the wrong stride
    @example(prefix=[0, 1], tails=[(0, 0, 0), (0, 0, 0)], layout=[("gaussian", 1), ("gaussian", 7)])
    def test_matches_per_key_draws(self, prefix, tails, layout):
        _assert_same_bits(keyed_draws(layout, prefix, tails), _per_key_draws(layout, prefix, tails))

    @settings(deadline=None, max_examples=100)
    @given(prefix=PREFIXES, tails=TAILS, pair=st.sampled_from(KIND_PAIRS), d=st.integers(1, 3), T=st.integers(1, 9))
    @example(prefix=[3, 4], tails=[(0, i, 1) for i in range(8)], pair=("gaussian", "uniform"), d=1, T=7)
    def test_paths_match_per_key_paths(self, prefix, tails, pair, d, T):
        # path layouts of every kind pair: merged same-kind parts, skipped degenerate ones
        noise = NoiseModel(pair[1], 0.4)
        init = InitialStateModel(pair[0], np.linspace(-1.0, 1.0, d), 0.6)
        inst = constant_instance(np.eye(d), np.ones((d, 1)), np.eye(d), np.eye(1), np.eye(d), T, noise, init)
        x0, w = keyed_paths(inst, prefix, tails)
        ref_x0, ref_w = sample_paths(inst, (make_rng([*prefix, *tail]) for tail in tails), len(tails))
        _assert_same_bits(x0, ref_x0)
        _assert_same_bits(w, ref_w)

    @settings(deadline=None, max_examples=100)
    @given(prefixes=st.lists(PREFIXES, min_size=1, max_size=4), tails=TAILS, pair=st.sampled_from(KIND_PAIRS),
           d=st.integers(1, 3), T=st.integers(1, 6), emptied=st.booleans(), chunk=st.sampled_from([3, 4096]))
    def test_prefix_batch_equals_one_call_per_prefix(self, prefixes, tails, pair, d, T, emptied, chunk):
        # a (B, 2) batch of prefixes, as nested ints and as uint64 words, in
        # passes of a few rows or of all, on the fast path or all on the per-key one
        noise = NoiseModel(pair[1], 0.4)
        init = InitialStateModel(pair[0], np.linspace(-1.0, 1.0, d), 0.6)
        layout = core._path_layout(constant_instance(np.eye(d), np.ones((d, 1)), np.eye(d), np.eye(1), np.eye(d), T,
                                                     noise, init))
        singles = [keyed_draws(layout, prefix, tails) for prefix in prefixes]
        words = np.array([[w % 2**64 for w in prefix] for prefix in prefixes], dtype=np.uint64)
        tables, kept_chunk = core._ziggurat_tables(), core._KEYED_CHUNK
        core._ziggurat, core._KEYED_CHUNK = (() if emptied else tables), chunk
        try:
            batches = keyed_draws(layout, prefixes, tails), keyed_draws(layout, words, tails)
        finally:
            core._ziggurat, core._KEYED_CHUNK = tables, kept_chunk
        for batch in batches:
            assert batch.shape == (len(prefixes), *singles[0].shape)
            for got, single in zip(batch, singles):
                _assert_same_bits(got, single)

    @settings(deadline=None, max_examples=150)
    @given(prefix=PREFIXES, tails=st.lists(st.tuples(U64, U64, U64), min_size=1, max_size=40), layout=LAYOUTS)
    @_with_wedge_examples
    def test_wedge_rows_match_per_key_draws(self, prefix, tails, layout):
        # Gaussian-only, Gaussian-then-uniform and uniform-then-Gaussian rows,
        # a quarter of them with wedge events at 20 normals
        _assert_same_bits(keyed_draws(layout, prefix, tails), _per_key_draws(layout, prefix, tails))

    @pytest.mark.parametrize("case, prefix, tails, layout", WEDGE_CASES, ids=[c[0] for c in WEDGE_CASES])
    def test_wedge_examples_hit_their_cases(self, case, prefix, tails, layout):
        width = sum(w for _, w in layout)
        words = core._philox_words(prefix, np.array(tails, dtype=np.uint64), core._computed_words(width))
        walks = [_ziggurat_walk(row, layout, core._ziggurat_tables()) for row in words]
        assert any(WEDGE_HITS[case](ev, layout) for ev in walks), walks

    def test_wedge_tables_reproduce_two_word_draws(self):
        # first normals of fresh keys: those that took two words are wedge
        # accepts, x = +-rabs wi[idx] with the derived wi[1] among them, and
        # the derived fi gives their verdicts; those of wedge words that took
        # more were rejected
        wi, ki, kw, fd, fi = core._ziggurat_tables()
        n = 4096
        x, follow = np.empty(n), np.empty(n, dtype=np.uint64)
        for j in range(n):
            rng = make_rng((11, 12, j, 0, 3))
            x[j] = rng.standard_normal()
            follow[j] = rng.bit_generator.random_raw()
        tails = np.array([(j, 0, 3) for j in range(n)], dtype=np.uint64)
        first, second, third = core._philox_words((11, 12), tails, 3).T
        idx = (first & np.uint64(0x1FF)).astype(np.intp)
        rabs = (first >> np.uint64(9)) & np.uint64(_RABS)
        wedge = rabs >= kw[idx]
        two = follow == third
        assert np.count_nonzero(two & (idx % 256 == 1)) >= 3
        assert wedge[two].all()
        _assert_same_bits(rabs[two] * wi[idx[two]], x[two])
        gap = fd[idx] * ((second >> np.uint64(11)) * 2.0**-53) + fi[idx] - np.exp(-0.5 * (rabs * wi[idx]) ** 2)
        assert (gap[two] < -core._WEDGE_BAND).all()
        rejected = wedge & ~two
        assert np.count_nonzero(rejected) >= 10 and (gap[rejected] > core._WEDGE_BAND).all()

    def test_verdicts_near_their_boundary_go_to_numpy(self):
        # a wedge word of layer 7 with the u that puts its verdict on the
        # boundary, and the same word with u = 0, a clear accept
        tables = core._ziggurat_tables()
        wi, ki, kw, fd, fi = tables
        rabs = int(kw[7]) + 4096
        x = rabs * wi[7]
        u = round((np.exp(-0.5 * x * x) - fi[7]) / fd[7] * 2.0**53)
        assert 0 < u < 2**53
        words = np.array([[rabs << 9 | 7, u << 11, 0, 0], [rabs << 9 | 7, 0, 0, 0]], dtype=np.uint64)
        ok, z = core._wedge_draws(words, [("gaussian", 1)], tables)
        assert ok.tolist() == [False, True]
        _assert_same_bits(z, [[x]])

    def test_wedge_resolves_zo_liquidation_rows_in_arrays(self):
        # all but the tail, guard-band and run-out rows: at least 97% of the
        # path rows of five zo-liquidation estimates
        inst, (seed, _), tails = _liquidation_slot_keys()
        layout = core._path_layout(inst)
        width = sum(w for _, w in layout)
        done = [core._array_draws(core._philox_words((seed, it), tails, core._computed_words(width)), layout,
                                  core._ziggurat_tables(), np.empty((len(tails), width))) for it in range(5)]
        assert np.mean(done) >= 0.97, f"{np.mean(done):.4f} of zo-liquidation rows resolved in arrays"

    def test_empty_tables_send_every_row_to_the_per_key_path(self, monkeypatch):
        layout = [("uniform", 3), ("gaussian", 17)]
        tails = np.array([(t, i, 7) for t in range(3) for i in range(40)], dtype=np.uint64)
        inst, prefix, slot_tails = _liquidation_slot_keys()
        fast = keyed_draws(layout, (-9, 2**63 + 1), tails), keyed_paths(inst, prefix, slot_tails)
        monkeypatch.setattr(core, "_ziggurat", ())
        assert not core._fast_draws(core._philox_words((-9, 2**63 + 1), tails, 20), layout, (), np.empty((120, 20))).any()
        assert not core._array_draws(core._philox_words((-9, 2**63 + 1), tails, 24), layout, (), np.empty((120, 20))).any()
        _assert_same_bits(keyed_draws(layout, (-9, 2**63 + 1), tails), fast[0])
        for a, b in zip(keyed_paths(inst, prefix, slot_tails), fast[1]):
            _assert_same_bits(a, b)

    def test_racing_first_calls_share_one_table(self, monkeypatch):
        # more threads than cores, switching often, all released at once
        monkeypatch.setattr(core, "_ziggurat", None)
        barrier = threading.Barrier(4)
        got = [None] * 4

        def first_call(j):
            barrier.wait()
            got[j] = core._ziggurat_tables()

        threads = [threading.Thread(target=first_call, args=(j,)) for j in range(4)]
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
        assert got[0] and all(g is got[0] for g in got)
        for a, b in zip(got[0], core._derive_ziggurat()):
            np.testing.assert_array_equal(a, b)

    def test_threads_keep_their_own_stream(self, monkeypatch):
        # with no tables every row takes the per-key path through the
        # thread's CounterStream; threads drawing at once (more than cores)
        # must each get the rows of their own keys
        monkeypatch.setattr(core, "_ziggurat", ())
        layout = [("gaussian", 5), ("uniform", 2)]
        tails = np.stack([np.arange(150), np.zeros(150), np.ones(150)], axis=1).astype(np.uint64)
        prefixes = [(11, 1), (12, 2), (13, 3), (14, 4)]
        expected = [keyed_draws(layout, p, tails) for p in prefixes]
        streams, kept, got = [None] * 4, [False] * 4, [[] for _ in prefixes]

        def draw(j):
            streams[j] = core._counter_stream()
            for _ in range(5):
                got[j].append(keyed_draws(layout, prefixes[j], tails))
            kept[j] = core._counter_stream() is streams[j]

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
        assert not any(th.is_alive() for th in threads) and all(kept)
        assert len({id(x) for x in streams}) == 4 and core._counter_stream() not in streams
        for j in range(4):
            assert len(got[j]) == 5
            for z in got[j]:
                _assert_same_bits(z, expected[j])

    def test_per_key_rows_build_no_stream(self, monkeypatch):
        monkeypatch.setattr(core, "_ziggurat", ())
        core._counter_stream()  # this thread's, built at its first use
        built = []
        monkeypatch.setattr(core, "CounterStream", lambda: built.append(1))
        for prefix in ((5, 1), (6, 2), (7, 3)):
            keyed_draws([("gaussian", 3)], prefix, np.ones((4, 3), dtype=np.uint64))
        assert not built

    def test_tables_hold_for_the_installed_numpy(self):
        # fails when numpy's ziggurat changes, rather than quietly losing the fast path
        tables = core._derive_ziggurat()
        assert tables and core._tables_agree(tables)
        inst, prefix, tails = _liquidation_slot_keys()
        layout = core._path_layout(inst)
        width = sum(w for _, w in layout)
        fast = core._fast_draws(core._philox_words(prefix, tails, width), layout, tables, np.empty((len(tails), width)))
        assert fast.mean() >= 0.6, f"{fast.mean():.3f} of zo-liquidation rows on the fast path"
