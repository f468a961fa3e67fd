import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqrlab import (
    DescentConfig,
    InitialStateModel,
    LqrSimulator,
    NoiseModel,
    ProjectionSet,
    SmoothingConfig,
    constant_instance,
    estimate_gradient,
    exact_cost,
    exact_gradient,
    run_modelfree_pg,
    run_modelfree_ppg,
    sample_sphere,
    sample_sphere_batch,
    simulate_trajectory,
    smoothed_gradient_reference,
)
from lqrlab import zeroth
from lqrlab.benchmarks import scalar_benchmark, stock_liquidation
from lqrlab.core import make_rng
from lqrlab.errors import Diverged, NotInSet, ZeroDirection, ZeroOptimalCost
from lqrlab.liquidation import ac_to_lqr, liquidation_constraint
from lqrlab.zeroth import _perturbed_costs, _row_forms, slot_paths, sphere_directions

from conftest import path_width, random_instance, random_policy, simulated_rows


class TestSphere:
    def test_norms_exact(self):
        U = sample_sphere_batch(500, (2, 3), 0.7, seed=4)
        np.testing.assert_allclose(np.sqrt((U**2).sum(axis=(1, 2))), 0.7, rtol=1e-12)

    def test_single_matches_norm_and_determinism(self):
        a = sample_sphere((1, 2), 0.05, [3, 0, 1, 7, 0])
        b = sample_sphere((1, 2), 0.05, [3, 0, 1, 7, 0])
        np.testing.assert_array_equal(a, b)
        assert abs(np.linalg.norm(a) - 0.05) < 1e-14

    def test_isotropy(self):
        # mean ~ 0 and second moment ~ r^2/D * I for sphere-uniform draws
        n, r = 200_000, 1.0
        U = sample_sphere_batch(n, (1, 2), r, seed=9).reshape(n, 2)
        assert np.abs(U.mean(axis=0)).max() < 4 / np.sqrt(n)
        M = U.T @ U / n
        np.testing.assert_allclose(M, np.eye(2) * r**2 / 2, atol=5e-3)

    def test_distinct_streams(self):
        a = sample_sphere((1, 2), 0.1, [3, 0, 1, 7, 0])
        b = sample_sphere((1, 2), 0.1, [3, 0, 1, 8, 0])
        assert not np.array_equal(a, b)

    def test_rows_are_runs_of_the_streams_normals(self):
        z = make_rng([3, 1]).standard_normal((6, 2, 3))
        ref = 0.4 * z / np.sqrt((z**2).sum(axis=(1, 2), keepdims=True))
        assert sample_sphere_batch(6, (2, 3), 0.4, [3, 1]).tobytes() == ref.tobytes()
        assert sample_sphere((2, 3), 0.4, [3, 1]).tobytes() == ref[0].tobytes()

    def test_a_row_of_zeros_is_a_typed_error(self, monkeypatch):
        # a normal is +-0 with chance about 2**-52, so a row of k * d = 1 can
        # be 0: the first such row is named instead of a 0 / 0 = nan direction
        class Stub:
            def __init__(self, zero_rows):
                self.zero_rows = zero_rows

            def standard_normal(self, size):
                g = np.ones(size)
                g[self.zero_rows] = -0.0
                return g

        monkeypatch.setattr(zeroth, "make_rng", lambda seed: Stub([2, 4]))
        with pytest.raises(ZeroDirection, match="row 2 "):
            sample_sphere_batch(5, (1, 1), 0.1, 7)
        monkeypatch.setattr(zeroth, "make_rng", lambda seed: Stub(slice(None)))
        with pytest.raises(ZeroDirection, match="row 0 "):
            sample_sphere((1, 1), 0.1, 7)


def _instance_of_kinds(init_kind, noise_kind, d=2, k=1, T=3):
    rng = np.random.default_rng(31)
    noise = NoiseModel(noise_kind, 0.4, rng.normal(size=(d, d)))
    init = InitialStateModel(init_kind, rng.normal(size=d), 0.6)
    return constant_instance(rng.normal(size=(d, d)) * 0.5, rng.normal(size=(d, k)), np.eye(d), np.eye(k), np.eye(d),
                             T, noise, init)


KIND_PAIRS = [("gaussian", "gaussian"), ("uniform", "uniform"), ("point", "gaussian"), ("gaussian", "zero"),
              ("uniform", "gaussian"), ("gaussian", "uniform"), ("point", "zero")]


class TestEstimatorDraws:
    @pytest.mark.parametrize("init_kind,noise_kind", KIND_PAIRS)
    def test_draws_are_rows_of_the_two_streams(self, init_kind, noise_kind):
        # rollout (t, i) reads row i * T + t of the sphere stream and of the
        # path stream, the latter as the models draw on it advanced to the row
        inst = _instance_of_kinds(init_kind, noise_kind)
        T, k, d, m, r = inst.T, inst.k, inst.d, 7, 0.3
        seed, it = -5, 2**63 + 4
        U = sphere_directions(T, m, (k, d), r, seed, it)
        rows = sample_sphere_batch(T * m, (k, d), r, [seed, it, 0, 0, 0])
        x0, w = slot_paths(inst, m, seed, it)
        rng = make_rng([seed, it, 0, 0, 1])
        for i in range(m):
            for t in range(T):
                j = i * T + t
                assert U[t, i].tobytes() == rows[j].tobytes()
                assert x0[j].tobytes() == inst.init.draw(rng).tobytes()
                assert w[j].tobytes() == inst.noise.draw(rng, T, d).tobytes()

    @settings(deadline=None, max_examples=60)
    @given(kinds=st.sampled_from(KIND_PAIRS), d=st.integers(1, 3), k=st.integers(1, 2), T=st.integers(1, 6),
           m=st.integers(1, 9), live=st.sampled_from([None, 0, 1]), seed=st.integers(-2**63, 2**64 - 1),
           iteration=st.integers(0, 2**64 - 1))
    def test_numbers_do_not_depend_on_m(self, kinds, d, k, T, m, live, seed, iteration):
        # an estimate at 2m draws the numbers of one at m for every (t, i < m),
        # the noise factor reading every column or one live column
        noise = NoiseModel(kinds[1], 0.4, None if live is None else np.diag(np.arange(d) == live % d))
        inst = constant_instance(np.eye(d), np.ones((d, k)), np.eye(d), np.eye(k), np.eye(d), T, noise,
                                 InitialStateModel(kinds[0], np.linspace(-1.0, 1.0, d), 0.6))
        U, U2 = (sphere_directions(T, n, (k, d), 0.3, seed, iteration) for n in (m, 2 * m))
        assert U.tobytes() == U2[:, :m].tobytes()
        for a, b in zip(slot_paths(inst, m, seed, iteration), slot_paths(inst, 2 * m, seed, iteration)):
            assert a.tobytes() == b[:T * m].tobytes()

    def test_threads_interleaving_estimates_get_the_serial_arrays(self):
        # more threads than cores, switching often; thread j runs the
        # estimates of every fourth (seed, iteration) from j on
        inst, K, cfg = ac_to_lqr(stock_liquidation()), np.full((10, 1, 2), -0.2), SmoothingConfig(0.6, 20)
        keys = [(seed, it) for seed in (3, -5) for it in range(20)]

        def draws(seed, it):
            return (sphere_directions(inst.T, 20, (1, 2), 0.6, seed, it), *slot_paths(inst, 20, seed, it),
                    estimate_gradient(inst, K, cfg, seed, iteration=it).grads)

        serial = [draws(*key) for key in keys]
        got = {}
        barrier = threading.Barrier(4)

        def run(j):
            barrier.wait()
            for n in range(j, len(keys), 4):
                got[n] = draws(*keys[n])

        threads = [threading.Thread(target=run, args=(j,)) for j in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for n, ref in enumerate(serial):
            for a, b in zip(got[n], ref):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("init_kind,noise_kind", KIND_PAIRS)
    def test_slots_replay_simulated_rows(self, init_kind, noise_kind):
        # cost (t, i) of the all-slots kernel is simulate_trajectory's, with
        # gain t perturbed by U[t, i], on the path stream advanced to row
        # i * T + t
        inst = _instance_of_kinds(init_kind, noise_kind, d=2, k=2, T=4)
        K = np.random.default_rng(5).normal(size=(4, 2, 2)) * 0.2
        U = sphere_directions(inst.T, 3, (2, 2), 0.2, -5, 9)
        costs = LqrSimulator(inst).rollout_perturbed_slots(K, U, -5, 9)
        perts = {}
        for t, i in np.ndindex(inst.T, 3):
            perts[i * inst.T + t] = K.copy()
            perts[i * inst.T + t][t] += U[t, i]
        refs = simulated_rows(inst, (-5, 9, 0, 0, 1), perts)
        for t, i in np.ndindex(inst.T, 3):
            assert costs[t, i] == pytest.approx(refs[i * inst.T + t].realized_cost, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 9])
    @pytest.mark.parametrize("init_kind,noise_kind", KIND_PAIRS)
    def test_all_slots_rollout_matches_per_slot_batches(self, init_kind, noise_kind, m):
        inst = _instance_of_kinds(init_kind, noise_kind, d=2, k=2, T=4)
        K = np.random.default_rng(4).normal(size=(4, 2, 2)) * 0.2
        sim = LqrSimulator(inst)
        U = sphere_directions(inst.T, m, (2, 2), 0.2, 8, 1)
        slots = sim.rollout_perturbed_slots(K, U, 8, 1)
        for t in range(inst.T):
            np.testing.assert_array_equal(slots[t], sim.rollout_perturbed_batch(K, t, U[t], [8, 1, t]))


class ReferenceKernel(LqrSimulator):
    """Reference rollout kernel: the _roll loop with its quadratic costs as
    row-major einsum calls."""

    def _roll(self, policy, U: np.ndarray, x0: np.ndarray, w: np.ndarray) -> np.ndarray:
        inst = self._inst
        T, m = U.shape[:2]
        K = np.asarray(policy, dtype=float)
        x = x0
        cost = np.zeros(T * m)
        for t in range(T):
            u = -(x @ K[t].T)
            u[t::T] = -np.einsum("ikd,id->ik", K[t][None] + U[t], np.ascontiguousarray(x[t::T]))
            cost += np.einsum("id,de,ie->i", x, inst.Q[t], x)
            cost += np.einsum("ik,kl,il->i", u, inst.R[t], u)
            x = x @ inst.A.T + u @ inst.B.T + w[:, t]
        cost += np.einsum("id,de,ie->i", x, inst.Q[T], x)
        return np.ascontiguousarray(cost.reshape(m, T).T)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _wide(rng, shape):
    """Normal entries scaled over sixteen decades."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


class TestRolloutKernel:
    @settings(deadline=None, max_examples=80)
    @given(d=st.integers(1, 5), k=st.integers(1, 3), T=st.integers(1, 6), m=st.sampled_from([1, 2, 3, 9, 200]),
           kinds=st.sampled_from(KIND_PAIRS), data=st.integers(0, 2**32 - 1), seed=st.integers(-2**63, 2**64 - 1),
           iteration=st.integers(0, 2**64 - 1))
    # two rows of width two, where numpy orders einsum's loops by strides alone
    @example(d=2, k=2, T=3, m=2, kinds=KIND_PAIRS[0], data=2, seed=0, iteration=0)
    def test_rollouts_match_reference_kernel(self, d, k, T, m, kinds, data, seed, iteration):
        # non-diagonal Q, R and terminal Q, so every cross term of a form counts
        rng = np.random.default_rng(data)
        M, N, F = rng.normal(size=(d, d)), rng.normal(size=(k, k)), rng.normal(size=(d, d))
        noise = NoiseModel(kinds[1], 0.4, rng.normal(size=(d, d)))
        init = InitialStateModel(kinds[0], rng.normal(size=d), 0.6)
        inst = constant_instance(rng.normal(size=(d, d)) * 0.5, rng.normal(size=(d, k)), M @ M.T + 0.3 * np.eye(d),
                                 N @ N.T + 0.3 * np.eye(k), F @ F.T, T, noise, init)
        K = rng.normal(size=(T, k, d)) * 0.3
        U = sphere_directions(T, m, (k, d), 0.2, seed, iteration)
        sim, ref = LqrSimulator(inst), ReferenceKernel(inst)
        np.testing.assert_array_equal(_bits(sim.rollout_perturbed_slots(K, U, seed, iteration)),
                                      _bits(ref.rollout_perturbed_slots(K, U, seed, iteration)))
        for t in range(T):
            key = (seed, iteration, t)
            np.testing.assert_array_equal(_bits(sim.rollout_perturbed_batch(K, t, U[t], key)),
                                          _bits(ref.rollout_perturbed_batch(K, t, U[t], key)))

    @pytest.mark.parametrize("n", [1, 2, 3, 250, 2000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_row_forms_match_row_major_einsum(self, n, d):
        rng = np.random.default_rng([n, d])
        for _ in range(20):
            wide = _wide(rng, (n, d + 3))
            M = _wide(rng, (d, d))  # neither diagonal nor symmetric
            for x in (np.ascontiguousarray(wide[:, :d]), wide[:, :d], wide[:, 2:d + 2]):
                np.testing.assert_array_equal(_bits(_row_forms(x, M)), _bits(np.einsum("id,de,ie->i", x, M, x)))


def _two_factor_instance(init_kind, init_factor, noise_kind, noise_factor, T=4):
    d = len(init_factor)
    init = InitialStateModel(init_kind, np.linspace(-1.0, 0.5, d), 0.6, np.asarray(init_factor))
    noise = NoiseModel(noise_kind, 0.4, np.asarray(noise_factor))
    return constant_instance(np.eye(d) * 0.9, np.ones((d, 1)), np.eye(d), np.eye(1), np.eye(d), T, noise, init)


# instance -> N, the standard normals a path row draws: one per live
# (nonzero) column of each start and noise vector's factor, whether the
# factor's rows each read one column or mix columns
UNREAD = {
    "liquidation": (ac_to_lqr(stock_liquidation()), 11),
    "non-diagonal, rows mixing columns": (_two_factor_instance(
        "gaussian", [[0.0, 0.3, -1.1], [0.0, 0.8, 0.4], [0.0, -0.5, 0.9]],
        "gaussian", [[1.2, 0.0, 0.3], [-0.7, 0.0, 0.5], [0.2, 0.0, -0.4]]), 10),
    "non-diagonal, one entry a row": (_two_factor_instance(
        "gaussian", [[0.0, 0.0, 2.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "gaussian", [[0.0, 0.7, 0.0], [0.0, 0.0, 0.0], [0.0, -1.2, 0.0]]), 6),
    # no live column: one number a vector is still drawn, times a zero
    "all-zero gaussian noise": (_two_factor_instance("gaussian", np.eye(2), "gaussian", np.zeros((2, 2))), 6),
    "uniform kinds": (_two_factor_instance(  # a start factor column of -0.0 is a zero column too
        "uniform", [[-0.0, 0.6, 0.0], [-0.0, -0.3, 0.0], [-0.0, 0.0, 1.1]],
        "uniform", [[0.5, 0.0, 1.0], [0.0, 0.0, -2.0], [0.3, 0.0, 0.0]]), 10),
}


class TestUnreadCoordinates:
    @pytest.mark.parametrize("name", list(UNREAD))
    def test_paths_equal_model_draws_byte_for_byte(self, name):
        # tobytes, so the sign of every zero counts; T * m rows leave the
        # stream T * m * N normals on
        inst, N = UNREAD[name]
        T, d, m, seed, it = inst.T, inst.d, 3, -5, 2**63 + 4
        assert path_width(inst) == N
        x0, w = slot_paths(inst, m, seed, it)
        rng = make_rng([seed, it, 0, 0, 1])
        for j in range(T * m):
            assert x0[j].tobytes() == inst.init.draw(rng).tobytes()
            assert w[j].tobytes() == inst.noise.draw(rng, T, d).tobytes()
        assert rng.standard_normal() == make_rng([seed, it, 0, 0, 1]).standard_normal(T * m * N + 1)[-1]


class TestEstimator:
    def test_deterministic_in_seed(self, rng):
        inst = random_instance(rng, d=2, k=1, T=3)
        K = random_policy(rng, inst)
        cfg = SmoothingConfig(radius=0.3, samples=40)
        g1 = estimate_gradient(inst, K, cfg, seed=5, iteration=2)
        g2 = estimate_gradient(inst, K, cfg, seed=5, iteration=2)
        np.testing.assert_array_equal(g1.grads, g2.grads)
        g3 = estimate_gradient(inst, K, cfg, seed=6, iteration=2)
        assert not np.array_equal(g1.grads, g3.grads)

    def test_batch_matches_single_rollouts(self, rng):
        # the vectorized batch path must replay simulate_trajectory on the
        # path stream advanced to each of the slot's rows
        inst = random_instance(rng, d=2, k=2, T=4)
        K = random_policy(rng, inst)
        sim = LqrSimulator(inst)
        U = sample_sphere_batch(8, (2, 2), 0.2, seed=1)
        fast = sim.rollout_perturbed_batch(K, 2, U, [7, 0, 2])
        perts = {i * inst.T + 2: K.copy() for i in range(8)}
        for i in range(8):
            perts[i * inst.T + 2][2] += U[i]
        slow = [traj.realized_cost for traj in simulated_rows(inst, (7, 0, 0, 0, 1), perts).values()]
        np.testing.assert_allclose(fast, slow, rtol=1e-12)
        for slot in (-1, 1, 4):  # the slot must lie in [0, T) and equal t
            with pytest.raises(ValueError, match="slot"):
                sim.rollout_perturbed_batch(K, 2, U, [7, 0, slot])

    @settings(deadline=None, max_examples=40)
    @given(kinds=st.sampled_from(KIND_PAIRS), d=st.integers(1, 3), T=st.integers(1, 5), m=st.integers(1, 4),
           seed=st.integers(-2**63, 2**64 - 1), iteration=st.integers(0, 2**64 - 1))
    def test_rollout_only_adapter_rolls_each_rollout_on_its_own_key(self, kinds, d, T, m, seed, iteration):
        # a handle with rollout() alone: entry (t, i) is simulate_trajectory on
        # the key (seed, iteration, t, i, 1), not a row of LqrSimulator's paths
        inst = _instance_of_kinds(*kinds, d=d, T=T)

        class Opaque:
            T, k, d = inst.T, inst.k, inst.d

            def rollout(self, policy, seed):
                return simulate_trajectory(inst, policy, seed).realized_cost

        K = np.random.default_rng(d * T).normal(size=(T, 1, d)) * 0.2
        U = sphere_directions(T, m, (1, d), 0.3, seed, iteration)
        costs = _perturbed_costs(Opaque(), K, U, seed, iteration)
        for t, i in np.ndindex(T, m):
            pert = K.copy()
            pert[t] = pert[t] + U[t, i]
            assert costs[t, i] == simulate_trajectory(inst, pert, [seed, iteration, t, i, 1]).realized_cost

    def test_opaque_handle_only_needs_rollout(self, rng):
        # a handle with rollout() alone drives the estimator: the estimate is
        # (D / r^2) mean_i cost_i U_i over simulate_trajectory's costs on each
        # rollout's own key (seed, iteration, t, i, 1), so it differs from
        # LqrSimulator's, which reads path rows
        inst = random_instance(rng, d=2, k=1, T=3)
        K = random_policy(rng, inst)

        class Opaque:
            T, k, d = inst.T, inst.k, inst.d

            def rollout(self, policy, seed):
                return simulate_trajectory(inst, policy, seed).realized_cost

        cfg = SmoothingConfig(radius=0.3, samples=20)
        est = estimate_gradient(Opaque(), K, cfg, seed=3, iteration=5)
        U = sphere_directions(3, 20, (1, 2), 0.3, 3, 5)
        costs = np.empty((3, 20))
        for t, i in np.ndindex(3, 20):
            pert = K.copy()
            pert[t] = pert[t] + U[t, i]
            costs[t, i] = simulate_trajectory(inst, pert, [3, 5, t, i, 1]).realized_cost
        grads = (2 / 0.3**2) * np.einsum("ti,tikd->tkd", costs, U) / 20
        np.testing.assert_allclose(est.mean_costs, costs.mean(axis=1), rtol=1e-12)
        np.testing.assert_allclose(est.grads, grads, rtol=1e-12, atol=1e-12 * np.abs(grads).max())
        assert not np.array_equal(est.grads, estimate_gradient(LqrSimulator(inst), K, cfg, seed=3, iteration=5).grads)

    def test_handle_without_rollouts_is_rejected(self):
        class Bare:
            T, k, d = 5, 1, 1

        with pytest.raises(TypeError, match=r"rollout_perturbed_slots\(.*rollout\("):
            estimate_gradient(Bare(), np.zeros((5, 1, 1)), SmoothingConfig(radius=0.1, samples=3), seed=0)

    @pytest.mark.parametrize("radius,samples", [
        (0.0, 5), (-0.1, 5), (np.nan, 5), (np.inf, 5), (0.1, 0), (0.1, -1), (0.1, 2.5), (0.1, True), (0.1, "5"),
    ])
    def test_smoothing_config_rejects_bad_settings(self, radius, samples):
        with pytest.raises(ValueError, match="smoothing"):
            SmoothingConfig(radius=radius, samples=samples)

    def test_smoothing_config_accepts_numpy_scalars(self):
        cfg = SmoothingConfig(radius=np.float64(0.1), samples=np.int64(1))
        assert cfg.samples == 1

    @pytest.mark.parametrize("t,radius,n_samples,match", [
        (0, 0.0, 10, "radius"), (0, -0.1, 10, "radius"), (0, np.nan, 10, "radius"), (0, np.inf, 10, "radius"),
        (0, 0.1, 0, "samples"), (0, 0.1, -3, "samples"), (0, 0.1, 2.5, "samples"),
        (-1, 0.1, 10, "slot"), (5, 0.1, 10, "slot"), (1.0, 0.1, 10, "slot"), (True, 0.1, 10, "slot"),
    ])
    def test_reference_rejects_bad_inputs(self, t, radius, n_samples, match):
        # n_samples = 0 used to give nan, radius = 0 a ZeroDivisionError, and a
        # negative radius or t = -1 a number
        with pytest.raises(ValueError, match=match):
            smoothed_gradient_reference(scalar_benchmark(), np.zeros((5, 1, 1)), t, radius, n_samples, 0)

    def test_reference_equals_per_sample_loop(self, rng):
        # 2500 samples span three cost batches; the sum must keep sample order
        inst = random_instance(rng, d=3, k=2, T=4)
        K = random_policy(rng, inst)
        t, radius, n = 1, 0.1, 2500
        U = sample_sphere_batch(n, (2, 3), radius, [8, 1])
        base = exact_cost(inst, K)
        acc = np.zeros((2, 3))
        pert = K.copy()
        for i in range(n):
            pert[t] = K[t] + U[i]
            acc += (exact_cost(inst, pert) - base) * U[i]
        ref = (6 / radius**2) * acc / n
        np.testing.assert_array_equal(smoothed_gradient_reference(inst, K, t, radius, n, [8, 1]), ref)

    def test_consistency_chain(self):
        # sampled estimator -> smoothed gradient -> exact gradient as m grows
        # and r shrinks; checked on the scalar liquidation-style benchmark
        inst = scalar_benchmark()
        K = np.full((5, 1, 1), 0.3)
        exact = exact_gradient(inst, K)
        t = 2
        smoothed = smoothed_gradient_reference(inst, K, t, radius=0.02, n_samples=200_000, seed=12)
        assert np.abs(smoothed - exact[t]).max() < 0.02 * np.abs(exact).max() + 1e-3
        est = estimate_gradient(inst, K, SmoothingConfig(radius=0.05, samples=40_000), seed=11)
        # estimator noise is set by the rollout-cost scale, not the gradient
        # scale, so an absolute yardstick is the meaningful one here
        abs_err = np.linalg.norm((est.grads - exact).ravel())
        assert abs_err < 0.05


class TestModelFreeLoops:
    def test_reduces_cost_on_scalar_benchmark(self):
        # a statement about the descent, not about one stream: the mean error
        # ratio over 30 seeds (about 0.76; single seeds range 0.38-1.84)
        inst = scalar_benchmark()
        K0 = np.zeros((5, 1, 1))
        cfg = DescentConfig(eta=0.2, iters=100)
        ratios = []
        for seed in range(30):
            _, trace = run_modelfree_pg(inst, K0, cfg, SmoothingConfig(radius=0.1, samples=50), seed=seed)
            err = trace.column("normalized_error")
            ratios.append(err[-1] / err[0])
        assert np.mean(ratios) < 0.85

    def test_line_search_is_rejected(self):
        cfg = DescentConfig(eta=0.2, iters=5, line_search=True)
        with pytest.raises(ValueError, match="line search"):
            run_modelfree_pg(scalar_benchmark(), np.zeros((5, 1, 1)), cfg, SmoothingConfig(radius=0.1, samples=5), seed=1)

    @pytest.mark.parametrize("projected", [False, True])
    def test_rows_pair_costs_and_gradients_with_their_iterate(self, projected):
        # each row's cost and exact gradient norm must belong to the iterate
        # the oracle saw for that row, not to a neighbour's value matrices
        inst = ac_to_lqr(stock_liquidation())
        K0 = np.full((10, 1, 2), -0.2)
        cfg = DescentConfig(eta=0.05, iters=6)
        sm = SmoothingConfig(radius=0.6, samples=20)
        seen = []

        def oracle(K):
            seen.append(np.array(K))
            return exact_cost(inst, K)

        if projected:
            _, trace = run_modelfree_ppg(inst, K0, cfg, sm, 4, liquidation_constraint(5e-5, 1e-12), cost_oracle=oracle)
        else:
            _, trace = run_modelfree_pg(inst, K0, cfg, sm, 4, cost_oracle=oracle)
        assert len(seen) == len(trace.rows) == cfg.iters + 1
        for K, cost, gnorm in zip(seen, trace.column("cost"), trace.column("grad_fro_norm")):
            assert cost == exact_cost(inst, K)
            assert gnorm == float(np.sqrt((exact_gradient(inst, K) ** 2).sum()))

    def test_early_stop_matches_a_run_of_that_many_iterations(self):
        # every estimate is keyed by its iteration, so a run that reaches its
        # target gives the iterates and rows of a run told to stop there
        inst, K0, sm = scalar_benchmark(), np.zeros((5, 1, 1)), SmoothingConfig(0.1, 3)
        K, trace = run_modelfree_pg(inst, K0, DescentConfig(eta=0.05, iters=300, target_error=0.16), sm, 3)
        n = len(trace.rows) - 1
        assert 1 < n < 300 and trace.column("normalized_error")[-1] <= 0.16
        K_ref, ref = run_modelfree_pg(inst, K0, DescentConfig(eta=0.05, iters=n), sm, 3)
        np.testing.assert_array_equal(K, K_ref)
        np.testing.assert_array_equal(np.array(trace.rows), np.array(ref.rows))

    def test_nan_policy_diverges(self):
        K0 = np.full((5, 1, 1), np.nan)
        cfg = DescentConfig(eta=0.2, iters=5)
        with pytest.raises(Diverged):
            run_modelfree_pg(scalar_benchmark(), K0, cfg, SmoothingConfig(radius=0.1, samples=5), seed=1)

    def test_opaque_handle_without_oracle_is_not_guarded(self):
        # a rollout-only handle has no cost to trace: nan by design, not a divergence
        sim = LqrSimulator(scalar_benchmark())

        class Opaque:
            T, k, d = sim.T, sim.k, sim.d
            rollout_perturbed_slots = staticmethod(sim.rollout_perturbed_slots)

        cfg = DescentConfig(eta=0.2, iters=3)
        _, trace = run_modelfree_pg(Opaque(), np.zeros((5, 1, 1)), cfg, SmoothingConfig(radius=0.1, samples=5), seed=1)
        assert len(trace.rows) == 4 and np.isnan(trace.column("cost")).all()

    def test_opaque_handle_rejects_target_error(self):
        # C* of an opaque handle is unknown, so its normalized error is nan and
        # a target was silently never reached: all 40 iterations ran, where the
        # same call on the instance stops after one
        inst = scalar_benchmark()
        cfg = DescentConfig(eta=0.2, iters=40, target_error=0.5)
        args = (np.zeros((5, 1, 1)), cfg, SmoothingConfig(0.1, 20), 0)
        _, trace = run_modelfree_pg(inst, *args)
        assert len(trace.rows) == 2
        oracle = lambda K: exact_cost(inst, K)  # noqa: E731
        with pytest.raises(ValueError, match="target_error"):
            run_modelfree_pg(LqrSimulator(inst), *args, cost_oracle=oracle)
        with pytest.raises(ValueError, match="target_error"):
            run_modelfree_ppg(LqrSimulator(inst), *args, ProjectionSet(kind="box", lo=-1.0, hi=1.0), cost_oracle=oracle)

    def test_zero_optimal_cost_raises_at_start(self):
        inst = constant_instance(
            np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), 1,
            NoiseModel("zero"), InitialStateModel("point", np.zeros(1)),
        )
        with pytest.raises(ZeroOptimalCost):
            run_modelfree_pg(inst, np.zeros((1, 1, 1)), DescentConfig(eta=0.1, iters=3), SmoothingConfig(0.1, 5), seed=0)

    def test_projected_variant_stays_feasible(self):
        inst = ac_to_lqr(stock_liquidation())
        S = liquidation_constraint(5e-5, 1e-12)
        K0 = np.full((10, 1, 2), -0.2)
        cfg = DescentConfig(eta=0.05, iters=5)
        K, _ = run_modelfree_ppg(inst, K0, cfg, SmoothingConfig(radius=0.6, samples=50), seed=2, constraint=S)
        assert S.contains(K)
        with pytest.raises(NotInSet):
            run_modelfree_ppg(inst, np.full((10, 1, 2), 0.2), cfg, SmoothingConfig(0.6, 10), seed=2, constraint=S)
