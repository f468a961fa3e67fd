import dataclasses
import hashlib
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqrlab import (
    DescentConfig,
    InitialStateModel,
    LqrInstance,
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
from lqrlab import core, optimize, zeroth
from lqrlab.benchmarks import four_state_benchmark, scalar_benchmark, stock_liquidation
from lqrlab.core import Trajectory, make_rng, path_normals
from lqrlab.errors import Diverged, NotInSet, ZeroDirection, ZeroOptimalCost
from lqrlab.liquidation import ac_to_lqr, liquidation_constraint
from lqrlab.zeroth import _forms, sphere_directions

from conftest import cost_to_go, mapped, path_width, random_instance, random_policy, simulated_rows


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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (2, 4), (1, 8), (3, 3), (9, 1)])
    def test_norms_keep_the_bits_of_numpys_sum_across_the_in_order_rule(self, shape):
        # k * d = 1, 2, 7, 8 and 9: below 8 the squared norm is the in-order
        # sum of the columns, from 8 on numpy's sum over the row
        key = (11, 3, 0, 0, 0)
        g = make_rng(key).standard_normal((2000, *shape))
        ref = 0.6 * g / np.sqrt((g**2).sum(axis=(1, 2), keepdims=True))
        assert sample_sphere_batch(2000, shape, 0.6, key).tobytes() == ref.tobytes()

    def test_a_row_of_zeros_is_a_typed_error(self, monkeypatch):
        # a normal is +-0 with chance about 2**-52, so a row of k * d = 1 can
        # be 0: the first such row is named instead of a 0 / 0 = nan direction
        def stub(zero_rows):
            def normals(seed, size):
                g = np.ones(size)
                g[zero_rows] = -0.0
                return g

            return normals

        monkeypatch.setattr(zeroth, "_stream_normals", stub([2, 4]))
        with pytest.raises(ZeroDirection, match="row 2 "):
            sample_sphere_batch(5, (1, 1), 0.1, 7)
        monkeypatch.setattr(zeroth, "_stream_normals", stub(slice(None)))
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
        # rollout (t, i) reads row i * T + t of the sphere stream and, for
        # every t, row i of the path stream, as the models draw on it advanced
        # to the row
        inst = _instance_of_kinds(init_kind, noise_kind)
        T, k, d, m, r = inst.T, inst.k, inst.d, 7, 0.3
        seed, it = -5, 2**63 + 4
        U = sphere_directions(T, m, (k, d), r, seed, it)
        rows = sample_sphere_batch(T * m, (k, d), r, [seed, it, 0, 0, 0])
        x0, w = mapped(inst, LqrSimulator(inst).paths(seed, it, m))
        rng = make_rng([seed, it, 0, 0, 1])
        for i in range(m):
            assert x0[i].tobytes() == inst.init.draw(rng).tobytes()
            assert w[i].tobytes() == inst.noise.draw(rng, T, d).tobytes()
            for t in range(T):
                assert U[t, i].tobytes() == rows[i * T + t].tobytes()

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
        half, full = (mapped(inst, LqrSimulator(inst).paths(seed, iteration, n)) for n in (m, 2 * m))
        for a, b in zip(half, full):
            assert a.tobytes() == b[:m].tobytes()

    def test_threads_interleaving_estimates_get_the_serial_arrays(self):
        # more threads than cores, switching often; thread j runs the
        # estimates of every fourth (seed, iteration) from j on
        inst, K, cfg = ac_to_lqr(stock_liquidation()), np.full((10, 1, 2), -0.2), SmoothingConfig(0.6, 20)
        sim = LqrSimulator(inst)
        keys = [(seed, it) for seed in (3, -5) for it in range(20)]

        def draws(seed, it):
            return (sphere_directions(inst.T, 20, (1, 2), 0.6, seed, it), *mapped(inst, sim.paths(seed, it, 20)),
                    estimate_gradient(sim, K, cfg, seed, iteration=it))

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
        # cost (t, i) of the branched kernel is the cost to go from step t of
        # simulate_trajectory, with gain t perturbed by U[t, i], on the path
        # stream advanced to row i
        inst = _instance_of_kinds(init_kind, noise_kind, d=2, k=2, T=4)
        K = np.random.default_rng(5).normal(size=(4, 2, 2)) * 0.2
        U = sphere_directions(inst.T, 3, (2, 2), 0.2, -5, 9)
        sim = LqrSimulator(inst)
        costs = sim.costs(K, U, sim.paths(-5, 9, 3))
        for t in range(inst.T):
            perts = {i: K.copy() for i in range(3)}
            for i in range(3):
                perts[i][t] += U[t, i]
            refs = simulated_rows(inst, (-5, 9, 0, 0, 1), perts)
            for i in range(3):
                assert costs[t, i] == pytest.approx(cost_to_go(inst, perts[i], refs[i].states, t), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 9])
    @pytest.mark.parametrize("init_kind,noise_kind", KIND_PAIRS)
    def test_all_slots_rollout_matches_per_slot_batches(self, init_kind, noise_kind, m):
        inst = _instance_of_kinds(init_kind, noise_kind, d=2, k=2, T=4)
        K = np.random.default_rng(4).normal(size=(4, 2, 2)) * 0.2
        sim = LqrSimulator(inst)
        U = sphere_directions(inst.T, m, (2, 2), 0.2, 8, 1)
        slots = sim.costs(K, U, sim.paths(8, 1, m))
        for t in range(inst.T):
            np.testing.assert_array_equal(slots[t], sim.rollout_perturbed_batch(K, t, U[t], [8, 1, t]))


class ReferenceKernel(LqrSimulator):
    """Reference rollout kernel: each branch rolled on its own, row-major,
    from step 0 on the path rows, with all their noise mapped at once, its
    quadratic costs as einsum calls on the rows, and the states of every step
    kept."""

    def _reference(self, policy, paths, t=None, Ut=None):
        """(costs (m,), states (m, T + 1, d), noise (m, T, d)) of the path
        rows rolled under the policy, with gain t perturbed by Ut (m, k, d)
        if t is given: the costs from step t on, or from step 0."""
        inst = self._inst
        T = inst.T
        K = np.asarray(policy, dtype=float)
        x, w = mapped(inst, paths)
        states = [x]
        cost = np.zeros(len(x))
        for s in range(T):
            u = -(x @ K[s].T) if s != t else -np.einsum("ikd,id->ik", K[s][None] + Ut, np.ascontiguousarray(x))
            if s >= (t or 0):
                cost += np.einsum("id,de,ie->i", x, inst.Q[s], x)
                cost += np.einsum("ik,kl,il->i", u, inst.R[s], u)
            x = x @ inst.A.T + u @ inst.B.T + w[:, s]
            states.append(x)
        cost += np.einsum("id,de,ie->i", x, inst.Q[T], x)
        return cost, np.stack(states, axis=1), w

    def costs(self, policy, U: np.ndarray, paths) -> np.ndarray:
        return np.stack([self._reference(policy, paths, t, U[t])[0] for t in range(self.T)])

    def trajectories(self, policy, paths) -> Trajectory:
        cost, states, w = self._reference(policy, paths)
        return Trajectory(states, w, cost)


def _slots(sim, K, U, seed, iteration):
    """(T, m) costs of the handle on the first m path rows of (seed, iteration)."""
    return sim.costs(K, U, sim.paths(seed, iteration, U.shape[1]))


def _assert_branches_match(got, ref, d, k, scale=None):
    """The branched costs within 1e-12 of the reference, relative to each
    entry or to a given scale, and bit for bit at d = k = 1, where every
    product has one term and the two rolls add in the same order."""
    np.testing.assert_array_less(np.abs(got - ref), 1e-12 * (np.abs(ref) if scale is None else scale) + 1e-300)
    if d == k == 1:
        np.testing.assert_array_equal(_bits(got), _bits(ref))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _wide(rng, shape):
    """Normal entries scaled over sixteen decades."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


def _roll_case(d, k, T, kinds, data):
    """A random instance whose Q, R and terminal Q are not diagonal, so every
    cross term of a form counts, under a noise factor whose rows mix columns
    for d >= 2, and a random policy for it."""
    rng = np.random.default_rng(data)
    M, N, F = rng.normal(size=(d, d)), rng.normal(size=(k, k)), rng.normal(size=(d, d))
    noise = NoiseModel(kinds[1], 0.4, rng.normal(size=(d, d)))
    init = InitialStateModel(kinds[0], rng.normal(size=d), 0.6)
    inst = constant_instance(rng.normal(size=(d, d)) * 0.5, rng.normal(size=(d, k)), M @ M.T + 0.3 * np.eye(d),
                             N @ N.T + 0.3 * np.eye(k), F @ F.T, T, noise, init)
    return inst, rng.normal(size=(T, k, d)) * 0.3


TRAJECTORY_FIELDS = ("states", "noises", "realized_cost")

# shapes where gemv, whose rounding depends on its operands' layout, would
# round the coordinate-major roll otherwise than the row-major one
ROLL_LAYOUTS = {
    # start and noise factors of one entry a row, k = 1
    **{f"zo-liquidation, m = {m}": (ac_to_lqr(stock_liquidation()), m) for m in (1, 3, 7)},
    "d = 1, k = 2": (_roll_case(1, 2, 5, KIND_PAIRS[0], 3)[0], 2),  # 10 rows: gemv's short tail rounds otherwise
    "T = 1, noise rows mixing columns": (_roll_case(3, 2, 1, KIND_PAIRS[0], 4)[0], 9),
    # a live noise row read with a coefficient other than 1
    **{f"zo-liquidation, {kind} noise coefficient 1.7": (dataclasses.replace(
        ac_to_lqr(stock_liquidation()), noise=NoiseModel(kind, 0.107, np.diag([1.7, 0.0]))), 200)
       for kind in ("gaussian", "uniform")},
}


class TestRolloutKernel:
    @settings(deadline=None, max_examples=80)
    @given(d=st.integers(1, 5), k=st.integers(1, 3), T=st.integers(1, 6), m=st.sampled_from([1, 2, 3, 9, 200]),
           kinds=st.sampled_from(KIND_PAIRS), data=st.integers(0, 2**32 - 1), seed=st.integers(-2**63, 2**64 - 1),
           iteration=st.integers(0, 2**64 - 1))
    # two rows of width two, where numpy orders einsum's loops by strides alone
    @example(d=2, k=2, T=3, m=2, kinds=KIND_PAIRS[0], data=2, seed=0, iteration=0)
    def test_costs_are_each_branch_rolled_alone(self, d, k, T, m, kinds, data, seed, iteration):
        # entry (t, i) is the cost from step t on of path i rolled from step 0
        # with gain t alone perturbed by U[t, i]
        inst, K = _roll_case(d, k, T, kinds, data)
        U = sphere_directions(T, m, (k, d), 0.2, seed, iteration)
        sim = LqrSimulator(inst)
        paths = sim.paths(seed, iteration, m)
        got = sim.costs(K, U, paths)
        assert got.shape == (T, m)
        _assert_branches_match(got, ReferenceKernel(inst).costs(K, U, paths), d, k)

    @settings(deadline=None, max_examples=60)
    @given(d=st.integers(1, 4), k=st.integers(1, 2), T=st.integers(2, 6), m=st.sampled_from([1, 3, 9]),
           kinds=st.sampled_from(KIND_PAIRS), data=st.integers(0, 2**32 - 1), t=st.integers(0, 5),
           seed=st.integers(-2**63, 2**64 - 1))
    def test_a_slots_costs_do_not_depend_on_the_other_slots(self, d, k, T, m, kinds, data, t, seed):
        # the estimator relies on it: slot t keeps its bits when the
        # directions of every other slot change
        inst, K = _roll_case(d, k, T, kinds, data)
        t %= T
        U, V = (sphere_directions(T, m, (k, d), 0.2, seed, it) for it in (0, 1))
        V[t] = U[t]
        sim = LqrSimulator(inst)
        paths = sim.paths(seed, 0, m)
        assert sim.costs(K, U, paths)[t].tobytes() == sim.costs(K, V, paths)[t].tobytes()

    @settings(deadline=None, max_examples=60)
    @given(d=st.integers(1, 5), k=st.integers(1, 3), T=st.integers(1, 6), m=st.sampled_from([1, 2, 3, 9, 200]),
           kinds=st.sampled_from(KIND_PAIRS), data=st.integers(0, 2**32 - 1), seed=st.integers(-2**63, 2**64 - 1))
    def test_zero_directions_give_the_base_paths_costs_to_go(self, d, k, T, m, kinds, data, seed):
        # with U = 0 each branch is its path under the policy, so row t is the
        # cost to go from step t of the unperturbed trajectories
        inst, K = _roll_case(d, k, T, kinds, data)
        sim = LqrSimulator(inst)
        paths = sim.paths(seed, 0, m)
        got = sim.costs(K, np.zeros((T, m, k, d)), paths)
        states = sim.trajectories(K, paths).states
        _assert_branches_match(got, np.stack([cost_to_go(inst, K, states, t) for t in range(T)]), d, k)

    @pytest.mark.parametrize("name", list(ROLL_LAYOUTS))
    def test_layouts_where_gemv_rounding_differs_match_reference_kernel(self, name):
        # the base block keeps the row-major roll's bits; the branches, whose
        # rows lie elsewhere in the gemv, are within 1e-12 of it
        inst, m = ROLL_LAYOUTS[name]
        T, k, d = inst.T, inst.k, inst.d
        K = np.random.default_rng(m).normal(size=(T, k, d)) * 0.3
        sim, ref = LqrSimulator(inst), ReferenceKernel(inst)
        for seed, iteration in ((0, 0), (-5, 2**63 + 4), (3, 17)):
            U = sphere_directions(T, m, (k, d), 0.2, seed, iteration)
            paths = sim.paths(seed, iteration, m)
            _assert_branches_match(sim.costs(K, U, paths), ref.costs(K, U, paths), d, k)
            got, want = sim.trajectories(K, paths), ref.trajectories(K, paths)
            for field in TRAJECTORY_FIELDS:
                np.testing.assert_array_equal(_bits(getattr(got, field)), _bits(getattr(want, field)), err_msg=field)

    @pytest.mark.parametrize("n", [1, 2, 3, 250, 2000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_forms_match_row_major_einsum(self, n, d):
        # the coordinate-major copy of x row-major or of a column slice of a
        # row-major array: the roll's states and actions
        rng = np.random.default_rng([n, d])
        for _ in range(20):
            wide = _wide(rng, (n, d + 3))
            M = _wide(rng, (d, d))  # neither diagonal nor symmetric
            for x in (np.ascontiguousarray(wide[:, :d]), wide[:, :d], wide[:, 2:d + 2]):
                np.testing.assert_array_equal(_bits(_forms(np.ascontiguousarray(x.T), M)),
                                              _bits(np.einsum("id,de,ie->i", x, M, x)))
            # a block of columns of a wider coordinate-major array: the branches
            blocks = np.ascontiguousarray(_wide(rng, (3 * n, d)).T)
            x = blocks[:, n:]
            rows = x.T.copy()
            np.testing.assert_array_equal(_bits(_forms(x, M)), _bits(np.einsum("id,de,ie->i", rows, M, rows)))


# the kernel's unperturbed rolls over the shapes of TestRolloutKernel
TRAJECTORY_CASES = dict(d=st.integers(1, 5), k=st.integers(1, 3), T=st.integers(1, 6),
                        n=st.sampled_from([1, 2, 3, 9, 200]), kinds=st.sampled_from(KIND_PAIRS),
                        data=st.integers(0, 2**32 - 1), seed=st.integers(-2**63, 2**64 - 1),
                        iteration=st.integers(0, 2**64 - 1))


class TestTrajectories:
    @settings(deadline=None, max_examples=80)
    @given(**TRAJECTORY_CASES)
    def test_trajectories_match_reference_kernel(self, d, k, T, n, kinds, data, seed, iteration):
        inst, K = _roll_case(d, k, T, kinds, data)
        sim = LqrSimulator(inst)
        paths = sim.paths(seed, iteration, n)
        got, ref = sim.trajectories(K, paths), ReferenceKernel(inst).trajectories(K, paths)
        for field in TRAJECTORY_FIELDS:
            np.testing.assert_array_equal(_bits(getattr(got, field)), _bits(getattr(ref, field)), err_msg=field)

    def test_unperturbed_rolls_keep_their_bits(self):
        # digests taken before the branched layout, on the scalar benchmark,
        # where every product has one term and so rounds alike on any BLAS
        inst, K = scalar_benchmark(), np.linspace(-0.2, 0.4, 5).reshape(5, 1, 1)
        sim = LqrSimulator(inst)
        rows, single = hashlib.sha256(), hashlib.sha256()
        for n in (1, 7, 200):
            traj = sim.trajectories(K, sim.paths(3, 0, n))
            for a in (traj.states, traj.noises, traj.realized_cost):
                rows.update(np.ascontiguousarray(a).tobytes())
        for seed in range(5):
            traj = simulate_trajectory(inst, K, seed)
            for a in (traj.states, traj.noises, np.float64(traj.realized_cost)):
                single.update(np.ascontiguousarray(a).tobytes())
        assert rows.hexdigest() == "1079c708fa21f9390c359fa3ac317412994d6bd080a743c2704ee90f0c238266"
        assert single.hexdigest() == "3ccb45dbb7bd2a3e4d1c4f20be6514a9420a3d7fc5841964ac3668709253d8d8"

    @settings(deadline=None, max_examples=40)
    @given(**TRAJECTORY_CASES)
    def test_simulate_trajectory_is_one_path_row(self, d, k, T, n, kinds, data, seed, iteration):
        inst, K = _roll_case(d, k, T, kinds, data)
        key = (seed, iteration, n)
        one = simulate_trajectory(inst, K, key)
        row = LqrSimulator(inst).trajectories(K, path_normals(inst, make_rng(key), 1))
        for field in TRAJECTORY_FIELDS:
            np.testing.assert_array_equal(_bits(getattr(one, field)), _bits(getattr(row, field)[0]), err_msg=field)
        assert isinstance(one.realized_cost, float)

    @settings(deadline=None, max_examples=40)
    @given(**TRAJECTORY_CASES)
    def test_batch_rows_match_one_row_calls(self, d, k, T, n, kinds, data, seed, iteration):
        # not bit for bit: BLAS rounds a product by its row count, so each
        # field of a row is compared to 1e-12 of its largest entry
        inst, K = _roll_case(d, k, T, kinds, data)
        sim = LqrSimulator(inst)
        x0, z = sim.paths(seed, iteration, n)
        batch = sim.trajectories(K, (x0, z))
        for j in range(n):
            one = sim.trajectories(K, (x0[j:j + 1], z[j:j + 1]))
            for field in TRAJECTORY_FIELDS:
                a, b = getattr(one, field)[0], getattr(batch, field)[j]
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (field, j)


def _strided(z):
    """z as a view of every other number of a wider array."""
    wide = np.full((*z.shape[:-1], 2 * z.shape[-1]), np.nan)
    wide[..., ::2] = z
    return wide[..., ::2]


AAPL = ac_to_lqr(stock_liquidation())


class TestPathLayouts:
    @settings(deadline=None, max_examples=60)
    @given(aapl=st.booleans(), d=st.integers(2, 4), k=st.integers(1, 2), T=st.integers(1, 5),
           m=st.sampled_from([1, 2, 3, 9, 200]), kinds=st.sampled_from(KIND_PAIRS), data=st.integers(0, 2**32 - 1),
           seed=st.integers(-2**63, 2**64 - 1))
    # draws whose bits moved with the start states' layout while the roll's
    # first step read them as given: AAPL's start factor has one entry a row
    @example(aapl=True, d=2, k=1, T=1, m=3, kinds=KIND_PAIRS[0], data=1, seed=0)
    @example(aapl=False, d=4, k=1, T=1, m=2, kinds=KIND_PAIRS[0], data=2, seed=2)
    def test_bits_depend_on_path_values_alone(self, aapl, d, k, T, m, kinds, data, seed):
        # x0 C- or F-ordered, z contiguous or a strided view: the same costs
        # and trajectories, bit for bit
        if aapl:
            inst = AAPL
            K = np.random.default_rng(data).normal(size=(inst.T, inst.k, inst.d)) * 0.3
        else:
            inst, K = _roll_case(d, k, T, kinds, data)
        sim = LqrSimulator(inst)
        x0, z = sim.paths(seed, 0, m)
        U = sphere_directions(inst.T, m, (inst.k, inst.d), 0.2, seed, 0)
        layouts = [(a(x0), b(z)) for a in (np.ascontiguousarray, np.asfortranarray)
                   for b in (np.ascontiguousarray, _strided)]
        want = sim.costs(K, U, layouts[0]), sim.trajectories(K, layouts[0])
        for paths in layouts[1:]:
            np.testing.assert_array_equal(_bits(sim.costs(K, U, paths)), _bits(want[0]))
            got = sim.trajectories(K, paths)
            for field in TRAJECTORY_FIELDS:
                np.testing.assert_array_equal(_bits(getattr(got, field)), _bits(getattr(want[1], field)), err_msg=field)


def _unsigned_zeros(a):
    """Bits of a with each zero as +0.0: a dropped zero term may flip the sign of a zero."""
    a = np.asarray(a, dtype=float)
    return _bits(np.where(a == 0, 0.0, a))


def _one_entry_rows(rng, d, live):
    """(d, d) factor whose live rows each hold one wide entry of either sign, in a random column; the rest are zero."""
    F = np.zeros((d, d))
    for r in np.flatnonzero(live):
        F[r, rng.integers(d)] = _wide(rng, ())
    return F


def _three_entries(d):
    """[[0.8, -0.4], [-0.4, 0]] in the top corner of a (d, d) zero matrix, 0.8 alone if d = 1."""
    M = np.zeros((d, d))
    M[0, 0] = 0.8
    M[0, 1:2] = M[1:2, 0] = -0.4
    return M


STRUCTURED_A = {"identity": lambda rng, d: np.eye(d),
                "scaled permutation": lambda rng, d: np.eye(d)[rng.permutation(d)] * _wide(rng, (d, 1)),
                "dense": lambda rng, d: rng.normal(size=(d, d)) * 0.5}
STRUCTURED_Q = {"diagonal": lambda rng, d: np.diag(rng.uniform(0.5, 2.0, d)),
                "anti-diagonal": lambda rng, d: np.eye(d)[::-1] * 0.7,
                "one entry": lambda rng, d: np.diag(np.arange(d) == d - 1) * 1.3,
                "three entries": lambda rng, d: _three_entries(d),
                "dense": lambda rng, d: (lambda M: M @ M.T)(rng.normal(size=(d, d)))}


class TestShortForms:
    """Each short exact form of the rollout kernel against the dense call it replaces."""

    @settings(deadline=None, max_examples=150)
    @given(d=st.integers(1, 4), n=st.sampled_from([1, 2, 3, 250, 2000]), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_forms_of_one_or_two_entries_match_einsum(self, d, n, data, seed):
        cells = data.draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), min_size=1, max_size=2,
                                   unique=True))
        rng = np.random.default_rng(seed)
        M = np.zeros((d, d))
        for cell in cells:
            M[cell] = _wide(rng, ())
        terms = zeroth._form_terms(M)
        assert len(terms) == len(cells)
        wide = _wide(rng, (n, d + 3))
        for x in (np.ascontiguousarray(wide[:, :d]), wide[:, 2:d + 2]):
            np.testing.assert_array_equal(_bits(_forms(np.ascontiguousarray(x.T), M, terms)),
                                          _bits(np.einsum("id,de,ie->i", x, M, x)))

    @pytest.mark.parametrize("M,count", [(np.diag([0.7, 1.3]), 2), (np.array([[0.0, 0.6], [0.6, 0.0]]), 2),
                                         (np.array([[0.0, 0.0], [0.0, 2.5]]), 1), (np.zeros((2, 2)), 0),
                                         (np.array([[0.8, -0.4], [-0.4, 0.0]]), None), (np.eye(3), None)])
    def test_form_terms_keep_at_most_two_entries(self, M, count):
        terms = zeroth._form_terms(M)
        assert (terms is None) if count is None else len(terms) == count
        x = np.ascontiguousarray(_wide(np.random.default_rng(2), (len(M), 250)))
        cost = np.ones(250)
        cost += _forms(x, M, terms)
        np.testing.assert_array_equal(_bits(cost), _bits(1.0 + _forms(x, M)))

    @settings(deadline=None, max_examples=100)
    @given(d=st.integers(1, 5), n=st.sampled_from([1, 2, 3, 250, 2000]), seed=st.integers(0, 2**32 - 1))
    def test_one_column_b_times_actions_matches_matmul(self, d, n, seed):
        # B with k = 1 as the kernel computes B u: one product a state
        # coordinate, which the matmul rounds once as well
        rng = np.random.default_rng(seed)
        B, rows, K = _wide(rng, (d, 1)), _wide(rng, (n, d)), rng.normal(size=(1, d))
        u = -(rows @ K.T)
        np.testing.assert_array_equal(_bits(B * u.T), _bits(B @ u.T))

    @settings(deadline=None, max_examples=150)
    @given(d=st.integers(1, 2), k=st.integers(1, 3), m=st.sampled_from([1, 2, 3, 50, 2000]),
           zeros=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_branch_actions_of_one_or_two_terms_match_einsum(self, d, k, m, zeros, seed):
        # the kernel's -(K_t + U_t) x_t for d <= 2: a product a term, the
        # second added in place, on the row-major states it reads (a view of
        # the coordinate-major ones at d = 1); exact +-0.0 entries in the
        # gains, directions and states may flip the sign of a zero alone
        rng = np.random.default_rng(seed)

        def signed_zeros(a):
            return np.where(rng.random(a.shape) < zeros, np.where(rng.random(a.shape) < 0.5, 0.0, -0.0), a)

        negKU = -signed_zeros(_wide(rng, (k, d)))[None] - signed_zeros(_wide(rng, (m, k, d)))
        x = signed_zeros(_wide(rng, (d, m)))
        rows = x.T if d == 1 else np.ascontiguousarray(x.T)
        got = np.empty((m, k))
        np.multiply(negKU[..., 0], rows[:, :1], out=got)
        if d == 2:
            got += negKU[..., 1] * rows[:, 1:]
        want = np.einsum("ikd,id->ik", negKU, rows)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(_bits(got + 0.0), _bits(want + 0.0))

    @settings(deadline=None, max_examples=120)
    @given(d=st.integers(1, 4), n=st.sampled_from([1, 2, 3, 250]), T=st.integers(1, 3),
           kind=st.sampled_from(["gaussian", "uniform", "zero"]), sigma=st.sampled_from([0.4, -0.7]),
           mixing=st.booleans(), unit=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_live_row_noise_add_matches_vectors(self, d, n, T, kind, sigma, mixing, unit, seed):
        # factors with zero rows and entries of either sign, each row reading
        # one column or rows mixing them; with unit, the one-column rows read
        # theirs with a coefficient of 1; under A = I and K = 0 each step of
        # the roll adds the step's noise to wide states and nothing else
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(d, d)) * (rng.random((d, 1)) < 0.7) if mixing else _one_entry_rows(rng, d, rng.random(d) < 0.7)
        if unit and not mixing:
            F = (F != 0) * 1.0
        noise = NoiseModel(kind, sigma, F)
        init = InitialStateModel("gaussian", np.zeros(d), 1.0, np.diag(10.0 ** rng.uniform(-8, 8, d)))
        inst = constant_instance(np.eye(d), np.ones((d, 1)), np.eye(d), np.eye(1), np.eye(d), T, noise, init)
        sim = LqrSimulator(inst)
        paths = sim.paths(seed, 0, n)
        drawn = [a.copy() for a in paths]
        states = sim.trajectories(np.zeros((T, 1, d)), paths).states
        w = noise.vectors(np.array(paths[1]), d)
        for t in range(T):
            np.testing.assert_array_equal(_unsigned_zeros(states[:, t + 1]), _unsigned_zeros(states[:, t] + w[:, t]))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(paths, drawn))

    @settings(deadline=None, max_examples=120)
    @given(d=st.integers(1, 3), k=st.integers(1, 2), T=st.integers(1, 4), m=st.sampled_from([1, 2, 3, 9]),
           A=st.sampled_from(list(STRUCTURED_A)), Q=st.sampled_from(list(STRUCTURED_Q)),
           R=st.sampled_from(["diagonal", "dense"]), kinds=st.sampled_from(KIND_PAIRS), one_entry_rows=st.booleans(),
           data=st.integers(0, 2**32 - 1), seed=st.integers(-2**63, 2**64 - 1))
    def test_structured_rollouts_match_reference_kernel(self, d, k, T, m, A, Q, R, kinds, one_entry_rows, data, seed):
        # every short form, and the dense calls next to them, in one roll; Q
        # need not be definite for a roll, so its check is off (R's is not)
        rng = np.random.default_rng(data)
        F = _one_entry_rows(rng, d, rng.random(d) < 0.7) if one_entry_rows else rng.normal(size=(d, d))
        noise = NoiseModel(kinds[1], rng.choice([0.4, -0.4]), F)
        init = InitialStateModel(kinds[0], rng.normal(size=d), 0.6)
        B = rng.normal(size=(d, k)) * (rng.random((d, k)) < 0.7)
        A_, Q_, R_ = STRUCTURED_A[A](rng, d), STRUCTURED_Q[Q](rng, d), STRUCTURED_Q[R](rng, k) + 0.3 * np.eye(k)
        inst = LqrInstance(A_, B, [Q_] * T + [2.0 * STRUCTURED_Q[Q](rng, d)], [R_] * T, noise, init, validate=False)
        K = rng.normal(size=(T, k, d)) * 0.3
        U = sphere_directions(T, m, (k, d), 0.2, seed, 1)
        sim, ref = LqrSimulator(inst), ReferenceKernel(inst)
        paths = sim.paths(seed, 1, m)
        want = ref.costs(K, U, paths)
        # an indefinite Q can cancel a cost to near 0, so the tolerance is on the largest
        _assert_branches_match(sim.costs(K, U, paths), want, d, k, scale=np.abs(want).max())
        got, base = sim.trajectories(K, paths), ref.trajectories(K, paths)
        for field in TRAJECTORY_FIELDS:
            np.testing.assert_array_equal(_bits(getattr(got, field)), _bits(getattr(base, field)), err_msg=field)

    @pytest.mark.parametrize("T", [1, 4])
    @pytest.mark.parametrize("one_entry_rows", [False, True], ids=["rows-mixing", "one-entry-a-row"])
    @pytest.mark.parametrize("init_kind,noise_kind", KIND_PAIRS)
    def test_costs_leave_paths_as_drawn(self, init_kind, noise_kind, one_entry_rows, T):
        # a uniform's normals used to be standardized in place, so a second
        # call on the same paths rolled other noise
        inst = _instance_of_kinds(init_kind, noise_kind, d=2, k=1, T=T)
        if one_entry_rows:
            inst = constant_instance(inst.A, inst.B, inst.Q[0], inst.R[0], inst.Q[T], T,
                                     NoiseModel(noise_kind, -0.4, [[0.0, 1.3], [0.0, 0.0]]), inst.init)
        sim = LqrSimulator(inst)
        K = np.random.default_rng(6).normal(size=(T, 1, 2)) * 0.2
        U = sphere_directions(T, 5, (1, 2), 0.2, 4, 0)
        paths = sim.paths(4, 0, 5)
        drawn = [a.copy() for a in paths]
        first = sim.costs(K, U, paths)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(paths, drawn))
        assert sim.costs(K, U, paths).tobytes() == first.tobytes()


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
        x0, w = mapped(inst, LqrSimulator(inst).paths(seed, it, T * m))
        rng = make_rng([seed, it, 0, 0, 1])
        for j in range(T * m):
            assert x0[j].tobytes() == inst.init.draw(rng).tobytes()
            assert w[j].tobytes() == inst.noise.draw(rng, T, d).tobytes()
        assert rng.standard_normal() == make_rng([seed, it, 0, 0, 1]).standard_normal(T * m * N + 1)[-1]


class PathsAndCosts:
    """A handle exposing T, k, d, paths() and costs() alone."""

    def __init__(self, sim):
        self.T, self.k, self.d = sim.T, sim.k, sim.d
        self.paths, self.costs = sim.paths, sim.costs


class TestEstimator:
    def test_a_threads_later_estimates_build_no_generator(self, monkeypatch):
        # an estimate draws its two streams on its thread's one generator:
        # a fresh thread builds it at its first estimate and never again
        built, philox = [], np.random.Philox

        def counted(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        sim, K, cfg = LqrSimulator(scalar_benchmark()), np.full((5, 1, 1), 0.3), SmoothingConfig(0.1, 50)
        counts = []

        def run():
            for it in range(3):
                estimate_gradient(sim, K, cfg, 7, iteration=it)
                counts.append(len(built))

        th = threading.Thread(target=run)
        th.start()
        th.join(timeout=60)
        assert counts == [1, 1, 1]

    @pytest.mark.parametrize("seed", [0.5, "0", None])
    def test_rejects_seeds_that_are_not_integers(self, seed):
        # seed 0.5 used to give seed 0's estimate
        sim, K, cfg = LqrSimulator(scalar_benchmark()), np.full((5, 1, 1), 0.3), SmoothingConfig(0.1, 5)
        with pytest.raises(TypeError, match=re.escape(f"got ({seed!r}, 0, 0, 0, 0)")):
            estimate_gradient(sim, K, cfg, seed)

    def test_liquidation_estimate_peaks_below_half_a_megabyte(self):
        # one zo-liquidation estimate at m = 200 peaks at about 270 KB: 200
        # path rows of 11 normals (17.6 KB), their noise mapped once to a
        # (200, 10, 2) array (32 KB), and the (2, 2200) states of the base and
        # its ten branches (35 KB)
        sim, K, cfg = LqrSimulator(ac_to_lqr(stock_liquidation())), np.full((10, 1, 2), -0.2), SmoothingConfig(0.6, 200)
        estimate_gradient(sim, K, cfg, 3, iteration=0)
        tracemalloc.start()
        try:
            estimate_gradient(sim, K, cfg, 3, iteration=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024

    @pytest.mark.parametrize("m", [1, 3, 200])
    @pytest.mark.parametrize("name", ["zo-liquidation", "four-state"])
    def test_gradients_are_the_scaled_slot_sums(self, name, m):
        # ghat_t = (D / r^2) * sum_i cost_i U_i / m, each slot's sum one
        # einsum, in that order of operations, bit for bit
        inst = ac_to_lqr(stock_liquidation()) if name == "zo-liquidation" else four_state_benchmark()
        T, k, d, r = inst.T, inst.k, inst.d, 0.3
        K = np.random.default_rng(m).normal(size=(T, k, d)) * 0.1
        sim = LqrSimulator(inst)
        est = estimate_gradient(sim, K, SmoothingConfig(r, m), -5, iteration=7)
        U = sphere_directions(T, m, (k, d), r, -5, 7)
        costs = _slots(sim, K, U, -5, 7)
        ref = np.stack([(k * d / r**2) * np.einsum("i,ikd->kd", costs[t], U[t]) / m for t in range(T)])
        assert est.tobytes() == ref.tobytes()

    def test_deterministic_in_seed(self, rng):
        inst = random_instance(rng, d=2, k=1, T=3)
        K = random_policy(rng, inst)
        sim, cfg = LqrSimulator(inst), SmoothingConfig(radius=0.3, samples=40)
        g1 = estimate_gradient(sim, K, cfg, seed=5, iteration=2)
        g2 = estimate_gradient(sim, K, cfg, seed=5, iteration=2)
        np.testing.assert_array_equal(g1, g2)
        g3 = estimate_gradient(sim, K, cfg, seed=6, iteration=2)
        assert not np.array_equal(g1, g3)

    def test_batch_matches_single_rollouts(self, rng):
        # the vectorized batch path must replay simulate_trajectory's cost to
        # go from the slot on the path stream advanced to each row
        inst = random_instance(rng, d=2, k=2, T=4)
        K = random_policy(rng, inst)
        sim = LqrSimulator(inst)
        U = sample_sphere_batch(8, (2, 2), 0.2, seed=1)
        fast = sim.rollout_perturbed_batch(K, 2, U, [7, 0, 2])
        perts = {i: K.copy() for i in range(8)}
        for i in range(8):
            perts[i][2] += U[i]
        rows = simulated_rows(inst, (7, 0, 0, 0, 1), perts)
        slow = [cost_to_go(inst, perts[i], rows[i].states, 2) for i in range(8)]
        np.testing.assert_allclose(fast, slow, rtol=1e-12)
        for slot in (-1, 1, 4):  # the slot must lie in [0, T) and equal t
            with pytest.raises(ValueError, match="slot"):
                sim.rollout_perturbed_batch(K, 2, U, [7, 0, slot])

    @pytest.mark.parametrize("name", ["zo-liquidation", "4-state"])
    def test_paths_and_costs_handle_gives_the_simulators_bits(self, name):
        # the estimator draws the handle's paths once and costs them, as it
        # does for LqrSimulator, so the estimates are its bits
        inst = ac_to_lqr(stock_liquidation()) if name == "zo-liquidation" else _roll_case(4, 2, 3, KIND_PAIRS[0], 6)[0]
        K = np.random.default_rng(2).normal(size=(inst.T, inst.k, inst.d)) * 0.2
        sim = LqrSimulator(inst)
        handle = PathsAndCosts(sim)
        for m in (1, 7, 200):
            for seed, it in ((3, 0), (-5, 2**63 + 4)):
                a, b = (estimate_gradient(h, K, SmoothingConfig(0.3, m), seed, iteration=it) for h in (handle, sim))
                assert a.tobytes() == b.tobytes()

    def test_costs_take_one_path_row_a_sample(self):
        # one path row a sample: T * m rows for U's m are refused, naming the shapes
        sim = LqrSimulator(scalar_benchmark())
        U = sphere_directions(5, 3, (1, 1), 0.1, 0, 0)
        assert sim.costs(np.zeros((5, 1, 1)), U, sim.paths(0, 0, 3)).shape == (5, 3)
        with pytest.raises(ValueError, match=r"U must have shape \(T, m, k, d\) = \(5, 15, k, d\)"):
            sim.costs(np.zeros((5, 1, 1)), U, sim.paths(0, 0, 15))

    @pytest.mark.parametrize("reshape,shape", [(np.ravel, (15,)), (np.transpose, (3, 5)),
                                               (lambda c: c[:, :-1], (5, 2)), (lambda c: c[:-1], (4, 3))],
                             ids=["flat", "transposed", "short rows", "short slots"])
    def test_costs_of_another_shape_are_named(self, reshape, shape):
        # flat costs failed inside einsum on its subscripts, transposed or
        # short ones on broadcasting, and too few slots on an index
        sim = LqrSimulator(scalar_benchmark())
        handle = PathsAndCosts(sim)
        handle.costs = lambda K, U, paths: reshape(sim.costs(K, U, paths))
        message = f"the handle's costs must return shape (T, m) = (5, 3), got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_gradient(handle, np.zeros((5, 1, 1)), SmoothingConfig(radius=0.1, samples=3), seed=0)

    @settings(deadline=None, max_examples=80)
    @given(kinds=st.sampled_from(KIND_PAIRS), T=st.integers(1, 10), m=st.integers(1, 300), k=st.integers(1, 3),
           d=st.integers(1, 8), seed=st.integers(-2**63, 2**64 - 1), iteration=st.integers(0, 2**64 - 1))
    def test_one_contraction_has_the_bits_of_one_einsum_a_slot(self, kinds, T, m, k, d, seed, iteration):
        inst = _instance_of_kinds(*kinds, d=d, k=k, T=T)
        K = np.random.default_rng([T, k, d]).normal(size=(T, k, d)) * 0.2
        sim, r = LqrSimulator(inst), 0.3
        est = estimate_gradient(sim, K, SmoothingConfig(r, m), seed, iteration=iteration)
        U = sphere_directions(T, m, (k, d), r, seed, iteration)
        costs = _slots(sim, K, U, seed, iteration)
        ref = np.empty((T, k, d))
        for t in range(T):
            np.einsum("i,ikd->kd", costs[t], U[t], out=ref[t])
        ref *= k * d / r**2
        assert est.tobytes() == (ref / m).tobytes()

    def test_handle_without_rollouts_is_rejected(self):
        class Bare:
            T, k, d = 5, 1, 1

        with pytest.raises(TypeError, match=r"paths\(.*costs\("):
            estimate_gradient(Bare(), np.zeros((5, 1, 1)), SmoothingConfig(radius=0.1, samples=3), seed=0)

    def test_instance_is_no_handle(self):
        # an instance would need a new LqrSimulator every estimate; the caller wraps it once
        with pytest.raises(TypeError, match="wrap an LqrInstance in LqrSimulator"):
            estimate_gradient(scalar_benchmark(), np.zeros((5, 1, 1)), SmoothingConfig(radius=0.1, samples=3), seed=0)

    @pytest.mark.parametrize("radius,samples", [
        (0.0, 5), (-0.1, 5), (np.nan, 5), (np.inf, 5), (True, 5), ("1.0", 5), (None, 5),
        (0.1, 0), (0.1, -1), (0.1, 2.5), (0.1, True), (0.1, "5"),
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
        est = estimate_gradient(LqrSimulator(inst), K, SmoothingConfig(radius=0.05, samples=40_000), seed=11)
        # estimator noise is set by the rollout-cost scale, not the gradient
        # scale, so an absolute yardstick is the meaningful one here
        abs_err = np.linalg.norm((est - exact).ravel())
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

    @staticmethod
    def _loop_case(case: str):
        """(instance, K0, descent, smoothing, seed, constraint) of a sampled run."""
        liq, scalar, K0 = ac_to_lqr(stock_liquidation()), scalar_benchmark(), np.full((10, 1, 2), -0.2)
        sm = SmoothingConfig(radius=0.6, samples=20)
        return {
            "liquidation": (liq, K0, DescentConfig(eta=0.05, iters=6), sm, 4, None),
            "liquidation-projected": (liq, K0, DescentConfig(eta=0.05, iters=6), sm, 4, liquidation_constraint(5e-5, 1e-12)),
            "no-iterations": (liq, K0, DescentConfig(eta=0.05, iters=0), sm, 4, None),
            "longer-than-a-chunk": (scalar, np.zeros((5, 1, 1)), DescentConfig(eta=0.05, iters=optimize._NORM_CHUNK + 7),
                                    SmoothingConfig(0.1, 3), 3, None),
            "stops-at-target": (scalar, np.zeros((5, 1, 1)), DescentConfig(eta=0.05, iters=300, target_error=0.16),
                                SmoothingConfig(0.1, 3), 0, None),
        }[case]

    @pytest.mark.parametrize("case", ["liquidation", "liquidation-projected", "no-iterations", "longer-than-a-chunk",
                                      "stops-at-target"])
    def test_rows_pair_costs_and_gradients_with_their_iterate(self, case):
        # each row's cost and exact gradient norm must belong to the iterate
        # the oracle saw for that row, not to a neighbour's value matrices;
        # the norms are filled after the loop, a chunk of iterates at a time,
        # and a run without an oracle reports the same rows
        inst, K0, cfg, sm, seed, constraint = self._loop_case(case)
        seen = []

        def oracle(K):
            seen.append(np.array(K))
            return exact_cost(inst, K)

        K, trace = run_modelfree_pg(inst, K0, cfg, sm, seed, cost_oracle=oracle, constraint=constraint)
        n = len(trace.rows) - 1
        assert len(seen) == n + 1 and (n == cfg.iters if cfg.target_error is None else 1 < n < cfg.iters)
        for Ki, cost, gnorm in zip(seen, trace.column("cost"), trace.column("grad_fro_norm")):
            assert cost == exact_cost(inst, Ki)
            assert gnorm == float(np.sqrt((exact_gradient(inst, Ki) ** 2).sum()))
        K_plain, plain = run_modelfree_pg(inst, K0, cfg, sm, seed, constraint=constraint)
        assert K_plain.tobytes() == K.tobytes() and np.array(plain.rows).tobytes() == np.array(trace.rows).tobytes()

    @pytest.mark.parametrize("oracle", [False, True])
    def test_closed_loop_passes_of_a_sampled_run(self, monkeypatch, oracle):
        # per iterate at most the value chain of its trace cost, none with an
        # oracle, and after the loop one pass of both chains per chunk
        calls = []

        def counting(instance, K, *, values=True, moments=True):
            calls.append((K.shape[:-3], values, moments))
            return core._closed_loop(instance, K, values=values, moments=moments)

        monkeypatch.setattr(optimize, "_closed_loop", counting)
        inst, chunk = scalar_benchmark(), optimize._NORM_CHUNK
        cfg = DescentConfig(eta=0.05, iters=2 * chunk + 3)
        _, trace = run_modelfree_pg(inst, np.zeros((5, 1, 1)), cfg, SmoothingConfig(0.1, 3), 3,
                                    cost_oracle=(lambda K: exact_cost(inst, K)) if oracle else None)
        assert len(trace.rows) == 2 * chunk + 4 and np.isfinite(trace.column("grad_fro_norm")).all()
        per_iterate = [] if oracle else [((), True, False)] * (2 * chunk + 4)
        assert calls == per_iterate + [((chunk,), True, True), ((chunk,), True, True), ((4,), True, True)]

    def test_long_run_peaks_below_eight_megabytes(self):
        # 1,001 four-state iterates of 640 B of gains and their trace rows
        # hold about 1 MB; the norms' passes over 128 of them at a time peaked
        # at 2.8 MB in all, one pass over all of them at 14.3 MB
        inst, K0, sm = four_state_benchmark(), np.full((10, 2, 4), 0.05), SmoothingConfig(0.2, 1)
        run_modelfree_pg(inst, K0, DescentConfig(eta=1e-6, iters=2), sm, 0)
        tracemalloc.start()
        try:
            _, trace = run_modelfree_pg(inst, K0, DescentConfig(eta=1e-6, iters=1000), sm, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.rows) == 1001 and np.isfinite(trace.column("grad_fro_norm")).all()
        assert peak <= 8 * 2**20

    def test_early_stop_matches_a_run_of_that_many_iterations(self):
        # every estimate is keyed by its iteration, so a run that reaches its
        # target gives the iterates and rows of a run told to stop there
        inst, K0, sm = scalar_benchmark(), np.zeros((5, 1, 1)), SmoothingConfig(0.1, 3)
        K, trace = run_modelfree_pg(inst, K0, DescentConfig(eta=0.05, iters=300, target_error=0.16), sm, 0)
        n = len(trace.rows) - 1
        assert 1 < n < 300 and trace.column("normalized_error")[-1] <= 0.16
        K_ref, ref = run_modelfree_pg(inst, K0, DescentConfig(eta=0.05, iters=n), sm, 0)
        np.testing.assert_array_equal(K, K_ref)
        np.testing.assert_array_equal(np.array(trace.rows), np.array(ref.rows))

    def test_nan_policy_diverges(self):
        K0 = np.full((5, 1, 1), np.nan)
        cfg = DescentConfig(eta=0.2, iters=5)
        with pytest.raises(Diverged):
            run_modelfree_pg(scalar_benchmark(), K0, cfg, SmoothingConfig(radius=0.1, samples=5), seed=1)

    def test_opaque_handle_without_oracle_is_not_guarded(self):
        # a paths-and-costs handle has no cost to trace: nan by design, not a
        # divergence; its iterates are LqrSimulator's, bit for bit
        sim = LqrSimulator(scalar_benchmark())
        cfg, sm = DescentConfig(eta=0.2, iters=3), SmoothingConfig(radius=0.1, samples=5)
        K, trace = run_modelfree_pg(PathsAndCosts(sim), np.zeros((5, 1, 1)), cfg, sm, seed=1)
        assert len(trace.rows) == 4 and np.isnan(trace.column("cost")).all()
        assert np.isnan(trace.column("grad_fro_norm")).all()
        K_ref, ref = run_modelfree_pg(sim, np.zeros((5, 1, 1)), cfg, sm, seed=1)
        assert K.tobytes() == K_ref.tobytes()
        np.testing.assert_array_equal(np.array(trace.rows), np.array(ref.rows))
        # an oracle fills the costs, but the exact gradient needs an instance
        oracle = lambda K: exact_cost(scalar_benchmark(), K)  # noqa: E731
        _, traced = run_modelfree_pg(PathsAndCosts(sim), np.zeros((5, 1, 1)), cfg, sm, seed=1, cost_oracle=oracle)
        assert np.isfinite(traced.column("cost")).all() and np.isnan(traced.column("grad_fro_norm")).all()

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
