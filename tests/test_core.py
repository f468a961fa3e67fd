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


class TestValidation:
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

    def test_empty_tables_send_every_row_to_the_per_key_path(self, monkeypatch):
        layout = [("uniform", 3), ("gaussian", 17)]
        tails = np.array([(t, i, 7) for t in range(3) for i in range(40)], dtype=np.uint64)
        inst, prefix, slot_tails = _liquidation_slot_keys()
        fast = keyed_draws(layout, (-9, 2**63 + 1), tails), keyed_paths(inst, prefix, slot_tails)
        monkeypatch.setattr(core, "_ziggurat", ())
        assert not core._fast_draws(core._philox_words((-9, 2**63 + 1), tails, 20), layout, (), np.empty((120, 20))).any()
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

    def test_tables_hold_for_the_installed_numpy(self):
        # fails when numpy's ziggurat changes, rather than quietly losing the fast path
        tables = core._derive_ziggurat()
        assert tables and core._tables_agree(tables)
        inst, prefix, tails = _liquidation_slot_keys()
        layout = core._path_layout(inst)
        width = sum(w for _, w in layout)
        fast = core._fast_draws(core._philox_words(prefix, tails, width), layout, tables, np.empty((len(tails), width)))
        assert fast.mean() >= 0.6, f"{fast.mean():.3f} of zo-liquidation rows on the fast path"
