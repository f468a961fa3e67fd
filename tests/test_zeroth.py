import numpy as np
import pytest

from lqrlab import (
    DescentConfig,
    InitialStateModel,
    LqrSimulator,
    NoiseModel,
    SmoothingConfig,
    constant_instance,
    estimate_gradient,
    exact_gradient,
    make_rng,
    run_exact_pg,
    run_modelfree_pg,
    run_modelfree_ppg,
    sample_sphere,
    sample_sphere_batch,
    smoothed_gradient_reference,
)
from lqrlab.benchmarks import scalar_benchmark, stock_liquidation
from lqrlab import zeroth
from lqrlab.errors import DegenerateDraw, NotInSet
from lqrlab.liquidation import ac_to_lqr, liquidation_constraint
from lqrlab.zeroth import slot_paths, sphere_directions

from conftest import random_instance, random_policy


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

    def test_batch_rejects_degenerate_draws(self, monkeypatch):
        class ZeroGenerator:
            def standard_normal(self, size):
                return np.zeros(size)

        monkeypatch.setattr(zeroth, "make_rng", lambda seed: ZeroGenerator())
        with pytest.raises(DegenerateDraw):
            sample_sphere_batch(3, (1, 2), 0.5, seed=0)


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
    def test_draws_match_per_key_generators(self, init_kind, noise_kind):
        # reference: one make_rng per key, the way each draw is specified
        inst = _instance_of_kinds(init_kind, noise_kind)
        T, k, d, m, r = inst.T, inst.k, inst.d, 7, 0.3
        seed, it = -5, 2**63 + 4
        U = sphere_directions(T, m, (k, d), r, seed, it)
        x0, w = slot_paths(inst, m, seed, it)
        for t in range(T):
            for i in range(m):
                np.testing.assert_array_equal(U[t, i], sample_sphere((k, d), r, [seed, it, t, i, 0]))
                rng = make_rng([seed, it, t, i, 1])
                np.testing.assert_array_equal(x0[t * m + i], inst.init.draw(rng))
                np.testing.assert_array_equal(w[t * m + i], inst.noise.draw(rng, T, d))

    @pytest.mark.parametrize("m", [1, 2, 3, 9])
    @pytest.mark.parametrize("init_kind,noise_kind", KIND_PAIRS[:4])
    def test_all_slots_rollout_matches_per_slot_batches(self, init_kind, noise_kind, m):
        inst = _instance_of_kinds(init_kind, noise_kind, d=2, k=2, T=4)
        K = np.random.default_rng(4).normal(size=(4, 2, 2)) * 0.2
        sim = LqrSimulator(inst)
        U = sphere_directions(inst.T, m, (2, 2), 0.2, 8, 1)
        slots = sim.rollout_perturbed_slots(K, U, 8, 1)
        for t in range(inst.T):
            np.testing.assert_array_equal(slots[t], sim.rollout_perturbed_batch(K, t, U[t], [8, 1, t]))

    @pytest.mark.parametrize("case", ["zo-liquidation", "c11"])
    def test_estimate_matches_per_slot_estimator(self, case):
        # the all-slots path against the one-slot-at-a-time path it replaced
        if case == "zo-liquidation":
            inst, K, cfg, seed = ac_to_lqr(stock_liquidation()), np.full((10, 1, 2), -0.2), SmoothingConfig(0.6, 200), 3 << 20
        else:
            inst, K, cfg, seed = scalar_benchmark(), np.zeros((5, 1, 1)), SmoothingConfig(0.1, 50), 4
        sim = LqrSimulator(inst)

        class PerSlot:
            T, k, d = sim.T, sim.k, sim.d
            rollout_perturbed_batch = staticmethod(sim.rollout_perturbed_batch)

        for it in (0, 7):
            fast = estimate_gradient(inst, K, cfg, seed, iteration=it)
            ref = estimate_gradient(PerSlot(), K, cfg, seed, iteration=it)
            np.testing.assert_array_equal(fast.grads, ref.grads)
            np.testing.assert_array_equal(fast.mean_costs, ref.mean_costs)


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
        # the vectorized batch path must replay the loop-of-rollouts streams
        inst = random_instance(rng, d=2, k=2, T=4)
        K = random_policy(rng, inst)
        sim = LqrSimulator(inst)
        U = sample_sphere_batch(8, (2, 2), 0.2, seed=1)
        key = [7, 0, 2]
        fast = sim.rollout_perturbed_batch(K, 2, U, key)
        slow = np.empty(8)
        for i in range(8):
            pert = K.copy()
            pert[2] = pert[2] + U[i]
            slow[i] = sim.rollout(pert, [*key, i, 1])
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_opaque_handle_only_needs_rollout(self, rng):
        inst = random_instance(rng, d=2, k=1, T=3)
        K = random_policy(rng, inst)
        sim = LqrSimulator(inst)

        class Opaque:
            T, k, d = sim.T, sim.k, sim.d
            rollout = staticmethod(sim.rollout)

        cfg = SmoothingConfig(radius=0.3, samples=20)
        ref = estimate_gradient(sim, K, cfg, seed=3)
        alt = estimate_gradient(Opaque(), K, cfg, seed=3)
        np.testing.assert_allclose(alt.grads, ref.grads, rtol=1e-12)

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
    def test_exact_gradient_mode_matches_exact_pg(self, rng):
        inst = random_instance(rng, d=2, k=1, T=4)
        K0 = random_policy(rng, inst)
        cfg = DescentConfig(eta=1e-3, iters=15)
        K_ref, tr_ref = run_exact_pg(inst, K0, cfg)
        K_zo, tr_zo = run_modelfree_pg(
            inst, K0, cfg, SmoothingConfig(0.1, 1), seed=0, use_exact_gradient=True
        )
        np.testing.assert_array_equal(K_zo, K_ref)
        np.testing.assert_allclose(tr_zo.column("cost"), tr_ref.column("cost"), rtol=0)

    def test_reduces_cost_on_scalar_benchmark(self):
        inst = scalar_benchmark()
        K0 = np.zeros((5, 1, 1))
        cfg = DescentConfig(eta=0.2, iters=100)
        K, trace = run_modelfree_pg(inst, K0, cfg, SmoothingConfig(radius=0.1, samples=50), seed=1)
        err = trace.column("normalized_error")
        assert err[-1] < 0.6 * err[0]

    def test_projected_variant_stays_feasible(self):
        inst = ac_to_lqr(stock_liquidation())
        S = liquidation_constraint(5e-5, 1e-12)
        K0 = np.full((10, 1, 2), -0.2)
        cfg = DescentConfig(eta=0.05, iters=5)
        K, _ = run_modelfree_ppg(inst, K0, cfg, SmoothingConfig(radius=0.6, samples=50), seed=2, constraint=S)
        assert S.contains(K)
        with pytest.raises(NotInSet):
            run_modelfree_ppg(inst, np.full((10, 1, 2), 0.2), cfg, SmoothingConfig(0.6, 10), seed=2, constraint=S)
