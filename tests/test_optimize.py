import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqrlab
from lqrlab import (
    DescentConfig,
    ProjectionSet,
    backup_value,
    covariance_profile,
    exact_cost,
    exact_gradient,
    normalized_error,
    run_exact_pg,
    run_exact_ppg,
    solve_riccati,
)
from lqrlab.benchmarks import scalar_benchmark, stock_liquidation
from lqrlab.errors import Diverged, EmptySet, NotInSet, StepSizeUnderflow, ZeroOptimalCost
from lqrlab.liquidation import ac_to_lqr, liquidation_constraint
from lqrlab import optimize
from lqrlab.optimize import _armijo

from conftest import random_instance, random_policy


class TestExactPg:
    def test_converges_with_backtracking(self):
        inst = scalar_benchmark()
        K0 = np.full((5, 1, 1), 0.1)
        cfg = DescentConfig(eta=1.0, iters=3000, line_search=True)
        K, trace = run_exact_pg(inst, K0, cfg)
        assert normalized_error(inst, K) < 1e-8

    def test_monotone_descent_small_step(self, rng):
        inst = random_instance(rng)
        K0 = random_policy(rng, inst)
        _, trace = run_exact_pg(inst, K0, DescentConfig(eta=1e-3, iters=50))
        costs = trace.column("cost")
        assert np.all(np.diff(costs) <= 1e-10)

    def test_divergence_guard(self, rng):
        inst = random_instance(rng, d=2, k=1, T=3)
        K0 = random_policy(rng, inst)
        with pytest.raises(Diverged):
            run_exact_pg(inst, K0, DescentConfig(eta=1e6, iters=200))

    def test_step_size_underflow(self, rng):
        inst = random_instance(rng)
        sol = solve_riccati(inst)
        # at the optimum no step achieves the Armijo decrease against a
        # strictly positive gradient-norm floor, so backtracking bottoms out
        cfg = DescentConfig(eta=1.0, iters=5, line_search=True, armijo_c=1e4)
        K0 = sol.gains + 1e-3 * random_policy(rng, inst)
        with pytest.raises(StepSizeUnderflow):
            run_exact_pg(inst, K0, cfg)

    @pytest.mark.parametrize("name,value", [
        ("backtrack", 1.0), ("backtrack", 1.5), ("backtrack", 0.0), ("backtrack", -0.5), ("backtrack", np.nan),
        ("eta", 0.0), ("eta", -1.0), ("eta", np.inf), ("eta", np.nan),
        ("iters", -1), ("iters", 2.5), ("iters", 3.0), ("iters", True),
        ("armijo_c", 0.0), ("armijo_c", -1e-4), ("armijo_c", np.inf),
        ("target_error", np.nan), ("target_error", np.inf), ("target_error", -np.inf),
    ])
    def test_config_rejects_bad_settings(self, name, value):
        # backtrack = 1 used to loop forever in the Armijo search, and 0 or
        # less to raise StepSizeUnderflow, a runtime failure, for bad input
        settings = {"eta": 1.0, "iters": 5, "line_search": True, name: value}
        with pytest.raises(ValueError, match=name):
            DescentConfig(**settings)

    def test_config_fields_cannot_be_assigned(self):
        # an assigned backtrack = 1 would reach the Armijo search unchecked
        cfg = DescentConfig(eta=1.0, iters=5, line_search=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.backtrack = 1.0

    def test_config_accepts_edge_settings(self):
        cfg = DescentConfig(eta=np.float64(1.0), iters=np.int64(0), armijo_c=1e4, backtrack=0.999, target_error=-1.0)
        K0 = np.full((5, 1, 1), 0.1)
        _, trace = run_exact_pg(scalar_benchmark(), K0, cfg)
        assert len(trace.rows) == 1

    def test_normalized_error_zero_cost_guard(self):
        with pytest.raises(ZeroOptimalCost):
            normalized_error(zero_cost_instance(), np.zeros((1, 1, 1)))

    @pytest.mark.parametrize("line_search", [False, True])
    def test_zero_optimal_cost_raises_at_start(self, line_search):
        cfg = DescentConfig(eta=0.1, iters=5, line_search=line_search)
        with pytest.raises(ZeroOptimalCost):
            run_exact_pg(zero_cost_instance(), np.zeros((1, 1, 1)), cfg)
        with pytest.raises(ZeroOptimalCost):
            run_exact_ppg(zero_cost_instance(), np.zeros((1, 1, 1)), cfg, ProjectionSet(kind="box", lo=-1.0, hi=1.0))

    @pytest.mark.parametrize("line_search", [False, True])
    def test_nan_policy_diverges(self, rng, line_search):
        # a NaN cost fails every comparison, so an abs(cost) > guard test never fired
        # and the Armijo test never passed (StepSizeUnderflow)
        inst = random_instance(rng)
        K0 = random_policy(rng, inst)
        K0[0, 0, 0] = np.nan
        with pytest.raises(Diverged):
            run_exact_pg(inst, K0, DescentConfig(eta=0.1, iters=5, line_search=line_search))


class TestProjection:
    def setup_method(self):
        self.S = liquidation_constraint(gamma_bar=5e-5, zeta=1e-12)

    def test_membership_examples(self):
        K = np.full((3, 1, 2), -0.2)
        assert self.S.contains(K)
        K[1, 0, 1] = -1.5  # violates the halfspace
        assert not self.S.contains(K)
        K = np.full((3, 1, 2), 0.1)  # positive entries
        assert not self.S.contains(K)

    def test_idempotent_and_feasible(self, rng):
        K = rng.normal(size=(50, 1, 2)) * 2.0
        P1 = self.S.project(K)
        assert self.S.contains(P1, tol=0.0)
        P2 = self.S.project(P1)
        np.testing.assert_allclose(P2, P1, atol=2e-15)

    def test_fixed_point_on_members(self, rng):
        K = -np.abs(rng.normal(size=(20, 1, 2))) * 0.3
        assert self.S.contains(K)
        np.testing.assert_allclose(self.S.project(K), K, atol=1e-15)

    def test_nonexpansive(self, rng):
        for _ in range(200):
            a = rng.normal(size=(4, 1, 2)) * 3
            b = rng.normal(size=(4, 1, 2)) * 3
            pa, pb = self.S.project(a), self.S.project(b)
            assert np.linalg.norm((pa - pb).ravel()) <= np.linalg.norm((a - b).ravel()) + 1e-12

    def test_optimality_against_competitors(self, rng):
        # <L0 - L*, L* - L1> >= 0 for all feasible L0 characterizes the projection
        pts = rng.normal(size=(100, 1, 1, 2)) * 2
        for p in pts:
            star = self.S.project(p)
            for _ in range(20):
                comp = self.S.project(rng.normal(size=(1, 1, 2)) * 2)
                inner = float(((comp - star) * (star - p)).sum())
                assert inner >= -1e-12

    @pytest.mark.parametrize("kind", ["Box", "unconstrained", ""])
    def test_unknown_kind_rejected(self, kind):
        # "Box" used to build and act as a liquidation set with gamma_bar = 0:
        # project raised ZeroDivisionError and run_exact_ppg IndexError
        with pytest.raises(ValueError, match=repr(kind)):
            ProjectionSet(kind=kind, lo=-1.0, hi=1.0)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            ProjectionSet(kind="liquidation", gamma_bar=5e-5, zeta=1.5)
        with pytest.raises(EmptySet):
            ProjectionSet(kind="box", lo=1.0, hi=0.0)

    def test_box_projection(self):
        S = ProjectionSet(kind="box", lo=-1.0, hi=1.0)
        K = np.array([[[2.0, -3.0]]])
        np.testing.assert_array_equal(S.project(K), [[[1.0, -1.0]]])


COORD = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def sets_and_gains(draw):
    """A box or liquidation set and three gain sequences of its shape."""
    T = draw(st.integers(1, 4))
    if draw(st.booleans()):
        lo = draw(st.floats(-10.0, 10.0))
        S = ProjectionSet(kind="box", lo=lo, hi=lo + draw(st.floats(0.0, 10.0)))
        shape = (T, draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    else:
        S = liquidation_constraint(draw(st.floats(1e-6, 10.0)), draw(st.floats(0.0, 1.0)))
        shape = (T, 1, 2)
    n = int(np.prod(shape))
    return S, *(np.reshape(draw(st.lists(COORD, min_size=n, max_size=n)), shape) for _ in range(3))


class TestProjectionProperties:
    @settings(deadline=None, max_examples=300)
    @given(case=sets_and_gains())
    def test_member(self, case):
        S, K, _, _ = case
        assert S.contains(S.project(K))

    @settings(deadline=None, max_examples=300)
    @given(case=sets_and_gains())
    def test_optimal(self, case):
        # <K - P(K), Y - P(K)> <= 0 for every member Y characterizes the projection
        S, K, Z, _ = case
        P, Y = S.project(K), S.project(Z)
        inner = float(((K - P) * (Y - P)).sum())
        assert inner <= 1e-9 * (1.0 + np.abs(K).max() * np.abs(Y - P).max())

    @settings(deadline=None, max_examples=300)
    @given(case=sets_and_gains())
    def test_nonexpansive(self, case):
        S, _, a, b = case
        gap = np.linalg.norm((S.project(a) - S.project(b)).ravel())
        assert gap <= np.linalg.norm((a - b).ravel()) * (1.0 + 1e-12) + 1e-12


class TestExactPpg:
    def test_rejects_infeasible_start(self):
        inst = ac_to_lqr(stock_liquidation())
        S = liquidation_constraint(5e-5, 1e-12)
        with pytest.raises(NotInSet):
            run_exact_ppg(inst, np.full((10, 1, 2), 0.2), DescentConfig(eta=0.01, iters=1), S)

    def test_iterates_stay_feasible_and_descend(self):
        inst = ac_to_lqr(stock_liquidation())
        S = liquidation_constraint(5e-5, 1e-12)
        K0 = np.full((10, 1, 2), -0.2)
        K, trace = run_exact_ppg(inst, K0, DescentConfig(eta=0.05, iters=100), S)
        assert S.contains(K)
        costs = trace.column("cost")
        assert costs[-1] < costs[0]
        assert normalized_error(inst, K) < 0.05

    def test_gradient_mapping_cesaro_decay(self):
        # running average of the squared gradient-mapping norm decays ~ 1/N
        inst = ac_to_lqr(stock_liquidation())
        S = liquidation_constraint(5e-5, 1e-12)
        K0 = np.full((10, 1, 2), -0.2)
        _, trace = run_exact_ppg(inst, K0, DescentConfig(eta=0.05, iters=400), S)
        gm = trace.column("gradmap_sq")[:-1]  # final row has no step
        avg100 = gm[:100].mean()
        avg400 = gm.mean()
        assert avg400 <= 0.5 * avg100


def zero_cost_instance():
    """No noise and x_0 = 0: every policy, the optimal one too, costs 0."""
    return lqrlab.constant_instance(
        np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), 1,
        lqrlab.NoiseModel("zero"), lqrlab.InitialStateModel("point", np.zeros(1)),
    )


def sequential_armijo(instance, K, grads, cost, cfg, projection):
    """Backtracking one step size at a time: (eta, step) of the first step
    size with sufficient decrease."""
    gsq = float((grads**2).sum())
    eta = cfg.eta
    while eta >= optimize._ETA_FLOOR:
        step = K - eta * grads
        cand = projection.project(step) if projection is not None else step
        if projection is None:
            sufficient = cost - cfg.armijo_c * eta * gsq
        else:
            gm_sq = float(((cand - K) ** 2).sum()) / (4.0 * eta**2)
            sufficient = cost - cfg.armijo_c * eta * gm_sq
        if exact_cost(instance, cand) <= sufficient:
            return eta, cand
        eta *= cfg.backtrack
    raise StepSizeUnderflow("reference search fell below the floor")


class TestLadderArmijo:
    def _check_path(self, inst, K, cfg, projection, steps):
        """Follow the reference search for `steps` iterates; at each, the
        ladder must pick the same step size and iterate, with that iterate's
        exact cost, value matrices and state moments.  Returns the largest rung
        index used."""
        deepest = 0
        for _ in range(steps):
            bk = backup_value(inst, K)
            grads = exact_gradient(inst, K)
            eta_ref, K_ref = sequential_armijo(inst, K, grads, bk.cost, cfg, projection)
            eta, K_next, P, sig, cost = _armijo(inst, K, grads, bk.cost, cfg, projection)
            assert eta == eta_ref
            np.testing.assert_array_equal(K_next, K_ref)
            ref = backup_value(inst, K_ref)
            assert cost == ref.cost
            np.testing.assert_array_equal(P, ref.P)
            ref_sig = covariance_profile(inst, K_ref).sigmas
            assert sig.shape == ref_sig.shape and sig.tobytes() == ref_sig.tobytes()
            deepest = max(deepest, int(round(np.log(cfg.eta / eta) / np.log(1.0 / cfg.backtrack))))
            K = K_next
        return deepest

    @pytest.mark.parametrize("backtrack", [0.5, 0.3])
    def test_matches_sequential_search(self, rng, backtrack):
        deepest = 0
        for eta0 in (1.0, 1e6):  # 1e6 needs rungs beyond the first batch
            for _ in range(3):
                inst = random_instance(rng)
                cfg = DescentConfig(eta=eta0, iters=1, line_search=True, backtrack=backtrack)
                deepest = max(deepest, self._check_path(inst, random_policy(rng, inst), cfg, None, 8))
        assert deepest >= 16

    @pytest.mark.parametrize("backtrack", [0.5, 0.3])
    def test_matches_sequential_search_projected_liquidation(self, backtrack):
        inst = ac_to_lqr(stock_liquidation())
        S = liquidation_constraint(5e-5, 1e-12)
        cfg = DescentConfig(eta=1.0, iters=1, line_search=True, backtrack=backtrack)
        self._check_path(inst, np.full((10, 1, 2), -0.2), cfg, S, 20)

    def test_underflow_as_sequential_search(self, rng):
        inst = random_instance(rng)
        K = solve_riccati(inst).gains + 1e-3 * random_policy(rng, inst)
        cfg = DescentConfig(eta=1.0, iters=1, line_search=True, armijo_c=1e4)
        bk, grads = backup_value(inst, K), exact_gradient(inst, K)
        with pytest.raises(StepSizeUnderflow):
            sequential_armijo(inst, K, grads, bk.cost, cfg, None)
        with pytest.raises(StepSizeUnderflow):
            _armijo(inst, K, grads, bk.cost, cfg, None)

    def test_run_follows_sequential_search(self, rng):
        inst = random_instance(rng)
        K = random_policy(rng, inst)
        cfg = DescentConfig(eta=1.0, iters=25, line_search=True)
        K_run, trace = run_exact_pg(inst, K, cfg)
        for n in range(cfg.iters):
            cost = exact_cost(inst, K)
            assert trace.rows[n][1] == cost
            eta, K = sequential_armijo(inst, K, exact_gradient(inst, K), cost, cfg, None)
            assert trace.rows[n][4] == eta
        np.testing.assert_array_equal(K_run, K)
