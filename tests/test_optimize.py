import dataclasses
import itertools
import re
from fractions import Fraction

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
from lqrlab.benchmarks import four_state_benchmark, scalar_benchmark, stock_liquidation
from lqrlab.errors import Diverged, EmptySet, NotInSet, StepSizeUnderflow, ZeroOptimalCost
from lqrlab.liquidation import ac_to_lqr, liquidation_constraint
from lqrlab import core, optimize
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

    def test_step_size_underflow(self, rng, monkeypatch):
        inst = random_instance(rng)
        sol = solve_riccati(inst)
        # near the optimum no step achieves an Armijo decrease of c = 1e4 times
        # the squared gradient norm, so backtracking bottoms out
        monkeypatch.setattr(optimize, "_ARMIJO_C", 1e4)
        cfg = DescentConfig(eta=1.0, iters=5, line_search=True)
        K0 = sol.gains + 1e-3 * random_policy(rng, inst)
        with pytest.raises(StepSizeUnderflow):
            run_exact_pg(inst, K0, cfg)

    @pytest.mark.parametrize("name,value", [
        ("eta", 0.0), ("eta", -1.0), ("eta", np.inf), ("eta", np.nan), ("eta", True), ("eta", "1.0"), ("eta", None),
        ("iters", -1), ("iters", 2.5), ("iters", 3.0), ("iters", True),
        ("target_error", np.nan), ("target_error", np.inf), ("target_error", -np.inf), ("target_error", True),
        ("target_error", "1.0"),
        ("line_search", "false"), ("line_search", 1),
    ])
    def test_config_rejects_bad_settings(self, name, value):
        # line_search = "false" used to run the search, as the string is truthy;
        # eta = True ran as 1.0, and eta = "1.0" raised a TypeError naming no field
        settings = {"eta": 1.0, "iters": 5, "line_search": True, name: value}
        with pytest.raises(ValueError, match=name):
            DescentConfig(**settings)

    def test_config_fields_cannot_be_assigned(self):
        # an assigned eta = 0 would reach the Armijo search unchecked
        cfg = DescentConfig(eta=1.0, iters=5, line_search=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.eta = 0.0

    def test_config_accepts_edge_settings(self):
        cfg = DescentConfig(eta=np.float64(1.0), iters=np.int64(0), target_error=-1.0)
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
        # the set's three inequalities, with no tolerance
        k1, k2 = P1[:, 0, 0], P1[:, 0, 1]
        assert np.all(self.S.gamma_bar * k1 + k2 >= -1.0 + self.S.zeta) and np.all(k1 <= 0.0) and np.all(k2 <= 0.0)
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

    @pytest.mark.parametrize("gamma_bar", [0.0, -5e-5])
    def test_liquidation_set_needs_a_positive_gamma_bar(self, gamma_bar):
        with pytest.raises(EmptySet, match=r"gamma_bar > 0"):
            ProjectionSet(kind="liquidation", gamma_bar=gamma_bar, zeta=1e-12)

    @pytest.mark.parametrize("shape", [(3, 1, 1), (3, 2, 2), (3, 2, 1)])
    @pytest.mark.parametrize("method", ["contains", "project"])
    def test_liquidation_set_refuses_gains_that_are_not_1x2(self, method, shape):
        # contains read K[:, 0, 1] unchecked: an IndexError on 1x1 gains, an answer on 2x2 ones
        with pytest.raises(ValueError, match=rf"^liquidation set applies to 1x2 gains, got gains of shape {re.escape(str(shape[1:]))}$"):
            getattr(self.S, method)(np.full(shape, -0.2))

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            ProjectionSet(kind="liquidation", gamma_bar=5e-5, zeta=1.5)
        with pytest.raises(EmptySet):
            ProjectionSet(kind="box", lo=1.0, hi=0.0)

    @pytest.mark.parametrize("name,value", [("gamma_bar", np.nan), ("gamma_bar", np.inf), ("zeta", np.nan)])
    def test_non_finite_liquidation_parameters_rejected(self, name, value):
        # these used to build a set that no policy is in (EmptySet or NotInSet, runtime failures)
        settings = {"gamma_bar": 5e-5, "zeta": 1e-12, name: value}
        with pytest.raises(ValueError, match=f"constraint.{name} must be finite"):
            ProjectionSet(kind="liquidation", **settings)

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
    def test_liquidation_set_on_scalar_gains_is_a_value_error(self):
        # the initial membership check used to raise IndexError
        with pytest.raises(ValueError, match=r"^liquidation set applies to 1x2 gains, got gains of shape \(1, 1\)$"):
            run_exact_ppg(scalar_benchmark(), np.full((5, 1, 1), -0.2), DescentConfig(eta=0.01, iters=1),
                          liquidation_constraint(5e-5, 1e-12))

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


WRONG_SHAPE_ENTRIES = {
    "run_exact_pg": lambda inst, K: run_exact_pg(inst, K, DescentConfig(eta=0.1, iters=3)),
    "run_exact_ppg": lambda inst, K: run_exact_ppg(inst, K, DescentConfig(eta=0.1, iters=3),
                                                   ProjectionSet(kind="box", lo=-1.0, hi=1.0)),
    "run_modelfree_pg": lambda inst, K: lqrlab.run_modelfree_pg(inst, K, DescentConfig(eta=0.1, iters=3),
                                                                lqrlab.SmoothingConfig(0.1, 5), 0),
    "run_modelfree_pg/handle": lambda inst, K: lqrlab.run_modelfree_pg(lqrlab.LqrSimulator(inst), K,
                                                                       DescentConfig(eta=0.1, iters=3),
                                                                       lqrlab.SmoothingConfig(0.1, 5), 0),
    "estimate_gradient": lambda inst, K: lqrlab.estimate_gradient(lqrlab.LqrSimulator(inst), K,
                                                                  lqrlab.SmoothingConfig(0.1, 5), 0),
    "smoothed_gradient_reference": lambda inst, K: lqrlab.smoothed_gradient_reference(inst, K, 0, 0.1, 5, 0),
}


@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 1), (3, 1, 1), ()], ids=["1x1x1", "5x1", "3x1x1", "scalar"])
@pytest.mark.parametrize("entry", list(WRONG_SHAPE_ENTRIES))
def test_policy_of_another_shape_is_rejected(entry, shape):
    # the exact loops used to broadcast a (1, 1, 1) policy over the T = 5
    # steps and return a (5, 1, 1) one; other shapes failed with numpy's
    # matmul or index errors instead of a message naming the policy
    with pytest.raises(ValueError, match=r"^policy must have shape \(5, 1, 1\), got "):
        WRONG_SHAPE_ENTRIES[entry](scalar_benchmark(), np.zeros(shape))


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
    eta = np.float64(cfg.eta)  # whose square is inf, not OverflowError, from 1.3e154
    while eta >= optimize._ETA_FLOOR:
        step = K - eta * grads
        cand = projection.project(step) if projection is not None else step
        if projection is None:
            sufficient = cost - optimize._ARMIJO_C * eta * gsq
        else:
            gm_sq = float(((cand - K) ** 2).sum()) / (4.0 * eta**2)
            sufficient = cost - optimize._ARMIJO_C * eta * gm_sq
        if -np.inf < exact_cost(instance, cand) <= sufficient:  # a cost is never negative: -inf overflowed
            return eta, cand
        eta *= optimize._BACKTRACK
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
            eta, K_next, P, sig, cost = _armijo(inst, K, grads, bk.cost, cfg, projection, optimize._LADDER_CHUNK)
            assert eta == eta_ref
            np.testing.assert_array_equal(K_next, K_ref)
            ref = backup_value(inst, K_ref)
            assert cost == ref.cost
            np.testing.assert_array_equal(P, ref.P)
            ref_sig = covariance_profile(inst, K_ref).sigmas
            assert sig.shape == ref_sig.shape and sig.tobytes() == ref_sig.tobytes()
            deepest = max(deepest, int(round(np.log(cfg.eta / eta) / np.log(1.0 / optimize._BACKTRACK))))
            K = K_next
        return deepest

    def test_matches_sequential_search(self, rng):
        deepest = 0
        for eta0 in (1.0, 1e6):  # 1e6 needs rungs beyond the first batch
            for _ in range(3):
                inst = random_instance(rng)
                cfg = DescentConfig(eta=eta0, iters=1, line_search=True)
                deepest = max(deepest, self._check_path(inst, random_policy(rng, inst), cfg, None, 8))
        assert deepest >= 16

    def test_matches_sequential_search_projected_liquidation(self):
        inst = ac_to_lqr(stock_liquidation())
        S = liquidation_constraint(5e-5, 1e-12)
        cfg = DescentConfig(eta=1.0, iters=1, line_search=True)
        self._check_path(inst, np.full((10, 1, 2), -0.2), cfg, S, 20)

    def test_underflow_as_sequential_search(self, rng, monkeypatch):
        inst = random_instance(rng)
        K = solve_riccati(inst).gains + 1e-3 * random_policy(rng, inst)
        monkeypatch.setattr(optimize, "_ARMIJO_C", 1e4)
        cfg = DescentConfig(eta=1.0, iters=1, line_search=True)
        bk, grads = backup_value(inst, K), exact_gradient(inst, K)
        with pytest.raises(StepSizeUnderflow):
            sequential_armijo(inst, K, grads, bk.cost, cfg, None)
        with pytest.raises(StepSizeUnderflow):
            _armijo(inst, K, grads, bk.cost, cfg, None, optimize._LADDER_CHUNK)

    def _follow(self, inst, K, cfg, projection):
        """Run the descent and replay it with the reference search: every row's
        cost, gradient norm, step size and gradient-mapping norm, and the final
        policy, must match bit for bit.  Returns each search's accepted depth."""
        if projection is None:
            K_run, trace = run_exact_pg(inst, K, cfg)
        else:
            K_run, trace = run_exact_ppg(inst, K, cfg, projection)
        assert len(trace.rows) == cfg.iters + 1
        depths = []
        for row in trace.rows[:-1]:
            cost, grads = exact_cost(inst, K), exact_gradient(inst, K)
            eta, K_next = sequential_armijo(inst, K, grads, cost, cfg, projection)
            assert row[1] == cost and row[3] == float(np.sqrt((grads**2).sum())) and row[4] == eta
            if projection is not None:
                assert row[5] == float((((K_next - K) / (2.0 * eta)) ** 2).sum())
            depths.append(int(round(np.log2(cfg.eta) - np.log2(eta))))
            K = K_next
        np.testing.assert_array_equal(K_run, K)
        assert trace.rows[-1][1] == exact_cost(inst, K)
        return np.array(depths)

    @pytest.mark.parametrize("seed,eta0", [(4, 1e6), (2, 1.0)])
    def test_sized_batches_follow_sequential_search(self, seed, eta0):
        # a search's first batch runs to the last accepted depth + 1 + the margin;
        # one that goes deeper continues in a second batch from mid-ladder, and
        # one that ends much shallower takes a rung early in the first batch
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        cfg = DescentConfig(eta=eta0, iters=40, line_search=True)
        steps = np.diff(self._follow(inst, random_policy(rng, inst), cfg, None))
        assert steps.max() > optimize._DEPTH_MARGIN and steps.min() < -optimize._DEPTH_MARGIN

    def test_sized_batches_follow_sequential_search_projected_liquidation(self):
        inst = ac_to_lqr(stock_liquidation())
        cfg = DescentConfig(eta=1e3, iters=30, line_search=True)
        steps = np.diff(self._follow(inst, np.full((10, 1, 2), -0.2), cfg, liquidation_constraint(5e-5, 1e-12)))
        assert steps.max() > optimize._DEPTH_MARGIN and steps.min() < -optimize._DEPTH_MARGIN

    def test_huge_eta_keeps_each_pass_within_a_chunk(self, monkeypatch):
        # from eta = 1e300 the searches end some 1,030 rungs down, near 1e-10,
        # where cfg.eta / eta overflows; no pass may take more than a chunk
        sizes = []

        def counting(instance, K, **kw):
            sizes.append(K.shape[:-3])
            return core._closed_loop(instance, K, **kw)

        monkeypatch.setattr(optimize, "_closed_loop", counting)
        inst = scalar_benchmark()  # whose cost overflows to inf, not nan or -inf, on huge steps
        inst = dataclasses.replace(inst, Q=1e12 * inst.Q, R=1e12 * inst.R)  # scales the accepted eta by 1e-12
        cfg = DescentConfig(eta=1e300, iters=3, line_search=True)
        with np.errstate(over="ignore", invalid="ignore"):
            depths = self._follow(inst, np.full((inst.T, 1, 1), 0.05), cfg, None)
        assert 1e300 * 0.5 ** depths.min() < 1e-9 and max(sizes) == (optimize._LADDER_CHUNK,)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 7, 10, 13, 16, 19, 22, 32, 39])
    def test_rung_whose_cost_overflows_to_minus_inf_fails(self, seed, monkeypatch):
        # from eta = 1e300 the top rungs' costs overflow, on these draws of 40
        # to -inf, which passed the decrease test: a search took such a rung
        # and the run raised Diverged; now it backtracks to a finite rung, as
        # the reference search does, bit for bit
        ladder = []

        def recording(instance, P):
            backup = core._value_backup(instance, P)
            ladder.extend(np.ravel(backup.cost))
            return backup

        monkeypatch.setattr(optimize, "_value_backup", recording)
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            self._follow(inst, random_policy(rng, inst), DescentConfig(eta=1e300, iters=3, line_search=True), None)
        assert -np.inf in ladder

    def test_projected_search_from_a_huge_eta(self, rng):
        # a rung's squared size in the gradient mapping's decrease raised
        # OverflowError from eta = 1.3e154; now the top rungs need a decrease of 0
        inst = random_instance(rng)
        box = ProjectionSet(kind="box", lo=-0.4, hi=0.4)
        cfg = DescentConfig(eta=1e300, iters=3, line_search=True)
        with np.errstate(over="ignore", invalid="ignore"):
            self._follow(inst, box.project(random_policy(rng, inst)), cfg, box)

    def test_one_pass_per_search_at_a_stable_depth(self, monkeypatch):
        # the run's first search takes a full chunk; every later one, passing
        # within the margin, one pass over the last depth + 1 + margin rungs
        calls = []

        def counting(instance, K, **kw):
            calls.append(K.shape[:-3])
            return core._closed_loop(instance, K, **kw)

        monkeypatch.setattr(optimize, "_closed_loop", counting)
        four = four_state_benchmark()
        cfg = DescentConfig(eta=1.0, iters=30, line_search=True)
        _, trace = run_exact_pg(four, np.full((four.T, four.k, four.d), 0.05), cfg)
        depths = np.round(np.log2(cfg.eta / trace.column("eta")[:-1])).astype(int)
        assert np.diff(depths).max() <= optimize._DEPTH_MARGIN and depths.max() + 3 < optimize._LADDER_CHUNK
        assert calls == [(), (optimize._LADDER_CHUNK,)] + [(d + 1 + optimize._DEPTH_MARGIN,) for d in depths[:-1]]

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


TRIANGLES = [(5e-5, 1e-12), (1.0, 0.0), (3.0, 0.5), (1e-6, 0.999)]


def _in_set(pts, gamma_bar, zeta):
    """The rows of (n, 2) points that meet the liquidation set's three inequalities, with no tolerance."""
    return (pts[:, 0] <= 0.0) & (pts[:, 1] <= 0.0) & (gamma_bar * pts[:, 0] + pts[:, 1] >= -1.0 + zeta)


def _exact_projection(point, gamma_bar, zeta):
    """The nearest point of the set {g*x + y >= c, x <= 0, y <= 0}, c = zeta - 1.0
    as a float, to point, in exact rational arithmetic: the point itself if it is
    in the set, else the nearest of its projections onto the three edges."""
    g, c = Fraction(gamma_bar), Fraction(zeta - 1.0)
    p = [Fraction(v) for v in point]
    if p[0] <= 0 and p[1] <= 0 and g * p[0] + p[1] >= c:
        return p
    feet = []
    for a, b in itertools.combinations([(0, 0), (0, c), (c / g, 0)], 2):
        e = [b[0] - a[0], b[1] - a[1]]
        sq_len = e[0] ** 2 + e[1] ** 2  # 0 where zeta = 1 shrinks the set to a point
        t = min(max(((p[0] - a[0]) * e[0] + (p[1] - a[1]) * e[1]) / sq_len, 0), 1) if sq_len else 0
        feet.append([a[0] + t * e[0], a[1] + t * e[1]])
    return min(feet, key=lambda q: (q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2)


class TestTriangleProjection:
    """A point inside the liquidation triangle is its own projection, bit for
    bit; any other lands on the set with no tolerance, within 1e-14 * (1 + |p|)
    of the exact projection; a batch projects as its rows one at a time."""

    @staticmethod
    def _check(pts, gamma_bar, zeta):
        got = optimize._project_halfplane_triangle(pts, gamma_bar, zeta)
        assert got is not pts and not np.shares_memory(got, pts)
        inside = _in_set(pts, gamma_bar, zeta)
        assert got[inside].tobytes() == pts[inside].tobytes() and _in_set(got, gamma_bar, zeta).all()
        rows = [optimize._project_halfplane_triangle(row[None], gamma_bar, zeta) for row in pts]
        assert got.tobytes() == np.concatenate(rows).tobytes()
        for p, q in zip(pts, got):
            ref = _exact_projection(p, gamma_bar, zeta)
            assert (Fraction(q[0]) - ref[0]) ** 2 + (Fraction(q[1]) - ref[1]) ** 2 <= Fraction(1e-14 * (1.0 + np.hypot(*p))) ** 2

    @pytest.mark.parametrize("gamma_bar,zeta", TRIANGLES)
    @pytest.mark.parametrize("offset", [1e-16, 3e-16, 1e-15, 3e-15, 1e-14, -1e-16, -1e-15, -1e-14])
    def test_points_next_to_edges_and_vertices(self, gamma_bar, zeta, offset):
        # offset > 0 moves a point inside, < 0 outside; 1e-15 is the width of
        # the tie band within which an earlier projection compared distances
        g, c = gamma_bar, zeta - 1.0
        normal = np.array([g, 1.0]) / np.hypot(g, 1.0)
        s = np.linspace(0.05, 0.95, 7)[:, None]
        line = np.array([c / g, 0.0]) * s + np.array([0.0, c]) * (1 - s)
        edges = [line + offset * normal, np.c_[np.zeros(7) - offset, c * s[:, 0]],
                 np.c_[c / g * s[:, 0], np.zeros(7) - offset]]
        corners = [np.array([[-offset, -offset]]), np.array([[-offset, c + offset * (1 + g)]]),
                   np.array([[c / g + offset * (1 + 1 / g), -offset]])]
        for pts in edges + corners + [np.concatenate(edges + corners)]:
            self._check(pts, g, zeta)

    @settings(deadline=None, max_examples=300)
    @given(case=st.sampled_from(TRIANGLES), weights=st.lists(st.tuples(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0),
                                                                      st.floats(1e-9, 1.0)), min_size=1, max_size=12))
    def test_random_interior_points(self, case, weights):
        # convex combinations of the vertices with every weight positive
        g, zeta = case
        c = zeta - 1.0
        w = np.array(weights)
        self._check((w / w.sum(axis=1, keepdims=True)) @ np.array([[0.0, 0.0], [0.0, c], [c / g, 0.0]]), g, zeta)

    @settings(deadline=None, max_examples=300)
    @given(gamma_bar=st.floats(1e-6, 10.0), zeta=st.floats(0.0, 1.0) | st.just(1.0),
           points=st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=8))
    def test_exact_reference(self, gamma_bar, zeta, points):
        self._check(np.array(points), gamma_bar, zeta)

    def test_far_point_lands_on_the_line(self):
        # an earlier projection's foot on the line cancelled, failed a
        # feasibility test, and the point went to the vertex (-0.07, 0)
        self._check(np.array([[-1795.82571139, -179.73109418]]), 10.0, 0.3)

    def test_far_point_next_to_a_vertex_lands_on_its_edge(self):
        # (-1e-3, 0) and the vertex (0, 0) lie at squared distances whose
        # difference, 1e-6, is below the rounding of 1e12: the nearest edge is
        # the one whose constraint the point breaks, not the nearest rounded distance
        self._check(np.array([[-1e-3, 1e6]]), 1.0, 0.0)

    @pytest.mark.parametrize("scale", [0.3, 1e3])
    def test_projections_of_a_thin_set_land_on_it(self, scale):
        # at gamma_bar = 1e-6 an earlier projection left 11.6% and 12.6% of
        # these below g*x + y = c, by up to 1.2e-16 and 6.7e-13
        S = liquidation_constraint(1e-6, 0.999)
        P = S.project(np.random.default_rng(5).normal(size=(1000, 1, 2)) * scale)
        assert _in_set(P[:, 0], S.gamma_bar, S.zeta).all()
