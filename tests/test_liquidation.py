import numpy as np
import pytest

from lqrlab import exact_cost, make_rng, solve_riccati
from lqrlab.benchmarks import STOCK_PARAMS, stock_liquidation
from lqrlab.errors import (
    DegenerateDesign,
    InsufficientDepth,
    NonPositiveDelta,
    ZeroQueue,
)
from lqrlab.liquidation import (
    AcParams,
    ExecutionRecord,
    LobSeries,
    LobSnapshot,
    SyntheticBookConfig,
    ac_to_lqr,
    almgren_chriss_reference,
    estimate_impact_params,
    estimate_temporary_impact,
    expected_inventory_path,
    liquidation_constraint,
    liquidation_cost,
    read_lob_csv,
    simulate_lob,
    synthetic_lob,
    walk_the_book,
    write_lob_csv,
)
from lqrlab.core import covariance_profile


def small_params(**kw):
    base = dict(beta=2e-6, gamma=1e-6, sigma=0.1, phi=5e-6, epsilon=1e-8, T=4)
    base.update(kw)
    return AcParams(**base)


class TestEmbedding:
    def test_delta(self):
        assert small_params().delta == pytest.approx(2e-6 - 0.5e-6)
        with pytest.raises(NonPositiveDelta):
            _ = small_params(beta=1e-7).delta

    def test_matrices(self):
        p = small_params()
        inst = ac_to_lqr(p)
        np.testing.assert_array_equal(inst.A, np.eye(2))
        np.testing.assert_array_equal(inst.B, [[-p.gamma], [-1.0]])
        np.testing.assert_allclose(inst.Q[0], np.diag([p.epsilon, p.phi * p.sigma**2]))
        np.testing.assert_allclose(inst.Q[-1], np.diag([p.epsilon, p.delta + p.phi * p.sigma**2]))
        np.testing.assert_allclose(inst.R, p.delta)
        np.testing.assert_allclose(inst.W, np.diag([p.sigma**2, 0.0]))
        np.testing.assert_allclose(
            inst.init.second_moment(),
            np.diag([p.S0**2, p.q0_mean**2 + p.q0_std**2])
            + np.array([[0, p.S0 * p.q0_mean], [p.S0 * p.q0_mean, 0]]),
        )

    def test_psd_state_cost_allowed(self):
        # epsilon = 0 leaves Q only positive semidefinite but must still build
        inst = ac_to_lqr(small_params(epsilon=0.0))
        assert np.isfinite(solve_riccati(inst).optimal_cost)

    @pytest.mark.filterwarnings("error:state covariance is degenerate:RuntimeWarning")
    def test_covariance_stays_pd_on_constraint_set(self):
        # despite a singular noise covariance, gains that keep a margin zeta
        # from selling the whole inventory keep the state second moment
        # positive definite at every time, above the warning's relative
        # floor 1e-12 (1 + max|Sigma|); at zeta = 1e-12 a projected step can
        # sell all but about 1e-12 of it, and covariance_profile warns
        inst = ac_to_lqr(stock_liquidation())
        rng = np.random.default_rng(0)
        gains = [rng.normal(scale=0.5, size=(10, 1, 2)) for _ in range(20)]
        S = liquidation_constraint(5e-5, 5e-2)
        for G in gains:
            prof = covariance_profile(inst, S.project(G))
            assert prof.sigma_x > 1e-12 * (1 + np.abs(prof.sigmas).max())
        S = liquidation_constraint(5e-5, 1e-12)
        with pytest.warns(RuntimeWarning, match="state covariance is degenerate"):
            for G in gains:
                covariance_profile(inst, S.project(G))

    def test_riskless_matches_brute_force(self):
        # phi = 0, deterministic start: optimal expected cost by direct
        # minimization over sell schedules (quadratic program in u)
        p = small_params(phi=0.0, sigma=0.0, epsilon=0.0, q0_std=0.0, T=3)
        gains, cost = almgren_chriss_reference(p)

        def schedule_cost(u):
            u = np.asarray(u, dtype=float)
            q = p.q0_mean - np.cumsum(u)
            return p.delta * (u**2).sum() + p.delta * q[-1] ** 2 + 0.5 * p.gamma * p.q0_mean**2

        # exact minimizer of the quadratic: even split over T+1 slots
        u_star = np.full(3, p.q0_mean / 4.0)
        best = schedule_cost(u_star)
        assert cost == pytest.approx(best, rel=1e-12)
        path = expected_inventory_path(p, gains)
        np.testing.assert_allclose(np.diff(path), -p.q0_mean / 4.0, rtol=1e-9)

    def test_inventory_path_decreases(self):
        p = stock_liquidation()
        gains = solve_riccati(ac_to_lqr(p)).gains
        path = expected_inventory_path(p, gains)
        assert path[0] == p.q0_mean
        assert np.all(np.diff(path) < 0)
        assert abs(path[-1]) < 0.2 * p.q0_mean

    def test_liquidation_cost_policy_independent_shift(self):
        # the conversion to objective units adds the same constant for every
        # policy, so cost orderings are preserved
        p = stock_liquidation()
        inst = ac_to_lqr(p)
        kstar = solve_riccati(inst).gains
        other = np.full((p.T, 1, 2), -0.1)
        shift1 = liquidation_cost(p, kstar) - exact_cost(inst, kstar)
        shift2 = liquidation_cost(p, other) - exact_cost(inst, other)
        assert shift1 == pytest.approx(shift2, rel=1e-12)


class TestBook:
    def flat_book(self, best=100.0, vol=50.0, levels=4, tick=1.0):
        return LobSnapshot(
            prices=best - tick * np.arange(levels), volumes=np.full(levels, vol)
        )

    def test_walk_the_book_values(self):
        snap = self.flat_book()
        assert walk_the_book(snap, 0) == 0.0
        assert walk_the_book(snap, 30) == 3000.0
        assert walk_the_book(snap, 50) == 5000.0
        # 50 @ 100 + 25 @ 99
        assert walk_the_book(snap, 75) == 5000.0 + 25 * 99.0
        assert walk_the_book(snap, 200) == 50 * (100 + 99 + 98 + 97)

    def test_walk_the_book_errors(self):
        snap = self.flat_book()
        with pytest.raises(InsufficientDepth):
            walk_the_book(snap, 201)
        with pytest.raises(ValueError):
            walk_the_book(snap, -1)
        bad = LobSnapshot(prices=[100.0, 99.0], volumes=[10.0, 0.0])
        with pytest.raises(ZeroQueue):
            walk_the_book(bad, 20)

    def test_csv_roundtrip(self, tmp_path):
        series = synthetic_lob(SyntheticBookConfig(T=6, levels=5), seed=3)
        path = tmp_path / "book.csv"
        write_lob_csv(path, series)
        back = read_lob_csv(path)
        assert back.tick == series.tick
        assert len(back.snapshots) == len(series.snapshots)
        for a, b in zip(series.snapshots, back.snapshots):
            np.testing.assert_array_equal(a.prices, b.prices)
            np.testing.assert_array_equal(a.volumes, b.volumes)

    def test_immediate_liquidation_zero_shortfall(self):
        series = synthetic_lob(SyntheticBookConfig(T=5, depth_mean=1000.0), seed=1)
        q0 = 800.0
        sched = np.array([q0, 0.0, 0.0, 0.0, 0.0])
        rec = simulate_lob(series, sched, phi_prime=0.0, q0=q0)
        assert rec.shortfall == pytest.approx(0.0, abs=1e-9)
        assert rec.holdings[-1] == 0.0

    def test_hold_everything_shortfall_formula(self):
        # deterministic flat book: selling nothing until the end costs the
        # inventory penalty at every step (prices never move)
        cfg = SyntheticBookConfig(T=3, levels=10, depth_mean=500.0, sigma_mid=0.0, random_depth=False)
        series = synthetic_lob(cfg, seed=0)
        q0, phi_p = 300.0, 2.0
        rec = simulate_lob(series, np.zeros(3), phi_prime=phi_p, q0=q0)
        # book identical at t=0 and t=T, so proceeds cancel the baseline
        assert rec.shortfall == pytest.approx(3 * phi_p * q0**2, rel=1e-12)

    def test_gain_strategy_clamps_buys(self):
        series = synthetic_lob(SyntheticBookConfig(T=4, depth_mean=2000.0), seed=2)
        gains = np.zeros((4, 1, 2))
        gains[:, 0, 1] = -0.5  # u = -K x with negative K2 sells half the inventory
        gains[1, 0, 1] = 0.3  # this slot would buy; must clamp to zero
        rec = simulate_lob(series, gains, phi_prime=1e-4, q0=400.0)
        assert rec.clamped == 1
        assert rec.trades[1] == 0.0
        assert rec.trades[0] == pytest.approx(200.0)
        assert rec.holdings[-1] == 0.0


class TestImpactEstimation:
    def test_exact_recovery(self):
        rng = make_rng(5)
        mfi = rng.normal(size=300) * 1e4
        gamma = 2.5e-6
        g, s = estimate_impact_params(gamma * mfi, mfi)
        assert g == pytest.approx(gamma, rel=1e-12)
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_noisy_recovery(self):
        rng = make_rng(6)
        n, gamma, sig = 20000, 2.5e-6, 0.05
        mfi = rng.normal(size=n) * 1e4
        noise = sig * rng.standard_normal(n)
        g, s = estimate_impact_params(gamma * mfi + noise, mfi)
        assert g == pytest.approx(gamma, rel=0.05)
        assert s == pytest.approx(sig, rel=0.05)

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesign):
            estimate_impact_params(np.ones(5), np.full(5, 3.0))

    def test_temporary_impact(self):
        assert estimate_temporary_impact(0.02, 1000.0) == pytest.approx(1e-5)
        with pytest.raises(ZeroQueue):
            estimate_temporary_impact(0.02, 0.0)
        with pytest.raises(ValueError):
            estimate_temporary_impact(0.0, 100.0)

    def test_stock_table_sane(self):
        for ticker, (beta, gamma, sigma) in STOCK_PARAMS.items():
            p = stock_liquidation(ticker)
            assert p.beta == beta and p.gamma == gamma and p.sigma == sigma
            assert p.delta > 0
