"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every check states its threshold in the printed line.

The two-term cost identity C(K) = tr(Sigma0 P0) + sum_t tr(W P_{t+1}) holds
in expectation; path by path it differs from the realized cost by exactly the
noise-state cross term.  test_c3_identity_pathwise_two_term checks the
closed form against the second-moment cost, the per-trajectory remainder
against the cross term, and the sample mean of the two terms against the
cost.  test_c3_identity_pathwise_exact_and_expectation checks the exact
three-term form per trajectory and that the two-term residual has mean zero.
"""

import time

import numpy as np
import pytest

from lqrlab import (
    DescentConfig,
    LobSnapshot,
    ProjectionSet,
    SmoothingConfig,
    backup_value,
    covariance_profile,
    estimate_gradient,
    exact_cost,
    exact_gradient,
    liquidation_constraint,
    liquidation_cost,
    normalized_error,
    operator_decomposition,
    pathwise_cost_terms,
    run_exact_pg,
    run_modelfree_pg,
    run_modelfree_ppg,
    simulate_lob,
    simulate_trajectory,
    solve_riccati,
    synthetic_lob,
    walk_the_book,
)
from lqrlab.benchmarks import four_state_benchmark, scalar_benchmark, stock_liquidation
from lqrlab.core import spd_solve
from lqrlab.liquidation import ac_to_lqr, almgren_chriss_reference, SyntheticBookConfig
from lqrlab.optimize import _project_halfplane_triangle
from lqrlab.qlearn import greedy_policy_cost, make_qtable, q_learning_step

from conftest import error_terms, random_instance, random_policy


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Riccati oracle correctness


def scalar_riccati_oracle(a, b, q, r, T):
    """Independent scalar backward recursion (plain floats, no package code)."""
    p = q[T]
    gains, ps = [], [p]
    for t in range(T - 1, -1, -1):
        k = b * p * a / (r[t] + b * p * b)
        p = q[t] + k * r[t] * k + (a - b * k) * p * (a - b * k)
        gains.append(k)
        ps.append(p)
    return gains[::-1], ps[::-1]


def test_c1_riccati_oracles():
    t0 = time.time()
    import lqrlab

    # one step: A=B=Q=R=Q_T=1 gives K*_0 = 1/(1+1) ... = 0.5, P*_0 = 1.5
    one = lqrlab.constant_instance(
        np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), 1,
        lqrlab.NoiseModel("zero"), lqrlab.InitialStateModel("point", np.ones(1)),
    )
    sol1 = solve_riccati(one)
    err1 = max(abs(sol1.gains[0, 0, 0] - 0.5), abs(sol1.P[0, 0, 0] - 1.5))

    inst = scalar_benchmark()
    gains, ps = scalar_riccati_oracle(
        1.0, 0.2, [0.2] * 5 + [0.4], [0.1 * (t + 1) for t in range(5)], 5
    )
    sol5 = solve_riccati(inst)
    err5 = max(
        float(np.abs(sol5.gains[:, 0, 0] - gains).max()),
        float(np.abs(sol5.P[:, 0, 0] - ps).max()),
    )
    ok = err1 < 1e-12 and err5 < 1e-10
    report(
        "riccati-oracle",
        ok,
        f"one-step dev {err1:.2e} (<1e-12), five-step dev {err5:.2e} (<1e-10), {time.time() - t0:.2f}s (<1s)",
    )


# ---------------------------------------------------------------------------
# 2. exact gradient vs central finite differences


def test_c2_gradient_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        inst = random_instance(rng, d=int(rng.integers(1, 5)))
        K = random_policy(rng, inst)
        grads = exact_gradient(inst, K)
        h = 1e-6
        fd = np.empty_like(grads)
        for t in range(inst.T):
            for i in range(inst.k):
                for j in range(inst.d):
                    Kp, Km = K.copy(), K.copy()
                    Kp[t, i, j] += h
                    Km[t, i, j] -= h
                    fd[t, i, j] = (exact_cost(inst, Kp) - exact_cost(inst, Km)) / (2 * h)
        scale = np.abs(grads).max() + 1.0
        worst = max(worst, float(np.abs(grads - fd).max() / scale))
    ok = worst < 1e-5
    report(
        "gradient-finite-difference",
        ok,
        f"worst relative deviation {worst:.2e} (<1e-5) over 20 policies, {time.time() - t0:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 3. algebraic identity suite


def test_c3_identity_pathwise_two_term():
    # The two-term form C(K) = tr(Sigma0 P0) + sum_t tr(W P_{t+1}) is a
    # statement about expectations.  Checked in the three forms in which it
    # holds, on 1e4 noisy trajectories of the scalar benchmark at K = 0.3:
    # (a) backup_value's closed-form cost equals the second-moment cost
    #     sum_t tr((Q_t + K_t' R_t K_t) S_t) + tr(Q_T S_T) to 1e-9 relative;
    # (b) per trajectory, realized_cost - (x0' P0 x0 + sum_t w_t' P_{t+1} w_t)
    #     is exactly the dropped cross term 2 sum_t w_t' P_{t+1} (A - B K_t) x_t,
    #     to 1e-9 relative;
    # (c) the sample mean of the two terms matches the cost of (a) within
    #     4 standard errors.
    t0 = time.time()
    inst = scalar_benchmark()
    K = np.full((5, 1, 1), 0.3)
    bk = backup_value(inst, K)
    S = covariance_profile(inst, K).sigmas
    ref = sum(
        float(np.trace((inst.Q[t] + K[t].T @ inst.R[t] @ K[t]) @ S[t])) for t in range(inst.T)
    ) + float(np.trace(inst.Q[inst.T] @ S[inst.T]))
    closed_dev = abs(bk.cost - ref) / max(abs(ref), 1e-12)
    worst = 0.0
    two_term = np.empty(10_000)
    for i in range(10_000):
        traj = simulate_trajectory(inst, K, [21, i])
        head, quad, cross = pathwise_cost_terms(inst, K, traj, bk)
        rel = abs(traj.realized_cost - (head + quad) - cross) / max(abs(traj.realized_cost), 1e-12)
        worst = max(worst, rel)
        two_term[i] = head + quad
    se = two_term.std(ddof=1) / np.sqrt(two_term.size)
    z = (two_term.mean() - bk.cost) / se
    ok = closed_dev < 1e-9 and worst < 1e-9 and abs(z) < 4.0
    report(
        "identity-pathwise-two-term",
        ok,
        f"closed form vs second moments dev {closed_dev:.2e} (<1e-9); per-path residual minus "
        f"cross term worst dev {worst:.2e} (<1e-9); two-term sample mean z = {z:+.2f} (|z|<4) "
        f"over 1e4 trajectories, {time.time() - t0:.1f}s",
    )


def test_c3_identity_pathwise_exact_and_expectation():
    t0 = time.time()
    inst = scalar_benchmark()
    K = np.full((5, 1, 1), 0.3)
    bk = backup_value(inst, K)
    worst = 0.0
    resid = np.empty(10_000)
    totals = np.empty(10_000)
    for i in range(10_000):
        traj = simulate_trajectory(inst, K, [21, i])
        head, quad, cross = pathwise_cost_terms(inst, K, traj, bk)
        rel = abs(traj.realized_cost - (head + quad + cross)) / max(abs(traj.realized_cost), 1e-12)
        worst = max(worst, rel)
        resid[i] = traj.realized_cost - (head + quad)
        totals[i] = traj.realized_cost
    # with the cross term the identity is exact; without it the residual is
    # mean zero but not pointwise zero
    mean_se = resid.std(ddof=1) / np.sqrt(resid.size)
    ok = worst < 1e-9 and abs(resid.mean()) < 4 * mean_se and resid.std() > 1e-3
    report(
        "identity-pathwise-exact",
        ok,
        f"three-term worst dev {worst:.2e} (<1e-9); two-term residual mean {resid.mean():+.1e} "
        f"(|.|<4se={4 * mean_se:.1e}) with per-path std {resid.std():.2e}, {time.time() - t0:.1f}s",
    )


def test_c3_identity_almost_smoothness():
    # C(K') - C(K) = sum_t [ 2 tr(S'_t (K'-K)' E_t)
    #                        + tr(S'_t (K'-K)' (R_t + B' P_{t+1} B) (K'-K)) ]
    # with S'_t the second moments under K' and E_t, P under K
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        inst = random_instance(rng)
        K = random_policy(rng, inst)
        K2 = K + random_policy(rng, inst, scale=0.1)
        bk = backup_value(inst, K)
        E = error_terms(inst, K, bk.P)
        prof2 = covariance_profile(inst, K2)
        rhs = 0.0
        for t in range(inst.T):
            dK = K2[t] - K[t]
            H = inst.R[t] + inst.B.T @ bk.P[t + 1] @ inst.B
            rhs += 2.0 * np.trace(prof2.sigmas[t] @ dK.T @ E[t]) + np.trace(
                prof2.sigmas[t] @ dK.T @ H @ dK
            )
        lhs = exact_cost(inst, K2) - exact_cost(inst, K)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-9))
    ok = worst < 1e-8
    report(
        "identity-almost-smoothness",
        ok,
        f"worst relative deviation {worst:.2e} (<1e-8) over 100 pairs, {time.time() - t0:.1f}s",
    )


def test_c3_identity_covariance_decomposition():
    t0 = time.time()
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(50):
        inst = random_instance(rng)
        K = random_policy(rng, inst)
        prop, injected = operator_decomposition(inst, K)
        total = covariance_profile(inst, K).aggregate
        worst = max(worst, float(np.abs(total - (prop + injected)).max() / (np.abs(total).max() + 1.0)))
    ok = worst < 1e-9
    report(
        "identity-covariance-decomposition",
        ok,
        f"worst deviation {worst:.2e} (<1e-9) over 50 instances, {time.time() - t0:.1f}s (<30s for the suite)",
    )


# ---------------------------------------------------------------------------
# 4. inequality suite


def test_c4_inequalities():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n_viol = 0
    details = []
    for idx in range(200):
        inst = random_instance(rng)
        K = random_policy(rng, inst)
        T = inst.T
        sol = solve_riccati(inst)
        cstar = sol.optimal_cost
        cost = exact_cost(inst, K)
        gap = cost - cstar
        grads, bk, prof = exact_gradient(inst, K), backup_value(inst, K), covariance_profile(inst, K)
        E = error_terms(inst, K, bk.P)
        sx = prof.sigma_x
        sR = min(np.linalg.eigvalsh(inst.R[t])[0] for t in range(T))
        sQ = min(np.linalg.eigvalsh(inst.Q[t])[0] for t in range(T + 1))
        prof_star = covariance_profile(inst, sol.gains)
        Sstar = float(np.linalg.norm(prof_star.aggregate, 2))

        # gradient-dominance sandwich; the lower bound's state-excitation
        # floor comes from the one-step improved policy
        Kp = np.array(
            [K[t] - spd_solve(inst.R[t] + inst.B.T @ bk.P[t + 1] @ inst.B, E[t]) for t in range(T)]
        )
        sxp = covariance_profile(inst, Kp).sigma_x
        lo = sxp * sum(
            np.trace(E[t].T @ E[t])
            / np.linalg.norm(inst.R[t] + inst.B.T @ bk.P[t + 1] @ inst.B, 2)
            for t in range(T)
        )
        up = Sstar / (4 * sx**2 * sR) * sum(np.trace(grads[t].T @ grads[t]) for t in range(T))
        slack = 1e-9 * (abs(gap) + 1.0)
        if not (lo <= gap + slack and gap <= up + slack):
            n_viol += 1
            details.append(f"sandwich@{idx}")
            continue

        # value and covariance norm bounds
        pmax = max(np.linalg.norm(bk.P[t], 2) for t in range(T + 1))
        if pmax > cost / sx + slack or np.linalg.norm(prof.aggregate, 2) > cost / sQ + slack:
            n_viol += 1
            details.append(f"norm@{idx}")
            continue

        # one-step contraction for small enough step sizes
        eta, ok = 1e-2, False
        while eta >= 1e-12:
            c2 = exact_cost(inst, K - eta * grads)
            pred = 1.0 - 2.0 * eta * sR * sx**2 / Sstar
            if (c2 - cstar) <= pred * gap + 1e-10 * abs(gap):
                ok = True
                break
            eta /= 2
        if not ok:
            n_viol += 1
            details.append(f"contraction@{idx}")
    ok = n_viol == 0
    report(
        "inequality-suite",
        ok,
        f"{n_viol} violations (must be 0) over 200 instances"
        + (f" [{', '.join(details[:5])}]" if details else "")
        + f", {time.time() - t0:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 5. exact policy gradient on the 4-state benchmark


def test_c5_four_state_exact_pg():
    t0 = time.time()
    inst = four_state_benchmark()
    cfg = DescentConfig(eta=5e-4, iters=80)
    errs = []
    for _seed in range(50):  # exact gradients: every run is identical
        K0 = np.full((10, 2, 4), 0.05)
        _, trace = run_exact_pg(inst, K0, cfg)
        errs.append(trace.column("normalized_error")[-1])
    med = float(np.median(errs))
    ok = med < 1e-2
    report(
        "four-state-exact-pg",
        ok,
        f"median normalized error at iteration 80 = {med:.5f} (<1e-2) over 50 runs, {time.time() - t0:.1f}s (<2min)",
    )


# ---------------------------------------------------------------------------
# 6. model-free projected runs on the liquidation problem


def test_c6_liquidation_modelfree_ppg():
    t0 = time.time()
    inst = ac_to_lqr(stock_liquidation("AAPL"))
    S = liquidation_constraint(gamma_bar=5e-5, zeta=1e-12)
    cfg = DescentConfig(eta=0.05, iters=50, target_error=1e-2)
    sm = SmoothingConfig(radius=0.6, samples=200)
    wins = 0
    for seed in range(20):
        K0 = np.full((10, 1, 2), -0.2)
        _, trace = run_modelfree_ppg(inst, K0, cfg, sm, seed, S)
        if trace.column("normalized_error").min() < 1e-2:
            wins += 1
    ok = wins >= 16
    report(
        "liquidation-modelfree-ppg",
        ok,
        f"{wins}/20 runs reached normalized error <1e-2 within 50 iterations (need >=16), {time.time() - t0:.0f}s (<10min)",
    )


# ---------------------------------------------------------------------------
# 7. zeroth-order estimator consistency


def test_c7_estimator_consistency():
    t0 = time.time()
    inst = scalar_benchmark()
    K = np.full((5, 1, 1), 0.3)
    exact = exact_gradient(inst, K)

    est = estimate_gradient(inst, K, SmoothingConfig(0.05, 100_000), seed=11)
    err_abs = float(np.linalg.norm((est.grads - exact).ravel()))

    # doubling ladder in the sampling-noise regime; each rung averages the
    # error over 4 independent estimates
    ms = [625, 1250, 2500, 5000, 10_000, 20_000]
    means = []
    for j, m in enumerate(ms):
        errs = [
            float(np.linalg.norm((estimate_gradient(inst, K, SmoothingConfig(0.05, m), seed=1000 + 10 * j + rep).grads - exact).ravel()))
            for rep in range(4)
        ]
        means.append(float(np.mean(errs)))
    inversions = int(np.sum(np.diff(means) > 0))
    ok = err_abs < 0.05 and inversions <= 1
    report(
        "estimator-consistency",
        ok,
        f"|ghat-grad| = {err_abs:.4f} (<0.05) at m=1e5; ladder means over 5 doublings "
        f"{[round(v, 4) for v in means]} with {inversions} inversion(s) (<=1), {time.time() - t0:.0f}s (<5min)",
    )


# ---------------------------------------------------------------------------
# 8. projection correctness


def test_c8_projection():
    t0 = time.time()
    S = liquidation_constraint(gamma_bar=5e-5, zeta=1e-12)
    rng = np.random.default_rng(88)

    pts = rng.normal(scale=2.0, size=(10_000, 1, 2))
    proj = S.project(pts)
    member = S.contains(proj, tol=0.0)

    # first-order optimality against random feasible competitors
    comp = _project_halfplane_triangle(rng.normal(scale=2.0, size=(100, 2)), 5e-5, 1e-12)
    worst_inner = np.inf
    for p, q in zip(pts[:100, 0, :], proj[:100, 0, :]):
        inner = ((comp - q[None]) * (q - p)[None]).sum(axis=1)
        worst_inner = min(worst_inner, float(inner.min()))

    a = rng.normal(scale=2.0, size=(10_000, 1, 2))
    b = rng.normal(scale=2.0, size=(10_000, 1, 2))
    da = np.linalg.norm((S.project(a) - S.project(b)).reshape(-1, 2), axis=1)
    db = np.linalg.norm((a - b).reshape(-1, 2), axis=1)
    nonexp = float((da - db).max())

    ok = member and worst_inner >= -1e-12 and nonexp <= 1e-12
    report(
        "projection-correctness",
        ok,
        f"membership exact: {member}; worst optimality inner product {worst_inner:+.1e} (>=-1e-12); "
        f"worst expansion {nonexp:+.1e} (<=1e-12), {time.time() - t0:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# 9. execution simulator


def test_c9_execution_simulator():
    t0 = time.time()
    snap = LobSnapshot(prices=[200.1, 200.0, 199.9], volumes=[397.0, 412.0, 300.0])
    revenue = walk_the_book(snap, 1000)
    exact = revenue == 397 * 200.1 + 412 * 200.0 + 191 * 199.9 and abs(revenue - 200020.6) < 1e-9

    series = synthetic_lob(
        SyntheticBookConfig(T=5, depth_mean=1500.0, sigma_mid=0.0, random_depth=False), seed=0
    )
    rec = simulate_lob(series, np.array([1000.0, 0, 0, 0, 0]), phi_prime=1.0, q0=1000.0)
    is_zero = abs(rec.shortfall) < 1e-9

    ok = exact and is_zero
    report(
        "execution-simulator",
        ok,
        f"walk-the-book proceeds {revenue!r} (= 200020.6); immediate-liquidation shortfall "
        f"{rec.shortfall:+.1e} (= 0), {time.time() - t0:.2f}s (<1s)",
    )


# ---------------------------------------------------------------------------
# 10. regularizer closeness to the classical liquidation optimum


def test_c10_regularizer_closeness():
    t0 = time.time()
    p = stock_liquidation("AAPL", epsilon=1e-8)
    c_lqr = liquidation_cost(p)
    _, c_ac = almgren_chriss_reference(p)
    rel = abs(c_lqr - c_ac) / abs(c_ac)
    ok = rel < 0.01
    report(
        "regularizer-closeness",
        ok,
        f"relative objective gap {rel:.5f} (<0.01) at epsilon=1e-8, {time.time() - t0:.2f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 11. Q-learning baseline


def test_c11_qlearning_convergence_budget():
    t0 = time.time()
    inst = scalar_benchmark()
    cstar = solve_riccati(inst).optimal_cost
    table = make_qtable(inst, 100, 100)
    for j in range(1500):
        table = q_learning_step(table, inst, 0.1, [77, j])
    for j in range(1500):
        table = q_learning_step(table, inst, 0.1 / (1.0 + 0.01 * j), [77, 1500 + j])
    cost = greedy_policy_cost(table, inst, 200_000, [77, 3000])
    rel = (cost - cstar) / cstar
    ok = rel < 0.10
    report(
        "qlearning-convergence",
        ok,
        f"greedy cost {rel * 100:.1f}% above optimal (<10%) after 3000 sweeps on a 100x100 grid, "
        f"{time.time() - t0:.0f}s (<10min with the comparison)",
    )


def test_c11_pg_beats_qlearning_matched_budget():
    # budget 5e5 sampled transitions each: Q-learning gets 10 full sweeps of
    # the 100x100x5 table; policy gradient gets 300 iterations at m=50
    # single-trajectory rollouts per slot (75k trajectories of 5 transitions)
    t0 = time.time()
    inst = scalar_benchmark()
    cstar = solve_riccati(inst).optimal_cost
    wins = 0
    results = []
    for seed in range(10):
        table = make_qtable(inst, 100, 100)
        for j in range(10):
            table = q_learning_step(table, inst, 0.1, [seed, j])
        ql_err = (greedy_policy_cost(table, inst, 200_000, [seed, 10]) - cstar) / cstar

        K0 = np.zeros((5, 1, 1))
        cfg = DescentConfig(eta=0.2, iters=300)
        K, _ = run_modelfree_pg(inst, K0, cfg, SmoothingConfig(radius=0.1, samples=50), seed)
        pg_err = normalized_error(inst, K, optimal_cost=cstar)
        results.append((pg_err, ql_err))
        wins += pg_err < ql_err
    ok = wins >= 7
    report(
        "pg-vs-qlearning",
        ok,
        f"policy gradient beat Q-learning in {wins}/10 seeds (need >=7) at a 5e5-sample budget; "
        f"median errors pg={np.median([r[0] for r in results]):.3f} ql={np.median([r[1] for r in results]):.3f}, "
        f"{time.time() - t0:.0f}s (<10min)",
    )
