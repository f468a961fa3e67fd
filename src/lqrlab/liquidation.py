"""Optimal liquidation embedded as a noisy LQR, plus a limit-order-book
execution simulator and impact-parameter estimation.

State is (S_t, q_t): mid price and remaining inventory.  Selling u_t shares
moves the price permanently by gamma * u_t and costs a temporary impact
beta * u_t per share; with delta = beta - gamma/2 > 0 the expected-cost /
variance-penalized objective is a (possibly degenerate) LQR with

    A = I,  B = (-gamma, -1)',  Q_t = diag(eps, phi sigma^2),
    Q_T = diag(eps, delta + phi sigma^2),  R_t = delta.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    InitialStateModel,
    LqrInstance,
    NoiseModel,
    backup_value,
    exact_cost,
    make_rng,
    solve_riccati,
)
from .errors import DegenerateDesign, InsufficientDepth, NonPositiveDelta, ZeroQueue
from .optimize import ProjectionSet


@dataclass(frozen=True)
class AcParams:
    """Liquidation problem parameters.

    beta: temporary impact per share, gamma: permanent impact per share,
    sigma: per-period price volatility, phi: variance penalty (on price
    units; the quadratic inventory weight is phi * sigma^2), epsilon: small
    price-level regularizer making the LQR state cost positive definite.
    """

    beta: float
    gamma: float
    sigma: float
    phi: float
    epsilon: float
    T: int
    S0: float = 200.0
    q0_mean: float = 500.0
    q0_std: float = 1.0

    @property
    def delta(self) -> float:
        d = self.beta - self.gamma / 2.0
        if d <= 0.0:
            raise NonPositiveDelta(f"beta - gamma/2 = {d:g} <= 0")
        return d


def ac_to_lqr(p: AcParams) -> LqrInstance:
    """Embed the liquidation problem as a 2-state, 1-control LQR instance."""
    delta = p.delta
    A = np.eye(2)
    B = np.array([[-p.gamma], [-1.0]])
    qrun = np.diag([p.epsilon, p.phi * p.sigma**2])
    qterm = np.diag([p.epsilon, delta + p.phi * p.sigma**2])
    Q = np.concatenate([np.repeat(qrun[None], p.T, axis=0), qterm[None]])
    R = np.full((p.T, 1, 1), delta)
    noise = NoiseModel(kind="gaussian", sigma=p.sigma, factor=np.diag([1.0, 0.0]))
    init = InitialStateModel(
        kind="gaussian",
        mean=np.array([p.S0, p.q0_mean]),
        sigma=p.q0_std,
        factor=np.diag([0.0, 1.0]),
    )
    # running Q is only PSD when epsilon or phi vanishes; skip the PD check then
    validate = p.epsilon > 0.0 and p.phi * p.sigma**2 > 0.0
    return LqrInstance(A, B, Q, R, noise, init, validate=validate)


def liquidation_constraint(gamma_bar: float, zeta: float) -> ProjectionSet:
    """Gains (k1, k2) with gamma_bar*k1 + k2 >= -1 + zeta, k1 <= 0, k2 <= 0."""
    return ProjectionSet(kind="liquidation", gamma_bar=gamma_bar, zeta=zeta)


def liquidation_cost(p: AcParams, policy=None) -> float:
    """Objective in problem units: expected cost plus variance penalty,

        E[sum delta u_t^2 + delta q_T^2] + (gamma/2) E[q_0^2]
        + phi sigma^2 sum_{t=1}^{T} E[q_t^2] + eps sum_{t=0}^{T} E[S_t^2].

    Computed from the LQR evaluation, with the policy-independent constants
    (gamma/2) E[q_0^2] added and the spurious t = 0 inventory-variance term
    removed.
    """
    inst = ac_to_lqr(p)
    base = exact_cost(inst, solve_riccati(inst).gains if policy is None else policy)
    eq0sq = p.q0_mean**2 + p.q0_std**2
    return base - p.phi * p.sigma**2 * eq0sq + 0.5 * p.gamma * eq0sq


def almgren_chriss_reference(p: AcParams):
    """Optimal gains and objective of the eps = 0 limit (the classical
    mean-variance liquidation problem).  Returns (gains, cost)."""
    p0 = replace(p, epsilon=0.0)
    gains = solve_riccati(ac_to_lqr(p0)).gains
    return gains, liquidation_cost(p0, gains)


def expected_inventory_path(p: AcParams, gains) -> np.ndarray:
    """E[q_t] for t = 0..T under the closed loop (noise is mean zero)."""
    inst = ac_to_lqr(p)
    K = np.asarray(gains, dtype=float)
    x = np.array([p.S0, p.q0_mean])
    path = np.empty(p.T + 1)
    path[0] = x[1]
    for t in range(p.T):
        x = (inst.A - inst.B @ K[t]) @ x
        path[t + 1] = x[1]
    return path


# ---------------------------------------------------------------------------
# limit order book


@dataclass
class LobSnapshot:
    """Bid side of the book at one decision time, best price first."""

    prices: np.ndarray  # (levels,) descending
    volumes: np.ndarray  # (levels,) shares available at each price

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=float)
        self.volumes = np.asarray(self.volumes, dtype=float)

    @property
    def mid_proxy(self) -> float:
        return float(self.prices[0])


def walk_the_book(snap: LobSnapshot, u: float) -> float:
    """Proceeds r(u) from selling u shares into the visible bids, consuming
    levels best-first.  u = 0 returns 0; raises if depth is insufficient."""
    if u < 0:
        raise ValueError("order size must be nonnegative")
    if u == 0:
        return 0.0
    remaining = float(u)
    proceeds = 0.0
    for price, vol in zip(snap.prices, snap.volumes):
        if vol <= 0:
            raise ZeroQueue(f"non-positive queue {vol:g} at price {price:g}")
        take = min(remaining, float(vol))
        proceeds += take * float(price)
        remaining -= take
        if remaining <= 0:
            return proceeds
    raise InsufficientDepth(f"order {u:g} exceeds visible depth")


@dataclass
class LobSeries:
    """Book snapshots at decision times 0..T (T+1 snapshots), common tick."""

    snapshots: list
    tick: float


def write_lob_csv(path, series: LobSeries) -> None:
    """Columns: timestamp, level, bid_price, bid_volume; first line carries the tick."""
    with open(path, "w", newline="") as f:
        f.write(f"# tick = {series.tick!r}\n")
        w = csv.writer(f)
        w.writerow(["timestamp", "level", "bid_price", "bid_volume"])
        for ts, snap in enumerate(series.snapshots):
            for lvl, (pr, vol) in enumerate(zip(snap.prices, snap.volumes)):
                w.writerow([ts, lvl, repr(float(pr)), repr(float(vol))])


def read_lob_csv(path) -> LobSeries:
    """The series write_lob_csv writes; ValueError names the path and the
    fault: no "# tick = ..." first line, a malformed tick or row, no rows, or
    one snapshot only."""
    with open(path) as f:
        key, eq, tick = f.readline().partition("=")
        rows = list(csv.DictReader(f))
    if key.strip("# \t") != "tick" or not eq:
        raise ValueError(f"{path}: no '# tick = <tick>' first line")
    by_ts: dict[int, list] = {}
    try:
        tick = float(tick)
        for r in rows:
            by_ts.setdefault(int(r["timestamp"]), []).append((int(r["level"]), float(r["bid_price"]), float(r["bid_volume"])))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: malformed tick or row: {e!r}") from e
    if len(by_ts) < 2:
        raise ValueError(f"{path}: {'one snapshot' if by_ts else 'no rows'}, a series needs at least two snapshots")
    books = [sorted(by_ts[ts]) for ts in sorted(by_ts)]
    return LobSeries([LobSnapshot([p for _, p, _ in lv], [v for _, _, v in lv]) for lv in books], tick)


@dataclass(frozen=True)
class SyntheticBookConfig:
    """Random-walk mid price with queue regeneration at every step."""

    T: int
    levels: int = 10
    tick: float = 0.1
    depth_mean: float = 400.0
    mid0: float = 200.0
    sigma_mid: float = 0.1
    random_depth: bool = True

    def __post_init__(self):
        """ValueError naming the first field out of range."""
        for name in ("T", "levels"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"book.{name} must be an integer >= 1, got {n!r}")
        for name in ("tick", "depth_mean", "mid0", "sigma_mid"):
            x, positive = getattr(self, name), name != "sigma_mid"
            if not np.isfinite(x) or x < 0 or (positive and x == 0):
                raise ValueError(f"book.{name} must be finite and {'> 0' if positive else '>= 0'}, got {x!r}")


def synthetic_lob(cfg: SyntheticBookConfig, seed) -> LobSeries:
    rng = make_rng(seed)
    mid = cfg.mid0
    snaps = []
    for _ in range(cfg.T + 1):
        best = np.floor(mid / cfg.tick) * cfg.tick
        prices = best - cfg.tick * np.arange(cfg.levels)
        if cfg.random_depth:
            volumes = np.maximum(rng.poisson(cfg.depth_mean, cfg.levels), 1).astype(float)
        else:
            volumes = np.full(cfg.levels, cfg.depth_mean)
        snaps.append(LobSnapshot(prices=prices, volumes=volumes))
        mid += cfg.sigma_mid * rng.standard_normal()
    return LobSeries(snapshots=snaps, tick=cfg.tick)


@dataclass
class ExecutionRecord:
    trades: np.ndarray  # (T+1,) shares sold at each decision time (last = residual)
    proceeds: np.ndarray  # (T+1,) realized proceeds per trade
    holdings: np.ndarray  # (T+1,) post-trade inventory at t = 0..T
    shortfall: float
    clamped: int  # number of steps where a negative policy order was clamped to 0


def simulate_lob(series: LobSeries, strategy, phi_prime: float, q0: float) -> ExecutionRecord:
    """Execute a liquidation strategy against book snapshots.

    strategy is either an explicit schedule (length-T array of sell sizes) or
    a gain array (T, 1, 2) applied to (best bid, remaining inventory), with
    negative orders clamped to zero.  Whatever remains at time T is sold at
    the final snapshot.  Per-step cost is

        c_t(u) = phi_prime * (q_t - u)^2 - r_t(u)

    and the shortfall is sum_t c_t(u_t) + c_T(residual) - c_0(q0): the cost
    of the strategy relative to immediate liquidation of everything at the
    initial book.
    """
    T = len(series.snapshots) - 1
    strat = np.asarray(strategy, dtype=float)
    gains = strat.shape == (T, 1, 2)
    if not gains and strat.shape != (T,):
        raise ValueError(f"strategy must be a length-{T} schedule or ({T}, 1, 2) gains")
    q = float(q0)
    trades = np.empty(T + 1)
    proceeds = np.empty(T + 1)
    holdings = np.empty(T + 1)
    clamped = 0
    cost = 0.0
    for t in range(T):
        snap = series.snapshots[t]
        if gains:
            u = -float(strat[t, 0] @ np.array([snap.mid_proxy, q]))
        else:
            u = float(strat[t])
        if u < 0:
            u = 0.0
            clamped += 1
        u = min(u, q)
        r = walk_the_book(snap, u)
        q -= u
        trades[t], proceeds[t], holdings[t] = u, r, q
        cost += phi_prime * q * q - r
    r_final = walk_the_book(series.snapshots[T], q)
    trades[T], proceeds[T], holdings[T] = q, r_final, 0.0
    cost += -r_final
    baseline = -walk_the_book(series.snapshots[0], float(q0))
    return ExecutionRecord(trades=trades, proceeds=proceeds, holdings=holdings, shortfall=cost - baseline, clamped=clamped)


def relative_performance(record_a: ExecutionRecord, record_b: ExecutionRecord) -> float:
    """(IS_b - IS_a) / |IS_b|: positive when strategy a beats the benchmark b."""
    return (record_b.shortfall - record_a.shortfall) / abs(record_b.shortfall)


# ---------------------------------------------------------------------------
# parameter estimation


def estimate_impact_params(delta_s: np.ndarray, mfi: np.ndarray) -> tuple[float, float]:
    """Through-the-origin least squares of price changes on signed market
    flow imbalance: delta_s = gamma * mfi + noise.  Returns (gamma_hat,
    residual standard deviation)."""
    delta_s = np.asarray(delta_s, dtype=float)
    mfi = np.asarray(mfi, dtype=float)
    if delta_s.shape != mfi.shape or delta_s.ndim != 1 or delta_s.size < 2:
        raise ValueError("need matching 1-d arrays with at least two observations")
    if np.all(mfi == mfi[0]):
        raise DegenerateDesign("market flow imbalance has no variation")
    gamma_hat = float(mfi @ delta_s / (mfi @ mfi))
    resid = delta_s - gamma_hat * mfi
    sigma_hat = float(np.sqrt(resid @ resid / (resid.size - 1)))
    return gamma_hat, sigma_hat


def estimate_temporary_impact(spread: float, avg_queue: float) -> float:
    """Flat-book temporary impact beta = spread / (2 * depth per level)."""
    if avg_queue <= 0:
        raise ZeroQueue("average queue must be positive")
    if spread <= 0:
        raise ValueError("spread must be positive")
    return spread / (2.0 * avg_queue)
