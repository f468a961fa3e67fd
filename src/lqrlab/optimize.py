"""The policy gradient descent loop (exact or sampled gradients, projected
or not), Armijo line search, and constraint sets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .core import LqrInstance, _closed_loop, _gradient_terms, _value_backup, exact_cost, solve_riccati
from .errors import Diverged, EmptySet, NotInSet, StepSizeUnderflow, ZeroOptimalCost

_MEMBER_TOL = 1e-9

# Armijo rungs per batched backup: on the exact-pg benchmark 97% of steps pass within 16
_LADDER_CHUNK = 16
_ETA_FLOOR = 1e-15  # the Armijo ladder's last rung; below it the search raises StepSizeUnderflow
_DIVERGENCE_FACTOR = 1e12  # a cost above this times max(|C(K0)|, 1) is a divergence


@dataclass(frozen=True)  # frozen, so a field cannot skip the checks below
class DescentConfig:
    eta: float
    iters: int
    line_search: bool = False
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    target_error: float | None = None  # stop when normalized error falls below

    def __post_init__(self):
        for name in ("eta", "armijo_c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0 < self.backtrack < 1:  # a factor of 1 or more never leaves the Armijo ladder
            raise ValueError(f"backtrack must be in (0, 1), got {self.backtrack!r}")
        if isinstance(self.iters, bool) or not isinstance(self.iters, Integral) or self.iters < 0:
            raise ValueError(f"iters must be an integer >= 0, got {self.iters!r}")
        if self.target_error is not None and not math.isfinite(self.target_error):
            raise ValueError(f"target_error must be finite, got {self.target_error!r}")


@dataclass
class DescentTrace:
    """Per-iteration records, one row per iterate plus a final row for the
    last iterate.  Every trace has TRACE_COLUMNS; a projected exact descent
    adds gradmap_sq, a sampled one m, r and est_grad_fro_norm."""

    columns: list[str]
    rows: list[list[float]] = field(default_factory=list)

    def append(self, *vals: float) -> None:
        self.rows.append([float(v) for v in vals])

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([r[j] for r in self.rows])


@dataclass(frozen=True)
class ProjectionSet:
    """Per-time constraint set on gains.

    kinds (for no constraint pass no set):
      "box":          lo <= K_t entries <= hi
      "liquidation":  k = 1, d = 2; per t the row (k1, k2) must satisfy
                      gamma_bar*k1 + k2 >= -1 + zeta, k1 <= 0, k2 <= 0.
    """

    kind: str
    lo: float = -np.inf
    hi: float = np.inf
    gamma_bar: float = 0.0
    zeta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("box", "liquidation"):
            raise ValueError(f"unknown constraint set kind {self.kind!r}; the kinds are 'box' and 'liquidation'")
        if self.kind == "box" and self.lo > self.hi:
            raise EmptySet("box has lo > hi")
        if self.kind == "liquidation":
            if self.zeta > 1.0:
                raise EmptySet("liquidation set requires zeta <= 1")
            if self.gamma_bar <= 0.0:
                raise EmptySet("liquidation set requires gamma_bar > 0")

    def contains(self, policy, tol: float = _MEMBER_TOL) -> bool:
        K = np.asarray(policy, dtype=float)
        if self.kind == "box":
            return bool(np.all(K >= self.lo - tol) and np.all(K <= self.hi + tol))
        k1, k2 = K[:, 0, 0], K[:, 0, 1]
        return bool(
            np.all(self.gamma_bar * k1 + k2 >= -1.0 + self.zeta - tol)
            and np.all(k1 <= tol)
            and np.all(k2 <= tol)
        )

    def project(self, policy) -> np.ndarray:
        K = np.asarray(policy, dtype=float)
        if self.kind == "box":
            return np.clip(K, self.lo, self.hi)
        if K.shape[1:] != (1, 2):
            raise ValueError("liquidation set applies to 1x2 gains")
        pts = K[:, 0, :]
        return _project_halfplane_triangle(pts, self.gamma_bar, self.zeta)[:, None, :]


def _project_halfplane_triangle(pts: np.ndarray, gamma_bar: float, zeta: float) -> np.ndarray:
    """Euclidean projection of (n, 2) points onto the triangle
    {g*x + y >= c, x <= 0, y <= 0} with c = zeta - 1 <= 0, g = gamma_bar > 0.

    Active-set enumeration over candidate points (input, three edge feet,
    three vertices); ties broken lexicographically (smaller x, then smaller y).
    """
    g, c = gamma_bar, zeta - 1.0
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[0]
    cands = np.empty((7, n, 2))
    cands[0] = pts
    # foot of perpendicular on the line g*x + y = c
    resid = (g * pts[:, 0] + pts[:, 1] - c) / (g * g + 1.0)
    cands[1] = pts - resid[:, None] * np.array([g, 1.0])
    cands[2] = np.stack([np.zeros(n), pts[:, 1]], axis=1)  # edge x = 0
    cands[3] = np.stack([pts[:, 0], np.zeros(n)], axis=1)  # edge y = 0
    cands[4] = np.array([0.0, 0.0])
    cands[5] = np.array([0.0, c])
    cands[6] = np.array([c / g, 0.0])
    tol = 1e-12 * (1.0 + np.abs(c))
    feas = (
        (g * cands[..., 0] + cands[..., 1] >= c - tol)
        & (cands[..., 0] <= tol)
        & (cands[..., 1] <= tol)
    )
    d2 = ((cands - pts[None]) ** 2).sum(axis=-1)
    d2 = np.where(feas, d2, np.inf)
    # lexicographic tie-break among near-minimal candidates
    best = d2.min(axis=0)
    close = d2 <= best[None] + 1e-30
    x_key = np.where(close, cands[..., 0], np.inf)
    y_key = np.where(close, cands[..., 1], np.inf)
    order = np.lexsort((y_key, x_key), axis=0)[0]
    out = cands[order, np.arange(n)]
    # clip exact zeros so membership holds without tolerance games
    out[:, 0] = np.minimum(out[:, 0], 0.0)
    out[:, 1] = np.minimum(out[:, 1], 0.0)
    # rounding in the foot/vertex formulas can leave g*x + y an ulp below c;
    # nudge the violated rows up (y first, then x) until membership is exact
    for _ in range(64):
        bad = g * out[:, 0] + out[:, 1] < c
        if not bad.any():
            break
        bump_y = bad & (out[:, 1] < 0.0)
        out[bump_y, 1] = np.nextafter(out[bump_y, 1], 0.0)
        bump_x = bad & ~bump_y
        out[bump_x, 0] = np.nextafter(out[bump_x, 0], 0.0)
    return out


def _nonzero_optimal_cost(instance: LqrInstance, optimal_cost: float | None = None) -> float:
    """C(K*), which normalizes errors; raises ZeroOptimalCost when it is ~ 0."""
    cstar = solve_riccati(instance).optimal_cost if optimal_cost is None else optimal_cost
    if abs(cstar) <= 1e-12:
        raise ZeroOptimalCost("optimal cost ~ 0; normalized error undefined")
    return cstar


def normalized_error(instance: LqrInstance, policy, *, optimal_cost: float | None = None) -> float:
    """(C(K) - C(K*)) / C(K*) against the Riccati solution."""
    cstar = _nonzero_optimal_cost(instance, optimal_cost)
    return (exact_cost(instance, policy) - cstar) / cstar


TRACE_COLUMNS = ["iter", "cost", "normalized_error", "grad_fro_norm", "eta"]


def _grad_norm(grads: np.ndarray) -> float:
    return float(np.sqrt((grads**2).sum()))


def run_exact_pg(instance: LqrInstance, policy0, cfg: DescentConfig):
    """Plain gradient descent on the gains with exact gradients."""
    return _descent(instance, policy0, cfg)


def run_exact_ppg(instance: LqrInstance, policy0, cfg: DescentConfig, constraint: ProjectionSet):
    """Projected gradient descent; trace gains a gradient-mapping norm column."""
    return _descent(instance, policy0, cfg, constraint)


def _evaluate(instance: LqrInstance | None, K: np.ndarray, cost_oracle):
    """(P, Sigma, trace cost) of K from one closed-loop pass, the oracle's cost
    if there is one; no P or Sigma and a nan cost without an instance."""
    if instance is None:
        return None, None, cost_oracle(K) if cost_oracle is not None else np.nan
    P, sig = _closed_loop(instance, K)
    return P, sig, cost_oracle(K) if cost_oracle is not None else _value_backup(instance, P).cost


def _descent(instance: LqrInstance | None, policy0, cfg: DescentConfig, projection: ProjectionSet | None = None, *,
             smoothing=None, estimate=None, cost_oracle=None):
    """The descent loop K <- Proj(K - eta g(K)) of every exact, projected and
    zeroth-order entry point.

    g is the exact gradient, built from the value matrices P and state
    moments Sigma that the loop carries for K (one closed-loop pass per
    iterate, or the Armijo ladder's), unless estimate(K, n) gives a sampled
    one at iteration n; a sampled trace then carries smoothing's samples m and
    radius r and the estimate's norm, and a projected exact trace the squared
    norm of the gradient mapping.  Armijo line search needs exact gradients.
    instance is None for an opaque simulator, whose trace has no exact
    gradient norm or normalized error, so a target_error raises ValueError.
    cost_oracle(K), if given, is the cost that the trace reports and that the
    divergence guard checks; it never steers a step.  With neither an
    instance nor an oracle the costs are nan and unguarded.
    """
    if estimate is not None and cfg.line_search:
        raise ValueError("line search needs exact gradients; sampled descent takes fixed steps")
    if projection is not None and not projection.contains(policy0):
        raise NotInSet("initial policy violates the constraint set")
    if instance is None and cfg.target_error is not None:
        raise ValueError("target_error needs an instance: the normalized error of an opaque simulator is unknown")
    cstar = _nonzero_optimal_cost(instance) if instance is not None else np.nan
    if estimate is not None:
        columns = ["m", "r", "est_grad_fro_norm"]
    else:
        columns = ["gradmap_sq"] if projection is not None else []
    trace = DescentTrace(columns=TRACE_COLUMNS + columns)
    extra = []
    K = np.array(policy0, dtype=float)
    P, sig, cost = _evaluate(instance, K, cost_oracle)
    guarded = instance is not None or cost_oracle is not None
    if guarded and not np.isfinite(cost):
        raise Diverged(f"initial cost {cost:g} is not finite")
    guard = _DIVERGENCE_FACTOR * max(abs(cost), 1.0) if guarded else np.inf
    for n in range(cfg.iters):
        grads = _gradient_terms(instance, K, P, sig) if instance is not None else None
        gnorm = _grad_norm(grads) if grads is not None else np.nan
        err = (cost - cstar) / cstar
        if estimate is not None:
            grads = estimate(K, n)
            extra = [smoothing.samples, smoothing.radius, _grad_norm(grads)]
        if cfg.line_search:
            eta, K_next, P, sig, cost_next = _armijo(instance, K, grads, cost, cfg, projection)
        else:
            eta = cfg.eta
            step = K - eta * grads
            K_next = projection.project(step) if projection is not None else step
            P, sig, cost_next = _evaluate(instance, K_next, cost_oracle)
        if estimate is None and projection is not None:
            gm = (K_next - K) / (2.0 * eta)
            extra = [float((gm**2).sum())]
        trace.append(n, cost, err, gnorm, eta, *extra)
        K, cost = K_next, cost_next
        if guarded and (not np.isfinite(cost) or abs(cost) > guard):
            raise Diverged(f"cost {cost:g} is not finite or exceeded the divergence guard at iteration {n}")
        if cfg.target_error is not None and (cost - cstar) / cstar <= cfg.target_error:
            break
    gnorm = _grad_norm(_gradient_terms(instance, K, P, sig)) if instance is not None else np.nan
    extra = [smoothing.samples, smoothing.radius, np.nan] if estimate is not None else [np.nan] * len(columns)
    trace.append(len(trace.rows), cost, (cost - cstar) / cstar, gnorm, cfg.eta, *extra)
    return K, trace


def _armijo(instance, K, grads, cost, cfg: DescentConfig, projection):
    """Backtracking line search over the ladder eta, eta * backtrack, ... down
    to _ETA_FLOOR.  Returns (eta, step, its value matrices P, its state moments
    Sigma, its cost) of the first rung with sufficient decrease.

    The ladder is built by repeated multiplication, as one-at-a-time
    backtracking builds it, and is projected and evaluated _LADDER_CHUNK rungs
    at a time by one batched closed-loop pass, whose costs equal per-rung
    exact_cost calls bit for bit and are tested in one vectorised comparison.
    """
    gsq = float((grads**2).sum())
    eta = cfg.eta
    while eta >= _ETA_FLOOR:
        etas = []
        while eta >= _ETA_FLOOR and len(etas) < _LADDER_CHUNK:
            etas.append(eta)
            eta *= cfg.backtrack
        rungs = np.array(etas)
        cands, decrease = K - rungs[:, None, None, None] * grads, gsq
        if projection is not None:
            cands = projection.project(cands.reshape(-1, *K.shape[1:])).reshape(cands.shape)
            # for projected steps require decrease against the gradient mapping
            decrease = np.array([float(((c - K) ** 2).sum()) / (4.0 * rung**2) for c, rung in zip(cands, etas)])
        P, sig = _closed_loop(instance, cands)
        costs = _value_backup(instance, P).cost
        passing = costs <= cost - cfg.armijo_c * rungs * decrease
        j = passing.argmax()
        if passing[j]:
            return etas[j], cands[j].copy(), P[j], sig[j], costs[j]
    raise StepSizeUnderflow(f"line search fell below {_ETA_FLOOR:g}")
