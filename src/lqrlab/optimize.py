"""The policy gradient descent loop (exact or sampled gradients, projected
or not), Armijo line search, and constraint sets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _MAX, LqrInstance, _closed_loop, _gains, _gradient_terms, _number, _value_backup, exact_cost, solve_riccati
from .errors import Diverged, EmptySet, NotInSet, StepSizeUnderflow, ZeroOptimalCost

_MEMBER_TOL = 1e-9

# Armijo rungs per later closed-loop pass of a search, a run's first search's first pass,
# and the most any pass takes: on the exact-pg benchmark 97% of steps pass within 16
_LADDER_CHUNK = 16
# rungs a search's first batch runs past the last accepted one: of 8,870 exact-pg searches
# (600 units, seed 3) 98.2% accepted at most 2 rungs deeper (median rung 7); margins 1-4 took
# 9,374, 9,036, 8,932, 8,895 passes of 90.9k, 93.8k, 100.5k, 108.2k rungs with no cap at
# _LADDER_CHUNK (9,285 of 96.4k with it), at 64 us + 0.6 us a rung per pass on a small random
# instance, 170 us + 10 us a rung on the 4-state one
_DEPTH_MARGIN = 2
# iterates per batched pass that fills a sampled trace's exact gradient norms; 128 ran
# as fast as 32, 64 or 256 on the scalar, liquidation and 4-state benchmarks
_NORM_CHUNK = 128
_ETA_FLOOR = 1e-15  # the Armijo ladder's last rung; below it the search raises StepSizeUnderflow
_ARMIJO_C = 1e-4  # a step passes when its cost falls by c * eta * the squared (gradient-mapping) norm
_BACKTRACK = 0.5  # each rung of the Armijo ladder is the last one times this factor
_DIVERGENCE_FACTOR = 1e12  # a cost above this times max(|C(K0)|, 1) is a divergence


@dataclass(frozen=True)  # frozen, so a field cannot skip the checks below
class DescentConfig:
    eta: float
    iters: int
    line_search: bool = False
    target_error: float | None = None  # stop when normalized error falls below

    def __post_init__(self):
        _number(self.eta, "eta", 0, above=True)
        _number(self.iters, "iters", 0, whole=True)
        if not isinstance(self.line_search, (bool, np.bool_)):
            raise ValueError(f"line_search must be true or false, got {self.line_search!r}")
        if self.target_error is not None:
            _number(self.target_error, "target_error")


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
        for name, bound in (("lo", np.inf), ("hi", np.inf), ("gamma_bar", _MAX), ("zeta", _MAX)):  # a box may be unbounded
            _number(getattr(self, name), f"constraint.{name}", -bound, bound)
        if self.kind == "box" and self.lo > self.hi:
            raise EmptySet("box has lo > hi")
        if self.kind == "liquidation":
            if self.zeta > 1.0:
                raise EmptySet("liquidation set requires zeta <= 1")
            if self.gamma_bar <= 0.0:
                raise EmptySet("liquidation set requires gamma_bar > 0")

    def contains(self, policy) -> bool:
        """Membership up to _MEMBER_TOL; a liquidation set raises ValueError on gains that are not 1x2."""
        K = np.asarray(policy, dtype=float)
        if self.kind == "box":
            return bool(np.all(K >= self.lo - _MEMBER_TOL) and np.all(K <= self.hi + _MEMBER_TOL))
        k1, k2 = _liquidation_rows(K).T
        return bool(
            np.all(self.gamma_bar * k1 + k2 >= -1.0 + self.zeta - _MEMBER_TOL)
            and np.all(k1 <= _MEMBER_TOL)
            and np.all(k2 <= _MEMBER_TOL)
        )

    def project(self, policy) -> np.ndarray:
        """The Euclidean projection of n gains (n, k, d), one per gain, in a new
        array: a box clips each entry; a liquidation set keeps a row in the set
        as it is and moves any other onto its nearest edge, exactly into the set."""
        K = np.asarray(policy, dtype=float)
        if self.kind == "box":
            return np.clip(K, self.lo, self.hi)
        return _project_halfplane_triangle(_liquidation_rows(K), self.gamma_bar, self.zeta)[:, None, :]


def _liquidation_rows(K: np.ndarray) -> np.ndarray:
    """The (n, 2) rows (k1, k2) of n gains (n, 1, 2) of a liquidation set, else ValueError."""
    if K.shape[1:] != (1, 2):
        raise ValueError(f"liquidation set applies to 1x2 gains, got gains of shape {K.shape[1:]}")
    return K[:, 0, :]


def _project_halfplane_triangle(pts: np.ndarray, gamma_bar: float, zeta: float) -> np.ndarray:
    """Euclidean projection of (n, 2) points onto the triangle
    {g*x + y >= c, x <= 0, y <= 0} with c = zeta - 1 <= 0, g = gamma_bar > 0,
    in a new array.  A point inside (by the three inequalities, with no
    tolerance) is its own projection; any other point's is its projection
    onto the nearest edge, the foot of the perpendicular clipped to the edge.
    The results lie in the set with no tolerance."""
    g, c = gamma_bar, zeta - 1.0
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts.T
    inside = (x <= 0.0) & (y <= 0.0) & (g * x + y >= c)
    if inside.all():
        return pts.copy()
    zero = np.zeros_like(x)
    # x of the perpendicular foot on g*x + y = c, clipped to the edge; the edge's y is
    # worked out from it, as the foot's own y loses its digits to cancellation far away
    lx = np.clip(x - (g * x + y - c) / (g * g + 1.0) * g, c / g, 0.0)
    edges = np.stack([np.stack([zero, np.clip(y, c, 0.0)], axis=-1),  # x = 0
                      np.stack([np.clip(x, c / g, 0.0), zero], axis=-1),  # y = 0
                      np.stack([lx, np.minimum(c - g * lx, 0.0)], axis=-1)])  # g*x + y = c
    # no angle of the triangle is obtuse, so the nearest edge is one whose constraint the
    # point breaks, and where it breaks two, the first's clipped foot is their vertex;
    # comparing rounded distances instead can take a vertex sqrt(eps) * |p| off the projection
    nearest = edges[np.where(x > 0.0, 0, np.where(y > 0.0, 1, 2)), np.arange(len(pts))]
    out = np.where(inside[:, None], pts, nearest)
    # rounding in c / g and c - g * lx can leave g*x + y an ulp below c;
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


def _nonzero_optimal_cost(instance: LqrInstance) -> float:
    """C(K*), which normalizes errors; raises ZeroOptimalCost when it is ~ 0."""
    cstar = solve_riccati(instance).optimal_cost
    if abs(cstar) <= 1e-12:
        raise ZeroOptimalCost("optimal cost ~ 0; normalized error undefined")
    return cstar


def normalized_error(instance: LqrInstance, policy) -> float:
    """(C(K) - C(K*)) / C(K*) against the Riccati solution."""
    cstar = _nonzero_optimal_cost(instance)
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


def _evaluate(instance: LqrInstance | None, K: np.ndarray, cost_oracle, moments: bool = True):
    """(P, Sigma, trace cost) of K from one closed-loop pass, the oracle's cost
    if there is one; without moments only the cost, by the value chain alone if
    no oracle gives it.  No P or Sigma and a nan cost without an instance."""
    if instance is None or not moments and cost_oracle is not None:
        return None, None, cost_oracle(K) if cost_oracle is not None else np.nan
    P, sig = _closed_loop(instance, K, moments=moments)
    return P, sig, cost_oracle(K) if cost_oracle is not None else _value_backup(instance, P).cost


def _fill_grad_norms(instance: LqrInstance, trace: DescentTrace, iterates: list) -> None:
    """Set row i's grad_fro_norm to iterate i's, by one closed-loop pass per _NORM_CHUNK
    iterates: a slice of a batch equals the per-policy pass bit for bit."""
    j = trace.columns.index("grad_fro_norm")
    for lo in range(0, len(iterates), _NORM_CHUNK):
        K = np.stack(iterates[lo:lo + _NORM_CHUNK])
        for row, grads in zip(trace.rows[lo:], _gradient_terms(instance, K, *_closed_loop(instance, K))):
            row[j] = _grad_norm(grads)


def _descent(instance: LqrInstance | None, policy0, cfg: DescentConfig, projection: ProjectionSet | None = None, *,
             handle=None, smoothing=None, estimate=None, cost_oracle=None):
    """The descent loop K <- Proj(K - eta g(K)) of every exact, projected and
    zeroth-order entry point.

    g is the exact gradient, built from the value matrices P and state
    moments Sigma that the loop carries for K (one closed-loop pass per
    iterate, or the Armijo ladder's), unless estimate(K, n) gives a sampled
    one at iteration n; a sampled trace then carries smoothing's samples m and
    radius r and the estimate's norm, and a projected exact trace the squared
    norm of the gradient mapping.  Armijo line search needs exact gradients.
    A sampled descent evaluates only each iterate's cost in the loop, and
    fills the exact gradient norms after it (_fill_grad_norms).
    instance is None for an opaque simulator, whose trace has no exact
    gradient norm or normalized error, so a target_error raises ValueError.
    policy0 must have the gains' shape (T, k, d) of the simulator handle of a
    sampled descent, else of the instance (ValueError naming policy).
    cost_oracle(K), if given, is the cost that the trace reports and that the
    divergence guard checks; it never steers a step.  With neither an
    instance nor an oracle the costs are nan and unguarded.
    """
    K = _gains(np.array(policy0, dtype=float), handle if handle is not None else instance)
    sampled = estimate is not None
    if sampled and cfg.line_search:
        raise ValueError("line search needs exact gradients; sampled descent takes fixed steps")
    if projection is not None and not projection.contains(K):
        raise NotInSet("initial policy violates the constraint set")
    if instance is None and cfg.target_error is not None:
        raise ValueError("target_error needs an instance: the normalized error of an opaque simulator is unknown")
    cstar = _nonzero_optimal_cost(instance) if instance is not None else np.nan
    if sampled:
        columns = ["m", "r", "est_grad_fro_norm"]
    else:
        columns = ["gradmap_sq"] if projection is not None else []
    trace = DescentTrace(columns=TRACE_COLUMNS + columns)
    extra = []
    P, sig, cost = _evaluate(instance, K, cost_oracle, moments=not sampled)
    iterates = [K]
    guarded = instance is not None or cost_oracle is not None
    if guarded and not np.isfinite(cost):
        raise Diverged(f"initial cost {cost:g} is not finite")
    guard = _DIVERGENCE_FACTOR * max(abs(cost), 1.0) if guarded else np.inf
    first = _LADDER_CHUNK  # rungs in a search's first batch
    for n in range(cfg.iters):
        err = (cost - cstar) / cstar
        grads = estimate(K, n) if sampled else _gradient_terms(instance, K, P, sig)
        if sampled:
            extra = [smoothing.samples, smoothing.radius, _grad_norm(grads)]
        if cfg.line_search:
            eta, K_next, P, sig, cost_next = _armijo(instance, K, grads, cost, cfg, projection, first)
            # the accepted depth is exact, as each rung halves the last
            first = min(round(math.log2(cfg.eta) - math.log2(eta)) + 1 + _DEPTH_MARGIN, _LADDER_CHUNK)
        else:
            eta = cfg.eta
            step = K - eta * grads
            K_next = projection.project(step) if projection is not None else step
            P, sig, cost_next = _evaluate(instance, K_next, cost_oracle, moments=not sampled)
        if not sampled and projection is not None:
            gm = (K_next - K) / (2.0 * eta)
            extra = [float((gm**2).sum())]
        trace.append(n, cost, err, np.nan if sampled else _grad_norm(grads), eta, *extra)
        K, cost = K_next, cost_next
        iterates.append(K)
        if guarded and (not np.isfinite(cost) or abs(cost) > guard):
            raise Diverged(f"cost {cost:g} is not finite or exceeded the divergence guard at iteration {n}")
        if cfg.target_error is not None and (cost - cstar) / cstar <= cfg.target_error:
            break
    gnorm = np.nan if sampled else _grad_norm(_gradient_terms(instance, K, P, sig))
    extra = [smoothing.samples, smoothing.radius, np.nan] if sampled else [np.nan] * len(columns)
    trace.append(len(trace.rows), cost, (cost - cstar) / cstar, gnorm, cfg.eta, *extra)
    if sampled and instance is not None:
        _fill_grad_norms(instance, trace, iterates)
    return K, trace


def _armijo(instance, K, grads, cost, cfg: DescentConfig, projection, first: int):
    """Backtracking line search over the ladder eta, eta * _BACKTRACK, ...
    down to _ETA_FLOOR, with Armijo's constant _ARMIJO_C.  Returns (eta,
    step, its value matrices P, its state moments Sigma, its cost) of the
    first rung with sufficient decrease.

    The ladder is built by repeated multiplication, as one-at-a-time
    backtracking builds it, and is projected and evaluated in batches by one
    closed-loop pass each, whose costs equal per-rung exact_cost calls bit for
    bit at any batch size and are tested in one vectorised comparison.  The
    first batch holds `first` rungs (the descent passes the last search's
    accepted depth + 1 + _DEPTH_MARGIN, at most _LADDER_CHUNK, and
    _LADDER_CHUNK in a run's first search), every later one _LADDER_CHUNK.
    """
    gsq = float((grads**2).sum())
    eta, chunk = cfg.eta, first
    while eta >= _ETA_FLOOR:
        etas = []
        while eta >= _ETA_FLOOR and len(etas) < chunk:
            etas.append(eta)
            eta *= _BACKTRACK
        chunk = _LADDER_CHUNK
        rungs = np.array(etas)
        cands, decrease = K - rungs[:, None, None, None] * grads, gsq
        if projection is not None:
            cands = projection.project(cands.reshape(-1, *K.shape[1:])).reshape(cands.shape)
            # for projected steps require decrease against the gradient mapping; a float64 rung's
            # square is Python's bit for bit, but inf, not OverflowError, past 1.3e154
            decrease = np.array([float(((c - K) ** 2).sum()) / (4.0 * rung**2) for c, rung in zip(cands, rungs)])
        P, sig = _closed_loop(instance, cands)
        costs = _value_backup(instance, P).cost
        passing = (costs <= cost - _ARMIJO_C * rungs * decrease) & (costs > -np.inf)  # a cost of -inf overflowed
        j = passing.argmax()
        if passing[j]:
            return etas[j], cands[j].copy(), P[j], sig[j], costs[j]
    raise StepSizeUnderflow(f"line search fell below {_ETA_FLOOR:g}")
