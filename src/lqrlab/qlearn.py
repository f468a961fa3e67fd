"""Tabular Q-learning baseline for scalar (d = k = 1) finite-horizon
instances on uniform state/action grids over [-1, 1].

One sweep updates every (t, x, u) cell from a sampled transition,
backward in t so the freshest next-layer values are used:

    q_t(x, u) <- (1 - lr) q_t(x, u) + lr [c_t(x, u) + min_u' q_{t+1}(x', u')]

with x' = A x + B u + w snapped to the nearest grid point (clamped at the
boundary, occurrences counted).  The terminal layer is fixed at x^2 Q_T.
A sweep draws one standard normal of its stream per cell and layer, and
greedy_policy_cost one per rollout for the start state and each step, none
for a point start or zero noise (core.standard_draw; a uniform kind maps
each normal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LqrInstance, make_rng, standard_draw


def _scalars(instance: LqrInstance):
    if instance.d != 1 or instance.k != 1:
        raise ValueError("Q-learning baseline needs a scalar instance")
    a = float(instance.A[0, 0])
    b = float(instance.B[0, 0])
    q = instance.Q[:, 0, 0]
    r = instance.R[:, 0, 0]
    return a, b, q, r


def _noise(instance: LqrInstance, rng, shape) -> np.ndarray:
    """Scalar noise of the given shape from the next standard normals of
    rng, one per entry, mapped through the noise model."""
    return instance.noise.scale(standard_draw(instance.noise.kind, rng, (*shape, 1)))[..., 0]


@dataclass
class QTable:
    x_grid: np.ndarray  # (n_s,) bin centers
    u_grid: np.ndarray  # (n_a,)
    q: np.ndarray  # (T+1, n_s, n_a)
    clamp_count: int = 0

    def snap(self, x: np.ndarray) -> np.ndarray:
        """Nearest-bin indices, clamped to the grid range."""
        n = self.x_grid.size
        h = self.x_grid[1] - self.x_grid[0]
        idx = np.rint((x - self.x_grid[0]) / h).astype(int)
        return np.clip(idx, 0, n - 1)

    def greedy_indices(self) -> np.ndarray:
        """(T, n_s) greedy action index per layer/state; ties -> smaller |u|,
        then smaller u."""
        T = self.q.shape[0] - 1
        order = np.lexsort((self.u_grid, np.abs(self.u_grid)))
        ranked = self.q[:T][:, :, order]
        best = np.argmin(ranked, axis=2)  # argmin takes the first minimum
        return order[best]


def make_qtable(instance: LqrInstance, n_states: int, n_actions: int) -> QTable:
    if n_states < 2 or n_actions < 1:
        raise ValueError(f"a Q-table needs n_states >= 2 and n_actions >= 1, got {n_states} and {n_actions}")
    _, _, qcoef, _ = _scalars(instance)
    T = instance.T
    x_grid = np.linspace(-1.0, 1.0, n_states)
    u_grid = np.linspace(-1.0, 1.0, n_actions)
    q = np.zeros((T + 1, n_states, n_actions))
    q[T] = (x_grid**2 * qcoef[T])[:, None]
    return QTable(x_grid=x_grid, u_grid=u_grid, q=q)


def q_learning_step(table: QTable, instance: LqrInstance, lr: float, seed) -> QTable:
    """One full sweep over all cells; returns a new table.  lr must lie in
    [0, 1]; lr = 0 leaves the table as it is."""
    if not 0.0 <= lr <= 1.0:
        raise ValueError(f"lr must be in [0, 1], got {lr!r}")
    a, b, qcoef, rcoef = _scalars(instance)
    T = instance.T
    rng = make_rng(seed)
    X = table.x_grid[:, None]
    U = table.u_grid[None, :]
    q = table.q.copy()
    clamps = table.clamp_count
    for t in range(T - 1, -1, -1):
        w = _noise(instance, rng, q[t].shape)
        x_next = a * X + b * U + w
        clamps += int(np.count_nonzero((x_next < -1.0) | (x_next > 1.0)))
        idx = table.snap(x_next)
        target = X**2 * qcoef[t] + U**2 * rcoef[t] + q[t + 1].min(axis=1)[idx]
        q[t] = (1.0 - lr) * q[t] + lr * target
    return QTable(x_grid=table.x_grid, u_grid=table.u_grid, q=q, clamp_count=clamps)


def greedy_policy_cost(table: QTable, instance: LqrInstance, n_rollouts: int, seed) -> float:
    """Monte Carlo cost of the greedy policy (true continuous dynamics,
    actions looked up at the snapped state bin)."""
    if n_rollouts < 1:
        raise ValueError(f"n_rollouts must be >= 1, got {n_rollouts}")
    a, b, qcoef, rcoef = _scalars(instance)
    T = instance.T
    greedy = table.greedy_indices()
    rng = make_rng(seed)
    x = instance.init.place(standard_draw(instance.init.kind, rng, (n_rollouts, 1)))[:, 0]
    cost = np.zeros(n_rollouts)
    for t in range(T):
        u = table.u_grid[greedy[t][table.snap(x)]]
        cost += x**2 * qcoef[t] + u**2 * rcoef[t]
        x = a * x + b * u
        x += _noise(instance, rng, (n_rollouts,))  # in place: no third (n,) array alive while drawing
    cost += x**2 * qcoef[T]
    return float(cost.mean())
