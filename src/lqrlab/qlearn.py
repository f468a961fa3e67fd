"""Tabular Q-learning baseline for scalar (d = k = 1) finite-horizon
instances on uniform state/action grids over [-1, 1].

One sweep updates every (t, x, u) cell from a sampled transition,
backward in t so the freshest next-layer values are used:

    q_t(x, u) <- (1 - lr) q_t(x, u) + lr [c_t(x, u) + min_u' q_{t+1}(x', u')]

with x' = A x + B u + w snapped to the nearest grid point (clamped at the
boundary, occurrences counted).  The terminal layer is fixed at x^2 Q_T.
A sweep draws one standard normal of its stream per cell and layer, and
greedy_policy_cost one per rollout for the start state and each step, none
for a point start or zero noise (the models' sample; a uniform kind maps
each normal).  greedy_policy_cost holds two doubles a rollout (its state and
running cost) plus one block of _BLOCK rollouts of temporaries: it runs
each step over consecutive blocks, drawing each block's numbers with its
own sample call, so the stream is read in the same order as by one call a
step and rollout i reads the same normals whatever the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LqrInstance, _number, make_rng

# rollouts whose temporaries one step of greedy_policy_cost holds at once, a
# few arrays of 64 kB: on a 2-CPU x86-64 VM (2 MiB L2 a core) 8192-32768 took
# about 30 ms at 200,000 rollouts and T = 5, 2048 took 41 ms and one block 45
# ms; the smallest of the fast sizes keeps the traced peak near 2.2 doubles a rollout
_BLOCK = 8192


def _scalars(instance: LqrInstance):
    if instance.d != 1 or instance.k != 1:
        raise ValueError("Q-learning baseline needs a scalar instance")
    a = float(instance.A[0, 0])
    b = float(instance.B[0, 0])
    q = instance.Q[:, 0, 0]
    r = instance.R[:, 0, 0]
    return a, b, q, r


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
        # clamp before the cast: a state past the int range (or inf) snaps to
        # the top bin, not to whatever the cast makes of it
        return np.clip(np.rint((x - self.x_grid[0]) / h), 0, n - 1).astype(int)

    def greedy_indices(self) -> np.ndarray:
        """(T, n_s) greedy action index per layer/state; ties -> smaller |u|,
        then smaller u."""
        T = self.q.shape[0] - 1
        order = np.lexsort((self.u_grid, np.abs(self.u_grid)))
        best = np.empty((T, self.q.shape[1]), dtype=order.dtype)
        for t in range(T):  # a reordered copy of one layer at a time, not of the table
            best[t] = order[np.argmin(self.q[t][:, order], axis=1)]  # argmin takes the first minimum
        return best


def make_qtable(instance: LqrInstance, n_states: int, n_actions: int) -> QTable:
    _number(n_states, "n_states", 2, whole=True)
    _number(n_actions, "n_actions", 1, whole=True)
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
    _number(lr, "lr", 0, 1)
    a, b, qcoef, rcoef = _scalars(instance)
    T = instance.T
    rng = make_rng(seed)
    X = table.x_grid[:, None]
    U = table.u_grid[None, :]
    q = table.q.copy()
    clamps = table.clamp_count
    for t in range(T - 1, -1, -1):
        w = instance.noise.sample(rng, q[t].shape, 1)[..., 0]
        x_next = a * X + b * U + w
        clamps += int(np.count_nonzero((x_next < -1.0) | (x_next > 1.0)))
        idx = table.snap(x_next)
        target = X**2 * qcoef[t] + U**2 * rcoef[t] + q[t + 1].min(axis=1)[idx]
        q[t] = (1.0 - lr) * q[t] + lr * target
    return QTable(x_grid=table.x_grid, u_grid=table.u_grid, q=q, clamp_count=clamps)


def greedy_policy_cost(table: QTable, instance: LqrInstance, n_rollouts: int, seed) -> float:
    """Monte Carlo cost of the greedy policy (true continuous dynamics,
    actions looked up at the snapped state bin).  A cost that is not finite
    (the closed loop overflowed) raises FloatingPointError."""
    _number(n_rollouts, "n_rollouts", 1, whole=True)
    a, b, qcoef, rcoef = _scalars(instance)
    T = instance.T
    actions = table.u_grid[table.greedy_indices()]  # (T, n_s)
    rng = make_rng(seed)
    x = np.empty(n_rollouts)
    cost = np.zeros(n_rollouts)
    blocks = [(x[i:i + _BLOCK], cost[i:i + _BLOCK]) for i in range(0, n_rollouts, _BLOCK)]  # views, updated in place
    for xs, _ in blocks:
        xs[:] = instance.init.sample(rng, xs.shape, 1)[:, 0]
    for t in range(T):
        for xs, cs in blocks:
            u = actions[t][table.snap(xs)]
            cs += xs**2 * qcoef[t] + u**2 * rcoef[t]
            xs *= a
            xs += b * u
            xs += instance.noise.sample(rng, xs.shape, 1)[:, 0]
    for xs, cs in blocks:
        cs += xs**2 * qcoef[T]
    mean = float(cost.mean())
    if not np.isfinite(mean):
        raise FloatingPointError(
            f"greedy policy cost is {mean} (n_rollouts={n_rollouts}, seed={seed!r}): the closed loop overflowed")
    return mean
