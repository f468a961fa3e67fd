"""Model-free policy gradient via sphere-smoothed zeroth-order estimates.

The learner touches the system only through a simulator handle: T, k, d
and rollout_perturbed_slots(policy, U, seed, iteration) -> (T, m) costs,
entry (t, i) one trajectory with gain t perturbed by U[t, i] on the stream
(seed, iteration, t, i, 1); a handle with only rollout(policy, seed) -> cost
gets them one rollout at a time.  Each K_t is perturbed by m draws U_i from
the Frobenius sphere of radius r, and

    ghat_t = (D / r^2) * mean_i  cost_i * U_i,        D = k * d.

All randomness is keyed by counter tuples (seed, iteration, t, i) so runs
are reproducible and independent of execution order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import (
    LqrInstance,
    _paths_from_draws,
    _stream_words,
    exact_cost,
    keyed_draws,
    keyed_paths,
    make_rng,
    simulate_trajectory,
    standard_draw,
)
from .optimize import DescentConfig, ProjectionSet, _descent

# perturbed policies per batched exact_cost call of smoothed_gradient_reference;
# 1024 ran faster than 4096 or 16384 on the scalar and 4-state benchmarks
_REFERENCE_CHUNK = 1024

# Philox blocks per kind of draw that an estimate draws ahead: when a row of
# the kind's layout takes b blocks, the standardized rows of
# max(1, _DRAW_AHEAD // (T * m * b)) iterations come from one keyed_draws
# pass, whose numpy call overhead dominates small estimates
_DRAW_AHEAD = 4096


class _Blocks(threading.local):
    """Per thread, flag -> (identity, first iteration, read-only rows) of the
    last block drawn ahead for that kind of draw."""

    def __init__(self):
        self.held = {}


_blocks = _Blocks()


@dataclass(frozen=True)
class SmoothingConfig:
    radius: float  # Frobenius radius r of the perturbation sphere
    samples: int  # m rollouts per time slot

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"smoothing radius must be finite and positive, got {self.radius!r}")
        if isinstance(self.samples, bool) or not isinstance(self.samples, Integral) or self.samples < 1:
            raise ValueError(f"smoothing samples must be an integer >= 1, got {self.samples!r}")


@dataclass
class GradientEstimate:
    grads: np.ndarray  # (T, k, d)
    mean_costs: np.ndarray  # (T,) average rollout cost per slot
    samples: int
    radius: float


def sample_sphere(shape: tuple[int, int], radius: float, seed) -> np.ndarray:
    """Uniform draw from the Frobenius sphere of the given radius."""
    g = standard_draw("gaussian", make_rng(seed), shape)
    return (radius / float(np.sqrt((g**2).sum()))) * g


def sample_sphere_batch(n: int, shape: tuple[int, int], radius: float, seed) -> np.ndarray:
    """(n, *shape) independent sphere draws from a single stream."""
    g = standard_draw("gaussian", make_rng(seed), (n, *shape))
    return radius * g / np.sqrt((g**2).sum(axis=(1, 2), keepdims=True))


def _slot_tails(slots, m: int, flag: int) -> np.ndarray:
    """Counter tails (t, i, flag) for each slot t in slots and i < m, one row
    per key in that order; slots are words in [0, 2**64)."""
    slots = np.asarray(slots, dtype=np.uint64)
    tails = np.empty((len(slots), m, 3), dtype=np.uint64)
    tails[..., 0] = slots[:, None]
    tails[..., 1] = np.arange(m)
    tails[..., 2] = flag
    return tails.reshape(-1, 3)


def _standard_rows(layout, T: int, m: int, flag: int, seed, iteration: int) -> np.ndarray:
    """(T * m, N) standardized draws of the keys (seed, iteration, t, i, flag),
    row t * m + i, as one keyed_draws call gives them: the N numbers of the
    layout's mapped words, the unmapped ones drawn but skipped
    (zo-liquidation: 22 words drawn a row, 11 mapped).

    A row of W words takes b = ceil(W / 4) Philox blocks.  When
    B = _DRAW_AHEAD // (T * m * b) is above one, a call outside the thread's
    block for this flag draws the rows of iterations [iteration,
    iteration + B) in one keyed_draws pass, keeps them as a read-only block
    keyed on the layout (its live offsets included, so instances that map
    other words of the same stream get their own rows), T, m, the masked
    seed word and the first iteration, and serves later calls within the
    block from it.  With B = 1, or no draws at
    all (W = 0), nothing is kept.
    """
    blocks = T * m * -(-sum(part[1] for part in layout) // 4)
    span = _DRAW_AHEAD // blocks if blocks else 1
    if span <= 1:
        return keyed_draws(layout, (seed, iteration), _slot_tails(range(T), m, flag))
    seed_word, it = _stream_words((seed, iteration))[:2]
    ident = (tuple(layout), T, m, seed_word)
    kept, first, rows = _blocks.held.get(flag, (None, 0, None))
    b = (it - first) % 2**64
    if kept != ident or b >= span:
        b = 0
        rows = keyed_draws(layout, [(seed_word, it + j) for j in range(span)], _slot_tails(range(T), m, flag))
        rows.flags.writeable = False
        _blocks.held[flag] = (ident, it, rows)
    return rows[b]


def sphere_directions(T: int, m: int, shape: tuple[int, int], radius: float, seed, iteration: int) -> np.ndarray:
    """(T, m, *shape) perturbations of one estimate: entry (t, i) equals
    sample_sphere(shape, radius, (seed, iteration, t, i, 0)) bit for bit.

    The T * m Gaussian draws come from keyed_draws, drawn ahead for the next
    iterations when T * m is small (_standard_rows), and are scaled and
    normalized on every call.  No draw is 0 (|x| >= 2.8e-16), so every norm
    is positive.
    """
    g = _standard_rows([("gaussian", shape[0] * shape[1])], T, m, 0, seed, iteration)
    return ((radius / np.sqrt((g**2).sum(axis=1)))[:, None] * g).reshape(T, m, *shape)


def slot_paths(instance: LqrInstance, m: int, seed, iteration: int) -> tuple[np.ndarray, np.ndarray]:
    """Start states (T * m, d) and noise (T * m, T, d) of one estimate's
    rollouts: row t * m + i is what simulate_trajectory draws from the stream
    (seed, iteration, t, i, 1), one Philox word per number.  The standardized
    draws come from keyed_draws on the instance's path layout, drawn ahead
    for the next iterations when T * m is small (_standard_rows), and are
    placed and scaled for the instance on every call.  Words of a factor's
    zero columns advance the stream but are not mapped (zo-liquidation: 22
    words drawn per row, 11 mapped); a point start with zero noise draws
    nothing."""
    return _paths_from_draws(instance, _standard_rows(instance.paths[0], instance.T, m, 1, seed, iteration))


def _row_forms(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """(n,) quadratic forms x_i' M x_i of the rows of x (n, d).

    The contraction runs on a coordinate-major copy of x, so einsum's inner
    loop runs along the n rows instead of across d columns, and it sums the
    d * d terms of each row in the order it does on x itself: the bits are
    those of einsum("id,de,ie->i", x, M, x) for x row-major or a column slice
    of a row-major array, as the roll passes it.  On one or two rows numpy
    picks its loop order from the strides, which the copy transposes, so
    there the loops run in the labels' order, as they do on row-major x.
    """
    xt = np.ascontiguousarray(x.T)
    return np.einsum("di,de,ei->i", xt, M, xt, order="C" if len(x) <= 2 else "K")


class LqrSimulator:
    """Opaque rollout handle over an LqrInstance.

    Optimization loops use only T, k, d and the rollout methods, never the
    instance matrices.  rollout_perturbed_slots vectorizes the dynamics over
    all T * m rollouts of an estimate, with start states and noise from
    slot_paths, so each rollout replays the words simulate_trajectory would
    read from its stream, mapped to the same numbers.  rollout_perturbed_batch
    rolls one slot the same way and gives the same costs bit for bit; no
    estimator calls it.
    """

    def __init__(self, instance: LqrInstance):
        self._inst = instance
        self.T = instance.T
        self.k = instance.k
        self.d = instance.d

    def rollout(self, policy, seed) -> float:
        return simulate_trajectory(self._inst, policy, seed).realized_cost

    def rollout_perturbed_batch(self, policy, t: int, U: np.ndarray, key) -> np.ndarray:
        """(m,) costs; entry i rolls the policy with gain t perturbed by U[i]
        on the stream (*key, i, 1), for a key (seed, iteration, slot)."""
        seed, iteration, slot = key
        x0, w = keyed_paths(self._inst, (seed, iteration), _slot_tails([int(slot) % 2**64], U.shape[0], 1))
        return self._roll(policy, {t: 0}, U[None], x0, w)[0]

    def rollout_perturbed_slots(self, policy, U: np.ndarray, seed, iteration: int) -> np.ndarray:
        """(T, m) costs; entry (t, i) rolls the policy with gain t perturbed
        by U[t, i] on the stream (seed, iteration, t, i, 1)."""
        T, m = U.shape[:2]
        x0, w = slot_paths(self._inst, m, seed, iteration)
        if m <= 2:
            # numpy's matmul and einsum take other inner loops on blocks of one
            # or two rows than on T * m rows, so each slot is rolled alone
            rows = [slice(t * m, (t + 1) * m) for t in range(T)]
            return np.concatenate([self._roll(policy, {t: 0}, U[t:t + 1], x0[r], w[r]) for t, r in enumerate(rows)])
        return self._roll(policy, {t: t for t in range(T)}, U, x0, w)

    def _roll(self, policy, blocks: dict, U: np.ndarray, x0: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Costs (n_blocks, m) of rollouts from x0 (n_blocks * m, d) under
        noise w; the rows of block blocks[s] run with gain s perturbed by
        U[blocks[s]], the other rows with the policy's gain."""
        inst = self._inst
        T = self.T
        n_blocks, m = U.shape[:2]
        K = np.asarray(policy, dtype=float)
        x = x0
        cost = np.zeros(n_blocks * m)
        for s in range(T):
            u = -(x @ K[s].T)
            j = blocks.get(s)
            if j is not None:
                rows = slice(j * m, (j + 1) * m)
                u[rows] = -np.einsum("ikd,id->ik", K[s][None] + U[j], x[rows])
            cost += _row_forms(x, inst.Q[s])
            cost += _row_forms(u, inst.R[s])
            x = x @ inst.A.T + u @ inst.B.T + w[:, s]
        cost += _row_forms(x, inst.Q[T])
        return cost.reshape(n_blocks, m)


def _perturbed_costs(sim, policy, U: np.ndarray, seed, iteration: int) -> np.ndarray:
    """(T, m) costs of the handle's rollout_perturbed_slots, or, for a handle
    exposing only rollout(), of one rollout per perturbed policy, entry (t, i)
    on the stream (seed, iteration, t, i, 1)."""
    if hasattr(sim, "rollout_perturbed_slots"):
        return sim.rollout_perturbed_slots(policy, U, seed, iteration)
    if not hasattr(sim, "rollout"):
        raise TypeError("a simulator handle needs rollout_perturbed_slots(policy, U, seed, iteration) or rollout(policy, seed)")
    K = np.asarray(policy, dtype=float)
    T, m = U.shape[:2]
    costs = np.empty((T, m))
    for t, i in np.ndindex(T, m):
        pert = K.copy()
        pert[t] = pert[t] + U[t, i]
        costs[t, i] = sim.rollout(pert, [seed, iteration, t, i, 1])
    return costs


def estimate_gradient(sim, policy, cfg: SmoothingConfig, seed, iteration: int = 0) -> GradientEstimate:
    """Zeroth-order gradient estimate from m single-trajectory rollouts per slot."""
    if isinstance(sim, LqrInstance):
        sim = LqrSimulator(sim)
    T, k, d = sim.T, sim.k, sim.d
    D = k * d
    r, m = cfg.radius, cfg.samples
    U = sphere_directions(T, m, (k, d), r, seed, iteration)
    costs = _perturbed_costs(sim, policy, U, seed, iteration)
    # one einsum per slot: a single einsum over all slots rounds differently
    grads = np.stack([(D / r**2) * np.einsum("i,ikd->kd", costs[t], U[t]) / m for t in range(T)])
    return GradientEstimate(grads=grads, mean_costs=costs.mean(axis=1), samples=m, radius=r)


def smoothed_gradient_reference(instance: LqrInstance, policy, t: int, radius: float, n_samples: int, seed) -> np.ndarray:
    """Monte Carlo estimate of the smoothed gradient at slot t using exact
    costs instead of single-trajectory rollouts (the intermediate oracle
    between the sampled estimator and the exact gradient).

    The perturbed policies are costed in batches of _REFERENCE_CHUNK, and the
    terms (c_i - base) U_i are summed one after another in sample order.
    The radius and n_samples follow SmoothingConfig's rules, and the slot
    must satisfy 0 <= t < T.
    """
    SmoothingConfig(radius, n_samples)
    K = np.asarray(policy, dtype=float)
    if isinstance(t, bool) or not isinstance(t, Integral) or not 0 <= t < len(K):
        raise ValueError(f"slot t must be an integer in [0, {len(K)}), got {t!r}")
    k, d = K.shape[1], K.shape[2]
    D = k * d
    U = sample_sphere_batch(n_samples, (k, d), radius, seed)
    acc = np.zeros((1, k, d))
    base = exact_cost(instance, K)  # E[U] = 0, so subtracting it only cuts variance
    for lo in range(0, n_samples, _REFERENCE_CHUNK):
        Ui = U[lo:lo + _REFERENCE_CHUNK]
        pert = np.repeat(K[None], len(Ui), axis=0)
        pert[:, t] = K[t] + Ui
        terms = (exact_cost(instance, pert) - base)[:, None, None] * Ui
        # a running sum, so chunking leaves the result unchanged
        acc = np.cumsum(np.concatenate([acc, terms]), axis=0)[-1:]
    return (D / radius**2) * acc[0] / n_samples


def run_modelfree_pg(sim, policy0, cfg: DescentConfig, smoothing: SmoothingConfig, seed, *, cost_oracle=None, constraint: ProjectionSet | None = None):
    """Gradient descent driven by zeroth-order estimates (projected when a
    constraint set is given), with fixed steps: line search raises ValueError.

    cost_oracle(policy) -> exact cost is used only for trace reporting; when
    sim is an LqrInstance the trace defaults to the closed-form cost and also
    reports the exact gradient norm and the normalized error against the
    Riccati solution.  For an opaque handle without an oracle those columns
    are nan, and an opaque handle takes no target_error (ValueError).
    """
    instance = sim if isinstance(sim, LqrInstance) else None
    if instance is not None:
        sim = LqrSimulator(instance)

    def estimate(K, n):
        return estimate_gradient(sim, K, smoothing, seed, iteration=n).grads

    return _descent(instance, policy0, cfg, constraint, smoothing=smoothing, estimate=estimate, cost_oracle=cost_oracle)


def run_modelfree_ppg(sim, policy0, cfg: DescentConfig, smoothing: SmoothingConfig, seed, constraint: ProjectionSet, *, cost_oracle=None):
    """Projected variant: every iterate is projected back onto the set."""
    return run_modelfree_pg(sim, policy0, cfg, smoothing, seed, cost_oracle=cost_oracle, constraint=constraint)
