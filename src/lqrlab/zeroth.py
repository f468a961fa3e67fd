"""Model-free policy gradient via sphere-smoothed zeroth-order estimates.

The learner touches the system only through a simulator handle: T, k, d
and rollout_perturbed_slots(policy, U, seed, iteration) -> (T, m) costs,
entry (t, i) one trajectory with gain t perturbed by U[t, i].  Each K_t is
perturbed by m draws U_i from the Frobenius sphere of radius r, and

    ghat_t = (D / r^2) * mean_i  cost_i * U_i,        D = k * d.

Iteration n of seed s reads two streams of standard normals, rollout
(t, i) from row j = i * T + t of each (i-major, so its numbers do not
depend on m): the directions are the rows of sample_sphere_batch(T * m,
(k, d), r, (s, n, 0, 0, 0)), the j-th run of k * d normals normalised, and
LqrSimulator rolls rollout (t, i) on path row j of make_rng((s, n, 0, 0, 1)),
its j-th run of N normals (core.stream_paths), all T * m rows in one roll
over the T steps.  A handle with only rollout(policy, seed) -> cost gets
one rollout at a time, rollout (t, i) on its own stream (s, n, t, i, 1), so
its costs differ from LqrSimulator's.  Every stream is keyed by counters, so
runs are reproducible and independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import (
    LqrInstance,
    exact_cost,
    make_rng,
    stream_paths,
)
from .errors import ZeroDirection
from .optimize import DescentConfig, ProjectionSet, _descent

# perturbed policies per batched exact_cost call of smoothed_gradient_reference;
# 1024 ran faster than 4096 or 16384 on the scalar and 4-state benchmarks
_REFERENCE_CHUNK = 1024


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


def sample_sphere(shape: tuple[int, int], radius: float, seed) -> np.ndarray:
    """Uniform draw from the Frobenius sphere of the given radius: the one
    row of sample_sphere_batch(1, shape, radius, seed)."""
    return sample_sphere_batch(1, shape, radius, seed)[0]


def sample_sphere_batch(n: int, shape: tuple[int, int], radius: float, seed) -> np.ndarray:
    """(n, *shape) independent sphere draws from a single stream: row j is
    the j-th run of k * d standard normals of make_rng(seed), scaled to the
    radius.  A normal is +-0 with chance about 2**-52, so a row of k * d = 1
    can have norm 0: ZeroDirection names the first such row instead of
    returning its 0 / 0 = nan."""
    g = make_rng(seed).standard_normal((n, *shape))
    norms = np.sqrt((g**2).sum(axis=(1, 2), keepdims=True))
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise ZeroDirection(f"sphere row {zero[0]} of stream {seed!r} has norm 0")
    return radius * g / norms


def sphere_directions(T: int, m: int, shape: tuple[int, int], radius: float, seed, iteration: int) -> np.ndarray:
    """(T, m, *shape) perturbations of one estimate: entry (t, i) is row
    i * T + t of sample_sphere_batch(T * m, shape, radius, (seed, iteration,
    0, 0, 0))."""
    U = sample_sphere_batch(T * m, shape, radius, (seed, iteration, 0, 0, 0))
    return np.ascontiguousarray(U.reshape(m, T, *shape).swapaxes(0, 1))


def slot_paths(instance: LqrInstance, m: int, seed, iteration: int) -> tuple[np.ndarray, np.ndarray]:
    """Start states (T * m, d) and noise (T * m, T, d) of one estimate's
    rollouts, row i * T + t that of rollout (t, i): the first T * m path
    rows of the stream make_rng((seed, iteration, 0, 0, 1)): row j is the
    (j + 1)-th start state and noise simulate_trajectory would draw on it
    (core.stream_paths)."""
    return stream_paths(instance, make_rng((seed, iteration, 0, 0, 1)), instance.T * m)


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
    instance matrices.  rollout_perturbed_slots is the one rollout kernel: it
    vectorizes the dynamics over all T * m rollouts of an estimate, on the
    rows of slot_paths.  rollout_perturbed_batch is one slot of it, so it has
    the estimator's bits for every m; no estimator calls it.
    """

    def __init__(self, instance: LqrInstance):
        self._inst = instance
        self.T = instance.T
        self.k = instance.k
        self.d = instance.d

    def rollout_perturbed_batch(self, policy, t: int, U: np.ndarray, key) -> np.ndarray:
        """(m,) costs: slot t of rollout_perturbed_slots for the key (seed,
        iteration, t), with U (m, k, d) at slot t and zero directions elsewhere."""
        seed, iteration, slot = key
        if slot != t or not 0 <= slot < self.T:
            raise ValueError(f"slot must equal t and lie in [0, {self.T}), got slot {slot!r} for t = {t!r}")
        V = np.zeros((self.T, *U.shape))
        V[t] = U
        return self.rollout_perturbed_slots(policy, V, seed, iteration)[t]

    def rollout_perturbed_slots(self, policy, U: np.ndarray, seed, iteration: int) -> np.ndarray:
        """(T, m) costs; entry (t, i) rolls the policy with gain t perturbed
        by U[t, i] on path row i * T + t of slot_paths(m, seed, iteration)."""
        return self._roll(policy, U, *slot_paths(self._inst, U.shape[1], seed, iteration))

    def _roll(self, policy, U: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(T, m) costs of the rollouts from x (T * m, d) under noise w
        (T * m, T, d): at step t the rows t, t + T, ... run with gain t
        perturbed by U[t] (m, k, d), the other rows with the policy's gain."""
        inst = self._inst
        T, m = U.shape[:2]
        K = np.asarray(policy, dtype=float)
        cost = np.zeros(T * m)
        for t in range(T):
            u = -(x @ K[t].T)
            u[t::T] = -np.einsum("ikd,id->ik", K[t][None] + U[t], np.ascontiguousarray(x[t::T]))
            cost += _row_forms(x, inst.Q[t])
            cost += _row_forms(u, inst.R[t])
            x = x @ inst.A.T + u @ inst.B.T + w[:, t]
        cost += _row_forms(x, inst.Q[T])
        return np.ascontiguousarray(cost.reshape(m, T).T)


def _perturbed_costs(sim, policy, U: np.ndarray, seed, iteration: int) -> np.ndarray:
    """(T, m) costs of the handle's rollout_perturbed_slots, or, for a handle
    exposing only rollout(), of one rollout per perturbed policy, entry (t, i)
    on its own stream (seed, iteration, t, i, 1) rather than on a path row."""
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
    return GradientEstimate(grads=grads, mean_costs=costs.mean(axis=1))


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
