"""Model-free policy gradient via sphere-smoothed zeroth-order estimates.

The learner touches the system only through a simulator handle exposing
rollout(policy, seed) -> realized cost.  For each time slot t it perturbs
K_t by a matrix U drawn uniformly from the Frobenius sphere of radius r,
rolls one full trajectory under the perturbed policy, and averages

    ghat_t = (D / r^2) * mean_i  cost_i * U_i,        D = k * d.

All randomness is keyed by counter tuples (seed, iteration, t, i) so runs
are reproducible and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LqrInstance, exact_cost, keyed_draws, keyed_paths, make_rng, simulate_trajectory
from .errors import DegenerateDraw
from .optimize import DescentConfig, ProjectionSet, _descent

# perturbed policies per batched exact_cost call of smoothed_gradient_reference;
# 1024 ran faster than 4096 or 16384 on the scalar and 4-state benchmarks
_REFERENCE_CHUNK = 1024


@dataclass(frozen=True)
class SmoothingConfig:
    radius: float  # Frobenius radius r of the perturbation sphere
    samples: int  # m rollouts per time slot


@dataclass
class GradientEstimate:
    grads: np.ndarray  # (T, k, d)
    mean_costs: np.ndarray  # (T,) average rollout cost per slot
    samples: int
    radius: float


def sample_sphere(shape: tuple[int, int], radius: float, seed) -> np.ndarray:
    """Uniform draw from the Frobenius sphere of the given radius."""
    rng = make_rng(seed)
    for _ in range(100):
        g = rng.standard_normal(shape)
        nrm = float(np.sqrt((g**2).sum()))
        if nrm > 1e-30:
            return (radius / nrm) * g
    raise DegenerateDraw("could not normalize a sphere draw")


def sample_sphere_batch(n: int, shape: tuple[int, int], radius: float, seed) -> np.ndarray:
    """(n, *shape) independent sphere draws from a single stream."""
    rng = make_rng(seed)
    g = rng.standard_normal((n, *shape))
    nrm = np.sqrt((g**2).sum(axis=(1, 2), keepdims=True))
    if (nrm <= 1e-30).any():
        raise DegenerateDraw("could not normalize a sphere draw")
    return radius * g / nrm


def _slot_tails(slots, m: int, flag: int) -> np.ndarray:
    """Counter tails (t, i, flag) for each slot t in slots and i < m, one row
    per key in that order; slots are words in [0, 2**64)."""
    slots = np.asarray(slots, dtype=np.uint64)
    tails = np.empty((len(slots), m, 3), dtype=np.uint64)
    tails[..., 0] = slots[:, None]
    tails[..., 1] = np.arange(m)
    tails[..., 2] = flag
    return tails.reshape(-1, 3)


def sphere_directions(T: int, m: int, shape: tuple[int, int], radius: float, seed, iteration: int) -> np.ndarray:
    """(T, m, *shape) perturbations of one estimate: entry (t, i) equals
    sample_sphere(shape, radius, (seed, iteration, t, i, 0)) bit for bit.

    All T * m Gaussian draws come from one keyed_draws call and are
    normalized together; a draw too short to normalize is redrawn by
    sample_sphere.
    """
    g = keyed_draws([("gaussian", shape[0] * shape[1])], (seed, iteration), _slot_tails(range(T), m, 0))
    nrm = np.sqrt((g**2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        U = ((radius / nrm)[:, None] * g).reshape(T, m, *shape)
    for j in np.flatnonzero(nrm <= 1e-30):
        t, i = divmod(int(j), m)
        U[t, i] = sample_sphere(shape, radius, (seed, iteration, t, i, 0))
    return U


def slot_paths(instance: LqrInstance, m: int, seed, iteration: int) -> tuple[np.ndarray, np.ndarray]:
    """Start states (T * m, d) and noise (T * m, T, d) of one estimate's
    rollouts: row t * m + i is what simulate_trajectory draws from the stream
    (seed, iteration, t, i, 1), all drawn by one keyed_paths call."""
    return keyed_paths(instance, (seed, iteration), _slot_tails(range(instance.T), m, 1))


class LqrSimulator:
    """Opaque rollout interface over an LqrInstance.

    Optimization loops use only T, k, d and the rollout methods, never the
    instance matrices.  The batch methods vectorize the dynamics over all
    rollouts but replay exactly the per-trajectory streams simulate_trajectory
    would consume: rollout_perturbed_batch those of seeds (*key, i, 1), and
    rollout_perturbed_slots those of (seed, iteration, t, i, 1) for every slot
    t at once, as one (T * m, d) state array.  All start states and noise of
    a call come from one core.keyed_paths call, which runs every stream's
    Philox words as one array and takes numpy's per-key path only for rows
    off the ziggurat fast path, and every row keeps the arithmetic of a
    one-slot batch, so the costs match rollout_perturbed_batch bit for bit.
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
            cost += np.einsum("id,de,ie->i", x, inst.Q[s], x)
            cost += np.einsum("ik,kl,il->i", u, inst.R[s], u)
            x = x @ inst.A.T + u @ inst.B.T + w[:, s]
        cost += np.einsum("id,de,ie->i", x, inst.Q[T], x)
        return cost.reshape(n_blocks, m)


def _default_batch(sim, policy, t, U, key):
    """Fallback batch rollout for handles exposing only rollout()."""
    K = np.asarray(policy, dtype=float)
    costs = np.empty(U.shape[0])
    for i in range(U.shape[0]):
        pert = K.copy()
        pert[t] = pert[t] + U[i]
        costs[i] = sim.rollout(pert, [*key, i, 1])
    return costs


def estimate_gradient(sim, policy, cfg: SmoothingConfig, seed, iteration: int = 0) -> GradientEstimate:
    """Zeroth-order gradient estimate from m single-trajectory rollouts per slot."""
    if isinstance(sim, LqrInstance):
        sim = LqrSimulator(sim)
    T, k, d = sim.T, sim.k, sim.d
    D = k * d
    r, m = cfg.radius, cfg.samples
    U = sphere_directions(T, m, (k, d), r, seed, iteration)
    if hasattr(sim, "rollout_perturbed_slots"):
        costs = sim.rollout_perturbed_slots(policy, U, seed, iteration)
    else:
        batch = getattr(sim, "rollout_perturbed_batch", None)
        costs = [
            batch(policy, t, U[t], [seed, iteration, t]) if batch is not None
            else _default_batch(sim, policy, t, U[t], [seed, iteration, t])
            for t in range(T)
        ]
    grads = np.empty((T, k, d))
    mean_costs = np.empty(T)
    for t in range(T):
        grads[t] = (D / r**2) * np.einsum("i,ikd->kd", costs[t], U[t]) / m
        mean_costs[t] = costs[t].mean()
    return GradientEstimate(grads=grads, mean_costs=mean_costs, samples=m, radius=r)


def smoothed_gradient_reference(instance: LqrInstance, policy, t: int, radius: float, n_samples: int, seed) -> np.ndarray:
    """Monte Carlo estimate of the smoothed gradient at slot t using exact
    costs instead of single-trajectory rollouts (the intermediate oracle
    between the sampled estimator and the exact gradient).

    The perturbed policies are costed in batches of _REFERENCE_CHUNK, and the
    terms (c_i - base) U_i are summed one after another in sample order.
    """
    K = np.asarray(policy, dtype=float)
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
    are nan.
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
