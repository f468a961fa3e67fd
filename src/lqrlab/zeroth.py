"""Model-free policy gradient via sphere-smoothed zeroth-order estimates.

The learner touches the system only through a simulator handle.  The
protocol an opaque handle follows, so that it branches as LqrSimulator does:

- T, k, d: the horizon and the gains' shape (T, k, d);
- paths(seed, iteration, n) -> the first n path rows of the iteration's
  stream, an opaque value that costs takes whole; a call for more rows
  begins with the same n, so an estimate's numbers do not depend on m;
- costs(policy, U, paths) -> (T, m) branched costs to go on m path rows, U
  of shape (T, m, k, d): entry (t, i) is the cost from step t on of path i
  with gain t set to K_t + U[t, i] and every other gain K's.  Path i is
  rolled once under K, and at step t it opens the branch of slot t from its
  state x_t; the costs before step t do not depend on U[t], so each slot's
  estimate below is unbiased, and slots sharing paths are correlated.

Each K_t is perturbed by m draws U_i from the Frobenius sphere of radius r,
and

    ghat_t = (D / r^2) * mean_i  cost_i * U_i,        D = k * d,

the (T, k, d) array that estimate_gradient returns.  It takes a handle, never
an LqrInstance, which LqrSimulator wraps once for many estimates.

Iteration n of seed s reads two streams of standard normals.  Rollout
(t, i) reads row j = i * T + t of the direction stream (i-major, so its
numbers do not depend on m): the directions are the rows of
sample_sphere_batch(T * m, (k, d), r, (s, n, 0, 0, 0)), the j-th run of
k * d normals normalised.  LqrSimulator rolls every branch of path i on path
row i of make_rng((s, n, 0, 0, 1)), its i-th run of N normals
(core.path_normals), the m paths and their T * m branches in one
coordinate-major roll on the paths' noise, mapped once a call by the noise
model's vectors and added at step t to the rows it moves.  Every stream is
keyed by counters, so runs are reproducible and independent of execution
order.  Both are make_rng's streams, bit for bit, drawn on one reused
generator a thread (core._stream_normals), which each draw resets to the
stream's start, since building a generator costs ten times a reset;
make_rng is how a caller gets a generator of its own.  Seeds and iterations
are words of the stream keys, so they must be integers (TypeError
otherwise).  LqrSimulator alone also offers trajectories(policy, paths), the
unperturbed rollouts on n path rows as a Trajectory whose fields lead with
n, which no estimator calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LqrInstance, Trajectory, _gains, _number, _path_rows, _stream_normals, exact_cost
from .errors import ZeroDirection
from .optimize import DescentConfig, ProjectionSet, _descent

# perturbed policies per batched exact_cost call of smoothed_gradient_reference;
# 1024 ran faster than 4096 or 16384 on the scalar and 4-state benchmarks
_REFERENCE_CHUNK = 1024
# k * d below which a sphere row's squared norm is the in-order sum of its
# squares, as numpy's pairwise sum is a plain loop below 8 numbers: 4.6 against
# 43.5 us on zo-liquidation's 2000 rows of k * d = 2 (best of 7 x 5000, 2-vCPU VM)
_IN_ORDER = 8


@dataclass(frozen=True)
class SmoothingConfig:
    radius: float  # Frobenius radius r of the perturbation sphere
    samples: int  # m rollouts per time slot

    def __post_init__(self):
        _number(self.radius, "smoothing radius", 0, above=True)
        _number(self.samples, "smoothing samples", 1, whole=True)


def sample_sphere(shape: tuple[int, int], radius: float, seed) -> np.ndarray:
    """Uniform draw from the Frobenius sphere of the given radius: the one
    row of sample_sphere_batch(1, shape, radius, seed)."""
    return sample_sphere_batch(1, shape, radius, seed)[0]


def sample_sphere_batch(n: int, shape: tuple[int, int], radius: float, seed) -> np.ndarray:
    """(n, *shape) independent sphere draws from a single stream: row j is
    the j-th run of k * d standard normals of make_rng(seed), drawn on the
    thread's reused generator (core._stream_normals), scaled to the radius.
    A normal is +-0 with chance about 2**-52, so a row of k * d = 1 can have
    norm 0: ZeroDirection names the first such row instead of returning its
    0 / 0 = nan."""
    g = _stream_normals(seed, (n, *shape))
    sq = g**2
    cols = sq.reshape(n, shape[0] * shape[1]).T  # below _IN_ORDER numbers, a pass a column has the sum's bits
    norms = np.sqrt(sum(cols[1:], cols[0]) if len(cols) < _IN_ORDER else sq.sum(axis=(1, 2))).reshape(n, 1, 1)
    if not norms.all():
        raise ZeroDirection(f"sphere row {np.flatnonzero(norms == 0)[0]} of stream {seed!r} has norm 0")
    return radius * g / norms


def sphere_directions(T: int, m: int, shape: tuple[int, int], radius: float, seed, iteration: int) -> np.ndarray:
    """(T, m, *shape) perturbations of one estimate: entry (t, i) is row
    i * T + t of sample_sphere_batch(T * m, shape, radius, (seed, iteration,
    0, 0, 0))."""
    U = sample_sphere_batch(T * m, shape, radius, (seed, iteration, 0, 0, 0))
    return np.ascontiguousarray(U.reshape(m, T, *shape).swapaxes(0, 1))


def _forms(x: np.ndarray, M: np.ndarray, terms=None) -> np.ndarray:
    """(n,) quadratic forms x_i' M x_i of the columns of a (d, n) x whose rows
    are contiguous, as in a block of columns of a C-contiguous array, bit for
    bit einsum("id,de,ie->i") on its row-major copy: on one or two
    columns, where numpy orders the loops by strides, in the labels' order.
    So is the in-place sum of (x_d M_de) x_e over terms = _form_terms(M):
    einsum fuses no multiply-add, M's zero terms only flip the sign of a
    zero, and two terms, unlike three, add alike in either order."""
    if terms is None:
        return np.einsum("di,de,ei->i", x, M, x, order="C" if x.shape[1] <= 2 else "K")
    if not terms:
        return 0.0
    (d, e, v), *more = terms
    p = x[d] * v * x[e]
    for d, e, v in more:
        p += x[d] * v * x[e]
    return p


def _form_terms(M: np.ndarray):
    """[(d, e, M_de)] over M's nonzero entries if at most two, else None."""
    return terms if len(terms := [(d, e, M[d, e]) for d, e in zip(*np.nonzero(M))]) <= 2 else None


class LqrSimulator:
    """Opaque rollout handle over an LqrInstance, in the branched layout.

    Optimization loops use only T, k, d, paths and costs, never the instance
    matrices.  paths draws path rows and _roll, under costs and trajectories,
    is the one rollout kernel: one coordinate-major roll of m paths under
    the policy and of the branches that costs opens off them, on the paths'
    noise mapped once a call by noise.vectors.  It reads the instance's
    public fields alone.  trajectories rolls the paths alone.
    rollout_perturbed_batch is one slot of costs, with the estimator's bits
    for every m; no estimator calls it or trajectories.
    """

    def __init__(self, instance: LqrInstance):
        self._inst = instance
        self.T = instance.T
        self.k = instance.k
        self.d = instance.d
        # the roll's short exact forms (_roll), None where einsum stays
        self._identity = np.array_equal(instance.A, np.eye(self.d))
        self._Q, self._R = [_form_terms(M) for M in instance.Q], [_form_terms(M) for M in instance.R]
        # the rows the noise can move, the factor's nonzero rows: one slice where it moves them all
        noise = instance.noise
        F = np.eye(self.d) if noise.factor is None else np.asarray(noise.factor)
        moved = (F != 0).any(axis=1) & (noise.kind != "zero")
        self._moved = [slice(None)] if moved.all() else np.flatnonzero(moved)
        self._copied = noise.kind == "uniform"  # vectors standardizes a uniform's normals in place

    def rollout_perturbed_batch(self, policy, t: int, U: np.ndarray, key) -> np.ndarray:
        """(m,) costs: slot t of costs on paths(seed, iteration, m) for the
        key (seed, iteration, t), with U (m, k, d) at slot t and zero
        directions elsewhere."""
        seed, iteration, slot = key
        if slot != t or not 0 <= slot < self.T:
            raise ValueError(f"slot must equal t and lie in [0, {self.T}), got slot {slot!r} for t = {t!r}")
        V = np.zeros((self.T, *U.shape))
        V[t] = U
        return self.costs(policy, V, self.paths(seed, iteration, len(U)))[t]

    def paths(self, seed, iteration: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The first n path rows of the stream make_rng((seed, iteration, 0, 0,
        1)) (core.path_normals), drawn on the thread's reused generator
        (core._stream_normals): start states x0 (n, d) and noise normals z
        (n, T, c); x0[j] and noise.vectors(z[j], d) are the (j + 1)-th pair of
        init.draw and noise.draw on that stream."""
        key = (seed, iteration, 0, 0, 1)
        return _path_rows(self._inst, lambda shape: _stream_normals(key, shape), n)

    def costs(self, policy, U: np.ndarray, paths: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """(T, m) costs to go of _roll's branches on m path rows: entry (t, i) from step t of path i, gain t
        perturbed by U[t, i] and every other gain the policy's.  The paths stay as drawn: their noise normals are
        mapped on a copy for the uniform kind alone, as every other kind's vectors returns a new array."""
        if np.shape(U)[:2] != (self.T, len(paths[0])):
            raise ValueError(f"U must have shape (T, m, k, d) = ({self.T}, {len(paths[0])}, k, d) for "
                             f"{len(paths[0])} path rows, got {np.shape(U)}")
        x0, z = paths
        w = self._inst.noise.vectors(np.array(z) if self._copied else z, self.d)
        return self._roll(policy, U, x0, w).reshape(self.T, -1)

    def trajectories(self, policy, paths: tuple[np.ndarray, np.ndarray]) -> Trajectory:
        """The unperturbed rollouts of the policy (T, k, d) on n path rows, every Trajectory field leading with n."""
        x0, z = paths
        w = self._inst.noise.vectors(np.array(z) if self._copied else z, self.d)
        states = np.empty((len(x0), self.T + 1, self.d))
        states[:, 0] = x0
        cost = self._roll(_gains(policy, self), None, x0, w, states.transpose(1, 2, 0))
        return Trajectory(states, w, cost)

    def _roll(self, policy, U, x0: np.ndarray, w: np.ndarray, states=None) -> np.ndarray:
        """Costs of the rollouts from m start states x0 (m, d) under noise w (m, T, d), the noise model's
        vectors of the path rows' normals, mapped once a call by the caller (a step-major copy would round
        otherwise): the (m,) costs of the base block, rolled under the policy, if U is
        None; else the (T * m,) costs to go of the branches, block-major, where branch t of path i opens at
        step t from the base's x_t with gain t perturbed by U[t, i] (U (T, m, k, d)) and rolls under the policy
        after it.  states[1:] of a (T + 1, d, m) states, if given, receive the base's x_1 to x_T.  States are
        coordinate-major in blocks, (d, (T + 1) * m): [base | branch 0 | ... | branch T - 1], of which step t
        rolls the (t + 2) * m columns of the base and the branches open so far, and adds w[:, t] to each block
        on the rows the noise can move, in one add where it moves every row.  gemv rounds by its operands'
        layout, so gains act on row-major states at every step, step 0 too (for d > 1, d row writes into one
        array): the bits depend on the path rows' values alone.  Gains are negated once a call, as rounding is
        symmetric in sign.  A = I is skipped, B u is B * u' if k = 1, branch t's actions are einsum's sum
        written out, a product a term, if d <= 2, and _forms and the noise add skip zero terms: for finite states
        the costs keep their bits, as a one-term product rounds once, einsum fuses no multiply-add, and a dropped
        zero term, like a negated zero or einsum's zero start, only flips the sign of a zero.  A @ x, gemv, gemm
        and dense forms stay on BLAS, which may fuse a multiply-add, and einsum."""
        inst = self._inst
        T, d, m = self.T, self.d, len(x0)
        blocks, lo = (1, 0) if U is None else (T + 1, m)  # lo: the first costed column, the base's or branch 0's
        negK = -np.asarray(policy, dtype=float)
        negKU = None if U is None else negK[:, None] - U  # -(K_t + U_t), as -a - b = -(a + b) bit for bit
        x = np.empty((d, blocks * m))
        x[:, :m] = x0.T
        x3 = x.reshape(d, blocks, m)  # a view: the noise of the m paths is added to every live block
        wt = w.transpose(2, 1, 0)  # (d, T, m), a view
        written = np.empty((blocks * m, d))  # unused at d = 1, where x.T is row-major
        acts = np.empty((blocks * m, self.k))  # each step's actions, row-major, written in place
        cost = np.zeros(blocks * m - lo)
        for t in range(T):
            b = 1 if U is None else t + 2  # live blocks: the base and, with U, branches 0 to t
            live = b * m
            n = live if U is None else live - m  # columns under the policy: all but branch t's
            if U is not None:
                x[:, n:live] = x[:, :m]
            if d > 1:
                for i in range(d):
                    written[:n, i] = x[i, :n]
            rows = written[:n] if d > 1 else x[:, :n].T
            u = acts[:live]
            np.matmul(rows, negK[t].T, out=u[:n])
            if U is not None and d > 2:
                np.einsum("ikd,id->ik", negKU[t], rows[:m], out=u[n:])
            elif U is not None:  # einsum's sum over d <= 2 terms written out
                np.multiply(negKU[t, ..., 0], rows[:m, :1], out=u[n:])
                if d == 2:
                    u[n:] += negKU[t, ..., 1] * rows[:m, 1:]
            xs = x[:, :live]
            cost[:live - lo] += _forms(xs[:, lo:], inst.Q[t], self._Q[t])
            cost[:live - lo] += _forms(np.ascontiguousarray(u[lo:].T), inst.R[t], self._R[t])
            if not self._identity:
                xs[...] = inst.A @ xs
            xs += inst.B * u.T if self.k == 1 else inst.B @ u.T
            for r in self._moved:
                x3[r, :b] += wt[r, t, None]
            if states is not None:
                states[t + 1] = x[:, :m]
        return cost + _forms(x[:, lo:], inst.Q[T], self._Q[T])


def estimate_gradient(sim, policy, cfg: SmoothingConfig, seed, iteration: int = 0) -> np.ndarray:
    """The (T, k, d) zeroth-order gradient estimate from m branched rollouts
    per slot: the handle's costs to go on its first m paths of the
    iteration, contracted with the directions of every slot in one einsum,
    which has the bits of one einsum a slot.  The policy must have the
    handle's shape (T, k, d) and costs must return (T, m) (ValueError naming
    either); an LqrInstance is no handle (TypeError)."""
    if not (hasattr(sim, "paths") and hasattr(sim, "costs")):
        raise TypeError("a simulator handle needs paths(seed, iteration, n) and costs(policy, U, paths); "
                        "wrap an LqrInstance in LqrSimulator")
    K = _gains(policy, sim)
    T, k, d = K.shape
    D = k * d
    r, m = cfg.radius, cfg.samples
    U = sphere_directions(T, m, (k, d), r, seed, iteration)
    costs = sim.costs(K, U, sim.paths(seed, iteration, m))
    if np.shape(costs) != (T, m):
        raise ValueError(f"the handle's costs must return shape (T, m) = ({T}, {m}), got {np.shape(costs)}")
    grads = np.einsum("ti,tikd->tkd", costs, U)
    grads *= D / r**2
    return grads / m


def smoothed_gradient_reference(instance: LqrInstance, policy, t: int, radius: float, n_samples: int, seed) -> np.ndarray:
    """Monte Carlo estimate of the smoothed gradient at slot t using exact
    costs instead of single-trajectory rollouts (the intermediate oracle
    between the sampled estimator and the exact gradient).

    The perturbed policies are costed in batches of _REFERENCE_CHUNK, and the
    terms (c_i - base) U_i are summed one after another in sample order.
    The radius and n_samples follow SmoothingConfig's rules, the policy has
    the instance's shape (T, k, d), and the slot must satisfy 0 <= t < T.
    """
    SmoothingConfig(radius, n_samples)
    K = _gains(policy, instance)
    T, k, d = K.shape
    _number(t, "slot t", 0, T - 1, whole=True)
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
        return estimate_gradient(sim, K, smoothing, seed, iteration=n)

    return _descent(instance, policy0, cfg, constraint, handle=sim, smoothing=smoothing, estimate=estimate,
                    cost_oracle=cost_oracle)


def run_modelfree_ppg(sim, policy0, cfg: DescentConfig, smoothing: SmoothingConfig, seed, constraint: ProjectionSet, *, cost_oracle=None):
    """Projected variant: every iterate is projected back onto the set."""
    return run_modelfree_pg(sim, policy0, cfg, smoothing, seed, cost_oracle=cost_oracle, constraint=constraint)
