"""Finite-horizon linear-quadratic control with additive noise.

State dynamics x_{t+1} = A x_t + B u_t + w_t over t = 0..T-1, cost

    sum_t (x_t' Q_t x_t + u_t' R_t u_t) + x_T' Q_T x_T,

policies are time-varying linear feedbacks u_t = -K_t x_t.  Everything here
is exact linear algebra: Riccati recursion, policy evaluation, closed-form
cost gradients, and seeded trajectory simulation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import HorizonTooShort, NonPositiveDefinite

# relative tolerance for "positive definite" checks
_PD_RTOL = 1e-12

_SQRT3 = np.sqrt(3.0)


_WORD = 0xFFFFFFFFFFFFFFFF


def _stream_words(seed) -> list[int]:
    """The five 64-bit words of a stream key, zero-padded."""
    if np.isscalar(seed):
        seed = [seed]
    words = [int(s) & _WORD for s in seed]
    if len(words) > 5:
        raise ValueError("seed tuples may have at most five elements")
    return words + [0] * (5 - len(words))


def make_rng(seed) -> np.random.Generator:
    """Deterministic counter-based generator keyed by an int or a tuple of
    up to five ints (seed, iteration, slot, sample, flag).

    The first two words key a Philox stream and the rest offset its counter's
    high words, so distinct tuples give independent streams and equal tuples
    reproduce draws bit for bit, independent of execution order.
    """
    words = _stream_words(seed)
    key = np.array(words[:2], dtype=np.uint64)
    counter = np.array([0, *words[2:]], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


class CounterStream:
    """One Philox generator that is re-keyed in place instead of rebuilt.

    After rekey(key) its draws equal make_rng(key)'s bit for bit, and a
    re-key costs a fraction of building a generator (about half of which is
    entropy seeding that the key then overrides).  A re-key goes through the
    public state setter: key = the first two words, counter = [0, *the other
    three], an empty output buffer (buffer_pos 4) and no pending 32-bit half
    word, which is the state a freshly built Philox starts in.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bitgen)
        self._key = [0, 0]
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, key) -> np.random.Generator:
        """The generator, reset to the state make_rng(key) starts in."""
        words = _stream_words(key)
        self._key[:] = words[:2]
        return self.rekey_tail(*words[2:])

    def rekey_tail(self, w2: int = 0, w3: int = 0, w4: int = 0) -> np.random.Generator:
        """rekey(key) for a key whose first two words are those of the last
        rekey and whose other words are w2, w3, w4, each in [0, 2**64).

        Skips the word arithmetic of rekey; the estimator re-keys once per
        sample and flag under a fixed (seed, iteration).
        """
        c = self._counter
        c[1], c[2], c[3] = w2, w3, w4
        self._bitgen.state = self._state
        return self.generator


def standard_draw(kind: str, rng: np.random.Generator, size) -> np.ndarray:
    """Standardized draw (zero mean, unit variance per coordinate) of a noise
    or initial-state kind: "gaussian", "uniform" on [-sqrt(3), sqrt(3)], or
    zeros for the degenerate kinds "zero" and "point", which consume nothing
    from the stream."""
    if kind == "gaussian":
        return rng.standard_normal(size)
    if kind == "uniform":
        return rng.uniform(-_SQRT3, _SQRT3, size=size)
    if kind in ("zero", "point"):
        return np.zeros(size)
    raise ValueError(f"unknown kind {kind!r}")


def _swap(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + _swap(M))


def _check_pd(M: np.ndarray, name: str, *, allow_psd: bool = False) -> None:
    M = np.asarray(M, dtype=float)
    if not np.allclose(M, M.T, atol=1e-10 * (1.0 + np.abs(M).max())):
        raise NonPositiveDefinite(f"{name} is not symmetric")
    eigmin = float(np.linalg.eigvalsh(M)[0])
    scale = 1.0 + float(np.linalg.norm(M, 2))
    if allow_psd:
        if eigmin < -_PD_RTOL * scale:
            raise NonPositiveDefinite(f"{name} is not positive semidefinite (min eig {eigmin:g})")
    elif eigmin <= _PD_RTOL * scale:
        raise NonPositiveDefinite(f"{name} is not positive definite (min eig {eigmin:g})")


def spd_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs for symmetric positive definite M via Cholesky."""
    c, low = sla.cho_factor(_sym(M), check_finite=False)
    return sla.cho_solve((c, low), rhs, check_finite=False)


@dataclass(frozen=True)
class NoiseModel:
    """Additive dynamics noise w_t = sigma * factor @ v_t.

    kind selects the distribution of the standardized draw v_t (unit variance
    per coordinate): "gaussian", "uniform" (uniform on [-sqrt(3), sqrt(3)]),
    or "zero".
    """

    kind: str
    sigma: float = 1.0
    factor: np.ndarray | None = None  # (d, d); identity if None

    def _factor(self, d: int) -> np.ndarray:
        return np.eye(d) if self.factor is None else np.asarray(self.factor, dtype=float)

    def covariance(self, d: int) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros((d, d))
        F = self._factor(d)
        return self.sigma**2 * (F @ F.T)

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "zero"):
            raise ValueError(f"unknown noise kind {self.kind!r}")

    def scale(self, v: np.ndarray) -> np.ndarray:
        """Noise vectors sigma * factor @ v_t from standardized draws v of shape (..., T, d)."""
        return self.sigma * (v @ self._factor(v.shape[-1]).T)

    def draw(self, rng: np.random.Generator, T: int, d: int) -> np.ndarray:
        """(T, d) array of noise vectors, consuming a deterministic number of draws."""
        if self.kind == "zero":
            return np.zeros((T, d))
        return self.scale(standard_draw(self.kind, rng, (T, d)))


@dataclass(frozen=True)
class InitialStateModel:
    """Initial state x_0 = mean + sigma * factor @ z_0, kinds as in NoiseModel.

    kind "point" puts all mass at mean.  Second moment is
    mean mean' + sigma^2 factor factor'.
    """

    kind: str
    mean: np.ndarray
    sigma: float = 1.0
    factor: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "point"):
            raise ValueError(f"unknown initial-state kind {self.kind!r}")

    def _factor(self, d: int) -> np.ndarray:
        return np.eye(d) if self.factor is None else np.asarray(self.factor, dtype=float)

    def second_moment(self) -> np.ndarray:
        mu = np.asarray(self.mean, dtype=float)
        d = mu.shape[0]
        S0 = np.outer(mu, mu)
        if self.kind != "point":
            F = self._factor(d)
            S0 = S0 + self.sigma**2 * (F @ F.T)
        return S0

    def place(self, z: np.ndarray) -> np.ndarray:
        """Initial states mean + sigma * factor @ z from standardized draws z of shape (..., d)."""
        mu = np.asarray(self.mean, dtype=float)
        return mu + self.sigma * (self._factor(mu.shape[0]) @ z[..., None])[..., 0]

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "point":
            return np.array(self.mean, dtype=float)
        return self.place(standard_draw(self.kind, rng, len(self.mean)))


@dataclass
class LqrInstance:
    """Problem data.  Q has T+1 slices (terminal last), R has T slices."""

    A: np.ndarray  # (d, d)
    B: np.ndarray  # (d, k)
    Q: np.ndarray  # (T+1, d, d)
    R: np.ndarray  # (T, k, k)
    noise: NoiseModel
    init: InitialStateModel
    validate: bool = True

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B[:, None]
        if self.Q.shape[0] < 2:
            raise HorizonTooShort("need at least one transition (T >= 1)")
        if self.Q.shape[0] != self.R.shape[0] + 1:
            raise ValueError("Q must have T+1 slices and R must have T")
        if self.validate:
            for t in range(self.T + 1):
                _check_pd(self.Q[t], f"Q[{t}]", allow_psd=False)
            for t in range(self.T):
                _check_pd(self.R[t], f"R[{t}]", allow_psd=False)
        else:
            for t in range(self.T):
                _check_pd(self.R[t], f"R[{t}]", allow_psd=False)
        self.Q = 0.5 * (self.Q + np.transpose(self.Q, (0, 2, 1)))
        self.R = 0.5 * (self.R + np.transpose(self.R, (0, 2, 1)))

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.B.shape[1]

    @property
    def T(self) -> int:
        return self.R.shape[0]

    def noise_covariance(self) -> np.ndarray:
        return self.noise.covariance(self.d)


def constant_instance(A, B, Q, R, Q_terminal, T, noise, init, **kw) -> LqrInstance:
    """Build an instance with time-invariant running Q, R and a terminal Q."""
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    Qs = np.concatenate([np.repeat(Q[None], T, axis=0), np.asarray(Q_terminal, dtype=float)[None]])
    Rs = np.repeat(R[None], T, axis=0)
    return LqrInstance(A, B, Qs, Rs, noise, init, **kw)


@dataclass
class RiccatiSolution:
    gains: np.ndarray  # (T, k, d) optimal K*_t
    P: np.ndarray  # (T+1, d, d) value matrices
    optimal_cost: float


@dataclass
class ValueBackup:
    """Closed-loop values of one policy; a batch of policies adds a leading axis to every field."""

    P: np.ndarray  # (T+1, d, d)
    L: np.ndarray  # (T+1,), noise-accumulated offsets, L[T] = 0
    cost: float  # trace(Sigma0 P0) + L0


@dataclass
class CovarianceProfile:
    """State second moments of one policy; a batch of policies adds a leading axis to every field."""

    sigmas: np.ndarray  # (T+1, d, d) state second moments under the policy
    aggregate: np.ndarray  # sum over t of sigmas[t]
    sigma_x: float  # min over t of the smallest eigenvalue of sigmas[t]


@dataclass
class Trajectory:
    states: np.ndarray  # (T+1, d)
    controls: np.ndarray  # (T, k)
    noises: np.ndarray  # (T, d)
    realized_cost: float


def _as_gain_array(policy, T: int, k: int, d: int) -> np.ndarray:
    K = np.asarray(policy, dtype=float)
    if K.shape != (T, k, d):
        raise ValueError(f"policy must have shape ({T}, {k}, {d}), got {K.shape}")
    return K


def solve_riccati(instance: LqrInstance) -> RiccatiSolution:
    """Backward Riccati recursion; returns optimal gains, value matrices, cost."""
    A, B = instance.A, instance.B
    T, d, k = instance.T, instance.d, instance.k
    W = instance.noise_covariance()
    P = np.empty((T + 1, d, d))
    gains = np.empty((T, k, d))
    P[T] = instance.Q[T]
    trace_noise = 0.0
    for t in range(T - 1, -1, -1):
        BtP = B.T @ P[t + 1]
        G = instance.R[t] + BtP @ B
        gains[t] = spd_solve(G, BtP @ A)
        P[t] = _sym(instance.Q[t] + A.T @ P[t + 1] @ A - A.T @ BtP.T @ gains[t])
        trace_noise += float(np.trace(W @ P[t + 1]))
    cost = float(np.trace(instance.init.second_moment() @ P[0])) + trace_noise
    return RiccatiSolution(gains=gains, P=P, optimal_cost=cost)


def _gain_batch(instance: LqrInstance, policy) -> np.ndarray:
    """Gains as an array of one policy (T, k, d) or a batch of n policies (n, T, k, d)."""
    K = np.asarray(policy, dtype=float)
    shape = (instance.T, instance.k, instance.d)
    if K.ndim not in (3, 4) or K.shape[-3:] != shape:
        raise ValueError(f"policy must have shape {shape} or (n, {', '.join(map(str, shape))}), got {K.shape}")
    return K


def backup_value(instance: LqrInstance, policy) -> ValueBackup:
    """Evaluate a linear policy: closed-loop value matrices P_t and offsets L_t.

    policy is one gain sequence (T, k, d) or a batch (n, T, k, d).  A batch
    runs as one stacked recursion whose every slice takes the operations of a
    single policy in the same order, so it equals per-policy calls bit for bit.
    """
    T = instance.T
    K = _gain_batch(instance, policy)
    batch = K.shape[:-3]
    W = instance.noise_covariance()
    M = instance.A - instance.B @ K
    stage = instance.Q[:T] + _swap(K) @ instance.R @ K
    P = np.empty((*batch, T + 1, instance.d, instance.d))
    P[..., T, :, :] = instance.Q[T]
    for t in range(T - 1, -1, -1):
        Mt = M[..., t, :, :]
        P[..., t, :, :] = _sym(stage[..., t, :, :] + _swap(Mt) @ P[..., t + 1, :, :] @ Mt)
    # L_t = L_{t+1} + tr(W P_{t+1}) from L_T = 0, accumulated backward in that order
    noise = np.trace(W @ P[..., :0:-1, :, :], axis1=-2, axis2=-1)
    L = np.cumsum(np.concatenate([np.zeros((*batch, 1)), noise], axis=-1), axis=-1)[..., ::-1].copy()
    cost = np.trace(instance.init.second_moment() @ P[..., 0, :, :], axis1=-2, axis2=-1) + L[..., 0]
    return ValueBackup(P=P, L=L, cost=cost)


def exact_cost(instance: LqrInstance, policy):
    """C(K) of one policy, or an (n,) array of costs of a batch of policies."""
    return backup_value(instance, policy).cost


def _second_moments(instance: LqrInstance, K: np.ndarray) -> np.ndarray:
    """Forward recursion Sigma_{t+1} = M_t Sigma_t M_t' + W from Sigma_0, shape (..., T+1, d, d)."""
    T, d = instance.T, instance.d
    W = instance.noise_covariance()
    M = instance.A - instance.B @ K
    sig = np.empty((*K.shape[:-3], T + 1, d, d))
    sig[..., 0, :, :] = instance.init.second_moment()
    for t in range(T):
        Mt = M[..., t, :, :]
        sig[..., t + 1, :, :] = _sym(Mt @ sig[..., t, :, :] @ _swap(Mt) + W)
    return sig


def covariance_profile(instance: LqrInstance, policy, *, warn_degenerate: bool = True) -> CovarianceProfile:
    """Forward second-moment recursion Sigma_{t+1} = M Sigma_t M' + W under the
    policy, for one policy (T, k, d) or a batch (n, T, k, d) as in backup_value."""
    sig = _second_moments(instance, _gain_batch(instance, policy))
    sigma_x = np.linalg.eigvalsh(sig)[..., 0].min(axis=-1)
    degenerate = sigma_x <= _PD_RTOL * (1.0 + np.abs(sig).max(axis=(-3, -2, -1)))
    if warn_degenerate and np.any(degenerate):
        warnings.warn("state covariance is degenerate (sigma_x ~ 0)", RuntimeWarning, stacklevel=2)
    return CovarianceProfile(sigmas=sig, aggregate=sig.sum(axis=-3), sigma_x=sigma_x)


def _gradient_terms(instance: LqrInstance, K: np.ndarray, P: np.ndarray, sigmas: np.ndarray):
    """(grads, E) with E_t = (R_t + B' P_{t+1} B) K_t - B' P_{t+1} A and grad_t = 2 E_t Sigma_t."""
    B = instance.B
    BtP = B.T @ P[..., 1:, :, :]
    E = (instance.R + BtP @ B) @ K - BtP @ instance.A
    return 2.0 * E @ sigmas[..., :-1, :, :], E


def _gradient_from_values(instance: LqrInstance, policy, P: np.ndarray) -> np.ndarray:
    """exact_gradient of one policy or a batch, given its value matrices
    P = backup_value(instance, policy).P, which a descent loop already holds."""
    K = _gain_batch(instance, policy)
    return _gradient_terms(instance, K, P, _second_moments(instance, K))[0]


def exact_gradient(instance: LqrInstance, policy, *, return_terms: bool = False):
    """Cost gradient w.r.t. each gain: grad_t = 2 E_t Sigma_t with
    E_t = (R_t + B' P_{t+1} B) K_t - B' P_{t+1} A, for one policy (T, k, d)
    or a batch (n, T, k, d).

    With return_terms=True, also returns (E, backup, profile).
    """
    K = _gain_batch(instance, policy)
    bk = backup_value(instance, K)
    if not return_terms:
        return _gradient_from_values(instance, K, bk.P)
    prof = covariance_profile(instance, K, warn_degenerate=False)
    grads, E = _gradient_terms(instance, K, bk.P, prof.sigmas)
    return grads, E, bk, prof


def operator_decomposition(instance: LqrInstance, policy) -> tuple[np.ndarray, np.ndarray]:
    """Split the aggregate state second moment into the part propagated from
    Sigma_0 and the part injected by the noise.

    Returns (T_K, Delta) with T_K + Delta == covariance_profile(...).aggregate:

        T_K   = Sigma_0 + sum_{t=0}^{T-1} Phi_t Sigma_0 Phi_t'
        Delta = sum_{t=1}^{T-1} sum_{s=1}^{t} D_{t,s} W D_{t,s}' + T W

    where Phi_t = prod_{i=0}^{t} (A - B K_i) and D_{t,s} = prod_{u=s}^{t} (A - B K_u).
    """
    A, B = instance.A, instance.B
    T, d = instance.T, instance.d
    K = _as_gain_array(policy, T, instance.k, d)
    W = instance.noise_covariance()
    S0 = instance.init.second_moment()
    M = [A - B @ K[t] for t in range(T)]
    tk = S0.copy()
    Phi = np.eye(d)
    for t in range(T):
        Phi = M[t] @ Phi
        tk = tk + Phi @ S0 @ Phi.T
    delta = T * W
    for t in range(1, T):
        D = np.eye(d)
        for u in range(t, 0, -1):  # build prod_{u=s}^{t} M_u by extending leftward in s
            D = D @ M[u]
            delta = delta + D @ W @ D.T
    return tk, delta


def simulate_trajectory(instance: LqrInstance, policy, seed) -> Trajectory:
    """Roll one trajectory under u_t = -K_t x_t with seeded noise.

    Seed may be an int or a tuple of ints (counter-style stream key);
    identical seeds reproduce the trajectory bit for bit.
    """
    T, d, k = instance.T, instance.d, instance.k
    K = _as_gain_array(policy, T, k, d)
    rng = make_rng(seed)
    x = instance.init.draw(rng)
    w = instance.noise.draw(rng, T, d)
    states = np.empty((T + 1, d))
    controls = np.empty((T, k))
    states[0] = x
    cost = 0.0
    for t in range(T):
        u = -K[t] @ x
        controls[t] = u
        cost += float(x @ instance.Q[t] @ x + u @ instance.R[t] @ u)
        x = instance.A @ x + instance.B @ u + w[t]
        states[t + 1] = x
    cost += float(x @ instance.Q[T] @ x)
    return Trajectory(states=states, controls=controls, noises=w, realized_cost=cost)


def sample_paths(instance: LqrInstance, rngs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start states (n, d) and noise sequences (n, T, d) from n freshly keyed
    generators, each drawn as simulate_trajectory draws from its stream.

    When the initial state and the noise are of one kind, a single call per
    stream takes both, which yields the same numbers as two calls.
    """
    T, d = instance.T, instance.d
    init, noise = instance.init, instance.noise
    parts = []  # [kind, width] of each draw call per stream, in stream order
    if init.kind != "point":
        parts.append([init.kind, d])
    if noise.kind != "zero":
        if parts and parts[0][0] == noise.kind:
            parts[0][1] += T * d
        else:
            parts.append([noise.kind, T * d])
    z = np.empty((n, sum(width for _, width in parts)))
    if parts:
        for rng, row in zip(rngs, z):
            lo = 0
            for kind, width in parts:
                row[lo:lo + width] = standard_draw(kind, rng, width)
                lo += width
    if init.kind == "point":
        x0 = np.tile(np.asarray(init.mean, dtype=float), (n, 1))
        z_noise = z
    else:
        x0 = init.place(z[:, :d])
        z_noise = z[:, d:]
    w = np.zeros((n, T, d)) if noise.kind == "zero" else noise.scale(z_noise.reshape(n, T, d))
    return x0, w


def pathwise_cost_terms(instance: LqrInstance, policy, traj: Trajectory, backup: ValueBackup | None = None):
    """Exact per-trajectory cost decomposition under the closed-loop value matrices:

        realized_cost = x_0' P_0 x_0
                      + sum_t w_t' P_{t+1} w_t
                      + sum_t 2 w_t' P_{t+1} (A - B K_t) x_t

    Returns (initial_term, noise_quadratic, noise_state_cross).  The first two
    terms alone reproduce the cost in expectation only; the cross term is the
    zero-mean remainder that makes the identity hold path by path.
    """
    T = instance.T
    K = _as_gain_array(policy, T, instance.k, instance.d)
    bk = backup if backup is not None else backup_value(instance, K)
    x0 = traj.states[0]
    head = float(x0 @ bk.P[0] @ x0)
    quad = 0.0
    cross = 0.0
    for t in range(T):
        w = traj.noises[t]
        Pn = bk.P[t + 1]
        quad += float(w @ Pn @ w)
        M = instance.A - instance.B @ K[t]
        cross += 2.0 * float(w @ Pn @ (M @ traj.states[t]))
    return head, quad, cross
