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
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import HorizonTooShort, NonPositiveDefinite

# relative tolerance for "positive definite" checks
_PD_RTOL = 1e-12

_SQRT3 = np.sqrt(3.0)
_SQRT_HALF = np.sqrt(0.5)

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


_STREAM_CHUNK = 4096  # path rows per pass of stream_paths, which bounds the working memory


def _standardize(kind: str, z: np.ndarray) -> np.ndarray:
    """Standard normals z as standardized draws of a kind, in place: a
    Gaussian keeps them, a uniform is sqrt(3) erf(z sqrt(1/2)), which is
    sqrt(3) (2 Phi(z) - 1) for the normal CDF Phi, uniform on
    [-sqrt(3), sqrt(3)] as Phi(z) is on [0, 1]."""
    if kind == "uniform":
        # imported at the first uniform draw, not with lqrlab: on a 2-CPU
        # x86-64 box, importing scipy.special adds 50-90 ms and about 2.6 MB of RSS
        from scipy.special import erf

        z *= _SQRT_HALF
        erf(z, out=z)
        z *= _SQRT3
    return z


def _sym(M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (M + M'), bit for bit, into out if given."""
    out = np.add(M, M.swapaxes(-1, -2), out=out)
    out *= 0.5
    return out


def _check_stack(M: np.ndarray, name: str) -> None:
    """Raise NonPositiveDefinite for the first slice M[t] of a (n, d, d) stack
    that is not symmetric (np.allclose(M[t], M[t]', atol=1e-10 (1 + max|M[t]|)))
    or not positive definite (min eig <= 1e-12 (1 + max|eig|), max|eig| being
    the 2-norm of a symmetric matrix) or not finite, in one vectorised pass."""
    Mt = M.swapaxes(-1, -2)
    atol = 1e-10 * (1.0 + np.abs(M).max(axis=(-2, -1), keepdims=True))
    with np.errstate(invalid="ignore"):
        close = (np.abs(M - Mt) <= atol + 1e-5 * np.abs(Mt)) & np.isfinite(Mt) | (M == Mt)  # np.isclose's test
    symmetric = close.all(axis=(-2, -1))
    finite = np.isfinite(M).all(axis=(-2, -1))
    eig = np.linalg.eigvalsh(np.where((symmetric & finite)[:, None, None], M, 0.0))
    eigmin = np.where(finite, eig[:, 0], np.nan)
    definite = eigmin > _PD_RTOL * (1.0 + np.abs(eig).max(axis=-1))
    bad = np.flatnonzero(~(symmetric & definite))
    if bad.size:
        t = bad[0]
        if not symmetric[t]:
            raise NonPositiveDefinite(f"{name}[{t}] is not symmetric")
        raise NonPositiveDefinite(f"{name}[{t}] is not positive definite (min eig {eigmin[t]:g})")


def spd_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs for symmetric positive definite M via Cholesky: the
    LAPACK calls of scipy's cho_factor and cho_solve (upper factor), without
    their per-call wrappers."""
    c, info = sla.lapack.dpotrf(_sym(M), lower=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return sla.lapack.dpotrs(c, rhs, lower=False)[0]


class _Factored:
    """The sampler of a start or noise model: sigma * factor @ v for standardized
    draws v (_standardize), the factor a (d, d) array or None for the identity.
    A model names its degenerate kind (_DEGENERATE), which draws nothing, and
    its own matrix form of factor @ v (_times)."""

    kind: str
    sigma: float
    factor: np.ndarray | None

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", self._DEGENERATE):
            raise ValueError(f"unknown {type(self).__name__} kind {self.kind!r}")

    def covariance(self, d: int) -> np.ndarray:
        """sigma^2 factor factor', the covariance about the mean; zeros for the degenerate kind."""
        if self.kind == self._DEGENERATE:
            return np.zeros((d, d))
        F = np.eye(d) if self.factor is None else np.asarray(self.factor, dtype=float)
        return self.sigma**2 * (F @ F.T)

    @cached_property
    def _reads(self) -> tuple:
        """(c, product): a draw takes c numbers a vector, one per live
        (nonzero) column of the factor F, c = None for all d of the identity,
        and F @ v reads them as product: (src, coef) over the c numbers when
        each row of F has at most one nonzero entry (vectors), else F's c
        live columns, a (d, c) matrix (F itself when every column is live,
        so its products keep their bits).  A factor without a live column
        reads one number a vector, times zeros."""
        if self.factor is None:
            return None, (slice(None), 1.0)
        F = np.asarray(self.factor, dtype=float)
        nonzero = F != 0
        if (nonzero.sum(axis=1) > 1).any():
            live = nonzero.any(axis=0)
            return int(live.sum()), F if live.all() else F[:, live]
        # row r reads column pick[r], a zero row the first live column (column 0
        # when none is live) with its entry, a zero
        pick = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), nonzero.any(axis=0).argmax())
        cols, src = np.unique(pick, return_inverse=True)
        return len(cols), (src, F[np.arange(len(F)), pick])

    def _width(self, d: int) -> int:
        """The numbers a draw takes per vector of d states: none for the degenerate kind."""
        return 0 if self.kind == self._DEGENERATE else self._reads[0] or d

    def vectors(self, z: np.ndarray, d: int) -> np.ndarray:
        """Vectors (..., d) from standard normals z (..., _width(d)), standardized
        in place: zeros for the degenerate kind, else sigma * factor @ v."""
        if self.kind == self._DEGENERATE:
            return np.zeros((*z.shape[:-1], d))
        v = _standardize(self.kind, z)
        product = self._reads[1]
        if not isinstance(product, tuple):
            return self.sigma * self._times(product, v)
        # each row of the factor reads one column, product = (src, coef): the
        # model's matrix form bit for bit, as every coordinate of the matrix
        # product is one exactly rounded product plus zero terms, on a sum that
        # starts from +0.0, and the + 0.0 here turns a -0.0 product into that +0.0
        out = v[..., product[0]] * product[1]
        out += 0.0
        out *= self.sigma
        return out

    def sample(self, rng: np.random.Generator, shape: tuple, d: int) -> np.ndarray:
        """vectors of the next (*shape, _width(d)) standard normals of rng; a
        zero-size draw (the degenerate kind) leaves the stream where it was."""
        return self.vectors(rng.standard_normal((*shape, self._width(d))), d)


@dataclass(frozen=True)
class NoiseModel(_Factored):
    """Additive dynamics noise w_t = sigma * factor @ v_t.

    kind selects the distribution of the standardized draw v_t (unit variance
    per coordinate): "gaussian", "uniform" (uniform on [-sqrt(3), sqrt(3)]),
    or "zero".
    """

    _DEGENERATE = "zero"

    kind: str
    sigma: float = 1.0
    factor: np.ndarray | None = None  # (d, d); identity if None

    @staticmethod
    def _times(F: np.ndarray, v: np.ndarray) -> np.ndarray:  # F @ v changes bits, and is slower where rows mix columns
        return v @ F.T  # one product a stack (..., T, c)

    def draw(self, rng: np.random.Generator, T: int, d: int) -> np.ndarray:
        """(T, d) array of noise vectors from the next T * c standard normals
        of rng, c per vector (_Factored._width); none for the zero kind."""
        return self.sample(rng, (T,), d)


@dataclass(frozen=True)
class InitialStateModel(_Factored):
    """Initial state x_0 = mean + sigma * factor @ z_0, kinds as in NoiseModel.

    kind "point" puts all mass at mean.  Second moment is
    mean mean' + sigma^2 factor factor'.
    """

    _DEGENERATE = "point"

    kind: str
    mean: np.ndarray
    sigma: float = 1.0
    factor: np.ndarray | None = None

    def second_moment(self) -> np.ndarray:
        mu = np.asarray(self.mean, dtype=float)
        S0 = np.outer(mu, mu)
        return S0 if self.kind == "point" else S0 + self.covariance(len(mu))

    @staticmethod
    def _times(F: np.ndarray, z: np.ndarray) -> np.ndarray:  # z @ F.T makes a batch row differ from a single draw
        return (F @ z[..., None])[..., 0]  # one product a vector (..., c)

    def vectors(self, z: np.ndarray, d: int) -> np.ndarray:
        """mean + the sampler's vectors: the mean itself, bit for bit, for the point kind."""
        x = super().vectors(z, d)
        if self.kind == "point":
            x[...] = self.mean
        else:
            x += self.mean
        return x

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """The start state from the next c standard normals of rng
        (_Factored._width); none for the point kind."""
        return self.sample(rng, (), len(self.mean))


def _check_model(model, name: str, d: int) -> None:
    """ValueError naming the first field of a start or noise model that does
    not fit d states: a mean of length d and finite and, unless the kind is
    degenerate ("point", "zero", which read neither), a finite sigma and a
    (d, d) finite factor."""
    reads = model.kind != model._DEGENERATE
    if reads and not np.isfinite(model.sigma):
        raise ValueError(f"{name}.sigma must be finite, got {model.sigma!r}")
    for part, shape in (("factor", (d, d)), ("mean", (d,))):
        value = getattr(model, part, None)
        if value is None or (part == "factor" and not reads):
            continue
        value = np.asarray(value, dtype=float)
        if value.shape != shape:
            raise ValueError(f"{name}.{part} must have shape {shape}, got {value.shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name}.{part} must be finite")


@dataclass
class LqrInstance:
    """Problem data.  Q has T+1 slices (terminal last), R has T slices.

    Construction checks every R_t (and every Q_t when validate) once, in one
    pass per stack, and that the start and noise models fit d states
    (ValueError naming the field otherwise), symmetrises Q and R, and
    computes the noise covariance W and the start second moment S0 as
    read-only arrays.  Derive a changed instance with dataclasses.replace,
    which does all of that again; a field assigned afterwards is neither
    checked nor seen by W and S0.
    """

    A: np.ndarray  # (d, d)
    B: np.ndarray  # (d, k)
    Q: np.ndarray  # (T+1, d, d)
    R: np.ndarray  # (T, k, k)
    noise: NoiseModel
    init: InitialStateModel
    validate: bool = True
    W: np.ndarray = field(init=False, repr=False, compare=False)  # (d, d) noise covariance
    S0: np.ndarray = field(init=False, repr=False, compare=False)  # (d, d) second moment of x_0

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
            _check_stack(self.Q, "Q")
        _check_stack(self.R, "R")
        _check_model(self.noise, "noise", self.d)
        _check_model(self.init, "init", self.d)
        self.Q = _sym(self.Q)
        self.R = _sym(self.R)
        self.W = self.noise.covariance(self.d)
        self.S0 = self.init.second_moment()
        for moment in (self.W, self.S0):
            moment.setflags(write=False)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.B.shape[1]

    @property
    def T(self) -> int:
        return self.R.shape[0]


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
    noises: np.ndarray  # (T, d)
    realized_cost: float


def _as_gain_array(policy, T: int, k: int, d: int) -> np.ndarray:
    K = np.asarray(policy, dtype=float)
    if K.shape != (T, k, d):
        raise ValueError(f"policy must have shape ({T}, {k}, {d}), got {K.shape}")
    return K


def solve_riccati(instance: LqrInstance) -> RiccatiSolution:
    """Backward Riccati recursion; returns optimal gains, value matrices, cost."""
    A, B, Q, R, W = instance.A, instance.B, instance.Q, instance.R, instance.W
    At, Bt = A.T, B.T
    T, d, k = instance.T, instance.d, instance.k
    P = np.empty((T + 1, d, d))
    gains = np.empty((T, k, d))
    P[T] = Q[T]
    trace_noise = 0.0
    for t in range(T - 1, -1, -1):
        BtP = Bt @ P[t + 1]
        gains[t] = spd_solve(R[t] + BtP @ B, BtP @ A)
        _sym(Q[t] + At @ P[t + 1] @ A - At @ BtP.T @ gains[t], out=P[t])
        trace_noise += float((W @ P[t + 1]).trace())
    cost = float((instance.S0 @ P[0]).trace()) + trace_noise
    return RiccatiSolution(gains=gains, P=P, optimal_cost=cost)


def _gain_batch(instance: LqrInstance, policy) -> np.ndarray:
    """Gains as an array of one policy (T, k, d) or a batch of n policies (n, T, k, d)."""
    K = np.asarray(policy, dtype=float)
    shape = (instance.T, instance.k, instance.d)
    if K.ndim not in (3, 4) or K.shape[-3:] != shape:
        raise ValueError(f"policy must have shape {shape} or (n, {', '.join(map(str, shape))}), got {K.shape}")
    return K


def _closed_loop(instance: LqrInstance, K: np.ndarray, *, values: bool = True, moments: bool = True):
    """(P, sigmas) of gains K (T, k, d) or (n, T, k, d), each (..., T+1, d, d) or
    None where not asked for.  With M_t = A - B K_t, the value chain P_t = Q_t +
    K_t'R_t K_t + M_t'P_{t+1} M_t from Q_T and the moment chain Sigma_{t+1} = W +
    M_t Sigma_t M_t' from S0 both read X <- _sym(add + N'X N), N = M_t or M_t',
    and advance stacked on one axis.  Every slice takes the operations of its
    own chain and policy in the same order, so it equals that chain run alone."""
    T = instance.T
    M = (instance.A - instance.B @ K).swapaxes(0, -3)  # step-major: (T, ..., d, d)
    chains = []  # (start, N, add), step-major in the order the chain runs
    if values:
        stage = (instance.Q[:T] + K.swapaxes(-1, -2) @ instance.R @ K).swapaxes(0, -3)
        chains.append((instance.Q[T], M[::-1], stage[::-1]))
    if moments:  # W spans the steps by broadcasting alone, by assignment in a stack
        chains.append((instance.S0, M.swapaxes(-1, -2), instance.W if values else np.broadcast_to(instance.W, M.shape)))
    if len(chains) == 1:  # views: copying a large batch costs more than the matmuls save
        N, add = (part[:, None] for part in chains[0][1:])
    else:  # contiguous copies: a matmul with a transposed right operand takes up to twice as long
        N, add = np.empty((2, T, len(chains), *M.shape[1:]))
        for c, (_, *parts) in enumerate(chains):
            N[:, c], add[:, c] = parts
    X = np.empty((T + 1, *N.shape[1:]))  # the iterates of every chain, step-major
    for c, (start, *_) in enumerate(chains):
        X[0, c] = start
    for n, nt, a, x, out in zip(N, N.swapaxes(-1, -2), add, X, X[1:]):
        _sym(a + nt @ x @ n, out=out)
    # back to (..., T+1, d, d), the value chain in the order of time
    P = np.ascontiguousarray(X[::-1, 0].swapaxes(0, -3)) if values else None
    sig = np.ascontiguousarray(X[:, -1].swapaxes(0, -3)) if moments else None
    return P, sig


def _value_backup(instance: LqrInstance, P: np.ndarray) -> ValueBackup:
    """ValueBackup of the value matrices P (..., T+1, d, d) of a policy or a batch."""
    # L_t = L_{t+1} + tr(W P_{t+1}) from L_T = 0, accumulated backward in that order
    noise = (instance.W @ P[..., :0:-1, :, :]).trace(axis1=-2, axis2=-1)
    L = np.cumsum(np.concatenate([np.zeros((*P.shape[:-3], 1)), noise], axis=-1), axis=-1)[..., ::-1].copy()
    cost = (instance.S0 @ P[..., 0, :, :]).trace(axis1=-2, axis2=-1) + L[..., 0]
    return ValueBackup(P=P, L=L, cost=cost)


def backup_value(instance: LqrInstance, policy) -> ValueBackup:
    """Closed-loop value matrices P_t and offsets L_t of one policy (T, k, d) or
    a batch (n, T, k, d), from the value chain of _closed_loop, so a batch
    equals per-policy calls bit for bit."""
    return _value_backup(instance, _closed_loop(instance, _gain_batch(instance, policy), moments=False)[0])


def exact_cost(instance: LqrInstance, policy):
    """C(K) of one policy, or an (n,) array of costs of a batch of policies."""
    return backup_value(instance, policy).cost


def covariance_profile(instance: LqrInstance, policy) -> CovarianceProfile:
    """State second moments Sigma_{t+1} = M_t Sigma_t M_t' + W under one policy
    (T, k, d) or a batch (n, T, k, d), from the moment chain of _closed_loop;
    warns (RuntimeWarning) when some Sigma_t is degenerate (sigma_x ~ 0)."""
    sig = _closed_loop(instance, _gain_batch(instance, policy), values=False)[1]
    sigma_x = np.linalg.eigvalsh(sig)[..., 0].min(axis=-1)
    if np.any(sigma_x <= _PD_RTOL * (1.0 + np.abs(sig).max(axis=(-3, -2, -1)))):
        warnings.warn("state covariance is degenerate (sigma_x ~ 0)", RuntimeWarning, stacklevel=2)
    return CovarianceProfile(sigmas=sig, aggregate=sig.sum(axis=-3), sigma_x=sigma_x)


def _gradient_terms(instance: LqrInstance, K: np.ndarray, P: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """grad_t = 2 E_t Sigma_t with E_t = (R_t + B' P_{t+1} B) K_t - B' P_{t+1} A."""
    B = instance.B
    BtP = B.T @ P[..., 1:, :, :]
    E = (instance.R + BtP @ B) @ K - BtP @ instance.A
    return 2.0 * E @ sigmas[..., :-1, :, :]


def exact_gradient(instance: LqrInstance, policy) -> np.ndarray:
    """Cost gradient w.r.t. each gain: grad_t = 2 E_t Sigma_t with
    E_t = (R_t + B' P_{t+1} B) K_t - B' P_{t+1} A, for one policy (T, k, d)
    or a batch (n, T, k, d), P and Sigma from one pass of _closed_loop."""
    K = _gain_batch(instance, policy)
    return _gradient_terms(instance, K, *_closed_loop(instance, K))


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
    W, S0 = instance.W, instance.S0
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
    states[0] = x
    cost = 0.0
    for t in range(T):
        u = -K[t] @ x
        cost += float(x @ instance.Q[t] @ x + u @ instance.R[t] @ u)
        x = instance.A @ x + instance.B @ u + w[t]
        states[t + 1] = x
    cost += float(x @ instance.Q[T] @ x)
    return Trajectory(states=states, noises=w, realized_cost=cost)


def stream_paths(instance: LqrInstance, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start states (n, d) and noise (n, T, d) of the next n path rows of
    rng's stream.  A row takes the N standard normals simulate_trajectory
    draws, start state first, then noise, one per live factor column of a
    vector (_Factored._width; none for a point start or zero noise, 11 on
    zo-liquidation), mapped by the models' vectors, so row j is the (j + 1)-th
    pair of init.draw and noise.draw on the stream, bit for bit, and the
    stream ends n * N numbers on.  Rows are drawn in passes of _STREAM_CHUNK,
    which bounds the working memory beyond the result."""
    T, d = instance.T, instance.d
    if n > _STREAM_CHUNK:
        x0, w = np.empty((n, d)), np.empty((n, T, d))
        for lo in range(0, n, _STREAM_CHUNK):
            x0[lo:lo + _STREAM_CHUNK], w[lo:lo + _STREAM_CHUNK] = stream_paths(instance, rng, min(_STREAM_CHUNK, n - lo))
        return x0, w
    init, noise = instance.init, instance.noise
    a, c = init._width(d), noise._width(d)
    z = rng.standard_normal((n, a + T * c))
    return init.vectors(z[:, :a], d), noise.vectors(z[:, a:].reshape(n, T, c), d)


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
