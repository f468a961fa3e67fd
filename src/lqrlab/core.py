"""Finite-horizon linear-quadratic control with additive noise.

State dynamics x_{t+1} = A x_t + B u_t + w_t over t = 0..T-1, cost

    sum_t (x_t' Q_t x_t + u_t' R_t u_t) + x_T' Q_T x_T,

policies are time-varying linear feedbacks u_t = -K_t x_t.  Everything here
is exact linear algebra: Riccati recursion, policy evaluation, closed-form
cost gradients, and seeded trajectory simulation.
"""

from __future__ import annotations

import operator
import threading
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import HorizonTooShort, NonPositiveDefinite

# relative tolerance for "positive definite" checks
_PD_RTOL = 1e-12

_MAX = float(np.finfo(float).max)  # the default bounds of _number: every finite float


def _number(value, name: str, low: float = -_MAX, high: float = _MAX, *, above: bool = False, whole: bool = False):
    """value if it is a real number (an integer if whole) but not a bool, with
    low <= value <= high (low < value if above); else ValueError naming name.
    NaN is in no range, so a number is finite unless a bound is infinite."""
    if not isinstance(value, bool) and isinstance(value, Integral if whole else Real) and (low < value if above else low <= value) and value <= high:
        return value
    bound = "positive" if above and low == 0 else f"{'>' if above else '>='} {low:g}"
    if high < _MAX:
        span = f"in {'(' if above else '['}{low:g}, {high:g}]"
    else:
        span = "a real number" if low == -np.inf else "finite" if low == -_MAX else bound if whole else f"finite and {bound}"
    raise ValueError(f"{name} must be {'an integer ' if whole else ''}{span}, got {value!r}")


_SQRT3 = np.sqrt(3.0)
_SQRT_HALF = np.sqrt(0.5)

_WORD = 0xFFFFFFFFFFFFFFFF


def _stream_key(seed) -> tuple[list[int], list[int]]:
    """(counter, key) of the Philox stream of a stream key, an int or a tuple
    of up to five ints, as 64-bit words: the first two words key the stream
    and the rest, zero-padded, are the counter's high words.  Python and
    numpy integers alone are words (TypeError naming the seed otherwise), so
    1.5, "3" or None name no stream; negative words wrap to two's complement."""
    try:
        words = [operator.index(seed)] if isinstance(seed, (int, np.integer)) else [operator.index(w) for w in seed]
    except TypeError:
        raise TypeError(f"a stream key is an integer or a tuple of integers, got {seed!r}") from None
    if len(words) > 5:
        raise ValueError("seed tuples may have at most five elements")
    words = [w & _WORD for w in words] + [0] * (5 - len(words))
    return [0, *words[2:]], words[:2]


def make_rng(seed) -> np.random.Generator:
    """Deterministic counter-based generator keyed by an int or a tuple of
    up to five ints (seed, iteration, slot, sample, flag).

    The first two words key a Philox stream and the rest offset its counter's
    high words, so distinct tuples give independent streams and equal tuples
    reproduce draws bit for bit, independent of execution order.  Each call
    builds a fresh generator of the caller's own, which pickles.  A key that
    is not an integer or a tuple of integers is a TypeError.
    """
    counter, key = _stream_key(seed)
    return np.random.Generator(np.random.Philox(counter=np.array(counter, dtype=np.uint64),
                                                key=np.array(key, dtype=np.uint64)))


_local = threading.local()  # _stream_normals' generator, one a thread


def _stream_normals(seed, shape) -> np.ndarray:
    """make_rng(seed).standard_normal(shape), bit for bit, in a new array,
    drawn on one generator a thread that is reset to the start of the stream,
    the key and counter of _stream_key with an empty buffer, as make_rng
    builds it: building a Philox seeds an entropy SeedSequence that the key
    then replaces (11-18 us a call on a 2-vCPU x86-64 VM), a reset takes
    about 1 us."""
    counter, key = _stream_key(seed)
    try:
        rng = _local.rng
    except AttributeError:
        rng = _local.rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                               "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng.standard_normal(shape)


def _standardize(kind: str, z: np.ndarray) -> np.ndarray:
    """Standard normals z as standardized draws of a kind, in place: a
    Gaussian keeps them, a uniform is sqrt(3) erf(z sqrt(1/2)), which is
    sqrt(3) (2 Phi(z) - 1) for the normal CDF Phi, uniform on
    [-sqrt(3), sqrt(3)] as Phi(z) is on [0, 1]."""
    if kind == "uniform":
        # imported at the first uniform draw: lqrlab imports no other scipy module,
        # and the top-level package only when the CLI writes a manifest; on a 2-CPU
        # x86-64 box, importing scipy.special adds 280-360 ms and 19-25 MB of RSS
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


def _check_stack(M: np.ndarray, name: str, last: bool = False) -> None:
    """Raise NonPositiveDefinite for the first slice M[t] (the last if last)
    of a (n, d, d) stack that is not finite, not symmetric (np.allclose(M[t],
    M[t]', atol=1e-10 (1 + max|M[t]|))) or not positive definite (min eig <=
    1e-12 (1 + max|eig|), max|eig| being the 2-norm of a symmetric matrix),
    in one vectorised pass."""
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
        t = bad[-1] if last else bad[0]
        if not (finite[t] and symmetric[t]):
            raise NonPositiveDefinite(f"{name}[{t}] is not {'symmetric' if finite[t] else 'finite'}")
        raise NonPositiveDefinite(f"{name}[{t}] is not positive definite (min eig {eigmin[t]:g})")


def spd_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs for the symmetric part of M with numpy's LAPACK solve
    (LU with partial pivoting), so that lqrlab needs no scipy.linalg.  It
    rounds otherwise than a Cholesky solve (LAPACK dpotrf and dpotrs) and
    does not check that M is positive definite: np.linalg.LinAlgError only
    if M is exactly singular."""
    return np.linalg.solve(_sym(M), rhs)


class _Factored:
    """The sampler of a start or noise model: sigma * factor @ v for standardized
    draws v (_standardize), the factor a (d, d) array or None for the identity.
    A draw reads one number a vector per live (nonzero) column of the factor
    (_reads), and every factor, whatever its zeros, takes one product path: the
    model's own matrix form of factor @ v (_times) on those columns, so vectors
    come back row-major.  A model names its degenerate kind (_DEGENERATE),
    which draws nothing."""

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
        """(c, F_live): a draw takes c numbers a vector, one per live (nonzero)
        column of the factor F, and F_live is F restricted to those columns
        (F itself when every column is live, so its products keep their bits);
        (None, None) for the identity, which reads all d.  A factor without a
        live column reads one number a vector, through its first column."""
        if self.factor is None:
            return None, None
        F = np.asarray(self.factor, dtype=float)
        live = (F != 0).any(axis=0)
        if not live.any():
            live[0] = True
        return int(live.sum()), F if live.all() else F[:, live]

    def _width(self, d: int) -> int:
        """The numbers a draw takes per vector of d states: none for the degenerate kind."""
        return 0 if self.kind == self._DEGENERATE else self._reads[0] or d

    def vectors(self, z: np.ndarray, d: int) -> np.ndarray:
        """Vectors (..., d) from standard normals z (..., _width(d)), standardized
        in place: zeros for the degenerate kind, else sigma * F_live @ v in a new
        array, v + 0.0 standing for the identity's product."""
        if self.kind == self._DEGENERATE:
            return np.zeros((*z.shape[:-1], d))
        v = _standardize(self.kind, z)
        F = self._reads[1]
        out = v + 0.0 if F is None else self._times(F, v)
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
        of rng, c per vector (_Factored._width); none for the zero kind: the
        stream tests' reference for path_normals, traced by name in perfbench."""
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
        (_Factored._width); none for the point kind: the stream tests'
        reference for path_normals, traced by name in perfbench."""
        return self.sample(rng, (), len(self.mean))


def _check_model(model, name: str, d: int) -> None:
    """ValueError naming the first field of a start or noise model that does
    not fit d states: a mean of length d and finite and, unless the kind is
    degenerate ("point", "zero", which read neither), a finite sigma and a
    (d, d) finite factor."""
    reads = model.kind != model._DEGENERATE
    if reads:
        _number(model.sigma, f"{name}.sigma")
    for part, shape in (("factor", (d, d)), ("mean", (d,))):
        value = getattr(model, part, None)
        if value is not None and (part == "mean" or reads):
            _check_array(value, f"{name}.{part}", shape)


def _check_array(value, name: str, shape: tuple) -> None:
    """ValueError naming an array that does not have shape or is not finite."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")


@dataclass
class LqrInstance:
    """Problem data.  Q has T+1 slices (terminal last), R has T slices.

    Construction checks that A is a finite (d, d) array and B a finite
    (d, k) array, every R_t and Q_t once, in one pass per stack (validate=False
    only checks that Q is finite), and that the start and noise models fit d
    states (ValueError naming the field otherwise), symmetrises Q and R, and
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
        d = len(self.A) if self.A.ndim else 1
        _check_array(self.A, "A", (d, d))
        _check_array(self.B, "B", (d, self.B.shape[1] if self.B.ndim > 1 else 1))
        if self.Q.ndim != 3:
            raise ValueError(f"Q must have shape (T + 1, {d}, {d}), got {self.Q.shape}")
        if self.Q.shape[0] < 2:
            raise HorizonTooShort("need at least one transition (T >= 1)")
        T, k = self.Q.shape[0] - 1, self.B.shape[1]
        for name, M, shape in (("Q", self.Q, (T + 1, d, d)), ("R", self.R, (T, k, k))):
            if M.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {M.shape}")
        if self.validate:
            _check_stack(self.Q, "Q")
        else:  # the waiver skips the positive-definiteness test alone
            _check_array(self.Q, "Q", self.Q.shape)
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


def constant_instance(A, B, Q, R, Q_terminal, T, noise, init) -> LqrInstance:
    """Build an instance with time-invariant running Q, R and a terminal Q."""
    Q, R, Q_terminal = (np.asarray(M, dtype=float) for M in (Q, R, Q_terminal))
    if Q.shape != Q_terminal.shape:  # name the one that does not fit A, not concatenate's message
        name, M = ("Q_terminal", Q_terminal) if Q.shape == np.shape(A)[:1] * 2 else ("Q", Q)
        raise ValueError(f"{name} must have shape {np.shape(A)[:1] * 2}, got {M.shape}")
    Qs = np.concatenate([np.repeat(Q[None], T, axis=0), Q_terminal[None]])
    Rs = np.repeat(R[None], T, axis=0)
    return LqrInstance(A, B, Qs, Rs, noise, init)


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
    """One rolled trajectory; a batch of n rows (LqrSimulator.trajectories) adds a leading axis to every field."""

    states: np.ndarray  # (T+1, d)
    noises: np.ndarray  # (T, d)
    realized_cost: float


def _gains(policy, dims, *, batch: bool = False) -> np.ndarray:
    """policy as a float array of the gains (T, k, d) of dims, an instance or
    a simulator handle, or with batch also a stack (n, T, k, d) of them;
    ValueError naming policy for any other shape."""
    K = np.asarray(policy, dtype=float)
    shape = (dims.T, dims.k, dims.d)
    if K.shape[-3:] != shape or K.ndim != 3 and not (batch and K.ndim == 4):
        stack = f" or (n, {', '.join(map(str, shape))})" if batch else ""
        raise ValueError(f"policy must have shape {shape}{stack}, got {K.shape}")
    return K


def solve_riccati(instance: LqrInstance) -> RiccatiSolution:
    """Backward Riccati recursion; returns optimal gains, value matrices, cost.

    Step t solves (R_t + B'P_{t+1}B) K_t = B'P_{t+1}A with spd_solve.  The
    step matrices are then checked in one pass (_check_stack): one that is
    not positive definite, or not finite after an overflow, raises
    NonPositiveDefinite naming the highest such t, the step where the
    backward recursion broke (every step below an overflow is NaN too), and
    a cost that overflowed at t = 0 raises FloatingPointError, rather than
    return NaN gains or cost."""
    A, B, Q, R = instance.A, instance.B, instance.Q, instance.R
    At, Bt = A.T, B.T
    T, d, k = instance.T, instance.d, instance.k
    P = np.empty((T + 1, d, d))
    gains = np.empty((T, k, d))
    steps = np.empty((T, k, k))
    P[T] = Q[T]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        for t in range(T - 1, -1, -1):
            BtP = Bt @ P[t + 1]
            steps[t] = R[t] + BtP @ B
            try:
                gains[t] = spd_solve(steps[t], BtP @ A)
            except np.linalg.LinAlgError:
                raise NonPositiveDefinite(f"Riccati step matrix R + B'PB[{t}] is singular") from None
            _sym(Q[t] + At @ P[t + 1] @ A - At @ BtP.T @ gains[t], out=P[t])
        cost = float(_value_backup(instance, P).cost)  # exact_cost's formula
    _check_stack(steps, "Riccati step matrix R + B'PB", last=True)
    if not np.isfinite(cost):
        raise FloatingPointError(f"Riccati optimal cost is {cost}: the recursion overflowed")
    return RiccatiSolution(gains=gains, P=P, optimal_cost=cost)


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
    return _value_backup(instance, _closed_loop(instance, _gains(policy, instance, batch=True), moments=False)[0])


def exact_cost(instance: LqrInstance, policy):
    """C(K) of one policy, or an (n,) array of costs of a batch of policies."""
    return backup_value(instance, policy).cost


def covariance_profile(instance: LqrInstance, policy) -> CovarianceProfile:
    """State second moments Sigma_{t+1} = M_t Sigma_t M_t' + W under one policy
    (T, k, d) or a batch (n, T, k, d), from the moment chain of _closed_loop;
    warns (RuntimeWarning) when some Sigma_t is degenerate (sigma_x ~ 0)."""
    sig = _closed_loop(instance, _gains(policy, instance, batch=True), values=False)[1]
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
    K = _gains(policy, instance, batch=True)
    return _gradient_terms(instance, K, *_closed_loop(instance, K))


def operator_decomposition(instance: LqrInstance, policy) -> tuple[np.ndarray, np.ndarray]:
    """Split the aggregate state second moment into the part propagated from
    Sigma_0 and the part injected by the noise.

    Returns (T_K, Delta) with T_K + Delta == covariance_profile(...).aggregate:

        T_K   = Sigma_0 + sum_{t=0}^{T-1} Phi_t Sigma_0 Phi_t'
        Delta = sum_{t=1}^{T-1} sum_{s=1}^{t} D_{t,s} W D_{t,s}' + T W

    where Phi_t = prod_{i=0}^{t} (A - B K_i) and D_{t,s} = prod_{u=s}^{t} (A - B K_u):
    each the moment chain of _closed_loop summed over t, T_K's with zero
    noise and Delta's from x_0 = 0.
    """
    K = _gains(policy, instance)
    parts = (replace(instance, noise=NoiseModel("zero")),
             replace(instance, init=InitialStateModel("point", np.zeros(instance.d))))
    tk, delta = (_closed_loop(part, K, values=False)[1].sum(axis=-3) for part in parts)
    return tk, delta


def simulate_trajectory(instance: LqrInstance, policy, seed) -> Trajectory:
    """Roll one trajectory under u_t = -K_t x_t with seeded noise: path row 0
    of make_rng(seed) (path_normals) through LqrSimulator.trajectories.

    Seed may be an int or a tuple of ints (counter-style stream key);
    identical seeds reproduce the trajectory bit for bit.
    """
    from .zeroth import LqrSimulator  # zeroth imports core

    traj = LqrSimulator(instance).trajectories(policy, path_normals(instance, make_rng(seed), 1))
    return Trajectory(states=traj.states[0], noises=traj.noises[0], realized_cost=float(traj.realized_cost[0]))


def path_normals(instance: LqrInstance, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start states (n, d) and the noise's standard normals (n, T, c) of the
    next n path rows of rng's stream.  A row takes N standard normals, start
    state first, then noise, one per live factor column of a vector
    (_Factored._width; none for a point start or zero noise, 11 on
    zo-liquidation), so row j's start state and noise.vectors of its normals
    are the (j + 1)-th pair of init.draw and noise.draw on the stream, bit
    for bit, and the stream ends n * N numbers on."""
    return _path_rows(instance, rng.standard_normal, n)


def _path_rows(instance: LqrInstance, normals, n: int) -> tuple[np.ndarray, np.ndarray]:
    """path_normals' n path rows from normals((n, N)), the next n * N standard
    normals of a stream: the one map of normals to rows, which
    LqrSimulator.paths shares."""
    T, d = instance.T, instance.d
    a, c = instance.init._width(d), instance.noise._width(d)
    z = normals((n, a + T * c))
    return instance.init.vectors(z[:, :a], d), z[:, a:].reshape(n, T, c)


def pathwise_cost_terms(instance: LqrInstance, policy, traj: Trajectory):
    """Exact per-trajectory cost decomposition under the closed-loop value matrices:

        realized_cost = x_0' P_0 x_0
                      + sum_t w_t' P_{t+1} w_t
                      + sum_t 2 w_t' P_{t+1} (A - B K_t) x_t

    Returns (initial_term, noise_quadratic, noise_state_cross), numbers for one
    trajectory and (n,) arrays for a batch of n.  The first two terms alone
    reproduce the cost in expectation only; the cross term is the zero-mean
    remainder that makes the identity hold path by path.
    """
    K = _gains(policy, instance)
    P = backup_value(instance, K).P
    x, w = traj.states, traj.noises
    head = np.einsum("...d,de,...e->...", x[..., 0, :], P[0], x[..., 0, :])
    quad = np.einsum("...td,tde,...te->...", w, P[1:], w)
    cross = 2.0 * np.einsum("...td,tde,tef,...tf->...", w, P[1:], instance.A - instance.B @ K, x[..., :-1, :])
    return head, quad, cross
