"""Finite-horizon linear-quadratic control with additive noise.

State dynamics x_{t+1} = A x_t + B u_t + w_t over t = 0..T-1, cost

    sum_t (x_t' Q_t x_t + u_t' R_t u_t) + x_T' Q_T x_T,

policies are time-varying linear feedbacks u_t = -K_t x_t.  Everything here
is exact linear algebra: Riccati recursion, policy evaluation, closed-form
cost gradients, and seeded trajectory simulation.
"""

from __future__ import annotations

import threading
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


def _draw_row(rng: np.random.Generator, layout, row: np.ndarray) -> None:
    """Fill row with standard_draw(kind, rng, width) for each (kind, width)
    of layout, one part after another from the same stream."""
    lo = 0
    for kind, width in layout:
        if kind == "gaussian":
            rng.standard_normal(out=row[lo:lo + width])  # the numbers of standard_draw, without a copy
        else:
            row[lo:lo + width] = standard_draw(kind, rng, width)
        lo += width


# Keyed sampling.  make_rng(key) is Philox4x64-10 (Salmon et al., SC'11) with
# key = the first two words and counter [0, *the other three]; numpy bumps the
# counter before each 4-word block, so block b of a stream is the Philox
# function of [b + 1, *tail].  A standard normal is one word on numpy's
# ziggurat fast path (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000): idx =
# the low 8 bits, sign = bit 8, rabs = the next 52 bits, x = +-rabs * wi[idx],
# accepted when rabs < ki[idx]; a uniform is one word, (w >> 11) * 2**-53.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_RABS = np.uint64((1 << 52) - 1)
_U_LOW = -_SQRT3
_U_RANGE = _SQRT3 - _U_LOW  # Generator.uniform maps a double u to low + (high - low) * u
_KEYED_CHUNK = 4096  # rows per vectorised pass, which bounds the working memory
_PROBE_PREFIX = (0x7AB1E5, 0)  # keys of the table probe and of its check
_PROBE_KEYS = 2048
_KI_GUARD = 20  # fast path only below ki - ki >> _KI_GUARD, in case the table rounds otherwise

_ziggurat = None  # (wi, ki) by layer and sign once derived, () when they failed their check
_ziggurat_lock = threading.Lock()


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves
    (in place on fresh temporaries, to keep few arrays alive)."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, hi = x & _LO32, x >> _U32
    mid = hi * m_lo
    t = x_lo * m_lo
    t >>= _U32
    mid += t  # x_hi m_lo + (x_lo m_lo >> 32), below 2**64
    carry = x_lo
    carry *= m_hi
    carry += mid & _LO32  # x_lo m_hi + the low half of mid, below 2**64
    hi *= m_hi
    mid >>= _U32
    hi += mid
    carry >>= _U32
    hi += carry  # x_hi m_hi + both high halves
    return hi, x * np.uint64(m)


def _philox_words(prefix, tails: np.ndarray, width: int) -> np.ndarray:
    """(n, width) uint64: the first width words make_rng((*prefix, *tails[j]))
    yields (random_raw), for n counter tails of three words each.  The block
    index and the tail words enter as broadcast columns, so the first rounds
    run on small arrays."""
    k0, k1 = _stream_words(prefix)[:2]
    n, blocks = len(tails), -(-width // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)
    c1, c2, c3 = (tails[:, j:j + 1] for j in range(3))
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _WORD, (k1 + _PHILOX_W[1]) & _WORD
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    words = np.empty((n, blocks, 4), dtype=np.uint64)
    for j, c in enumerate((c0, c1, c2, c3)):
        words[..., j] = c
    return words.reshape(n, 4 * blocks)[:, :width]


def _fast_draws(words: np.ndarray, layout, tables, z: np.ndarray) -> np.ndarray:
    """Fill z with the standardized draws of raw words laid out as layout;
    returns a mask of the rows whose every normal took the one-word ziggurat
    path of tables (no row does when the tables are empty)."""
    fast = np.full(len(words), bool(tables))
    lo = 0
    for kind, width in layout:
        w, out = words[:, lo:lo + width], z[:, lo:lo + width]
        lo += width
        if kind == "uniform":
            np.multiply(w >> np.uint64(11), 2.0**-53, out=out)
            out *= _U_RANGE
            out += _U_LOW
        elif tables:
            wi, ki = tables
            rabs = w >> np.uint64(9)
            rabs &= _RABS
            idx = (w & np.uint64(0x1FF)).astype(np.intp)  # layer and sign: the tables hold -wi from 256 on
            fast &= (rabs < ki[idx]).all(axis=1)
            np.multiply(rabs, wi[idx], out=out)
    return fast


def _derive_ziggurat():
    """numpy's ziggurat tables, read off the installed numpy, as (wi, ki)
    indexed by the word's low 9 bits (layer, then sign).

    Each probe key pairs its first raw word with its first standard normal;
    the draw took the one-word path exactly when the next raw word is the
    key's second.  wi[idx] is the double among the ulp neighbours of |x|/rabs
    that reproduces the most accepted draws of the layer, unresolved on a tie.
    ki follows the table's construction, ki[i] = 2**52 wi[i-1] / wi[i] and
    ki[0] = 2**52 wi[255] / wi[0], minus a guard band.  A layer whose
    neighbour is unresolved keeps the largest rabs it was seen to accept, and
    an unresolved layer gets 0, which sends its words to the slow path; so
    does layer 1, whose fast path numpy does not take (its ki is 0 in the
    table).  Returns () unless the tables reproduce numpy on check keys.
    """
    n = _PROBE_KEYS
    tails = np.zeros((n, 3), dtype=np.uint64)
    tails[:, 0] = np.arange(n)
    first, second = _philox_words(_PROBE_PREFIX, tails, 2).T
    stream = CounterStream()
    stream.rekey(_PROBE_PREFIX)
    x, follow = np.empty(n), np.empty(n, dtype=np.uint64)
    for j in range(n):
        x[j] = stream.rekey_tail(j).standard_normal()
        follow[j] = stream._bitgen.random_raw()
    idx = (first & np.uint64(0xFF)).astype(np.intp)
    rabs = (first >> np.uint64(9)) & _RABS
    keep = np.flatnonzero((follow == second) & (rabs > 0))
    keep = keep[np.argsort(idx[keep], kind="stable")]
    layer = idx[keep]
    top = np.zeros(256, dtype=np.uint64)
    np.maximum.at(top, layer, rabs[keep] + np.uint64(1))
    # accepted draws by layer, padded with nan, and their candidates for wi
    col = np.arange(len(keep)) - np.searchsorted(layer, layer)
    r, ax = np.full((2, 256, col.max(initial=0) + 1), np.nan)
    r[layer, col], ax[layer, col] = rabs[keep], np.abs(x[keep])
    cands = [ax / r]
    for _ in range(2):
        cands = [np.nextafter(cands[0], 0), *cands, np.nextafter(cands[-1], np.inf)]
    cands = np.concatenate(cands, axis=1)
    votes = np.zeros(cands.shape, dtype=int)
    for j in range(r.shape[1]):
        votes += r[:, j:j + 1] * cands == ax[:, j:j + 1]
    best = (votes == votes.max(axis=1, keepdims=True)) & (votes > 0)
    lo, hi = np.where(best, cands, np.inf).min(axis=1), np.where(best, cands, -np.inf).max(axis=1)
    wi = np.where(lo == hi, lo, np.nan)
    with np.errstate(invalid="ignore"):
        ratio = 2.0**52 * np.roll(wi, 1) / wi  # 2**52 wi[i-1] / wi[i], and 2**52 wi[255] / wi[0]
    by_ratio = np.isfinite(ratio)
    ki = np.where(by_ratio, ratio, 0).astype(np.uint64)
    ki = np.where(by_ratio, ki - (ki >> np.uint64(_KI_GUARD)), top)
    ki[np.isnan(wi)] = 0
    ki[1] = 0
    # rabs * -wi is -(rabs * wi) bit for bit, the sign numpy applies, so the
    # sign bit can index a negated copy of wi
    tables = (np.concatenate([wi, -wi]), np.concatenate([ki, ki]))
    return tables if _tables_agree(tables) else ()


def _tables_agree(tables) -> bool:
    """True if every fast-path row of tables equals numpy's per-key draws,
    bit for bit, on 512 check keys of 36 words in mixed parts."""
    layout = [("gaussian", 29), ("uniform", 3), ("gaussian", 4)]
    tails = np.ones((512, 3), dtype=np.uint64)
    tails[:, 1] = np.arange(512)
    z, ref = np.empty((2, 512, 36))
    fast = _fast_draws(_philox_words(_PROBE_PREFIX, tails, 36), layout, tables, z)
    stream = CounterStream()
    stream.rekey(_PROBE_PREFIX)
    for j in np.flatnonzero(fast):
        _draw_row(stream.rekey_tail(1, int(j), 1), layout, ref[j])
    return bool(fast.any()) and np.array_equal(z[fast].view(np.uint64), ref[fast].view(np.uint64))


def _ziggurat_tables():
    """The ziggurat tables, derived once per process at the first call."""
    global _ziggurat
    if _ziggurat is None:
        with _ziggurat_lock:
            if _ziggurat is None:
                _ziggurat = _derive_ziggurat()
    return _ziggurat


def keyed_draws(layout, prefix, tails) -> np.ndarray:
    """(n, W) standardized draws of n counter keys (*prefix, *tails[j]).

    Row j holds what standard_draw(kind, rng, width) gives for each
    (kind, width) of layout, part after part, on rng = make_rng((*prefix,
    *tails[j])); kinds are "gaussian" and "uniform", prefix is two words and
    tails an (n, 3) array of words in [0, 2**64).  All rows run as one
    vectorised Philox whose words go through numpy's ziggurat fast path; a row
    with any word off that path or inside the guard band is redrawn whole by
    numpy on a re-keyed CounterStream, so every row equals the per-key draw
    bit for bit.
    """
    tails = np.asarray(tails, dtype=np.uint64).reshape(-1, 3)
    width = sum(w for _, w in layout)
    z = np.empty((len(tails), width))
    if not width:
        return z
    tables = _ziggurat_tables()
    fast = np.empty(len(tails), dtype=bool)
    for lo in range(0, len(tails), _KEYED_CHUNK):
        rows = slice(lo, lo + _KEYED_CHUNK)
        fast[rows] = _fast_draws(_philox_words(prefix, tails[rows], width), layout, tables, z[rows])
    slow = np.flatnonzero(~fast)
    if len(slow):
        stream = CounterStream()
        stream.rekey(prefix)
        rekey = stream.rekey_tail
        for j, tail in zip(slow.tolist(), tails[slow].tolist()):
            _draw_row(rekey(*tail), layout, z[j])
    return z


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


def _path_layout(instance: LqrInstance) -> list:
    """[(kind, width)] of the draw calls simulate_trajectory makes on one
    stream, start state first, with the degenerate kinds left out.  When the
    start state and the noise are of one kind, one call takes both, which
    yields the same numbers as two calls."""
    T, d = instance.T, instance.d
    init, noise = instance.init.kind, instance.noise.kind
    parts = [] if init == "point" else [(init, d)]
    if noise != "zero":
        if parts and parts[0][0] == noise:
            parts = [(noise, d + T * d)]
        else:
            parts.append((noise, T * d))
    return parts


def _paths_from_draws(instance: LqrInstance, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start states (n, d) and noise (n, T, d) from standardized draws laid out as _path_layout."""
    T, d = instance.T, instance.d
    init, noise = instance.init, instance.noise
    n = len(z)
    if init.kind == "point":
        x0 = np.tile(np.asarray(init.mean, dtype=float), (n, 1))
        z_noise = z
    else:
        x0 = init.place(z[:, :d])
        z_noise = z[:, d:]
    w = np.zeros((n, T, d)) if noise.kind == "zero" else noise.scale(z_noise.reshape(n, T, d))
    return x0, w


def sample_paths(instance: LqrInstance, rngs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start states (n, d) and noise sequences (n, T, d) from n freshly keyed
    generators, each drawn as simulate_trajectory draws from its stream."""
    layout = _path_layout(instance)
    z = np.empty((n, sum(width for _, width in layout)))
    if layout:
        for rng, row in zip(rngs, z):
            _draw_row(rng, layout, row)
    return _paths_from_draws(instance, z)


def keyed_paths(instance: LqrInstance, prefix, tails) -> tuple[np.ndarray, np.ndarray]:
    """sample_paths on the streams make_rng((*prefix, *tails[j])), drawn by keyed_draws."""
    return _paths_from_draws(instance, keyed_draws(_path_layout(instance), prefix, tails))


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
