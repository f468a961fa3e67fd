import numpy as np
import pytest

from lqrlab import InitialStateModel, LqrInstance, NoiseModel, constant_instance, make_rng, simulate_trajectory
from lqrlab import core


def random_instance(rng, d=None, k=None, T=None, noise_sigma=0.4, init_sigma=0.6):
    """Random well-conditioned instance with PD W and Sigma_0."""
    d = int(d or rng.integers(1, 4))
    k = int(k or rng.integers(1, 3))
    T = int(T or rng.integers(2, 6))
    A = rng.normal(size=(d, d)) * 0.5
    B = rng.normal(size=(d, k))
    M = rng.normal(size=(d, d))
    Q = M @ M.T + 0.3 * np.eye(d)
    M = rng.normal(size=(k, k))
    R = M @ M.T + 0.3 * np.eye(k)
    noise = NoiseModel("gaussian", noise_sigma)
    init = InitialStateModel("gaussian", rng.normal(size=d), init_sigma)
    return constant_instance(A, B, Q, R, Q, T, noise, init)


def random_policy(rng, instance, scale=0.2):
    return rng.normal(size=(instance.T, instance.k, instance.d)) * scale


def error_terms(inst, K, P) -> np.ndarray:
    """E_t = (R_t + B' P_{t+1} B) K_t - B' P_{t+1} A, the factor of the exact
    gradient grad_t = 2 E_t Sigma_t, one step at a time from the value
    matrices P (T+1, d, d) of backup_value for one policy K (T, k, d): a
    reference written apart from core's vectorised gradient."""
    E = np.empty(np.shape(K))
    for t in range(inst.T):
        BtP = inst.B.T @ P[t + 1]
        E[t] = (inst.R[t] + BtP @ inst.B) @ K[t] - BtP @ inst.A
    return E


def path_width(inst) -> int:
    """N, the standard normals one path row (one simulate_trajectory) takes:
    one per live (nonzero) factor column of the start state and of each of
    the T noise vectors, all d for the identity, at least one, and none for
    a point start or zero noise."""
    def live(model):
        if model.factor is None:
            return inst.d
        return max(1, int((np.asarray(model.factor) != 0).any(axis=0).sum()))

    return live(inst.init) * (inst.init.kind != "point") + inst.T * live(inst.noise) * (inst.noise.kind != "zero")


def simulated_rows(inst, key, policies: dict) -> dict:
    """{j: simulate_trajectory(inst, K, key) on the stream make_rng(key)
    advanced to path row j} for policies {j: K}: one stream, which skips
    the N standard normals (path_width) of every row before j."""
    rng, at, out = make_rng(key), 0, {}
    for j in sorted(policies):
        rng.standard_normal((j - at) * path_width(inst))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "make_rng", lambda _: rng)
            out[j] = simulate_trajectory(inst, policies[j], key)
        at = j + 1
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
