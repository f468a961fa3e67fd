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


def stream_at(key, words: int):
    """make_rng(key) advanced by the given number of raw words: whole Philox
    blocks of four words by advance, the rest drawn and dropped."""
    rng = make_rng(key)
    rng.bit_generator.advance(words // 4)
    rng.bit_generator.random_raw(words % 4)
    return rng


def simulated_row(inst, K, key, j: int):
    """simulate_trajectory(inst, K, key) on the stream make_rng(key) advanced
    to path row j, that is by j * W words."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "make_rng", lambda _: stream_at(key, j * inst.paths.words))
        return simulate_trajectory(inst, K, key)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
