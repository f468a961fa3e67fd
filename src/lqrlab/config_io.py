"""Plain-text configuration files.

A config is a sequence of `key = value` lines; values are JSON (so matrices
are row-major nested arrays) and `#` starts a comment.  Dotted keys group
related fields, e.g.

    kind = "pg"
    instance.A = [[0.5, 0.1], [0.0, 0.2]]
    instance.noise.kind = "gaussian"
    ac.beta = 1.03e-5
"""

from __future__ import annotations

import json

import numpy as np

from .core import InitialStateModel, LqrInstance, NoiseModel, constant_instance
from .liquidation import AcParams


def parse_kv(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        try:
            out[key.strip()] = json.loads(val.strip())
        except json.JSONDecodeError as e:
            raise ValueError(f"line {lineno}: bad value for {key.strip()!r}: {e}") from e
    return out


def as_count(value, key: str) -> int:
    """A config value that counts something, as an int; a number may also be
    given as a string.  A value that is not a whole number (2.5, true, "x")
    raises ValueError naming its key rather than being truncated."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def dump_kv(cfg: dict) -> str:
    return "".join(f"{k} = {json.dumps(v)}\n" for k, v in cfg.items())


def load_config(path) -> dict:
    with open(path) as f:
        return parse_kv(f.read())


def _sub(cfg: dict, prefix: str) -> dict:
    p = prefix + "."
    return {k[len(p):]: v for k, v in cfg.items() if k.startswith(p)}


def _noise_from(cfg: dict) -> NoiseModel:
    factor = cfg.get("factor")
    return NoiseModel(
        kind=cfg.get("kind", "gaussian"),
        sigma=float(cfg.get("sigma", 1.0)),
        factor=None if factor is None else np.asarray(factor, dtype=float),
    )


def _init_from(cfg: dict) -> InitialStateModel:
    factor = cfg.get("factor")
    return InitialStateModel(
        kind=cfg.get("kind", "gaussian"),
        mean=np.asarray(cfg["mean"], dtype=float),
        sigma=float(cfg.get("sigma", 1.0)),
        factor=None if factor is None else np.asarray(factor, dtype=float),
    )


def instance_from_config(cfg: dict) -> LqrInstance:
    """Build an instance from the `instance.*` keys.  Q and R may be a single
    matrix (repeated over the horizon, with `instance.Q_terminal` for the
    last slice) or full stacks with T+1 / T slices."""
    sub = _sub(cfg, "instance")
    if not sub:
        raise KeyError("config has no instance.* keys")
    A = np.asarray(sub["A"], dtype=float)
    B = np.asarray(sub["B"], dtype=float)
    noise = _noise_from(_sub(sub, "noise"))
    init = _init_from(_sub(sub, "init"))
    Q = np.asarray(sub["Q"], dtype=float)
    R = np.asarray(sub["R"], dtype=float)
    if Q.ndim == 3:
        return LqrInstance(A, B, Q, R, noise, init)
    T = as_count(sub["T"], "instance.T")
    Q_term = np.asarray(sub.get("Q_terminal", Q), dtype=float)
    return constant_instance(A, B, Q, R, Q_term, T, noise, init)


def ac_from_config(cfg: dict) -> AcParams:
    sub = _sub(cfg, "ac")
    if not sub:
        raise KeyError("config has no ac.* keys")
    return AcParams(
        beta=float(sub["beta"]),
        gamma=float(sub["gamma"]),
        sigma=float(sub["sigma"]),
        phi=float(sub.get("phi", 0.0)),
        epsilon=float(sub.get("epsilon", 0.0)),
        T=as_count(sub["T"], "ac.T"),
        S0=float(sub.get("S0", 200.0)),
        q0_mean=float(sub.get("q0_mean", 500.0)),
        q0_std=float(sub.get("q0_std", 1.0)),
    )
