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
from dataclasses import MISSING, fields

import numpy as np

from .core import InitialStateModel, LqrInstance, NoiseModel, constant_instance
from .liquidation import AcParams, SyntheticBookConfig


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


def _known(cfg: dict, prefix: str, names) -> dict:
    """The `prefix.*` keys of cfg, without the prefix; ValueError names the
    first that is not in names."""
    given = _sub(cfg, prefix)
    unknown = sorted(set(given) - set(names))
    if unknown:
        raise ValueError(f"unknown key {prefix}.{unknown[0]}; the {prefix}.* keys are {', '.join(names)}")
    return given


def _fields_from(cls, cfg: dict, prefix: str, counts: tuple, skip: tuple = (), **defaults):
    """cls from the `prefix.*` keys of cfg, those in counts read with as_count
    and the rest as floats; defaults, then cls's own, fill the fields not
    given.  ValueError names the first key that is not a field of cls or is
    in skip, KeyError the first field that has no value."""
    given = _known(cfg, prefix, [f.name for f in fields(cls) if f.name not in skip])
    values = defaults | {k: as_count(v, f"{prefix}.{k}") if k in counts else float(v) for k, v in given.items()}
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
    if missing:
        raise KeyError(f"{prefix}.{missing[0]}")
    return cls(**values)


_INSTANCE_KEYS = ("A", "B", "Q", "R", "T", "Q_terminal", "noise.kind", "noise.sigma", "noise.factor",
                 "init.kind", "init.mean", "init.sigma", "init.factor")


def _model_from(cls, keys: dict, **fields):
    """A start or noise model cls from its kind, sigma and factor keys, a
    Gaussian of sigma 1 and the identity factor unless given, and fields."""
    factor = keys.get("factor")
    return cls(kind=keys.get("kind", "gaussian"), sigma=float(keys.get("sigma", 1.0)),
               factor=None if factor is None else np.asarray(factor, dtype=float), **fields)


def instance_from_config(cfg: dict) -> LqrInstance:
    """Build an instance from the `instance.*` keys.  Q and R may be a single
    matrix (repeated over the horizon, with `instance.Q_terminal` for the
    last slice) or full stacks with T+1 / T slices.  ValueError names the
    first key outside _INSTANCE_KEYS."""
    sub = _known(cfg, "instance", _INSTANCE_KEYS)
    if not sub:
        raise KeyError("config has no instance.* keys")
    A = np.asarray(sub["A"], dtype=float)
    B = np.asarray(sub["B"], dtype=float)
    noise = _model_from(NoiseModel, _sub(sub, "noise"))
    init_keys = _sub(sub, "init")
    init = _model_from(InitialStateModel, init_keys, mean=np.asarray(init_keys["mean"], dtype=float))
    Q = np.asarray(sub["Q"], dtype=float)
    R = np.asarray(sub["R"], dtype=float)
    if Q.ndim == 3:
        return LqrInstance(A, B, Q, R, noise, init)
    T = as_count(sub["T"], "instance.T")
    Q_term = np.asarray(sub.get("Q_terminal", Q), dtype=float)
    return constant_instance(A, B, Q, R, Q_term, T, noise, init)


def ac_from_config(cfg: dict) -> AcParams:
    """AcParams from the `ac.*` keys, phi and epsilon 0 unless given."""
    return _fields_from(AcParams, cfg, "ac", ("T",), phi=0.0, epsilon=0.0)


def book_from_config(cfg: dict) -> SyntheticBookConfig:
    """A synthetic book from the `book.*` keys; random_depth is not one, so the book has random depth."""
    return _fields_from(SyntheticBookConfig, cfg, "book", ("T", "levels"), skip=("random_depth",))
