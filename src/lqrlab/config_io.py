"""Plain-text configuration files.

A config is a sequence of `key = value` lines; values are JSON (so matrices
are row-major nested arrays) and `#` outside a string starts a comment.  Dotted keys group
related fields, e.g.

    kind = "pg"
    instance.A = [[0.5, 0.1], [0.0, 0.2]]
    instance.noise.kind = "gaussian"
    ac.beta = 1.03e-5
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, fields

import numpy as np

from .core import _MAX, InitialStateModel, LqrInstance, NoiseModel, _number, constant_instance
from .liquidation import AcParams, SyntheticBookConfig

# a line up to its comment: any run of text but '"' and '#', or a JSON string
# (unterminated at the end of a line, so that json.loads names the error)
_BEFORE_COMMENT = re.compile(r'(?:[^"#]|"(?:[^"\\]|\\.)*"?)*')


def parse_kv(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _BEFORE_COMMENT.match(raw).group().strip()
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


def _unquote(value):
    """value, or the float a string spells if it spells one."""
    try:
        return float(value) if isinstance(value, str) else value
    except ValueError:
        return value


def as_count(value, key: str, low: int = 0) -> int:
    """A config value that counts something, as an int >= low (core._number); a
    whole float or a number written as a string is one too, but a value that
    is not a whole number (2.5, true, "x") raises ValueError naming its key."""
    value = _unquote(value)
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return _number(int(value), key, low, whole=True)


def as_float(value, key: str, low: float = -_MAX, high: float = _MAX) -> float:
    """A config value that is one finite number in [low, high] (core._number),
    as a float; it may also be given as a string.  Anything else (a list,
    true, null, "x", NaN) raises ValueError naming its key."""
    return float(_number(_unquote(value), key, low, high))


def _holds_bool_or_null(value) -> bool:
    if isinstance(value, list):
        return any(map(_holds_bool_or_null, value))
    return isinstance(value, bool) or value is None


def as_array(value, key: str) -> np.ndarray:
    """A config value that is a number or nested lists of numbers, as a
    float array; anything else (true or null too, which numpy would read as
    1 and NaN) raises ValueError naming its key."""
    try:
        if not _holds_bool_or_null(value):
            return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{key} must be a number or nested lists of numbers, got {value!r}")


def dump_kv(cfg: dict) -> str:
    return "".join(f"{k} = {json.dumps(v)}\n" for k, v in cfg.items())


def load_config(path) -> dict:
    with open(path) as f:
        return parse_kv(f.read())


def _fields_from(cls, cfg: dict, prefix: str, skip: tuple = (), **defaults):
    """cls from the `prefix.*` keys of cfg that name its fields (but those in
    skip), taken out of cfg; an int field is read with as_count and the rest
    with as_float, and defaults, then cls's own, fill the fields not given.
    KeyError names the first field that has no value."""
    read = {f.name: as_count if f.type == "int" else as_float for f in fields(cls) if f.name not in skip}
    given = {k: cfg.pop(f"{prefix}.{k}") for k in read if f"{prefix}.{k}" in cfg}
    values = defaults | {k: read[k](v, f"{prefix}.{k}") for k, v in given.items()}
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
    if missing:
        raise KeyError(f"{prefix}.{missing[0]}")
    return cls(**values)


def _model_from(cls, cfg: dict, prefix: str, **fields):
    """A start or noise model cls from its `prefix.kind`, `.sigma` and
    `.factor` keys, taken out of cfg, a Gaussian of sigma 1 and the identity
    factor unless given, and fields."""
    factor = cfg.pop(f"{prefix}.factor", None)
    return cls(kind=cfg.pop(f"{prefix}.kind", "gaussian"), sigma=as_float(cfg.pop(f"{prefix}.sigma", 1.0), f"{prefix}.sigma"),
               factor=None if factor is None else as_array(factor, f"{prefix}.factor"), **fields)


def instance_from_config(cfg: dict) -> LqrInstance:
    """Build an instance from the `instance.*` keys, taking those it reads
    out of cfg.  Q and R may be a single matrix (repeated over the horizon,
    with `instance.Q_terminal` for the last slice) or full stacks with T+1 /
    T slices, which take no `instance.T` or `instance.Q_terminal`."""
    if not any(k.startswith("instance.") for k in cfg):
        raise KeyError("config has no instance.* keys")
    A, B, mean, Q, R = (as_array(cfg.pop(f"instance.{k}"), f"instance.{k}") for k in ("A", "B", "init.mean", "Q", "R"))
    noise = _model_from(NoiseModel, cfg, "instance.noise")
    init = _model_from(InitialStateModel, cfg, "instance.init", mean=mean)
    if Q.ndim == 3:
        return LqrInstance(A, B, Q, R, noise, init)
    T = as_count(cfg.pop("instance.T"), "instance.T", 1)
    Q_term = as_array(cfg.pop("instance.Q_terminal", Q), "instance.Q_terminal")
    return constant_instance(A, B, Q, R, Q_term, T, noise, init)


def ac_from_config(cfg: dict) -> AcParams:
    """AcParams from the `ac.*` keys, taken out of cfg; phi and epsilon 0 unless given."""
    return _fields_from(AcParams, cfg, "ac", phi=0.0, epsilon=0.0)


def book_from_config(cfg: dict) -> SyntheticBookConfig:
    """A synthetic book from the `book.*` keys, taken out of cfg; random_depth is not one, so the book has random depth."""
    return _fields_from(SyntheticBookConfig, cfg, "book", skip=("random_depth",))
