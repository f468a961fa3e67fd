"""Span tracing of lqrlab's public functions, installed from outside the package.

`Tracer.installed()` rebinds each traced function in every lqrlab module that
binds it by name, and each traced method on its class, to a wrapper that
records one span (id, name, parent, start, end) per call into per-thread
arrays.  The originals are restored on exit.  A thread with no open span of
its own (a CLI pool worker) takes the main thread's innermost open span as
its parent, so seed runs in the pool nest under `cli.run_experiment`.

Span names are `<layer>.<function>`; the layer is the defining module.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# module -> functions traced wherever a module binds them by name
FUNCTIONS = {
    "core": ["make_rng", "backup_value", "covariance_profile", "exact_cost", "exact_gradient",
             "solve_riccati", "simulate_trajectory"],
    "zeroth": ["sample_sphere", "sample_sphere_batch", "estimate_gradient", "smoothed_gradient_reference",
               "run_modelfree_pg", "run_modelfree_ppg"],
    "optimize": ["run_exact_pg", "run_exact_ppg"],
    "liquidation": ["synthetic_lob", "simulate_lob", "walk_the_book"],
    "qlearn": ["make_qtable", "q_learning_step", "greedy_policy_cost"],
    "cli": ["main", "run_experiment", "_run_seed"],
}

# span name -> methods (module, class, attribute) recorded under it
METHODS = {
    "core.draw": [("core", "NoiseModel", "draw"), ("core", "InitialStateModel", "draw")],
    "zeroth.rollout_perturbed_batch": [("zeroth", "LqrSimulator", "rollout_perturbed_batch")],
    "optimize.project": [("optimize", "ProjectionSet", "project")],
}


def _iterations(result) -> int:
    """Descent iterations of a (policy, DescentTrace) result; the last row is the final state."""
    return len(result[1].rows) - 1


# span name -> counters derived from (args, result) of a call
HOOKS = {
    "zeroth.rollout_perturbed_batch": lambda a, r: {"zeroth.rollouts": len(r)},
    "optimize.project": lambda a, r: {"optimize.project.points": r.shape[0]},
    "optimize.run_exact_pg": lambda a, r: {"optimize.exact_iters": _iterations(r), "optimize.exact_runs": 1},
    "optimize.run_exact_ppg": lambda a, r: {"optimize.exact_iters": _iterations(r), "optimize.exact_runs": 1},
    "zeroth.run_modelfree_pg": lambda a, r: {"optimize.zo_iters": _iterations(r)},
    "qlearn.q_learning_step": lambda a, r: {
        "qlearn.clamps": r.clamp_count - a[0].clamp_count,
        "qlearn.transitions": a[0].q[:-1].size,
    },
    "qlearn.greedy_policy_cost": lambda a, r: {"qlearn.eval_rollouts": int(a[2])},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[tuple] = []
        self._main_stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _state(self):
        loc = self._local
        try:
            return loc.stack, loc.buf
        except AttributeError:
            stack, buf = [], tuple(array(code) for code in "qiqdd")  # id, name, parent, start, end
            loc.stack, loc.buf = stack, buf
            with self._lock:
                self._buffers.append(buf)
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
            return stack, buf

    def _count(self, increments: dict) -> None:
        with self._lock:
            for key, val in increments.items():
                self.counters[key] = self.counters.get(key, 0) + val

    def traced(self, name: str, fn):
        """Wrap fn so that each call records a span called name."""
        nid, hook, ids, clock, state = self._nid(name), HOOKS.get(name), self._ids, time.perf_counter, self._state

        def wrapper(*args, **kwargs):
            stack, (s_id, s_name, s_parent, s_start, s_end) = state()
            sid = next(ids)
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else -1)
            pos = len(s_id)
            s_id.append(sid)
            s_name.append(nid)
            s_parent.append(parent)
            s_end.append(0.0)
            stack.append(sid)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[pos] = clock()
                stack.pop()
            if hook is not None:
                self._count(hook(args, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Trace every function in FUNCTIONS and method in METHODS while active."""
        import lqrlab  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "lqrlab" or n.startswith("lqrlab.")]
        undo = []
        for modname, attrs in FUNCTIONS.items():
            home = sys.modules[f"lqrlab.{modname}"]
            for attr in attrs:
                orig = getattr(home, attr)
                wrapper = self.traced(f"{modname}.{attr.lstrip('_')}", orig)
                for mod in modules:
                    for key in [k for k, v in vars(mod).items() if v is orig]:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, targets in METHODS.items():
            for modname, clsname, attr in targets:
                cls = getattr(sys.modules[f"lqrlab.{modname}"], clsname)
                orig = cls.__dict__[attr]
                undo.append((cls, attr, orig))
                setattr(cls, attr, self.traced(name, orig))
        try:
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # ------------------------------------------------------------------ analysis

    def spans(self) -> dict:
        """All spans as arrays indexed by span id (ids are dense from 0)."""
        with self._lock:
            bufs = list(self._buffers)
        n = sum(len(b[0]) for b in bufs)
        out = {
            "name": np.empty(n, np.int32),
            "parent": np.empty(n, np.int64),
            "start": np.empty(n),
            "end": np.empty(n),
            "thread": np.empty(n, np.int32),
        }
        for tid, (s_id, s_name, s_parent, s_start, s_end) in enumerate(bufs):
            idx = np.frombuffer(s_id, np.int64)
            out["name"][idx] = np.frombuffer(s_name, np.int32)
            out["parent"][idx] = np.frombuffer(s_parent, np.int64)
            out["start"][idx] = np.frombuffer(s_start)
            out["end"][idx] = np.frombuffer(s_end)
            out["thread"][idx] = tid
        return out

    def save(self, path, spans: dict) -> None:
        np.savez(path, names=np.array(self.names), **spans)


class SpanTable:
    """Self times and ancestry queries over a finished trace.

    A span's self time is its duration minus the part of its interval that
    its children cover: children on the span's own thread run one after
    another, children on other threads (pool workers) are merged as a union
    of intervals.
    """

    def __init__(self, names: list[str], spans: dict):
        self.names = names
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.dur = spans["end"] - spans["start"]
        n = self.name.size
        has_parent = self.parent >= 0
        par = np.where(has_parent, self.parent, 0)
        same = has_parent & (spans["thread"][par] == spans["thread"])
        covered = np.bincount(self.parent[same], weights=self.dur[same], minlength=n)
        cross = has_parent & ~same
        for p in np.unique(self.parent[cross]):
            kids = np.flatnonzero(cross & (self.parent == p))
            lo = np.maximum(spans["start"][kids], spans["start"][p])
            hi = np.minimum(spans["end"][kids], spans["end"][p])
            order = np.argsort(lo)
            total, reach = 0.0, -np.inf
            for a, b in zip(lo[order], hi[order]):
                a = max(a, reach)
                if b > a:
                    total += b - a
                    reach = b
            covered[p] += total
        self.self_time = self.dur - covered

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def parent_is(self, *names: str) -> np.ndarray:
        has_parent = self.parent >= 0
        return has_parent & self.mask(*names)[np.where(has_parent, self.parent, 0)]

    def under(self, *names: str) -> np.ndarray:
        """Spans with an ancestor (at any depth) among names."""
        target = self.mask(*names)
        found = np.zeros(self.name.size, bool)
        cur = self.parent.copy()
        live = cur >= 0
        while live.any():
            idx = np.flatnonzero(live)
            found[idx] |= target[cur[idx]]
            cur[idx] = self.parent[cur[idx]]
            live = (cur >= 0) & ~found
        return found

    def calls(self, *names: str, where=None) -> int:
        sel = self.mask(*names) if where is None else self.mask(*names) & where
        return int(sel.sum())

    def total(self, *names: str, self_only: bool = False, where=None) -> float:
        sel = self.mask(*names) if where is None else self.mask(*names) & where
        return float((self.self_time if self_only else self.dur)[sel].sum())

    def layer_self(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        return float(self.self_time[np.isin(self.name, ids)].sum())
