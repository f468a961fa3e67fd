"""Experiment harness and command line entry point.

    lqrlab <kind> --config <path> [--seeds 1 2 3] [--out dir]

Kinds: riccati, pg, ppg, zo-pg, zo-ppg, lob, impact, qlearn, deadline.
Seeds fan out over a thread pool capped by the LQRLAB_THREADS environment
variable; the kinds whose runs never read the seed run once, and that run
stands for every seed.  Every run writes a manifest plus one CSV per seed
and, for iterative kinds, an aggregate CSV with per-iteration median and
min/max envelope.  Exit codes: 0 success, 2 invalid config or usage, 3
runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config_io import ac_from_config, as_count, book_from_config, instance_from_config, load_config
from .core import solve_riccati
from .errors import LqrlabError
from .liquidation import (
    ac_to_lqr,
    estimate_impact_params,
    expected_inventory_path,
    liquidation_constraint,
    read_lob_csv,
    simulate_lob,
    synthetic_lob,
)
from .optimize import DescentConfig, run_exact_pg, run_exact_ppg
from .qlearn import greedy_policy_cost, make_qtable, q_learning_step
from .zeroth import SmoothingConfig, run_modelfree_pg

KINDS = ["riccati", "pg", "ppg", "zo-pg", "zo-ppg", "lob", "impact", "qlearn", "deadline"]
_SEEDLESS_KINDS = ("riccati", "pg", "ppg", "deadline")  # deterministic: _run_seed never reads the seed

# CSV columns that count or index, written as integers ("3", not "3.0")
_INT_COLUMNS = frozenset({"iter", "n_seeds", "row", "m", "t", "sweeps", "horizon"})


def _max_workers() -> int:
    env = os.environ.get("LQRLAB_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def _instance(cfg):
    if any(k.startswith("ac.") for k in cfg):
        return ac_to_lqr(ac_from_config(cfg))
    return instance_from_config(cfg)


def _initial_policy(cfg, instance):
    k0 = cfg.get("policy0", 0.0)
    K = np.asarray(k0, dtype=float)
    if K.ndim == 0:
        return np.full((instance.T, instance.k, instance.d), float(K))
    return K.reshape((instance.T, instance.k, instance.d))


def _descent_cfg(cfg) -> DescentConfig:
    line_search = cfg.get("line_search", False)
    if not isinstance(line_search, bool):
        raise ValueError(f"line_search must be true or false, got {line_search!r}")
    target = cfg.get("target_error")
    return DescentConfig(
        eta=float(cfg["eta"]),
        iters=as_count(cfg["iters"], "iters"),
        line_search=line_search,
        target_error=None if target is None else float(target),
    )


def _constraint(cfg):
    return liquidation_constraint(float(cfg["constraint.gamma_bar"]), float(cfg.get("constraint.zeta", 1e-12)))


def _run_seed(cfg: dict, kind: str, seed: int):
    """One seed of one experiment; returns (columns, rows)."""
    if kind == "riccati":
        inst = _instance(cfg)
        sol = solve_riccati(inst)
        rows = [[t, *sol.gains[t].ravel()] for t in range(inst.T)]
        cols = ["t"] + [f"K_{i}{j}" for i in range(inst.k) for j in range(inst.d)]
        rows.append([inst.T] + [np.nan] * (len(cols) - 1))
        return cols, rows, {"optimal_cost": sol.optimal_cost}
    if kind in ("pg", "ppg", "zo-pg", "zo-ppg"):
        inst = _instance(cfg)
        K0 = _initial_policy(cfg, inst)
        dc = _descent_cfg(cfg)
        constraint = _constraint(cfg) if kind.endswith("ppg") else None
        if kind.startswith("zo"):
            sm = SmoothingConfig(radius=float(cfg["radius"]), samples=as_count(cfg["samples"], "samples"))
            _, trace = run_modelfree_pg(inst, K0, dc, sm, seed, constraint=constraint)
        elif constraint is not None:
            _, trace = run_exact_ppg(inst, K0, dc, constraint)
        else:
            _, trace = run_exact_pg(inst, K0, dc)
        return trace.columns, trace.rows, {}
    if kind == "lob":
        if "lob_csv" in cfg:
            try:
                series = read_lob_csv(cfg["lob_csv"])
            except OSError as e:
                raise ValueError(f"cannot read lob_csv: {e}") from e
        else:
            series = synthetic_lob(book_from_config(cfg), seed)
        p = ac_from_config(cfg)
        rec = simulate_lob(series, solve_riccati(ac_to_lqr(p)).gains, float(cfg["phi_prime"]), float(cfg.get("q0", p.q0_mean)))
        cols = ["t", "trade", "proceeds", "holding"]
        rows = [[t, rec.trades[t], rec.proceeds[t], rec.holdings[t]] for t in range(len(rec.trades))]
        return cols, rows, {"shortfall": rec.shortfall, "clamped": rec.clamped}
    if kind == "qlearn":
        inst = _instance(cfg)
        table = make_qtable(inst, as_count(cfg.get("n_states", 100), "n_states"),
                            as_count(cfg.get("n_actions", 100), "n_actions"))
        lr = float(cfg.get("lr", 0.1))
        sweeps = as_count(cfg["sweeps"], "sweeps")
        if sweeps < 0:
            raise ValueError(f"sweeps must be >= 0, got {sweeps}")
        for i in range(sweeps):
            table = q_learning_step(table, inst, lr, [seed, i])
        n_rollouts = as_count(cfg.get("eval_rollouts", 100000), "eval_rollouts")
        cost = greedy_policy_cost(table, inst, n_rollouts, [seed, sweeps])
        cstar = solve_riccati(inst).optimal_cost
        return (
            ["sweeps", "greedy_cost", "optimal_cost", "normalized_error"],
            [[sweeps, cost, cstar, (cost - cstar) / cstar]],
            {},
        )
    if kind == "impact":
        if "impact.delta_s" in cfg:
            delta_s = np.asarray(cfg["impact.delta_s"], dtype=float)
            mfi = np.asarray(cfg["impact.mfi"], dtype=float)
        else:
            rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF])
            n = as_count(cfg.get("impact.n", 1000), "impact.n")
            mfi = rng.normal(0.0, float(cfg.get("impact.mfi_std", 100.0)), n)
            delta_s = float(cfg["impact.gamma"]) * mfi + float(cfg["impact.sigma"]) * rng.standard_normal(n)
        gamma_hat, sigma_hat = estimate_impact_params(delta_s, mfi)
        return ["gamma_hat", "sigma_hat"], [[gamma_hat, sigma_hat]], {}
    if kind == "deadline":
        p = ac_from_config(cfg)
        horizons = [as_count(h, "horizons") for h in cfg["horizons"]]
        rows = []
        for T in horizons:
            pT = replace(p, T=T)
            gains = solve_riccati(ac_to_lqr(pT)).gains
            path = expected_inventory_path(pT, gains)
            rows.extend([[T, t, path[t]] for t in range(T + 1)])
        return ["horizon", "t", "mean_inventory"], rows, {}
    raise ValueError(f"unknown kind {kind!r}")


def _cell(v, integer: bool):
    if not isinstance(v, (int, float, np.floating)):
        return v
    v = float(v)
    return repr(int(v)) if integer and v.is_integer() else repr(v)


def _write_csv(path, cols, rows):
    ints = [c in _INT_COLUMNS for c in cols]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cols)
        for r in rows:
            w.writerow([_cell(v, integer) for v, integer in zip(r, ints)])


def _seed_stats(vals: np.ndarray) -> np.ndarray:
    """(rows, 3 * cols): median, min and max over the seed axis of (rows,
    seeds, cols) values, as (median, min, max) per column."""
    stats = np.stack([np.median(vals, axis=1), vals.min(axis=1), vals.max(axis=1)], axis=-1)
    return stats.reshape(len(vals), -1)


def run_experiment(cfg: dict, seeds, outdir) -> dict:
    """Run all seeds, write per-seed CSVs, an aggregate CSV (median and
    min/max over seeds, per iteration number with the count of seeds that
    reached it for traces, else per row index over the shortest seed), and a
    manifest.  Returns the manifest."""
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    read = {"ac": kind != "impact", "book": kind == "lob" and "lob_csv" not in cfg}  # sections the run reads
    unread = [key for key in cfg if not read.get(key.split(".")[0], True)]
    if unread:
        raise ValueError(f"{unread[0]} is not read by kind {kind!r}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [int(s) for s in seeds]
    if kind in _SEEDLESS_KINDS:
        results = [_run_seed(cfg, kind, seeds[0])] * len(seeds)
    else:
        with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
            results = list(pool.map(lambda s: _run_seed(cfg, kind, s), seeds))
    scalars = {}
    for seed, (cols, rows, extra) in zip(seeds, results):
        _write_csv(out / f"seed_{seed}.csv", cols, rows)
        if extra:
            scalars[str(seed)] = extra
    cols = results[0][0]
    stats = [f"{c}_{stat}" for c in cols for stat in ("median", "min", "max")]
    if "iter" in cols:
        # traces stop at different iterations (target_error): pair rows by
        # iteration number over the seeds that reached it
        vals = np.concatenate([np.array(rows, dtype=float).reshape(-1, len(cols)) for _, rows, _ in results])
        it = vals[:, cols.index("iter")].astype(int)
        order = np.argsort(it, kind="stable")  # by iteration, then seed
        iters, first, n_seeds = np.unique(it[order], return_index=True, return_counts=True)
        agg_cols = ["iter", "n_seeds"] + stats
        agg_rows = []
        # one block per run of iterations with equal seed counts
        ends = np.flatnonzero(np.diff(n_seeds, append=0)) + 1
        for lo, hi in zip(np.concatenate([[0], ends[:-1]]), ends):
            block = vals[order[first[lo]:first[hi - 1] + n_seeds[lo]]].reshape(hi - lo, n_seeds[lo], len(cols))
            agg_rows += [[int(i), int(n), *r] for i, n, r in zip(iters[lo:hi], n_seeds[lo:hi], _seed_stats(block))]
    else:
        agg_cols = ["row"] + stats
        n = min(len(r[1]) for r in results)
        block = np.array([rows[:n] for _, rows, _ in results], dtype=float).reshape(len(results), n, len(cols))
        agg_rows = [[i, *r] for i, r in enumerate(_seed_stats(block.swapaxes(0, 1)))]
    _write_csv(out / "aggregate.csv", agg_cols, agg_rows)
    from .config_io import dump_kv

    manifest = {
        "kind": kind,
        "config_sha256": hashlib.sha256(dump_kv(cfg).encode()).hexdigest(),
        "seeds": seeds,
        "versions": {"lqrlab": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                     "python": platform.python_version()},
    }
    if scalars:
        manifest["scalars"] = scalars
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="lqrlab", description="finite-horizon noisy LQR experiments")
    ap.add_argument("kind", choices=KINDS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--out", default="out")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        cfg["kind"] = args.kind
    except (OSError, ValueError, KeyError) as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(cfg, args.seeds, args.out)
    except (KeyError, ValueError) as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # the run reads no file but lob_csv, whose OSError is a ValueError
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    except (LqrlabError, FloatingPointError) as e:
        print(f"error: run failed: {e}", file=sys.stderr)
        return 3
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
