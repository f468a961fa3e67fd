"""Experiment harness and command line entry point.

    lqrlab <kind> --config <path> [--seeds 1 2 3] [--out dir]

Kinds: riccati, pg, ppg, zo-pg, zo-ppg, lob, impact, qlearn, deadline.
Seeds fan out over a thread pool capped by the LQRLAB_THREADS environment
variable.  Every run writes a manifest plus one CSV per seed and, for
iterative kinds, an aggregate CSV with per-iteration median and min/max
envelope.  Exit codes: 0 success, 2 invalid config or usage, 3 runtime
failure.
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
from .config_io import ac_from_config, instance_from_config, load_config
from .core import solve_riccati
from .errors import LqrlabError
from .liquidation import (
    SyntheticBookConfig,
    ac_to_lqr,
    almgren_chriss_reference,
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
    return DescentConfig(
        eta=float(cfg["eta"]),
        iters=int(cfg["iters"]),
        line_search=bool(cfg.get("line_search", False)),
        target_error=cfg.get("target_error"),
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
            sm = SmoothingConfig(radius=float(cfg["radius"]), samples=int(cfg["samples"]))
            _, trace = run_modelfree_pg(inst, K0, dc, sm, seed, constraint=constraint)
        elif constraint is not None:
            _, trace = run_exact_ppg(inst, K0, dc, constraint)
        else:
            _, trace = run_exact_pg(inst, K0, dc)
        return trace.columns, trace.rows, {}
    if kind == "lob":
        if "lob_csv" in cfg:
            series = read_lob_csv(cfg["lob_csv"])
        else:
            series = synthetic_lob(
                SyntheticBookConfig(
                    T=int(cfg["book.T"]),
                    levels=int(cfg.get("book.levels", 10)),
                    tick=float(cfg.get("book.tick", 0.1)),
                    depth_mean=float(cfg.get("book.depth_mean", 400.0)),
                    mid0=float(cfg.get("book.mid0", 200.0)),
                    sigma_mid=float(cfg.get("book.sigma_mid", 0.1)),
                ),
                seed,
            )
        p = ac_from_config(cfg)
        gains, _ = almgren_chriss_reference(p) if p.epsilon == 0.0 else (solve_riccati(ac_to_lqr(p)).gains, None)
        rec = simulate_lob(series, gains, float(cfg["phi_prime"]), float(cfg.get("q0", p.q0_mean)))
        cols = ["t", "trade", "proceeds", "holding"]
        rows = [[t, rec.trades[t], rec.proceeds[t], rec.holdings[t]] for t in range(len(rec.trades))]
        return cols, rows, {"shortfall": rec.shortfall, "clamped": rec.clamped}
    if kind == "qlearn":
        inst = _instance(cfg)
        table = make_qtable(inst, int(cfg.get("n_states", 100)), int(cfg.get("n_actions", 100)))
        lr = float(cfg.get("lr", 0.1))
        sweeps = int(cfg["sweeps"])
        for i in range(sweeps):
            table = q_learning_step(table, inst, lr, [seed, i])
        cost = greedy_policy_cost(table, inst, int(cfg.get("eval_rollouts", 100000)), [seed, sweeps])
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
            n = int(cfg.get("impact.n", 1000))
            mfi = rng.normal(0.0, float(cfg.get("impact.mfi_std", 100.0)), n)
            delta_s = float(cfg["impact.gamma"]) * mfi + float(cfg["impact.sigma"]) * rng.standard_normal(n)
        gamma_hat, sigma_hat = estimate_impact_params(delta_s, mfi)
        return ["gamma_hat", "sigma_hat"], [[gamma_hat, sigma_hat]], {}
    if kind == "deadline":
        p = ac_from_config(cfg)
        horizons = [int(h) for h in cfg["horizons"]]
        rows = []
        for T in horizons:
            pT = replace(p, T=T)
            gains = solve_riccati(ac_to_lqr(pT)).gains
            path = expected_inventory_path(pT, gains)
            rows.extend([[T, t, path[t]] for t in range(T + 1)])
        return ["horizon", "t", "mean_inventory"], rows, {}
    raise ValueError(f"unknown kind {kind!r}")


def _write_csv(path, cols, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cols)
        for r in rows:
            w.writerow([repr(float(v)) if isinstance(v, (int, float, np.floating)) else v for v in r])


def run_experiment(cfg: dict, seeds, outdir) -> dict:
    """Run all seeds, write per-seed CSVs, an aggregate CSV (median and
    min/max over seeds, per iteration number with the count of seeds that
    reached it for traces, else per row index over the shortest seed), and a
    manifest.  Returns the manifest."""
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [int(s) for s in seeds]
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
        j = cols.index("iter")
        groups = {}
        for _, rows, _ in results:
            for r in rows:
                groups.setdefault(int(r[j]), []).append(r)
        agg_cols = ["iter", "n_seeds"] + stats
        keyed = [([i, len(groups[i])], groups[i]) for i in sorted(groups)]
    else:
        agg_cols = ["row"] + stats
        keyed = [([i], [res[1][i] for res in results]) for i in range(min(len(r[1]) for r in results))]
    agg_rows = []
    for head, rows in keyed:
        vals = np.array([[float(v) for v in r] for r in rows])
        row = list(head)
        for j in range(len(cols)):
            col = vals[:, j]
            row.extend([np.median(col), col.min(), col.max()])
        agg_rows.append(row)
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
    except (LqrlabError, FloatingPointError) as e:
        print(f"error: run failed: {e}", file=sys.stderr)
        return 3
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
