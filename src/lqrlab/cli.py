"""Experiment harness and command line entry point.

    lqrlab <kind> --config <path> [--seeds 1 2 3] [--out dir]

Kinds: riccati, pg, ppg, zo-pg, zo-ppg, lob, impact, qlearn, deadline.  Each
kind first reads its keys from the config, once and without the seed; any
key it does not read is a config error, reported before any seed runs.  Seeds
then run one after another in the calling thread; the kinds whose runs never
read the seed run once, and that run stands for every seed.  Every run writes
a manifest plus one CSV per seed and an aggregate CSV whose row i holds the
median and min/max envelope of row i over the seeds that have one.  A zo
kind's manifest also records its rollout layout, "branched", and each seed's
rollouts: per estimate, the m paths and the T * m branches rolled off them.
Exit codes: 0 success, 2 invalid config or usage, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config_io import (
    ac_from_config,
    as_array,
    as_count,
    as_float,
    book_from_config,
    dump_kv,
    instance_from_config,
    load_config,
)
from .core import _check_array, make_rng, solve_riccati
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
from .qlearn import _scalars, greedy_policy_cost, make_qtable, q_learning_step
from .zeroth import SmoothingConfig, run_modelfree_pg

KINDS = ["riccati", "pg", "ppg", "zo-pg", "zo-ppg", "lob", "impact", "qlearn", "deadline"]

# CSV columns that count or index, written as integers ("3", not "3.0")
_INT_COLUMNS = frozenset({"iter", "n_seeds", "row", "m", "t", "sweeps", "horizon"})


def _max_workers() -> int:
    """The removed seed pool's size, read only by perfbench/workloads.py and
    tests/test_bench_bindings.py; ROADMAP item 1 deletes it."""
    env = os.environ.get("LQRLAB_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def _initial_policy(k0, instance):
    K, shape = as_array(k0, "policy0"), (instance.T, instance.k, instance.d)
    _check_array(K, "policy0", K.shape)
    if K.ndim and K.size != np.prod(shape):
        raise ValueError(f"policy0 must be a number or hold T * k * d = {np.prod(shape)} gains, got {K.size}")
    return K.reshape(shape) if K.ndim else np.full(shape, float(K))


def _read(keys: dict, kind: str):
    """Take every key `kind` reads out of keys and return (run, seeded):
    run(seed) -> (columns, rows, scalars) does the file reads and the heavy
    work, and reads the seed only if seeded."""
    if kind == "impact":
        cols = ["gamma_hat", "sigma_hat"]
        if "impact.delta_s" in keys:  # explicit quotes are fitted, and so checked, as they are read
            fit = estimate_impact_params(as_array(keys.pop("impact.delta_s"), "impact.delta_s"),
                                         as_array(keys.pop("impact.mfi"), "impact.mfi"))
            return (lambda seed: (cols, [list(fit)], {})), False
        n = as_count(keys.pop("impact.n", 1000), "impact.n", 2)
        mfi_std = as_float(keys.pop("impact.mfi_std", 100.0), "impact.mfi_std", 0)
        gamma, sigma = as_float(keys.pop("impact.gamma"), "impact.gamma"), as_float(keys.pop("impact.sigma"), "impact.sigma")

        def run(seed):
            rng = make_rng(seed)
            mfi = rng.normal(0.0, mfi_std, n)
            return cols, [list(estimate_impact_params(gamma * mfi + sigma * rng.standard_normal(n), mfi))], {}

        return run, True
    if kind == "deadline":
        p = ac_from_config(keys)
        horizons = keys.pop("horizons")
        if not isinstance(horizons, list):
            raise ValueError(f"horizons must be a list of whole numbers, got {horizons!r}")
        cases = [(pT, ac_to_lqr(pT)) for pT in (replace(p, T=as_count(h, "horizons", 1)) for h in horizons)]

        def run(seed):
            rows = []
            for pT, inst in cases:
                path = expected_inventory_path(pT, solve_riccati(inst).gains)
                rows.extend([[pT.T, t, path[t]] for t in range(pT.T + 1)])
            return ["horizon", "t", "mean_inventory"], rows, {}

        return run, False
    if kind == "lob":
        p = ac_from_config(keys)
        inst = ac_to_lqr(p)
        phi_prime, q0 = as_float(keys.pop("phi_prime"), "phi_prime"), as_float(keys.pop("q0", p.q0_mean), "q0", 0)
        seeded = "lob_csv" not in keys
        if not seeded:
            lob_csv = keys.pop("lob_csv")
            if not isinstance(lob_csv, str):
                raise ValueError(f"lob_csv must be a path, got {lob_csv!r}")

            def series(seed):
                try:
                    return read_lob_csv(lob_csv)
                except OSError as e:
                    raise ValueError(f"cannot read lob_csv: {e}") from e
        else:
            book = book_from_config(keys)

            def series(seed):
                return synthetic_lob(book, seed)

        def run(seed):
            rec = simulate_lob(series(seed), solve_riccati(inst).gains, phi_prime, q0)
            rows = [[t, rec.trades[t], rec.proceeds[t], rec.holdings[t]] for t in range(len(rec.trades))]
            return ["t", "trade", "proceeds", "holding"], rows, {"shortfall": rec.shortfall, "clamped": rec.clamped}

        return run, seeded
    inst = ac_to_lqr(ac_from_config(keys)) if any(k.startswith("ac.") for k in keys) else instance_from_config(keys)
    if kind == "riccati":
        def run(seed):
            sol = solve_riccati(inst)
            cols = ["t"] + [f"K_{i}{j}" for i in range(inst.k) for j in range(inst.d)]
            rows = [[t, *sol.gains[t].ravel()] for t in range(inst.T)] + [[inst.T] + [np.nan] * (len(cols) - 1)]
            return cols, rows, {"optimal_cost": sol.optimal_cost}

        return run, False
    if kind == "qlearn":
        n_states, n_actions = (as_count(keys.pop(k, 100), k, low) for k, low in (("n_states", 2), ("n_actions", 1)))
        lr, sweeps = as_float(keys.pop("lr", 0.1), "lr", 0, 1), as_count(keys.pop("sweeps"), "sweeps")
        n_rollouts = as_count(keys.pop("eval_rollouts", 100000), "eval_rollouts", 1)
        _scalars(inst)  # a table for an instance that is not scalar raises here, before any output

        def run(seed):
            table = make_qtable(inst, n_states, n_actions)  # one a seed, so that no table outlives its seed
            for i in range(sweeps):
                table = q_learning_step(table, inst, lr, [seed, i])
            cost = greedy_policy_cost(table, inst, n_rollouts, [seed, sweeps])
            cstar = solve_riccati(inst).optimal_cost
            cols = ["sweeps", "greedy_cost", "optimal_cost", "normalized_error"]
            return cols, [[sweeps, cost, cstar, (cost - cstar) / cstar]], {}

        return run, True
    K0 = _initial_policy(keys.pop("policy0", 0.0), inst)
    target = keys.pop("target_error", None)
    dc = DescentConfig(eta=as_float(keys.pop("eta"), "eta"), iters=as_count(keys.pop("iters"), "iters"),
                       line_search=keys.pop("line_search", False),
                       target_error=None if target is None else as_float(target, "target_error"))
    constraint = None
    if kind.endswith("ppg"):
        constraint = liquidation_constraint(as_float(keys.pop("constraint.gamma_bar"), "constraint.gamma_bar"),
                                            as_float(keys.pop("constraint.zeta", 1e-12), "constraint.zeta"))
        constraint.contains(K0)  # a set that does not fit the gains raises ValueError here, before any output
    if kind.startswith("zo"):
        sm = SmoothingConfig(radius=as_float(keys.pop("radius"), "radius"), samples=as_count(keys.pop("samples"), "samples"))

        def descend(seed):
            return run_modelfree_pg(inst, K0, dc, sm, seed, constraint=constraint)
    elif constraint is not None:
        def descend(seed):
            return run_exact_ppg(inst, K0, dc, constraint)
    else:
        def descend(seed):
            return run_exact_pg(inst, K0, dc)

    def run(seed):
        _, trace = descend(seed)
        if not kind.startswith("zo"):
            return trace.columns, trace.rows, {}
        # each estimate rolls its m paths and T * m branches off them (zeroth.LqrSimulator)
        return trace.columns, trace.rows, {"rollouts": (len(trace.rows) - 1) * (inst.T + 1) * sm.samples}

    return run, kind.startswith("zo")


def _seed(s) -> int:
    """s as an int if it is an integer or a float of a whole number; ValueError
    for a fraction, a non-finite float, a bool, a string or anything else."""
    if isinstance(s, (int, np.integer)) and not isinstance(s, bool) or isinstance(s, float) and s.is_integer():
        return int(s)
    raise ValueError(f"seeds must be integers, got {s!r}")


def _run_seed(run, seed: int):
    """One seed of one experiment; returns (columns, rows, scalars)."""
    return run(seed)


def _cell(v, integer: bool):
    v = float(v)
    return repr(int(v)) if integer and v.is_integer() else repr(v)


def _write_csv(path, cols, rows):
    ints = [c in _INT_COLUMNS for c in cols]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cols)
        for r in rows:
            w.writerow([_cell(v, integer) for v, integer in zip(r, ints)])


def _median(block):
    """np.median(block, axis=1) by its own steps, bit for bit, but without its
    nan test's masked-array check, which imports numpy.ma (8-13 ms, 0.8 MB)."""
    n = block.shape[1]
    part = np.partition(block, [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1], axis=1)
    last = part[:, -1]  # nan wherever the cell has one
    return np.where(np.isnan(last), last, part[:, (n - 1) // 2:n // 2 + 1].mean(axis=1))


def _aggregate(results):
    """Columns and rows of the aggregate: row i holds the median (np.median's,
    through _median), min and max of each column's row i over the seeds that
    have a row i.  A trace's row i is iteration i, taken with the count of
    seeds that reached it; the other kinds stop at the shortest seed."""
    cols = results[0][0]
    trace = "iter" in cols
    lengths = [len(rows) for _, rows, _ in results]
    n = max(lengths) if trace else min(lengths)
    agg_rows, lo = [], 0
    for hi in sorted({min(length, n) for length in lengths}):  # rows lo..hi-1 have the same seeds
        block = np.array([rows[lo:hi] for _, rows, _ in results if len(rows) >= hi], dtype=float)
        block = block.reshape(len(block), hi - lo, len(cols)).swapaxes(0, 1)
        stats = np.stack([_median(block), block.min(axis=1), block.max(axis=1)], axis=-1)
        lead = [[i, block.shape[1]] if trace else [i] for i in range(lo, hi)]
        agg_rows += [head + list(r) for head, r in zip(lead, stats.reshape(hi - lo, -1))]
        lo = hi
    stats = [f"{c}_{stat}" for c in cols for stat in ("median", "min", "max")]
    return (["iter", "n_seeds"] if trace else ["row"]) + stats, agg_rows


def run_experiment(cfg: dict, seeds, outdir) -> dict:
    """Read the config, then run all seeds and write per-seed CSVs, the
    aggregate CSV and a manifest.  Returns the manifest.  ValueError names
    the first key the kind does not read, or seeds that are empty, repeat
    one or are not whole numbers, before anything is written."""
    keys = dict(cfg)
    kind = keys.pop("kind", None)
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    try:
        run, seeded = _read(keys, kind)
    except LqrlabError as e:  # a config that describes what cannot be built is invalid, not a failed run
        raise ValueError(str(e)) from e
    if keys:
        raise ValueError(f"{next(iter(keys))} is not read by kind {kind!r}")
    seeds = [_seed(s) for s in seeds]
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must name each seed once, got {seeds}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if not seeded:
        results = [_run_seed(run, seeds[0])] * len(seeds)
    else:
        results = [_run_seed(run, s) for s in seeds]
    scalars = {}
    for seed, (cols, rows, extra) in zip(seeds, results):
        _write_csv(out / f"seed_{seed}.csv", cols, rows)
        if extra:
            scalars[str(seed)] = extra
    _write_csv(out / "aggregate.csv", *_aggregate(results))
    import scipy  # here, not with the module: only the manifest reads it
    manifest = {
        "kind": kind,
        "config_sha256": hashlib.sha256(dump_kv(cfg).encode()).hexdigest(),
        "seeds": seeds,
        "versions": {"lqrlab": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                     "python": platform.python_version()},
    }
    if scalars:
        manifest["scalars"] = scalars
    if kind.startswith("zo"):
        manifest["rollout_layout"] = "branched"
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
