"""lqrlab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): zo-liquidation, exact-pg, pg-vs-qlearn-cli.
The package is imported from `src/` next to this directory; without it the
command exits with code 2.

--trace 0 prints the end-to-end metrics: setup_s (median over three fresh
interpreters that import lqrlab and build the workload), run_s.p50 (median
seed-run time; on the CLI workload one `zo-pg` + `qlearn` invocation pair),
iters_per_s (descent iterations per second) and peak_rss_mb.  Times are
rescaled to a reference machine speed (see speed.py); the raw wall times are
in the metadata.

--trace 1 runs the same units twice, untraced and then traced, and prints the
per-layer metrics from the traced pass, with the tracing overhead against the
untraced pass.  The spans are written to perfbench/out/spans-<workload>.npz.

A metadata line precedes the result; the last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}.  The exit
code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time import and set-up once, then exit")
    return ap.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def setup_once(name, seed, workdir):
    """Import the package and build the workload; returns (workload, raw seconds)."""
    t0 = time.perf_counter()
    from speed import SpeedLog
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, workdir, SpeedLog())
    return wl, time.perf_counter() - t0


def setup_seconds(args) -> list:
    """(reference, raw) set-up seconds of fresh interpreters.  Unless
    bytecode caching is off, the parent's import has already written the
    caches, as a user's second run would find them."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return [t["setup_s"] for t in times], [t["raw_s"] for t in times]


def measure(unit, speed, seconds, min_units, n_units=None):
    """Run units 0, 1, ... until `seconds` have passed and at least
    `min_units` ran, or exactly `n_units`, sampling the machine's speed
    between units; returns (results, (start, end))."""
    from workloads import Unit

    results = []
    speed.sample()
    start = time.perf_counter()
    while True:
        i = len(results)
        try:
            results.append(unit(i))
        except Exception as e:  # a raising seed-run is counted, not fatal
            print(f"unit {i} raised {type(e).__name__}: {e}", file=sys.stderr)
            results.append(Unit([], attempted=1, failed=1))
        speed.sample(min_gap=0.05)
        if n_units is not None:
            if len(results) >= n_units:
                break
        elif time.perf_counter() - start >= seconds and len(results) >= min_units:
            break
    end = time.perf_counter()
    speed.sample()
    return results, (start, end)


def end_to_end(results, span, speed, setup):
    """The end-to-end metrics of an untraced run."""
    runs = [speed.ref_seconds(a, b) for u in results for a, b in u.runs]
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "run_s.p50": _metric(statistics.median(runs), "s"),
        "iters_per_s": _metric(sum(u.iters for u in results) / speed.ref_seconds(*span), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(wl, args):
    """Untraced pass, then the same units traced.  On the CLI workload the
    untraced pass is also repeated in the default thread pool."""
    from tracing import SpanTable, Tracer

    speed = wl.speed
    n_units = getattr(wl, "trace_units", None)
    base, span_base = measure(wl.unit, speed, args.seconds / 2, wl.min_units, n_units)
    extra = {"cli.threads": 0, "cli.pool_speedup": 0.0}
    pooled = []
    if hasattr(wl, "pool"):
        os.environ["LQRLAB_THREADS"] = str(wl.pool)
        pooled, span_pooled = measure(wl.unit, speed, 0, 1, len(base))
        os.environ["LQRLAB_THREADS"] = "1"
        extra = {"cli.threads": wl.pool, "cli.pool_speedup": speed.ref_seconds(*span_base) / speed.ref_seconds(*span_pooled)}
    tracer = Tracer()
    speed.sample = tracer.traced("bench.probe", speed.sample)  # probe time is no layer's self time
    with tracer.installed():
        traced, span_traced = measure(tracer.traced("bench.unit", wl.unit), speed, 0, 1, len(base))
    del speed.sample
    wall_traced = span_traced[1] - span_traced[0]
    spans = tracer.spans()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}.npz", spans)
    table = SpanTable(tracer.names, spans)
    to_target = [u.rollouts for u in traced if u.info.get("reached")]
    extra.update({
        "zeroth.rollouts_to_target.p50": float(statistics.median(to_target)) if to_target else 0.0,
        "trace.overhead_frac": speed.ref_seconds(*span_traced) / speed.ref_seconds(*span_base) - 1.0,
        # benchmark code inside units, and between units apart from speed probes
        "trace.unattributed_s": table.total("bench.unit", self_only=True) + wall_traced - table.total("bench.unit")
        - (speed.probe_seconds(*span_traced) - table.total("bench.probe", where=table.parent >= 0)),
        "trace.spans": int(table.name.size),
    })
    problems = [
        f"determinism: unit {i} gave {a.info.get('result')}, then {b.info.get('result')} on a repeat"
        for repeat in (pooled, traced)
        for i, (a, b) in enumerate(zip(base, repeat))
        if a.info.get("result") != b.info.get("result")
    ]
    return base + pooled + traced, span_base, per_layer(table, tracer.counters, extra), problems


def per_layer(t, counters, extra) -> dict:
    """Per-layer metrics from a SpanTable; times are self times unless noted."""

    def per_call(name, count=None, scale=1e6, inclusive=False):
        n = t.calls(name) if count is None else count
        return t.total(name, self_only=not inclusive) * scale / n if n else 0.0

    m = {}
    for fn in ("make_rng", "draw", "backup_value", "covariance_profile", "exact_gradient", "solve_riccati"):
        m[f"core.{fn}.calls"] = (t.calls(f"core.{fn}"), "count")
        m[f"core.{fn}.us_per_call"] = (per_call(f"core.{fn}"), "us")
    m["core.busy_s"] = (t.layer_self("core"), "s")

    rollouts = int(counters.get("zeroth.rollouts", 0))
    est = t.total("zeroth.estimate_gradient")
    sampling = t.total("core.make_rng", "core.draw", "zeroth.sample_sphere", self_only=True,
                       where=t.under("zeroth.estimate_gradient"))
    m["zeroth.rollouts"] = (rollouts, "count")
    m["zeroth.us_per_rollout"] = (est * 1e6 / rollouts if rollouts else 0.0, "us")
    m["zeroth.sample_sphere.us_per_call"] = (per_call("zeroth.sample_sphere"), "us")
    m["zeroth.rollout_perturbed_batch.us_per_call"] = (per_call("zeroth.rollout_perturbed_batch"), "us")
    m["zeroth.sampling_share"] = (sampling / est if est else 0.0, "fraction")
    m["zeroth.rollouts_to_target.p50"] = (extra["zeroth.rollouts_to_target.p50"], "count")
    m["zeroth.smoothed_gradient_reference.s"] = (t.total("zeroth.smoothed_gradient_reference"), "s")
    m["zeroth.self_s"] = (t.layer_self("zeroth"), "s")

    exact_iters = int(counters.get("optimize.exact_iters", 0))
    loops = ("optimize.run_exact_pg", "optimize.run_exact_ppg", "zeroth.run_modelfree_pg", "zeroth.run_modelfree_ppg")
    # exact_cost calls of one exact run: one at the start, one per step, the rest are Armijo trials
    evals = t.calls("core.exact_cost", where=t.parent_is("optimize.run_exact_pg", "optimize.run_exact_ppg"))
    attempts = evals - int(counters.get("optimize.exact_runs", 0)) - exact_iters
    zo_loop = t.total("zeroth.run_modelfree_pg") - t.total("bench.probe", where=t.parent_is("zeroth.run_modelfree_pg"))
    oracle = t.total("core.exact_cost", "core.exact_gradient", "core.solve_riccati",
                     where=t.parent_is("zeroth.run_modelfree_pg"))
    points = int(counters.get("optimize.project.points", 0))
    m["optimize.iters"] = (exact_iters + int(counters.get("optimize.zo_iters", 0)), "count")
    m["optimize.loop_self_s"] = (t.total(*loops, self_only=True), "s")
    m["optimize.cost_evals_per_iter"] = (attempts / exact_iters if exact_iters else 0.0, "evals/iter")
    m["optimize.trace_oracle_share"] = (oracle / zo_loop if zo_loop else 0.0, "fraction")
    m["optimize.project.us_per_point"] = (per_call("optimize.project", count=points), "us")
    m["optimize.self_s"] = (t.layer_self("optimize"), "s")

    m["liquidation.simulate_lob.us_per_call"] = (per_call("liquidation.simulate_lob"), "us")
    m["liquidation.walk_the_book.calls"] = (t.calls("liquidation.walk_the_book"), "count")
    m["liquidation.walk_the_book.us_per_call"] = (per_call("liquidation.walk_the_book"), "us")
    m["liquidation.synthetic_lob.us_per_call"] = (per_call("liquidation.synthetic_lob"), "us")
    m["liquidation.self_s"] = (t.layer_self("liquidation"), "s")

    transitions = counters.get("qlearn.transitions", 0)
    m["qlearn.q_learning_step.ms_per_sweep"] = (per_call("qlearn.q_learning_step", scale=1e3, inclusive=True), "ms")
    m["qlearn.greedy_policy_cost.us_per_rollout"] = (
        per_call("qlearn.greedy_policy_cost", count=int(counters.get("qlearn.eval_rollouts", 0)), inclusive=True), "us")
    m["qlearn.clamp_frac"] = (counters.get("qlearn.clamps", 0) / transitions if transitions else 0.0, "fraction")
    m["qlearn.self_s"] = (t.layer_self("qlearn"), "s")

    m["cli.threads"] = (extra["cli.threads"], "count")
    m["cli.pool_speedup"] = (extra["cli.pool_speedup"], "ratio")
    m["cli.io_s"] = (t.total("cli.run_experiment", self_only=True), "s")
    m["cli.self_s"] = (t.layer_self("cli"), "s")

    m["trace.unattributed_s"] = (extra["trace.unattributed_s"], "s")
    m["trace.overhead_frac"] = (extra["trace.overhead_frac"], "fraction")
    m["trace.spans"] = (extra["trace.spans"], "count")
    return {k: _metric(v, u) for k, (v, u) in m.items()}


def metadata(args, wl, results, span, speed, setup_raw) -> dict:
    import numpy
    import scipy

    from workloads import nproc, source_digest

    runs = [b - a for u in results for a, b in u.runs]
    wall = span[1] - span[0]
    attempted = sum(u.attempted for u in results)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    q1, q2, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    rollouts = sum(u.rollouts for u in results)
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cli_pool": getattr(wl, "pool", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": source_digest(),
        "units": len(results),
        "seed_runs": len(runs),
        "failed_frac": sum(u.failed for u in results) / attempted,
        "wall_s": wall,
        "raw.iters_per_s": sum(u.iters for u in results) / wall,
        "raw.rollouts_per_s": rollouts / wall if rollouts else None,
        "raw.run_s.p90": statistics.quantiles(runs, n=10)[-1] if len(runs) >= 100 else None,
        "raw.run_s.quartiles": [q1, q2, q3],
        "raw.run_s.iqr_frac": (q3 - q1) / q2,
        "raw.setup_s": setup_raw,
        "speed.probe_ms.quartiles": [1e3 * q for q in statistics.quantiles([s[2] for s in speed.samples], n=4)],
        "speed.ref_over_wall": speed.ref_seconds(*span) / wall,
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "lqrlab" / "__init__.py").is_file():
        print(f"error: no lqrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    workdir = OUT / ("setup" if args.setup_only else "run")
    if args.setup_only:
        _, seconds = setup_once(args.workload, args.seed, workdir)
        end = time.perf_counter()
        from speed import SpeedLog

        speed = SpeedLog()
        speed.sample()
        print(json.dumps({"setup_s": speed.ref_seconds(end - seconds, end), "raw_s": seconds}))
        return 0

    import lqrlab
    from workloads import WORKLOADS

    if Path(lqrlab.__file__).resolve().parent != ROOT / "src" / "lqrlab":
        print(f"error: imported lqrlab from {lqrlab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    setup, setup_raw = setup_seconds(args)
    wl, _ = setup_once(args.workload, args.seed, workdir)
    speed = wl.speed
    if args.trace:
        results, span, metrics, problems = run_traced(wl, args)
    else:
        results, span = measure(wl.unit, speed, args.seconds, wl.min_units)
        metrics, problems = end_to_end(results, span, speed, setup), []
    problems += wl.check(results)
    failed = sum(u.failed for u in results)
    meta = metadata(args, wl, results, span, speed, setup_raw)
    meta["problems"] = problems
    print(json.dumps({"meta": meta}))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": sum(u.attempted for u in results), "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({**result, "meta": meta}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
