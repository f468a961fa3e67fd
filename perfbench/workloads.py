"""The benchmark's three workloads.

Each workload is built from the workload seed in its constructor (timed as
set-up), then runs numbered units, each made of one or more seed-runs, and
checks its outputs against its tier-1 bar.  Units look every lqrlab name up
at call time, so a tracer installed between units sees the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lqrlab
from lqrlab import benchmarks, cli, config_io, liquidation

TARGET = 1e-2  # normalized-error target of c5 and c6


@dataclass
class Unit:
    runs: list  # (start, end) perf_counter times of each seed-run in the unit
    attempted: int
    failed: int = 0
    iters: int = 0  # descent iterations
    rollouts: int = 0  # perturbed rollouts, iterations x T x m
    info: dict = field(default_factory=dict)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def source_digest() -> str:
    """sha256 over the package sources, naming the code a run measured."""
    h = hashlib.sha256()
    for path in sorted(Path(lqrlab.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _finite(*vals) -> bool:
    return bool(np.all(np.isfinite(np.asarray(vals, dtype=float))))


class ZoLiquidation:
    """c6 scaled down: model-free projected PG on AAPL, then execution of the
    learned gains, the Riccati gains and TWAP against a synthetic book."""

    name = "zo-liquidation"
    min_units = 7  # time to target varies with the seed (21-26 iterations); report a median of seven
    trace_units = 2  # about 250k spans each

    def __init__(self, seed: int, workdir: Path, speed):
        self.seed = seed
        self.speed = speed
        self.params = benchmarks.stock_liquidation("AAPL")
        self.instance = liquidation.ac_to_lqr(self.params)
        self.constraint = liquidation.liquidation_constraint(gamma_bar=5e-5, zeta=1e-12)
        self.descent = lqrlab.DescentConfig(eta=0.05, iters=50, target_error=TARGET)
        self.smoothing = lqrlab.SmoothingConfig(radius=0.6, samples=200)
        self.riccati = lqrlab.solve_riccati(self.instance)
        T, q0 = self.params.T, self.params.q0_mean
        self.books = liquidation.SyntheticBookConfig(T=T)
        self.twap = np.full(T, q0 / (T + 1))
        self.phi_prime = self.params.phi * self.params.sigma**2

    def unit(self, i: int) -> Unit:
        p, inst = self.params, self.instance
        run_seed = (self.seed << 20) | i
        K0 = np.full((inst.T, inst.k, inst.d), -0.2)
        t0 = time.perf_counter()
        K, trace = lqrlab.run_modelfree_ppg(inst, K0, self.descent, self.smoothing, run_seed, self.constraint,
                                            cost_oracle=self._cost)
        t1 = time.perf_counter()
        errs = trace.column("normalized_error")
        iters = len(trace.rows) - 1
        book = lqrlab.synthetic_lob(self.books, [run_seed, 1])
        recs = [lqrlab.simulate_lob(book, s, self.phi_prime, p.q0_mean) for s in (K, self.riccati.gains, self.twap)]
        ok = _finite(errs[-1], *[r.shortfall for r in recs]) and all(
            abs(r.trades.sum() - p.q0_mean) <= 1e-9 * p.q0_mean for r in recs
        )
        return Unit(
            [(t0, t1)], attempted=1, failed=int(not ok), iters=iters,
            rollouts=iters * inst.T * self.smoothing.samples,
            info={"reached": bool(errs.min() < TARGET), "result": [float(errs[-1]), *(r.shortfall for r in recs)]},
        )

    def _cost(self, K) -> float:
        """The loop's default trace oracle, with a speed sample once per iteration."""
        self.speed.sample()
        return lqrlab.exact_cost(self.instance, K)

    def check(self, units: list) -> list:
        reached = sum(u.info.get("reached", False) for u in units)
        if reached < 0.8 * len(units):
            return [f"c6 bar: {reached}/{len(units)} seed-runs reached normalized error {TARGET:g} (need >= 80%)"]
        return []


# (d, k, T) cycled by the random instances of exact-pg
SHAPES = list(itertools.product(range(1, 5), range(1, 3), range(2, 11)))
SUITE_SEED = 2024  # seed of the fixed suite of random instances


def random_instance(rng, d: int, k: int, T: int):
    """Random instance with PD Q, R, noise and initial covariance, drawn the
    way the test suite draws them."""
    A = rng.normal(size=(d, d)) * 0.5
    B = rng.normal(size=(d, k))
    M = rng.normal(size=(d, d))
    Q = M @ M.T + 0.3 * np.eye(d)
    M = rng.normal(size=(k, k))
    R = M @ M.T + 0.3 * np.eye(k)
    noise = lqrlab.NoiseModel("gaussian", 0.4)
    init = lqrlab.InitialStateModel("gaussian", rng.normal(size=d), 0.6)
    return lqrlab.constant_instance(A, B, Q, R, Q, T, noise, init)


class ExactPg:
    """Exact PG with Armijo line search on random instances and the 4-state
    benchmark, plus the smoothed-gradient reference oracle on the scalar
    instance.  Units repeat in rounds of ROUND: random instances, then one
    4-state run, then one reference call.

    Iterations to the target depend mostly on the instance, so drawing the
    instances per workload seed moved the median run time by 10% between
    seeds; the suite is fixed and the seed draws the starting policies."""

    name = "exact-pg"
    min_units = 1
    ROUND = 12
    RANDOM = 10

    def __init__(self, seed: int, workdir: Path, speed):
        self.seed = seed
        self.speed = speed
        # iterations to the target are heavy-tailed on random instances (a few
        # per thousand need over 1000), so runs stop at the target or after 50
        self.descent = lqrlab.DescentConfig(eta=1.0, iters=50, line_search=True, target_error=TARGET)
        self.four_state = benchmarks.four_state_benchmark()
        self.four_descent = lqrlab.DescentConfig(eta=1e-2, iters=50, line_search=True, target_error=TARGET)
        self.scalar = benchmarks.scalar_benchmark()
        self.scalar_K = np.full((self.scalar.T, 1, 1), 0.3)
        self.scalar_grad = lqrlab.exact_gradient(self.scalar, self.scalar_K)

    def unit(self, i: int) -> Unit:
        rnd, j = divmod(i, self.ROUND)
        rng = np.random.default_rng([self.seed, i])
        if j < self.RANDOM:
            n = rnd * self.RANDOM + j
            inst = random_instance(np.random.default_rng([SUITE_SEED, n]), *SHAPES[n % len(SHAPES)])
            K0 = rng.normal(size=(inst.T, inst.k, inst.d)) * 0.2
            return self._run(inst, K0, self.descent)
        if j == self.RANDOM:
            K0 = 0.05 + rng.uniform(-0.02, 0.02, size=(10, 2, 4))
            return self._run(self.four_state, K0, self.four_descent)
        t = rnd % self.scalar.T
        ref = lqrlab.smoothed_gradient_reference(self.scalar, self.scalar_K, t, 0.05, 500, [self.seed, i])
        err = float(np.abs(ref - self.scalar_grad[t]).max())
        ok = _finite(err) and err <= 0.05 * float(np.abs(self.scalar_grad).max())
        return Unit([], attempted=1, failed=int(not ok), info={"result": [err]})

    def _run(self, inst, K0, cfg) -> Unit:
        t0 = time.perf_counter()
        _, trace = lqrlab.run_exact_pg(inst, K0, cfg)
        t1 = time.perf_counter()
        final = float(trace.rows[-1][trace.columns.index("normalized_error")])
        return Unit([(t0, t1)], attempted=1, failed=int(not _finite(final)), iters=len(trace.rows) - 1,
                    info={"final_error": final, "result": [final]})

    def check(self, units: list) -> list:
        errs = [u.info["final_error"] for u in units if "final_error" in u.info]
        median = float(np.median(errs)) if errs else np.inf
        if not median < TARGET:
            return [f"c5 bar: median final normalized error {median:g} over {len(errs)} exact-PG runs (need < {TARGET:g})"]
        return []


class PgVsQlearnCli:
    """c11 through the command line: `lqrlab zo-pg` and `lqrlab qlearn` on
    c11's ten seeds, in groups of one seed per thread of the default pool
    (capped at nproc).  The workload seed permutes the seeds.

    Runs at LQRLAB_THREADS=1: the default 2-thread pool does the same work
    1.2-1.7x slower (cli.pool_speedup), which made a run of the ten seeds take
    80-141 s instead of about 60 s.  Traced runs repeat a group in the
    default pool, so outputs are still checked across interleavings."""

    name = "pg-vs-qlearn-cli"
    SEEDS = range(10)  # c11's seeds; its >= 70% win bar is a statement about these ten
    trace_units = 1
    PROBE_EVERY = 10  # loop iterations between speed samples (an iteration takes about 20 ms)

    def __init__(self, seed: int, workdir: Path, speed):
        self.speed = speed
        self.dir = workdir / "cli"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        inst = benchmarks.scalar_benchmark()
        base = {
            "instance.A": inst.A.tolist(),
            "instance.B": inst.B.tolist(),
            "instance.Q": inst.Q.tolist(),
            "instance.R": inst.R.tolist(),
            "instance.noise.kind": inst.noise.kind,
            "instance.noise.sigma": inst.noise.sigma,
            "instance.init.kind": inst.init.kind,
            "instance.init.mean": np.asarray(inst.init.mean).tolist(),
            "instance.init.sigma": inst.init.sigma,
        }
        configs = {
            "zo-pg": {**base, "eta": 0.2, "iters": 300, "radius": 0.1, "samples": 50, "policy0": 0.0},
            "qlearn": {**base, "sweeps": 10, "lr": 0.1, "n_states": 100, "n_actions": 100, "eval_rollouts": 200_000},
        }
        self.rollouts_per_iter = inst.T * configs["zo-pg"]["samples"]
        self.configs = {}
        for kind, cfg in configs.items():
            path = self.dir / f"{kind}.cfg"
            path.write_text(config_io.dump_kv(cfg))
            self.configs[kind] = str(path)
        loaded = config_io.load_config(self.configs["zo-pg"])
        self.optimal_cost = lqrlab.solve_riccati(config_io.instance_from_config(loaded)).optimal_cost
        self.pool = min(cli._max_workers(), nproc())
        os.environ["LQRLAB_THREADS"] = "1"
        order = np.random.default_rng(seed).permutation(list(self.SEEDS))
        self.groups = [order[g:g + self.pool].tolist() for g in range(0, len(order), self.pool)]
        self.min_units = len(self.groups)
        self.store = workdir / f"digests-{source_digest()[:16]}.json"

    def _cli(self, kind: str, seeds: list, out: Path) -> int:
        argv = [kind, "--config", self.configs[kind], "--seeds", *map(str, seeds), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), self._sampling_speed():
            return lqrlab.cli.main(argv)

    @contextlib.contextmanager
    def _sampling_speed(self):
        """Rebind the CLI's model-free loop so that it gets a trace oracle that
        samples the machine's speed every PROBE_EVERY calls and returns the
        loop's default, exact_cost; the outputs are unchanged."""
        loop = cli.run_modelfree_pg

        def sampled(inst, *args, **kwargs):
            calls = itertools.count()

            def cost(K):
                if next(calls) % self.PROBE_EVERY == 0:
                    self.speed.sample()
                return lqrlab.exact_cost(inst, K)

            return loop(inst, *args, cost_oracle=cost, **kwargs)

        cli.run_modelfree_pg = sampled
        try:
            yield
        finally:
            cli.run_modelfree_pg = loop

    def unit(self, i: int) -> Unit:
        seeds = list(self.groups[i % len(self.groups)])
        if (i // len(self.groups)) % 2:
            seeds.reverse()  # repeats enter the pool in the other order
        out = self.dir / f"unit{i}"
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        codes = {kind: self._cli(kind, seeds, out / kind) for kind in ("zo-pg", "qlearn")}
        t1 = time.perf_counter()
        info = {"pg": {}, "ql": {}, "digests": {}, "result": []}
        failed = iters = 0
        for s in seeds:
            try:
                pg = _read_csv(out / "zo-pg" / f"seed_{s}.csv")
                ql = _read_csv(out / "qlearn" / f"seed_{s}.csv")
                pg_err = float(pg[-1]["normalized_error"])
                ql_err = float(ql[-1]["normalized_error"])
                ok = codes["zo-pg"] == 0 and codes["qlearn"] == 0 and _finite(pg_err, ql_err)
                ok = ok and float(ql[-1]["optimal_cost"]) == self.optimal_cost
            except (OSError, KeyError, IndexError, ValueError):
                ok = False
            if not ok:
                failed += 1
                continue
            iters += len(pg) - 1
            info["pg"][s], info["ql"][s] = pg_err, ql_err
            info["result"].append([s, pg_err, ql_err])
            for kind in codes:
                info["digests"][f"{kind}/seed_{s}.csv"] = _sha256(out / kind / f"seed_{s}.csv")
        if not failed:
            pair = ",".join(map(str, sorted(seeds)))
            for kind in codes:
                info["digests"][f"{kind}/aggregate[{pair}].csv"] = _sha256(out / kind / "aggregate.csv")
        info["result"].sort()
        shutil.rmtree(out, ignore_errors=True)
        return Unit([(t0, t1)], attempted=len(seeds), failed=failed, iters=iters, rollouts=iters * self.rollouts_per_iter, info=info)

    def check(self, units: list) -> list:
        problems = []
        seen = json.loads(self.store.read_text()) if self.store.exists() else {}
        for u in units:
            for key, digest in u.info.get("digests", {}).items():
                if seen.setdefault(key, digest) != digest:
                    problems.append(f"determinism: {key} differs from an earlier run of the same code")
        tmp = self.store.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, sort_keys=True))
        tmp.replace(self.store)
        pg = {s: e for u in units for s, e in u.info.get("pg", {}).items()}
        ql = {s: e for u in units for s, e in u.info.get("ql", {}).items()}
        if set(pg) == set(self.SEEDS):
            wins = sum(pg[s] < ql[s] for s in self.SEEDS)
            if wins < 0.7 * len(self.SEEDS):
                problems.append(f"c11 bar: PG beat Q-learning on {wins}/{len(self.SEEDS)} seeds (need >= 70%)")
        return problems


def _read_csv(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


WORKLOADS = {w.name: w for w in (ZoLiquidation, ExactPg, PgVsQlearnCli)}
