"""The names the benchmark harness in perfbench/ binds must keep existing.

perfbench/tracing.py rebinds the functions and methods in its FUNCTIONS and
METHODS tables and its HOOKS read the traced calls' arguments, and
perfbench/workloads.py calls cli._max_workers, rebinds cli.run_modelfree_pg,
passes cost_oracle to run_modelfree_ppg and builds DescentConfig and
SmoothingConfig by keyword.  A deletion or a change of signature that breaks
any of these fails here rather than in a benchmark run.
"""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import lqrlab
from lqrlab import DescentConfig, SmoothingConfig, cli, exact_cost, run_modelfree_ppg
from lqrlab.benchmarks import scalar_benchmark, stock_liquidation
from lqrlab.config_io import dump_kv
from lqrlab.liquidation import SyntheticBookConfig, ac_to_lqr, liquidation_constraint

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores():
    tracing = _tracing()
    loop = cli.run_modelfree_pg
    inst = ac_to_lqr(stock_liquidation())
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.run_modelfree_pg is not loop
        run_modelfree_ppg(inst, np.full((10, 1, 2), -0.2), DescentConfig(eta=0.05, iters=2),
                          SmoothingConfig(radius=0.6, samples=5), 0, liquidation_constraint(5e-5, 1e-12),
                          cost_oracle=lambda K: exact_cost(inst, K))
    assert cli.run_modelfree_pg is loop
    assert tracer.counters["optimize.zo_iters"] == 2
    assert "zeroth.estimate_gradient" in tracer.names


# the counters of HOOKS that the traced scenario below reaches: all but
# zeroth.rollouts, whose LqrSimulator.rollout_perturbed_batch no estimator calls
REACHED_COUNTERS = {"optimize.project.points", "optimize.exact_iters", "optimize.exact_runs", "optimize.zo_iters",
                    "qlearn.clamps", "qlearn.transitions", "qlearn.eval_rollouts"}


def test_traced_workload_calls_fit_the_tracer(tmp_path, capsys):
    # a traced benchmark run installs the tracer and repeats units: every
    # traced name must resolve, every hook must read its call's arguments, and
    # a seed's CLI output must not depend on the seeds run next to it
    tracing = _tracing()
    inst = scalar_benchmark()
    base = {"instance.A": inst.A.tolist(), "instance.B": inst.B.tolist(), "instance.Q": inst.Q.tolist(),
            "instance.R": inst.R.tolist(), "instance.noise.kind": inst.noise.kind,
            "instance.noise.sigma": inst.noise.sigma, "instance.init.kind": inst.init.kind,
            "instance.init.mean": np.asarray(inst.init.mean).tolist(), "instance.init.sigma": inst.init.sigma}
    configs = {"zo-pg": {**base, "eta": 0.2, "iters": 3, "radius": 0.1, "samples": 5, "policy0": 0.0},
               "qlearn": {**base, "sweeps": 2, "n_states": 5, "n_actions": 3, "eval_rollouts": 50}}

    def run_cli(kind, seeds, out):
        path = tmp_path / f"{kind}.cfg"
        path.write_text(dump_kv(configs[kind]))
        return cli.main([kind, "--config", str(path), "--seeds", *map(str, seeds), "--out", str(tmp_path / out / kind)])

    params = stock_liquidation()
    liq = ac_to_lqr(params)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert [run_cli(kind, [0, 1], "pair") for kind in configs] == [0, 0]
        lqrlab.run_exact_pg(inst, np.full((inst.T, 1, 1), 0.3), DescentConfig(eta=1.0, iters=3, line_search=True))
        lqrlab.run_exact_ppg(liq, np.full((liq.T, 1, 2), -0.2), DescentConfig(eta=1e3, iters=3, line_search=True),
                             liquidation_constraint(5e-5, 1e-12))
        lqrlab.smoothed_gradient_reference(inst, np.full((inst.T, 1, 1), 0.3), 0, 0.05, 20, 1)
        book = lqrlab.synthetic_lob(SyntheticBookConfig(T=liq.T), [1, 1])
        lqrlab.simulate_lob(book, lqrlab.solve_riccati(liq).gains, params.phi * params.sigma**2, params.q0_mean)
    capsys.readouterr()
    assert REACHED_COUNTERS <= set(tracer.counters)
    assert tracing.SpanTable(tracer.names, tracer.spans()).calls("cli.run_seed") == 2 * len(configs)
    assert [run_cli(kind, [1], "alone") for kind in configs] == [0, 0]
    for kind in configs:
        pair, alone = (tmp_path / out / kind / "seed_1.csv" for out in ("pair", "alone"))
        assert pair.read_bytes() == alone.read_bytes(), kind


def test_cli_and_loop_bindings():
    assert cli._max_workers() >= 1
    assert callable(cli.run_modelfree_pg)
    assert "cost_oracle" in inspect.signature(run_modelfree_ppg).parameters


def test_config_keywords_stay_fields():
    # every keyword workloads.py passes to a config, e.g. DescentConfig's
    # eta, iters, line_search and target_error and SmoothingConfig's radius
    # and samples, must remain a field of it
    passed = {DescentConfig: set(), SmoothingConfig: set()}
    by_name = {cls.__name__: cls for cls in passed}
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in by_name:
            passed[by_name[node.func.attr]].update(kw.arg for kw in node.keywords)
    assert passed[DescentConfig] >= {"eta", "iters", "line_search", "target_error"}
    assert passed[SmoothingConfig] >= {"radius", "samples"}
    for cls, keywords in passed.items():
        assert keywords <= {f.name for f in dataclasses.fields(cls)}, cls.__name__
