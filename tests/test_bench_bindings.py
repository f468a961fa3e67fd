"""The names the benchmark harness in perfbench/ binds must keep existing.

perfbench/tracing.py rebinds the functions and methods in its FUNCTIONS and
METHODS tables, and perfbench/workloads.py calls cli._max_workers, rebinds
cli.run_modelfree_pg, passes cost_oracle to run_modelfree_ppg and builds
DescentConfig and SmoothingConfig by keyword.  A deletion that breaks any of
these fails here rather than in a benchmark run.
"""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from lqrlab import DescentConfig, SmoothingConfig, cli, exact_cost, run_modelfree_ppg
from lqrlab.benchmarks import stock_liquidation
from lqrlab.liquidation import ac_to_lqr, liquidation_constraint

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
