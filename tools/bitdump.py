"""Bit-identity dump: one sha256 per named output of the exact layer and the
exact descent, the projections onto liquidation sets and a box, the stream
sampler, Q-learning on every start and noise kind, the rollout kernel and
its unperturbed trajectories, the sampled estimator, the zeroth-order loops
(also through an opaque simulator handle) and the CLI, to compare two
versions of lqrlab.

    PYTHONPATH=src python tools/bitdump.py change.json
    PYTHONPATH=<other checkout>/src python tools/bitdump.py parent.json
    PYTHONPATH=src python tools/bitdump.py --compare parent.json change.json

--compare A B lists every name of both dumps whose hash differs, then every
name only one dump has (new in B, or lost from A), then counts differing
and total shared names per group (the name up to its first "/", or
cli/<kind>), so a deliberate change of the sampled stream reads at a
glance against exact outputs that must not move; it exits 1 if a shared
name differs or B lacks a name of A.
Each CSV the CLI writes gets two names: its bytes, and its cells parsed as
float64 ("#values"), so a change in how numbers are written shows apart from
a change in the numbers.  The path rows are core.path_normals' start states
and noise normals, the noise mapped by the noise model's vectors, and the
rollout kernel is LqrSimulator.costs on its paths: the branched layout, whose
costs are the (T, m) costs to go of the branches off m path rows, so the
"roll" and "est" groups dump m-row paths and branched costs.  Path row j is
the (j + 1)-th pair of init.draw and noise.draw on its stream, so the
"stream" group dumps both: the rows path_normals draws, and those the
models draw one at a time.  The rollout kernel runs twice on the same paths
("slots-again"), which differs where a kernel changes its paths in place.
It takes about 20 s on a 2-CPU VM.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from lqrlab import (
    DescentConfig,
    InitialStateModel,
    LqrInstance,
    LqrSimulator,
    NoiseModel,
    ProjectionSet,
    SmoothingConfig,
    backup_value,
    constant_instance,
    covariance_profile,
    estimate_gradient,
    exact_cost,
    exact_gradient,
    run_exact_pg,
    run_exact_ppg,
    run_modelfree_pg,
    run_modelfree_ppg,
    solve_riccati,
)
from lqrlab import cli, core, zeroth
from lqrlab.benchmarks import four_state_benchmark, scalar_benchmark, stock_liquidation
from lqrlab.config_io import dump_kv
from lqrlab.errors import LqrlabError
from lqrlab.liquidation import SyntheticBookConfig, ac_to_lqr, liquidation_constraint, synthetic_lob, write_lob_csv
from lqrlab.qlearn import greedy_policy_cost, make_qtable, q_learning_step

KIND_PAIRS = [("gaussian", "gaussian"), ("uniform", "uniform"), ("point", "gaussian"), ("gaussian", "zero"),
              ("uniform", "gaussian"), ("gaussian", "uniform"), ("point", "zero")]
SAMPLES = [1, 2, 3, 7, 200]
SEEDS = [0, 7, -5, 2**63 + 4]
OUT_OF_ORDER = [7, 2, 7, 0, 11, 3, 2**64 - 1, 2]
TRIANGLES = [(5e-5, 1e-12), (1.0, 0.0), (3.0, 0.5), (1e-6, 0.999)]  # (gamma_bar, zeta), as in the projection tests
BAND = [1e-16, 3e-16, 1e-15, 3e-15, 1e-14, -1e-16, -1e-15, -1e-14]  # > 0 inside, < 0 outside
FAR = [[1e6, 0.0], [-1e6, 0.0], [0.0, 1e6], [0.0, -1e6], [1e6, 1e6], [-1e6, -1e6], [1e6, -1e6], [-1e6, 1e6],
       [-1e-3, 1e6], [-1795.82571139, -179.73109418]]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def _kinds_instance(init_kind: str, noise_kind: str, d: int = 2, k: int = 1, T: int = 3):
    rng = np.random.default_rng(31)
    noise = NoiseModel(noise_kind, 0.4, rng.normal(size=(d, d)))
    init = InitialStateModel(init_kind, rng.normal(size=d), 0.6)
    return constant_instance(rng.normal(size=(d, d)) * 0.5, rng.normal(size=(d, k)), np.eye(d), np.eye(k), np.eye(d),
                             T, noise, init)


def _zero_column_instances() -> dict:
    """name -> instance whose start or noise factor has a zero column, for
    which its paths draw no number: a uniform start whose rows each read one
    column, a non-diagonal noise factor whose rows each read one column, one
    whose rows mix the live columns, and an all-zero Gaussian noise factor
    (one number a vector, times zeros)."""
    rng = np.random.default_rng(37)
    d, k, T = 3, 1, 4
    A, B, mean = rng.normal(size=(d, d)) * 0.5, rng.normal(size=(d, k)), rng.normal(size=d)
    mixing = rng.normal(size=(d, d))
    mixing[:, 1] = 0.0
    models = {
        "uniform-start-zero-column": (NoiseModel("gaussian", 0.4, rng.normal(size=(d, d))),
                                      InitialStateModel("uniform", mean, 0.6, [[0, 0.7, 0], [0, 0, 1.1], [0, -0.4, 0]])),
        "noise-zero-column": (NoiseModel("gaussian", 0.4, mixing), InitialStateModel("gaussian", mean, 0.6)),
        "noise-zero-column-one-entry-a-row": (NoiseModel("gaussian", 0.4, [[0, 0, 0.8], [-1.3, 0, 0], [0, 0, 0.5]]),
                                              InitialStateModel("gaussian", mean, 0.6)),
        "zero-gaussian-noise": (NoiseModel("gaussian", 0.4, np.zeros((d, d))), InitialStateModel("gaussian", mean, 0.6)),
    }
    return {name: constant_instance(A, B, np.eye(d), np.eye(k), np.eye(d), T, noise, init)
            for name, (noise, init) in models.items()}


def _structured_instances() -> dict:
    """name -> instance of d = 2 whose small matrices take the rollout
    kernel's short exact forms, or sit next to them: A the identity or a
    scaled permutation; Q_t diagonal, anti-diagonal or with three nonzero
    entries (the last two indefinite, so built unvalidated); k = 1, or k = 2
    with B one nonzero entry a row (R diagonal) or dense (R dense); and, in
    turn, Gaussian noise whose factor has a zero row, uniform noise with that
    factor, and uniform noise whose factor has a zero row and a row that
    mixes columns."""
    As = {"A=I": np.eye(2), "A=perm": np.array([[0.0, 0.9], [-1.1, 0.0]])}
    Qs = {"Q=diag": np.diag([0.7, 1.3]), "Q=anti": np.array([[0.0, 0.6], [0.6, 0.0]]),
          "Q=three": np.array([[0.8, -0.4], [-0.4, 0.0]])}
    noises = [NoiseModel("gaussian", 0.4, np.diag([1.2, 0.0])), NoiseModel("uniform", -0.4, np.diag([1.2, 0.0])),
              NoiseModel("uniform", 0.4, [[0.0, 0.0], [0.7, -1.1]])]
    init = InitialStateModel("gaussian", np.array([0.5, -0.3]), 0.6)
    out = {}
    for i, ((a, A), (q, Q), k) in enumerate((a, q, k) for a in As.items() for q in Qs.items() for k in (1, 2)):
        dense = k == 2 and a == "A=perm"
        B = [[0.5], [-0.8]] if k == 1 else [[0.5, 0.2], [-0.3, 0.7]] if dense else [[0.0, 0.5], [-0.8, 0.0]]
        R = np.eye(k) if not dense else [[1.0, 0.3], [0.3, 0.8]]
        noise = noises[i % len(noises)]
        name = f"structured/{a},{q},k={k}{',B=dense' if dense else ''}/{noise.kind}"
        out[name] = LqrInstance(A, B, [Q] * 3 + [2.0 * Q], [R] * 3, noise, init, validate=False)
    return out


def _wide_instances() -> dict:
    """name -> instance of d = 6 or 8 and k = 1 or 3, with a dense or a
    diagonal Q: rollout kernels wider than the suite's d = 1-4, and sphere
    rows of k * d = 6, 8, 18 and 24, on both sides of 8, below which their
    norms add in order."""
    out = {}
    for d in (6, 8):
        for k in (1, 3):
            rng = np.random.default_rng([89, d, k])
            M = rng.normal(size=(d, d))
            noise = NoiseModel("gaussian", 0.4, rng.normal(size=(d, d)))
            init = InitialStateModel("gaussian", rng.normal(size=d), 0.6)
            A, B, R = rng.normal(size=(d, d)) * 0.3, rng.normal(size=(d, k)), np.eye(k)
            for q, Q in (("dense", M @ M.T + 0.3 * np.eye(d)), ("diag", np.diag(rng.uniform(0.5, 2.0, d)))):
                out[f"wide/d={d},k={k},Q={q}"] = constant_instance(A, B, Q, R, 2.0 * Q, 3, noise, init)
    return out


def _instances() -> dict:
    """name -> (instance, policy, radius)."""
    liq = ac_to_lqr(stock_liquidation())
    four = four_state_benchmark()
    out = {
        "zo-liquidation": (liq, np.full((liq.T, 1, 2), -0.2), 0.6),
        "c11": (scalar_benchmark(), np.zeros((5, 1, 1)), 0.1),
        "four-state": (four, np.full((four.T, four.k, four.d), 0.05), 0.2),
    }
    for init_kind, noise_kind in KIND_PAIRS:
        inst = _kinds_instance(init_kind, noise_kind)
        K = np.random.default_rng(4).normal(size=(inst.T, inst.k, inst.d)) * 0.2
        out[f"{init_kind}-{noise_kind}"] = (inst, K, 0.3)
    for name, inst in _zero_column_instances().items():
        out[name] = (inst, np.random.default_rng(5).normal(size=(inst.T, inst.k, inst.d)) * 0.2, 0.3)
    for name, inst in _structured_instances().items():
        out[name] = (inst, np.random.default_rng(6).normal(size=(inst.T, inst.k, inst.d)) * 0.2, 0.3)
    for name, inst in _wide_instances().items():
        out[name] = (inst, np.random.default_rng(7).normal(size=(inst.T, inst.k, inst.d)) * 0.1, 0.3)
    return out


# (d, k, T) of the exact suite: every d in 1-4, k in 1-2 and T in 1-10
EXACT_SHAPES = [(d, k, T) for d in range(1, 5) for k in (1, 2) for T in range(1, 11)]
EXACT_BATCH = 5  # policies per batched call


def _exact_instance(n: int):
    """Suite instance n: a random instance of shape EXACT_SHAPES[n] whose
    start state and noise are of kind pair n of KIND_PAIRS, cycled."""
    d, k, T = EXACT_SHAPES[n]
    init_kind, noise_kind = KIND_PAIRS[n % len(KIND_PAIRS)]
    rng = np.random.default_rng([59, n])
    M, N = rng.normal(size=(d, d)), rng.normal(size=(k, k))
    Q, R = M @ M.T + 0.3 * np.eye(d), N @ N.T + 0.3 * np.eye(k)
    noise = NoiseModel(noise_kind, 0.4, rng.normal(size=(d, d)))
    init = InitialStateModel(init_kind, rng.normal(size=d), 0.6)
    return constant_instance(rng.normal(size=(d, d)) * 0.5, rng.normal(size=(d, k)), Q, R, 2.0 * Q, T, noise, init)


def _run_sha(run, *args) -> str:
    """The hash of a descent's final policy and trace rows, or the error it raised."""
    try:
        K, trace = run(*args)
    except LqrlabError as e:  # fail alike on both sides
        return f"{type(e).__name__}: {e}"
    return _sha(K, trace.rows)


def _error_terms(inst, policy, P) -> np.ndarray:
    """E_t = (R_t + B' P_{t+1} B) K_t - B' P_{t+1} A of the gradient, from
    the value matrices P of backup_value."""
    BtP = inst.B.T @ P[..., 1:, :, :]
    return (inst.R + BtP @ inst.B) @ np.asarray(policy, dtype=float) - BtP @ inst.A


def exact_outputs(out: dict) -> None:
    """backup_value, exact_gradient (plain and with its terms: E_t from
    backup_value's P, then the backup and profile), covariance_profile and
    solve_riccati on the suite of EXACT_SHAPES, for
    one policy and a batch; then exact PG and box-projected PG traces with
    Armijo on every fourth suite instance, from eta = 1e6 (searches that
    run past their first batch) on every eighth and from eta = 1e300
    (overflowing rungs) on every fifth, projected PG on the
    liquidation instance, and 4-state runs; then exact PG with the
    exact-pg benchmark's settings (Armijo from eta = 1, up to 50 iterations,
    stopping at a normalized error of 1e-2) on every suite instance."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate covariances of point starts without noise
        for n, (d, k, T) in enumerate(EXACT_SHAPES):
            inst = _exact_instance(n)
            name = f"exact/d={d},k={k},T={T}"
            rng = np.random.default_rng([61, n])
            sol = solve_riccati(inst)
            out[f"{name}/riccati"] = _sha(sol.gains, sol.P, sol.optimal_cost)
            single = rng.normal(size=(T, k, d)) * 0.3
            for policy, tag in ((single, "single"), (rng.normal(size=(EXACT_BATCH, *single.shape)) * 0.3, "batch")):
                bk = backup_value(inst, policy)
                out[f"{name}/{tag}/backup"] = _sha(bk.P, bk.L, bk.cost)
                prof = covariance_profile(inst, policy)
                out[f"{name}/{tag}/profile"] = _sha(prof.sigmas, prof.aggregate, prof.sigma_x)
                grads = exact_gradient(inst, policy)
                out[f"{name}/{tag}/gradient"] = _sha(grads)
                out[f"{name}/{tag}/gradient-terms"] = _sha(grads, _error_terms(inst, policy, bk.P), bk.P, bk.L, bk.cost,
                                                           prof.sigmas, prof.aggregate, prof.sigma_x)
        box = ProjectionSet(kind="box", lo=-0.4, hi=0.4)
        cfg = DescentConfig(eta=1.0, iters=30, line_search=True)
        for n in range(0, len(EXACT_SHAPES), 4):
            d, k, T = EXACT_SHAPES[n]
            inst = _exact_instance(n)
            K0 = np.random.default_rng([67, n]).uniform(-0.3, 0.3, size=(T, k, d))
            name = f"exact/loop/d={d},k={k},T={T}/backtrack=0.5"
            out[f"{name}/pg"] = _run_sha(run_exact_pg, inst, K0, cfg)
            out[f"{name}/ppg-box"] = _run_sha(run_exact_ppg, inst, K0, cfg, box)
        # from eta = 1e6 the searches end some 20 rungs down, and a search that
        # ends more than 2 rungs below the last continues in a second batch
        cfg = DescentConfig(eta=1e6, iters=30, line_search=True)
        for n in range(2, len(EXACT_SHAPES), 8):
            d, k, T = EXACT_SHAPES[n]
            inst = _exact_instance(n)
            K0 = np.random.default_rng([73, n]).uniform(-0.3, 0.3, size=(T, k, d))
            name = f"exact/loop/d={d},k={k},T={T}/eta=1e6"
            out[f"{name}/pg"] = _run_sha(run_exact_pg, inst, K0, cfg)
            out[f"{name}/ppg-box"] = _run_sha(run_exact_ppg, inst, K0, cfg, box)
        # from eta = 1e300 the top rungs' costs overflow, on some instances to -inf,
        # and a projected rung's squared size to inf
        cfg = DescentConfig(eta=1e300, iters=3, line_search=True)
        for n in range(2, len(EXACT_SHAPES), 5):
            d, k, T = EXACT_SHAPES[n]
            inst = _exact_instance(n)
            K0 = np.random.default_rng([83, n]).uniform(-0.3, 0.3, size=(T, k, d))
            name = f"exact/loop/d={d},k={k},T={T}/eta=1e300"
            with np.errstate(over="ignore", invalid="ignore"):
                out[f"{name}/pg"] = _run_sha(run_exact_pg, inst, K0, cfg)
                out[f"{name}/ppg-box"] = _run_sha(run_exact_ppg, inst, K0, cfg, box)
        liq = ac_to_lqr(stock_liquidation())
        cfg = DescentConfig(eta=1e3, iters=30, line_search=True)
        out["exact/loop/liquidation-ppg/backtrack=0.5"] = _run_sha(
            run_exact_ppg, liq, np.full((liq.T, 1, 2), -0.2), cfg, liquidation_constraint(5e-5, 1e-12))
        four = four_state_benchmark()
        cfg = DescentConfig(eta=1e-2, iters=50, line_search=True, target_error=1e-3)
        K0 = 0.05 + np.random.default_rng(71).uniform(-0.02, 0.02, size=(four.T, four.k, four.d))
        out["exact/loop/four-state/backtrack=0.5"] = _run_sha(run_exact_pg, four, K0, cfg)
        out["exact/loop/four-state/fixed-step"] = _run_sha(
            run_exact_pg, four, np.full((four.T, four.k, four.d), 0.05), DescentConfig(eta=1e-4, iters=50))
        cfg = DescentConfig(eta=1.0, iters=50, line_search=True, target_error=1e-2)
        for n, (d, k, T) in enumerate(EXACT_SHAPES):
            K0 = np.random.default_rng([79, n]).normal(size=(T, k, d)) * 0.2
            out[f"exact/loop/d={d},k={k},T={T}/exact-pg"] = _run_sha(run_exact_pg, _exact_instance(n), K0, cfg)


def _triangle_points(gamma_bar: float, zeta: float) -> dict:
    """Fixed (n, 2) points about the liquidation triangle of gamma_bar and zeta,
    by kind: inside; within BAND of each edge and vertex; outside each edge
    and vertex by 0.1; and far away (FAR)."""
    g, c = gamma_bar, zeta - 1.0
    vertices = np.array([[0.0, 0.0], [0.0, c], [c / g, 0.0]])
    h = np.hypot(g, 1.0)
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-g / h, -1.0 / h]])  # outward, of x = 0, y = 0 and the line
    w = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [5.0, 1.0, 1.0], [1.0, 5.0, 1.0], [1.0, 1.0, 5.0]])
    points = {"inside": (w / w.sum(axis=1, keepdims=True)) @ vertices}
    s = np.linspace(0.05, 0.95, 7)[:, None]
    for offset in BAND:
        points[f"band={offset:g}"] = np.concatenate([
            vertices[2] * s + vertices[1] * (1 - s) - offset * normals[2], np.c_[np.zeros(7) - offset, c * s[:, 0]],
            np.c_[c / g * s[:, 0], np.zeros(7) - offset], [[-offset, -offset]], [[-offset, c + offset * (1 + g)]],
            [[c / g + offset * (1 + 1 / g), -offset]]])
    points["edges"] = (vertices + np.roll(vertices, -1, axis=0)) / 2 + 0.1 * normals[[0, 2, 1]]
    points["vertices"] = vertices + 0.1 * (normals[[0, 0, 1]] + normals[[1, 2, 2]])
    points["far"] = np.array(FAR)
    return points


def proj_outputs(out: dict) -> None:
    """ProjectionSet.project of _triangle_points' points as 1x2 gains, per
    liquidation set of TRIANGLES, and of the (1.0, 0.0) triangle's points on
    the box [-0.4, 0.4]."""
    for g, zeta in TRIANGLES:
        S = liquidation_constraint(g, zeta)
        for kind, pts in _triangle_points(g, zeta).items():
            out[f"proj/liquidation/g={g:g},zeta={zeta:g}/{kind}"] = _sha(S.project(pts[:, None, :]))
    box = ProjectionSet(kind="box", lo=-0.4, hi=0.4)
    for kind, pts in _triangle_points(1.0, 0.0).items():
        out[f"proj/box/{kind}"] = _sha(box.project(pts[:, None, :]))


def estimator_outputs(out: dict) -> None:
    """U, the m path rows x0 and w and the gradient, per instance, m, seed
    and iteration: iterations 0-9 in order, then OUT_OF_ORDER."""
    for name, (inst, K, r) in _instances().items():
        sim, shape = LqrSimulator(inst), (inst.k, inst.d)
        for m in SAMPLES:
            cfg = SmoothingConfig(radius=r, samples=m)
            for seed in SEEDS:
                for run, iterations in (("seq", range(10)), ("ooo", OUT_OF_ORDER)):
                    for pos, it in enumerate(iterations):
                        key = f"est/{name}/m={m}/seed={seed}/{run}{pos}:it={it}"
                        grads = estimate_gradient(sim, K, cfg, seed, iteration=it)
                        U = zeroth.sphere_directions(inst.T, m, shape, r, seed, it)
                        x0, z = core.path_normals(inst, core.make_rng((seed, it, 0, 0, 1)), m)
                        out[f"{key}/U"] = _sha(U)
                        out[f"{key}/x0"] = _sha(x0)
                        out[f"{key}/w"] = _sha(inst.noise.vectors(z, inst.d))
                        out[f"{key}/grads"] = _sha(grads)


ROLL_SAMPLES = [1, 2, 3, 200]
ROLL_SEEDS = [5, 2**63 + 4]


def roll_outputs(out: dict) -> None:
    """LqrSimulator's rollout kernel (the branched costs on its m paths, then
    again on the same paths, which the kernel must leave as drawn) and
    rollout_perturbed_batch (every slot) on each suite instance of
    EXACT_SHAPES, whose Q and R are not diagonal, and on the wide instances,
    per m, seed and iterations 0 and 1.  rollout_perturbed_batch
    is slot t of the kernel, and slot t does not depend on the other slots'
    directions, so "batch" hashes the rows of "slots"."""
    cases = [(f"d={d},k={k},T={T}", _exact_instance(n), np.random.default_rng([73, n]).normal(size=(T, k, d)) * 0.3)
             for n, (d, k, T) in enumerate(EXACT_SHAPES)]
    cases += [(name, inst, np.random.default_rng([97, inst.d, inst.k]).normal(size=(inst.T, inst.k, inst.d)) * 0.1)
              for name, inst in _wide_instances().items()]
    for tag, inst, K in cases:
        sim = LqrSimulator(inst)
        T, k, d = K.shape
        for m in ROLL_SAMPLES:
            for seed in ROLL_SEEDS:
                for it in (0, 1):
                    name = f"roll/{tag}/m={m}/seed={seed}/it={it}"
                    U = zeroth.sphere_directions(T, m, (k, d), 0.2, seed, it)
                    paths = sim.paths(seed, it, m)
                    out[f"{name}/slots"] = _sha(sim.costs(K, U, paths))
                    out[f"{name}/slots-again"] = _sha(sim.costs(K, U, paths))
                    out[f"{name}/batch"] = _sha(*(sim.rollout_perturbed_batch(K, t, U[t], (seed, it, t)) for t in range(T)))


TRAJECTORY_ROWS = [1, 7, 2000]


def trajectory_outputs(out: dict) -> None:
    """LqrSimulator.trajectories on each suite instance of EXACT_SHAPES: the
    states, noise and realized costs of its first 1, 7 and 2000 path rows,
    per seed of ROLL_SEEDS, iteration 0."""
    for n, (d, k, T) in enumerate(EXACT_SHAPES):
        sim = LqrSimulator(_exact_instance(n))
        K = np.random.default_rng([73, n]).normal(size=(T, k, d)) * 0.3
        for rows in TRAJECTORY_ROWS:
            for seed in ROLL_SEEDS:
                traj = sim.trajectories(K, sim.paths(seed, 0, rows))
                name = f"trajectories/d={d},k={k},T={T}/n={rows}/seed={seed}"
                out[f"{name}/states"] = _sha(traj.states)
                out[f"{name}/noises"] = _sha(traj.noises)
                out[f"{name}/costs"] = _sha(traj.realized_cost)


STREAM_ROWS = 51200  # rows per stream: 256 estimates of 200 rollouts
STREAM_PASS = 10240  # rows per path_normals call, each continuing the stream
MODEL_ROWS = 256  # rows per stream drawn by the models one at a time


def stream_outputs(out: dict) -> None:
    """STREAM_ROWS rows of a stream per key: sphere rows of widths 1 and 2
    (sample_sphere_batch), then, on the zo-liquidation instance (live
    columns), c11, every kind pair (point start, zero noise, uniform kinds)
    and each zero-column instance: the first MODEL_ROWS rows as consecutive
    init.draw and noise.draw calls on one generator, and path rows in passes
    of STREAM_PASS rows of path_normals from one generator, the noise mapped
    by the model's vectors."""
    keys = ((3 << 20, 5, 0, 0, 1), (2**63 + 4, 11, 0, 0, 1))
    for width in (1, 2):
        for key in keys:
            U = zeroth.sample_sphere_batch(STREAM_ROWS, (1, width), 0.6, key)
            out[f"stream/sphere-{width}/key={key[0]},{key[1]}/n={STREAM_ROWS}"] = _sha(U)
    instances = {"zo-liquidation": ac_to_lqr(stock_liquidation()), "c11": scalar_benchmark()}
    for init_kind, noise_kind in KIND_PAIRS:
        instances[f"{init_kind}-{noise_kind}"] = _kinds_instance(init_kind, noise_kind)
    instances.update(_zero_column_instances())
    for name, inst in instances.items():
        for key in keys:
            rng = core.make_rng(key)
            rows = [(inst.init.draw(rng), inst.noise.draw(rng, inst.T, inst.d)) for _ in range(MODEL_ROWS)]
            out[f"stream/{name}/key={key[0]},{key[1]}/models/n={MODEL_ROWS}"] = _sha(*(a for pair in rows for a in pair))
    for name, inst in instances.items():
        for key in keys:
            rng = core.make_rng(key)
            passes = [core.path_normals(inst, rng, STREAM_PASS) for _ in range(STREAM_ROWS // STREAM_PASS)]
            rows = [(x0, inst.noise.vectors(z, inst.d)) for x0, z in passes]
            out[f"stream/{name}/key={key[0]},{key[1]}/n={STREAM_ROWS}"] = _sha(*(a for pair in rows for a in pair))


QLEARN_FACTORS = {"identity": None, "zero": [[0.0]], "1.7": [[1.7]]}
QLEARN_BLOCKS = 3 * 8192 + 5  # rollouts that cross three of greedy_policy_cost's block edges (_BLOCK = 8192)


def qlearn_outputs(out: dict) -> None:
    """Three q_learning_step tables in turn, each with its clamp count, and
    one greedy_policy_cost of the last, on a scalar instance per kind pair
    and noise factor (QLEARN_FACTORS); per kind pair, also the identity
    factor's greedy_policy_cost over QLEARN_BLOCKS rollouts."""
    for init_kind, noise_kind in KIND_PAIRS:
        for tag, factor in QLEARN_FACTORS.items():
            noise = NoiseModel(noise_kind, 0.3, factor)
            init = InitialStateModel(init_kind, [0.2], 0.4)
            inst = constant_instance([[0.9]], [[0.5]], [[0.2]], [[0.1]], [[0.4]], 5, noise, init)
            name = f"qlearn/{init_kind}-{noise_kind}/factor={tag}"
            table = make_qtable(inst, 21, 11)
            for sweep in range(3):
                table = q_learning_step(table, inst, 0.5, (13, sweep))
                out[f"{name}/sweep={sweep}"] = _sha(table.q, table.clamp_count)
            out[f"{name}/greedy"] = _sha(greedy_policy_cost(table, inst, 500, (17, 1)))
            if factor is None:
                cost = greedy_policy_cost(table, inst, QLEARN_BLOCKS, (17, 2))
                out[f"qlearn/{init_kind}-{noise_kind}/greedy/n={QLEARN_BLOCKS}"] = _sha(cost)


def loop_outputs(out: dict) -> None:
    """Traces and final iterates of zo-liquidation PPG, c11 zo-pg (also with
    the exact_cost oracle that the pg-vs-qlearn-cli benchmark passes), a
    small-m run that stops at a target, runs of no iterations, and 4-state
    runs of 20 and 300 iterations."""
    liq = ac_to_lqr(stock_liquidation())
    constraint = liquidation_constraint(5e-5, 1e-12)
    for seed in (0, 1):
        run_seed = (seed << 20) | 3
        K, trace = run_modelfree_ppg(liq, np.full((10, 1, 2), -0.2), DescentConfig(eta=0.05, iters=50, target_error=1e-2),
                                     SmoothingConfig(0.6, 200), run_seed, constraint,
                                     cost_oracle=lambda P: exact_cost(liq, P))
        out[f"loop/zo-liquidation-ppg/seed={run_seed}"] = _sha(K, trace.rows)
    scalar = scalar_benchmark()
    for seed in (0, 1, 2):
        K, trace = run_modelfree_pg(scalar, np.zeros((5, 1, 1)), DescentConfig(eta=0.2, iters=300), SmoothingConfig(0.1, 50), seed)
        out[f"loop/c11-zo-pg/seed={seed}"] = _sha(K, trace.rows)
    for seed in (0, 1):
        K, trace = run_modelfree_pg(scalar, np.zeros((5, 1, 1)), DescentConfig(eta=0.2, iters=300), SmoothingConfig(0.1, 50), seed,
                                    cost_oracle=lambda P: exact_cost(scalar, P))
        out[f"loop/c11-zo-pg-oracle/seed={seed}"] = _sha(K, trace.rows)
    K, trace = run_modelfree_pg(scalar, np.zeros((5, 1, 1)), DescentConfig(eta=0.2, iters=0), SmoothingConfig(0.1, 50), 0)
    out["loop/c11-zo-pg-iters=0/seed=0"] = _sha(K, trace.rows)
    K, trace = run_modelfree_ppg(liq, np.full((10, 1, 2), -0.2), DescentConfig(eta=0.05, iters=0), SmoothingConfig(0.6, 200), 3,
                                 constraint, cost_oracle=lambda P: exact_cost(liq, P))
    out["loop/zo-liquidation-ppg-iters=0/seed=3"] = _sha(K, trace.rows)
    for seed in (0, 4):  # they stop at iterations 30 and 157
        K, trace = run_modelfree_pg(scalar, np.zeros((5, 1, 1)), DescentConfig(eta=0.05, iters=300, target_error=0.15),
                                    SmoothingConfig(0.1, 3), seed)
        out[f"loop/c11-m3-target/seed={seed}"] = _sha(K, trace.rows)
    four = four_state_benchmark()
    K, trace = run_modelfree_pg(four, np.full((10, 2, 4), 0.05), DescentConfig(eta=1e-4, iters=20), SmoothingConfig(0.2, 20), 9)
    out["loop/four-state/seed=9"] = _sha(K, trace.rows)
    K, trace = run_modelfree_pg(four, np.full((10, 2, 4), 0.05), DescentConfig(eta=1e-5, iters=300), SmoothingConfig(0.2, 20), 9)
    out["loop/four-state-300/seed=9"] = _sha(K, trace.rows)


HANDLE_SAMPLES = [1, 2, 7]
HANDLE_SEEDS = [0, -5, 2**63 + 4]


class KernelOnly:
    """A handle exposing T, k, d and LqrSimulator's rollout kernel alone:
    paths() and costs()."""

    def __init__(self, inst):
        sim = LqrSimulator(inst)
        self.T, self.k, self.d = sim.T, sim.k, sim.d
        self.paths, self.costs = sim.paths, sim.costs


def handle_outputs(out: dict) -> None:
    """Estimates at iterations 0 and 3 and a three-iteration run_modelfree_pg
    (no cost oracle) through a kernel-only handle, on the zo-liquidation, c11
    and four-state instances."""
    instances = _instances()
    etas = {"zo-liquidation": 0.05, "c11": 0.2, "four-state": 1e-4}
    for name, eta in etas.items():
        inst, K, r = instances[name]
        for m in HANDLE_SAMPLES:
            cfg = SmoothingConfig(radius=r, samples=m)
            for seed in HANDLE_SEEDS:
                key = f"handle/KernelOnly/{name}/m={m}/seed={seed}"
                for it in (0, 3):
                    grads = estimate_gradient(KernelOnly(inst), K, cfg, seed, iteration=it)
                    out[f"{key}/est:it={it}"] = _sha(grads)
                Kf, trace = run_modelfree_pg(KernelOnly(inst), K, DescentConfig(eta=eta, iters=3), cfg, seed)
                out[f"{key}/loop"] = _sha(Kf, trace.rows)


SCALAR = scalar_benchmark()
SCALAR_CFG = {
    "instance.A": SCALAR.A.tolist(), "instance.B": SCALAR.B.tolist(), "instance.Q": SCALAR.Q.tolist(),
    "instance.R": SCALAR.R.tolist(), "instance.noise.kind": "gaussian", "instance.noise.sigma": 0.1,
    "instance.init.kind": "gaussian", "instance.init.mean": [0.0], "instance.init.sigma": 0.1,
}
AC_CFG = {"ac.beta": 1.03e-5, "ac.gamma": 7.27e-6, "ac.sigma": 0.107, "ac.phi": 5e-6, "ac.epsilon": 1e-8, "ac.T": 10}
CLI_RUNS = {
    "zo-pg": {**SCALAR_CFG, "eta": 0.2, "iters": 100, "radius": 0.1, "samples": 50, "target_error": 0.05},
    "zo-ppg": {**AC_CFG, "eta": 0.05, "iters": 20, "radius": 0.6, "samples": 20, "policy0": -0.2,
               "constraint.gamma_bar": 5e-5},
    "pg": {**SCALAR_CFG, "eta": 0.5, "iters": 30, "policy0": 0.1},
    "ppg": {**AC_CFG, "eta": 1e3, "iters": 30, "policy0": -0.2, "constraint.gamma_bar": 5e-5, "line_search": True},
    "qlearn": {**SCALAR_CFG, "sweeps": 5, "n_states": 21, "n_actions": 21, "eval_rollouts": 2000},
    "riccati": SCALAR_CFG,
    "deadline": {**AC_CFG, "horizons": [5, 10]},
    "lob": {**AC_CFG, "book.T": 10, "book.depth_mean": 2000, "phi_prime": 1e-6},
    "lob/epsilon=0": {**AC_CFG, "ac.epsilon": 0.0, "book.T": 10, "book.depth_mean": 2000, "phi_prime": 1e-6},
    "lob/csv": {**AC_CFG, "lob_csv": "book.csv", "phi_prime": 1e-6},  # the book cli_outputs writes
    "impact": {"impact.gamma": 2.5e-6, "impact.sigma": 0.01, "impact.n": 500},
    "impact/explicit": {"impact.mfi": [120.0, -80.0, 35.0, -15.0, 60.0, -95.0, 10.0, 45.0],
                        "impact.delta_s": [3.1e-4, -1.9e-4, 0.8e-4, -0.2e-4, 1.6e-4, -2.5e-4, 0.4e-4, 1.0e-4]},
}  # name -> config; the CLI kind is the name up to its first "/"


def _csv_values(path: Path) -> str:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return hashlib.sha256(json.dumps(rows[0]).encode() + np.array(rows[1:], dtype=float).tobytes()).hexdigest()


def cli_outputs(out: dict, workdir: Path) -> None:
    """Every file of each CLI kind, on seeds 0-2.  The runs start in
    workdir, so a relative lob_csv is the synthetic book written there."""
    write_lob_csv(workdir / "book.csv", synthetic_lob(SyntheticBookConfig(T=10, depth_mean=2000.0), 11))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        _cli_runs(out, workdir)
    finally:
        os.chdir(cwd)


def _cli_runs(out: dict, workdir: Path) -> None:
    for name, cfg in CLI_RUNS.items():
        kind = name.split("/")[0]
        path = workdir / f"{name.replace('/', '-')}.cfg"
        path.write_text(dump_kv(cfg))
        run = workdir / name.replace("/", "-")
        with open(os.devnull, "w") as devnull:
            stdout, sys.stdout = sys.stdout, devnull
            try:
                code = cli.main([kind, "--config", str(path), "--seeds", "0", "1", "2", "--out", str(run)])
            finally:
                sys.stdout = stdout
        out[f"cli/{name}/exit"] = str(code)
        for f in sorted(run.iterdir()):
            key = f"cli/{name}/{f.name}"
            out[key] = hashlib.sha256(f.read_bytes()).hexdigest()
            if f.suffix == ".csv":
                out[f"{key}#values"] = _csv_values(f)


def _group(name: str) -> str:
    parts = name.split("/")
    return "/".join(parts[:2]) if parts[0] == "cli" else parts[0]


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    shared = a.keys() & b.keys()
    differ = sorted(k for k in shared if a[k] != b[k])
    new, lost = sorted(b.keys() - a.keys()), sorted(a.keys() - b.keys())
    for k in differ:
        print(k)
    for k in new:
        print(f"{k} (new in {b_path})")
    for k in lost:
        print(f"{k} (only in {a_path})")
    total, changed = Counter(map(_group, shared)), Counter(map(_group, differ))
    for group in sorted(total):
        print(f"{group}: {changed[group]}/{total[group]} differ", file=sys.stderr)
    print(f"{len(differ)} of {len(shared)} shared outputs differ; {len(new)} new in {b_path}, "
          f"{len(lost)} only in {a_path}", file=sys.stderr)
    return 1 if differ or lost else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", help="JSON file to write the dump to")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps instead")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        ap.error("give an output file or --compare A B")
    out: dict = {}
    exact_outputs(out)
    proj_outputs(out)
    stream_outputs(out)
    qlearn_outputs(out)
    roll_outputs(out)
    trajectory_outputs(out)
    estimator_outputs(out)
    loop_outputs(out)
    handle_outputs(out)
    with tempfile.TemporaryDirectory() as tmp:
        cli_outputs(out, Path(tmp))
    Path(args.out).write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"{len(out)} outputs written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
