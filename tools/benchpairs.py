"""Alternating pairs of benchmark runs on a parent checkout and a head checkout.

    python tools/benchpairs.py --parent <checkout> --pr <n> [--seed 1000]

For every workload of BENCHMARK.json, pair i of ten runs `perfbench/run.py
--workload W --seed <seed + i>` once on each side's code, for the run length
that BENCHMARK.json sets; the parent runs first in even pairs and the head
first in odd ones.  The head is the checkout this script lies in; the parent
is any other checkout, for example a `git clone` of the head's repository at
the parent commit.  The same commit can run at different speeds from two
checkouts, so each side's tree is copied once into a scratch directory
(without .git) and moved to one run path for each of its runs: both sides
run from the same path.  Code that behaves the same can also run at a
different speed when its source bytes differ (two comment lines added to
optimize.py moved zo-liquidation by 6% on a 2-vCPU VM, 10 pairs to 0), so
each pair is followed by an A/A control pair: the parent's copy against a
second copy of the parent's tree whose package modules each start with one
more comment line, run the same way.  Its split is what a change that does
nothing reads, next to the change's, in the same file.

The result goes to BENCH_<n>.json at the head's root: for each workload and
end-to-end metric of BENCHMARK.json, each side's median and quartiles over
the pairs, the pairs each side won (ties count for neither), the head's
change against the parent's median, and every run's output; the same for the
A/A pairs under the workload's "control" entry (the second copy in the
place of the head), with every run's package digest; and for each side its
commit, whether its tree had changes not committed, and the package digests
that perfbench/run.py reports.  After each workload the script prints each
metric's A/B and A/A splits and median changes.  A gain is met when the head
wins at least nine tenths of the pairs and the medians differ by more than
the parent's interquartile range; a claim should also beat the A/A split.
The script exits 1 if a run failed or checked incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]
PAIRS = 10


def _git(root: Path, *args) -> str | None:
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run(tree: Path, run_path: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of the copied tree, moved to run_path for the run: its
    result line with the metadata line's digest."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py imports lqrlab from root/src
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.time()
    tree.rename(run_path)  # the copy keeps the bytecode its runs compile
    try:
        proc = subprocess.run(cmd, cwd=run_path, capture_output=True, text=True, env=env, timeout=60 * seconds + 600)
    finally:
        run_path.rename(tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} on {tree.name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    return {"seed": seed, "started": t0, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "source_sha256": meta["source_sha256"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def _summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "quartiles": [q1, q2, q3], "iqr": q3 - q1}


def _compare(metric: dict, parent: list, head: list) -> dict:
    """Per-side statistics of one metric over the pairs, and the pairs each side won."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = [sign * (p - h) for p, h in zip(parent, head)]  # > 0: the head is better
    p, h = _summary(parent), _summary(head)
    n_head = sum(w > 0 for w in wins)
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": p, "head": h,
        "head_wins": n_head, "parent_wins": sum(w < 0 for w in wins),
        "change": h["median"] / p["median"] - 1.0,  # head median against parent median
        "worse_beyond_bound": sign * (h["median"] - p["median"]) > metric["bound"] * abs(p["median"]),
        "gain_met": n_head >= 0.9 * len(wins) and abs(h["median"] - p["median"]) > p["iqr"],
    }


def main(argv=None) -> int:
    bench = json.loads((HEAD / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--pr", type=int, required=True, help="the n of BENCH_<n>.json")
    ap.add_argument("--seed", type=int, default=1000, help="workload seed of pair 0; pair i uses seed + i")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "head": HEAD}
    seconds = bench["run_seconds"]
    out = {
        "command": bench["command"], "run_seconds": seconds, "pairs": PAIRS,
        "seeds": [args.seed + i for i in range(PAIRS)],
        "sides": {s: {"commit": _git(root, "rev-parse", "HEAD"),
                      "uncommitted_changes": bool(_git(root, "status", "--porcelain", "--untracked-files=no"))}
                  for s, root in sides.items()},
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as scratch:
        scratch = Path(scratch)
        skip = shutil.ignore_patterns(".git", "__pycache__", "BENCH_*.json")
        trees = {name: shutil.copytree(root, scratch / name, ignore=skip, symlinks=True)
                 for name, root in [("parent", sides["parent"]), ("head", HEAD), ("parent-copy", sides["parent"])]}
        for module in sorted((trees["parent-copy"] / "src").rglob("*.py")):
            module.write_text("# A/A control copy\n" + module.read_text())
        # an A/B pair runs (parent, head), an A/A pair (parent, its shifted copy) under the same labels
        kinds = {"A/B": {"parent": trees["parent"], "head": trees["head"]},
                 "A/A": {"parent": trees["parent"], "head": trees["parent-copy"]}}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {kind: {"parent": [], "head": []} for kind in kinds}
            for i, seed in enumerate(out["seeds"]):
                for kind, copies in kinds.items():
                    for side in ("parent", "head") if i % 2 == 0 else ("head", "parent"):
                        run = _run(copies[side], scratch / "run", workload, seed, seconds)
                        ok &= run["correct"] and run["failed"] == 0
                        runs[kind][side].append(run)
                        print(f"{workload} {kind} pair {i} {side}: "
                              + ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items()), file=sys.stderr, flush=True)
            stats = {kind: {m["name"]: _compare(m, [r["metrics"][m["name"]] for r in kind_runs["parent"]],
                                                [r["metrics"][m["name"]] for r in kind_runs["head"]])
                            for m in bench["end_to_end"]}
                     for kind, kind_runs in runs.items()}
            out["workloads"][workload] = {"metrics": stats["A/B"], "runs": runs["A/B"],
                                          "control": {"metrics": stats["A/A"], "runs": runs["A/A"]}}
            for name in stats["A/B"]:
                ab, aa = stats["A/B"][name], stats["A/A"][name]
                print(f"{workload} {name}: A/B wins {ab['head_wins']}:{ab['parent_wins']}, median {ab['change']:+.2%}; "
                      f"A/A wins {aa['head_wins']}:{aa['parent_wins']}, median {aa['change']:+.2%}", file=sys.stderr)
    for side in sides:
        digests = {r["source_sha256"] for w in out["workloads"].values() for r in w["runs"][side]}
        out["sides"][side]["source_sha256"] = sorted(digests)
    path = HEAD / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
