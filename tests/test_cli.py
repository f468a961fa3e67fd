import json

import numpy as np
import pytest

from lqrlab.cli import main, run_experiment
from lqrlab.config_io import dump_kv, instance_from_config, parse_kv

SCALAR_CFG = """
# scalar instance with a stiffer terminal weight
instance.A = [[1.0]]
instance.B = [[0.2]]
instance.Q = [[0.2]]
instance.Q_terminal = [[0.4]]
instance.R = [[0.1]]
instance.T = 5
instance.noise.kind = "gaussian"
instance.noise.sigma = 0.1
instance.init.kind = "gaussian"
instance.init.mean = [1.0]
instance.init.sigma = 0.1
"""

AC_CFG = """
ac.beta = 1.03e-5
ac.gamma = 7.27e-6
ac.sigma = 0.107
ac.phi = 5e-6
ac.epsilon = 1e-8
ac.T = 10
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfig:
    def test_parse_kv(self):
        cfg = parse_kv('a = 1\nb.c = [1, 2]  # trailing comment\n\ns = "x"\n')
        assert cfg == {"a": 1, "b.c": [1, 2], "s": "x"}

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_kv("no equals sign")
        with pytest.raises(ValueError):
            parse_kv("a = not-json")

    def test_dump_roundtrip(self):
        cfg = {"a": 1, "b.c": [1.5, 2.0], "s": "x"}
        assert parse_kv(dump_kv(cfg)) == cfg

    def test_instance_from_config(self):
        inst = instance_from_config(parse_kv(SCALAR_CFG))
        assert inst.T == 5
        assert inst.Q[0, 0, 0] == 0.2 and inst.Q[5, 0, 0] == 0.4


class TestCli:
    def test_riccati_exit_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG)
        rc = main(["riccati", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "o")])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["kind"] == "riccati"
        assert set(manifest["versions"]) == {"lqrlab", "numpy", "scipy", "python"}
        assert (tmp_path / "o" / "seed_0.csv").exists()
        assert (tmp_path / "o" / "aggregate.csv").exists()

    def test_pg_multi_seed(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + 'eta = 0.5\niters = 20\npolicy0 = 0.1\n')
        rc = main(["pg", "--config", cfg, "--seeds", "0", "1", "2", "--out", str(tmp_path / "o")])
        assert rc == 0
        data = np.genfromtxt(tmp_path / "o" / "seed_1.csv", delimiter=",", names=True)
        assert data["normalized_error"][-1] < data["normalized_error"][0]
        agg = np.genfromtxt(tmp_path / "o" / "aggregate.csv", delimiter=",", names=True)
        assert "cost_median" in agg.dtype.names

    def test_zo_ppg_on_liquidation(self, tmp_path):
        extra = 'eta = 0.05\niters = 3\nradius = 0.6\nsamples = 20\npolicy0 = -0.2\nconstraint.gamma_bar = 5e-5\n'
        cfg = write(tmp_path, "c.cfg", AC_CFG + extra)
        rc = main(["zo-ppg", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_qlearn_smoke(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "sweeps = 3\nn_states = 11\nn_actions = 11\neval_rollouts = 100\n")
        rc = main(["qlearn", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_lob_and_impact(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", AC_CFG + "book.T = 10\nbook.depth_mean = 2000\nphi_prime = 1e-6\n")
        rc = main(["lob", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "lob")])
        assert rc == 0
        manifest = json.loads((tmp_path / "lob" / "manifest.json").read_text())
        assert "shortfall" in manifest["scalars"]["0"]
        cfg2 = write(tmp_path, "i.cfg", "impact.gamma = 2.5e-6\nimpact.sigma = 0.01\nimpact.n = 500\n")
        rc = main(["impact", "--config", cfg2, "--seeds", "0", "--out", str(tmp_path / "imp")])
        assert rc == 0

    def test_deadline(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", AC_CFG + "horizons = [5, 10]\n")
        rc = main(["deadline", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "o")])
        assert rc == 0
        data = np.genfromtxt(tmp_path / "o" / "seed_0.csv", delimiter=",", names=True)
        assert set(np.unique(data["horizon"])) == {5.0, 10.0}

    def test_invalid_usage_exit_two(self, tmp_path, capsys):
        assert main(["nonsense", "--config", "x"]) == 2
        assert main(["pg", "--config", str(tmp_path / "missing.cfg")]) == 2
        bad = write(tmp_path, "bad.cfg", "a = not-json\n")
        assert main(["pg", "--config", bad]) == 2
        # valid file but required keys missing
        incomplete = write(tmp_path, "inc.cfg", SCALAR_CFG)  # no eta/iters
        assert main(["pg", "--config", incomplete, "--out", str(tmp_path / "o")]) == 2

    def test_zo_line_search_exit_two(self, tmp_path, capsys):
        # sampled gradients take fixed steps; asking for Armijo is a config error
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "eta = 0.2\niters = 5\nradius = 0.1\nsamples = 5\nline_search = true\n")
        assert main(["zo-pg", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "line search" in capsys.readouterr().err

    def test_runtime_failure_exit_three(self, tmp_path):
        # diverging step size trips the divergence guard -> exit 3
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "eta = 1e9\niters = 50\npolicy0 = 0.1\n")
        assert main(["pg", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("kind,extra", [
        ("pg", ""), ("pg", "line_search = true\n"), ("zo-pg", "radius = 0.1\nsamples = 5\n"),
    ])
    def test_nan_policy_exit_three(self, tmp_path, kind, extra):
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "eta = 0.1\niters = 5\npolicy0 = NaN\n" + extra)
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("kind", ["pg", "zo-pg"])
    def test_zero_optimal_cost_exit_three(self, tmp_path, kind):
        zero = SCALAR_CFG.replace('instance.noise.kind = "gaussian"', 'instance.noise.kind = "zero"').replace(
            'instance.init.kind = "gaussian"', 'instance.init.kind = "point"').replace("instance.init.mean = [1.0]", "instance.init.mean = [0.0]")
        cfg = write(tmp_path, "c.cfg", zero + "eta = 0.1\niters = 5\npolicy0 = 0.0\nradius = 0.1\nsamples = 5\n")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_manifest_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LQRLAB_THREADS", "2")
        cfg = parse_kv(SCALAR_CFG + "eta = 0.5\niters = 5\n")
        cfg["kind"] = "pg"
        m1 = run_experiment(cfg, [0, 1], tmp_path / "a")
        m2 = run_experiment(cfg, [0, 1], tmp_path / "b")
        assert m1 == m2
        assert (tmp_path / "a" / "seed_0.csv").read_bytes() == (tmp_path / "b" / "seed_0.csv").read_bytes()
        assert (tmp_path / "a" / "aggregate.csv").read_bytes() == (tmp_path / "b" / "aggregate.csv").read_bytes()

    def test_aggregate_pairs_rows_by_iteration(self, tmp_path):
        # with target_error the seeds stop at different iterations; the
        # aggregate must pair each iteration's rows, not truncate by row index
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "eta = 0.2\niters = 100\nradius = 0.1\nsamples = 50\ntarget_error = 0.05\n")
        assert main(["zo-pg", "--config", cfg, "--seeds", "0", "1", "2", "--out", str(tmp_path / "o")]) == 0
        seeds = [np.genfromtxt(tmp_path / "o" / f"seed_{s}.csv", delimiter=",", names=True) for s in range(3)]
        assert [len(s) for s in seeds] == [101, 101, 67]
        agg = np.genfromtxt(tmp_path / "o" / "aggregate.csv", delimiter=",", names=True)
        assert len(agg) == 101
        np.testing.assert_array_equal(agg["iter"], np.arange(101))
        np.testing.assert_array_equal(agg["n_seeds"], np.where(np.arange(101) < 67, 3, 2))
        np.testing.assert_array_equal(agg["iter_min"], agg["iter"])
        np.testing.assert_array_equal(agg["iter_max"], agg["iter"])
        for i, row in enumerate(agg):
            costs = [s["cost"][i] for s in seeds if len(s) > i]
            assert row["cost_median"] == np.median(costs)
            assert (row["cost_min"], row["cost_max"]) == (min(costs), max(costs))
