import json
import re
import sys

import numpy as np
import pytest

from lqrlab import cli, zeroth
from lqrlab.cli import main, run_experiment
from lqrlab.config_io import book_from_config, dump_kv, instance_from_config, parse_kv
from lqrlab.liquidation import SyntheticBookConfig, synthetic_lob, write_lob_csv

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


# the keys each kind needs beyond an instance
KIND_EXTRAS = {
    "riccati": "",
    "pg": "eta = 0.5\niters = 3\n",
    "zo-pg": "eta = 0.2\niters = 3\nradius = 0.1\nsamples = 5\n",
    "qlearn": "sweeps = 3\nn_states = 11\nn_actions = 11\neval_rollouts = 100\n",
    "lob": "book.T = 10\nbook.depth_mean = 2000\nphi_prime = 1e-6\n",
    "deadline": "horizons = [5, 10]\n",
}
PPG_EXTRAS = "eta = 1e3\niters = 3\npolicy0 = -0.2\nconstraint.gamma_bar = 5e-5\n"
IMPACT_CFG = "impact.gamma = 2.5e-6\nimpact.sigma = 0.01\nimpact.n = 500\n"


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

    def test_pg_runs_one_descent_for_all_seeds(self, tmp_path, monkeypatch):
        # exact PG never reads the seed: one descent is written to every seed's CSV
        calls = []
        run = cli.run_exact_pg
        monkeypatch.setattr(cli, "run_exact_pg", lambda *a: calls.append(1) or run(*a))
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + 'eta = 0.5\niters = 20\npolicy0 = 0.1\n')
        assert main(["pg", "--config", cfg, "--seeds", "0", "1", "2", "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        assert main(["pg", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "one")]) == 0
        single = (tmp_path / "one" / "seed_0.csv").read_bytes()
        assert all((tmp_path / "o" / f"seed_{s}.csv").read_bytes() == single for s in range(3))

    @pytest.mark.parametrize("kind", list(KIND_EXTRAS))
    def test_integer_columns_are_written_as_integers(self, tmp_path, kind):
        base = AC_CFG if kind in ("lob", "deadline") else SCALAR_CFG
        cfg = write(tmp_path, "c.cfg", base + KIND_EXTRAS[kind])
        assert main([kind, "--config", cfg, "--seeds", "0", "1", "--out", str(tmp_path / "o")]) == 0
        for path in sorted((tmp_path / "o").glob("*.csv")):
            header, *rows = [line.split(",") for line in path.read_text().splitlines()]
            assert rows
            for j, col in enumerate(header):
                cells = [r[j] for r in rows]
                if col in ("iter", "n_seeds", "row", "m", "t", "sweeps", "horizon"):
                    assert all(re.fullmatch(r"-?[0-9]+", c) for c in cells), (path.name, col, cells)
                else:
                    assert all(c == "nan" or re.search(r"[.e]", c) for c in cells), (path.name, col, cells)

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
        cfg2 = write(tmp_path, "i.cfg", IMPACT_CFG)
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

    @pytest.mark.parametrize("text,fault", [
        (None, "No such file"),
        ("timestamp,level,bid_price,bid_volume\n0,0,200.0,100.0\n1,0,199.9,100.0\n", "no '# tick = <tick>' first line"),
        ("# tick = 0.1\ntimestamp,level,bid_price,bid_volume\n", "no rows"),
        ("# tick = 0.1\ntimestamp,level,bid_price,bid_volume\n0,0,200.0\n1,0,199.9,100.0\n", "malformed tick or row"),
        ("# tick = 0.1\ntimestamp,level,bid_price,bid_volume\n0,0,200.0,100.0\n0,1,199.9,50.0\n", "one snapshot"),
    ])
    def test_malformed_lob_csv_exit_two(self, tmp_path, capsys, text, fault):
        # a book file that is missing or malformed is bad input, named with its path
        book = tmp_path / "book.csv"
        if text is not None:
            book.write_text(text)
        cfg = write(tmp_path, "c.cfg", AC_CFG + f'phi_prime = 1e-6\nlob_csv = "{book}"\n')
        assert main(["lob", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and str(book) in err and fault in err
        assert not (tmp_path / "o" / "seed_0.csv").exists()

    @pytest.mark.parametrize("kind,text,key", [
        ("lob", AC_CFG + "book.T = 10\nbook.depth_men = 5\nphi_prime = 1e-6\n", "book.depth_men is not read by kind 'lob'"),
        ("lob", AC_CFG + "book.T = 10\nbook.random_depth = false\nphi_prime = 1e-6\n", "book.random_depth is not read by kind 'lob'"),
        ("deadline", AC_CFG + "ac.sgima = 0.2\nhorizons = [5]\n", "ac.sgima is not read by kind 'deadline'"),
        ("lob", AC_CFG + "phi_prime = 1e-6\n", "book.T"),
        ("pg", SCALAR_CFG + KIND_EXTRAS["pg"] + "book.T = 10\n", "book.T is not read by kind 'pg'"),
        ("lob", AC_CFG + 'book.T = 10\nphi_prime = 1e-6\nlob_csv = "b.csv"\n', "book.T is not read by kind 'lob'"),
        ("impact", "impact.gamma = 2.5e-6\nimpact.sigma = 0.01\nac.T = 10\n", "ac.T is not read by kind 'impact'"),
        ("pg", SCALAR_CFG + KIND_EXTRAS["pg"] + "instance.noise.sigmaa = 5.0\n", "instance.noise.sigmaa is not read by kind 'pg'"),
        ("pg", SCALAR_CFG + KIND_EXTRAS["pg"] + "instance.init.factr = [[2.0]]\n", "instance.init.factr is not read by kind 'pg'"),
        ("pg", SCALAR_CFG + KIND_EXTRAS["pg"] + "instance.Q_terminl = [[9.0]]\n", "instance.Q_terminl is not read by kind 'pg'"),
        ("pg", SCALAR_CFG + KIND_EXTRAS["pg"] + "line_serach = true\n", "line_serach is not read by kind 'pg'"),
        ("pg", SCALAR_CFG + KIND_EXTRAS["pg"] + "radius = 0.1\nsamples = 5\n", "radius is not read by kind 'pg'"),
        ("ppg", AC_CFG + PPG_EXTRAS + "constraint.zeat = 0.1\n", "constraint.zeat is not read by kind 'ppg'"),
        ("impact", IMPACT_CFG + "impact.mfi_sdt = 50.0\n", "impact.mfi_sdt is not read by kind 'impact'"),
        ("impact", IMPACT_CFG + "eta = 0.5\n", "eta is not read by kind 'impact'"),
        ("impact", IMPACT_CFG + "instance.A = [[1.0]]\n", "instance.A is not read by kind 'impact'"),
        ("deadline", AC_CFG + KIND_EXTRAS["deadline"] + "samples = 5\n", "samples is not read by kind 'deadline'"),
        ("pg", AC_CFG + KIND_EXTRAS["pg"] + "instance.A = [[1.0]]\n", "instance.A is not read by kind 'pg'"),
    ])
    def test_section_keys_the_run_does_not_read_exit_two(self, tmp_path, capsys, kind, text, key):
        # a misspelt or misplaced key used to be ignored and the run exited 0:
        # `lob` ran with the default depth, `pg` with the default noise or no
        # line search, and `pg` with ac.* keys dropped its instance.* keys
        cfg = write(tmp_path, "c.cfg", text)
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and key in err
        assert not (tmp_path / "o").exists()  # reported before --out is made, so no seed_0.csv

    @pytest.mark.parametrize("kind,setting,key", [
        ("riccati", "ac.phi = NaN", "ac.phi"), ("riccati", "ac.epsilon = NaN", "ac.epsilon"),
        ("riccati", "ac.epsilon = -1", "ac.epsilon"), ("riccati", "ac.phi = Infinity", "ac.phi"),
        ("riccati", "ac.phi = -1", "ac.phi"), ("riccati", "ac.T = 0", "ac.T"),
        ("ppg", "constraint.gamma_bar = NaN", "constraint.gamma_bar"),
        ("ppg", "constraint.zeta = NaN", "constraint.zeta"),
        ("ppg", "constraint.gamma_bar = Infinity", "constraint.gamma_bar"),
    ])
    def test_bad_liquidation_settings_exit_two(self, tmp_path, capsys, kind, setting, key):
        # NaN or negative ac.phi and ac.epsilon used to exit 0 with NaN gains or
        # an indefinite state cost, ac.phi = Infinity and the bad constraints
        # exit 3, and ac.phi = -1 exit 2 with a LAPACK message
        extras = PPG_EXTRAS if kind == "ppg" else ""
        cfg = write(tmp_path, "c.cfg", AC_CFG + extras + setting + "\n")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: {key} must be ")
        assert not (tmp_path / "o").exists()

    def test_config_is_read_once_for_all_seeds(self, tmp_path, monkeypatch):
        calls = []
        read = cli.instance_from_config
        monkeypatch.setattr(cli, "instance_from_config", lambda keys: calls.append(1) or read(keys))
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + KIND_EXTRAS["zo-pg"])
        assert main(["zo-pg", "--config", cfg, "--seeds", "0", "1", "2", "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        assert all((tmp_path / "o" / f"seed_{s}.csv").exists() for s in range(3))

    def test_seed_threads_share_what_was_read(self, tmp_path, monkeypatch):
        # every seed thread runs on the same instance and initial policy; more
        # threads than cores, switching often, must write what one thread writes
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + KIND_EXTRAS["zo-pg"])
        seeds = [str(s) for s in range(8)]
        interval = sys.getswitchinterval()
        try:
            for threads in ("1", "8"):
                monkeypatch.setenv("LQRLAB_THREADS", threads)
                sys.setswitchinterval(1e-6)
                assert main(["zo-pg", "--config", cfg, "--seeds", *seeds, "--out", str(tmp_path / threads)]) == 0
        finally:
            sys.setswitchinterval(interval)
        for name in [f"seed_{s}.csv" for s in seeds] + ["aggregate.csv"]:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "8" / name).read_bytes()

    @pytest.mark.parametrize("setting,field", [
        ("book.tick = 0", "book.tick"),
        ("book.levels = 0", "book.levels"),
        ("book.sigma_mid = -1", "book.sigma_mid"),
        ("book.T = 0", "book.T"),
        ("book.depth_mean = -5", "book.depth_mean"),
        ("book.mid0 = 0", "book.mid0"),
        ("book.sigma_mid = NaN", "book.sigma_mid"),
    ])
    def test_bad_synthetic_book_exit_two(self, tmp_path, capsys, setting, field):
        # a zero tick used to exit 1 with a ZeroDivisionError, zero levels
        # with an IndexError, and a negative sigma_mid ran and exited 0
        text = AC_CFG + "book.T = 10\nbook.depth_mean = 2000\nphi_prime = 1e-6\n" + setting + "\n"
        cfg = write(tmp_path, "c.cfg", text)
        assert main(["lob", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and field in err
        assert not (tmp_path / "o" / "seed_0.csv").exists()

    def test_book_from_given_keys(self):
        # the keys given, SyntheticBookConfig's defaults for the rest
        assert book_from_config({"book.T": 7, "book.levels": 3.0, "book.tick": "0.5"}) == SyntheticBookConfig(
            T=7, levels=3, tick=0.5)

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        # an --out that names a file used to exit 1 with a FileExistsError traceback
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["riccati", "--config", cfg, "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    def test_zo_line_search_exit_two(self, tmp_path, capsys):
        # sampled gradients take fixed steps; asking for Armijo is a config error
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "eta = 0.2\niters = 5\nradius = 0.1\nsamples = 5\nline_search = true\n")
        assert main(["zo-pg", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "line search" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["radius = 0\nsamples = 5\n", "radius = 0.1\nsamples = 0\n"])
    def test_bad_smoothing_exit_two(self, tmp_path, capsys, setting):
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "eta = 0.2\niters = 3\n" + setting)
        assert main(["zo-pg", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "smoothing" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,name", [
        ("n_states = 1\n", "n_states"), ("n_actions = 0\n", "n_actions"),
        ("eval_rollouts = 0\n", "n_rollouts"), ("sweeps = -1\n", "sweeps"),
    ])
    def test_bad_qlearn_sizes_exit_two(self, tmp_path, capsys, setting, name):
        # the setting overrides the same key of the valid extras before it
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + KIND_EXTRAS["qlearn"] + setting)
        assert main(["qlearn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("kind,setting,key", [
        ("zo-pg", "samples = 2.5\n", "samples"), ("pg", "iters = 2.9\n", "iters"),
        ("qlearn", "sweeps = 1.5\n", "sweeps"), ("qlearn", "n_states = 11.5\n", "n_states"),
        ("pg", "iters = true\n", "iters"), ("riccati", "instance.T = 4.5\n", "instance.T"),
    ])
    def test_fractional_counts_exit_two(self, tmp_path, capsys, kind, setting, key):
        # a count that is not a whole number is a config error, never truncated
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + KIND_EXTRAS[kind] + setting)
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must be a whole number" in capsys.readouterr().err
        assert not (tmp_path / "o" / "seed_0.csv").exists()

    def test_whole_float_counts_run_as_integers(self, tmp_path):
        for name, counts in (("int", "iters = 3\nsamples = 5\n"), ("float", "iters = 3.0\nsamples = 5e0\n")):
            cfg = write(tmp_path, f"{name}.cfg", SCALAR_CFG + "eta = 0.2\nradius = 0.1\n" + counts)
            assert main(["zo-pg", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "int" / "seed_0.csv").read_bytes() == (tmp_path / "float" / "seed_0.csv").read_bytes()

    @pytest.mark.parametrize("lr,code", [("-1", 2), ("0", 0), ("5", 2), ("NaN", 2)])
    def test_qlearn_step_size_is_checked(self, tmp_path, capsys, lr, code):
        # lr = 0 is a valid (if idle) step: a sweep then leaves the table as it is
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + KIND_EXTRAS["qlearn"] + f"lr = {lr}\n")
        assert main(["qlearn", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        if code:
            assert "lr must be in [0, 1]" in capsys.readouterr().err

    def test_target_error_is_read_as_a_number(self, tmp_path):
        extra = "eta = 0.5\niters = 30\npolicy0 = 0.1\n"
        for name, target in (("num", "0.1"), ("str", '"0.1"')):
            cfg = write(tmp_path, f"{name}.cfg", SCALAR_CFG + extra + f"target_error = {target}\n")
            assert main(["pg", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "num" / "seed_0.csv").read_bytes() == (tmp_path / "str" / "seed_0.csv").read_bytes()

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1"])
    def test_line_search_must_be_a_boolean(self, tmp_path, capsys, value):
        cfg = write(tmp_path, "c.cfg", AC_CFG + f"eta = 1e3\niters = 5\npolicy0 = -0.2\nline_search = {value}\n")
        assert main(["pg", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "line_search" in capsys.readouterr().err

    def test_negative_step_size_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "eta = -1\niters = 5\n")
        assert main(["pg", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "eta must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "o" / "seed_0.csv").exists()

    @pytest.mark.parametrize("setting,field", [
        ("instance.noise.sigma = NaN\n", "noise.sigma"), ("instance.init.mean = [NaN]\n", "init.mean"),
        ("instance.noise.factor = [[1.0, 0.5]]\n", "noise.factor"), ("instance.init.mean = [1.0, 2.0]\n", "init.mean"),
    ])
    def test_models_that_do_not_fit_exit_two(self, tmp_path, capsys, setting, field):
        # bad input, named at construction: not a nan trace or a failed run (exit 3)
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + KIND_EXTRAS["pg"] + setting)
        assert main(["pg", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o" / "seed_0.csv").exists()

    @pytest.mark.parametrize("setting,key", [
        ("instance.Q = [[0.2, 0.0], [0.0, 0.2]]", "Q"), ("instance.Q_terminal = [[0.4, 0.0], [0.0, 0.4]]", "Q_terminal"),
        ("instance.R = [[0.1, 0.0], [0.0, 0.1]]", "R"), ("instance.Q = [[[0.2, 0.0]], [[0.2, 0.0]]]", "Q"),
        ("policy0 = [0.1, 0.2]", "policy0"),
    ])
    def test_weights_and_gains_that_do_not_fit_exit_two(self, tmp_path, capsys, setting, key):
        # these exited 2 with numpy's concatenate or reshape message, which named no key
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + KIND_EXTRAS["pg"] + setting + "\n")
        assert main(["pg", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid config: {key} must ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("setting,code,message", [
        ("instance.B = [[NaN]]\n", 2, "B must be finite"),
        ("instance.A = [[Infinity]]\n", 2, "A must be finite"),
        ("instance.A = [[1.0, 0.5]]\n", 2, "A must have shape (1, 1), got (1, 2)"),
        ("instance.A = [[1e200]]\n", 3, "Riccati step matrix R + B'PB[3] is not finite"),  # T = 5 breaks at step 3
        ("instance.A = [[1e200]]\ninstance.T = 1\n", 3, "Riccati optimal cost is nan"),
    ])
    def test_riccati_input_that_does_not_fit_or_overflows(self, tmp_path, capsys, setting, code, message):
        # the first three and the overflow used to write NaN gains and
        # "optimal_cost": NaN, which is not JSON, and exit 0; the non-square
        # A exited 2 with numpy's broadcast message
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + setting)
        assert main(["riccati", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("kind,setting,key", [
        ("pg", "eta = [0.5]", "eta"), ("pg", "iters = [3]", "iters"), ("zo-pg", "radius = [0.1]", "radius"),
        ("deadline", "ac.beta = [1.03e-5]", "ac.beta"), ("pg", 'instance.A = {"a": 1}', "instance.A"),
        ("pg", "policy0 = {}", "policy0"), ("pg", "policy0 = true", "policy0"), ("pg", "policy0 = null", "policy0"),
        ("pg", "instance.noise.factor = [[true]]", "instance.noise.factor"), ("pg", "instance.B = [[1, null]]", "instance.B"),
        ("lob", "lob_csv = 5", "lob_csv"), ("deadline", "horizons = 5", "horizons"),
    ])
    def test_wrong_json_types_exit_two(self, tmp_path, capsys, kind, setting, key):
        # eta = [0.5] used to exit 1 with a TypeError traceback from float(),
        # and numpy read policy0 = true as K0 = 1 and null as NaN
        base = AC_CFG if kind in ("lob", "deadline") else SCALAR_CFG
        cfg = write(tmp_path, "c.cfg", base + KIND_EXTRAS[kind] + setting + "\n")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid config: {key} must be ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["lob", "impact"])
    def test_seedless_inputs_run_once_for_all_seeds(self, tmp_path, monkeypatch, kind):
        # a book file or explicit quotes never read the seed, so one run is
        # written to every seed's CSV, byte for byte what a one-seed run writes
        if kind == "lob":
            write_lob_csv(tmp_path / "book.csv", synthetic_lob(SyntheticBookConfig(T=10, depth_mean=2000), 0))
            text, name = AC_CFG + f'phi_prime = 1e-6\nlob_csv = "{tmp_path / "book.csv"}"\n', "read_lob_csv"
        else:
            rng = np.random.default_rng(0)
            mfi = rng.normal(0.0, 100.0, 50)
            delta_s = 2.5e-6 * mfi + 0.01 * rng.standard_normal(50)
            text, name = f"impact.delta_s = {json.dumps(delta_s.tolist())}\nimpact.mfi = {json.dumps(mfi.tolist())}\n", "estimate_impact_params"
        calls = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a: calls.append(1) or real(*a))
        cfg = write(tmp_path, "c.cfg", text)
        assert main([kind, "--config", cfg, "--seeds", "0", "1", "2", "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        assert main([kind, "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "one")]) == 0
        single = (tmp_path / "one" / "seed_0.csv").read_bytes()
        assert all((tmp_path / "o" / f"seed_{s}.csv").read_bytes() == single for s in range(3))

    def test_runtime_failure_exit_three(self, tmp_path):
        # diverging step size trips the divergence guard -> exit 3
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "eta = 1e9\niters = 50\npolicy0 = 0.1\n")
        assert main(["pg", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_qlearn_infinite_cost_exit_three(self, tmp_path, capsys):
        # an unstable instance whose greedy cost overflows used to write
        # greedy_cost = inf and normalized_error = inf, and exit 0
        unstable = SCALAR_CFG.replace("instance.A = [[1.0]]", "instance.A = [[3.0]]").replace(
            "instance.T = 5", "instance.T = 700")
        cfg = write(tmp_path, "c.cfg", unstable + KIND_EXTRAS["qlearn"] + "sweeps = 1\n")
        assert main(["qlearn", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "greedy policy cost is inf" in err and "n_rollouts=100" in err and "seed=[0, 1]" in err

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
        smoothing = "radius = 0.1\nsamples = 5\n" if kind == "zo-pg" else ""
        cfg = write(tmp_path, "c.cfg", zero + "eta = 0.1\niters = 5\npolicy0 = 0.0\n" + smoothing)
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_zero_sphere_direction_exit_three(self, tmp_path, monkeypatch, capsys):
        # a sphere row whose normals are all 0 (chance about 2**-52 a number
        # at k * d = 1) fails the run, rather than a nan trace with exit 0
        real = zeroth.make_rng

        class Zeros:
            def standard_normal(self, size):
                return np.zeros(size)

        monkeypatch.setattr(zeroth, "make_rng", lambda key: Zeros() if key[-1] == 0 else real(key))
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "eta = 0.1\niters = 5\nradius = 0.1\nsamples = 5\n")
        assert main(["zo-pg", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "sphere row 0 " in capsys.readouterr().err

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
        cfg = write(tmp_path, "c.cfg", SCALAR_CFG + "eta = 0.1\niters = 100\nradius = 0.1\nsamples = 50\ntarget_error = 0.04\n")
        assert main(["zo-pg", "--config", cfg, "--seeds", "0", "1", "2", "--out", str(tmp_path / "o")]) == 0
        seeds = [np.genfromtxt(tmp_path / "o" / f"seed_{s}.csv", delimiter=",", names=True) for s in range(3)]
        lengths = [len(s) for s in seeds]
        assert len(set(lengths)) >= 2 and max(lengths) <= 101
        agg = np.genfromtxt(tmp_path / "o" / "aggregate.csv", delimiter=",", names=True)
        n = max(lengths)
        assert len(agg) == n
        np.testing.assert_array_equal(agg["iter"], np.arange(n))
        np.testing.assert_array_equal(agg["n_seeds"], [sum(length > i for length in lengths) for i in range(n)])
        np.testing.assert_array_equal(agg["iter_min"], agg["iter"])
        np.testing.assert_array_equal(agg["iter_max"], agg["iter"])
        # counts and indices are written as integers, the statistics of them as floats
        lines = (tmp_path / "o" / "aggregate.csv").read_text().splitlines()
        last = n - 1
        assert lines[1].startswith("0,3,0.0,0.0,0.0,")
        assert lines[-1].startswith(f"{last},{sum(length == n for length in lengths)},{last}.0,{last}.0,{last}.0,")
        lines = (tmp_path / "o" / "seed_2.csv").read_text().splitlines()
        assert lines[0].split(",")[-3] == "m" and lines[1].startswith("0,") and lines[-1].split(",")[-3] == "50"
        for i, row in enumerate(agg):
            costs = [s["cost"][i] for s in seeds if len(s) > i]
            assert row["cost_median"] == np.median(costs)
            assert (row["cost_min"], row["cost_max"]) == (min(costs), max(costs))

    @pytest.mark.parametrize("kind", ["zo-pg", "qlearn"])
    def test_aggregate_equals_per_cell_statistics(self, tmp_path, monkeypatch, kind):
        # seeds of unequal length, so every seed count from 1 to 4 occurs
        # (traces) or the shortest seed truncates (other kinds); the
        # aggregate must write what one median, min and max per cell writes
        rng = np.random.default_rng(5)
        cols = ["iter", "cost", "grad_norm"] if kind == "zo-pg" else ["sweeps", "cost", "grad_norm"]
        lengths = {3: 9, 4: 4, 5: 12, 6: 7}
        traces = {s: [[i, *rng.normal(size=2)] for i in range(n)] for s, n in lengths.items()}
        traces[5][2][1] = traces[4][2][1]  # a tie
        monkeypatch.setattr(cli, "_read", lambda keys, kind: (lambda seed: (cols, traces[seed], {}), True))
        run_experiment({"kind": kind}, list(lengths), tmp_path / "o")
        if kind == "zo-pg":
            rows = {}
            for s in lengths:
                for r in traces[s]:
                    rows.setdefault(r[0], []).append(r)
            keyed = [([i, len(rows[i])], rows[i]) for i in sorted(rows)]
            assert {len(r) for _, r in keyed} == {1, 2, 3, 4}
        else:
            keyed = [([i], [traces[s][i] for s in lengths]) for i in range(min(lengths.values()))]
        ref = tmp_path / "ref.csv"
        head = ["iter", "n_seeds"] if kind == "zo-pg" else ["row"]
        ref_rows = []
        for lead, rows in keyed:
            vals = np.array(rows, dtype=float)
            ref_rows.append(lead + [v for j in range(len(cols)) for v in (np.median(vals[:, j]), vals[:, j].min(),
                                                                          vals[:, j].max())])
        cli._write_csv(ref, head + [f"{c}_{stat}" for c in cols for stat in ("median", "min", "max")], ref_rows)
        assert (tmp_path / "o" / "aggregate.csv").read_bytes() == ref.read_bytes()
