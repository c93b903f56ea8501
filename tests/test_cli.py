import json
import platform

import numpy as np
import pytest

from gapsecretary import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidation:
    def test_bad_tau_exits_2_with_named_precondition(self, capsys):
        code, _, err = run(
            ["simulate", "--family", "exp", "--algo", "exact-gap", "--tau", "1.5", "--k", "5"],
            capsys,
        )
        assert code == 2
        assert "tau must lie in [0, 1)" in err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--sigma", "nan"),
            ("--sigma", "inf"),
            ("--epsilon", "nan"),
            ("--epsilon", "inf"),
            ("--gamma", "nan"),
            ("--gap-value", "nan"),
            ("--gap-value", "inf"),
            ("--threads", "0"),
        ],
    )
    def test_non_finite_or_invalid_value_exits_2(self, flag, value, capsys):
        argv = [
            "simulate", "--family", "exp", "--n", "20", "--iters", "50",
            "--algo", "bounded", "--k", "5", flag, value,
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "must be" in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--family", "pareto", "--n", "1"], "needs n >= 2"),
            (["--family", "exp-superstar", "--n", "1"], "needs n >= 2"),
            (["--family", "chisq", "--df", "0"], "df must be an integer >= 1"),
        ],
        ids=["pareto-n1", "superstar-n1", "chisq-df0"],
    )
    def test_family_precondition_exits_2(self, flags, message, capsys):
        code, out, err = run(["simulate", "--algo", "classical", "--iters", "5"] + flags, capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_missing_gap_index(self, capsys):
        code, _, err = run(["simulate", "--family", "exp", "--algo", "exact-gap"], capsys)
        assert code == 2
        assert "gap index" in err

    @pytest.mark.parametrize("flags", [["--tau-from-k"], ["--tau-policy", "from-k"]])
    def test_tau_from_k_needs_gap_index(self, flags, capsys):
        argv = ["simulate", "--family", "exp", "--algo", "exact-gap", "--gap-value", "1"]
        code, out, err = run(argv + flags, capsys)
        assert code == 2
        assert out == ""
        assert "gap index k" in err

    def test_zero_step_sweep(self, capsys):
        code, _, err = run(
            [
                "sweep", "--sweep", "sigma", "--from", "0", "--to", "1", "--step", "0",
                "--family", "exp", "--algo", "exact-gap", "--k", "2",
            ],
            capsys,
        )
        assert code == 2
        assert "step must be positive" in err

    @pytest.mark.parametrize(
        "sweep,bounds,message",
        [
            ("sigma", ["--from", "1", "--to", "0", "--step", "0.5"], "--to must be at least --from"),
            ("k", ["--from", "9", "--to", "3", "--step", "1"], "--to must be at least --from"),
            ("k", ["--from", "2", "--to", "6", "--step", "0.5"], "integer --from, --to and --step"),
            ("k", ["--from", "2.9", "--to", "4.9", "--step", "1"], "integer --from, --to and --step"),
            ("sigma", ["--from", "0", "--to", "inf", "--step", "0.5"], "must be finite"),
            ("sigma", ["--from", "nan", "--to", "1", "--step", "0.5"], "must be finite"),
            ("sigma", ["--from", "0", "--to", "1", "--step", "inf"], "must be finite"),
        ],
        ids=["sigma-reversed", "k-reversed", "k-fractional-step", "k-fractional-bounds",
             "sigma-infinite-to", "sigma-nan-from", "sigma-infinite-step"],
    )
    def test_sweep_range_exits_2(self, sweep, bounds, message, capsys):
        argv = ["sweep", "--sweep", sweep, *bounds, "--family", "exp", "--n", "20",
                "--iters", "10", "--algo", "exact-gap", "--k", "2"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_unknown_k_requires_absolute_gap(self, capsys):
        code, _, err = run(
            ["simulate", "--family", "exp", "--algo", "exact-gap", "--k", "unknown"],
            capsys,
        )
        assert code == 2

    def test_unknown_k_with_absolute_gap_runs(self, capsys):
        code, out, _ = run(
            [
                "simulate", "--family", "exp", "--n", "20", "--iters", "50",
                "--algo", "exact-gap", "--k", "unknown", "--gap-value", "0.5",
                "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("family,algo,")


class TestSimulate:
    def test_csv_shape_and_header(self, capsys):
        code, out, _ = run(
            [
                "simulate", "--family", "chisq", "--n", "30", "--iters", "100",
                "--algo", "robust", "--tau", "0.2", "--gamma", "0.1", "--k", "5",
                "--sigma", "1.5", "--seed", "11",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "family,algo,n,iters,k,tau,gamma,sigma,epsilon,L,seed,"
            "ratio_mean,ratio_stderr,select_best_prob,none_prob"
        )
        fields = lines[1].split(",")
        assert fields[0] == "chisq"
        assert fields[1] == "robust"
        assert fields[4] == "5"
        assert 0.0 <= float(fields[11]) <= 1.0

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = [
            "simulate", "--family", "exp", "--n", "25", "--iters", "80",
            "--algo", "exact-gap", "--k", "4", "--seed", "21",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_manifest_written_and_replayable(self, tmp_path, capsys):
        out_path = tmp_path / "run.csv"
        args = [
            "simulate", "--family", "exp", "--n", "20", "--iters", "60",
            "--algo", "classical", "--tau", "0.3", "--seed", "8",
            "--out", str(out_path),
        ]
        assert cli.main(args) == 0
        manifest_path = tmp_path / "run.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["master_seed"] == 8
        assert manifest["command"] == "simulate"
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["streams"] == "vectorized"
        original = out_path.read_bytes()
        out_path.unlink()
        assert cli.replay_manifest(manifest_path) == 0
        assert out_path.read_bytes() == original
        capsys.readouterr()

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "345")
        code, out, _ = run(
            ["simulate", "--family", "exp", "--n", "10", "--iters", "20", "--algo", "classical"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[10] == "345"

    def test_l_select_row(self, capsys):
        code, out, _ = run(
            [
                "simulate", "--family", "exp", "--n", "30", "--iters", "50",
                "--algo", "l-select", "--tau", "0.3", "--L", "3", "--seed", "2",
            ],
            capsys,
        )
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert fields[9] == "3"  # L column

    def test_dump_and_replay_profiles(self, tmp_path, capsys):
        dump = tmp_path / "instances.txt"
        run_args = [
            "simulate", "--family", "exp", "--n", "15", "--iters", "40",
            "--algo", "exact-gap", "--k", "3", "--seed", "5",
        ]
        code1, out1, _ = run(run_args + ["--dump-profiles", str(dump)], capsys)
        assert code1 == 0 and dump.exists()
        code2, out2, _ = run(
            [
                "simulate", "--profiles-file", str(dump), "--iters", "40",
                "--algo", "exact-gap", "--k", "3", "--seed", "5",
            ],
            capsys,
        )
        assert code2 == 0
        # same instances, same arrival streams: identical estimates
        assert out1.strip().splitlines()[1].split(",")[11] == (
            out2.strip().splitlines()[1].split(",")[11]
        )


    @pytest.mark.parametrize("gap", [[], ["--gap-value", "0.7"]], ids=["auto", "absolute"])
    def test_l_select_dump_and_replay_csv_identical(self, gap, tmp_path, capsys):
        dump = tmp_path / "instances.txt"
        common = ["--iters", "40", "--algo", "l-select", "--L", "3", "--tau", "0.3", "--seed", "5", *gap]
        code1, out1, _ = run(
            ["simulate", "--family", "chisq", "--n", "15", *common, "--dump-profiles", str(dump)],
            capsys,
        )
        code2, out2, _ = run(["simulate", "--profiles-file", str(dump), *common], capsys)
        assert code1 == 0 and code2 == 0
        assert out1 == out2


class TestSweep:
    def test_k_sweep_includes_classical_baseline(self, capsys):
        code, out, _ = run(
            [
                "sweep", "--sweep", "k", "--from", "2", "--to", "10", "--step", "4",
                "--family", "exp", "--n", "30", "--iters", "60",
                "--algo", "exact-gap", "--seed", "13",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        algos = [line.split(",")[1] for line in lines]
        assert algos.count("exact-gap") == 3
        assert algos.count("classical") == 3

    def test_sigma_sweep_grid(self, capsys):
        code, out, _ = run(
            [
                "sweep", "--sweep", "sigma", "--from", "0", "--to", "1", "--step", "0.5",
                "--family", "exp", "--n", "30", "--iters", "60",
                "--algo", "exact-gap", "--k", "2,5", "--seed", "13",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 6  # 2 indices x 3 sigma values

    def test_l_select_sigma_sweep_rows_equal_simulate(self, capsys):
        common = ["--family", "exp", "--n", "30", "--iters", "60", "--algo", "l-select",
                  "--L", "2", "--seed", "13"]
        code, out, _ = run(
            ["sweep", "--sweep", "sigma", "--from", "0", "--to", "1", "--step", "0.5",
             "--k", "2,4", *common],
            capsys,
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert len(rows) == 6
        for sigma, row in zip(["0.0", "0.5", "1.0"] * 2, rows):
            code, single, _ = run(["simulate", "--sigma", sigma, *common], capsys)
            assert code == 0
            assert single.strip().splitlines() == [header, row]


class TestBounds:
    def test_rc_point(self, capsys):
        code, out, _ = run(["bounds", "--which", "rc", "--tau", "0.2", "--gamma", "0.6"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["consistency"]["alpha"] == pytest.approx(0.3833, abs=1e-4)
        assert payload["robustness"] == pytest.approx(0.1833, abs=1e-4)

    def test_exact_point(self, capsys):
        code, out, _ = run(["bounds", "--which", "exact", "--tau", "0.2", "--k", "2"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["alpha"] == pytest.approx(0.40283, abs=1e-5)

    def test_tie23(self, capsys):
        code, out, _ = run(["bounds", "--which", "tie23", "--tau", "0.359"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(0.4415, abs=1e-3)

    def test_domain_violation_exits_2(self, capsys):
        code, _, err = run(["bounds", "--which", "exact", "--tau", "0.0", "--k", "2"], capsys)
        assert code == 2
        assert "tau" in err


class TestFrontier:
    def test_rows_monotone_and_feasibility(self, capsys):
        code, out, _ = run(
            [
                "frontier", "--r-from", "0", "--r-to", "0.4", "--r-step", "0.1",
                "--grid-step", "0.01",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("robustness_target,tau,gamma,consistency")
        rows = [line.split(",") for line in lines[1:]]
        feasible = [r for r in rows if r[5] == "true"]
        values = [float(r[3]) for r in feasible]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
        assert rows[-1][5] == "false"  # 0.4 is beyond the grid's reach

    def test_headline_target(self, capsys):
        code, out, _ = run(
            [
                "frontier", "--r-from", "0.1833", "--r-to", "0.1833", "--r-step", "0.1",
                "--grid-step", "0.005",
            ],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[5] == "true"
        assert float(row[3]) >= 0.383

    def test_invalid_range(self, capsys):
        code, _, _ = run(["frontier", "--r-from", "0.2", "--r-to", "0.1", "--r-step", "0.1"], capsys)
        assert code == 2

    def test_frontier_manifest_replay(self, tmp_path, capsys):
        out_path = tmp_path / "frontier.csv"
        args = [
            "frontier", "--r-from", "0", "--r-to", "0.1", "--r-step", "0.05",
            "--grid-step", "0.02", "--out", str(out_path),
        ]
        assert cli.main(args) == 0
        original = out_path.read_bytes()
        out_path.unlink()
        assert cli.replay_manifest(str(out_path) + ".manifest.json") == 0
        assert out_path.read_bytes() == original
        capsys.readouterr()


class TestVerify:
    def test_bounds_suite_fast(self, capsys):
        code, out, _ = run(["verify", "--suite", "bounds"], capsys)
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out
