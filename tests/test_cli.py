import contextlib
import io
import json
import math
import platform
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine
from gapsecretary import cli
from gapsecretary.bounds import (
    alpha_exact,
    consistency,
    robustness,
    two_three_tie_prob,
)
from gapsecretary.core import WeightProfile
from gapsecretary.generators import save_profiles
from gapsecretary.montecarlo import AlgorithmSpec, simulate_fixed_profile


SIGMA_SWEEP = ["--sweep", "sigma", "--from", "0", "--to", "1", "--step", "0.5"]
K_SWEEP = ["--sweep", "k", "--from", "2", "--to", "4", "--step", "1"]
ONE_SIGMA = ["--sweep", "sigma", "--from", "0", "--to", "0", "--step", "1"]
K_SWEEP_2_3 = ["--sweep", "k", "--from", "2", "--to", "3", "--step", "1"]


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
        "argv",
        [
            ["simulate", "--family", "exp", "--algo", "classical", "--threads", "1"],
            ["frontier", "--seed", "1"],
        ],
        ids=["simulate-threads", "frontier-seed"],
    )
    def test_removed_option_exits_2_naming_it(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--family", "pareto", "--n", "1"], "needs n >= 2"),
            (["--family", "exp-superstar", "--n", "1"], "needs n >= 2"),
            (["--family", "chisq", "--df", "0"], "df must be an integer >= 1"),
            (
                ["--family", "exp-superstar", "--superstar-factor", "inf"],
                "superstar factor must be finite and positive",
            ),
        ],
        ids=["pareto-n1", "superstar-n1", "chisq-df0", "superstar-factor-inf"],
    )
    def test_family_precondition_exits_2(self, flags, message, capsys):
        code, out, err = run(["simulate", "--algo", "classical", "--iters", "5"] + flags, capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_dump_with_profiles_file_exits_2(self, tmp_path, capsys):
        # a replay draws no instances, so there would be nothing to dump
        replay, dump = tmp_path / "instances.txt", tmp_path / "dump.txt"
        save_profiles(replay, [WeightProfile.from_weights([1.0, 2.0, 3.0])] * 5)
        argv = ["simulate", "--algo", "classical", "--iters", "5", "--profiles-file", str(replay)]
        code, out, err = run(argv + ["--dump-profiles", str(dump)], capsys)
        assert code == 2
        assert out == ""
        assert "--dump-profiles" in err and "--profiles-file" in err
        assert not dump.exists()

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--family", "pareto", "--n", "7", "--superstar-factor", "3"],
             "--family pareto differs from the profiles file's family exp"),
            (["--family", "exp", "--n", "7"], "--n 7 differs from the profiles file's size 20"),
            (["--n", "21"], "--n 21 differs from the profiles file's size 20"),
        ],
        ids=["family", "n", "n-alone"],
    )
    def test_profiles_file_refuses_conflicting_flags(self, flags, message, tmp_path, capsys):
        # the pareto flags exited 0 and wrote the file's exp and 20 under them
        replay, out_csv = tmp_path / "instances.txt", tmp_path / "out.csv"
        run_flags = ["--iters", "30", "--algo", "classical", "--seed", "4"]
        code, _, _ = run(["simulate", "--family", "exp", "--n", "20", *run_flags,
                          "--dump-profiles", str(replay)], capsys)
        assert code == 0
        argv = ["simulate", *run_flags, "--profiles-file", str(replay), "--out", str(out_csv)]
        code, out, err = run(argv + flags, capsys)
        assert (code, out) == (2, "")
        assert message in err
        assert not out_csv.exists()
        # the flags of the run that dumped the file replay it
        for matching in ([], ["--family", "exp"], ["--n", "20"], ["--family", "exp", "--n", "20"]):
            code, out, _ = run(["simulate", *run_flags, "--profiles-file", str(replay), *matching],
                               capsys)
            assert code == 0 and out.splitlines()[1].startswith("exp,classical,20,30,")

    @pytest.mark.parametrize(
        ("rows", "iters", "message"),
        [
            (["0.0,1.0,2.0", "0.0,1.0"], "2", "profiles file must contain instances of one size"),
            (["0.0,1.0,2.0"] * 5, "6", "profiles file provides 5 instances, fewer than --iters"),
            (["0.0,1.0,2.0"] * 5, "0", "iterations must be an integer >= 1"),
            (["0.0,1.0,2.0"] * 5, "-3", "iterations must be an integer >= 1"),
            (["0.0,1.0,2.0", "0.0,,2.0"], "2", "{path}:3: could not convert string to float"),
        ],
        ids=["mixed-sizes", "iters-above-count", "iters-0", "iters-negative", "malformed-row"],
    )
    def test_replay_input_errors_exit_2(self, rows, iters, message, tmp_path, capsys):
        # --iters -3 exited 0 on the file's first 2 instances: the list of 5
        # was sliced from its end
        replay, out_csv = tmp_path / "instances.txt", tmp_path / "out.csv"
        replay.write_text("# family=custom\n" + "".join(f"{row}\n" for row in rows))
        argv = ["simulate", "--algo", "classical", "--profiles-file", str(replay),
                "--iters", iters, "--out", str(out_csv)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert message.format(path=replay) in err
        assert not out_csv.exists()

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
            ("sigma", ["--from", "0", "--to", "1e300", "--step", "1e-300"],
             "--from, --to and --step give more than 100000 rows"),
            ("sigma", ["--from", "0", "--to", "1e5", "--step", "1"],
             "--from, --to and --step give more than 100000 rows"),
            ("k", ["--from", "2", "--to", "1e30", "--step", "1"], "above --n=20"),
            ("k", ["--from", "2", "--to", "21", "--step", "1"], "reach k=21, above --n=20"),
        ],
        ids=["sigma-reversed", "k-reversed", "k-fractional-step", "k-fractional-bounds",
             "sigma-infinite-to", "sigma-nan-from", "sigma-infinite-step",
             "sigma-count-overflows", "sigma-count-above-cap", "k-huge-to", "k-above-n"],
    )
    def test_sweep_range_exits_2(self, sweep, bounds, message, capsys):
        argv = ["sweep", "--sweep", sweep, *bounds, "--family", "exp", "--n", "20",
                "--iters", "10", "--algo", "exact-gap", "--k", "2"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_k_sweep_may_end_past_n_between_steps(self, capsys):
        # --to exceeds --n, but the last k the step reaches does not
        argv = ["sweep", "--sweep", "k", "--from", "2", "--to", "22", "--step", "9",
                "--family", "exp", "--n", "20", "--iters", "10", "--algo", "exact-gap",
                "--seed", "3"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert [line.split(",")[4] for line in out.splitlines()[1::2]] == ["2", "11", "20"]

    @pytest.mark.parametrize(
        "algo,sweep,repeat",
        [
            # a rule that reads no gap tells its rows apart by tau alone
            pytest.param("classical", [*SIGMA_SWEEP, "--k", "2,3"],
                         "classical rows leave k and sigma empty, so (k, sigma) = (2, 0.0) and (2, 0.5)",
                         id="sigma-classical"),
            pytest.param("strict-classical", [*SIGMA_SWEEP, "--k", "2,3"],
                         "strict-classical rows leave k and sigma empty, so (k, sigma) = (2, 0.0) and (2, 0.5)",
                         id="sigma-strict-classical"),
            pytest.param("classical", K_SWEEP,
                         "classical rows leave k and sigma empty, so (k, sigma) = (2, 1.0) and (3, 1.0)",
                         id="k-fixed-classical"),
            pytest.param("strict-classical", K_SWEEP,
                         "strict-classical rows leave k and sigma empty, so (k, sigma) = (2, 1.0) and (3, 1.0)",
                         id="k-fixed-strict-classical"),
            pytest.param("classical", [*K_SWEEP, "--tau-policy", "min"],
                         "classical rows leave k and sigma empty, so (k, sigma) = (2, 1.0) and (3, 1.0)",
                         id="k-min-classical"),
            pytest.param("strict-classical", [*K_SWEEP, "--tau-policy", "min"],
                         "strict-classical rows leave k and sigma empty, so (k, sigma) = (2, 1.0) and (3, 1.0)",
                         id="k-min-strict-classical"),
            pytest.param("classical", [*SIGMA_SWEEP, "--k", "2,3", "--tau-policy", "from-k"],
                         "classical rows leave k and sigma empty, so (k, sigma) = (2, 0.0) and (2, 0.5)",
                         id="gap-free-sigma-from-k"),
            # l-select's gap reads no index
            pytest.param("l-select", K_SWEEP,
                         "l-select rows leave k empty, so (k, sigma) = (2, 1.0) and (3, 1.0)",
                         id="l-select-k"),
            pytest.param("l-select", [*SIGMA_SWEEP, "--k", "2,3"],
                         "l-select rows leave k empty, so (k, sigma) = (2, 0.0) and (3, 0.0)",
                         id="l-select-sigma-two-k"),
            pytest.param("exact-gap", [*SIGMA_SWEEP, "--k", "2,2"],
                         "exact-gap rows leave neither k nor sigma empty, so (k, sigma) = (2, 0.0) and (2, 0.0)",
                         id="repeated-k"),
            pytest.param("robust", [*ONE_SIGMA, "--k", "2,3,2"],
                         "robust rows leave neither k nor sigma empty, so (k, sigma) = (2, 0.0) and (2, 0.0)",
                         id="repeated-k-robust"),
            # 1 + 1e-17 rounds to 1, so the first sigmas coincide
            pytest.param("exact-gap", ["--sweep", "sigma", "--from", "1", "--to", "1.0000000000000002",
                                       "--step", "1e-17", "--k", "2"],
                         "exact-gap rows leave neither k nor sigma empty, so (k, sigma) = (2, 1.0) and (2, 1.0)",
                         id="sigma-rounds-to-repeat"),
            # rows that differ in a column run, even where the estimate ignores it
            pytest.param("classical", [*ONE_SIGMA, "--k", "2"], None, id="gap-free-one-row-classical"),
            pytest.param("strict-classical", [*ONE_SIGMA, "--k", "2"], None,
                         id="gap-free-one-row-strict-classical"),
            pytest.param("classical", [*ONE_SIGMA, "--k", "2,3", "--tau-policy", "from-k"], None,
                         id="gap-free-one-sigma-from-k"),
            pytest.param("l-select", ["--sweep", "k", "--from", "2", "--to", "2", "--step", "1"], None,
                         id="l-select-one-k"),
            pytest.param("l-select", SIGMA_SWEEP, None, id="l-select-sigma"),
            pytest.param("exact-gap", [*K_SWEEP, "--gap-value", "2"], None, id="gap-value-k"),
            pytest.param("bounded", [*SIGMA_SWEEP, "--k", "2,3", "--gap-value", "2"], None,
                         id="gap-value-sigma"),
        ],
    )
    def test_sweep_runs_only_rows_that_differ(self, algo, sweep, repeat, draws, capsys):
        # two rows with the same k, tau, gamma, sigma, epsilon and L columns
        # would repeat one estimate; such a sweep exits 2 before it draws
        argv = ["sweep", *sweep, "--family", "exp", "--n", "20", "--iters", "50",
                "--algo", algo, "--seed", "3"]
        code, out, err = run(argv, capsys)
        if repeat is not None:
            assert (code, out, draws) == (2, "", [])
            assert f"{repeat} would repeat one estimate" in err
        else:
            assert code == 0
            rows = [line.split(",")[:11] for line in out.strip().splitlines()[1:]]
            swept = [tuple(row) for row in rows if row[1] == algo]
            assert len(set(swept)) == len(swept) > 0

    @pytest.mark.parametrize("algo", ["classical", "strict-classical"])
    @pytest.mark.parametrize(
        "policy", [["--tau-policy", "from-k"], ["--tau", "0.5", "--tau-policy", "min"]],
        ids=["from-k", "min-below-tau"],
    )
    def test_gap_free_k_sweep_with_a_tau_per_k_runs(self, algo, policy, capsys):
        argv = ["sweep", "--sweep", "k", "--from", "2", "--to", "4", "--step", "1",
                "--family", "exp", "--n", "20", "--iters", "50", "--algo", algo,
                "--seed", "3", *policy]
        code, out, _ = run(argv, capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        rows = [row for row in rows if row[1] == algo]
        assert [round(float(row[5]), 3) for row in rows] == [0.423, 0.370, 0.331]
        assert len({row[11] for row in rows}) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "{dir}/missing.json"],
            ["simulate", "--algo", "classical", "--profiles-file", "{dir}/missing.txt"],
            ["simulate", "--family", "exp", "--n", "5", "--iters", "5", "--algo", "classical",
             "--out", "{dir}/no-such-dir/run.csv"],
            ["simulate", "--family", "exp", "--n", "5", "--iters", "5", "--algo", "classical",
             "--dump-profiles", "{dir}/no-such-dir/dump.txt"],
        ],
        ids=["replay", "profiles-file", "out", "dump-profiles"],
    )
    def test_unusable_path_exits_2_naming_it(self, argv, tmp_path, capsys):
        argv = [a.format(dir=tmp_path) for a in argv]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert argv[-1] in err

    @pytest.mark.parametrize(
        "manifest",
        [
            {"command": "simulate"},
            ["simulate"],
            {"argv": ["simulate", 5]},
            {"argv": ["replay", "{path}"]},
            {"argv": ["verify", "--suite", "bounds"]},
        ],
        ids=["no-argv", "not-an-object", "non-string-item", "replays-itself", "verify"],
    )
    def test_bad_manifest_exits_2(self, manifest, tmp_path, capsys):
        path = tmp_path / "run.csv.manifest.json"
        path.write_text(json.dumps(manifest).replace("{path}", str(path)))
        code, out, err = run(["replay", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "argv must be a list of strings starting with simulate, sweep or frontier" in err

    def test_range_stops_at_its_end(self, capsys):
        # 0.26 / 0.1 rounds to 3 steps, but the third lands on 0.3 > 0.26, so
        # frontier targets and sweep sigmas both end at 0.2
        frontier = ["frontier", "--r-from", "0", "--r-to", "0.26", "--r-step", "0.1",
                    "--grid-step", "0.05"]
        sweep = ["sweep", "--sweep", "sigma", "--from", "0", "--to", "0.26", "--step", "0.1",
                 "--family", "exp", "--n", "10", "--iters", "20", "--algo", "exact-gap",
                 "--k", "2"]
        for argv in (frontier, sweep):
            code, out, _ = run(argv, capsys)
            assert code == 0
            assert len(out.strip().splitlines()[1:]) == 3, argv[0]

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

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate"],
            ["sweep", "--sweep", "k", "--from", "2", "--to", "3", "--step", "1"],
        ],
        ids=["simulate", "k-sweep"],
    )
    def test_sigma_with_absolute_gap_exits_2(self, command, capsys):
        # the absolute gap is predicted as given; only a sigma sweep scales it
        argv = [*command, "--family", "exp", "--n", "20", "--iters", "50",
                "--algo", "exact-gap", "--gap-value", "2", "--sigma", "0.5", "--seed", "3"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "--sigma" in err and "--gap-value" in err

    def test_sigma_sweep_over_absolute_gap_accepts_sigma(self, capsys):
        argv = ["sweep", "--sweep", "sigma", "--from", "0.5", "--to", "0.5", "--step", "1",
                "--family", "exp", "--n", "20", "--iters", "50", "--algo", "exact-gap",
                "--gap-value", "2", "--sigma", "0.5", "--k", "2", "--seed", "3"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        (row,) = out.strip().splitlines()[1:]
        assert row.split(",")[7] == "0.5"


    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--algo", "exact-gap"], "need a gap index k or an absolute gap value"),
            (["--algo", "exact-gap", "--gap-value", "2", "--tau-from-k"],
             "'from-k' needs an integer gap index k"),
            (["--algo", "exact-gap", "--gap-value", "2", "--k", ""],
             "sigma sweeps need --k"),
        ],
        ids=["index-gap", "tau-from-k", "empty-k"],
    )
    def test_sigma_sweep_without_a_needed_k_exits_2(self, flags, message, capsys):
        argv = ["sweep", "--sweep", "sigma", "--from", "0.5", "--to", "1", "--step", "0.5",
                "--family", "exp", "--n", "20", "--iters", "50", "--seed", "3", *flags]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert message in err


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

    def test_same_instances_drawn_once(self, draws, capsys):
        # the second rule on the same (family, n, iterations, seed) reuses
        # the batch the first one drew; another seed draws again
        engine.clear_memo()
        base = ["simulate", "--family", "chisq", "--n", "30", "--iters", "60", "--k", "5"]
        outs = []
        for algo, seed in (("exact-gap", "4"), ("robust", "4"), ("exact-gap", "5")):
            code, out, _ = run(base + ["--algo", algo, "--seed", seed], capsys)
            assert code == 0
            outs.append(out)
        assert len(draws) == 2
        assert [c[3] for c in draws] == [4, 5]
        # once the memo is dropped, the same command draws again, to the same bytes
        engine.clear_memo()
        assert run(base + ["--algo", "robust", "--seed", "4"], capsys)[1] == outs[1]
        assert len(draws) == 3

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

    def test_bad_seed_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-seed")
        code, out, err = run(
            ["simulate", "--family", "exp", "--n", "10", "--iters", "20", "--algo", "classical"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "not-a-seed" in err

    @pytest.mark.parametrize("value", ["abc", "1e3", " "])
    def test_seed_env_not_an_integer_names_the_variable(self, capsys, monkeypatch, value):
        # int()'s own message named neither the variable nor where it came from
        monkeypatch.setenv(cli.SEED_ENV_VAR, value)
        code, out, err = run(
            ["simulate", "--family", "exp", "--n", "10", "--iters", "20", "--algo", "classical"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: GAPSECRETARY_SEED must be an integer seed, got {value!r}\n"

    def test_seed_env_run_replays_without_it(self, tmp_path, capsys, monkeypatch):
        out_path = tmp_path / "run.csv"
        monkeypatch.setenv(cli.SEED_ENV_VAR, "5")
        argv = ["simulate", "--family", "exp", "--n", "20", "--iters", "200",
                "--algo", "classical", "--out", str(out_path)]
        assert cli.main(argv) == 0
        original = out_path.read_bytes()
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        out_path.unlink()
        assert cli.replay_manifest(str(out_path) + ".manifest.json") == 0
        assert out_path.read_bytes() == original
        capsys.readouterr()

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

    def test_bounded_epsilon_above_gap_on_tiny_weights(self, tmp_path, capsys):
        # weights near e^-800 rescale the raw gap 1 and epsilon 2 to inf each;
        # the term max(1 - 2, 0) is 0, so bounded is the classical rule
        rng = np.random.default_rng(5)
        profiles = [WeightProfile(np.log(rng.random(20)) - 800.0) for _ in range(50)]
        replay = tmp_path / "tiny.txt"
        save_profiles(replay, profiles)
        common = ["simulate", "--profiles-file", str(replay), "--iters", "50", "--tau", "0.3"]
        bounded = ["--algo", "bounded", "--gap-value", "1", "--epsilon", "2"]
        _, out_b, _ = run(common + bounded, capsys)
        _, out_c, _ = run(common + ["--algo", "classical"], capsys)
        estimate = slice(11, None)  # ratio_mean, ratio_stderr, select_best_prob, none_prob
        row_b, row_c = (o.strip().splitlines()[1].split(",") for o in (out_b, out_c))
        assert row_b[estimate] == row_c[estimate]
        assert float(row_c[14]) < 1.0

        spec = AlgorithmSpec("bounded", tau=0.3, epsilon=2.0)
        got = simulate_fixed_profile(profiles[0], spec, 500, 7, gap_values=1.0)
        ref = simulate_fixed_profile(profiles[0], replace(spec, tag="classical"), 500, 7)
        assert sorted(got) == sorted(ref)
        for key in ref:
            assert np.array_equal(got[key], ref[key], equal_nan=True), key
        assert not got["none"].all()


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

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        algo=st.sampled_from(cli.ALGORITHM_TAGS),
        sweep=st.one_of(
            st.tuples(st.integers(2, 6), st.integers(0, 4), st.integers(1, 3)).map(
                lambda t: ["k", t[0], min(6, t[0] + t[1]), t[2]]
            ),
            st.tuples(st.sampled_from([0, 0.5]), st.sampled_from([0, 0.5, 1]),
                      st.sampled_from([0.5, 1])).map(lambda t: ["sigma", t[0], t[0] + t[1], t[2]]),
        ),
        ks=st.one_of(
            st.just("unknown"),
            st.lists(st.integers(2, 6), min_size=1, max_size=3).map(lambda ks: ",".join(map(str, ks))),
        ),
        policy=st.sampled_from(["fixed", "min", "from-k"]),
        gap_value=st.sampled_from([[], ["--gap-value", "2"]]),
    )
    def test_sweep_never_writes_a_swept_row_twice(self, algo, sweep, ks, policy, gap_value):
        kind, lo, hi, step = sweep
        argv = ["sweep", "--sweep", kind, "--from", str(lo), "--to", str(hi), "--step", str(step),
                "--k", ks, "--tau-policy", policy, *gap_value, "--family", "exp", "--n", "6",
                "--iters", "5", "--algo", algo, "--seed", "1"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 2)
        if code == 0:
            # the classical baseline rows of a k sweep repeat one estimate on purpose
            swept = [line.split(",")[:11] for line in out.getvalue().splitlines()[1:]]
            swept = [tuple(row) for row in swept if row[1] == algo]
            assert len(set(swept)) == len(swept)

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

    @pytest.mark.parametrize(
        "gap", [["--algo", "exact-gap", "--gap-value", "2"], ["--algo", "l-select"]],
        ids=["absolute-gap", "l-select"],
    )
    def test_index_free_sigma_sweep_needs_no_k(self, gap, capsys):
        # neither gap reads an index: the rows leave k empty and estimate
        # what the rows of a sweep at a dummy --k 2 do
        argv = ["sweep", "--sweep", "sigma", "--from", "0.5", "--to", "1", "--step", "0.5",
                "--family", "exp", "--n", "20", "--iters", "50", "--seed", "3", *gap]
        code, out, _ = run(argv, capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        code, out, _ = run([*argv, "--k", "2"], capsys)
        assert code == 0
        with_k = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 2
        assert [row[4] for row in rows] == ["", ""]
        assert [row[:4] + row[5:] for row in rows] == [row[:4] + row[5:] for row in with_k]

    @pytest.mark.parametrize(
        ("sweep", "policy", "row"),
        [
            (K_SWEEP_2_3, ["--tau-from-k"], 0),
            (K_SWEEP_2_3, ["--tau-policy", "min"], 0),
            (["--sweep", "sigma", "--from", "0.5", "--to", "1", "--step", "0.5", "--k", "2,3"],
             ["--tau-from-k"], 1),
        ],
        ids=["k-from-k", "k-min", "sigma-from-k"],
    )
    def test_rule_checked_at_the_tau_each_cell_runs(self, sweep, policy, row, capsys):
        # the rule was built at --tau 0.5, which no cell runs: gamma 0.52 left
        # no room below 1 - 0.5 and the sweep exited 2, while every cell's
        # tuned tau (0.423 at k = 2) leaves it room
        common = ["--family", "exp", "--n", "20", "--iters", "50", "--algo", "robust",
                  "--tau", "0.5", "--gamma", "0.52", *policy, "--seed", "1"]
        code, out, err = run(["sweep", *sweep, *common], capsys)
        assert (code, err) == (0, "")
        header, *rows = out.strip().splitlines()
        # row is the k = 2 row at sigma 1
        code, single, _ = run(["simulate", "--k", "2", *common], capsys)
        assert code == 0
        assert single.strip().splitlines() == [header, rows[row]]

    def test_rule_still_refused_at_the_largest_tau(self, capsys):
        # k = 2's tuned tau of 0.423 leaves gamma below 0.577, not 0.6
        argv = ["sweep", *K_SWEEP_2_3, "--family", "exp", "--n", "20", "--iters", "50", "--algo", "robust",
                "--tau", "0.5", "--gamma", "0.6", "--tau-from-k", "--seed", "1"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert "gamma must lie in [0, 1 - tau)" in err

    def test_min_policy_rows_equal_simulate_whatever_the_k_order(self, capsys):
        # each k's tau is min(--tau, tuned tau at k); a rule built at the
        # first k's tau would cap k = 2 at k = 5's
        common = ["--family", "exp", "--n", "20", "--iters", "50", "--algo", "exact-gap",
                  "--tau", "0.5", "--tau-policy", "min", "--seed", "1"]
        code, out, _ = run(["sweep", "--sweep", "sigma", "--from", "1", "--to", "1",
                            "--step", "1", "--k", "5,2", *common], capsys)
        assert code == 0
        header, *rows = out.strip().splitlines()
        for k, row in zip(["5", "2"], rows):
            code, single, _ = run(["simulate", "--k", k, *common], capsys)
            assert code == 0
            assert single.strip().splitlines() == [header, row]

    def test_l_select_sigma_sweep_rows_equal_simulate(self, capsys):
        common = ["--family", "exp", "--n", "30", "--iters", "60", "--algo", "l-select",
                  "--L", "2", "--seed", "13"]
        code, out, _ = run(
            ["sweep", "--sweep", "sigma", "--from", "0", "--to", "1", "--step", "0.5", *common],
            capsys,
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert len(rows) == 3
        for sigma, row in zip(["0.0", "0.5", "1.0"], rows):
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--which", "exact", "--tau", "1e-320", "--k", "2"],
            ["bounds", "--which", "bounded", "--tau", "1e-320", "--k", "3"],
            ["bounds", "--which", "rc", "--tau", "1e-320", "--gamma", "0.5"],
            ["bounds", "--which", "tie23", "--tau", "1e-320"],
        ],
        ids=["exact", "bounded", "rc", "tie23"],
    )
    def test_tau_whose_reciprocal_overflows_exits_2(self, argv, capsys):
        # ln(1/tau) is inf: exact printed alpha 1.0 and tie23 Infinity
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert "1/tau must be finite" in err

    @pytest.mark.parametrize(
        "argv,limit",
        [
            (["bounds", "--which", "exact", "--k", "{huge}"], "k"),
            (["bounds", "--which", "exact", "--k", str(10**18)], "k"),
            (["bounds", "--which", "rc", "--k", "{huge}"], "k"),
            (["bounds", "--which", "lselect", "--L", "{huge}", "--beta", "0"], "L"),
            (["frontier", "--k-aggregation", "{huge}"], "k"),
            (["simulate", "--family", "exp", "--n", "5", "--iters", "5", "--algo", "exact-gap",
              "--k", "{huge}", "--tau-from-k"], "k"),
        ],
        ids=["exact", "exact-tuned-tau-0", "rc", "lselect", "frontier", "simulate-tau-from-k"],
    )
    def test_index_above_the_limit_exits_2(self, argv, limit, capsys):
        # 10^400 is no float: these exited 1 with an OverflowError
        argv = [a.format(huge=10**400) for a in argv]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert f"{limit} must be an integer in [2, {2**53}]" in err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_bounded_epsilon_must_be_finite_and_non_negative(self, epsilon, capsys):
        # a NaN loss is not valid JSON, and a negative one would be a gain
        argv = ["bounds", "--which", "bounded", "--k", "2", f"--epsilon={epsilon}"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "--epsilon must be finite and non-negative" in err

    @pytest.mark.parametrize("epsilon", [None, 0.25])
    def test_bounded_report(self, epsilon, capsys):
        argv = ["bounds", "--which", "bounded", "--tau", "0.2", "--k", "5"]
        if epsilon is not None:
            argv += ["--epsilon", str(epsilon)]
        code, out, _ = run(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == alpha_exact(0.2, 5).alpha
        assert payload["penalty_form"] == "alpha * w1 - 2 * epsilon"
        if epsilon is None:
            assert "additive_loss" not in payload and "epsilon" not in payload
        else:
            assert payload["additive_loss"] == 2 * epsilon

    def test_tie23_exact_n(self, capsys):
        code, out, _ = run(["bounds", "--which", "tie23", "--tau", "0.359", "--n", "200"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 200
        assert payload["exact_value_at_n"] == two_three_tie_prob(0.359, n=200)

    @pytest.mark.parametrize("L,beta", [(3, 0.2), (1000, 0.0005)])  # e**1000 overflows
    def test_lselect(self, L, beta, capsys):
        argv = ["bounds", "--which", "lselect", "--L", str(L), "--beta", str(beta)]
        code, out, _ = run(argv, capsys)
        assert code == 0
        expected = 1 / math.e + beta / (2 * math.e) * (1 - 1 / L + math.exp(-L) / L)
        assert json.loads(out)["value"] == pytest.approx(expected)

    def test_lselect_needs_beta(self, capsys):
        code, out, err = run(["bounds", "--which", "lselect", "--L", "3"], capsys)
        assert code == 2
        assert out == ""
        assert "--beta" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--which", "tie23", "--n", str(10**13)],
            ["frontier", "--grid-step", "1e-6"],
        ],
        ids=["tie23-n", "grid-step"],
    )
    def test_oversized_arrays_exit_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


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

    @pytest.mark.parametrize("agg", ["worst-case", 7])
    def test_columns_are_the_searched_bounds(self, agg, capsys):
        # the written consistency and robustness are the values the search
        # compared, and the scalar bounds at the chosen (tau, gamma)
        step = 0.001  # the default --grid-step
        flags = [] if agg == "worst-case" else ["--k-aggregation", str(agg)]
        code, out, _ = run(
            ["frontier", "--r-from", "0.008", "--r-to", "0.308", "--r-step", "0.05", *flags],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 7
        gammas = np.arange(0, round(1 / step)) * step
        for row in rows:
            assert row[5] == "true" and row[6] == str(agg)
            target, tau, gamma, cons, rob = map(float, row[:5])
            searched = tau * np.log(1.0 / (1.0 - gammas))[round(gamma / step)]
            assert cons == consistency(tau, gamma, agg).alpha
            assert rob == robustness(tau, gamma) == searched >= target

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--r-from", "0.2", "--r-to", "0.1", "--r-step", "0.1"], "--r-to must be at least --r-from"),
            (["--r-to", "inf"], "--r-from, --r-to and --r-step must be finite"),
            (["--r-from", "nan"], "--r-from, --r-to and --r-step must be finite"),
            (["--r-step", "nan"], "--r-from, --r-to and --r-step must be finite"),
            (["--r-from", "0", "--r-to", "1e300", "--r-step", "1e-300"],
             "--r-from, --r-to and --r-step give more than 100000 rows"),
            (["--r-from", "0", "--r-to", "1", "--r-step", "1e-5"],
             "--r-from, --r-to and --r-step give more than 100000 rows"),
        ],
        ids=["reversed", "r-to-inf", "r-from-nan", "r-step-nan", "count-overflows", "count-above-cap"],
    )
    def test_invalid_range(self, flags, message, capsys):
        code, _, err = run(["frontier", *flags], capsys)
        assert code == 2
        assert message in err

    def test_worst_case_spelled_out(self, capsys):
        argv = ["frontier", "--r-from", "0", "--r-to", "0.2", "--r-step", "0.1", "--grid-step", "0.01"]
        _, unknown, _ = run(argv, capsys)
        code, spelled, _ = run([*argv, "--k-aggregation", "worst-case"], capsys)
        assert code == 0
        assert spelled == unknown

    def test_frontier_manifest_replay(self, tmp_path, capsys):
        out_path = tmp_path / "frontier.csv"
        args = [
            "frontier", "--r-from", "0", "--r-to", "0.1", "--r-step", "0.05",
            "--grid-step", "0.02", "--out", str(out_path),
        ]
        assert cli.main(args) == 0
        manifest_path = tmp_path / "frontier.csv.manifest.json"
        # the grid search reads no seed
        assert json.loads(manifest_path.read_text())["master_seed"] is None
        original = out_path.read_bytes()
        out_path.unlink()
        assert cli.replay_manifest(manifest_path) == 0
        assert out_path.read_bytes() == original
        capsys.readouterr()


class TestVerify:
    def test_bounds_suite_fast(self, capsys):
        code, out, _ = run(["verify", "--suite", "bounds"], capsys)
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_bounds_suite_json(self, capsys):
        code, out, _ = run(["verify", "--suite", "bounds", "--json"], capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"name", "suite", "passed", "measured", "expected", "seconds"}
            assert row["suite"] == "bounds"
            assert row["passed"] is True
            assert isinstance(row["measured"], str) and isinstance(row["expected"], str)
            assert row["seconds"] >= 0.0
        assert "alpha-fixed-tau-floor" in {row["name"] for row in rows}


class TestEntry:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["--version"], 0),
            (["bounds", "--which", "exact", "--k", "2"], 0),
            (["bounds", "--which", "exact", "--tau", "0", "--k", "2"], 2),
            (["no-such-command"], 2),
        ],
    )
    def test_exit_code(self, argv, code, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["gapsecretary", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code
        capsys.readouterr()

    def test_internal_error_exits_1(self, monkeypatch, capsys):
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_bounds", fail)
        monkeypatch.setattr(sys, "argv", ["gapsecretary", "bounds", "--which", "exact"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 1
        assert "internal error: RuntimeError('boom')" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds its parser once per process; consecutive calls on it
    are independent of each other."""

    SIMULATE = ["simulate", "--family", "exp", "--n", "10", "--iters", "20", "--algo", "classical"]

    def test_one_parser_per_process(self, capsys):
        assert run(["bounds", "--which", "tie23"], capsys)[0] == 0
        assert cli._parser() is cli._parser()

    def test_seed_env_read_per_call(self, monkeypatch, capsys):
        seeds = []
        for value in ("3", "4", None):
            if value is None:
                monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(cli.SEED_ENV_VAR, value)
            code, out, _ = run(self.SIMULATE, capsys)
            assert code == 0
            seeds.append(out.splitlines()[1].split(",")[10])
        assert seeds == ["3", "4", "0"]
        # an explicit --seed still wins over the variable
        monkeypatch.setenv(cli.SEED_ENV_VAR, "5")
        assert run(self.SIMULATE + ["--seed", "6"], capsys)[1].splitlines()[1].split(",")[10] == "6"

    def test_usage_error_then_valid_call(self, capsys):
        code, _, err = run(["simulate", "--family", "exp"], capsys)  # --algo is required
        assert code == 2 and "--algo" in err
        code, _, err = run(["simulate", "--family", "exp", "--algo", "nope"], capsys)
        assert code == 2 and "invalid choice" in err
        code, out, _ = run(self.SIMULATE + ["--seed", "1"], capsys)
        assert code == 0 and out.splitlines()[1].startswith("exp,classical,10,20,")
        # the failed calls left no flag behind: the defaults are back
        code, out, _ = run(["simulate", "--family", "exp", "--algo", "classical", "--iters", "7"], capsys)
        assert code == 0 and out.splitlines()[1].startswith("exp,classical,200,7,")

    def test_version_between_calls(self, capsys):
        for _ in range(2):
            code, out, _ = run(["--version"], capsys)
            assert code == 0 and out.strip() == f"gapsecretary {cli.__version__}"
            assert run(["bounds", "--which", "tie23"], capsys)[0] == 0
