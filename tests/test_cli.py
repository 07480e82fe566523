import json
import os

import pytest

from segkernel.cli import main
from segkernel.profile import load_profile


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """Small shared profile cache so CLI runs stay quick."""
    d = tmp_path_factory.mktemp("cache")
    code = main([
        "profile", "--T", "12", "--N-profile", "1201",
        "--newton-tol", "1e-9", "--out", str(d),
    ])
    assert code == 0
    return str(d)


def common_args(cache_dir):
    return ["--T", "12", "--N-profile", "1201", "--newton-tol", "1e-9",
            "--cache-dir", cache_dir]


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


class TestProfileCommand:
    def test_cache_written_and_loadable(self, cache_dir, capsys):
        files = os.listdir(cache_dir)
        assert files == ["profile_T12_N1201_tol1e-09.txt"]
        table = load_profile(os.path.join(cache_dir, files[0]))
        assert table.n_nodes == 1201

    def test_prints_constants(self, tmp_path, capsys):
        code = main(["profile", "--T", "12", "--N-profile", "1201",
                     "--newton-tol", "1e-9", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# segkernel v1")
        assert any(line.startswith("A=") for line in out.splitlines())
        assert any(line.startswith("B=") for line in out.splitlines())


class TestSolveCommand:
    def test_report(self, cache_dir, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(["solve", *common_args(cache_dir),
                     "--omega", "0.5", "--R", "20", "--N", "401,801",
                     "--out", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "# segkernel v1"
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "N,error,order"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 2
        order = float(rows[1].split(",")[2])
        assert 1.8 <= order <= 2.2


class TestCounterexampleCommand:
    def test_rows_and_columns(self, cache_dir, tmp_path):
        out = tmp_path / "ce.csv"
        code = main(["counterexample", *common_args(cache_dir),
                     "--theta", "0.5", "--R", "50,100", "--out", str(out)])
        assert code == 0
        lines = [l for l in read_lines(out) if not l.startswith("#")]
        assert lines[0].split(",") == [
            "theta", "alpha", "R", "omega", "N", "r", "phi1_at_0",
            "phi2_at_0", "dev_from_profile_derivative", "resolution_ok",
        ]
        assert len(lines) == 3
        assert all(row.endswith("true") for row in lines[1:])

    def test_numerical_failure_exit_code_with_row_written(self, cache_dir, tmp_path):
        out = tmp_path / "ce_bad.csv"
        code = main(["counterexample", *common_args(cache_dir),
                     "--theta", "0.5", "--R", "50", "--N", "401",
                     "--out", str(out)])
        assert code == 2
        rows = [l for l in read_lines(out) if not l.startswith("#")][1:]
        assert len(rows) == 1
        assert rows[0].endswith("false")


class TestSweepCommand:
    def test_cartesian_plan_size(self, cache_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", *common_args(cache_dir),
                     "--theta", "0.5", "--omega", "0.2,0.4",
                     "--omegaR", "4,8", "--N", "801", "--out", str(out)])
        assert code == 0
        rows = [l for l in read_lines(out) if not l.startswith("#")][1:]
        assert len(rows) == 4

    def test_byte_determinism(self, cache_dir, tmp_path):
        args = ["sweep", *common_args(cache_dir), "--theta", "0.5",
                "--omega", "0,0.2", "--R", "20", "--N", "801", "--seed", "42"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_estimated_method(self, cache_dir, tmp_path):
        out = tmp_path / "est.csv"
        code = main(["sweep", *common_args(cache_dir), "--theta", "0.5",
                     "--omega", "0.3", "--R", "15", "--N", "601",
                     "--method", "estimated", "--out", str(out)])
        assert code == 0
        row = [l for l in read_lines(out) if not l.startswith("#")][1]
        assert row.split(",")[4] == "estimated"

    def test_orth_mode(self, cache_dir, tmp_path):
        out = tmp_path / "orth.csv"
        code = main(["sweep", *common_args(cache_dir), "--theta", "0.5",
                     "--omega", "0", "--R", "20", "--N", "801",
                     "--orth-mode", "one", "--out", str(out)])
        assert code == 0
        row = [l for l in read_lines(out) if not l.startswith("#")][1]
        assert row.split(",")[5] == "one"


class TestEigCommand:
    def test_table(self, cache_dir, tmp_path):
        out = tmp_path / "eig.csv"
        code = main(["eig", *common_args(cache_dir), "--omega", "0.1,0.3",
                     "--R", "20", "--N", "801", "--out", str(out)])
        assert code == 0
        rows = [l for l in read_lines(out) if not l.startswith("#")][1:]
        assert len(rows) == 2
        lam01 = float(rows[0].split(",")[3])
        lam03 = float(rows[1].split(",")[3])
        assert abs((lam03 - lam01) - 0.08) <= 1e-10


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, cache_dir, tmp_path):
        cfg = {
            "command": "sweep", "theta": 0.5, "omega": "0.2", "R": "15",
            "N": 601, "T": 12, "N-profile": 1201, "newton-tol": 1e-9,
            "cache-dir": cache_dir, "out": str(tmp_path / "cfg.csv"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path)]) == 0
        lines = read_lines(tmp_path / "cfg.csv")
        assert any(l == "# theta=0.5" for l in lines)
        # flag overrides the file
        assert main(["--config", str(path), "--out", str(tmp_path / "o2.csv"),
                     "--theta", "0.6"]) == 0
        lines2 = read_lines(tmp_path / "o2.csv")
        assert any(l == "# theta=0.6" for l in lines2)

    def test_usage_errors(self, cache_dir, tmp_path, capsys):
        out = ["--out", str(tmp_path / "x.csv")]
        sweep = ["sweep", *common_args(cache_dir), "--omega", "0.2", "--R", "15"]
        for argv in (
            [],
            ["sweep", *common_args(cache_dir), "--theta", "0.5", "--omega", "0.2", *out],
            ["--config", "/nonexistent.json"],
            [*sweep, "--bogus", "2", *out],
            [*sweep, "--jobs", "2", *out],
            sweep,                                  # no --out
            [*sweep, "--orth-mode", "three", *out],
            [*sweep, "--N-profile", "abc", *out],
            # --seed seeds the constrained estimate, so only sweep takes it
            ["eig", *common_args(cache_dir), "--omega", "0.1", "--R", "10",
             "--seed", "1", *out],
            ["solve", *common_args(cache_dir), "--seed", "1", *out],
            ["counterexample", *common_args(cache_dir), "--R", "50", "--seed", "1", *out],
            ["profile", *common_args(cache_dir), "--seed", "1"],
        ):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 1, argv
            assert err.count("\n") == 1 and "Traceback" not in err, (argv, err)
            assert not (tmp_path / "x.csv").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["sweep", "--help"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag, value", [
        ("--R", "0"), ("--R", "20,nan"), ("--omegaR", "0"), ("--omegaR", "inf"),
        ("--omega", "nan"), ("--omega", "inf"), ("--omega", "-1"),
        ("--theta", "nan"), ("--theta", "inf"), ("--theta", "0"),
    ])
    def test_nonpositive_lengths_rejected(self, cache_dir, tmp_path, capsys,
                                          flag, value):
        # the later flag wins, so each case overrides one valid value
        code = main(["sweep", *common_args(cache_dir), "--omega", "0.2",
                     "--R", "10", flag, value, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["eig", "--omega", "nan", "--R", "10"], "--omega"),
        (["eig", "--omega", "0.1", "--R", "nan"], "--R"),
        (["eig", "--omega", "0.1", "--R", "10,-5"], "--R"),
        (["solve", "--omega", "nan"], "--omega"),
        (["solve", "--R", "inf"], "--R"),
        (["solve", "--theta", "0"], "--theta"),
        (["counterexample", "--R", "nan"], "--R"),
        (["counterexample", "--R", "50", "--theta", "nan"], "--theta"),
        (["solve", "--N", "nan"], "--N"),
        (["solve", "--N", "3,801"], "--N"),
        (["solve", "--N", "400,801"], "--N"),
        (["solve", "--N", "801,401"], "--N"),
        (["solve", "--N", "401.5"], "--N"),
        (["sweep", "--omega", "0.1", "--R", "10", "--N", "3"], "--N"),
        (["eig", "--omega", "0.1", "--R", "10", "--N", "3"], "--N"),
        (["counterexample", "--R", "50", "--N", "3"], "--N"),
        (["counterexample", "--R", "50", "--N", "800"], "--N"),
        (["eig", "--omega", "0.1", "--R", "10", "--T", "inf"], "--T"),
        (["eig", "--omega", "0.1", "--R", "10", "--T", "nan"], "--T"),
        (["profile", "--T", "6"], "--T"),
        (["sweep", "--omega", "0.1", "--R", "10", "--N-profile", "3"], "--N-profile"),
        (["sweep", "--omega", "0.1", "--R", "10", "--N-profile", "1200"], "--N-profile"),
        (["solve", "--newton-tol", "nan"], "--newton-tol"),
        (["counterexample", "--R", "50", "--newton-tol", "0"], "--newton-tol"),
        (["profile", "--newton-tol", "nan"], "--newton-tol"),
        (["sweep", "--omega", "0.2", "--omegaR", "4", "--R", "99"], "--omegaR and --R"),
    ], ids=["eig-omega-nan", "eig-R-nan", "eig-R-negative", "solve-omega-nan",
            "solve-R-inf", "solve-theta-0", "counterexample-R-nan",
            "counterexample-theta-nan", "solve-N-nan", "solve-N-3",
            "solve-N-even", "solve-N-decreasing", "solve-N-fraction",
            "sweep-N-3", "eig-N-3", "counterexample-N-3", "counterexample-N-even",
            "eig-T-inf", "eig-T-nan", "profile-T-6", "sweep-N-profile-3",
            "sweep-N-profile-even", "solve-newton-tol-nan",
            "counterexample-newton-tol-0", "profile-newton-tol-nan",
            "sweep-omegaR-with-R"])
    def test_bad_values_rejected_before_profile(self, tmp_path, capsys, argv, flag):
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "x.csv"       # for `profile`, the cache directory to write
        # the later flag wins, so the case's flags follow the valid ones
        code = main([argv[0], *common_args(str(cache)), *argv[1:], "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and flag in err and "Traceback" not in err
        assert not out.exists()
        assert list(cache.iterdir()) == []      # no profile was solved

    def test_trailing_config_flag(self, capsys):
        assert main(["sweep", "--config"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--config" in err

    def test_unwritable_output(self, cache_dir):
        code = main(["solve", *common_args(cache_dir), "--omega", "0.5",
                     "--R", "20", "--N", "401,801",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == 1
