import json
import os

import pytest

from segkernel import invertibility
from segkernel.cli import main
from segkernel.errors import NoConvergence
from segkernel.invertibility import SweepPoint, run_sweep, smallest_eigenvalue
from segkernel.operator1d import Grid, assemble
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
        assert files == ["profile_T12_N1201_tol1e-09.bin"]
        table = load_profile(os.path.join(cache_dir, files[0]))
        assert table.n_nodes == 1201

    def test_cache_changes_no_output(self, tmp_path, monkeypatch):
        # eig and sweep on a table read from the cache write the bytes they
        # write on one solved in the process
        monkeypatch.delenv("SEGKERNEL_CACHE", raising=False)
        cache = str(tmp_path / "cache")
        profile = ["--T", "12", "--N-profile", "1201", "--newton-tol", "1e-9"]
        assert main(["profile", *profile, "--out", cache]) == 0
        for argv in (["eig", "--omega", "0,0.3", "--R", "10", "--N", "201"],
                     ["sweep", "--omega", "0,0.2", "--R", "10", "--N", "201",
                      "--orth-mode", "one", "--method", "estimated"]):
            cached, solved = tmp_path / "cached.csv", tmp_path / "solved.csv"
            assert main([*argv, *profile, "--cache-dir", cache, "--out", str(cached)]) == 0
            assert main([*argv, *profile, "--out", str(solved)]) == 0
            assert cached.read_bytes() == solved.read_bytes()
        assert os.listdir(cache) == ["profile_T12_N1201_tol1e-09.bin"]

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

    def test_constrained_estimate_rows_are_exact_rows(self, cache_dir, tmp_path):
        # --method estimated prints exact K: only the method column differs
        rows = {}
        for method in ("exact", "estimated"):
            out = tmp_path / f"{method}.csv"
            assert main(["sweep", *common_args(cache_dir), "--theta", "0.5",
                         "--omega", "0,0.05", "--R", "20,40", "--orth-mode", "one",
                         "--method", method, "--out", str(out)]) == 0
            lines = [l.split(",") for l in read_lines(out) if not l.startswith("#")]
            assert all(l[4] == method for l in lines[1:])
            rows[method] = [l[:4] + l[5:] for l in lines]
        assert len(rows["exact"]) == 5 and rows["estimated"] == rows["exact"]

    def test_seed_changes_no_row(self, cache_dir, tmp_path):
        rows = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}.csv"
            assert main(["sweep", *common_args(cache_dir), "--theta", "0.5",
                         "--omega", "0,0.05", "--R", "20", "--orth-mode", "two",
                         "--method", "estimated", "--seed", seed, "--out", str(out)]) == 0
            lines = read_lines(out)
            assert f"# seed={seed}" in lines
            rows.append([l for l in lines if not l.startswith("#")])
        assert len(rows[0]) == 3 and rows[0] == rows[1]

    def test_orth_mode(self, cache_dir, tmp_path):
        out = tmp_path / "orth.csv"
        code = main(["sweep", *common_args(cache_dir), "--theta", "0.5",
                     "--omega", "0", "--R", "20", "--N", "801",
                     "--orth-mode", "one", "--out", str(out)])
        assert code == 0
        row = [l for l in read_lines(out) if not l.startswith("#")][1]
        assert row.split(",")[5] == "one"

    @pytest.mark.parametrize("point", [
        ["--theta", "1.5", "--omega", "0.2", "--omegaR", "10", "--N", "801"],
        ["--omega", "1", "--R", "2", "--N", "401"],
    ], ids=["theta-above-one", "R-below-e"])
    def test_counterexample_bound_undefined(self, cache_dir, tmp_path, capsys, point):
        # K and lambda_min are computed; the construction needs 0 < theta < 1
        # and R > e, so its bound is nan, as for omega * R < 1: no error
        out = tmp_path / "undefined.csv"
        code = main(["sweep", *common_args(cache_dir), *point, "--out", str(out)])
        assert code == 0
        assert "error" not in capsys.readouterr().err
        row = [l for l in read_lines(out) if not l.startswith("#")][1].split(",")
        assert float(row[6]) > 0 and float(row[9]) > 0      # K, lambda_min
        assert row[10] == "nan"

    def test_eigenvalue_failure_exit_code_with_rows_written(self, cache_dir, tmp_path,
                                                           capsys, monkeypatch):
        # two inverse-iteration steps cannot converge: each row reports its
        # error and is still written, with K and the last Rayleigh quotient
        monkeypatch.setattr(invertibility, "EIG_MAX_ITERS", 2)
        out = tmp_path / "fail.csv"
        code = main(["sweep", *common_args(cache_dir), "--omega", "0.2,0.1",
                     "--R", "10", "--N", "401", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert [l.split(": NoConvergence: ")[0] for l in err] == [
            "error at omega=0.2, R=10.0", "error at omega=0.1, R=10.0"]
        rows = [l.split(",") for l in read_lines(out) if not l.startswith("#")][1:]
        assert [(r[1], r[2]) for r in rows] == [("0.2", "10.0"), ("0.1", "10.0")]
        table = load_profile(os.path.join(cache_dir, os.listdir(cache_dir)[0]))
        for row in rows:
            with pytest.raises(NoConvergence) as exc:
                smallest_eigenvalue(assemble(table, float(row[1]), Grid(10.0, 401)))
            assert float(row[6]) > 0 and float(row[9]) == exc.value.last_value


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


    def test_rows_share_lambda_zero(self, cache_dir, tmp_path, monkeypatch):
        # one lambda_min iteration per R; every omega > 0 row is the
        # omega = 0 row plus omega^2 to the bit, as smallest_eigenvalue and
        # the sweep give it
        sizes = []
        iterate = invertibility._certified_eigenvalue

        def counting(op):
            sizes.append(op.n_unknowns)
            return iterate(op)

        monkeypatch.setattr(invertibility, "_certified_eigenvalue", counting)
        out = tmp_path / "eig.csv"
        code = main(["eig", *common_args(cache_dir), "--omega", "0,0.05,0.3",
                     "--R", "40,160", "--out", str(out)])
        assert code == 0
        assert len(sizes) == 2
        lines = [l for l in read_lines(out) if not l.startswith("#")]
        assert lines[0] == "omega,R,N,lambda_min"
        rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
        assert len(rows) == 6
        base = {r_val: lam for om, r_val, _, lam in rows if om == 0.0}
        table = load_profile(os.path.join(cache_dir, os.listdir(cache_dir)[0]))
        shifted = [row for row in rows if row[0] > 0.0]
        recs = run_sweep(table, [SweepPoint(theta=0.5, omega=om, R=r_val, N=int(n))
                                 for om, r_val, n, _ in shifted])
        for (om, r_val, n, lam), rec in zip(shifted, recs):
            assert lam == base[r_val] + om * om
            assert lam == smallest_eigenvalue(assemble(table, om, Grid(r_val, int(n))))
            assert lam == rec.lambda_min

    def test_lambda_zero_once_per_grid_whatever_its_sign(self, cache_dir, tmp_path,
                                                          monkeypatch):
        # lambda(0) < 0 at R = 400 on N = 4001: the omega = 0 row is refused
        # and the omega > 0 rows come from the same certified pair
        calls = []
        iterate = invertibility._certified_eigenvalue

        def counting(op):
            calls.append(op.grid)
            return iterate(op)

        monkeypatch.setattr(invertibility, "_certified_eigenvalue", counting)
        out = tmp_path / "eig.csv"
        assert main(["eig", *common_args(cache_dir), "--omega", "0,0.1,0.2",
                     "--R", "400", "--N", "4001", "--out", str(out)]) == 2
        assert calls == [Grid(400.0, 4001)]
        rows = [l.split(",") for l in read_lines(out) if not l.startswith("#")][1:]
        assert [float(r[0]) for r in rows] == [0.1, 0.2]

    def test_eig_assembles_once_per_grid(self, cache_dir, tmp_path, monkeypatch):
        # every row as from its own operator, with one assemble per grid
        from segkernel import cli
        calls = []

        def counting(table, omega, grid):
            calls.append(grid)
            return assemble(table, omega, grid)

        monkeypatch.setattr(cli, "assemble", counting)
        out = tmp_path / "eig.csv"
        assert main(["eig", *common_args(cache_dir), "--omega", "0.3,0,0.1",
                     "--R", "10,20", "--N", "201", "--out", str(out)]) == 0
        assert calls == [Grid(10.0, 201), Grid(20.0, 201)]
        table = load_profile(os.path.join(cache_dir, os.listdir(cache_dir)[0]))
        rows = [l.split(",") for l in read_lines(out) if not l.startswith("#")][1:]
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (om, r_val) for om in (0.3, 0.0, 0.1) for r_val in (10.0, 20.0)]
        for om, r_val, n, lam in rows:
            op = assemble(table, float(om), Grid(float(r_val), int(n)))
            assert float(lam) == smallest_eigenvalue(op)

    def test_eigenvalue_failure_exit_code(self, cache_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(invertibility, "EIG_MAX_ITERS", 2)
        out = tmp_path / "fail.csv"
        code = main(["eig", *common_args(cache_dir), "--omega", "0,0.1",
                     "--R", "10", "--N", "401", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert [l.split(": eigenvalue iteration hit 2 iterations")[0] for l in err] == [
            "error at omega=0.0, R=10.0", "error at omega=0.1, R=10.0"]
        assert [l for l in read_lines(out) if not l.startswith("#")] == [
            "omega,R,N,lambda_min"]


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
        # and so does a flag written --key=value
        assert main(["--config", str(path), f"--out={tmp_path / 'o3.csv'}",
                     "--theta=0.6"]) == 0
        assert "# theta=0.6" in read_lines(tmp_path / "o3.csv")

    @pytest.fixture
    def eig_config(self, cache_dir, tmp_path):
        cfg = {
            "command": "eig", "omega": "0.1", "R": "10", "N": 201, "T": 12,
            "N-profile": 1201, "newton-tol": 1e-9, "cache-dir": cache_dir, "out": "-",
        }
        path = tmp_path / "eig.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_config_equals_path(self, eig_config, capsys):
        assert main(["--config", str(eig_config)]) == 0
        want = capsys.readouterr().out
        assert "# omega=0.1" in want.splitlines()
        assert main([f"--config={eig_config}"]) == 0
        assert capsys.readouterr().out == want

    def test_equals_flags_override_config(self, eig_config, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["--config", str(eig_config), f"--out={out}", "--omega=0.3"]) == 0
        assert capsys.readouterr().out == ""
        assert "# omega=0.3" in read_lines(out)

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
            # only sweep takes --seed, which changes no number
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

    @pytest.mark.parametrize("text", ["[1]", '"x"', "3", "null"])
    def test_config_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: config file must hold a JSON object\n"

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
        (["sweep", "--omega", "0.2", "--R", "50", "--N", "4000"], "--N"),
        (["sweep", "--omega", ",", "--R", "10"], "--omega"),
        (["eig", "--omega", ",", "--R", "10"], "--omega"),
        (["eig", "--omega", "0.1", "--R", ","], "--R"),
        (["counterexample", "--R", ","], "--R"),
        (["solve", "--N", ","], "--N"),
        (["sweep", "--omega", "abc", "--R", "10"], "--omega"),
        (["eig", "--omega", "0.1", "--R", "x"], "--R"),
        (["counterexample", "--R", "5x"], "--R"),
        (["solve", "--N", "801,abc"], "--N"),
        # a spacing whose 1/h^4 overflows, and an omega whose square does
        (["solve", "--R", "1e-300"], "--R"),
        (["eig", "--omega", "0.1", "--R", "1e-300"], "--R"),
        (["sweep", "--omega", "0.1", "--R", "1e-160"], "--R"),
        (["sweep", "--omega", "0.1", "--R", "1e-150"], "--R"),
        (["eig", "--omega", "0.1", "--R", "10", "--N", str(10 ** 80)], "--N"),
        (["eig", "--omega", "1e160", "--R", "10"], "--omega"),
        (["sweep", "--omega", "1e200", "--R", "10"], "--omega"),
        (["solve", "--omega", "1e200"], "--omega"),
    ], ids=["eig-omega-nan", "eig-R-nan", "eig-R-negative", "solve-omega-nan",
            "solve-R-inf", "solve-theta-0", "counterexample-R-nan",
            "counterexample-theta-nan", "solve-N-nan", "solve-N-3",
            "solve-N-even", "solve-N-decreasing", "solve-N-fraction",
            "sweep-N-3", "eig-N-3", "counterexample-N-3", "counterexample-N-even",
            "eig-T-inf", "eig-T-nan", "profile-T-6", "sweep-N-profile-3",
            "sweep-N-profile-even", "solve-newton-tol-nan",
            "counterexample-newton-tol-0", "profile-newton-tol-nan",
            "sweep-omegaR-with-R", "sweep-N-even", "sweep-omega-empty",
            "eig-omega-empty", "eig-R-empty", "counterexample-R-empty",
            "solve-N-empty", "sweep-omega-text", "eig-R-text",
            "counterexample-R-text", "solve-N-text", "solve-h-tiny", "eig-h-tiny",
            "sweep-h-underflows", "sweep-h-tiny", "eig-N-huge", "eig-omega-huge",
            "sweep-omega-huge", "solve-omega-huge"])
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

    @pytest.mark.parametrize("argv", [
        ["eig", "--omega", "0", "--R", "1e15"],
        ["sweep", "--omega", "0", "--R", "1e15"],
        ["counterexample", "--R", "1e15"],
    ], ids=["eig", "sweep", "counterexample"])
    def test_grid_too_large_to_allocate(self, cache_dir, capsys, argv):
        # 8e16 nodes: numpy refuses the node array at once, allocating nothing
        code = main([argv[0], *common_args(cache_dir), *argv[1:], "--out", "-"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and "allocate" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--omega", "0.1", "--R", "1e308"],
        ["eig", "--omega", "0", "--R", "1e308"],
        ["counterexample", "--R", "1e308"],
        ["sweep", "--omega", "1e-308", "--omegaR", "10"],
    ], ids=["sweep-R", "eig", "counterexample", "sweep-omegaR"])
    def test_default_node_count_overflow(self, cache_dir, capsys, argv):
        # 80 R + 1 is not finite (at omega = 1e-308, R = omegaR / omega is inf)
        code = main([argv[0], *common_args(cache_dir), *argv[1:], "--out", "-"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err and "node count" in err

    def test_trailing_config_flag(self, capsys):
        assert main(["sweep", "--config"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--config" in err

    def test_unwritable_output(self, cache_dir):
        code = main(["solve", *common_args(cache_dir), "--omega", "0.5",
                     "--R", "20", "--N", "401,801",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == 1
