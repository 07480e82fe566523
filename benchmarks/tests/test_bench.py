"""Self-test of the benchmark: result schema in smoke mode, metric names
against BENCHMARK.json, and the correctness gate on a perturbed K.

    python3 -m pytest benchmarks/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import plans  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last), proc.stdout


def test_spec_matches_run_py():
    assert [w["name"] for w in SPEC["workloads"]] == list(plans.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_all_workloads(trace):
    code, result, stdout = _bench("--workload", "all", "--smoke", "--seconds", "1",
                                  "--trace", str(trace))
    assert code == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    expected = {f"{w}.{n}" for w in plans.WORKLOADS for n in names}
    assert set(result["metrics"]) == expected
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))
    for w in plans.WORKLOADS:
        assert f"{w} seed=0 trace={trace}:" in stdout
        assert "failed_ratio=0.0" in stdout


def test_single_workload_prints_plain_names():
    code, result, _ = _bench("--workload", "spectrum_reports", "--smoke", "--seconds", "1",
                             "--seed", "7")
    assert code == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END_UNITS)


def _fake_result(workload, reference, k_scale=1.0):
    records = []
    for i, pt in enumerate(reference[workload]["points"]):
        rec = dict(pt, error="", omega_K=pt["omega"] * pt["K"])
        if i == 0:
            rec["K"] *= k_scale
        records.append(rec)
    return {"workload": workload, "seed": 0, "smoke": False, "env": {},
            "sentinel": {"K": 1.0, "K_dense": 1.0, "lambda_min": 1.0,
                         "lambda_min_dense": 1.0},
            "reps": [{"wall_s": 1.0, "cpu_s": 1.0, "outputs": records}],
            "traced": None, "layers": None, "peak_rss_mb": 1.0,
            "setup_samples": [0.5]}


def test_gate_passes_reference_and_flags_perturbed_k():
    reference = gates.load_reference()
    for workload in ("theorem_sweep", "orth_zero"):
        ok = gates.check(workload, {workload: _fake_result(workload, reference)}, reference)
        assert ok.failed == 0, ok.problems()
        bad = gates.check(workload, {workload: _fake_result(workload, reference, 0.9)},
                          reference)
        assert bad.failed >= 1
        assert any("K=" in msg for msg in bad.problems())


def test_gate_flags_k_below_counterexample_bound_at_any_seed():
    reference = gates.load_reference()
    fake = _fake_result("theorem_sweep", reference, k_scale=0.1)
    gate = gates.check("theorem_sweep", {"theorem_sweep": fake}, None)
    assert gate.failed == 1
    assert "below counterexample lower bound" in gate.problems()[0]


def test_run_exits_nonzero_on_gate_failure(monkeypatch, capsys, tmp_path):
    reference = gates.load_reference()
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "run_workload",
                        lambda w, args: _fake_result(w, reference, 0.9))
    assert run.main(["--workload", "theorem_sweep", "--seed", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1


def test_runs_nowhere_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    dst = tmp_path / "benchmarks"
    dst.mkdir()
    for f in BENCH.glob("*.py"):
        (dst / f.name).write_text(f.read_text())
    (dst / "reference.json").write_text((BENCH / "reference.json").read_text())
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "orth_zero",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_union_of_overlapping_children():
    def span(sid, parent, start, end):
        return {"id": sid, "parent": parent, "start": start, "end": end}
    # two pool-thread children overlap each other and run past the parent
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 6.0), span(3, 1, 4.0, 12.0),
             span(4, 2, 2.0, 3.0)]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 1.0, 2: 4.0, 3: 8.0, 4: 1.0}
