"""segkernel benchmark: entry point.

    python3 benchmarks/run.py --workload theorem_sweep --seed 0 --seconds 20 --trace 0

Runs each workload in fresh worker processes (`worker.py`), gates the
outputs (`gates.py`) and prints one summary line per workload, then, as
the last line, one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`).  `--workload all` (the default) runs the three
workloads in turn and prefixes each metric with its workload.  The full
record of a run, environment included, goes to
`benchmarks/out/<workload>_seed<seed>_trace<t>.result.json`.

Exit codes: 0 all gates passed, 1 a gate failed (the JSON line is still
printed), 2 the benchmark could not run (no JSON line).
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import plans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 5          # fresh processes timed to profile-in-memory
DEADLINE_S = 170.0         # per workload, set-up samples included

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "invertibility.K_plain_s": "s",
    "invertibility.K_plain_self_s": "s",
    "invertibility.K_plain_cpu_util": "cpu/wall",
    "operator1d.solve_calls": "count",
    "operator1d.solve_columns": "count",
    "operator1d.solve_s": "s",
    "invertibility.solve_columns_per_unknown": "col/unknown",
    "invertibility.K_orth_s": "s",
    "invertibility.K_orth_self_s": "s",
    "norms.projector_s": "s",
    "norms.kernel_basis_s": "s",
    "invertibility.lambda_min_s": "s",
    "invertibility.lambda_min_calls": "count",
    "invertibility.lambda_min_cpu_util": "cpu/wall",
    "invertibility.K_estimate_s": "s",
    "invertibility.sweep_entry_s": "s",
    "invertibility.sweep_entries": "count",
    "invertibility.sweep_errors": "count",
    "operator1d.assemble_s": "s",
    "operator1d.factor_s": "s",
    "operator1d.factor_calls": "count",
    "operator1d.apply_s": "s",
    "counterexample.residual_s": "s",
    "counterexample.residual_calls": "count",
    "counterexample.lower_bound_s": "s",
    "profile.solve_s": "s",
    "profile.save_s": "s",
    "profile.load_s": "s",
    "profile.load_calls": "count",
    "cli.profile_s": "s",
    "cli.eig_s": "s",
    "cli.counterexample_s": "s",
    "cli.solve_s": "s",
    "cli.sweep_s": "s",
    "cli.csv_bytes": "bytes",
    "trace_overhead_s": "s",
    "trace_unaccounted_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(args: list[str], deadline: float) -> float:
    """Start a worker and wait for it to end; returns the seconds from
    start to its `ready` line (process start to profile in memory)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], deadline - t0)
            line = proc.stdout.readline() if ready else b""
            t_ready = time.perf_counter() - t0
            code = proc.wait(timeout=max(deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args} passed the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise BenchError(f"worker {args} failed (exit code {code})")
    return t_ready


def _tag(workload: str, args) -> str:
    return f"{workload}_seed{args.seed}_trace{args.trace}" + ("_smoke" if args.smoke else "")


def run_workload(workload: str, args) -> dict:
    """Set-up samples plus one measuring worker; returns its result."""
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    setup = [_spawn(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    result_path = OUT / f"{_tag(workload, args)}.worker.json"
    result_path.unlink(missing_ok=True)
    setup.append(_spawn(common + ["--trace", str(args.trace), "--result", str(result_path)],
                        deadline))
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_samples"] = setup
    return result


def git_state() -> dict:
    """Commit and dirty flag, when ROOT is itself a git work tree."""
    def git(*a):
        return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or Path(top.stdout.strip()).resolve() != ROOT:
            return {"commit": None, "dirty": None}
        commit = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"commit": commit, "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def summarize(result: dict, trace: int) -> dict:
    """Metrics of one workload: name -> (value, unit, sample count)."""
    if trace:
        return {k: (v, PER_LAYER_UNITS[k], 1) for k, v in result["layers"].items()}
    reps = result["reps"]
    return {
        "setup_s": (statistics.median(result["setup_samples"]), "s",
                    len(result["setup_samples"])),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s", len(reps)),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s", len(reps)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + plans.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny R, no reference comparison (self-test)")
    ap.add_argument("--write-reference", action="store_true",
                    help="record reference.json from this seed-0 run of all workloads")
    args = ap.parse_args(argv)
    workloads = plans.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.write_reference and (args.workload != "all" or args.seed or args.smoke):
        ap.error("--write-reference needs --workload all --seed 0 without --smoke")

    OUT.mkdir(exist_ok=True)
    results = {}
    try:
        for w in workloads:
            results[w] = run_workload(w, args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    use_reference = args.seed == 0 and not args.smoke and not args.write_reference
    reference = gates.load_reference() if use_reference else None
    if args.write_reference:
        with open(gates.REFERENCE, "w") as fh:
            json.dump(gates.reference_from(results), fh, indent=1)
            fh.write("\n")

    env = {**results[workloads[0]]["env"], **git_state(), "seed": args.seed}
    print("# env " + json.dumps(env))
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        gate = gates.check(w, results, reference)
        attempted += gate.attempted
        failed += gate.failed
        summary = summarize(results[w], args.trace)
        for msg in gate.problems():
            print(f"# FAIL {w}: {msg}")
        for msg in gate.known:
            print(f"# KNOWN DEFECT {w}: {msg}")
        parts = [f"{name}={v!r} {unit} (n={n})" for name, (v, unit, n) in summary.items()]
        parts.append(f"failed_ratio={gate.failed / gate.attempted!r} "
                     f"({gate.failed}/{gate.attempted})")
        print(f"{w} seed={args.seed} trace={args.trace}: " + " ".join(parts))
        prefix = "" if len(workloads) == 1 else f"{w}."
        for name, (v, unit, _) in summary.items():
            metrics[prefix + name] = {"value": v, "unit": unit}
        record = {"env": env, "metrics": summary, "attempted": gate.attempted,
                  "failed": gate.failed, "problems": gate.problems(), "known_defects": gate.known,
                  "result": results[w]}
        with open(OUT / f"{_tag(w, args)}.result.json", "w") as fh:
            json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
