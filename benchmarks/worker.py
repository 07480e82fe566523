"""One workload in one fresh process.

Started by `run.py`.  Prints `ready` once the default profile table is in
memory (the parent times process start to that line as `setup_s`), runs
the dense-oracle sentinel, then repeats the workload's plan for the given
number of seconds and writes every measurement and output to the result
file.  With `--trace 1` it adds one traced run of the plan after the
untraced ones and reduces the spans to per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import segkernel as sk  # noqa: E402
from segkernel import cli  # noqa: E402

import plans  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

PROFILE_ARGS = dict(T=12.0, N=4801, newton_tol=1e-10)
SENTINEL = dict(R=10.0, N=201, omega=0.3, theta=0.5)


def _check_source():
    """Refuse to measure a segkernel that is not this checkout's."""
    here = Path(sk.__file__).resolve()
    if SRC.resolve() not in here.parents:
        sys.exit(f"segkernel imported from {here}, not from {SRC}")


def sentinel(table) -> dict:
    """Exact K and lambda_min at R = 10, N = 201 against a dense matrix
    assembled here, entry by entry, from the profile values."""
    grid = sk.Grid(SENTINEL["R"], SENTINEL["N"])
    omega, theta = SENTINEL["omega"], SENTINEL["theta"]
    op = sk.assemble(table, omega, grid)
    k = sk.inv_constant_exact(op, sk.NormContext(theta))
    lam = sk.smallest_eigenvalue(op)

    x = grid.interior
    v1, _, v2, _ = sk.eval_profile(table, x)
    h2 = grid.h ** 2
    m = 2 * x.size
    a = np.zeros((m, m))
    i = np.arange(0, m, 2)
    a[i, i] = 2.0 / h2 + v2 * v2 + omega * omega
    a[i + 1, i + 1] = 2.0 / h2 + v1 * v1 + omega * omega
    a[i, i + 1] = a[i + 1, i] = 2.0 * v1 * v2
    j = np.arange(m - 2)
    a[j, j + 2] = a[j + 2, j] = -1.0 / h2
    w = np.repeat(1.0 / np.cosh(theta * x), 2)
    k_dense = float(np.max(np.abs(np.linalg.inv(a)) @ w))
    lam_dense = float(np.linalg.eigvalsh(a)[0])
    return {"K": k, "K_dense": k_dense, "lambda_min": lam, "lambda_min_dense": lam_dense}


def _sweep_outputs(records) -> list[dict]:
    out = []
    for rec in records:
        d = dataclasses.asdict(rec)
        d.pop("runtime_ms")
        out.append(d)
    return out


def _run_cli(commands, out_root: Path, tracer: Tracer | None) -> list[dict]:
    """Every command in order, on a fresh cache and output directory."""
    tmp = tempfile.mkdtemp(prefix="cli-", dir=out_root)
    try:
        outputs = []
        for name, argv in commands:
            argv = [a.replace("{cache}", f"{tmp}/cache").replace("{out}", tmp) for a in argv]
            so, se = io.StringIO(), io.StringIO()
            span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext({})
            with span as counts, contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                code = cli.main(argv)
            csv = ""
            if name != "profile":
                csv_path = Path(argv[argv.index("--out") + 1])
                if csv_path.exists():
                    csv = csv_path.read_text()
            counts["csv_bytes"] = len(csv.encode())
            outputs.append({"name": name, "code": code, "csv": csv,
                            "stdout": "" if name != "profile" else so.getvalue().replace(tmp, "{tmp}"),
                            "stderr": se.getvalue().replace(tmp, "{tmp}")})
        return outputs
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_plan(workload, table, plan, out_root, tracer=None) -> dict:
    """One timed pass over the plan: wall and process CPU seconds."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    if workload == "spectrum_reports":
        outputs = _run_cli(plan, out_root, tracer)
    else:
        points = [sk.SweepPoint(**kw) for kw in plan]
        outputs = _sweep_outputs(sk.run_sweep(table, points))
    t1, cpu1 = time.perf_counter(), time.process_time()
    return {"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "window": (t0, t1), "outputs": outputs}


def environment() -> dict:
    np_deps = np.show_config(mode="dicts")["Build Dependencies"]
    sp_deps = scipy.show_config(mode="dicts")["Build Dependencies"]
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": np_deps["blas"].get("openblas configuration", np_deps["blas"]["name"]),
        "scipy_lapack": sp_deps["lapack"].get("openblas configuration", sp_deps["lapack"]["name"]),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    _check_source()
    table = sk.solve_profile(**PROFILE_ARGS)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out_root = Path(args.result).parent
    if args.workload == "spectrum_reports":
        plan = plans.cli_commands(args.seed, args.smoke)
    else:
        plan = plans.sweep_points(args.workload, args.seed, args.smoke, sk.default_node_count)
    check = sentinel(table)

    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_plan(args.workload, table, plan, out_root))
        typical = statistics.median(r["wall_s"] for r in reps)
        if time.perf_counter() - start + typical > args.seconds:
            break

    traced = layers = None
    if args.trace:
        tracer = Tracer()
        with tracer.active():
            tracer.run_id = "setup"
            sk.solve_profile(**PROFILE_ARGS)
            tracer.run_id = f"{args.workload}-seed{args.seed}"
            traced = run_plan(args.workload, table, plan, out_root, tracer)
        layers = layer_metrics(tracer.spans, traced["window"], typical)
        with open(Path(args.result).with_suffix(".trace.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    result = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "env": environment(), "sentinel": check, "plan": plan,
        "reps": reps, "traced": traced, "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
