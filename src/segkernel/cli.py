"""Command-line interface: profile computation, manufactured-solution
solves, counterexample reports, invertibility sweeps, and eigenvalue
tables, with reproducible CSV output.

Every CSV starts with a `# segkernel v1` line followed by the resolved
configuration as `#`-prefixed comments.  Identical configuration
gives byte-identical output; per-entry wall times are suppressed
(written as 0) unless --timings is passed, precisely so that reruns
reproduce the file bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import profile as prof
from .counterexample import (
    CounterexampleSpec,
    counterexample_residual,
    default_node_count,
)
from .errors import SegkernelError
from .invertibility import SweepPoint, run_sweep, smallest_eigenvalue
from .operator1d import DiscreteOperator, Grid, assemble, convergence_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

CSV_HEADER = "# segkernel v1"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(float(v))       # shortest string that round-trips
    return str(v)


def _float_list(text, flag) -> list[float]:
    try:
        values = [float(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"{flag} values must be numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _checked_list(text, flag, zero_ok=False) -> list[float]:
    """Comma list (or a single number) of finite values, each positive,
    or nonnegative when zero_ok; otherwise a ValueError names the flag."""
    values = _float_list(text, flag)
    if not all(math.isfinite(v) and (v > 0 or zero_ok and v == 0) for v in values):
        kind = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{flag} values must be finite and {kind}")
    return values


def _checked_nodes(text, odd_increasing=False) -> list[int]:
    """--N as a comma list (or a single number; None when not given) of
    integers >= 5, odd and strictly increasing when odd_increasing;
    otherwise a ValueError names the flag."""
    values = [] if text is None else _float_list(text, "--N")
    if not all(math.isfinite(v) and v == int(v) and v >= 5 for v in values):
        raise ValueError("--N values must be integers >= 5")
    nodes = [int(v) for v in values]
    if odd_increasing and (any(n % 2 == 0 for n in nodes)
                           or any(b <= a for a, b in zip(nodes, nodes[1:]))):
        raise ValueError("--N values must be odd and strictly increasing")
    return nodes


def _checked_profile(args):
    """--T finite >= 8, --N-profile odd >= 9, --newton-tol finite > 0, or ValueError."""
    if _checked_list(args.T, "--T")[0] < 8:
        raise ValueError("--T must be >= 8")
    if args.N_profile < 9 or args.N_profile % 2 == 0:
        raise ValueError("--N-profile must be an odd integer >= 9")
    _checked_list(args.newton_tol, "--newton-tol")


def _config_lines(cfg: dict) -> list[str]:
    return [CSV_HEADER] + [f"# {key}={_fmt(cfg[key])}" for key in sorted(cfg)]


def _write_csv(path, cfg: dict, header: list[str], rows: list[list]):
    lines = _config_lines(cfg) + [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _resolve_profile(args):
    return prof.get_profile(
        T=args.T, N=args.N_profile, newton_tol=args.newton_tol,
        cache_dir=args.cache_dir,
    )


def cmd_profile(args) -> int:
    cfg = {
        "command": "profile",
        "T": args.T, "N": args.N_profile, "newton_tol": args.newton_tol,
    }
    for line in _config_lines(cfg):
        print(line)
    table = prof.solve_profile(T=args.T, N=args.N_profile, newton_tol=args.newton_tol)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = prof.cache_path(args.out, args.T, args.N_profile, args.newton_tol)
        prof.save_profile(table, path)
        print(f"# cache={path}")
    a = table.asymptotics
    print(f"A={a.A:.17g}")
    print(f"B={a.B:.17g}")
    return EXIT_OK


def cmd_solve(args) -> int:
    _checked_list(args.theta, "--theta")
    _checked_list(args.omega, "--omega", zero_ok=True)
    _checked_list(args.R, "--R")
    n_list = _checked_nodes(args.N, odd_increasing=True)
    table = _resolve_profile(args)
    cfg = {
        "command": "solve", "theta": args.theta, "omega": args.omega,
        "R": args.R, "N": ",".join(str(n) for n in n_list),
    }
    try:
        report = convergence_report(table, args.omega, args.R, n_list)
    except SegkernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    rows = [[e["N"], e["error"], "" if e["order"] is None else e["order"]] for e in report]
    _write_csv(args.out, cfg, ["N", "error", "order"], rows)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    _checked_list(args.theta, "--theta")
    r_list = _checked_list(args.R, "--R")
    _checked_nodes(args.N, odd_increasing=True)
    table = _resolve_profile(args)
    cfg = {
        "command": "counterexample", "theta": args.theta,
        "R": ",".join(_fmt(r) for r in r_list),
    }
    center = (table.n_nodes - 1) // 2
    dv0 = (table.dv1[center], table.dv2[center])
    rows = []
    code = EXIT_OK
    for r_val in r_list:
        try:
            spec = CounterexampleSpec(R=r_val, theta=args.theta,
                                      N=args.N or 0)
            rep = counterexample_residual(table, spec, strict=False)
        except SegkernelError as exc:
            print(f"error at R={r_val}: {exc}", file=sys.stderr)
            code = EXIT_NUMERICAL
            continue
        dev = max(abs(rep.phi_at_0[0] - dv0[0]), abs(rep.phi_at_0[1] - dv0[1]))
        if not rep.resolution_ok:
            code = EXIT_NUMERICAL
        rows.append([
            rep.theta, rep.alpha, rep.R, rep.omega, rep.N, rep.r,
            rep.phi_at_0[0], rep.phi_at_0[1], dev, rep.resolution_ok,
        ])
    _write_csv(
        args.out, cfg,
        ["theta", "alpha", "R", "omega", "N", "r", "phi1_at_0", "phi2_at_0",
         "dev_from_profile_derivative", "resolution_ok"],
        rows,
    )
    return code


def _sweep_plan(args) -> list[SweepPoint]:
    omegas = _checked_list(args.omega, "--omega", zero_ok=True)
    _checked_list(args.theta, "--theta")
    _checked_nodes(args.N, odd_increasing=True)     # the counterexample bound needs odd N
    products = [] if args.omegaR is None else _checked_list(args.omegaR, "--omegaR")
    radii = [] if args.R is None else _checked_list(args.R, "--R")
    if products and radii:
        raise ValueError("--omegaR and --R are exclusive: give one")
    if products:
        if any(om <= 0 for om in omegas):
            raise ValueError("--omegaR requires strictly positive omega values")
        pairs = [(om, o_r / om) for om in omegas for o_r in products]
    elif radii:
        pairs = [(om, r_val) for om in omegas for r_val in radii]
    else:
        raise ValueError("need --omegaR or --R")
    return [
        SweepPoint(theta=args.theta, omega=om, R=r_val,
                   N=args.N or default_node_count(r_val),
                   orth_mode=args.orth_mode, method=args.method)
        for om, r_val in pairs
    ]


def cmd_sweep(args) -> int:
    plan = _sweep_plan(args)
    table = _resolve_profile(args)
    cfg = {
        "command": "sweep", "theta": args.theta, "omega": args.omega,
        "omegaR": args.omegaR or "", "R": args.R or "",
        "orth_mode": args.orth_mode, "method": args.method,
        "seed": args.seed, "timings": bool(args.timings),
    }
    records = run_sweep(table, plan)
    rows = []
    code = EXIT_OK
    for rec in records:
        if rec.error:
            print(f"error at omega={rec.omega}, R={rec.R}: {rec.error}",
                  file=sys.stderr)
            code = EXIT_NUMERICAL
        rows.append([
            rec.theta, rec.omega, rec.R, rec.N, rec.method, rec.orth_mode,
            rec.K, rec.omega_K, rec.K / rec.R, rec.lambda_min,
            rec.ce_lower_bound, rec.runtime_ms if args.timings else 0,
        ])
    _write_csv(
        args.out, cfg,
        ["theta", "omega", "R", "N", "method", "orth_mode", "K", "omega_K",
         "K_over_R", "lambda_min", "ce_lower_bound", "runtime_ms"],
        rows,
    )
    return code


def cmd_eig(args) -> int:
    omegas = _checked_list(args.omega, "--omega", zero_ok=True)
    r_list = _checked_list(args.R, "--R")
    _checked_nodes(args.N)
    table = _resolve_profile(args)
    cfg = {
        "command": "eig", "omega": args.omega, "R": args.R,
    }
    rows = []
    code = EXIT_OK
    shared = {}     # lambda_min(0) per grid, from smallest_eigenvalue
    ops = {}        # per grid, the operator whose potentials the others share
    for om in omegas:
        for r_val in r_list:
            grid = Grid(r_val, args.N or default_node_count(r_val))
            try:
                op = ops[grid] = ops.get(grid) or assemble(table, 0.0, grid)
                lam = smallest_eigenvalue(
                    DiscreteOperator(grid, om, op.pot1_0, op.pot2_0, op.coup), shared)
            except SegkernelError as exc:
                print(f"error at omega={om}, R={r_val}: {exc}", file=sys.stderr)
                code = EXIT_NUMERICAL
                continue
            rows.append([om, r_val, grid.N, lam])
    _write_csv(args.out, cfg, ["omega", "R", "N", "lambda_min"], rows)
    return code


class _Parser(argparse.ArgumentParser):
    """Raises parse errors as ValueError, so that they reach main's
    one-line error path; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="segkernel",
        description="phase-separation profile and linearized Dirichlet experiments",
    )
    parser.add_argument("--config", help="JSON file with flat keys matching flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, needs_out=True):
        sp.add_argument("--T", type=float, default=prof.DEFAULT_T)
        sp.add_argument("--N-profile", type=int, default=prof.DEFAULT_N,
                        dest="N_profile")
        sp.add_argument("--newton-tol", type=float, default=prof.DEFAULT_NEWTON_TOL,
                        dest="newton_tol")
        sp.add_argument("--cache-dir", default=None, dest="cache_dir",
                        help="profile cache directory (env SEGKERNEL_CACHE)")
        if needs_out:
            sp.add_argument("--out", required=True, help="output CSV path ('-' = stdout)")

    sp = sub.add_parser("profile", help="solve the profile; --out writes its binary cache file")
    common(sp, needs_out=False)
    sp.add_argument("--N", dest="N_profile", type=int,
                    default=argparse.SUPPRESS, help="alias for --N-profile")
    sp.add_argument("--out", default=None, help="cache directory to write")

    sp = sub.add_parser("solve", help="manufactured-solution solve/convergence report")
    common(sp)
    sp.add_argument("--theta", type=float, default=0.5)
    sp.add_argument("--omega", type=float, default=0.5)
    sp.add_argument("--R", type=float, default=20.0)
    sp.add_argument("--N", default="801,1601,3201", help="comma list of node counts")

    sp = sub.add_parser("counterexample", help="approximate-kernel residual report")
    common(sp)
    sp.add_argument("--theta", type=float, default=0.5)
    sp.add_argument("--R", required=True, help="comma list of half-lengths")
    sp.add_argument("--N", type=int, default=None, help="override the N rule")

    sp = sub.add_parser("sweep", help="invertibility-constant sweep")
    common(sp)
    sp.add_argument("--theta", type=float, default=0.5)
    sp.add_argument("--omega", required=True, help="comma list")
    sp.add_argument("--omegaR", default=None, help="comma list of omega*R products")
    sp.add_argument("--R", default=None, help="comma list of half-lengths")
    sp.add_argument("--N", type=int, default=None, help="override the N rule")
    sp.add_argument("--orth-mode", default="none", dest="orth_mode",
                    choices=["none", "one", "two"])
    sp.add_argument("--method", default="exact", choices=["exact", "estimated"])
    sp.add_argument("--seed", type=int, default=42,
                    help="recorded in the CSV header; changes no number")
    sp.add_argument("--timings", action="store_true",
                    help="record real runtimes (breaks byte determinism)")

    sp = sub.add_parser("eig", help="smallest-eigenvalue table")
    common(sp)
    sp.add_argument("--omega", required=True, help="comma list")
    sp.add_argument("--R", required=True, help="comma list")
    sp.add_argument("--N", type=int, default=None)
    return parser


def _apply_config_file(argv):
    """Read --config PATH (or --config=PATH) out of argv and put the
    file's entries right after the command, ahead of the flags: argparse
    keeps the last value, so flags, in either spelling, override the
    file, which overrides defaults."""
    argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path, rest = argv[i + 1], argv[:i] + argv[i + 2:]
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    injected = []
    for key, val in cfg.items():
        if key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                injected.append(flag)
        else:
            injected.extend([flag, str(val)])
    command = cfg.get("command")
    if command and (not rest or rest[0] not in
                    ("profile", "solve", "counterexample", "sweep", "eig")):
        rest = [command] + rest
    return rest[:1] + injected + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(argv)
    except (OSError, ValueError) as exc:     # JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "profile": cmd_profile,
        "solve": cmd_solve,
        "counterexample": cmd_counterexample,
        "sweep": cmd_sweep,
        "eig": cmd_eig,
    }
    try:
        args = parser.parse_args(argv)
        _checked_profile(args)      # before any profile is solved
        return handlers[args.command](args)
    except SystemExit as exc:       # --help
        return exc.code or EXIT_OK
    except (ValueError, OSError, MemoryError) as exc:     # MemoryError: a grid too large
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SegkernelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
