"""Correctness gates over the outputs of one benchmark invocation.

Every entry (one sweep point, one eig row or one CLI command, plus the
dense-oracle sentinel of each process) is checked; an entry with any
problem counts as failed.

- Seed 0 (not smoke): values match `reference.json`, recorded from the
  program before any optimisation, to K_TOL (K and its CSV columns),
  LAMBDA_TOL (lambda_min) or VALUE_TOL (everything else).
- Any seed: exact K >= the counterexample lower bound; the Hager
  estimate <= exact K (1 + ESTIMATE_SLACK) wherever a plain exact K of
  the same point is known (`theorem_sweep` points);
  |lambda(w) - lambda(0) - w^2| <= IDENTITY_TOL for every R of the eig
  table up to IDENTITY_MAX_R; the criterion-7 shape on `orth_zero`;
  every run of a process, the traced one included, gives identical
  records and byte-identical CSVs.

Beyond IDENTITY_MAX_R the identity is gated only at LAMBDA_TOL * lambda.
A deviation there above IDENTITY_TOL is a known defect (lambda_min stops
on successive differences, which does not bound its error at R = 800):
it is reported as such on every run and does not fail the entry.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

K_TOL = 1e-10
LAMBDA_TOL = 1e-8
# residual-type values (counterexample r, manufactured-solution error)
# come from differences of nearly equal terms, so round-off enters at a
# larger relative size than in K
VALUE_TOL = 1e-8
IDENTITY_TOL = 1e-12
IDENTITY_MAX_R = 80.0       # the range over which criterion 4 is tested
# The Hager estimate and exact K agree only to round-off of the banded
# solves (condition number ~1e6 at R = 800) plus the 0.5e-12 truncation
# tail of exact K: at seed 0 the estimate exceeds exact K by 1.5e-12
# (R = 200) and 9.8e-12 (R = 800) relative.  The slack is therefore the
# accuracy K is accepted to.
ESTIMATE_SLACK = K_TOL
COLUMN_TOL = {"K": K_TOL, "omega_K": K_TOL, "K_over_R": K_TOL, "lambda_min": LAMBDA_TOL}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def close(a, b, tol: float) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= tol * abs(b)


def _value(tok: str):
    for cast in (int, float):
        try:
            return cast(tok)
        except ValueError:
            pass
    return tok


def parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, map(_value, ln.split(",")))) for ln in lines[1:]]


def point_key(theta, omega, R, N, orth_mode) -> tuple:
    return (float(theta), float(omega), float(R), int(N), orth_mode)


def _compare_row(row: dict, ref: dict, label: str) -> list[str]:
    if set(row) != set(ref):
        return [f"{label}: columns {sorted(row)} != reference {sorted(ref)}"]
    return [f"{label}: {col}={row[col]!r}, reference {ref[col]!r}"
            for col in ref
            if not close(row[col], ref[col], COLUMN_TOL.get(col, VALUE_TOL))]


class Gate:
    """Collects (label, problems) entries for one workload."""

    def __init__(self):
        self.entries: list[tuple[str, list[str]]] = []
        self.known: list[str] = []       # known defects seen, not failures

    def add(self, label: str, problems: list[str]):
        self.entries.append((label, problems))

    @property
    def attempted(self) -> int:
        return len(self.entries)

    @property
    def failed(self) -> int:
        return sum(1 for _, p in self.entries if p)

    def problems(self) -> list[str]:
        return [msg for _, p in self.entries for msg in p]


def check_sentinel(gate: Gate, s: dict):
    problems = []
    if not close(s["K"], s["K_dense"], K_TOL):
        problems.append(f"sentinel K {s['K']!r} vs dense {s['K_dense']!r}")
    if not close(s["lambda_min"], s["lambda_min_dense"], LAMBDA_TOL):
        problems.append(f"sentinel lambda_min {s['lambda_min']!r} vs dense "
                        f"{s['lambda_min_dense']!r}")
    gate.add("sentinel", problems)


def _runs(result: dict) -> list[list]:
    runs = [r["outputs"] for r in result["reps"]]
    if result.get("traced"):
        runs.append(result["traced"]["outputs"])
    return runs


def check_sweep(gate: Gate, workload: str, result: dict, reference: dict | None):
    runs = _runs(result)
    ref_points = reference[workload]["points"] if reference else None
    for run_no, records in enumerate(runs):
        shape = (_criterion7_shape(records)
                 if workload == "orth_zero" and not result["smoke"] else [])
        for i, rec in enumerate(records):
            label = (f"run {run_no} {rec['orth_mode']} omega={rec['omega']!r} "
                     f"R={rec['R']!r}")
            problems = list(shape)
            if rec["error"]:
                problems.append(f"{label}: error {rec['error']!r}")
            if ref_points is not None:
                ref = ref_points[i]
                row = {k: rec[k] for k in ref}
                problems += _compare_row(row, ref, label)
            ce = rec["ce_lower_bound"]
            if not math.isnan(ce) and not rec["K"] >= ce:
                problems.append(f"{label}: K {rec['K']!r} below counterexample "
                                f"lower bound {ce!r}")
            if run_no and rec != runs[0][i]:
                problems.append(f"{label}: record differs from run 0")
            gate.add(label, problems)


def _criterion7_shape(records) -> list[str]:
    plain = {r["R"]: r["K"] / r["R"] for r in records if r["orth_mode"] == "none"}
    constrained = {r["R"]: r["K"] for r in records if r["orth_mode"] == "one"}
    if len(plain) < 3 or len(constrained) < 3:
        return []
    problems = []
    if max(plain.values()) / min(plain.values()) > 4.0:
        problems.append("criterion 7: K/R spread over R exceeds 4")
    if max(constrained.values()) / min(constrained.values()) > 4.0:
        problems.append("criterion 7: constrained K spread over R exceeds 4")
    c = [constrained[r] for r in sorted(constrained)]
    if not c[2] - c[1] < c[1] - c[0]:
        problems.append("criterion 7: constrained K does not flatten")
    return problems


def check_cli(gate: Gate, result: dict, reference: dict | None, exact: dict):
    runs = _runs(result)
    ref_cmds = reference["spectrum_reports"] if reference else None
    for run_no, outputs in enumerate(runs):
        for j, out in enumerate(outputs):
            name = out["name"]
            label = f"run {run_no} {name}"
            problems = []
            if out["code"] != 0:
                problems.append(f"{label}: exit code {out['code']}: {out['stderr'].strip()}")
            if run_no and out["csv"] != runs[0][j]["csv"]:
                problems.append(f"{label}: CSV bytes differ from run 0")
            rows = parse_csv(out["csv"])
            ref = ref_cmds[name] if ref_cmds else None
            if ref is not None and "stdout" in ref:       # profile: A and B
                problems += _compare_row(profile_constants(out["stdout"]), ref["stdout"], label)
            if ref is not None and len(rows) != len(ref["rows"]):
                problems.append(f"{label}: {len(rows)} rows, reference {len(ref['rows'])}")
                ref = None
            if name in ("eig", "sweep_theorem", "sweep_orth"):
                gate.add(label, problems)        # rows are entries of their own
                for i, row in enumerate(rows):
                    row_label = f"{label} row {i}"
                    row_problems = _compare_row(row, ref["rows"][i], row_label) if ref else []
                    if name == "eig":
                        row_problems += _eig_identity(row, rows, row_label, gate.known)
                    else:
                        row_problems += _estimate_below_exact(row, exact, row_label)
                    gate.add(row_label, row_problems)
            else:
                if ref is not None:
                    for i, row in enumerate(rows):
                        problems += _compare_row(row, ref["rows"][i], f"{label} row {i}")
                gate.add(label, problems)


def profile_constants(stdout: str) -> dict:
    vals = {}
    for line in stdout.splitlines():
        key, _, val = line.partition("=")
        if key in ("A", "B"):
            vals[key] = float(val)
    return vals


def _eig_identity(row: dict, rows: list[dict], label: str, known: list[str]) -> list[str]:
    if row["omega"] == 0.0:
        return []
    base = [r for r in rows if r["omega"] == 0.0 and r["R"] == row["R"] and r["N"] == row["N"]]
    if not base:
        return []
    dev = row["lambda_min"] - base[0]["lambda_min"] - row["omega"] ** 2
    msg = f"{label}: lambda(w) - lambda(0) - w^2 = {dev:.3e} at R={row['R']!r}"
    if row["R"] <= IDENTITY_MAX_R:
        return [msg] if abs(dev) > IDENTITY_TOL else []
    if abs(dev) > LAMBDA_TOL * row["lambda_min"]:
        return [msg]
    if abs(dev) > IDENTITY_TOL:
        known.append(msg)
    return []


def _estimate_below_exact(row: dict, exact: dict, label: str) -> list[str]:
    key = point_key(row["theta"], row["omega"], row["R"], row["N"], row["orth_mode"])
    if key not in exact:
        return []
    if row["K"] > exact[key] * (1.0 + ESTIMATE_SLACK):
        return [f"{label}: estimate {row['K']!r} above exact K {exact[key]!r}"]
    return []


def exact_values(results: dict, reference: dict | None) -> dict:
    """Plain exact K by point, from the reference (seed 0) and from the
    `theorem_sweep` of this invocation.  Constrained K is left out: the
    projection subtracts nearly equal terms, and exact and estimated
    constrained K differ by round-off of ~1e-11 relative."""
    exact = {}
    sources = []
    if reference:
        sources.append(reference["theorem_sweep"]["points"])
    if "theorem_sweep" in results:
        sources.append(results["theorem_sweep"]["reps"][0]["outputs"])
    for records in sources:
        for r in records:
            exact[point_key(r["theta"], r["omega"], r["R"], r["N"], r["orth_mode"])] = r["K"]
    return exact


def check(workload: str, results: dict, reference: dict | None) -> Gate:
    """Gate one workload of `results` (workload -> worker result).
    `reference` is None where the reference does not apply (seed != 0,
    smoke mode)."""
    result = results[workload]
    gate = Gate()
    check_sentinel(gate, result["sentinel"])
    if workload == "spectrum_reports":
        check_cli(gate, result, reference, exact_values(results, reference))
    else:
        check_sweep(gate, workload, result, reference)
    return gate


def reference_from(results: dict) -> dict:
    """The reference file's content, from a seed-0 run of all workloads."""
    ref = {}
    keys = ("theta", "omega", "R", "N", "orth_mode", "method", "K", "lambda_min",
            "ce_lower_bound")
    for w in ("theorem_sweep", "orth_zero"):
        ref[w] = {"points": [{k: r[k] for k in keys}
                             for r in results[w]["reps"][0]["outputs"]]}
    ref["spectrum_reports"] = {}
    for out in results["spectrum_reports"]["reps"][0]["outputs"]:
        entry = {"rows": parse_csv(out["csv"])}
        if out["name"] == "profile":
            entry["stdout"] = profile_constants(out["stdout"])
        ref["spectrum_reports"][out["name"]] = entry
    return ref
