"""Workload plans, generated from the workload seed.

Seed 0 is the canonical plan.  Any other seed draws one jitter set that
every workload shares, so the exact K of a point in `theorem_sweep` or
`orth_zero` can be compared with the estimate of the same point in
`spectrum_reports`.  omega*R products stay fixed and N always comes from
`default_node_count`, so the program only ever sees inputs it would get
from its own CLI rules.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("theorem_sweep", "orth_zero", "spectrum_reports")

# Half-widths of the seed jitter.  theta is drawn from
# [0.5 - THETA_JITTER, 0.5 + THETA_JITTER]; omega (or R at omega = 0) is
# scaled by a factor in [1 - SCALE_JITTER, 1 + SCALE_JITTER].  The cost of
# exact K scales like 1/theta and like R, and lambda_min at R = 800 like
# omega^3, so wider ranges would turn the seed into the main source of
# run-to-run spread.
THETA_JITTER = 0.01
SCALE_JITTER = 0.01

# canonical (seed 0) parameters
THEOREM = ((0.2, 10.0), (0.1, 20.0), (0.05, 40.0))      # (omega, omega*R)
ESTIMATED_OMEGAS = (0.2, 0.1, 0.05)
ESTIMATED_OMEGA_R = (10.0, 20.0, 40.0)
ORTH_R = (40.0, 80.0, 160.0)
EIG_OMEGAS = (0.1, 0.3)                                 # plus omega = 0
EIG_R = (40.0, 80.0, 160.0, 800.0)
CE_R = (50.0, 100.0, 200.0, 400.0)
SOLVE_N = (801, 1601, 3201)

# smoke mode: the same shapes at tiny R, for the self-test
SMOKE_THEOREM = ((0.5, 5.0), (0.25, 5.0))
SMOKE_ESTIMATED_OMEGAS = (0.5, 0.25)
SMOKE_ESTIMATED_OMEGA_R = (5.0,)
SMOKE_ORTH_R = (10.0, 20.0, 40.0)
SMOKE_EIG_R = (10.0, 20.0)
SMOKE_CE_R = (10.0, 20.0)
SMOKE_SOLVE_N = (201, 401, 801)


def jitter(seed: int) -> dict:
    """theta and the per-point scale factors for one seed."""
    if seed == 0:
        return {"theta": 0.5, "theorem": (1.0,) * 3, "orth": (1.0,) * 3,
                "eig": (1.0,) * 2}
    rng = np.random.default_rng(seed)

    def factors(k):
        return tuple(float(f) for f in rng.uniform(1 - SCALE_JITTER, 1 + SCALE_JITTER, k))

    theta = float(rng.uniform(0.5 - THETA_JITTER, 0.5 + THETA_JITTER))
    return {"theta": theta, "theorem": factors(3), "orth": factors(3),
            "eig": factors(2)}


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def sweep_points(workload: str, seed: int, smoke: bool, node_count) -> list[dict]:
    """SweepPoint keyword sets for the two sweep workloads."""
    j = jitter(seed)
    theta = j["theta"]
    if workload == "theorem_sweep":
        base = SMOKE_THEOREM if smoke else THEOREM
        points = []
        for (om, o_r), f in zip(base, j["theorem"]):
            om *= f
            r_val = o_r / om                    # as `sweep --omegaR` does
            points.append(dict(theta=theta, omega=om, R=r_val, N=node_count(r_val),
                               orth_mode="none", method="exact"))
        return points
    if workload == "orth_zero":
        points = []
        for r_val, f in zip(SMOKE_ORTH_R if smoke else ORTH_R, j["orth"]):
            r_val *= f
            for mode in ("none", "one"):
                points.append(dict(theta=theta, omega=0.0, R=r_val, N=node_count(r_val),
                                   orth_mode=mode, method="exact"))
        return points
    raise ValueError(f"{workload} is not a sweep workload")


def cli_commands(seed: int, smoke: bool) -> list[tuple[str, list[str]]]:
    """(name, argv) pairs of `spectrum_reports`.  `{cache}` and `{out}`
    are filled in per run with a fresh cache and output directory."""
    j = jitter(seed)
    theta = repr(j["theta"])
    theorem = SMOKE_THEOREM if smoke else THEOREM
    est_omegas = SMOKE_ESTIMATED_OMEGAS if smoke else ESTIMATED_OMEGAS
    est_omega_r = SMOKE_ESTIMATED_OMEGA_R if smoke else ESTIMATED_OMEGA_R
    # the estimated sweep holds the theorem_sweep points: same omegas,
    # scaled by the same factors
    scale = {om: f for (om, _), f in zip(theorem, j["theorem"])}
    omegas = [om * scale.get(om, 1.0) for om in est_omegas]
    orth_r = [r * f for r, f in zip(SMOKE_ORTH_R if smoke else ORTH_R, j["orth"])]
    eig_omegas = [0.0] + [om * f for om, f in zip(EIG_OMEGAS, j["eig"])]
    cache = ["--cache-dir", "{cache}"]
    return [
        ("profile", ["profile", "--out", "{cache}"]),
        ("eig", ["eig", "--omega", _csv(eig_omegas),
                 "--R", _csv(SMOKE_EIG_R if smoke else EIG_R),
                 "--out", "{out}/eig.csv"] + cache),
        ("counterexample", ["counterexample", "--theta", theta,
                            "--R", _csv(SMOKE_CE_R if smoke else CE_R),
                            "--out", "{out}/counterexample.csv"] + cache),
        ("solve", ["solve", "--theta", theta,
                   "--N", ",".join(str(n) for n in (SMOKE_SOLVE_N if smoke else SOLVE_N)),
                   "--out", "{out}/solve.csv"] + cache),
        ("sweep_theorem", ["sweep", "--method", "estimated", "--theta", theta,
                           "--omega", _csv(omegas), "--omegaR", _csv(est_omega_r),
                           "--out", "{out}/sweep_theorem.csv"] + cache),
        ("sweep_orth", ["sweep", "--method", "estimated", "--theta", theta,
                        "--omega", "0", "--R", _csv(orth_r), "--orth-mode", "one",
                        "--out", "{out}/sweep_orth.csv"] + cache),
    ]
