"""Approximate-kernel pair: gluing the bounded kernel element of the
omega=0 operator to sinh-profile outer solutions through a cutoff at
scale ln R.

The pair has unit-order size but residual of order omega, so the
quotient ||phi||_inf / ||L phi||_theta certifies a lower bound ~1/omega
on the invertibility constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionInsufficient
from .norms import NormContext, weighted_sup
from .operator1d import Grid, PairGridFunction, apply_between
from .profile import ProfileTable, eval_profile


@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters of the construction on (-R, R).

    omega defaults to R**(-alpha) and alpha to theta (the canonical
    choice); an explicit omega may be supplied for coupling with sweep
    points.  The standing assumption omega*R >= 1 is enforced.
    """

    R: float
    theta: float
    alpha: float | None = None
    omega: float | None = None
    N: int = field(default=0)

    def __post_init__(self):
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.theta)
        if self.omega is None and self.R > 0:   # R <= 0 is rejected below
            object.__setattr__(self, "omega", self.R ** (-self.alpha))
        if fault := construction_fault(self.R, self.theta, self.omega):
            raise ValueError(fault)
        if self.N == 0:
            object.__setattr__(self, "N", default_node_count(self.R))
        if self.N % 2 == 0:
            raise ValueError("N must be odd (symmetric grid about 0)")

    @property
    def grid(self) -> Grid:
        return Grid(self.R, self.N)


def construction_fault(R: float, theta: float, omega: float) -> str:
    """The rule of the construction that (R, theta, omega) breaks, or ""."""
    if not (math.isfinite(R) and R > math.e):
        return "R must be finite and exceed e so that ln R > 1"
    if not (0.0 < theta < 1.0):
        return "theta must lie in (0, 1)"
    if not math.isfinite(omega):
        return "omega (or alpha) must be finite"
    return "" if omega * R >= 1.0 else "need omega * R >= 1"


def default_node_count(R: float) -> int:
    """Fixed nodes-per-unit-length rule; forced odd.  ValueError when
    80 R + 1 is not finite."""
    if not math.isfinite(80.0 * R + 1.0):
        raise ValueError(f"R = {R!r} gives no finite default node count 80 R + 1")
    n = max(2001, int(round(80.0 * R)) + 1)
    return n if n % 2 == 1 else n + 1


def smooth_cutoff(y):
    """C-infinity cutoff: 1 for |y| <= 1/2, 0 for |y| >= 3/4, the
    exp-based partition-of-unity transition in between."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    t = 4.0 * (0.75 - np.abs(y_arr))
    out = np.empty_like(t)
    out[t >= 1.0] = 1.0
    out[t <= 0.0] = 0.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    f = np.exp(-1.0 / tm)
    g = np.exp(-1.0 / (1.0 - tm))
    out[mid] = f / (f + g)
    if np.isscalar(y) or np.ndim(y) == 0:
        return float(out[0])
    return out


def sinh_ratio(omega: float, R: float, x):
    """sinh(omega (R - x)) / sinh(omega R) for x in [0, R], evaluated as
    exp-differences so large omega*R cannot overflow."""
    x = np.asarray(x, dtype=float)
    num = -np.expm1(-2.0 * omega * (R - x))
    den = -np.expm1(-2.0 * omega * R)
    return np.exp(-omega * x) * num / den


def sigma_helper(omega: float, R: float, A: float, x):
    """sigma(x) = A [sinh(omega(R-x))/sinh(omega R) - 1]; satisfies
    sigma(0) = 0 and -sigma'' + omega^2 sigma = -A omega^2."""
    return A * (sinh_ratio(omega, R, x) - 1.0)


def build_counterexample(p: ProfileTable, spec: CounterexampleSpec) -> PairGridFunction:
    """Sample the glued pair on the spec grid.

    For x >= 0: phi1 = (V1'(x) - A) eta(x) + A sinh(w(R-x))/sinh(wR),
    phi2 = V2'(x) eta(x), with eta(x) = cutoff(|x| / ln R); the negative
    side is (phi1, phi2)(x) = (-phi2(-x), -phi1(-x)), enforced exactly.
    """
    grid = spec.grid
    return PairGridFunction(grid, *_glued_pair(p, spec, grid, grid.N - 1))


def _glued_pair(p: ProfileTable, spec: CounterexampleSpec, grid: Grid, hi: int):
    """The glued pair's two components at the nodes N-1-hi .. hi of grid
    (odd N, hi at or past the middle), entry by entry as on the whole
    grid: the nodes x >= 0 are evaluated, the others mirrored."""
    xa = grid.nodes[(grid.N - 1) // 2:hi + 1]
    A = p.asymptotics.A
    _, dv1, _, dv2 = eval_profile(p, xa)
    eta = smooth_cutoff(xa / math.log(spec.R))
    phi1_pos = (dv1 - A) * eta + A * sinh_ratio(spec.omega, spec.R, xa)
    phi2_pos = dv2 * eta
    # at x=0 the cutoff and sinh ratio are exactly 1, so phi1(0) is
    # V1'(0) analytically; imposing it keeps the antisymmetry bitwise
    phi1_pos[0] = dv1[0]
    return (np.concatenate((-phi2_pos[:0:-1], phi1_pos)),
            np.concatenate((-phi1_pos[:0:-1], phi2_pos)))


def raw_kernel_pair(p: ProfileTable, grid: Grid) -> PairGridFunction:
    """Negative control: (V1', V2') sampled with no cutoff and no sinh
    matching; violates the Dirichlet conditions by ~A."""
    _, dv1, _, dv2 = eval_profile(p, grid.nodes)
    return PairGridFunction(grid, dv1, dv2)


@dataclass(frozen=True)
class ResidualReport:
    """One residual measurement: r = (1/omega) ||L phi||_theta."""

    theta: float
    alpha: float
    R: float
    omega: float
    N: int
    r: float
    phi_at_0: tuple
    norm_phi: float
    r_refined: float
    resolution_ok: bool
    window: float


def _windowed_weighted_residual(p, spec, n_nodes, ctx):
    """The weighted residual of the glued pair on the grid of n_nodes, the
    pair's two components at the nodes lo-1 .. hi the residual reads
    (its middle entry at x = 0) and the window."""
    grid = Grid(spec.R, n_nodes)
    # Beyond max(T, 3/4 ln R) the pair is exactly (A * sinh profile, 0)
    # with zero coupling and zero decaying potential, so the residual is
    # analytically zero there; measuring it discretely would only pick
    # up h^2 truncation and round-off amplified by cosh(theta x).  The
    # pair is evaluated, and L assembled and applied, on the window's
    # nodes only (the endpoints, inside it when R is small, have a zero
    # residual and are left out).
    window = max(p.half_length, 0.75 * math.log(spec.R))
    x = grid.nodes
    # x ascends: x[lo:hi] are the nodes |x| <= window, less the endpoints
    lo = max(int(np.searchsorted(x, -window, side="left")), 1)
    hi = min(int(np.searchsorted(x, window, side="right")), grid.N - 1)
    phi = _glued_pair(p, spec, grid, hi)
    rho1, rho2 = apply_between(p, spec.omega, grid, lo, *phi)
    # The glued pair is Lipschitz at x=0 with derivative jump
    # sigma'(0) = -A w coth(wR): the residual bound concerns the two
    # open half-intervals, while the stencil at the center node would
    # measure the point mass of the jump (~A/h after dividing by w).
    mask = np.abs(x[lo:hi]) > 0.5 * grid.h
    weighted = weighted_sup(x[lo:hi][mask], rho1[mask], rho2[mask], ctx.theta)
    return weighted, phi, window


def _sup(phi) -> float:
    """The glued pair's sup norm over the whole grid from its components
    at the nodes lo-1 .. hi: past them eta = 0, so the pair is
    (A sinh(w(R-|x|))/sinh(wR), 0) up to sign, which falls with |x|, and
    node hi holds its largest value there."""
    return float(max(np.max(np.abs(phi[0])), np.max(np.abs(phi[1]))))


def counterexample_residual(
    p: ProfileTable,
    spec: CounterexampleSpec,
    strict: bool = True,
) -> ResidualReport:
    """Measure r = (1/omega) ||L_w phi||_theta with a two-resolution gate.

    The residual is evaluated by applying the discrete operator to the
    sampled pair; the report is accepted when re-running at doubled
    resolution changes r by less than 5%.
    """
    ctx = NormContext(spec.theta)
    weighted, phi, window = _windowed_weighted_residual(p, spec, spec.N, ctx)
    r = weighted / spec.omega
    n_fine = 2 * spec.N - 1
    weighted_f, _, _ = _windowed_weighted_residual(p, spec, n_fine, ctx)
    r_fine = weighted_f / spec.omega
    ok = abs(r - r_fine) < 0.05 * r_fine
    if strict and not ok:
        raise ResolutionInsufficient(
            f"r changed from {r:.6g} to {r_fine:.6g} under refinement"
        )
    j0 = len(phi[0]) // 2
    return ResidualReport(
        theta=spec.theta,
        alpha=spec.alpha,
        R=spec.R,
        omega=spec.omega,
        N=spec.N,
        r=r,
        phi_at_0=(float(phi[0][j0]), float(phi[1][j0])),
        norm_phi=_sup(phi),
        r_refined=r_fine,
        resolution_ok=bool(ok),
        window=window,
    )


def lower_bound_from_counterexample(
    p: ProfileTable, theta: float, omega: float, R: float, N: int | None = None
) -> float:
    """Certified-style lower bound on K(omega, R, theta):
    ||phi||_inf / ||L phi||_theta for the glued pair at this (omega, R),
    on the spec grid only (no doubled-resolution gate); nan where the
    construction does not apply (construction_fault)."""
    if construction_fault(R, theta, omega):
        return math.nan
    spec = CounterexampleSpec(
        R=R, theta=theta, omega=omega, N=N or default_node_count(R)
    )
    weighted, phi, _ = _windowed_weighted_residual(p, spec, spec.N, NormContext(theta))
    r = weighted / omega      # as in counterexample_residual; no refinement
    return _sup(phi) / (omega * r)
