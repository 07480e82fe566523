"""Heteroclinic phase-separation profile.

Solves the coupled system

    -v1'' + v1*v2^2 = 0,   -v2'' + v2*v1^2 = 0

for the normalized, mirror-symmetric, monotone connection with
v1(0) = v2(0) = 1 and v1(-x) = v2(x).  The problem is posed on the
half-line [0, T] with reflection conditions at 0 and far-field
conditions at T, solved by damped Newton iteration on a second-order
finite-difference system, and extended to [-T, 0] by the exact mirror
symmetry.  One component grows affinely (slope A); the other dies off
superexponentially.  Where the dying component drops below what double
precision can resolve, the table is continued with the matched
quasi-Gaussian decay so that derivative signs stay meaningful.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    DegenerateFit,
    MonotonicityViolation,
    NonConvergence,
    WindowTooContaminated,
)

DEFAULT_T = 12.0
DEFAULT_N = 4801
DEFAULT_NEWTON_TOL = 1e-10
DEFAULT_TAIL_TOL = 1e-12

# Values of the dying component below this are dominated by round-off;
# beyond the first crossing the table switches to the matched decay model.
TAIL_TRUST_FLOOR = 1e-13

CACHE_HEADER = "segkernel-profile v1"


@dataclass(frozen=True)
class AsymptoticConstants:
    """Affine tail data: v1(x) ~ A*x + B with quasi-Gaussian remainder."""

    A: float
    B: float
    c_fit: float
    fit_residual: float


@dataclass(frozen=True)
class ProfileTable:
    """Sampled profile on [-T, T] with derivatives and tail constants.

    Immutable once built.
    """

    half_length: float
    nodes: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    dv1: np.ndarray
    dv2: np.ndarray
    asymptotics: AsymptoticConstants
    newton_tol: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def spacing(self) -> float:
        return self.half_length / ((self.n_nodes - 1) // 2)


def _initial_guess(x):
    """Smooth monotone guess with the right normalization and growth."""
    v1 = 0.5 * (x + np.sqrt(x * x + 4.0))
    v2 = 0.5 * (-x + np.sqrt(x * x + 4.0))
    return v1, v2


def _half_line_residual(v1, v2, h):
    """Residual of the half-line system, boundary rows included.

    Second differences are evaluated as differences of differences so
    that the result is reliable down to ~1e-13 in ODE units.
    """
    m = v1.size
    res = np.empty(2 * m)
    res[0] = v1[0] - 1.0
    res[1] = v2[0] - 1.0
    # ODE at x=0 with reflection ghosts v1(-h)=v2(h), v2(-h)=v1(h);
    # both component rows coincide there, so one representative is kept.
    res[2] = -((v2[1] - v1[0]) - (v1[0] - v1[1])) / (h * h) + v1[0] * v2[0] ** 2
    d2v1 = (np.diff(v1[1:]) - np.diff(v1[:-1])) / (h * h)
    d2v2 = (np.diff(v2[1:]) - np.diff(v2[:-1])) / (h * h)
    res[4::2] = -d2v1 + v1[1:-1] * v2[1:-1] ** 2
    res[3:-1:2] = -d2v2 + v2[1:-1] * v1[1:-1] ** 2
    res[-1] = v2[-1]
    return res


def _half_line_jacobian_banded(v1, v2, h):
    """Banded Jacobian (l=4, u=2) matching the row layout of the residual."""
    m = v1.size
    n = 2 * m
    lo, up = 4, 2
    ab = np.zeros((lo + up + 1, n))
    inv_h2 = 1.0 / (h * h)

    def put(i, j, val):
        ab[up + i - j, j] = val

    put(0, 0, 1.0)
    put(1, 1, 1.0)
    # row 2: ODE at node 0
    put(2, 0, 2.0 * inv_h2 + v2[0] ** 2)
    put(2, 1, 2.0 * v1[0] * v2[0])
    put(2, 2, -inv_h2)
    put(2, 3, -inv_h2)
    # rows 2i (i=2..m-1): v1 equation at node j=i-1
    i = np.arange(2, m)
    j = i - 1
    rows = 2 * i
    ab[up + rows - (2 * j - 2), 2 * j - 2] = -inv_h2
    ab[up + rows - (2 * j), 2 * j] = 2.0 * inv_h2 + v2[j] ** 2
    ab[up + rows - (2 * j + 2), 2 * j + 2] = -inv_h2
    ab[up + rows - (2 * j + 1), 2 * j + 1] = 2.0 * v1[j] * v2[j]
    # rows 2i+1 (i=1..m-2): v2 equation at node i
    i = np.arange(1, m - 1)
    rows = 2 * i + 1
    ab[up + rows - (2 * i - 1), 2 * i - 1] = -inv_h2
    ab[up + rows - (2 * i + 1), 2 * i + 1] = 2.0 * inv_h2 + v1[i] ** 2
    ab[up + rows - (2 * i + 3), 2 * i + 3] = -inv_h2
    ab[up + rows - (2 * i), 2 * i] = 2.0 * v2[i] * v1[i]
    put(n - 1, n - 1, 1.0)
    return ab


def _newton_half_line(x, max_iters=80, max_halvings=30):
    """Damped Newton, run to the round-off floor of the residual.

    Stops once the sup-norm residual stalls (the floor is set by value
    quantization: ~2 ulp(v1) / h^2 in the affine zone) and returns the
    iterate with its sup residual; reaching newton_tol is judged by the
    caller after postprocessing.
    """
    h = x[1] - x[0]
    v1, v2 = _initial_guess(x)
    res = _half_line_residual(v1, v2, h)
    sup = np.max(np.abs(res))
    stalls = 0
    for _ in range(max_iters):
        ab = _half_line_jacobian_banded(v1, v2, h)
        step = solve_banded((4, 2), ab, -res)
        t = 1.0
        for _ in range(max_halvings):
            v1_new = v1 + t * step[0::2]
            v2_new = v2 + t * step[1::2]
            res_new = _half_line_residual(v1_new, v2_new, h)
            sup_new = np.max(np.abs(res_new))
            if sup_new < sup:
                break
            t *= 0.5
        if sup_new >= 0.9 * sup:
            stalls += 1
            if stalls >= 2:
                break
        else:
            stalls = 0
        if sup_new < sup:
            v1, v2, res, sup = v1_new, v2_new, res_new, sup_new
        if sup <= 1e-14:
            break
    return v1, v2, sup


def _fit_affine(x, y):
    """Least-squares y ~ a*x + b; returns (a, b)."""
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0]), float(coef[1])


def _model_tail(x, v2, a, b, floor=TAIL_TRUST_FLOOR):
    """Continue the dying component below the round-off floor.

    Uses the leading-order balance v2' ~ -(a*x+b) v2, anchored at the
    last node whose value is still trustworthy.
    """
    below = np.nonzero(v2 < floor)[0]
    if below.size == 0:
        return v2
    k = int(below[0])
    if k == 0:
        return v2
    out = v2.copy()
    xa = x[k - 1]
    anchor = v2[k - 1]
    expo = -0.5 * a * (x[k:] ** 2 - xa * xa) - b * (x[k:] - xa)
    out[k:] = anchor * np.exp(expo)
    return out


def _straighten_affine_tail(v1, v2, h):
    """Re-round the dead affine zone of v1 as an exact fp progression.

    Where v2 has decayed past 1e-7 the curvature h^2*v1*v2^2 is far
    below one ulp of v1, so the best representable solution is an
    arithmetic progression of doubles.  Rebuilding it with an increment
    that stays on the value lattice removes the ~2 ulp/h^2 quantization
    noise from the divided second differences (1.4e-10 at the default
    grid, which would mask the Newton residual).  Binade crossings cost
    one sub-ulp blip each.
    """
    idx = np.nonzero(v2 < 1e-7)[0]
    if idx.size == 0 or idx[0] < 2:
        return v1
    j = int(idx[0])
    out = v1.copy()
    d = out[j] - out[j - 1]
    cur = out[j]
    for k in range(j + 1, out.size):
        nxt = cur + d
        realized = nxt - cur
        if realized != d:
            # crossed a binade: continue from the increment that was
            # actually realized, snapped to the new value lattice, so
            # both seam nodes carry at most half an ulp of curvature
            u = np.spacing(nxt)
            d = np.round(realized / u) * u
        out[k] = nxt
        cur = nxt
    return out


def _derivative_stencil(offsets):
    """First-derivative weights (unit spacing) exact on deg<=len-1 polys."""
    k = len(offsets)
    vand = np.vander(np.asarray(offsets, dtype=float), k, increasing=True).T
    rhs = np.zeros(k)
    rhs[1] = 1.0
    return np.linalg.solve(vand, rhs)


_EDGE_STENCILS = {
    0: _derivative_stencil([0, -1, -2, -3, -4]),   # last node
    1: _derivative_stencil([1, 0, -1, -2, -3]),    # one before last
}


def _table_derivatives(xs, v1, v2):
    """Fourth-order derivatives with mirror symmetry preserved exactly.

    Interior uses the centered five-point stencil (antisymmetric, so the
    reflection identities dv1(-x) = -dv2(x) hold to the last bit); the
    two nodes at +T use one-sided stencils and are mirrored to -T.
    """
    n = xs.size
    h = (xs[-1] - xs[0]) / (n - 1)

    def centered(f):
        d = np.empty(n)
        d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
        return d

    dv1 = centered(v1)
    dv2 = centered(v2)
    for comp, d in ((v1, dv1), (v2, dv2)):
        for back, w in _EDGE_STENCILS.items():
            j = n - 1 - back
            if back == 0:
                pts = comp[j - 4: j + 1][::-1]
            else:
                pts = np.concatenate([[comp[j + 1]], comp[j - 3: j + 1][::-1]])
            d[j] = np.dot(w, pts) / h
    # overwrite the left half with the exact mirror of the right half:
    # v1(-x) = v2(x) implies dv1(-x) = -dv2(x), bit for bit
    j0 = (n - 1) // 2
    right1 = dv1[j0 + 1:].copy()
    right2 = dv2[j0 + 1:].copy()
    dv1[:j0] = -right2[::-1]
    dv2[:j0] = -right1[::-1]
    dv2[j0] = -dv1[j0]
    return dv1, dv2


def discrete_residual(p: ProfileTable):
    """Sup norm of the full-table ODE residual over interior nodes."""
    h = p.spacing
    d2v1 = (np.diff(p.v1[1:]) - np.diff(p.v1[:-1])) / (h * h)
    d2v2 = (np.diff(p.v2[1:]) - np.diff(p.v2[:-1])) / (h * h)
    r1 = -d2v1 + p.v1[1:-1] * p.v2[1:-1] ** 2
    r2 = -d2v2 + p.v2[1:-1] * p.v1[1:-1] ** 2
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def default_fit_window(T: float):
    """Window where the affine tail dominates at double precision."""
    return (2.0 * T / 3.0, T)


def solve_profile(
    T: float = DEFAULT_T,
    N: int = DEFAULT_N,
    newton_tol: float = DEFAULT_NEWTON_TOL,
) -> ProfileTable:
    """Solve for the profile on [-T, T] with N nodes (N odd).

    The half-line system on [0, T] enforces v1(0)=v2(0)=1 together with
    the reflected ODE row at 0 (which encodes v1'(0) = -v2'(0)
    identically) and v2(T)=0 with the affine-compatible closure for v1.
    The table on [-T, 0] is the exact mirror, so the symmetry invariant
    holds to round-off by construction.
    """
    if not (math.isfinite(T) and T >= 8):
        raise ValueError("T must be finite and >= 8 so the tail windows are clean")
    if N < 9 or N % 2 == 0:
        raise ValueError("N must be odd (x=0 is a node) and not tiny")
    if not (math.isfinite(newton_tol) and newton_tol > 0):
        raise ValueError("newton_tol must be finite and positive")

    m = (N + 1) // 2
    x_half = np.arange(m) / (m - 1) * T
    h = T / (m - 1)
    v1h, v2h, _ = _newton_half_line(x_half)
    # normalization is imposed, not approximated
    v1h[0] = 1.0
    v2h[0] = 1.0

    # tail continuation needs provisional affine constants from v1 alone
    lo, hi = default_fit_window(T)
    sel = (x_half >= lo) & (x_half <= hi)
    a_prov, b_prov = _fit_affine(x_half[sel], v1h[sel])
    v2h = _model_tail(x_half, v2h, a_prov, b_prov)
    v1h = _straighten_affine_tail(v1h, v2h, h)

    j0 = m - 1
    xs = (np.arange(N) - j0) / (m - 1) * T
    v1 = np.empty(N)
    v2 = np.empty(N)
    v1[j0:] = v1h
    v2[j0:] = v2h
    v1[:j0] = v2h[:0:-1]
    v2[:j0] = v1h[:0:-1]

    dv1, dv2 = _table_derivatives(xs, v1, v2)

    if np.any(v1 <= 0) or np.any(v2 <= 0):
        raise MonotonicityViolation("profile has a non-positive node: wrong branch")
    if np.any(dv1 <= 0):
        j = int(np.argmin(dv1))
        raise MonotonicityViolation(
            f"dv1 <= 0 at x={xs[j]:.4f} ({dv1[j]:.3e}): spurious branch"
        )

    table = ProfileTable(
        half_length=T,
        nodes=xs,
        v1=v1,
        v2=v2,
        dv1=dv1,
        dv2=dv2,
        asymptotics=AsymptoticConstants(a_prov, b_prov, math.inf, 0.0),
        newton_tol=newton_tol,
    )
    table = replace(table, asymptotics=extract_asymptotics(table, default_fit_window(T)))

    res = discrete_residual(table)
    if res > newton_tol:
        raise NonConvergence(
            f"full-table residual {res:.3e} exceeds newton_tol {newton_tol:.3e}"
        )
    return table


def extract_asymptotics(
    p: ProfileTable,
    fit_window,
    contamination_tol: float | None = None,
) -> AsymptoticConstants:
    """Affine tail fit v1 ~ A x + B over [x_lo, x_hi], plus decay rate.

    c_fit is the slope of log|deviation| against -x^2 over the part of
    the window where the deviation is still above round-off; it is a
    diagnostic of the quasi-Gaussian remainder, math.inf when the
    deviation is at the noise floor throughout (e.g. exactly affine
    input).
    """
    x_lo, x_hi = fit_window
    if not (0.0 < x_lo < x_hi <= p.half_length):
        raise ValueError("fit window must satisfy 0 < x_lo < x_hi <= T")
    tol = DEFAULT_TAIL_TOL if contamination_tol is None else contamination_tol

    sel = (p.nodes >= x_lo) & (p.nodes <= x_hi)
    if np.count_nonzero(sel) < 8:
        raise DegenerateFit(f"only {np.count_nonzero(sel)} nodes in window")
    x = p.nodes[sel]
    y = p.v1[sel]
    v2max = float(np.max(p.v2[sel]))
    if v2max > tol:
        raise WindowTooContaminated(
            f"max v2 in window is {v2max:.3e} > {tol:.3e}"
        )

    a, b = _fit_affine(x, y)
    dev = y - (a * x + b)
    fit_residual = float(np.max(np.abs(dev)))

    noise = max(1e-13, 64.0 * np.finfo(float).eps * float(np.max(np.abs(y))))
    mask = np.abs(dev) > noise
    if np.count_nonzero(mask) >= 4:
        slope, _ = _fit_affine(-x[mask] ** 2, np.log(np.abs(dev[mask])))
        c_fit = float(slope)
    else:
        c_fit = math.inf
    return AsymptoticConstants(A=a, B=b, c_fit=c_fit, fit_residual=fit_residual)


def eval_profile(p: ProfileTable, x):
    """Evaluate (v1, dv1, v2, dv2) at arbitrary points.

    Cubic Hermite interpolation inside [-T, T]; affine/zero tail
    extension outside: (A x + B, A, 0, 0) for x > T and the mirrored
    (0, 0, -A x + B, -A) for x < -T.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    T = p.half_length
    a_c = p.asymptotics.A
    b_c = p.asymptotics.B

    v1 = np.empty_like(x_arr)
    dv1 = np.empty_like(x_arr)
    v2 = np.empty_like(x_arr)
    dv2 = np.empty_like(x_arr)

    right = x_arr > T
    left = x_arr < -T
    mid = ~(right | left)

    v1[right] = a_c * x_arr[right] + b_c
    dv1[right] = a_c
    v2[right] = 0.0
    dv2[right] = 0.0

    v1[left] = 0.0
    dv1[left] = 0.0
    v2[left] = -a_c * x_arr[left] + b_c
    dv2[left] = -a_c

    if np.any(mid):
        xm = x_arr[mid]
        n = p.n_nodes
        h = p.spacing
        k = np.clip(((xm + T) / h).astype(int), 0, n - 2)
        t = (xm - p.nodes[k]) / h
        # snap to the interval ends so stored nodes reproduce exactly
        t = np.where(xm == p.nodes[k], 0.0, t)
        t = np.where(xm == p.nodes[k + 1], 1.0, t)
        t2 = t * t
        t3 = t2 * t
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h10 = t3 - 2.0 * t2 + t
        h01 = -2.0 * t3 + 3.0 * t2
        h11 = t3 - t2
        g00 = (6.0 * t2 - 6.0 * t) / h
        g10 = 3.0 * t2 - 4.0 * t + 1.0
        g11 = 3.0 * t2 - 2.0 * t
        for vals, ders, out_v, out_d in (
            (p.v1, p.dv1, v1, dv1),
            (p.v2, p.dv2, v2, dv2),
        ):
            fk, fk1 = vals[k], vals[k + 1]
            dk, dk1 = ders[k], ders[k + 1]
            out_v[mid] = h00 * fk + h * (h10 * dk + h11 * dk1) + h01 * fk1
            # (fk - fk1) stays exact for neighbors; avoids |v|/h noise
            out_d[mid] = g00 * (fk - fk1) + g10 * dk + g11 * dk1

    if np.isscalar(x) or np.ndim(x) == 0:
        return float(v1[0]), float(dv1[0]), float(v2[0]), float(dv2[0])
    return v1, dv1, v2, dv2


def save_profile(p: ProfileTable, path):
    """Write the versioned text cache format."""
    lines = [CACHE_HEADER]
    a = p.asymptotics
    lines.append(
        f"{p.half_length:.17g} {p.n_nodes} {p.newton_tol:.17g} "
        f"{a.A:.17g} {a.B:.17g} {a.c_fit:.17g}"
    )
    cols = np.column_stack([p.nodes, p.v1, p.dv1, p.v2, p.dv2])
    for row in cols:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    tmp = f"{path}.{os.getpid()}.tmp"    # renamed over path: never read half-written
    try:
        with open(tmp, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_profile(path) -> ProfileTable:
    """Read a cache file written by save_profile."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CACHE_HEADER:
            raise ValueError(f"not a profile cache file: header {header!r}")
        meta = fh.readline().split()
        if len(meta) != 6:
            raise ValueError(f"cache file metadata line has {len(meta)} fields, not 6")
        T, n, tol = float(meta[0]), int(meta[1]), float(meta[2])
        a_hdr, b_hdr, c_hdr = float(meta[3]), float(meta[4]), float(meta[5])
        data = np.loadtxt(fh)
    if data.shape != (n, 5):
        raise ValueError(f"expected {n} rows of 5 columns, got {data.shape}")
    table = ProfileTable(
        half_length=T,
        nodes=data[:, 0],
        v1=data[:, 1],
        dv1=data[:, 2],
        v2=data[:, 3],
        dv2=data[:, 4],
        asymptotics=AsymptoticConstants(a_hdr, b_hdr, c_hdr, 0.0),
        newton_tol=tol,
    )
    asym = extract_asymptotics(table, default_fit_window(T))
    if abs(asym.A - a_hdr) > 1e-10 * max(1.0, abs(a_hdr)):
        raise ValueError("cache file inconsistent: refitted A disagrees with header")
    return replace(
        table, asymptotics=AsymptoticConstants(a_hdr, b_hdr, c_hdr, asym.fit_residual)
    )


def cache_path(cache_dir, T: float, N: int, newton_tol: float) -> str:
    return os.path.join(cache_dir, f"profile_T{T:g}_N{N}_tol{newton_tol:g}.txt")


def get_profile(
    T: float = DEFAULT_T,
    N: int = DEFAULT_N,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    cache_dir=None,
) -> ProfileTable:
    """Solve or reuse a cached table keyed by (T, N, newton_tol).

    The file name rounds T and newton_tol, so a cached table is served
    only when its header matches the request exactly; otherwise the
    table is solved fresh and the file is left alone.  A file that does
    not load (truncated or corrupt) is a miss: the table is solved and
    the file rewritten.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("SEGKERNEL_CACHE")
    if not cache_dir:
        return solve_profile(T, N, newton_tol)
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, T, N, newton_tol)
    if os.path.exists(path):
        try:
            table = load_profile(path)
        except ValueError:          # truncated or corrupt: rewritten below
            pass
        else:
            if (table.half_length, table.n_nodes, table.newton_tol) == (T, N, newton_tol):
                return table
            return solve_profile(T, N, newton_tol)
    table = solve_profile(T, N, newton_tol)
    save_profile(table, path)
    return table
