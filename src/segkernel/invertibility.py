"""Invertibility constant, smallest eigenvalue, and verification sweeps.

K(omega, R, theta) is the operator norm of the solution map
g -> phi from the cosh(theta x)-weighted sup norm to the plain sup
norm.  On the grid this is the exact infinity norm of
(solve o diag-weights): max over rows of the weighted absolute row
sums of the inverse.  With s = (+1, -1, +1, ...) on the interleaved
unknowns, diag(s) L diag(s) has off-diagonals -1/h^2 and -2 V1 V2 <= 0
and is positive definite, hence a Stieltjes matrix with an entrywise
nonnegative inverse; so |L^-1| = diag(s) L^-1 diag(s) and plain K is
max(s * solve(s * w)), one banded solve.  Under orthogonality
constraints, imposed by norms.Projector on the interleaved unknowns, K
is summed over the upper triangle of L^-1, tile by tile from the cached
Cholesky factor: the triangle inside a tile is a Schur form of its
diagonal block (Takahashi selected inversion), and the columns past it
are summed in chunks whose sign is certified by interval bounds; the
reflection symmetry supplies the lower triangle.  The estimate
method returns plain K itself; under constraints a Hager-style one-norm
power scheme provides a lower estimate (up to round-off).  The smallest
eigenvalue comes from inverse iteration on L - omega^2 I = L(0), started
from s / sqrt(m) (by Perron-Frobenius its eigenvector is diag(s) p with
p > 0); the Collatz-Wielandt bound of the Z-matrix diag(s) L diag(s) on
the final iterate, with its rounding bounded, certifies it from below.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .counterexample import lower_bound_from_counterexample
from .errors import BudgetExceeded, NoConvergence, SegkernelError
from .lapack import pbtrf, pbtrs, tbtrs
from .norms import NormContext, Projector, cosh_weights, kernel_basis
from .operator1d import DiscreteOperator, Grid, assemble, deinterleave, interleave
from .profile import ProfileTable

EXACT_SIZE_GUARD = 256_000   # constrained K: N = 160 R + 1 up to R = 800
TILE_ROWS = 128             # rows per tile of the constrained-K sweep
CHUNK_COLUMNS = 256         # even; chunk width up to m = 2**16, then ~ sqrt(m)
EIG_TOL = 1e-13
EIG_MAX_ITERS = 200_000
ESTIMATE_MAX_ITERS = 20     # Hager power steps per restart
ESTIMATE_RESTARTS = 5       # the all-ones start, then random signs


def _interior_weights(op: DiscreteOperator, ctx: NormContext) -> np.ndarray:
    """1/cosh(theta x) per interior unknown, interleaved pairwise."""
    return np.repeat(cosh_weights(op.grid.interior, ctx.theta), 2)


def inv_constant_exact(
    op: DiscreteOperator,
    ctx: NormContext,
    orth_elements=None,
) -> float:
    """Exact discrete K: the infinity norm of solve composed with the
    weight map (and with the orthogonality projector, when given).

    Plain K is one solve: with s = (+1, -1, +1, ...) on the interleaved
    unknowns, |L^-1| = diag(s) L^-1 diag(s), so the weighted absolute
    row sums are s * solve(s * w).

    Constrained K sums |M| row by row, M = (T - y g^T) diag(w) with
    T = L^-1, y = solve(carriers) and g^T = gram_inv @ zrows; no unit
    column is solved and T is never formed.  Tiles t of TILE_ROWS rows
    sweep from the bottom up, the two rows a below a tile its anchor.
    With L = U^T U the cached factor, (U T)_ij = 0 for j > i gives
    T[t, j] = P T[a, j] past the tile, P = -U_tt^-1 U_ta, so (for M
    unweighted) M[t, j] = coef @ [M[a, j]; g_j], coef = [P, P y_a - y_t].
    Inside the tile the Schur form T_tt = U_tt^-1 U_tt^-T + P T_aa P^T
    (Takahashi, Fagan & Chin 1973) reads
    M_tt = U_tt^-1 U_tt^-T + P M[a, t] + (P y_a - y_t) g_t^T.  Past the
    tile the columns go in chunks of about sqrt(m), one component (parity
    of j) at a time: the min and max of each generator over a chunk
    bound M[r, j], and where that bound keeps one sign the chunk adds
    |coef_r . sum_j gen_j w_j|.  As diag(s) L diag(s) is a Stieltjes
    matrix, a row of M changes sign only a few times per component, so
    few chunks are summed entry by entry.  Only the sums over j >= i are
    formed: operator, weights and projector commute with the reflection,
    so M[m-1-i, m-1-j] = M[i, j] and the sums over j <= i are those of
    the mirror row.  The size guard applies to this path only.
    """
    m = op.n_unknowns
    weights = _interior_weights(op, ctx)
    if not orth_elements:
        if np.any(op.coup < 0):
            raise SegkernelError("negative coupling 2 V1 V2: sign-flip identity fails")
        s = np.tile([1.0, -1.0], m // 2)
        return float(np.max(s * op.solve_interior(s * weights)))

    if m > EXACT_SIZE_GUARD:
        raise BudgetExceeded(
            f"{m} unknowns exceed the exact-method guard {EXACT_SIZE_GUARD}"
        )
    proj = Projector(orth_elements, op.grid, ctx)
    k = len(proj.zrows)
    f = np.zeros((3, m + 2))       # U of L = U^T U in upper band storage,
    f[:, :m] = op.factorization()  # zero past the last row
    yp = np.vstack((op.solve_interior(proj.carriers), np.zeros((2, k))))
    width = CHUNK_COLUMNS * max(1, math.isqrt(m // (64 * CHUNK_COLUMNS)))   # ~ sqrt(m)
    n_chunks = -(-m // width)
    # the generators, zero past m: the anchor M[i1:i1+2, j] for j >= i1, g^T
    gen = np.zeros((2 + k, max(n_chunks * width, m + 2)))
    gen[2:, :m] = proj.gram_inv @ proj.zrows
    wpad = np.concatenate((weights, np.zeros(gen.shape[1] - m)))
    # per chunk q and component (parity of j), in columns 2q and 2q+1: the
    # box [min; -max] and the sums of gen * w (the anchor's: past the tile)
    box = np.zeros((4 + 2 * k, 2 * n_chunks))
    sums = np.zeros((2 + k, 2 * n_chunks))

    def columns(q):
        """Columns and weights of chunks q, a row per chunk and component;
        past m the component's last column, with weight 0."""
        cols = q[:, None, None] * width + np.arange(2)[:, None] + 2 * np.arange(width // 2)
        last = np.minimum(cols, m - 2 + np.arange(2)[:, None])
        return last.reshape(-1, width // 2), wpad[cols].reshape(-1, width // 2)

    def chunk_stats(rows, q):
        """Exact box and sums of gen[rows] over the chunks q."""
        cols, w = columns(q)
        v = gen[rows[:, None, None], cols]
        r, idx = rows[:, None], (2 * q[:, None] + np.arange(2)).ravel()
        box[r, idx], box[r + 2 + k, idx] = v.min(axis=2), -v.max(axis=2)
        sums[r, idx] = np.einsum("rqj,qj->rq", v, w)

    def bounds(a, s):
        """[lo; -hi] of a @ gen over the chunks s, by interval arithmetic."""
        a = np.hstack((a, -a))
        return np.maximum(np.vstack((a, -a)), 0.0) @ box[:, s]

    chunk_stats(np.arange(2, 2 + k), np.arange(n_chunks))
    upper, diag = np.empty(m), np.empty(m)     # sums over j >= i of |M_ij|, |M_ii|
    for i1 in range(m, 0, -TILE_ROWS):
        i0 = max(0, i1 - TILE_ROWS)
        c = i1 - i0
        cpl = np.zeros((c, 2))     # -U_ta
        cpl[-2:] = -np.array([[f[0, i1], 0.0], [f[1, i1], f[0, i1 + 1]]])[-c:]
        sol = tbtrs(f[:, i0:i1], np.hstack((np.eye(c), cpl)))
        uinv, prop = sol[:, :c], sol[:, c:]
        # the far block, entry by entry up to the first chunk past the tile
        coef = np.hstack((prop, prop @ yp[i1: i1 + 2] - yp[i0:i1]))
        qa = -(-i1 // width)
        s = slice(2 * qa, None)
        far = np.abs(coef @ gen[:, i1: qa * width]) @ wpad[i1: qa * width]
        if qa < n_chunks:
            b = bounds(coef, s)
            straddle = (b[:c] < 0) & (b[c:] < 0)    # lo < 0 < hi; exact zeros certify
            chunk = np.abs(coef @ sums[:, s])
            q = qa + np.flatnonzero(straddle.any(axis=0).reshape(-1, 2).any(axis=1))
            if q.size:             # sum the straddling chunks entry by entry
                cols, w = columns(q)
                v = coef @ gen[:, cols.ravel()]
                v = np.einsum("rqj,qj->rq", np.abs(v, out=v).reshape(c, -1, width // 2), w)
                idx = (2 * (q[:, None] - qa) + np.arange(2)).ravel()
                chunk[:, idx] = np.where(straddle[:, idx], v, chunk[:, idx])
                chunk_stats(np.arange(2), q)    # carried boxes widen: reset
            far += chunk.sum(axis=1)
        # the near triangle; M[a, t] = M_aa P^T + y_a (g_a P^T - g_t)
        ga, gt = gen[2:, i1: i1 + 2], gen[2:, i0:i1]
        m_at = gen[:2, i1: i1 + 2] @ prop.T + yp[i1: i1 + 2] @ (ga @ prop.T - gt)
        m_cols = np.vstack((uinv @ uinv.T + prop @ m_at + coef[:, 2:] @ gt, m_at))
        near = np.abs(np.triu(m_cols[:c]))
        upper[i0:i1] = far + near @ weights[i0:i1]
        diag[i0:i1] = np.diagonal(near) * weights[i0:i1]
        # the next anchor, rows i0 and i0+1 (for c = 1, i0+1 is the old i1)
        step = np.vstack((coef, np.eye(2, 2 + k)))[:2]
        gen[:2, i1:] = step @ gen[:, i1:]
        gen[:2, i0:i1] = m_cols[:2]
        box[[0, 1, 2 + k, 3 + k], s], sums[:2, s] = bounds(step, s), step @ sums[:, s]
        if i0 <= (qa - 1) * width:      # chunks now wholly past the next tile
            chunk_stats(np.arange(2), np.arange(-(-i0 // width), qa))
    # M[m-1-i, m-1-j] = M[i, j]: the lower row sums are the upper ones reversed
    return float(np.max(upper + upper[::-1] - diag))


def inv_constant_estimate(
    op: DiscreteOperator,
    ctx: NormContext,
    orth_elements=None,
    seed: int = 42,
) -> float:
    """Lower estimate of the same norm.  Without constraints that is
    plain K itself, exact from one solve; with them, Hager's one-norm
    power scheme applied to the transpose, max over the all-ones start
    and random-sign restarts drawn from seed.

    Each iterate evaluates ||M^T x||_1 at a unit one-norm x, so the
    estimate is a lower bound up to round-off: under constraints it has
    been seen to exceed K by 4.4e-10 relative (R = 800).
    """
    if not orth_elements:
        return inv_constant_exact(op, ctx)
    m = op.n_unknowns
    weights = _interior_weights(op, ctx)
    op.factorization()      # a singular operator fails before the Gram check
    proj = Projector(orth_elements, op.grid, ctx)

    def m_apply(v):          # M = solve o P o D
        return op.solve_interior(proj.apply(weights * v))

    def mt_apply(v):         # M^T = D o P^T o solve
        return weights * proj.apply_transpose(op.solve_interior(v))

    rng = np.random.default_rng(seed)
    best = 0.0
    for restart in range(ESTIMATE_RESTARTS):
        if restart == 0:
            x = np.full(m, 1.0 / m)
        else:
            x = rng.choice([-1.0, 1.0], size=m) / m
        est_prev = 0.0
        for _ in range(ESTIMATE_MAX_ITERS):
            y = mt_apply(x)
            est = float(np.sum(np.abs(y)))
            xi = np.sign(y)
            xi[xi == 0.0] = 1.0
            z = m_apply(xi)
            best = max(best, est)
            if est <= est_prev or float(np.max(np.abs(z))) <= float(z @ x):
                break
            est_prev = est
            x = np.zeros(m)
            x[int(np.argmax(np.abs(z)))] = 1.0
    return best


def _perron_lower_bound(op: DiscreteOperator, v: np.ndarray) -> float:
    """Rigorous lower bound on lambda_min of L from any vector v.

    D L D, D = diag(s), is a Z-matrix, so for x = |v| > 0 (floored at
    tiny) lambda_min >= min_i (D L D x)_i / x_i (Collatz-Wielandt; Varga,
    Matrix Iterative Analysis, ch. 2).  apply rounds each term at most
    five times, so row i is off by at most gamma_5 times its absolute term
    sum, which is <= 2 d_i x_i - (D L D x)_i with d_i = 2/h^2 + |pot_i|
    as the off-diagonal terms are <= 0 (Higham, Accuracy and Stability,
    sec. 3.1); gamma_6 of its computed value covers that, 4 smallest
    subnormals the underflow.
    """
    if np.any(op.coup < 0):     # D L D is not a Z-matrix
        return -math.inf
    fp = np.finfo(float)
    s = np.tile([1.0, -1.0], op.n_unknowns // 2)
    x = np.maximum(np.abs(v), fp.tiny)
    dldx = s * interleave(op.apply(deinterleave(op.grid, s * x)))
    d = 2.0 / op.grid.h ** 2 + np.abs(np.column_stack((op.pot1, op.pot2)).ravel())
    gamma6 = 3.0 * fp.eps / (1.0 - 3.0 * fp.eps)
    err = gamma6 * (2.0 * d * x - dldx) + 4.0 * fp.smallest_subnormal
    low = float(np.min((dldx - err) / x))
    return low - 3.0 * fp.eps * abs(low)      # the quotients' two roundings


def smallest_eigenvalue(op: DiscreteOperator) -> float:
    """Certified smallest eigenvalue of the interior banded matrix.

    L = L(0) + omega^2 I exactly, so inverse power iteration runs on the
    factor of L - omega^2 I (the cached factor at omega = 0, or if that
    shift does not factor), whose convergence ratio does not degrade
    with omega, and adds omega^2 back.  As diag(s) L diag(s) is a
    Stieltjes matrix, s = (+1, -1, +1, ...), its inverse is entrywise
    positive and (Perron-Frobenius) the lambda_min eigenvector of L is
    diag(s) p with p > 0; the start s / sqrt(m) overlaps it well.  The
    iteration stops when successive Rayleigh quotients differ by
    < EIG_TOL * |value|.  The quotient rho bounds lambda_min above and
    _perron_lower_bound of the final iterate below; NoConvergence is
    raised unless that bound is positive and within delta of rho.
    """
    m = op.n_unknowns
    v = np.tile([1.0, -1.0], m // 2) / math.sqrt(m)
    shift = op.omega ** 2
    try:
        factor = pbtrf(op.shifted_band(shift)) if shift > 0.0 else op.factorization()
    except np.linalg.LinAlgError:       # L - omega^2 I is not positive definite
        shift, factor = 0.0, op.factorization()
    rho_prev = rho = None
    for it in range(EIG_MAX_ITERS):
        y = pbtrs(factor, v)
        ny = float(np.linalg.norm(y))
        rho = float(y @ v) / (ny * ny) + shift
        v = y / ny
        if it >= 3 and abs(rho - rho_prev) < EIG_TOL * abs(rho):
            break
        rho_prev = rho
    else:
        raise NoConvergence(
            f"eigenvalue iteration hit {EIG_MAX_ITERS} iterations", last_value=rho
        )
    delta = max(1e-6 * abs(rho), 64.0 * np.finfo(float).eps * np.max(op.band[2]))
    low = _perron_lower_bound(op, v)
    if not (0.0 < low and rho - low <= delta):
        raise NoConvergence(f"eigenvalue certificate failed: lower bound {low:.17g} is not "
                            f"positive and within {delta:.3g} of {rho:.17g}", last_value=rho)
    return rho


@dataclass(frozen=True)
class SweepPoint:
    """One experiment request."""

    theta: float
    omega: float
    R: float
    N: int
    orth_mode: str = "none"     # none | one | two
    method: str = "exact"       # exact | estimated


@dataclass
class SweepRecord:
    """Result of one (theta, omega, R, N) experiment."""

    theta: float
    omega: float
    R: float
    N: int
    method: str
    orth_mode: str
    K: float
    omega_K: float
    lambda_min: float
    ce_lower_bound: float
    runtime_ms: float
    error: str = ""


def run_sweep_entry(
    p: ProfileTable,
    point: SweepPoint,
    estimator_seed: int = 42,
) -> SweepRecord:
    """Run one sweep point; numerical failures are recorded, not raised."""
    t0 = time.perf_counter()
    k_val = lam = ce = float("nan")
    err = ""
    try:
        n_orth = {"none": 0, "one": 1, "two": 2}.get(point.orth_mode)
        if n_orth is None:
            raise ValueError(f"unknown orth_mode {point.orth_mode!r}")
        if point.method not in ("exact", "estimated"):
            raise ValueError(f"unknown method {point.method!r}")
        grid = Grid(point.R, point.N)
        ctx = NormContext(point.theta)
        op = assemble(p, point.omega, grid)
        elements = None
        if n_orth:
            kb = kernel_basis(p, grid)
            elements = [kb.z1, kb.z2][:n_orth]
        try:
            lam = smallest_eigenvalue(op)
        except NoConvergence as exc:
            lam = exc.last_value if exc.last_value is not None else float("nan")
            err = f"NoConvergence: {exc}"
        if point.method == "exact":
            k_val = inv_constant_exact(op, ctx, orth_elements=elements)
        else:
            k_val = inv_constant_estimate(
                op, ctx, orth_elements=elements, seed=estimator_seed
            )
        if point.omega > 0 and point.omega * point.R >= 1.0:
            ce = lower_bound_from_counterexample(
                p, point.theta, point.omega, point.R, point.N
            )
    except SegkernelError as exc:
        err = f"{type(exc).__name__}: {exc}"
    except ValueError as exc:
        err = f"ValueError: {exc}"
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return SweepRecord(
        theta=point.theta,
        omega=point.omega,
        R=point.R,
        N=point.N,
        method=point.method,
        orth_mode=point.orth_mode,
        K=k_val,
        omega_K=point.omega * k_val,
        lambda_min=lam,
        ce_lower_bound=ce,
        runtime_ms=runtime_ms,
        error=err,
    )


def run_sweep(p: ProfileTable, plan, estimator_seed: int = 42):
    """Run the whole plan in order, one entry at a time."""
    return [run_sweep_entry(p, pt, estimator_seed) for pt in plan]
