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
is summed over the upper triangle of L^-1 composed with the projector,
from the cached Cholesky factor, in tiles of rows and three steps: the
diagonal blocks of L^-1 for all nodes at once (Takahashi selected
inversion as one banded back substitution); the triangle inside every
tile, by one recurrence vectorised across the tiles; and a sweep up the
tiles that sums the columns past each tile in chunks whose sign is
certified by interval bounds.  The reflection symmetry supplies the
lower triangle.  The estimate method returns plain K itself; under
constraints a Hager-style one-norm power scheme provides a lower
estimate (up to round-off).  The smallest eigenvalue comes from inverse
iteration on L - omega^2 I = L(0), started from s / sqrt(m) (by
Perron-Frobenius its eigenvector is diag(s) p with p > 0); the
Collatz-Wielandt bound of the Z-matrix diag(s) L diag(s) on the final
iterate, with its rounding bounded, certifies it from below.
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
from .operator1d import DiscreteOperator, Grid, assemble
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


def _node_blocks(factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Propagators P_q and diagonal blocks T_qq of T = L^-1 for every node
    q (the unknowns 2q and 2q+1), from the factor U of L = U^T U in upper
    band storage; both are (n, 2, 2), P zero at the last node.

    (U T)_ij = 0 for j > i gives T[q, j] = P_q T[q+1, j] for the columns
    j past node q, P_q = -U_qq^-1 U_{q,q+1}, and the Schur form
    T_qq = U_qq^-1 U_qq^-T + P_q T_{q+1,q+1} P_q^T (Takahashi, Fagan & Chin
    1973).  That recurrence is linear in the three entries of each T_qq:
    one upper-triangular band of 3n unknowns, bandwidth 5 and unit
    diagonal, solved by one back substitution.
    """
    n = factor.shape[1] // 2
    u00, u01, u11 = factor[2, 0::2], factor[1, 1::2], factor[2, 1::2]
    p = np.zeros((n, 2, 2))
    p[:-1, 1, 0] = -factor[1, 2::2] / u11[:-1]
    p[:-1, 1, 1] = -factor[0, 3::2] / u11[:-1]
    p[:-1, 0, 0] = -(factor[0, 2::2] + u01[:-1] * p[:-1, 1, 0]) / u00[:-1]
    p[:-1, 0, 1] = -u01[:-1] * p[:-1, 1, 1] / u00[:-1]
    # entry (r, r2) of the map from (T00, T01, T11) of T_{q+1,q+1} to those
    # of P_q T_{q+1,q+1} P_q^T sits at offset 3 + r2 - r
    a, b, c, d = p[:-1, 0, 0], p[:-1, 0, 1], p[:-1, 1, 0], p[:-1, 1, 1]
    band = np.zeros((6, 3 * n), order="F")
    band[5] = 1.0
    for r, row in enumerate(((a * a, 2.0 * a * b, b * b), (a * c, a * d + b * c, b * d),
                             (c * c, 2.0 * c * d, d * d))):
        for r2, entry in enumerate(row):
            band[2 + r - r2, 3 + r2::3] = -entry
    v01 = -u01 / (u00 * u11)            # U_qq^-1 = [[1/u00, v01], [0, 1/u11]]
    schur = np.column_stack((1.0 / u00 ** 2 + v01 ** 2, v01 / u11, 1.0 / u11 ** 2))
    t = tbtrs(band, schur.ravel()).reshape(n, 3)
    return p, t[:, [0, 1, 1, 2]].reshape(n, 2, 2)


def _near_triangles(factor, y, g, weights, c):
    """Each tile's local part of M = (T - y g^T) diag(w), for all tiles at
    once; y is padded with two zero rows.  Tiles of c rows run up from
    the bottom, the top one ragged.  Returns, per row i, the near upper
    sum (over j >= i in its tile) of |M_ij| and |M_ii|, and the row's
    propagator P: T[i, j] = P T[a, j] for the columns j past the tile, a
    the two anchor rows below it; and per tile, top tile first, its top
    two rows of M over its own c columns (the top tile's padded in
    front), the next tile's anchor.

    With alpha_i = -U_{i,i+1} / U_ii and beta_i = -U_{i,i+2} / U_ii (zero
    past the last row), (U T)_ij = 0 for j > i gives
    T[i, j] = alpha_i T[i+1, j] + beta_i T[i+2, j], and P follows the same
    recurrence from the unit anchor.  It runs up each tile on a two-row
    state, one numpy step per row for all tiles, with the diagonal and
    first off-diagonal of T from _node_blocks; so tile edges may cut
    nodes.  The padding rows of the top tile, computed last, are
    clamped to row 0 and their results unused.
    """
    m, k = len(weights), g.shape[0]
    n_tiles = -(-m // c)
    pad = n_tiles * c - m
    p, tqq = _node_blocks(factor)
    d0 = tqq[:, [0, 1], [0, 1]].ravel()            # T_ii
    d1 = np.zeros(m)                               # T_i,i+1
    d1[0::2] = tqq[:, 0, 1]
    d1[1:-1:2] = (p[:-1] @ tqq[1:])[:, 1, 0]
    del p, tqq          # freed before the tile arrays, which set the peak memory
    alpha, beta = np.zeros(m), np.zeros(m)
    alpha[:-1] = -factor[1, 1:] / factor[2, :-1]
    beta[:-2] = -factor[0, 2:] / factor[2, :-2]
    first = np.arange(n_tiles) * c - pad           # each tile's first (padded) row

    def tiled(x):           # (..., tile, column), the padding clamped to column 0
        return x[..., np.maximum(first[:, None] + np.arange(c), 0)]

    wt, gt = tiled(weights), tiled(g)
    # rows i+1 and i+2: T over the tile's columns, then P
    s1, s2 = np.zeros((n_tiles, c + 2)), np.zeros((n_tiles, c + 2))
    s1[:, c - 1], s1[:, c], s2[:, c + 1] = d1[first + c - 1], 1.0, 1.0
    near, diag, prop = np.empty((n_tiles, c)), np.empty((n_tiles, c)), np.empty((n_tiles, c, 2))
    buf = np.empty((n_tiles, c))
    for r in range(c - 1, -1, -1):
        i = np.maximum(first + r, 0)
        new = s2[:, r + 1:]         # row i takes the place of row i+2
        np.multiply(new, beta[i, None], out=new)
        new += alpha[i, None] * s1[:, r + 1:]
        s2[:, r] = d0[i]
        if r:
            s2[:, r - 1] = d1[i - 1]
        s1, s2 = s2, s1
        row = np.einsum("tk,ktj->tj", y[i], gt[:, :, r:], out=buf[:, r:])
        np.abs(np.subtract(s1[:, r:c], row, out=row), out=row)
        near[:, r] = np.einsum("tj,tj->t", row, wt[:, r:])
        diag[:, r] = row[:, 0] * wt[:, r]
        prop[:, r] = s1[:, c:]
    anchor = -np.einsum("tak,ktj->taj", y[np.maximum(first[:, None] + np.arange(2), 0)], gt)
    anchor[:, 0] += s1[:, :c]
    anchor[:, 1] += s2[:, :c]
    return near.ravel()[pad:], diag.ravel()[pad:], prop.reshape(-1, 2)[pad:], anchor


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
    column is solved and T is never formed.  With L = U^T U the cached
    factor, (U T)_ij = 0 for j > i: past its diagonal, each row of T is a
    combination of the two rows below it.  Rows go in tiles of TILE_ROWS
    from the bottom up, the two rows a below a tile its anchor, and the
    work is split in three:

    1. _node_blocks: the 2x2 diagonal blocks of T for all nodes, from the
       Schur form T_qq = U_qq^-1 U_qq^-T + P_q T_{q+1,q+1} P_q^T
       (Takahashi, Fagan & Chin 1973), one banded back substitution;
       they give the diagonal and first off-diagonal of T.
    2. _near_triangles: the row recurrence up every tile at once, from
       that band, gives the tile's triangle j >= i of M, hence its row
       sums and |M_ii|; the propagator P = -U_tt^-1 U_ta of each row, so
       that T[t, j] = P T[a, j] past the tile and (for M unweighted)
       M[t, j] = coef @ [M[a, j]; g_j], coef = [P, P y_a - y_t]; and the
       top two rows of M in each tile, the next tile's anchor.
    3. The far sweep, tile by tile: the columns past the tile go in
       chunks of about sqrt(m), one component (parity of j) at a time.
       The min and max of each generator over a chunk bound M[r, j], and
       where that bound keeps one sign the chunk adds
       |coef_r . sum_j gen_j w_j|; only the rows whose bound straddles 0
       sum the chunk entry by entry.  As diag(s) L diag(s) is a Stieltjes
       matrix, a row of M changes sign only a few times per component, so
       that is a few chunks per row.  The anchor and the chunk bounds
       and sums are then carried to the tile above.

    Only the sums over j >= i are formed: operator, weights and
    projector commute with the reflection, so M[m-1-i, m-1-j] = M[i, j]
    and the sums over j <= i are those of the mirror row.  The size
    guard applies to this path only.
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
    c = min(TILE_ROWS, m)
    yp = np.vstack((op.solve_interior(proj.carriers), np.zeros((2, k))))
    g = proj.gram_inv @ proj.zrows
    upper, diag, prop, anchor = _near_triangles(op.factorization(), yp, g, weights, c)
    width = CHUNK_COLUMNS * max(1, math.isqrt(m // (64 * CHUNK_COLUMNS)))   # ~ sqrt(m)
    n_chunks = -(-m // width)
    # the generators, zero past m: the anchor M[i1:i1+2, j] for j >= i1, g^T
    gen = np.zeros((2 + k, max(n_chunks * width, m + 2)))
    gen[2:, :m] = g
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
    for top, i1 in zip(anchor[::-1], range(m, 0, -c)):
        i0 = max(0, i1 - c)
        coef = np.hstack((prop[i0:i1], prop[i0:i1] @ yp[i1: i1 + 2] - yp[i0:i1]))
        # the far block, entry by entry up to the first chunk past the tile
        qa = -(-i1 // width)
        s = slice(2 * qa, None)
        far = np.abs(coef @ gen[:, i1: qa * width]) @ wpad[i1: qa * width]
        if qa < n_chunks:
            b = bounds(coef, s)
            # lo < 0 < hi; exact zeros certify
            straddle = (b[:i1 - i0] < 0) & (b[i1 - i0:] < 0)
            chunk = np.abs(coef @ sums[:, s])
            blocks = np.flatnonzero(straddle.any(axis=0))
            for blk in blocks:      # sum the rows that straddle entry by entry
                rows = np.flatnonzero(straddle[:, blk])
                j = slice((qa + blk // 2) * width + blk % 2, (qa + blk // 2 + 1) * width, 2)
                v = coef[rows] @ gen[:, j]
                chunk[rows, blk] = np.abs(v, out=v) @ wpad[j]
            if blocks.size:         # carried boxes widen: reset
                chunk_stats(np.arange(2), qa + np.unique(blocks // 2))
            far += chunk.sum(axis=1)
        upper[i0:i1] += far
        # the next anchor, rows i0 and i0+1 (for c = 1, i0+1 is the old i1)
        step = np.vstack((coef, np.eye(2, 2 + k)))[:2]
        gen[:2, i1:] = step @ gen[:, i1:]
        gen[:2, i0:i1] = top[:, c - (i1 - i0):]
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
    Matrix Iterative Analysis, ch. 2).  The stencil rounds each term at most
    five times, so row i is off by at most gamma_5 times its absolute term
    sum, which is <= 2 d_i x_i - (D L D x)_i with d_i = 2/h^2 + |pot_i|
    as the off-diagonal terms are <= 0 (Higham, Accuracy and Stability,
    sec. 3.1); gamma_6 of its computed value covers that, 4 smallest
    subnormals the underflow.
    """
    if np.any(op.coup < 0):     # D L D is not a Z-matrix
        return -math.inf
    fp = np.finfo(float)
    x = np.maximum(np.abs(v), fp.tiny)
    dx = np.zeros((2, op.grid.N))          # D x by component, zero endpoints
    dx[0, 1:-1], dx[1, 1:-1] = x[0::2], -x[1::2]
    dldx = np.empty(op.n_unknowns)
    op._stencil(dx[0], dx[1], dldx[0::2], dldx[1::2])
    dldx[1::2] *= -1.0
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
