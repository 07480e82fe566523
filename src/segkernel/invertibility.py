"""Invertibility constant, smallest eigenvalue, and verification sweeps.

K(omega, R, theta) is the operator norm of the solution map
g -> phi from the cosh(theta x)-weighted sup norm to the plain sup
norm.  On the grid this is the exact infinity norm of
(solve o diag-weights): max over rows of the weighted absolute row
sums of the inverse.  With s = (+1, -1, +1, ...) on the interleaved
unknowns, diag(s) L diag(s) has off-diagonals -1/h^2 and -2 V1 V2 <= 0
and is positive definite, hence a Stieltjes matrix with an entrywise
nonnegative inverse; so |L^-1| = diag(s) L^-1 diag(s) and plain K is
max(s * solve(s * w)), one solve of the operator's half-size fold on
reflection-odd vectors, such as s * w.  That solve runs on the fold's
coupled core, whose size does not grow with R: its two chains are
eliminated exactly, the free one in closed form and the dying one from
its last nodes, the core's Schur complement is solved once and refined
once with an np.longdouble residual, and the chains' rows are certified
below K by the maximum principle, or solved where no bound holds.
Under orthogonality constraints, imposed by norms.Projector on the
interleaved unknowns, the row sums of L^-1 composed with the projector
are summed on the coupled core, the Schur complement of L's four tail
chains, eliminated exactly first, from its Cholesky factor, which also
solves the carriers: over
the upper triangle, in tiles of rows and three steps: the diagonal and
first off-diagonal of the inverse (Takahashi selected inversion in
scalar rows, banded back substitution in segments); the triangle inside
every tile, by one recurrence vectorised across the tiles; and a sweep
up groups of tiles that sums the columns past each group in chunks whose
sign is certified by interval bounds.  The reflection symmetry supplies
the lower triangle.  The chains' rows and columns come from exact
identities: the dying chains' columns add one solve with the carriers',
by the sign structure, and each of their rows is a multiple of its
chain's join row; the living chains, free chains -d2/h2 + omega^2 with
inverses in closed form, give every row of theirs and of the core over
their columns as convex sequences, summed from prefix sums where their
sign changes, and their rows over the core columns a sign per tile of
rows and column.  The estimate method returns exact K, plain or constrained.
The smallest eigenvalue is
lambda_min(0) + omega^2, as L = L(0) + omega^2 I exactly, and its
eigenvector diag(s) p, p > 0, lies in the reflection-odd fold of L(0)
(Perron-Frobenius).  The fold's two chains are eliminated exactly: the
free one in closed form, the dying one from its last nodes, whose
pivots contract, so lambda_min(0) is the root of the smallest eigenvalue
of the fold's coupled core's Schur complement S(sigma), found by one
step of inverse iteration and then Rayleigh functional iteration on the
core alone, from the box mode s * cos(pi x / (2R)); no solve runs over
the chains.  It is certified from below by the Collatz-Wielandt bound of
the Z-matrix diag(s) B diag(s), B the fold less its dying chain, at the
free chain's exact response, whose rows then need no evaluation, read
off the core's band with its rounding bounded, run once per grid: a
sweep shares lambda_min(0) between the points on one grid.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .chains import living_rows
from .counterexample import lower_bound_from_counterexample
from .errors import BudgetExceeded, NoConvergence, SegkernelError, SingularSystem
from .lapack import gbsv, pbtrf, pbtrs, pttrf, pttrs
from .norms import NormContext, Projector, cosh_weights, kernel_basis, log_cosh
from .operator1d import DiscreteOperator, Grid, _factored, _smallest_pivot, assemble, fold
from .profile import ProfileTable

# constrained K: N = 160 R + 1 up to R = 800.  Its tracemalloc peak, L factored,
# is ~99 B (one condition) or 146 B (two) per unknown of L: 25 or 38 MB at the guard
EXACT_SIZE_GUARD = 256_000
TILE_ROWS = 128             # rows per tile of the constrained-K sweep
CHUNK_COLUMNS = 256         # even; chunk width up to m = 2**16, then ~ sqrt(m)
GROUP_TILES = 4             # tiles per step of the far sweep's anchor
SOLVE_SEGMENT = 2 ** 14     # unknowns per back substitution of the inverse diagonals
EIG_MAX_ITERS = 100          # a guard: lambda_min takes 2 or 3 steps on the fold's core


def _interior_weights(op: DiscreteOperator, ctx: NormContext) -> np.ndarray:
    """1/cosh(theta x) per interior unknown, interleaved pairwise."""
    return np.repeat(cosh_weights(op.grid.interior, ctx.theta), 2)


def _shifted(x, s, lo, end):
    """x_{i-s} at i = lo..end-1, zero before x_0."""
    out = np.zeros(end - lo)
    out[max(s - lo, 0):] = x[max(lo - s, 0):end - s]
    return out


def _inverse_diagonals(factor, alpha, beta):
    """T_ii and T_{i,i+1}, interleaved as unknowns 2i and 2i+1: the unit
    upper-triangular band of _near_triangles, back-substituted from the
    bottom up in segments of at most SOLVE_SEGMENT unknowns, so that no
    band over all 2m unknowns (five rows, half of them zeros) is built.
    A segment's band reaches into the two solved nodes below it; their
    own rows are made identity rows, with the solved values on the right,
    so every unknown is computed as in one back substitution of the whole
    band, bit for bit."""
    m = len(alpha)
    t = np.zeros(2 * m)
    t[0::2] = 1.0 / factor[2] ** 2
    nodes = max(1, SOLVE_SEGMENT // 2)
    for lo in range((m - 1) // nodes * nodes, -1, -nodes):
        hi = min(lo + nodes, m)
        end = min(hi + 2, m)
        band = np.zeros((5, 2 * (end - lo)), order="F")
        a1 = _shifted(alpha, 1, lo, end)
        b1 = _shifted(beta, 1, lo, end)
        band[4] = 1.0
        band[3, 0::2] = -a1
        band[2, 0::2], band[2, 1::2] = -a1 ** 2, -b1
        band[1, 1::2] = -2.0 * a1 * b1
        band[0, 0::2] = -_shifted(beta, 2, lo, end) ** 2
        solved = band[:4, 2 * (hi - lo):]      # their rows: identity
        solved[np.add.outer(np.arange(4), np.arange(solved.shape[1])) >= 4] = 0.0
        t[2 * lo:2 * end] = gbsv(0, 4, band, t[2 * lo:2 * end])
    return t


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
    recurrence from the unit anchor.  At j = i, where (U T)_ii = 1 / U_ii,
    and j = i + 1 it gives a_i = T_ii and b_i = T_{i,i+1} (Takahashi,
    Fagan & Chin 1973):
        a_i = alpha_i^2 a_{i+1} + 2 alpha_i beta_i b_{i+1} + beta_i^2 a_{i+2}
              + 1 / U_ii^2,
        b_i = alpha_i a_{i+1} + beta_i b_{i+1},
    one unit upper-triangular band of 2m unknowns and bandwidth 4, solved
    by back substitution (_inverse_diagonals).  From those two diagonals
    the recurrence runs up each tile on a two-row state, one numpy step
    per row for all tiles.  The state, the weights and g are held as
    (column, tile) arrays, so that each step works on whole rows.  The
    padding rows of the top tile, computed last, are clamped to row 0 and
    their results unused.
    """
    m, k = len(weights), g.shape[0]
    n_tiles = -(-m // c)
    pad = n_tiles * c - m
    alpha, beta = np.zeros(m), np.zeros(m)
    alpha[:-1] = -factor[1, 1:] / factor[2, :-1]
    beta[:-2] = -factor[0, 2:] / factor[2, :-2]
    t = _inverse_diagonals(factor, alpha, beta)
    d0, d1 = t[0::2], t[1::2]
    first = np.arange(n_tiles) * c - pad           # each tile's first (padded) row
    cols = np.maximum(np.arange(c)[:, None] + first, 0)    # the padding clamped to 0
    wt, gt = weights[cols], g[:, cols]             # (column, tile)
    del cols
    # rows i+1 and i+2: T over the tile's columns, then P
    s1, s2 = np.zeros((c + 2, n_tiles)), np.zeros((c + 2, n_tiles))
    s1[c - 1], s1[c], s2[c + 1] = d1[first + c - 1], 1.0, 1.0
    near, diag, prop = np.empty((n_tiles, c)), np.empty((n_tiles, c)), np.empty((n_tiles, c, 2))
    buf = np.empty((c + 2, n_tiles))

    def y_dot_g(rows, r):       # y[rows] . g over each tile's columns from r on
        if k == 1:
            return np.multiply(gt[0, r:], y[rows, 0], out=buf[r:c])
        return np.einsum("tk,kjt->jt", y[rows], gt[:, r:], out=buf[r:c])

    for r in range(c - 1, -1, -1):
        i = np.maximum(first + r, 0)
        new = s2[r + 1:]            # row i takes the place of row i+2
        np.multiply(new, beta[i], out=new)
        new += np.multiply(s1[r + 1:], alpha[i], out=buf[r + 1:])
        s2[r] = d0[i]
        if r:
            s2[r - 1] = d1[i - 1]
        s1, s2 = s2, s1
        row = y_dot_g(i, r)
        np.abs(np.subtract(s1[r:c], row, out=row), out=row)
        near[:, r] = np.einsum("jt,jt->t", row, wt[r:])
        diag[:, r] = row[0] * wt[r]
        prop[:, r] = s1[c:].T
    del alpha, beta, t, d0, d1, wt
    anchor = np.empty((n_tiles, 2, c))
    for a, state in enumerate((s1, s2)):
        v = y_dot_g(np.maximum(first + a, 0), 0)
        anchor[:, a] = np.subtract(state[:c], v, out=v).T
    return near.ravel()[pad:], diag.ravel()[pad:], prop.reshape(-1, 2)[pad:], anchor


def inv_constant_exact(
    op: DiscreteOperator,
    ctx: NormContext,
    orth_elements=None,
) -> float:
    """Exact discrete K: the infinity norm of solve composed with the
    weight map (and with the orthogonality projector, when given).

    Plain K is _plain_k: with s = (+1, -1, +1, ...) on the interleaved
    unknowns, |L^-1| = diag(s) L^-1 diag(s), so the weighted absolute
    row sums are s * solve(s * w), and s * w is J-odd, so that is the
    fold's solve, on its coupled core (which refuses negative coupling,
    where the identity fails).  Constrained K is the largest of
    _constrained_row_sums; the size guard applies to it only.
    """
    if not orth_elements:
        return _plain_k(op, ctx.theta)
    return float(np.max(_constrained_row_sums(op, ctx, orth_elements)))


def _plain_k(op: DiscreteOperator, theta: float) -> float:
    """Plain K, max(u) for u = diag(s) B^-1 diag(s) w on the fold B of
    op.odd_core(), with the fold's two chains eliminated exactly and one
    solve on its coupled core.  diag(s) B diag(s) is a Z-matrix with a
    nonnegative inverse, so u >= 0.  With b = 1/h^2 and n chain nodes, B
    is the core band C (built at omega, as the band rounds it), the dying
    chain D joined to core position 0 and the free chain V (2b + p on its
    diagonal, p = V1^2 + omega^2) joined to position 1, each by -b.  Each
    chain X meets the rest only through its end's link, so
    (Haynsworth, Linear Algebra Appl. 1 (1968) 73) the core solves
        S u_C = w_C + b (q_D . w_D) e_0 + b (q_V . w_V) e_1,
        S = C - g_D e_0 e_0^T - g_V e_1 e_1^T,
    q = X^-1 e_end, g = b^2 q_end, with diag(s) taken on S:
    - V: g_V and b q_V in closed form (_free_chain, _free_response), the
      sum over its last c nodes only.  b q_V <= 1 rises towards the core
      and w <= 2 exp(-theta |x|) falls away from it, while w >=
      exp(-theta |x|), so the nodes past the cut add at most 2r / (1 - r)
      <= 4r of the sum over the last c, r = exp(-theta c h); c =
      ceil(ln(4 / eps) / (theta h)) makes that at most eps (3,000 nodes
      at theta = 0.5, h = 1/40, whatever R is).
    - D: its diagonal is at least d_min > 2b, so its pivots are at least
      d* (_contraction) and q falls by at least rho = b / d* per node
      from the end: its last J nodes, rho^J <= eps (1 - rho), give g_D
      and q_D . w_D (w falls away from the core) to eps, from pivots in
      scalar rows.  J = n when D is not diagonally dominant.
    S is factored by pbtrf and solved by pbtrs with one step of
    refinement, u += S^-1 (rhs - S u), the residual in np.longdouble:
    the float64 solve is off by the conditioning of L(0) near lambda(0)
    (7e-10 relative at R = 800, omega = 0), the refined one by ~1e-12.
    Where np.longdouble is float64 the step is fixed-precision
    refinement, which mends the backward error, not that.

    K is the largest of u over the core and the chains' rows, which come
    from u's values at the joins, u_0 and u_1, by the maximum principle
    of the chains (u >= 0, X u_X = w_X + b u_join e_end):
    - D: u <= max(u_0, max w / (diag - 2b)) <= max(u_0, w_end / (d_min - 2b));
    - V, at p > 0: u <= max(u_1, w_end / p);
    - V, at p >= 0: V^-1 <= F^-1 entrywise, F = V - p I, and
      F^-1 e_n = k / (b (n+1)) at node k = 1..n, so u is below the
      concave v = F^-1 (w + b u_1 e_n) with v_(n+1) = u_1, which rises
      throughout, so that u <= u_1, where v_n <= u_1, i.e. where
      sum_k k w_k <= b u_1 (the sum over the last c nodes, times 1 +
      eps for the rest, as above).
    A bound is compared with K as computed: one off by its roundings can
    only hide a chain row within those roundings of K.  A chain no bound
    certifies has its rows solved (_chain_max): all of D's, and V's last
    c nodes with the rest eliminated in closed form, its part of w
    dropped (eps of the sum, as above), so that its rows rise to the cut.

    SingularSystem where S does not factor, a chain is not positive
    definite, or the smallest pivot (S's U_ii^2, V's last b^2 / g_V, D's
    last J) is below PIVOT_TOL times the largest diagonal of B; no
    operator1d factorization is made and smallest_pivot is left as it is.
    """
    a, _, dying, (d_lo, d_hi), v_pot = op.odd_core()
    n, b, eps = a // 2, 1.0 / op.grid.h ** 2, float(np.finfo(float).eps)
    band = fold(op._band_columns(a, op.n_unknowns // 2 + 2))
    nc = band.shape[1]
    band[1] = -band[1]          # diag(s) S diag(s): its couplings negated
    x = op.grid.interior
    rhs = np.repeat(cosh_weights(x[n:n + (nc + 1) // 2], theta), 2)[:nc]
    largest, chains = float(np.max(band[2])), math.inf
    if n:
        a_v, d_min = op._diagonal(v_pot), op._diagonal(d_lo)
        p = a_v - 2.0 * b
        rho = math.sqrt(_contraction(d_min, b)[0])
        j = n if rho >= 1.0 else min(n, math.ceil(math.log(eps * (1.0 - rho)) / math.log(rho)))
        c = min(n, math.ceil(math.log(4.0 / eps) / (theta * op.grid.h)))
        w = cosh_weights(x[n - max(c, j):n], theta)        # the chains' last nodes
        piv = np.array(_pivots(op._diagonal(dying[n - j:]).tolist(), b))
        g_v = _free_chain(n, b, -p)[0]
        largest = max(largest, op._diagonal(d_hi), a_v)
        chains = min(float(np.min(piv)), b * b / g_v)
        _smallest_pivot(chains, largest)        # a chain that is not positive definite
        # b q_D: b / d_end at the end, times b / p_k per node back from it
        rhs[0] += np.cumprod(b / piv[::-1])[::-1] @ w[-j:]
        rhs[1] += _free_response(n, b, -p, n - c) @ w[-c:]
        band[2, :2] -= (b * b / piv[-1], g_v)
    factor = _factored(pbtrf, band)
    _smallest_pivot(min(chains, float(np.min(factor[2] ** 2))), largest)
    u = pbtrs(factor, rhs)
    u += pbtrs(factor, _residual(band, u, rhs))
    k = float(np.max(u))
    if not n:
        return k
    if not w[-1] <= k * (d_min - 2.0 * b):
        k = max(k, _chain_max(op._diagonal(dying), b, cosh_weights(x[:n], theta), u[0]))
    if not (w[-1] <= k * p
            or p >= 0.0 and np.arange(n - c + 1, n + 1) @ w[-c:] * (1.0 + eps) <= b * u[1]):
        d = np.full(c, a_v)
        d[0] -= _free_chain(n - c, b, -p)[0]
        k = max(k, _chain_max(d, b, w[-c:], u[1]))
    return k


def _residual(band: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - A x in np.longdouble, rounded to float64, A the symmetric
    matrix of an upper band with two superdiagonals (_band_dot's)."""
    a, x = band.astype(np.longdouble), x.astype(np.longdouble)
    r = rhs - a[2] * x
    r[1:] -= a[1, 1:] * x[:-1]
    r[:-1] -= a[1, 1:] * x[1:]
    r[2:] -= a[0, 2:] * x[:-2]
    r[:-2] -= a[0, 2:] * x[2:]
    return r.astype(float)


def _chain_max(diag: np.ndarray, b: float, w: np.ndarray, join: float) -> float:
    """The largest entry of the solution of the chain with diagonal diag
    and -b beside it, at w plus b join on its last node: one pttrf and
    one pttrs (SingularSystem when the chain is not positive definite)."""
    d, e = _factored(pttrf, np.array(diag, dtype=float), np.full(len(diag) - 1, -b))
    v = np.array(w, dtype=float)
    v[-1] += b * join
    return float(np.max(pttrs(d, e, v)))


def _constrained_row_sums(op: DiscreteOperator, ctx: NormContext, orth_elements) -> np.ndarray:
    """Every weighted absolute row sum of M = L^-1 P diag(w), P the
    orthogonality projector: M = (T - y g^T) diag(w) with T = L^-1,
    y = L^-1 carriers and g^T = gram_inv @ zrows.

    op.factorization() eliminates L's four chains first (none when
    R <= T; ValueError unless the right ones mirror the left ones, whose
    rows give theirs) and factors the coupled core C, the Schur complement
    S = L / L_(chains), whose inverse is T_CC (Meurant 1992).  Every
    element must vanish on the two dying chains D (else ValueError), so
    g and the carriers are 0 there.  _row_sums forms M_CC's row sums from
    S's factor, with y_C from the carriers' solve by the same factor, so
    that T and y cancel within one factor.  The rest is exact:

    - dying columns: M_ij = T_ij w_j, and s_i s_j T_ij > 0, as
      diag(s) L diag(s) is a Stieltjes matrix for coupling >= 0 (else
      SegkernelError), so their share of row i is
      e_i = s_i (L^-1 (s w on D))_i, solved with the carriers;
    - the two living chains' rows and columns: chains.living_rows, for
      elements affine there (else ValueError), as past |x| = T;
    - dying rows: a chain meets the rest only through its end's link to
      its join J, so on its row i, M_iK = -link q_i M_JK off D, q the
      chain's response to its end's unit vector, and the row's share
      there is |link q_i| times J's.
    """
    m = op.n_unknowns
    log_w = -log_cosh(ctx.theta * op.grid.interior)
    weights = np.repeat(np.exp(log_w), 2)     # _interior_weights
    if m > EXACT_SIZE_GUARD:
        raise BudgetExceeded(
            f"{m} unknowns exceed the exact-method guard {EXACT_SIZE_GUARD}"
        )
    proj = Projector(orth_elements, op.grid, ctx)
    k = len(proj.zrows)
    f = op.factorization()
    if f.core.start != m - f.core.stop:     # chains of unequal lengths, or on one side only
        raise ValueError("L's chains are not mirror images: potentials not mirror exact")
    if any(np.any(proj.zrows[:, c]) or np.any(proj.carriers[c]) for c in f.chains[:2]):
        raise ValueError("an orthogonality element does not vanish on a dying chain")
    if f.chains:
        if np.any(op.coup < 0):
            raise SegkernelError("negative coupling 2 V1 V2: sign-flip identity fails")
        z = proj.zrows[:, f.chains[2]]
        if np.any(np.max(np.abs(np.diff(z, 2)), axis=1, initial=0.0)
                  > 64 * np.finfo(float).eps * np.max(np.abs(z), axis=1)):
            raise ValueError("an orthogonality element is not affine on a living chain")
    s = np.tile([1.0, -1.0], m // 2)
    rhs = np.zeros((m, k + 1))
    rhs[:, :k] = proj.carriers
    for chain in f.chains[:2]:
        rhs[chain, k] = s[chain] * weights[chain]
    g = proj.gram_inv @ proj.zrows
    y = op.solve_interior(rhs)
    del rhs, proj       # g and y are all that is used of them
    e, y = np.multiply(s, y[:, k], out=s), y[:, :k]
    core_sums = _row_sums(f.core_factor, y[f.core], g[:, f.core], weights[f.core])
    if f.chains:
        core_part, chain_rows = living_rows(f, y, g, log_w, TILE_ROWS)
        core_sums += core_part
        for chain in f.chains[2:]:      # mirror images of each other
            e[chain] += chain_rows
    e[f.core] += core_sums
    for chain, q, join in zip(f.chains[:2], f.q, f.joins):
        e[chain] += np.abs(f.link * q[:, 0]) * core_sums[join]
    return e


def _row_sums(factor, y, g, weights) -> np.ndarray:
    """Per row, the weighted absolute row sum of M = (T - y g^T) diag(w),
    T the inverse of a mirror-symmetric band A = U^T U, U = factor, and y
    = A^-1 carriers; no unit column is solved and T is never formed.
    (U T)_ij = 0 for j > i: past its diagonal, each row of T is a
    combination of the two rows below it.  Rows go in tiles of TILE_ROWS
    from the bottom up, the two rows a below a tile its anchor, and the
    work is split in three:

    1. _near_triangles: the diagonal and first off-diagonal of T, from
       the same relation at j = i and j = i + 1 (Takahashi, Fagan & Chin
       1973), one banded back substitution in scalar rows, in segments.
    2. _near_triangles: from those, the row recurrence up every tile at
       once gives the tile's triangle j >= i of M, hence its row
       sums and |M_ii|; the propagator P = -U_tt^-1 U_ta of each row, so
       that T[t, j] = P T[a, j] past the tile and (for M unweighted)
       M[t, j] = coef @ [M[a, j]; g_j], coef = [P, P y_a - y_t]; and the
       top two rows of M in each tile, the next tile's anchor.
    3. The far sweep, up groups of GROUP_TILES tiles.  Each tile sums
       the group's columns past it, and those up to the group's first
       chunk, entry by entry, from the anchor rows over those columns,
       re-based tile by tile; and carries its coef onto the generators
       of the group, gen = [M[a, j]; g_j] with a the group's anchor, by
       acc = [step @ acc; I].  Past the group the columns go in chunks
       of about sqrt(m), one parity of j at a time.  The range of each
       generator over a chunk, as midpoint and radius, bounds M[r, j],
       and where that bound keeps one sign the chunk adds
       |coef_r . sum_j gen_j w_j|; only the (row, chunk) pairs whose
       bound holds 0 are summed entry by entry, once per group.  The
       sign s_j is constant along one parity of j, and as diag(s) L
       diag(s) is a Stieltjes matrix, a row of M changes sign only a
       few times there, so that is a few chunks per row.  Once
       per group, the anchor past it (an O(m) product) and the chunk
       ranges and sums are then carried to the group above, the ranges
       made exact again where they straddled.

    Only the sums over j >= i are formed: band, weights and projector
    commute with the reflection, so M[m-1-i, m-1-j] = M[i, j] and the
    sums over j <= i are those of the mirror row.
    """
    m, k = len(weights), len(g)
    c = min(TILE_ROWS, m)
    yp = np.vstack((y, np.zeros((2, k))))
    upper, diag, prop, anchor = _near_triangles(factor, yp, g, weights, c)
    width = CHUNK_COLUMNS * max(1, math.isqrt(m // (64 * CHUNK_COLUMNS)))   # ~ sqrt(m)
    n_chunks = -(-m // width)
    # the generators, zero past m: the anchor M[g1:g1+2, j] for j >= g1, g^T
    gen = np.zeros((2 + k, max(n_chunks * width, m + 2)))
    gen[2:, :m] = g
    wpad = np.concatenate((weights, np.zeros(gen.shape[1] - m)))
    # per chunk q and component (parity of j), in columns 2q and 2q+1: the
    # midpoint and radius of each generator's range, and its sums of gen * w
    # (the anchor's: past the group)
    mid, rad, sums = np.zeros((3, 2 + k, 2 * n_chunks))

    def columns(q):
        """Columns and weights of chunks q, a row per chunk and component;
        past m the component's last column, with weight 0."""
        cols = q[:, None, None] * width + np.arange(2)[:, None] + 2 * np.arange(width // 2)
        last = np.minimum(cols, m - 2 + np.arange(2)[:, None])
        return last.reshape(-1, width // 2), wpad[cols].reshape(-1, width // 2)

    def chunk_stats(rows, q):
        """Exact ranges and sums of gen[rows] over the chunks q."""
        cols, w = columns(q)
        v = gen[rows[:, None, None], cols]
        r, idx = rows[:, None], (2 * q[:, None] + np.arange(2)).ravel()
        lo, hi = v.min(axis=2), v.max(axis=2)
        mid[r, idx], rad[r, idx] = 0.5 * (lo + hi), 0.5 * (hi - lo)
        sums[r, idx] = np.einsum("rqj,qj->rq", v, w)

    def abs_dot(a, v, w):
        """|a @ v| @ w, through one temporary."""
        p = a @ v
        return np.abs(p, out=p) @ w

    def certified(a, s, straddle):
        """Sum over the chunks s of |a @ gen| w where the range of a @ gen,
        a @ mid +- |a| @ rad, keeps one sign; straddle flags the (row,
        chunk) pairs where it holds 0 inside (exact zeros certify)."""
        centre = a @ mid[:, s]
        np.less(np.abs(centre, out=centre), np.abs(a) @ rad[:, s], out=straddle)
        del centre
        chunk = a @ sums[:, s]
        np.abs(chunk, out=chunk)[straddle] = 0.0
        return chunk.sum(axis=1)

    for q in np.array_split(np.arange(n_chunks), -(-n_chunks // 64)):   # bounded temporaries
        chunk_stats(np.arange(2, 2 + k), q)
    eye = np.eye(2 + k)
    tiles = list(zip(anchor[::-1], range(m, 0, -c)))
    for first in range(0, len(tiles), GROUP_TILES):
        group = tiles[first:first + GROUP_TILES]
        g1, g0 = group[0][1], max(0, group[-1][1] - c)
        qa = -(-g1 // width)            # the first chunk past the group
        e, s = qa * width, slice(2 * qa, None)
        # up to that chunk, the tile's anchor rows and g, summed entry by
        # entry; the group's rows on the generators of the chunks past it,
        # and their straddles
        loc = gen[:, g0:e].copy()
        acc = eye.copy()
        coefs = np.empty((g1 - g0, 2 + k))
        straddle = np.zeros((g1 - g0, 2 * (n_chunks - qa)), dtype=bool)
        for top, i1 in group:
            i0 = max(0, i1 - c)
            own, rows = slice(i1 - g0, None), slice(i0 - g0, i1 - g0)
            p = prop[i0:i1]
            coef = np.concatenate((p, p @ yp[i1: i1 + 2] - yp[i0:i1]), axis=1)
            cg = np.matmul(coef, acc, out=coefs[rows])
            far = abs_dot(coef, loc[:, own], wpad[i1:e])
            if qa < n_chunks:       # the straddles summed for the whole group below
                far += certified(cg, s, straddle[rows])
            upper[i0:i1] += far
            # the tile's next anchor, rows i0 and i0+1 (for one row, i0+1 is
            # the old i1), up to the chunks and on the group's generators
            step = coef[:2] if i1 - i0 > 1 else np.concatenate((coef, eye[:1]))
            loc[:2, own] = step @ loc[:, own]
            loc[:2, rows] = top[:, c - (i1 - i0):]
            acc[:2] = step @ acc
        hit = straddle.any(axis=0)
        for blk in np.flatnonzero(hit):     # sum the rows that straddle entry by entry
            rows = np.flatnonzero(straddle[:, blk])
            j = slice((qa + blk // 2) * width + blk % 2, (qa + blk // 2 + 1) * width, 2)
            upper[g0 + rows] += abs_dot(coefs[rows], gen[:, j], wpad[j])
        # the next group's anchor, rows g0 and g0+1, and its chunk stats:
        # carried, but exact for the chunks now wholly past the next group
        # and, as carried ranges widen, for those that straddled
        step = acc[:2]
        gen[:2, e:] = step @ gen[:, e:]
        gen[:2, g0:e] = loc[:2]
        mid[:2, s], sums[:2, s] = step @ mid[:, s], step @ sums[:, s]
        rad[:2, s] = np.abs(step) @ rad[:, s]
        exact = np.concatenate((np.arange(-(-g0 // width), qa),
                                qa + np.flatnonzero(hit.reshape(-1, 2).any(axis=1))))
        if exact.size:
            chunk_stats(np.arange(2), exact)
    # M[m-1-i, m-1-j] = M[i, j]: the lower row sums are the upper ones reversed
    return upper + upper[::-1] - diag


def inv_constant_estimate(
    op: DiscreteOperator,
    ctx: NormContext,
    orth_elements=None,
    seed: int = 42,
) -> float:
    """Public alias of inv_constant_exact under the estimate's name: exact
    K, plain or constrained, bit for bit, under the same size guard; seed
    is accepted and changes nothing."""
    return inv_constant_exact(op, ctx, orth_elements)


def _perron_lower_bound(band: np.ndarray, v: np.ndarray, schur=(),
                        known: float = math.inf) -> float:
    """Rigorous lower bound on lambda_min of the symmetric matrix A of
    band from any [v; -v reversed], less schur[j] on A's diagonal at each
    row j, and with further rows, outside the band, whose quotients are
    known to be at least known.

    The off-diagonals of D A D, D = diag(s), are the band's row 0 (L's
    -1/h^2) and minus its row 1 (L's couplings), so it is a Z-matrix when
    band[1] >= 0.  Then for x = |v| > 0 (floored at tiny) lambda_min >=
    min_i (D A D x)_i / x_i (Collatz-Wielandt; Varga, Matrix Iterative
    Analysis, ch. 2), with (D A D x)_i = A_ii x_i - sum_{j != i} |A_ij| x_j
    read off the band in four shifted slices.  Each row is a sum of five
    products, rounded at most five times, so it is off by at most gamma_5
    times its absolute term sum, 2 d_i x_i - (D A D x)_i with d = band[2]
    (Higham, Accuracy and Stability, sec. 3.1); gamma_6 of its computed
    value covers that, 4 smallest subnormals the underflow.  A is mirror
    exact, so rows i and m-1-i have the same quotient: only the first
    h = len(v) are formed, from the band's first h + 2 columns, in x and
    two reused buffers.  Row j's quotient is bounded at its own size,
    before schur[j] is taken off.
    """
    h, band = len(v), band[:, :len(v) + 2]
    if np.any(band[1] < 0):     # D A D is not a Z-matrix
        return -math.inf
    fp = np.finfo(float)
    x = np.empty(h + 2)
    x[:h], x[h:] = v, v[:-3:-1]
    np.maximum(np.abs(x, out=x), fp.tiny, out=x)
    d = band[2]
    dldx, tmp = np.multiply(d, x), np.empty(h + 2)
    dldx[1:] -= np.multiply(band[1, 1:], x[:-1], out=tmp[1:])
    dldx[:-1] -= np.multiply(band[1, 1:], x[1:], out=tmp[:-1])
    dldx[2:] += np.multiply(band[0, 2:], x[:-2], out=tmp[2:])
    dldx[:-2] += np.multiply(band[0, 2:], x[2:], out=tmp[:-2])
    gamma6 = 3.0 * fp.eps / (1.0 - 3.0 * fp.eps)
    err = np.multiply(2.0, d, out=tmp)      # gamma6 (2 d x - dldx) + 4 subnormals
    err *= x
    err -= dldx
    err *= gamma6
    err += 4.0 * fp.smallest_subnormal
    np.divide(np.subtract(dldx, err, out=err), x, out=err)     # the quotients
    for j, g in enumerate(schur):   # its two roundings at its own size, and g's subtraction
        q = float(err[j])
        err[j] = q - g - 4.0 * fp.eps * (abs(q) + g)
    low = min(float(np.min(err[:h])), known)
    return low - 3.0 * fp.eps * abs(low)      # the quotients' two roundings


def _angle(b: float, tau: float) -> float:
    """t with tau = 4b sin^2(t/2) for tau > 0, or 4b sinh^2(t/2) for tau < 0."""
    root = math.sqrt(abs(tau) / (4.0 * b))
    return 2.0 * (math.asin(root) if tau > 0.0 else math.asinh(root))


def _free_chain(n: int, b: float, tau: float) -> tuple[float, float]:
    """(g, dg) of the free chain F of n nodes, 2b on its diagonal and -b
    beside it, shifted by tau: g = b^2 e^T (F - tau)^-1 e, e the unit
    vector of its last node, and dg = dg/dtau = b^2 |(F - tau)^-1 e|^2,
    in closed form.  With tau = 4b sin^2(t/2), (F - tau)^-1 e has the
    entries sin(k t) / (b sin((n+1) t)), k = 1..n, below F's first
    eigenvalue 4b sin^2(pi / (2(n+1))), where (n+1) t < pi, and
    sum_k sin^2(k t) = (2n+1)/4 - sin((2n+1) t) / (4 sin t); sinh for
    tau < 0, in exponentials that do not overflow, and k / (b (n+1)) at
    0.  At or past the first eigenvalue g is +inf."""
    if tau > 0.0:
        if tau >= 4.0 * b:
            return math.inf, math.inf
        t = _angle(b, tau)
        s = math.sin((n + 1) * t)
        if (n + 1) * t >= math.pi or s <= 0.0:
            return math.inf, math.inf
        return (b * math.sin(n * t) / s,
                ((2 * n + 1) / 4.0 - math.sin((2 * n + 1) * t) / (4.0 * math.sin(t))) / (s * s))
    if tau == 0.0:
        return b * n / (n + 1), n * (2 * n + 1) / (6.0 * (n + 1))
    t = _angle(b, tau)
    e1 = -math.expm1(-2.0 * (n + 1) * t)
    return (b * math.exp(-t) * -math.expm1(-2.0 * n * t) / e1,
            (math.exp(-t) * -math.expm1(-2.0 * (2 * n + 1) * t) / (2.0 * math.sinh(t))
             - (2 * n + 1) * math.exp(-2.0 * (n + 1) * t)) / (e1 * e1))


def _free_response(n: int, b: float, tau: float, lo: int = 0) -> np.ndarray:
    """b (F - tau)^-1 e of _free_chain at its nodes k = lo+1..n, positive
    below F's first eigenvalue."""
    k = np.arange(lo + 1, n + 1)
    if tau == 0.0:
        return k / (n + 1)
    t = _angle(b, tau)
    if tau > 0.0:
        return np.sin(k * t) / math.sin((n + 1) * t)
    return np.exp((k - (n + 1)) * t) * -np.expm1(-2.0 * t * k) / -math.expm1(-2.0 * (n + 1) * t)


def _pivots(diag: list, b: float, sigma: float = 0.0) -> list:
    """The pivots p_k = (diag_k - sigma) - b^2 / p_(k-1) of the chain with
    diagonal diag - sigma (a list) and -b beside it, three roundings a
    node, up to the first that is not positive."""
    b2, pivots, d = b * b, [], math.inf
    for a in diag:
        d = (a - sigma) - b2 / d
        pivots.append(d)
        if not d > 0.0:
            break
    return pivots


def _chain_end(diag: list, b: float, sigma: float) -> tuple[float, float, float]:
    """(g, dg, d) of the chain with diagonal diag - sigma (a list) and -b
    beside it, ending at its last node: its last pivot d (_pivots), g =
    b^2 / d and dg = b^2 |q|^2, q = (chain)^-1 e, e the unit vector of its
    last node: q_n = 1 / d and q_k = q_(k+1) b / p_k (as
    operator1d._tail_first forms q).  Scalar rows: the chains it serves
    are a few dozen nodes."""
    if not diag:
        return 0.0, 0.0, math.inf
    pivots = _pivots(diag, b, sigma)
    d = pivots[-1]
    q = 1.0 / d
    total = q * q
    for piv in reversed(pivots[:-1]):
        q *= b / piv
        total += q * q
    return b * b / d, b * b * total, d


def _contraction(a: float, b: float) -> tuple[float, float]:
    """(r, d) for a chain with diagonal at least a > 2b and -b beside it:
    its pivots are at least d = (a + sqrt(a^2 - 4b^2)) / 2, the fixed
    point of p -> a - b^2/p, so a change in one pivot reaches the next
    times at most r = (b/d)^2 < 1.  (1, 0) when a <= 2b."""
    if not a > 2.0 * b:
        return 1.0, 0.0
    d = 0.5 * (a + math.sqrt((a - 2.0 * b) * (a + 2.0 * b)))
    return (b / d) ** 2, d


def _band_dot(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric matrix A of an upper band with two
    superdiagonals; the entries of band[0, :2] and band[1, 0] are unused."""
    y = band[2] * x
    y[1:] += band[1, 1:] * x[:-1]
    y[:-1] += band[1, 1:] * x[1:]
    y[2:] += band[0, 2:] * x[:-2]
    y[:-2] += band[0, 2:] * x[2:]
    return y


def _certified_eigenvalue(op: DiscreteOperator) -> tuple[float, float]:
    """lambda_min(0), of op's L(0), and a rigorous lower bound on it, by
    Rayleigh functional iteration on the Schur complement of the fold's
    chains.

    With a = 2n the fold B's first core unknown (op.odd_core) and b =
    1/h^2, B is its core band C, the dying chain D (u1 on the left, under
    V2^2) joined to core position 0 and the free chain V (u2 on the left,
    under V1^2 = 0, or a constant p) joined to core position 1, each by
    -b.  B - sigma I is positive definite exactly when both chains are, at
    sigma, and so is
        S(sigma) = C - sigma I - g_D(sigma) e_0 e_0^T - g_V(sigma) e_1 e_1^T,
    g = b^2 e^T (chain - sigma)^-1 e, e its end's unit vector (Haynsworth,
    Linear Algebra Appl. 1 (1968) 73), and S' = -I - g_D' e_0 e_0^T -
    g_V' e_1 e_1^T.  g_V and g_V' are in closed form (_free_chain).  D's
    pivots contract a change by r per node (_contraction at its smallest
    diagonal, below V's first eigenvalue, the pole), so its last J nodes,
    r^J <= eps, give g_D and g_D' (_chain_end).

    The iteration runs on the core alone, from the box mode s * cos(pi x /
    (2R)) there.  Its first step is one of inverse iteration, u <-
    S(shift)^-1 S'(shift) u at a shift where S is positive definite (0,
    or below it), which leaves mostly the lambda_min eigenvector; the
    next are Rayleigh functional iteration (Ruhe, SIAM J. Numer. Anal. 10
    (1973) 674): u <- S(rho)^-1 S'(rho) u by one gbsv, rho the root of
    u^T S(rho) u = 0, a Rayleigh quotient of B and so an upper bound on
    lambda_min.  It stops at the first step that does not lower rho or
    lowers it by at most eps^(1/3) |rho| (it converges cubically), or
    raises NoConvergence after EIG_MAX_ITERS steps.

    The lower bound is _perron_lower_bound's on B less D (Haynsworth
    again, D - sigma being diagonally dominant), its Schur term at core
    row 0 bounded above at rho (_dying_bound), for the vector of one more
    step of inverse iteration, at ell = rho - delta / 8, on the core (x_C,
    floored at tiny) and extended over V by x_1 r, r = b (V - ell)^-1 e_n
    its exact response (_free_response at tau = ell - p, positive below
    the pole).  Then (V - ell) r = b e_n makes every quotient on V's rows
    ell exactly, its last too, whose link to core row 1 adds -b x_1
    against the b x_1 of r's end: nothing of V is evaluated.  V enters
    core row 1 only as -b x_1 r_n, i.e. g_V(ell) = b r_n off its quotient,
    which _free_bound bounds above, with its closed form's roundings.
    With p != 0, tau = ell - p is rounded, and V's quotients are tau + p,
    within eps |tau| of ell.  NoConvergence is raised unless the bound is
    within delta of rho."""
    a, cols, dying, (d_lo, _), v_pot = op.odd_core()
    n, b, core = a // 2, 1.0 / op.grid.h ** 2, fold(cols)
    nc = core.shape[1]
    p = op._diagonal(v_pot, 0.0) - 2.0 * b if n else 0.0
    pole = p + 4.0 * b * math.sin(math.pi / (2 * (n + 1))) ** 2 if n else math.inf
    d_min = op._diagonal(d_lo, 0.0)     # of L(0): the smallest of D's diagonal
    r, _ = _contraction(d_min - pole, b)
    j = n if r >= 1.0 else min(n, math.ceil(math.log(np.finfo(float).eps) / math.log(r)))
    tail = op._diagonal(dying[n - j:], 0.0).tolist()

    @functools.lru_cache(maxsize=4)
    def terms(sigma):
        """(g_D, g_D', g_V, g_V') at sigma."""
        if not n:
            return 0.0, 0.0, 0.0, 0.0
        g_d, dg_d, _ = _chain_end(tail, b, sigma)
        return (g_d, dg_d) + _free_chain(n, b, sigma - p)

    def root(u, x):
        """The Rayleigh functional of u, the root of f(x) = u^T S(x) u,
        from x.  f falls and is concave below the pole, so Newton's steps
        fall towards the root from its right and overshoot it from its
        left; a step that leaves the bracket halves it until a point right
        of the root is found, and the first that leaves it after that ends
        the search at that point, as does a step too small to move x."""
        uu, ucu, u0, u1 = map(float, (u @ u, u @ _band_dot(core, u), u[0] ** 2, u[1] ** 2))
        left, right, found = -math.inf, pole, False
        while True:
            g_d, dg_d, g_v, dg_v = terms(x)
            fx, slope = ucu - x * uu - g_d * u0 - g_v * u1, uu + dg_d * u0 + dg_v * u1
            if fx > 0.0:
                left = x
            else:
                right, found = x, True
            step = x + fx / slope
            if step == x:
                return x
            if not left < step < right:
                if found:
                    return right
                step = 0.5 * (left + right)
            x = step

    def shifted(sigma, rows):
        """S(sigma) in upper (rows = 3) or general (rows = 5) band storage."""
        s = np.zeros((rows, nc))
        s[:3] = core
        s[2] -= sigma
        g_d, _, g_v, _ = terms(sigma)
        s[2, :2] -= (g_d, g_v)
        if rows == 5:
            s[3, :-1], s[4, :-2] = core[1, 1:], core[0, 2:]
        return s

    def step(u, sigma, solve):
        """S(sigma)^-1 S'(sigma) u, normalised, by solve."""
        _, dg_d, _, dg_v = terms(sigma)
        rhs = -u
        rhs[:2] -= (dg_d * u[0], dg_v * u[1])
        y = solve(rhs)
        return y / np.linalg.norm(y)

    signs = np.ones(nc)
    signs[1::2] = -1.0
    x = op.grid.interior[n:n + (nc + 1) // 2]
    u = signs * np.repeat(np.cos(np.pi / (2.0 * op.grid.R) * x), 2)[:nc]
    # a shift where S is positive definite: 0 (p, if below), else below it
    # in doubling steps from the rounding level of the core's diagonal
    shift, down = min(0.0, p), 64.0 * np.finfo(float).eps * float(np.max(core[2]))
    while True:
        try:
            factor = pbtrf(shifted(shift, 3))
            break
        except np.linalg.LinAlgError:
            shift, down = min(shift, 0.0) - down, 2.0 * down
    u = step(u, shift, lambda v: pbtrs(factor, v))
    rho = root(u, shift)
    for _ in range(EIG_MAX_ITERS - 1):
        try:
            y = step(u, rho, lambda v: gbsv(2, 2, shifted(rho, 5), v))
        except np.linalg.LinAlgError:       # S(rho) is singular: rho is lambda_min
            break
        rho_y = root(y, rho)
        if not rho_y < rho:
            break
        # the iteration converges cubically: after a fall of f, the next
        # is about f^3 / rho^2, less than a rounding of rho once f <=
        # eps^(1/3) |rho|
        u, rho, fell = y, rho_y, rho - rho_y
        if fell <= np.finfo(float).eps ** (1.0 / 3.0) * abs(rho):
            break
    else:
        raise NoConvergence(f"eigenvalue iteration hit {EIG_MAX_ITERS} iterations",
                            last_value=rho)
    # the certificate's vector: one more step, from u with its signs made
    # exact, at ell, where S is positive definite, so that diag(s) S(ell)
    # diag(s) is a Stieltjes matrix with a nonnegative inverse: every entry
    # comes out positive and accurate to round-off, however small, and
    # every Collatz-Wielandt quotient is at least ell
    delta = max(1e-6 * abs(rho), 64.0 * np.finfo(float).eps * float(np.max(core[2])))
    ell = rho - delta / 8.0
    try:
        factor = pbtrf(shifted(ell, 3))
    except np.linalg.LinAlgError:
        raise NoConvergence(f"eigenvalue certificate failed: lambda_min is below "
                            f"{ell:.17g}, under rho = {rho:.17g}", last_value=rho) from None
    u = step(signs * np.abs(u), ell, lambda v: pbtrs(factor, v))
    # the core and its mirrors, B less D and V: D's Schur term at row 0,
    # V's at row 1, and V's rows, each of whose quotients is ell - p + p
    if n:
        tau = ell - p
        schur = (_dying_bound(d_min, n, tail, b, rho), _free_bound(n, b, tau))
        low = _perron_lower_bound(cols, u, schur, ell - np.finfo(float).eps * abs(tau))
    else:
        low = _perron_lower_bound(cols, u)
    if not rho - low <= delta:
        raise NoConvergence(f"eigenvalue certificate failed: lower bound {low:.17g} is not "
                            f"within {delta:.3g} of {rho:.17g}", last_value=rho)
    return rho, low


def _dying_bound(d_min: float, n: int, tail: list, b: float, sigma: float) -> float:
    """An upper bound on D's Schur term g_D(sigma) = b^2 / d, d its last
    pivot at sigma, from the pivot dt of its last J = len(tail) nodes
    alone (_chain_end), D of n nodes with smallest diagonal d_min.  With
    r and d* from _contraction at d_min less sigma (d* a lower bound on
    each pivot), dt is at least d, and at most r^J d* above it when J < n
    (the pivot before the cut is at most b^2 / d* off); _chain_end's
    roundings, with that of b^2, are at most eps times the node's
    diagonal less sigma, or b, each, and contract by r per node.  +inf
    when D is not diagonally dominant at sigma."""
    eps = np.finfo(float).eps
    r, d_low = _contraction((d_min - sigma) * (1.0 - 4.0 * eps), b)
    if r >= 1.0:
        return math.inf
    r = r * (1.0 + 8.0 * eps)
    _, _, dt = _chain_end(tail, b, sigma)
    off = 4.0 * eps * (max(tail) + abs(sigma)) / (1.0 - r)
    if len(tail) < n:
        off += r ** len(tail) * d_low
    if not dt - off > 0.0:
        return math.inf
    return b * b * (1.0 + 4.0 * eps) / ((dt - off) * (1.0 - 2.0 * eps))


def _free_bound(n: int, b: float, tau: float) -> float:
    """An upper bound on the free chain's Schur term g = b^2 e^T (F -
    tau)^-1 e of _free_chain, n >= 1, from its closed form and a bound on
    that form's roundings; +inf at or past F's first eigenvalue.  With
    u = eps/2 and sqrt, sin, asin, asinh, exp and expm1 each within one
    ulp (2u) of the exact value, t = _angle is off by at most 4.2u
    relative (asin and asinh of x <= sin(pi/4) magnify x's 1.5u by at
    most sqrt(2)), and a = n t by 5.2u.  sin(a) then moves by |a cot a|
    times that, relative, and exp(-t) by t times it, while -expm1(-y)
    magnifies y's error by at most 1: so g is off by at most 3 eps (1 +
    |n t cot n t| + |(n+1) t cot (n+1) t|) for tau > 0, 4 eps (3 + t) for
    tau < 0 and eps at 0 (first order; 4 eps (3 + kappa) covers each)."""
    g, _ = _free_chain(n, b, tau)
    if not math.isfinite(g):
        return math.inf
    kappa = 0.0
    if tau:
        t = _angle(b, tau)
        kappa = t if tau < 0.0 else sum(abs(a / math.tan(a)) for a in (n * t, (n + 1) * t))
    return g * (1.0 + 4.0 * np.finfo(float).eps * (3.0 + kappa))


def smallest_eigenvalue(op: DiscreteOperator, shared: dict | None = None) -> float:
    """Certified smallest eigenvalue of the interior banded matrix.

    L = L(0) + omega^2 I exactly, so lambda_min(omega) = lambda_min(0) +
    omega^2: the iteration and its certificate run on L(0), whose fold
    op.odd_core() gives free of omega, and omega^2 is added to the
    result and to a NoConvergence's last value.  shared,
    when given, maps each Grid on which L(0) is certified positive
    definite to its lambda_min(0), so that every operator on that grid
    (of the same profile) reuses it.

    As diag(s) L diag(s) is an irreducible Stieltjes matrix, s = (+1, -1,
    ...), the lambda_min eigenvector of L is diag(s) p with p > 0 unique
    (Perron-Frobenius), hence J-odd: _certified_eigenvalue finds it on
    the fold's coupled core, its chains eliminated in closed form, with
    no solve over the chains, and brackets lambda_min(0) between a
    rigorous lower bound and rho.  SingularSystem is raised when rho +
    omega^2 <= 0, as L is then not positive definite, NoConvergence when
    the bracket holds 0 or is wider than delta.
    """
    w2 = op.w2
    if shared is not None and op.grid in shared:
        return shared[op.grid] + w2
    try:
        rho0, low0 = _certified_eigenvalue(op)
    except NoConvergence as exc:
        exc.last_value += w2
        raise
    if shared is not None and low0 > 0.0:
        shared[op.grid] = rho0
    if low0 + w2 > 0.0:
        return rho0 + w2
    if rho0 + w2 <= 0.0:
        raise SingularSystem(f"L is not positive definite: lambda_min <= {rho0 + w2:.3e}")
    raise NoConvergence(f"eigenvalue certificate failed: lower bound {low0 + w2:.17g} "
                        f"is not positive", last_value=rho0 + w2)


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
    shared: dict | None = None,
) -> SweepRecord:
    """Run one sweep point, K by inv_constant_exact for either method;
    failures are recorded, not raised; shared goes to smallest_eigenvalue."""
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
            lam = smallest_eigenvalue(op, shared)
        except NoConvergence as exc:
            lam = exc.last_value if exc.last_value is not None else float("nan")
            err = f"NoConvergence: {exc}"
        k_val = inv_constant_exact(op, ctx, orth_elements=elements)
        ce = lower_bound_from_counterexample(p, point.theta, point.omega,
                                             point.R, point.N)
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


def run_sweep(p: ProfileTable, plan):
    """Run the whole plan in order, one entry at a time; lambda_min(0) is
    computed once per grid and shared by the points on it."""
    shared = {}
    return [run_sweep_entry(p, pt, shared) for pt in plan]
