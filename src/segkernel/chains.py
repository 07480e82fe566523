"""Constrained K's row sums over L's living chains, from their inverses
in closed form.

Past |x| = T the profile's tail extension sets V1 = 0 on the left and
V2 = 0 on the right, so there u2 on the left and u1 on the right are
free chains -d2/h2 + omega^2: Toeplitz tridiagonals that meet the
coupled core only through their ends' links to their joins.
DiscreteOperator.factorization() eliminates them first, with the dying
chains, and invertibility's sweep runs on the core alone; living_rows
gives the chains' share of the core rows' sums and every other share of
the chains' own rows, from the identities of the block inverse through
the Schur complement (Meurant, SIAM J. Matrix Anal. Appl. 13 (1992)
707) and the semiseparable inverse of a tridiagonal (Vandebril, Van
Barel & Mastronardi, Matrix Computations and Semiseparable Matrices,
vol. 1, 2008).
"""

from __future__ import annotations

import numpy as np

from .lapack import pbtrs


def living_rows(f, y, g, log_w, tile):
    """Weighted absolute row sums of M = (T - y g^T) diag(w), T = L^-1,
    for f = L's factorization, y = T carriers (m x k), g the projector's
    scaled element rows (k x m), w = exp(log_w) at each interior node, on
    both its components (log_w in logs, as the chains' weights may
    underflow where their inverse overflows): the living chains' share of the
    core rows' sums (core order), and all but the dying columns' share of
    the rows of V, the left living chain (the right one's rows are its
    mirror images), in V's order from the far end to the chain end next
    to its join J, core position 1.  Tiles have `tile` rows.

    V meets the rest only through its end's link to J, so for every K off
    V, T[t, K] = rho_t T[J, K], rho = -link q > 0 and convex (the free
    chain's response).  Its own block is the free chain's inverse G plus
    rho rho^T T_JJ (Meurant), and G_ts = q_s q_(n-1-t) / q_0 for s <= t,
    as G is persymmetric: T_ts = rho_s mu_t for s <= t, with
    mu = h^2 (q reversed) / q_0 + rho T_JJ, convex too.  rho and mu are
    held in logs, as their range can exceed float64's.  T's column at J
    over the core C is one solve with its factor, the Schur complement
    of the chains, whose inverse is T_CC.  g is affine on V,
    g_s = g_0 + s dg, so each row of M over V's columns is a convex
    sequence up to its sign, summed by _convex_sums: the core rows
    (T_iJ rho_s); the right chain's rows, by the mirror the left chain's
    rows over the right chain's columns (rho_t T[J', J] rho_s); and V's
    own rows up to their diagonal (mu_t rho_s) and, the chain reversed,
    past it (rho_t mu_s).  V's rows over C are
    M_tK = rho_t M_JK - c_t . g_K w_K, c = y_V - rho y_J: _tile_sums."""
    core, left, right = f.core, f.chains[2], f.chains[3]
    n, n_core = len(range(*left.indices(len(y)))), core.stop - core.start
    unit = np.zeros(n_core)
    unit[1] = 1.0
    t_j = pbtrs(f.core_factor, unit)
    # q_(n-1) = 1 / d_end and q_s = -e_s q_(s+1), as _tail_first forms q
    end, log_h2 = f.ends[2], -np.log(-f.link)
    log_rho = np.full(n, -np.log(f.d[end]) - log_h2)
    log_rho[:-1] += np.cumsum(np.log(-f.e[end - n + 1:end])[::-1])[::-1]
    log_mu = np.logaddexp(log_rho[::-1] - log_rho[0] + log_h2, log_rho + np.log(t_j[1]))
    g_v, y_v = g[:, left], y[left]
    g0, dg = g_v[:, 0], (g_v[:, -1] - g_v[:, 0]) / max(n - 1, 1)
    ends = np.column_stack((g0, dg))
    with np.errstate(divide="ignore"):  # an entry of T may underflow to 0
        log_t = np.log(np.abs(t_j))
    sign = np.where(t_j < 0, -1.0, 1.0)[:, None]     # t_j[-2] = T[J', J]
    t = np.arange(n)
    over_v = _convex_sums(tile, log_rho, log_w[:n],
                          np.concatenate((log_t, log_rho + log_t[-2], log_mu)),
                          np.concatenate((sign * (y[core] @ ends), sign[-2] * (y[right] @ ends),
                                          y_v @ ends)),
                          np.concatenate((np.full(n_core + n, n), t + 1)))
    # past the diagonal, the chain reversed: g_0 + (n - 1) dg, and -dg
    past = _convex_sums(tile, log_mu[::-1], log_w[n - 1::-1], log_rho,
                        y_v @ np.column_stack((g0 + (n - 1) * dg, -dg)), n - 1 - t)
    w_c = np.repeat(np.exp(log_w[core.start // 2:core.stop // 2]), 2)
    rho, y_j, g_c = -f.link * f.q[2][:, 0], y[core.start + 1], g[:, core]
    gen = np.vstack(((t_j - y_j @ g_c) * w_c, -g_c * w_c))
    sums = _tile_sums(tile, np.column_stack((rho, y_v - rho[:, None] * y_j)), gen)
    sums += over_v[n_core:n_core + n]
    sums += over_v[n_core + n:]
    sums += past
    core_part = over_v[:n_core]
    return core_part + core_part[::-1], sums


def _convex_sums(tile, phi, log_w, c, b, hi):
    """Per row r, the sum over s < hi_r of |F_r(s)| exp(log_w_s), F_r(s) =
    exp(c_r + phi_s) - b_r0 - s b_r1 with exp(phi) convex in s, so that F_r
    is convex: it is negative on one run [z1, z2) at most, and the sum is
    S(0, hi) - 2 S(z1, z2), S(a, b) the sum of F_r exp(log_w) over [a, b)
    from prefix sums of exp(phi + log_w) (in logs), of exp(log_w) and of
    s exp(log_w).  The run follows from F at the ends: where their signs
    differ, one bracketed search; where both are >= 0 and F falls from
    its start and rises to its end, F's minimum (by bisection on its
    differences) and, where it is negative, the run's ends are searched.
    Rows go in blocks of `tile`^2, which bounds the per-row temporaries."""
    n = len(phi)
    log_p, w_p, sw_p = np.full(n + 1, -np.inf), np.zeros(n + 1), np.zeros(n + 1)
    np.logaddexp.accumulate(phi + log_w, out=log_p[1:])
    w = np.exp(log_w)
    np.cumsum(w, out=w_p[1:])
    np.cumsum(np.multiply(w, np.arange(n), out=w), out=sw_p[1:])
    out = np.empty(len(c))
    for lo in range(0, len(c), tile ** 2):
        rows = slice(lo, lo + tile ** 2)
        out[rows] = _convex_block(phi, log_p, w_p, sw_p, c[rows], b[rows, 0], b[rows, 1],
                                  hi[rows])
    return out


def _convex_block(phi, log_p, w_p, sw_p, c, b0, b1, hi):
    """_convex_sums on one block of rows."""
    def value(r, s):
        return np.exp(c[r] + phi[s]) - (b0[r] + s * b1[r])

    first, last = np.zeros_like(hi), np.maximum(hi - 1, 0)
    f0, fl = value(slice(None), first), value(slice(None), last)
    out = np.exp(c + log_p[hi]) - b0 * w_p[hi] - b1 * sw_p[hi]      # S(0, hi)
    out[(f0 < 0) & (fl < 0)] *= -1.0        # F < 0 throughout
    one = np.flatnonzero((f0 < 0) != (fl < 0))
    at = _first_change(value, one, first[one], last[one], f0[one], fl[one])
    z1, z2 = np.where(f0[one] < 0, 0, at), np.where(f0[one] < 0, at, hi[one])
    d = np.flatnonzero((f0 >= 0) & (fl >= 0) & (hi > 2))
    # F rising from its start or falling to its end stays >= 0 throughout
    d = d[(value(d, first[d] + 1) < f0[d]) & (value(d, last[d] - 1) < fl[d])]
    low, up = first[d], last[d]     # F's minimum: where its differences turn >= 0
    act = np.flatnonzero(low < up)
    while act.size:
        s = (low[act] + up[act]) // 2
        rising = value(d[act], s + 1) >= value(d[act], s)
        up[act[rising]], low[act[~rising]] = s[rising], s[~rising] + 1
        act = act[low[act] < up[act]]
    f_low = value(d, low)
    dip = f_low < 0
    d, low, f_low = d[dip], low[dip], f_low[dip]
    r = np.concatenate((one, d))
    z1 = np.concatenate((z1, _first_change(value, d, first[d], low, f0[d], f_low)))
    z2 = np.concatenate((z2, _first_change(value, d, low, last[d], f_low, fl[d])))
    out[r] -= 2.0 * (np.exp(c[r] + log_p[z2]) - np.exp(c[r] + log_p[z1])
                     - b0[r] * (w_p[z2] - w_p[z1]) - b1[r] * (sw_p[z2] - sw_p[z1]))
    return out


def _first_change(value, r, a, b, fa, fb):
    """For rows r with F_r = value(r, .) monotone in sign on [a, b] and
    F_r(a) < 0 != F_r(b) < 0, the first s in (a, b] where F_r(s) < 0 is as
    at b.  Each round tries regula falsi's point, then its neighbour
    towards the other end, then the midpoint of what is left, so an affine
    F takes two probes and every round at least halves the bracket.  Most
    rows are nearly affine over their bracket: plain bisection makes
    constrained K 8-17% slower at R = 40-160 (omega = 0, one condition)."""
    out, state = b.copy(), (np.arange(len(r)), r, a, b, fa, fb)
    to_b = None
    while len(state[0]):
        for turn in range(3):
            act, r, a, b, fa, fb = state
            if turn == 0:
                probe = a + np.floor(fa / (fa - fb) * (b - a)).astype(int)
            else:
                probe = np.where(to_b, b - 1, a + 1) if turn == 1 else (a + b) // 2
            probe = np.minimum(np.maximum(probe, a + 1), b - 1)
            v = value(r, probe)
            to_b = (v < 0) == (fb < 0)
            a, fa = np.where(to_b, a, probe), np.where(to_b, fa, v)
            b, fb = np.where(to_b, probe, b), np.where(to_b, v, fb)
            out[act] = b
            keep = b - a > 1
            state, to_b = tuple(x[keep] for x in (act, r, a, b, fa, fb)), to_b[keep]
            if not keep.any():
                break
    return out


def _tile_sums(tile, coef, gen):
    """Per row r, the sum over columns K of |coef_r . gen_K|, the rows in
    tiles of `tile` rows.  The range of a tile's rows, each scaled to unit
    l1 norm, bounds coef . gen_K over the tile by its midpoint and
    radius; where that keeps one sign, column K adds sign * coef . gen_K,
    through one signed column sum per tile, and only the other (tile,
    column) pairs are summed entry by entry.  Tiles go in groups of
    `tile`, which bounds the (tile, column) temporaries.  The test is the
    midpoint-and-radius one of invertibility._row_sums, taken the other
    way: there a row's range over a chunk of columns, as its rows are
    few against the columns; here, with many chain rows against the
    core's columns, a column's range over a tile of rows, so that one
    signed sum serves every row of the tile."""
    n, c = len(coef), tile
    out = np.empty(n)
    for lo in range(0, n, c * c):
        part = coef[lo:lo + c * c]
        tiles = np.arange(0, len(part), c)
        scaled = part / np.maximum(np.abs(part) @ np.ones(part.shape[1]),
                                   np.finfo(float).tiny)[:, None]
        low = np.minimum.reduceat(scaled, tiles)
        up = np.maximum.reduceat(scaled, tiles)
        centre = 0.5 * (low + up) @ gen
        sure = np.abs(centre) >= 0.5 * (up - low) @ np.abs(gen)
        signed = np.copysign(sure, centre) @ gen.T
        out[lo:lo + len(part)] = np.einsum("rj,rj->r", part, signed[np.arange(len(part)) // c])
        for t in np.flatnonzero(~sure.all(axis=1)):
            rows = slice(lo + t * c, min(lo + t * c + c, n))
            out[rows] += np.abs(coef[rows] @ gen[:, ~sure[t]]).sum(axis=1)
    return out
