"""Independent dense constructions used as oracles.

These deliberately assemble matrices entry by entry, separate from the
banded code paths they are used to check.
"""

import numpy as np
import pytest

from segkernel.invertibility import _interior_weights
from segkernel.norms import Projector
from segkernel.profile import eval_profile


def dense_matrix(table, omega, grid):
    """Dense interior matrix, assembled row by row."""
    n = grid.N
    m = 2 * (n - 2)
    h2 = grid.h ** 2
    xin = grid.interior
    v1, _, v2, _ = eval_profile(table, xin)
    a = np.zeros((m, m))
    for j in range(n - 2):
        i1, i2 = 2 * j, 2 * j + 1
        a[i1, i1] = 2.0 / h2 + v2[j] ** 2 + omega ** 2
        a[i2, i2] = 2.0 / h2 + v1[j] ** 2 + omega ** 2
        a[i1, i2] = a[i2, i1] = 2.0 * v1[j] * v2[j]
        if j + 1 < n - 2:
            a[i1, i1 + 2] = a[i1 + 2, i1] = -1.0 / h2
            a[i2, i2 + 2] = a[i2 + 2, i2] = -1.0 / h2
    return a


@pytest.fixture(scope="module")
def dense_inverses(table):
    """L^-1 per (grid, omega), computed once per test module."""
    cache = {}

    def inverse(grid, omega):
        if (grid, omega) not in cache:
            cache[grid, omega] = np.linalg.inv(dense_matrix(table, omega, grid))
        return cache[grid, omega]

    return inverse


def dense_rows(inv, op, ctx, elements=None):
    """|L^-1 P diag(w)|, dense, from inv = L^-1; P the orthogonality
    projector of elements, or the identity without them."""
    mat = inv.copy()
    if elements:
        proj = Projector(elements, op.grid, ctx)
        mat -= (inv @ proj.carriers) @ (proj.gram_inv @ proj.zrows)
    return np.abs(mat, out=mat) * _interior_weights(op, ctx)


def dense_k(table, op, ctx, elements=None, inv=None):
    """Max weighted absolute row sum of the dense L^-1 P diag(w)
    (dense_rows), from inv = L^-1 when it is given."""
    if inv is None:
        inv = np.linalg.inv(dense_matrix(table, op.omega, op.grid))
    return float(np.max(dense_rows(inv, op, ctx, elements).sum(axis=1)))


def band_to_dense(op):
    """Expand the upper-banded storage of an operator to a dense array."""
    m = op.n_unknowns
    a = np.zeros((m, m))
    a[np.arange(m), np.arange(m)] = op.band[2]
    a[np.arange(m - 1), np.arange(1, m)] = op.band[1, 1:]
    a[np.arange(1, m), np.arange(m - 1)] = op.band[1, 1:]
    a[np.arange(m - 2), np.arange(2, m)] = op.band[0, 2:]
    a[np.arange(2, m), np.arange(m - 2)] = op.band[0, 2:]
    return a


def residual_longdouble(band, x, b):
    """b - A x in np.longdouble, A the symmetric matrix of an upper band
    with two superdiagonals."""
    a, x = band.astype(np.longdouble), x.astype(np.longdouble)
    r = b - a[2] * x
    r[1:] -= a[1, 1:] * x[:-1]
    r[:-1] -= a[1, 1:] * x[1:]
    r[2:] -= a[0, 2:] * x[:-2]
    r[:-2] -= a[0, 2:] * x[2:]
    return r


EIG_TOL = 1e-13     # full_system_eigenvalue's stop: successive quotients this close


def full_system_eigenvalue(op, solve=None):
    """lambda_min by inverse iteration on all of L from s / sqrt(m),
    stopped when successive quotients differ by less than EIG_TOL;
    solve defaults to op's."""
    solve = solve or op.solve_interior
    m = op.n_unknowns
    v = np.tile([1.0, -1.0], m // 2) / np.sqrt(m)
    rho_prev = None
    for it in range(100):
        y = solve(v)
        rho = float(y @ v) / float(y @ y)
        v = (y / np.linalg.norm(y)).astype(float)
        if it >= 3 and abs(rho - rho_prev) < EIG_TOL * rho:
            return rho
        rho_prev = rho
    raise AssertionError("no convergence")


def refined_solve(op, b):
    """op.solve_interior(b) refined by three steps x += solve(b - L x),
    the residual in np.longdouble, as an np.longdouble vector."""
    x = op.solve_interior(b).astype(np.longdouble)
    for _ in range(3):
        x += op.solve_interior(residual_longdouble(op.band, x, b).astype(float))
    return x
