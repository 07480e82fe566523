"""The tail-first factorization of DiscreteOperator: the uncoupled tails
eliminated as one tridiagonal, then the coupled core as a band."""

import numpy as np
import pytest

from segkernel import operator1d
from segkernel.errors import SingularSystem
from segkernel.lapack import pbtrf, pbtrs, pttrs
from segkernel.operator1d import DiscreteOperator, Grid, assemble
from oracles import band_to_dense, dense_matrix


def rhs(m, *cols, seed=0):
    return np.random.default_rng(seed).standard_normal((m, *cols))


def residual_longdouble(band, x, b):
    """b - L x in np.longdouble, L read off the upper band."""
    a, x = band.astype(np.longdouble), x.astype(np.longdouble)
    r = b - a[2] * x
    r[1:] -= a[1, 1:] * x[:-1]
    r[:-1] -= a[1, 1:] * x[1:]
    r[2:] -= a[0, 2:] * x[:-2]
    r[:-2] -= a[0, 2:] * x[2:]
    return r


def custom_operator(grid, coupled):
    """An operator with random positive potentials and coupling only at
    the interior nodes where coupled is true."""
    rng = np.random.default_rng(1)
    n = grid.N - 2
    coup = np.where(coupled, rng.uniform(0.1, 1.0, n), 0.0)
    return DiscreteOperator(grid, 0.3, rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n), coup)


def layout_operator(table, layout):
    """The profile's operator at omega = 0.1 on Grid(R, N) for layout =
    (R, N); else custom_operator on Grid(10, 101), coupled nowhere, left
    of x = 2, right of x = -3, or at one node."""
    if isinstance(layout, tuple):
        return assemble(table, 0.1, Grid(*layout))
    grid = Grid(10.0, 101)
    x = grid.interior
    coupled = {"none": np.zeros(len(x), bool), "left": x < 2.0, "right": x > -3.0,
               "one node": np.arange(len(x)) == 40}[layout]
    return custom_operator(grid, coupled)


@pytest.mark.parametrize("n", [201, 200])
@pytest.mark.parametrize("omega", [0.0, 0.5])
def test_matches_dense_solve_with_tails(table, n, omega):
    # at R = 20 > T = 12 the coupling vanishes on both sides
    grid = Grid(20.0, n)
    op = assemble(table, omega, grid)
    f = op.factorization()
    assert 0 < f.core.start and f.core.stop < op.n_unknowns and len(f.chains) == 4
    b = rhs(op.n_unknowns)
    x = op.solve_interior(b)
    want = np.linalg.solve(dense_matrix(table, omega, grid), b)
    assert x.shape == b.shape
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


def test_multi_column_rhs(table):
    grid = Grid(20.0, 201)
    op = assemble(table, 0.2, grid)
    b = rhs(op.n_unknowns, 5)
    x = op.solve_interior(b)
    want = np.linalg.solve(dense_matrix(table, 0.2, grid), b)
    assert x.shape == (op.n_unknowns, 5)
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
    for j in range(5):
        assert np.array_equal(x[:, j], op.solve_interior(b[:, j]))


@pytest.mark.parametrize("omega", [0.0, 0.3])
def test_no_tail_grid_is_the_band_cholesky(table, omega):
    # R = 10 <= T: every node is coupled, the core is the whole band
    op = assemble(table, omega, Grid(10.0, 201))
    f = op.factorization()
    assert f.chains == () and f.core == slice(0, op.n_unknowns)
    factor = pbtrf(op.band)
    assert np.array_equal(f.core_factor, factor)
    assert np.array_equal(f.core_factor, op.cholesky)
    for b in (rhs(op.n_unknowns), rhs(op.n_unknowns, 3)):
        assert np.array_equal(op.solve_interior(b), pbtrs(factor, b))
    assert op.smallest_pivot == float(np.min(factor[2] ** 2))


@pytest.mark.parametrize("where", ["none", "left", "right", "one node"])
def test_uncoupled_and_one_sided_coupling(where):
    # no coupling at all: the core is the last node; coupling on one side,
    # up to the grid's end: two chains; at one node, the left and right
    # chains of a component join the same core unknown
    op = layout_operator(None, where)
    f = op.factorization()
    assert len(f.chains) == {"none": 2, "left": 2, "right": 2, "one node": 4}[where]
    b = rhs(op.n_unknowns, 2)
    want = np.linalg.solve(band_to_dense(op), b)
    assert np.max(np.abs(op.solve_interior(b) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("layout", [(50.0, 4001), (50.0, 4000), (800.0, 64001),
                                    (160.0, 12800), "none", "left", "right", "one node"],
                         ids=lambda l: l if isinstance(l, str) else "R%g-N%d" % l)
def test_tail_response_needs_no_solve(table, monkeypatch, layout):
    # q, each chain's response to its end's unit vector, is 1/d_end times
    # a running product of -e: the tail solve of those unit vectors to the bit
    op = layout_operator(table, layout)
    calls = []

    def counting(*args):
        calls.append(args)
        return pttrs(*args)

    monkeypatch.setattr(operator1d, "pttrs", counting)
    f = op.factorization()
    assert calls == [] and len(f.q) == len(f.chains) > 0
    unit = np.zeros(len(f.d))
    unit[f.ends] = 1.0
    want = np.split(pttrs(f.d, f.e, unit), f.ends[:-1] + 1)
    for q, w in zip(f.q, want):
        assert q.shape == (len(w), 1)
        assert np.array_equal(q[:, 0], w)


@pytest.mark.parametrize("layout", [(10.0, 401), (50.0, 4001)], ids=["no-tails", "tails"])
def test_pivot_rule_raises_and_keeps_no_pivot(table, monkeypatch, layout):
    # every pivot lies below 1.0 * max(diagonal): both factorizations
    # refuse, and smallest_pivot stays None ("not factored yet")
    monkeypatch.setattr(operator1d, "PIVOT_TOL", 1.0)
    op = layout_operator(table, layout)
    assert np.all(op.coup != 0.0) == (layout[0] == 10.0)
    for factor in (op.factorization, lambda: op.cholesky):
        with pytest.raises(SingularSystem, match="near-zero pivot"):
            factor()
        assert op.smallest_pivot is None


@pytest.mark.parametrize("node", [3, 50])
def test_indefinite_tail_or_core_raises(table, node):
    # node 3 lies in a tail, node 50 in the core of the R = 20, N = 101 grid
    grid = Grid(20.0, 101)
    op0 = assemble(table, 0.0, grid)
    assert op0.factorization().core.start < 2 * 50 < op0.factorization().core.stop
    assert 2 * 3 < op0.factorization().core.start
    pot1 = op0.pot1_0.copy()
    pot1[node] -= 1e4
    op = DiscreteOperator(grid, 0.0, pot1, op0.pot2_0, op0.coup)
    with pytest.raises(SingularSystem):
        op.factorization()
    with pytest.raises(SingularSystem):
        op.solve_interior(np.ones(op.n_unknowns))
    with pytest.raises(SingularSystem):
        op.cholesky


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at", ["tail", "core"])
def test_non_finite_rhs_raises_value_error(table, bad, at):
    op = assemble(table, 0.1, Grid(20.0, 201))
    f = op.factorization()
    b = np.ones(op.n_unknowns)
    b[0 if at == "tail" else f.core.start + 3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        op.solve_interior(b)
    with pytest.raises(ValueError):
        op.solve_interior(np.ones(op.n_unknowns + 2))


def backward_error(band, x, b):
    """max_i |b - L x|_i / (|L| |x|)_i, in np.longdouble (Oettli-Prager)."""
    return np.max(np.abs(residual_longdouble(band, x, b))
                  / -residual_longdouble(np.abs(band), np.abs(x), 0.0))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("omega", [0.0, 0.05])
def test_at_least_as_accurate_as_band_cholesky(table, omega):
    # R = 800: 961 of 63999 nodes coupled; the right-hand side of plain K.
    # Row by row, the tail-first residual is the smaller one (3.7e-16
    # against 5.5e-16 of |L| |x| at omega = 0); in the max norm it is 15%
    # larger at omega = 0, both at the rounding floor.  Against a solve
    # refined with np.longdouble residuals, its solution and its K are no
    # farther off (K: 7.3e-10 against 1.3e-9 relative at omega = 0,
    # 2.4e-11 against 5.3e-11 at 0.05).
    grid = Grid(800.0, 64001)
    op = assemble(table, omega, grid)
    f = op.factorization()
    assert f.core.stop - f.core.start < op.n_unknowns // 50
    s = np.tile([1.0, -1.0], op.n_unknowns // 2)
    b = s / np.cosh(0.5 * np.repeat(grid.interior, 2))
    factor = pbtrf(op.band)
    band, tail_first = pbtrs(factor, b), op.solve_interior(b)
    assert backward_error(op.band, tail_first, b) <= backward_error(op.band, band, b)
    ref = band.astype(np.longdouble)
    for _ in range(3):
        ref += pbtrs(factor, residual_longdouble(op.band, ref, b).astype(float))
    assert np.max(np.abs(tail_first - ref)) <= np.max(np.abs(band - ref))
    k_ref = np.max(s * ref)
    assert abs(np.max(s * tail_first) - k_ref) <= abs(np.max(s * band) - k_ref)
