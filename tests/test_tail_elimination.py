"""The tail-first factorization of L: its uncoupled tail chains
eliminated as one tridiagonal, then the coupled core as a band; and plain
K on the fold B, L on reflection-odd vectors, whose chains are eliminated
in closed form around one solve of its core."""

import numpy as np
import pytest

from segkernel import invertibility, operator1d
from segkernel.errors import SingularSystem
from segkernel.invertibility import _interior_weights, inv_constant_exact
from segkernel.lapack import pbtrf, pbtrs, pttrs
from segkernel.norms import NormContext
from segkernel.operator1d import DiscreteOperator, Grid, assemble
from oracles import band_to_dense, dense_matrix, residual_longdouble


def rhs(m, *cols, seed=0):
    return np.random.default_rng(seed).standard_normal((m, *cols))


def odd(a):
    """The J-odd vector [a; -a reversed], a a vector or columns."""
    return np.concatenate((a, -a[::-1]))


def fold_band(op):
    """The upper band of B = L[:h, :h] - L[:h, h:] with its columns
    reversed, h = m/2: L's first h columns, less L's entries linking the
    last one to column h."""
    h = op.n_unknowns // 2
    band = op.band[:, :h].copy()
    band[1:, -1] -= op.band[:2, h]
    return band


def custom_operator(grid, coupled):
    """An operator with random positive mirror-exact potentials and
    coupling only at the interior nodes where coupled, a mirror-symmetric
    mask, is true; u2's potential V1^2 is 0 on the leading uncoupled nodes
    x < 0 (and u1's on their mirrors), so that L has its four chains there
    and the fold's u2 chain is free."""
    rng = np.random.default_rng(1)
    n = grid.N - 2
    pot, coup = rng.uniform(0.5, 2.0, n), rng.uniform(0.1, 1.0, n)
    coup = np.where(coupled, coup + coup[::-1], 0.0)
    pot2 = np.where((np.cumsum(coupled) == 0) & (grid.interior < 0.0), 0.0, pot)
    return DiscreteOperator(grid, 0.3, pot2[::-1].copy(), pot2, coup)


def layout_operator(table, layout):
    """The profile's operator at omega = 0.1 on Grid(R, N) for layout =
    (R, N); else custom_operator on Grid(10, 101), coupled nowhere, at
    the fold's left end (|x| > 3), at its right end, the middle (|x| < 2),
    or at one node (and its mirror)."""
    if isinstance(layout, tuple):
        return assemble(table, 0.1, Grid(*layout))
    grid = Grid(10.0, 101)
    x = grid.interior
    j = np.arange(len(x))
    coupled = {"none": np.zeros(len(x), bool), "left": np.abs(x) > 3.0,
               "right": np.abs(x) < 2.0,
               "one node": (j == 40) | (j == len(x) - 41)}[layout]
    return custom_operator(grid, coupled)


@pytest.mark.parametrize("n", [201, 200])
@pytest.mark.parametrize("omega", [0.0, 0.5])
def test_matches_dense_solve_with_tails(table, n, omega):
    # at R = 20 > T = 12 the coupling vanishes near both ends: L has four
    # chains, and its core runs over the coupled nodes between them
    grid = Grid(20.0, n)
    op = assemble(table, omega, grid)
    m = op.n_unknowns
    f = op.factorization()
    assert 0 < f.core.start and f.core.stop < m and len(f.chains) == 4
    b = rhs(m)
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
def test_no_tail_grid_is_the_band_cholesky(table, monkeypatch, omega):
    # R = 10 <= T: every node is coupled, the fold has no chain, and plain
    # K factors the fold's whole band, its couplings negated (diag(s) B
    # diag(s)), and solves it
    op = assemble(table, omega, Grid(10.0, 201))
    h = op.n_unknowns // 2
    assert op.odd_core().start == 0
    bands = []

    def recording(band):
        bands.append(band)
        return pbtrf(band)

    monkeypatch.setattr(invertibility, "pbtrf", recording)
    k = inv_constant_exact(op, NormContext(0.5))
    fold = fold_band(op)
    fold[1] = -fold[1]
    assert len(bands) == 1 and np.array_equal(bands[0], fold)
    w = _interior_weights(op, NormContext(0.5))[:h]
    want = np.max(pbtrs(pbtrf(fold), w))
    assert abs(k - want) <= 1e-12 * want


@pytest.mark.parametrize("where", ["none", "left", "right", "one node"])
def test_uncoupled_and_one_sided_coupling(where):
    # no coupling at all: L's chains leave it a core of the middle node;
    # coupling at the grid's ends: no chains; coupling from some node to
    # the middle, or at one node and its mirror: four chains.  Plain K,
    # its D chain's potential as low as 0.5, matches the dense inverse
    op = layout_operator(None, where)
    f = op.factorization()
    assert len(f.chains) == {"none": 4, "left": 0, "right": 4, "one node": 4}[where]
    dense = band_to_dense(op)
    a = rhs(op.n_unknowns, 2)
    want = np.linalg.solve(dense, a)
    assert np.max(np.abs(op.solve_interior(a) - want)) <= 1e-12 * np.max(np.abs(want))
    ctx = NormContext(0.5)
    k_dense = np.max(np.abs(np.linalg.inv(dense)) @ _interior_weights(op, ctx))
    assert abs(inv_constant_exact(op, ctx) - k_dense) <= 1e-10 * k_dense


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
    assert calls == [] and len(f.q) == len(f.chains) == (0 if layout == "left" else 4)
    unit = np.zeros(len(f.d))
    unit[f.ends] = 1.0
    want = np.split(pttrs(f.d, f.e, unit), f.ends[:-1] + 1)
    for q, w in zip(f.q, want):
        assert q.shape == (len(w), 1)
        assert np.array_equal(q[:, 0], w)


@pytest.mark.parametrize("layout", [(10.0, 401), (50.0, 4001)], ids=["no-tails", "tails"])
def test_pivot_rule_raises_and_keeps_no_pivot(table, monkeypatch, layout):
    # every pivot lies below 1.0 * max(diagonal): L's factorization and
    # plain K on the fold's core refuse, and smallest_pivot stays None
    # ("not factored yet")
    monkeypatch.setattr(operator1d, "PIVOT_TOL", 1.0)
    op = layout_operator(table, layout)
    assert np.all(op.coup != 0.0) == (layout[0] == 10.0)
    for factor in (op.factorization, lambda: inv_constant_exact(op, NormContext(0.5))):
        with pytest.raises(SingularSystem, match="near-zero pivot"):
            factor()
        assert op.smallest_pivot is None


@pytest.mark.parametrize("node", [3, 50])
def test_indefinite_tail_or_core_raises(table, node):
    # the potential lowered at node and, to keep L mirror exact, at its
    # mirror: the fold holds node 3's u1, in its dying chain, and node
    # 50's through its mirror's u2, in the core of the R = 20, N = 101 grid
    grid = Grid(20.0, 101)
    n = grid.N - 2
    op0 = assemble(table, 0.0, grid)
    assert 2 * 3 < op0.odd_core().start < 2 * (n - 1 - 50) + 1 < n
    pot1, pot2 = op0.pot1_0.copy(), op0.pot2_0.copy()
    pot1[node] -= 1e4
    pot2[n - 1 - node] -= 1e4
    op = DiscreteOperator(grid, 0.0, pot1, pot2, op0.coup)
    for compute in (lambda: inv_constant_exact(op, NormContext(0.5)),
                    op.factorization, lambda: op.solve_interior(np.ones(2 * n))):
        with pytest.raises(SingularSystem):
            compute()


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
        op.solve_interior(np.ones(len(b) + 2))


def backward_error(band, x, b):
    """max_i |b - B x|_i / (|B| |x|)_i, in np.longdouble (Oettli-Prager)."""
    return np.max(np.abs(residual_longdouble(band, x, b))
                  / -residual_longdouble(np.abs(band), np.abs(x), 0.0))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("omega", [0.0, 0.05])
def test_at_least_as_accurate_as_band_cholesky(table, omega):
    # R = 800: 961 of L's 127,998 unknowns coupled; the right-hand side of
    # plain K, s * w.  Against L's band Cholesky, the tail-first solve has
    # the smaller componentwise backward error, and against a solve
    # refined with np.longdouble residuals its solution and its K are no
    # farther off
    grid = Grid(800.0, 64001)
    op = assemble(table, omega, grid)
    m = op.n_unknowns
    f = op.factorization()
    assert f.core.stop - f.core.start < m // 25
    s = np.tile([1.0, -1.0], m // 2)
    b = s * _interior_weights(op, NormContext(0.5))
    factor = pbtrf(op.band)
    band, tail_first = pbtrs(factor, b), op.solve_interior(b)
    assert backward_error(op.band, tail_first, b) <= backward_error(op.band, band, b)
    ref = band.astype(np.longdouble)
    for _ in range(3):
        ref += pbtrs(factor, residual_longdouble(op.band, ref, b).astype(float))
    assert np.max(np.abs(tail_first - ref)) <= np.max(np.abs(band - ref))
    k_ref = np.max(s * ref)
    assert abs(np.max(s * tail_first) - k_ref) <= abs(np.max(s * band) - k_ref)
