"""L factored with its tail chains eliminated first: for |x| > T the
profile's tail extension sets V1 = 0 on the left and V2 = 0 on the right,
so u1 on the left and u2 on the right are uncoupled dying chains that the
kernel elements vanish on, and the other components there living chains.
Constrained K sweeps the coupled core, the Schur complement on the other
unknowns, and adds the dying columns by one solve and the dying rows from
their chains' join rows (the living chains: tests/test_living_chains.py)."""

from unittest import mock

import numpy as np
import pytest

from segkernel import invertibility
from segkernel.errors import SegkernelError
from segkernel.invertibility import (
    _constrained_row_sums,
    _interior_weights,
    _row_sums,
    inv_constant_exact,
)
from segkernel.lapack import pbtrf, pbtrs
from segkernel.norms import NormContext, Projector, kernel_basis
from segkernel.operator1d import DiscreteOperator, Grid, PairGridFunction, assemble
from oracles import dense_matrix

# odd and even N; R = 20, 30 and 40 > T = 12 leave dying chains
GRIDS = [(20.0, 401), (20.0, 400), (30.0, 601), (30.0, 600), (40.0, 801), (40.0, 800)]
OMEGAS = [0.0, 0.05, 0.3]
# (TILE_ROWS, CHUNK_COLUMNS): the defaults, one- and three-row tiles with narrow
# chunks, and a ragged tile height with one chunk per component
SWEEPS = [(128, 256), (1, 2), (3, 4), (41, 1024)]


@pytest.fixture(scope="module")
def dense_inverses(table):
    """L^-1 per (R, N, omega), computed once."""
    cache = {}

    def inverse(grid, omega):
        key = (grid, omega)
        if key not in cache:
            cache[key] = np.linalg.inv(dense_matrix(table, omega, grid))
        return cache[key]

    return inverse


def dense_rows(inv, op, ctx, elements):
    """|L^-1 P diag(w)|, dense."""
    proj = Projector(elements, op.grid, ctx)
    mat = inv - (inv @ proj.carriers) @ (proj.gram_inv @ proj.zrows)
    return np.abs(mat, out=mat) * _interior_weights(op, ctx)


def split(op):
    """The kept and the dying unknowns of op's factorization."""
    f = op.factorization()
    kept = np.arange(op.n_unknowns)[f.core]
    return f, kept, np.setdiff1d(np.arange(op.n_unknowns), kept)


@pytest.mark.parametrize("r_val, n", GRIDS, ids=lambda v: str(v))
@pytest.mark.parametrize("omega", OMEGAS)
def test_every_row_sum_matches_dense(table, dense_inverses, r_val, n, omega):
    grid = Grid(r_val, n)
    op = assemble(table, omega, grid)
    ctx = NormContext(0.5)
    kb = kernel_basis(table, grid)
    f, kept, dying = split(op)
    assert len(f.chains) == 4 and len(dying) > 0.15 * op.n_unknowns
    for k in (1, 2):
        elements = [kb.z1, kb.z2][:k]
        want = dense_rows(dense_inverses(grid, omega), op, ctx, elements).sum(axis=1)
        for rows, width in SWEEPS if (r_val, k, omega) == (20.0, 1, 0.05) else SWEEPS[:1]:
            with mock.patch.multiple(invertibility, TILE_ROWS=rows, CHUNK_COLUMNS=width):
                got = _constrained_row_sums(op, ctx, elements)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want), (k, rows, width)


@pytest.mark.parametrize("r_val, n", GRIDS[:2], ids=lambda v: str(v))
@pytest.mark.parametrize("omega", [0.0, 0.3])
def test_kept_band_inverse_is_the_kept_block(dense_inverses, table, r_val, n, omega):
    # (L^-1)_KK = (L / L_(chains))^-1: the core factored is the Schur complement
    grid = Grid(r_val, n)
    op = assemble(table, omega, grid)
    f, kept, _ = split(op)
    inv = dense_inverses(grid, omega)
    got = pbtrs(f.core_factor, np.eye(len(kept)))
    assert np.max(np.abs(got - inv[np.ix_(kept, kept)])) <= 1e-12 * np.max(np.abs(inv))


@pytest.mark.parametrize("r_val, n", [(20.0, 401), (30.0, 600)], ids=lambda v: str(v))
@pytest.mark.parametrize("k", [1, 2])
def test_dying_row_is_a_multiple_of_its_join_row(table, dense_inverses, r_val, n, k):
    # a dying chain meets the other unknowns only through its end's link to
    # its join J, so on its row i, M_iK = -link q_i M_JK off the dying chains
    grid = Grid(r_val, n)
    op = assemble(table, 0.05, grid)
    ctx = NormContext(0.5)
    kb = kernel_basis(table, grid)
    f, kept, _ = split(op)
    dying = np.concatenate([np.arange(op.n_unknowns)[c] for c in f.chains[:2]])
    mat = dense_rows(dense_inverses(grid, 0.05), op, ctx, [kb.z1, kb.z2][:k])
    kept_part = np.delete(mat, dying, axis=1).sum(axis=1)
    for chain, q, join in zip(f.chains[:2], f.q, f.joins):
        rows = np.arange(op.n_unknowns)[chain]
        want = kept_part[rows]
        got = np.abs(f.link * q[:, 0]) * kept_part[kept[join]]
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(kept_part)


@pytest.mark.parametrize("n", [201, 200])
@pytest.mark.parametrize("omega", [0.0, 0.5])
def test_no_dying_chain_is_the_whole_band_path(table, n, omega):
    # R = 10 <= T: no dying chain, and factor, solves and constrained K
    # are those of L's band Cholesky, bit for bit
    grid = Grid(10.0, n)
    op = assemble(table, omega, grid)
    ctx = NormContext(0.5)
    kb = kernel_basis(table, grid)
    factor = pbtrf(op.band)
    f = op.factorization()
    assert op.dying_nodes() == (0, 0) and f.chains == ()
    assert f.core == slice(0, op.n_unknowns)
    assert np.array_equal(f.core_factor, factor)
    assert op.smallest_pivot == float(np.min(factor[2] ** 2))
    b = np.random.default_rng(0).standard_normal((op.n_unknowns, 3))
    assert np.array_equal(op.solve_interior(b), pbtrs(factor, b))
    assert np.array_equal(op.solve_interior(b[:, 0]), pbtrs(factor, b[:, 0]))
    for k in (1, 2):
        elements = [kb.z1, kb.z2][:k]
        proj = Projector(elements, grid, ctx)
        rows = _row_sums(factor, pbtrs(factor, proj.carriers), proj.gram_inv @ proj.zrows,
                         _interior_weights(op, ctx))
        assert inv_constant_exact(op, ctx, elements) == float(np.max(rows))


def test_dying_chains_of_the_profile_operator(table):
    # the chains run over the nodes |x| > T, the same length at both ends
    # of the mirror-exact L; the core is the 2 x 961 unknowns of |x| <= T
    grid = Grid(40.0, 3201)
    op = assemble(table, 0.0, grid)
    left, right = op.dying_nodes()
    x = grid.interior
    assert left == right == np.count_nonzero(x < -12.0)
    f, kept, others = split(op)
    assert len(kept) == op.n_unknowns - 4 * left == 1922
    u1_left = np.arange(0, 2 * left, 2)
    dying = np.concatenate([np.arange(op.n_unknowns)[c] for c in f.chains[:2]])
    assert np.array_equal(np.sort(dying),
                          np.concatenate((u1_left, op.n_unknowns - 1 - u1_left[::-1])))
    assert np.array_equal(others, np.setdiff1d(np.arange(op.n_unknowns), kept))
    assert np.all(op.coup[:left] == 0.0) and np.all(op.pot2_0[:left] == 0.0)


def test_element_not_vanishing_on_a_dying_chain_raises(table):
    grid = Grid(20.0, 401)
    op = assemble(table, 0.0, grid)
    ctx = NormContext(0.5)
    z1 = kernel_basis(table, grid).z1
    bad = PairGridFunction(grid, z1.comp1 + 1e-3 * np.exp(-grid.nodes ** 2 / 800.0), z1.comp2)
    with pytest.raises(ValueError, match="does not vanish on a dying chain"):
        inv_constant_exact(op, ctx, [bad])
    # with no dying chain the same kind of element is fine
    grid10 = Grid(10.0, 201)
    op10 = assemble(table, 0.0, grid10)
    z10 = kernel_basis(table, grid10).z1
    fine = PairGridFunction(grid10, z10.comp1 + 1e-3 * np.exp(-grid10.nodes ** 2 / 800.0),
                            z10.comp2)
    assert np.isfinite(inv_constant_exact(op10, ctx, [fine]))


def test_negative_coupling_with_dying_chains_raises(table):
    # the dying columns' share needs diag(s) L diag(s) to be a Z-matrix
    grid = Grid(20.0, 401)
    op = assemble(table, 0.3, grid)
    flipped = DiscreteOperator(grid, 0.3, op.pot1_0, op.pot2_0, -op.coup)
    assert flipped.factorization().chains
    with pytest.raises(SegkernelError, match="negative coupling"):
        inv_constant_exact(flipped, NormContext(0.5), [kernel_basis(table, grid).z1])
