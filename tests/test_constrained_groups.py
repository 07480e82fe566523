"""Constrained exact K with the far sweep stepping its anchor once per
group of GROUP_TILES tiles: the group's own columns are summed entry by
entry from a local anchor, the columns past it on the group's
generators.  Group, tile and chunk sizes change only the rounding."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from segkernel import invertibility
from segkernel.invertibility import _interior_weights, inv_constant_exact
from segkernel.norms import NormContext, Projector, kernel_basis
from segkernel.operator1d import Grid, assemble
from oracles import dense_matrix


def dense_k(table, op, ctx, elements):
    """Max weighted absolute row sum of the dense L^-1 P diag(w)."""
    proj = Projector(elements, op.grid, ctx)
    p_mat = np.eye(op.n_unknowns) - proj.carriers @ (proj.gram_inv @ proj.zrows)
    mat = np.linalg.inv(dense_matrix(table, op.omega, op.grid)) @ p_mat
    return float(np.max(np.abs(mat) @ _interior_weights(op, ctx)))


@pytest.mark.parametrize("n", [101, 100], ids=["odd-N", "even-N"])
@pytest.mark.parametrize("omega", [0.0, 0.5])
@pytest.mark.parametrize("k", [1, 2])
def test_group_sizes_match_dense(table, n, omega, k):
    # one group per tile, groups of two and three (the top one ragged for
    # the tile counts here), and one group for all tiles; tiles of one
    # row (the anchor carried on by a single row), three rows and a
    # ragged 41; chunks of two columns, 64, and one chunk
    grid = Grid(10.0, n)
    op = assemble(table, omega, grid)
    m = op.n_unknowns
    ctx = NormContext(0.5)
    kb = kernel_basis(table, grid)
    elements = [kb.z1, kb.z2][:k]
    k_dense = dense_k(table, op, ctx, elements)
    for rows in (1, 3, 41):
        for groups in (1, 2, 3, m + 1):
            for width in (2, 64, m + 2):
                with mock.patch.multiple(invertibility, TILE_ROWS=rows,
                                         GROUP_TILES=groups, CHUNK_COLUMNS=width):
                    got = inv_constant_exact(op, ctx, orth_elements=elements)
                assert abs(got - k_dense) / k_dense <= 1e-10, (rows, groups, width)


@pytest.mark.parametrize("k", [1, 2])
def test_one_tile_groups_agree_with_default(table, k):
    # GROUP_TILES = 1 steps the anchor once per tile, as the sweep did
    # before it was grouped
    grid = Grid(160.0, 12801)
    op = assemble(table, 0.0, grid)
    ctx = NormContext(0.5)
    kb = kernel_basis(table, grid)
    elements = [kb.z1, kb.z2][:k]
    k_default = inv_constant_exact(op, ctx, orth_elements=elements)
    with mock.patch.object(invertibility, "GROUP_TILES", 1):
        k_single = inv_constant_exact(op, ctx, orth_elements=elements)
    assert abs(k_single - k_default) <= 1e-13 * k_default


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(
    n=st.integers(41, 161),
    r_val=st.floats(5.0, 15.0),
    omega=st.floats(0.0, 0.5),
    k=st.integers(1, 2),
    rows=st.integers(1, 40),
    groups=st.integers(2, 6),
    half_width=st.integers(1, 40),
)
def test_ragged_top_group_matches_dense(table, n, r_val, omega, k, rows, groups,
                                        half_width):
    grid = Grid(r_val, n)
    n_tiles = -(-2 * (n - 2) // rows)
    assume(n_tiles > groups and n_tiles % groups)     # a ragged top group
    op = assemble(table, omega, grid)
    ctx = NormContext(0.5)
    kb = kernel_basis(table, grid)
    elements = [kb.z1, kb.z2][:k]
    with mock.patch.multiple(invertibility, TILE_ROWS=rows, GROUP_TILES=groups,
                             CHUNK_COLUMNS=2 * half_width):
        got = inv_constant_exact(op, ctx, orth_elements=elements)
    k_dense = dense_k(table, op, ctx, elements)
    assert abs(got - k_dense) / k_dense <= 1e-10
