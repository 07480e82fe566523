"""L's living chains: past |x| = T the profile sets V1 = 0 on the left and
V2 = 0 on the right, so u2 on the left and u1 on the right are free chains
-d2/h2 + omega^2 that meet the coupled core only at their ends.  L is
factored with all four chains eliminated first and the core |x| <= T left,
and constrained K takes the living chains' rows and columns from exact
identities: T[V, K] = rho T[J, K] off a chain V with join J, and
T_VV = G + rho rho^T T_JJ with G the free chain's inverse."""

import numpy as np
import pytest

from segkernel.chains import _convex_sums, living_rows
from segkernel.invertibility import (
    TILE_ROWS,
    _constrained_row_sums,
    _interior_weights,
    inv_constant_exact,
)
from segkernel.norms import NormContext, Projector, kernel_basis, log_cosh
from segkernel.operator1d import DiscreteOperator, Grid, PairGridFunction, assemble
from oracles import dense_matrix

GRIDS = [(20.0, 401), (20.0, 400), (30.0, 601), (30.0, 600)]
OMEGAS = [0.0, 0.05, 0.3]
# K at theta = 0.5, omega = 0, N = 80 R + 1, one and two conditions, before
# the living chains were eliminated, and the exact row sum of the arg-max
# row, from L^-1's rows and the carriers refined with np.longdouble
# residuals and summed in np.longdouble
K_BEFORE = {(40.0, 1): 6.559897965239636, (80.0, 1): 7.202792649350789,
            (160.0, 1): 7.6105621651707756, (40.0, 2): 5.029129853553081,
            (80.0, 2): 5.039680786253244, (160.0, 2): 5.060896579663713}
K_REFINED = {(40.0, 1): 6.559897965211329, (80.0, 1): 7.202792649339477,
             (160.0, 1): 7.610562165272155, (40.0, 2): 5.029129853547543,
             (80.0, 2): 5.039680786235369, (160.0, 2): 5.060896579661904}


@pytest.fixture(scope="module")
def dense_inverses(table):
    """L^-1 per (grid, omega), computed once."""
    cache = {}

    def inverse(grid, omega):
        if (grid, omega) not in cache:
            cache[grid, omega] = np.linalg.inv(dense_matrix(table, omega, grid))
        return cache[grid, omega]

    return inverse


def unknowns(op, part):
    """The unknowns of a slice of op's factorization, in its order."""
    return np.arange(op.n_unknowns)[part]


def dense_rows(inv, op, ctx, elements):
    """|L^-1 P diag(w)|, dense."""
    proj = Projector(elements, op.grid, ctx)
    mat = inv - (inv @ proj.carriers) @ (proj.gram_inv @ proj.zrows)
    return np.abs(mat, out=mat) * _interior_weights(op, ctx)


def test_four_chains_around_the_coupled_core(table):
    # at one h the core is |x| <= T whatever R is, and the chains are the
    # dying u1 (left), u2 (right), the living u2 (left), u1 (right)
    cores = []
    for r_val in (20.0, 40.0, 80.0):
        grid = Grid(r_val, int(20 * r_val) + 1)
        op = assemble(table, 0.05, grid)
        f = op.factorization()
        left, right = op.dying_nodes()
        m, x = op.n_unknowns, grid.interior
        assert left == right == np.count_nonzero(x < -12.0) > 0
        core = unknowns(op, f.core)
        assert np.array_equal(core, np.arange(2 * left, m - 2 * right))
        assert np.all(np.abs(x[core[::2] // 2]) <= 12.0)
        assert np.array_equal(np.sort(np.concatenate([unknowns(op, c) for c in f.chains])),
                              np.setdiff1d(np.arange(m), core))
        dying_l, dying_r, living_l, living_r = (unknowns(op, c) for c in f.chains)
        assert np.array_equal(dying_l, np.arange(0, 2 * left, 2))
        assert np.array_equal(living_l, np.arange(1, 2 * left, 2))
        assert np.array_equal(dying_r, m - 1 - dying_l)
        assert np.array_equal(living_r, m - 1 - living_l)
        # each chain runs to the core; the living ones' potential is 0
        assert np.array_equal(core[list(f.joins)], [core[0], core[-1], core[1], core[-2]])
        assert np.all(op.pot2_0[:left] == 0.0) and np.all(op.pot1_0[-right:] == 0.0)
        cores.append(len(core))
    assert cores[0] == cores[1] == cores[2] == 2 * 241


@pytest.mark.parametrize("r_val, n, nodes", [(12.05, 965, 1), (12.5, 1001, 19),
                                             (12.05, 2001, 4), (12.5, 2001, 39)])
def test_short_chains_just_past_t(table, r_val, n, nodes):
    op = assemble(table, 0.0, Grid(r_val, n))
    assert op.dying_nodes() == (nodes, nodes)
    f = op.factorization()
    assert [len(unknowns(op, c)) for c in f.chains] == [nodes] * 4


@pytest.mark.parametrize("r_val, n", [(12.05, 965), (12.5, 1001)])
@pytest.mark.parametrize("omega", [0.0, 0.05])
def test_short_chains_match_dense(table, dense_inverses, r_val, n, omega):
    # chains of 1 and 19 nodes at N = 80 R + 1
    grid = Grid(r_val, n)
    op = assemble(table, omega, grid)
    ctx = NormContext(0.5)
    kb = kernel_basis(table, grid)
    for k in (1, 2):
        elements = [kb.z1, kb.z2][:k]
        want = dense_rows(dense_inverses(grid, omega), op, ctx, elements).sum(axis=1)
        got = _constrained_row_sums(op, ctx, elements)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)


@pytest.mark.parametrize("r_val", [10.0, 12.0])
def test_no_chains_at_or_below_t(table, r_val):
    op = assemble(table, 0.0, Grid(r_val, 40 * int(r_val) + 1))
    f = op.factorization()
    assert op.dying_nodes() == (0, 0) and f.chains == ()
    assert f.core == slice(0, op.n_unknowns)


@pytest.mark.parametrize("r_val, n", GRIDS, ids=lambda v: str(v))
@pytest.mark.parametrize("omega", OMEGAS)
def test_chain_identities_against_dense(table, dense_inverses, r_val, n, omega):
    # T[V, K] = rho T[J, K] off V, rho = -link q; T_VV = G + rho rho^T T_JJ,
    # G the free chain's inverse, G_ts = q_s q_(n-1-t) / q_0 for s <= t
    grid = Grid(r_val, n)
    op = assemble(table, omega, grid)
    f = op.factorization()
    inv = dense_inverses(grid, omega)
    core = unknowns(op, f.core)
    scale = np.max(np.abs(inv))
    for chain, q, join in zip(f.chains[2:], f.q[2:], f.joins[2:]):
        v, j = unknowns(op, chain), core[join]
        rho, q = -f.link * q[:, 0], q[:, 0]
        off = np.setdiff1d(np.arange(op.n_unknowns), v)
        assert np.max(np.abs(inv[np.ix_(v, off)] - np.outer(rho, inv[j, off]))) <= 1e-12 * scale
        size = len(v)
        free = (np.diag(np.full(size, 2.0 / grid.h ** 2 + omega ** 2))
                - np.diag(np.full(size - 1, 1.0 / grid.h ** 2), 1)
                - np.diag(np.full(size - 1, 1.0 / grid.h ** 2), -1))
        g = np.linalg.inv(free)
        assert np.max(np.abs(inv[np.ix_(v, v)] - g - np.outer(rho, rho) * inv[j, j])) \
            <= 1e-12 * scale
        s, t = np.meshgrid(np.arange(size), np.arange(size))
        persym = q[np.minimum(s, t)] * q[size - 1 - np.maximum(s, t)] / q[0]
        assert np.max(np.abs(persym - g)) <= 1e-12 * np.max(g)


@pytest.mark.parametrize("r_val, n", GRIDS, ids=lambda v: str(v))
@pytest.mark.parametrize("omega", OMEGAS)
def test_living_shares_match_dense(table, dense_inverses, r_val, n, omega):
    # each part of living_rows on its own: the core rows' sums over both
    # living chains' columns, and the left chain's rows over all but the
    # dying columns (the right chain's rows are their mirror images)
    grid = Grid(r_val, n)
    op = assemble(table, omega, grid)
    ctx = NormContext(0.5)
    kb = kernel_basis(table, grid)
    f = op.factorization()
    m = op.n_unknowns
    core, left, right = (unknowns(op, c) for c in (f.core, f.chains[2], f.chains[3]))
    dying = np.concatenate([unknowns(op, c) for c in f.chains[:2]])
    for k in (1, 2):
        elements = [kb.z1, kb.z2][:k]
        mat = dense_rows(dense_inverses(grid, omega), op, ctx, elements)
        proj = Projector(elements, grid, ctx)
        y = op.solve_interior(proj.carriers)
        core_part, chain_rows = living_rows(f, y, proj.gram_inv @ proj.zrows,
                                            -log_cosh(ctx.theta * grid.interior), TILE_ROWS)
        big = np.max(mat.sum(axis=1))
        want = mat[np.ix_(core, np.concatenate((left, right)))].sum(axis=1)
        assert np.max(np.abs(core_part - want)) <= 1e-10 * big
        want = np.delete(mat, dying, axis=1)[left].sum(axis=1)
        assert np.max(np.abs(chain_rows - want)) <= 1e-10 * big
        assert np.max(np.abs(mat[right].sum(axis=1) - mat[left].sum(axis=1))) <= 1e-10 * big
        assert m - len(core) == 4 * len(left)


@pytest.mark.parametrize("r_val", [40.0, 80.0, 160.0])
@pytest.mark.parametrize("k", [1, 2])
def test_k_against_the_kept_band_values(table, r_val, k):
    # eliminating the living chains changes only the rounding of the core
    # factor.  At omega = 0 K carries the float64 floor of its near-kernel
    # cancellation, T_ij against y_i g_j: the values before were 0.4-13e-12
    # off the refined ones (above 1e-12 at five of the six points), and
    # the new ones are 1.0-24e-12 off, so they can be no nearer each other
    # than that
    grid = Grid(r_val, int(80 * r_val) + 1)
    kb = kernel_basis(table, grid)
    got = inv_constant_exact(assemble(table, 0.0, grid), NormContext(0.5), [kb.z1, kb.z2][:k])
    assert abs(got - K_BEFORE[r_val, k]) <= 3e-11 * got
    assert abs(got - K_REFINED[r_val, k]) <= 3e-11 * got


@pytest.mark.parametrize("seed", range(4))
def test_convex_sums_against_brute_force(seed):
    # |F_r(s)| exp(log_w_s) summed over s < hi_r, F_r(s) = exp(c_r + phi_s)
    # - b_r0 - s b_r1 convex: negative nowhere, throughout, from either
    # end, or on a run inside with both ends >= 0
    rng = np.random.default_rng(seed)
    n, rows = 300, 400
    s_ = np.arange(n)
    phi = np.log(np.cosh(0.02 * (s_ - rng.uniform(0, n))) + 0.1)
    log_w = -0.005 * s_ + rng.uniform(-1, 0)
    c = rng.uniform(-3, 1, rows)
    b = np.column_stack((rng.uniform(-1, 4, rows), rng.uniform(-0.02, 0.02, rows)))
    b[::4, 1] = 0.0
    hi = rng.integers(1, n + 1, rows)
    f = np.exp(c[:, None] + phi) - b[:, :1] - s_ * b[:, 1:]
    f[s_ >= hi[:, None]] = 0.0
    want = np.abs(f) @ np.exp(log_w)
    scale = (np.exp(c[:, None] + phi) + np.abs(b[:, :1]) + s_ * np.abs(b[:, 1:])) @ np.exp(log_w)
    got = _convex_sums(3, phi, log_w, c, b, hi)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    f0, fl = f[:, 0], f[np.arange(rows), hi - 1]
    dips = (f0 >= 0) & (fl >= 0) & (f < 0).any(axis=1)
    assert dips.sum() > 10 and ((f0 < 0) != (fl < 0)).sum() > 10


def test_element_not_affine_on_a_living_chain_raises(table):
    grid = Grid(20.0, 401)
    op = assemble(table, 0.0, grid)
    z1 = kernel_basis(table, grid).z1
    bent = PairGridFunction(grid, z1.comp1, z1.comp2 + 1e-3 * np.where(
        grid.nodes < -12.0, (grid.nodes + 12.0) ** 2, 0.0) * (grid.nodes > -20.0))
    with pytest.raises(ValueError, match="not affine on a living chain"):
        inv_constant_exact(op, NormContext(0.5), [bent])


def test_chains_on_one_side_raise(table):
    # a potential not 0 at the left end: dying chains on the right only,
    # whose rows the left chains' cannot mirror
    grid = Grid(20.0, 401)
    op0 = assemble(table, 0.0, grid)
    pot2 = op0.pot2_0.copy()
    pot2[0] = 1.0
    op = DiscreteOperator(grid, 0.0, op0.pot1_0, pot2, op0.coup)
    assert op.dying_nodes()[0] == 0 < op.dying_nodes()[1]
    with pytest.raises(ValueError, match="not mirror images"):
        inv_constant_exact(op, NormContext(0.5), [kernel_basis(table, grid).z1])
