import numpy as np
import pytest

from segkernel.errors import GramSingular
from segkernel.norms import (
    NormContext,
    Projector,
    kernel_basis,
    pair_inner,
    unweighted_sup_norm,
    weighted_sup_norm,
)
from segkernel.operator1d import Grid, PairGridFunction, assemble


@pytest.fixture(scope="module")
def grid():
    return Grid(40.0, 3201)


@pytest.fixture(scope="module")
def ctx():
    return NormContext(0.5)


def random_localized(grid, seed):
    rng = np.random.default_rng(seed)
    bump = np.exp(-grid.nodes ** 2 / 4.0)
    u = PairGridFunction(
        grid,
        bump * rng.standard_normal(grid.N),
        bump * rng.standard_normal(grid.N),
    )
    return u


class TestNorms:
    def test_weight_cancellation(self, grid, ctx):
        u = PairGridFunction(grid, 1.0 / np.cosh(ctx.theta * grid.nodes),
                             np.zeros(grid.N))
        assert abs(weighted_sup_norm(u, ctx) - 1.0) <= 1e-12

    def test_zero(self, grid, ctx):
        z = PairGridFunction.zeros(grid)
        assert weighted_sup_norm(z, ctx) == 0.0
        assert unweighted_sup_norm(z) == 0.0

    def test_weighted_dominates_unweighted(self, grid, ctx):
        for seed in range(5):
            u = random_localized(grid, seed)
            assert weighted_sup_norm(u, ctx) >= unweighted_sup_norm(u) - 1e-12

    def test_scaling(self, grid, ctx):
        u = random_localized(grid, 3)
        two = PairGridFunction(grid, 2.0 * u.comp1, 2.0 * u.comp2)
        assert np.isclose(weighted_sup_norm(two, ctx),
                          2.0 * weighted_sup_norm(u, ctx), rtol=1e-13)
        assert unweighted_sup_norm(two) == 2.0 * unweighted_sup_norm(u)

    def test_large_weight_no_overflow(self, table):
        big = Grid(800.0, 4001)
        u = PairGridFunction(big, np.ones(big.N), np.ones(big.N))
        val = weighted_sup_norm(u, NormContext(0.75))
        assert np.isfinite(val) and val > 1e100

    def test_sup_of_kernel_element_is_slope(self, table, grid):
        kb = kernel_basis(table, grid)
        assert abs(unweighted_sup_norm(kb.z1) - table.asymptotics.A) <= 1e-6

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            NormContext(0.0)


class TestKernelBasis:
    def test_center_values(self, table, grid):
        kb = kernel_basis(table, grid)
        j0 = (grid.N - 1) // 2
        d0 = table.dv1[(table.n_nodes - 1) // 2]
        assert kb.z1.comp1[j0] == d0
        assert kb.z1.comp2[j0] == -d0
        assert kb.z2.comp1[j0] == 1.0
        assert kb.z2.comp2[j0] == 1.0

    @pytest.mark.parametrize("r_val, n", [(40.0, 3201), (160.0, 12801), (20.0, 400),
                                          (10.0, 201), (10.0, 200)])
    def test_mirror_exact(self, table, r_val, n):
        # V1(x) = V2(-x): z1 is J-odd and z2 J-even to the bit, odd and
        # even N, inside and beyond the table
        kb = kernel_basis(table, Grid(r_val, n))
        assert np.array_equal(kb.z1.comp1, -kb.z1.comp2[::-1])
        assert np.array_equal(kb.z2.comp1, kb.z2.comp2[::-1])

    def test_tail_values(self, table, grid):
        kb = kernel_basis(table, grid)
        a = table.asymptotics
        x = grid.nodes[-2]        # beyond the table on the right
        j = grid.N - 2
        assert kb.z1.comp1[j] == a.A
        assert kb.z1.comp2[j] == 0.0
        assert np.isclose(kb.z2.comp1[j], 2.0 * a.A * x + a.B, rtol=1e-15)

    def test_annihilated_by_operator(self, table, grid):
        kb = kernel_basis(table, grid)
        op = assemble(table, 0.0, grid)
        res = op.apply(kb.z1)
        sel = np.abs(grid.nodes) <= grid.R - 1.0
        sup = max(np.max(np.abs(res.comp1[sel])), np.max(np.abs(res.comp2[sel])))
        assert sup <= 40.0 * grid.h ** 2

    def test_z1_matches_finite_differences(self, table):
        h = table.spacing
        fd = (table.v1[2:] - table.v1[:-2]) / (2.0 * h)
        assert np.max(np.abs(fd - table.dv1[1:-1])) <= 1e-4


class TestProjection:
    def test_projected_integral_vanishes(self, table, grid, ctx):
        kb = kernel_basis(table, grid)
        g = random_localized(grid, 5)
        gp = Projector([kb.z1], grid, ctx)(g)
        # zero endpoints: the trapezoid pairing is the interior one
        assert gp.comp1[0] == gp.comp1[-1] == gp.comp2[0] == gp.comp2[-1] == 0.0
        integral = pair_inner(kb.z1, gp, grid)
        assert abs(integral) <= 1e-12 * weighted_sup_norm(g, ctx)

    def test_idempotent(self, table, grid, ctx):
        kb = kernel_basis(table, grid)
        g = random_localized(grid, 6)
        proj = Projector([kb.z1], grid, ctx)
        g1 = proj(g)
        g2 = proj(g1)
        delta = max(np.max(np.abs(g2.comp1 - g1.comp1)),
                    np.max(np.abs(g2.comp2 - g1.comp2)))
        assert delta <= 1e-12

    def test_orthogonal_input_unchanged(self, table, grid, ctx):
        kb = kernel_basis(table, grid)
        proj = Projector([kb.z1], grid, ctx)
        g = proj(random_localized(grid, 8))
        g_again = proj(g)
        delta = max(np.max(np.abs(g_again.comp1 - g.comp1)),
                    np.max(np.abs(g_again.comp2 - g.comp2)))
        assert delta <= 1e-12

    def test_two_element_projection(self, table, grid, ctx):
        kb = kernel_basis(table, grid)
        g = random_localized(grid, 9)
        gp = Projector([kb.z1, kb.z2], grid, ctx)(g)
        scale = weighted_sup_norm(g, ctx)
        assert abs(pair_inner(kb.z1, gp, grid)) <= 1e-12 * scale
        assert abs(pair_inner(kb.z2, gp, grid)) <= 1e-12 * scale

    def test_gram_singular_detected(self, table, grid, ctx):
        kb = kernel_basis(table, grid)
        with pytest.raises(GramSingular):
            Projector([kb.z1, kb.z1], grid, ctx)
