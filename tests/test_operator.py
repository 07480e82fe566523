import numpy as np
import pytest

from segkernel.counterexample import CounterexampleSpec
from segkernel.errors import GridMismatch, SingularSystem
from segkernel.norms import NormContext
from segkernel.operator1d import (
    DiscreteOperator,
    Grid,
    PairGridFunction,
    assemble,
    convergence_report,
    interleave,
    mms_pair,
)
from segkernel.profile import eval_profile

from oracles import band_to_dense


class TestGrid:
    def test_exact_endpoints_and_mirror(self):
        g = Grid(37.0, 1601)
        assert g.nodes[0] == -37.0
        assert g.nodes[-1] == 37.0
        assert g.nodes[800] == 0.0
        assert np.array_equal(g.nodes[::-1], -g.nodes)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(10.0, 3)
        with pytest.raises(ValueError):
            Grid(-1.0, 101)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("name, build", [
    ("R", lambda table, x: Grid(x, 201)),
    ("theta", lambda table, x: NormContext(x)),
    ("omega", lambda table, x: assemble(table, x, Grid(10.0, 201))),
    ("R", lambda table, x: CounterexampleSpec(R=x, theta=0.5)),
    ("omega", lambda table, x: CounterexampleSpec(R=50.0, theta=0.5, omega=x)),
], ids=["Grid", "NormContext", "assemble", "CounterexampleSpec-R", "CounterexampleSpec-omega"])
def test_non_finite_parameter_rejected(table, name, build, value):
    # rejected where the object is built, naming the parameter, not later
    # inside LAPACK
    with pytest.raises(ValueError, match=f"^{name} "):
        build(table, value)


class TestAssembly:
    def test_coupling_at_interface(self, table):
        g = Grid(20.0, 1601)
        op = assemble(table, 0.5, g)
        j0 = np.nonzero(g.interior == 0.0)[0][0]
        assert op.coup[j0] == 2.0

    def test_tail_entries(self, table):
        g = Grid(40.0, 3201)
        om = 0.25
        op = assemble(table, om, g)
        x = g.interior[-1]          # R - h, far beyond the table
        a = table.asymptotics
        assert op.coup[-1] == 0.0
        assert op.pot1_0[-1] + op.w2 == om * om
        expected = (a.A * x + a.B) ** 2 + om * om
        assert np.isclose(op.pot2_0[-1] + op.w2, expected, rtol=1e-15, atol=0.0)

    def test_identity_shift(self, table):
        g = Grid(20.0, 1601)
        d = assemble(table, 0.1, g).band[2] - assemble(table, 0.0, g).band[2]
        assert np.max(np.abs(d - 0.01)) <= 1e-11

    def test_band_symmetric(self, table):
        op = assemble(table, 0.3, Grid(15.0, 401))
        dense = band_to_dense(op)
        assert np.array_equal(dense, dense.T)

    def test_negative_omega_rejected(self, table):
        with pytest.raises(ValueError):
            assemble(table, -0.1, Grid(15.0, 401))


class TestApplySolve:
    def test_apply_zero(self, table):
        g = Grid(20.0, 801)
        op = assemble(table, 0.5, g)
        out = op.apply(PairGridFunction.zeros(g))
        assert np.all(out.comp1 == 0.0) and np.all(out.comp2 == 0.0)

    def test_solve_zero_rhs(self, table):
        g = Grid(20.0, 801)
        op = assemble(table, 0.5, g)
        sol = op.solve(PairGridFunction.zeros(g))
        assert np.all(sol.comp1 == 0.0) and np.all(sol.comp2 == 0.0)

    def test_round_trip(self, table):
        g = Grid(20.0, 1601)
        op = assemble(table, 0.5, g)
        rng = np.random.default_rng(11)
        gfun = PairGridFunction.zeros(g)
        gfun.comp1[1:-1] = rng.standard_normal(g.N - 2)
        gfun.comp2[1:-1] = rng.standard_normal(g.N - 2)
        phi = op.solve(gfun)
        back = op.apply(phi)
        scale = np.max(np.abs(interleave(gfun)))
        err = max(
            np.max(np.abs(back.comp1 - gfun.comp1)[1:-1]),
            np.max(np.abs(back.comp2 - gfun.comp2)[1:-1]),
        )
        assert err <= 1e-10 * scale

    def test_backward_residual_bound(self, table):
        g = Grid(20.0, 1601)
        op = assemble(table, 0.5, g)
        rng = np.random.default_rng(13)
        gfun = PairGridFunction.zeros(g)
        gfun.comp1[1:-1] = rng.standard_normal(g.N - 2)
        gfun.comp2[1:-1] = rng.standard_normal(g.N - 2)
        phi = op.solve(gfun)
        back = op.apply(phi)
        res = max(
            np.max(np.abs(back.comp1 - gfun.comp1)[1:-1]),
            np.max(np.abs(back.comp2 - gfun.comp2)[1:-1]),
        )
        band_inf = np.max(np.abs(op.band)) * 5
        phi_inf = np.max(np.abs(interleave(phi)))
        g_inf = np.max(np.abs(interleave(gfun)))
        assert res <= 1e-10 * (g_inf + phi_inf * band_inf)

    def test_grid_mismatch(self, table):
        op = assemble(table, 0.5, Grid(20.0, 801))
        other = PairGridFunction.zeros(Grid(20.0, 803))
        with pytest.raises(GridMismatch):
            op.apply(other)
        with pytest.raises(GridMismatch):
            op.solve(other)

    def test_kernel_element_residual_second_order(self, table):
        errs = []
        for n in (1601, 3201):
            g = Grid(20.0, n)
            op = assemble(table, 0.0, g)
            v1, dv1, v2, dv2 = eval_profile(table, g.nodes)
            res = op.apply(PairGridFunction(g, dv1, dv2))
            sel = np.abs(g.nodes) <= g.R - 1
            errs.append(max(np.max(np.abs(res.comp1[sel])),
                            np.max(np.abs(res.comp2[sel]))))
        assert errs[0] <= 1e-3
        assert errs[1] <= errs[0] / 3.0

    def test_reflection_equivariance(self, table):
        g = Grid(25.0, 2001)
        op = assemble(table, 0.3, g)
        f = np.exp(-((g.nodes - 1.0) ** 2))
        rhs = PairGridFunction(g, f, -f[::-1])
        sol = op.solve(rhs)
        assert np.max(np.abs(sol.comp1 + sol.comp2[::-1])) <= 1e-10

    def test_discrete_solution_family_consistency(self, table):
        # rhs built from the discrete operator at each resolution: the
        # solves reproduce the same sampled pair, so shared nodes agree
        vals = []
        for n in (801, 1601):
            g = Grid(20.0, n)
            op = assemble(table, 0.5, g)
            phi1, phi2, _, _ = mms_pair(g)
            u = PairGridFunction(g, phi1, phi2)
            sol = op.solve(op.apply(u))
            vals.append(sol.comp1)
        assert np.max(np.abs(vals[0] - vals[1][::2])) <= 1e-9


class TestFactorization:
    def test_omega_zero_allowed_with_pivot_diagnostics(self, table):
        op = assemble(table, 0.0, Grid(20.0, 801))
        op.factorization()
        assert op.smallest_pivot is not None
        assert op.smallest_pivot > 0

    def test_singular_system_detected(self, table):
        from segkernel.invertibility import smallest_eigenvalue

        op = assemble(table, 0.0, Grid(20.0, 801))
        lam = smallest_eigenvalue(op)
        shifted = DiscreteOperator(
            op.grid, 0.0, op.pot1_0 - 1.5 * lam, op.pot2_0 - 1.5 * lam, op.coup
        )
        with pytest.raises(SingularSystem):
            shifted.factorization()


class TestConvergence:
    def test_manufactured_orders(self, table):
        rows = convergence_report(table, 0.5, 20.0, [801, 1601, 3201])
        orders = [r["order"] for r in rows if r["order"] is not None]
        assert all(1.8 <= o <= 2.2 for o in orders)
        assert rows[-1]["error"] < rows[0]["error"]

    def test_validation(self, table):
        with pytest.raises(ValueError):
            convergence_report(table, 0.5, 20.0, [800, 1600])
        with pytest.raises(ValueError):
            convergence_report(table, 0.5, 20.0, [1601, 801])
