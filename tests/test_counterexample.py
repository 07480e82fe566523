import math
from unittest import mock

import numpy as np
import pytest

from segkernel import counterexample
from segkernel.counterexample import (
    CounterexampleSpec,
    build_counterexample,
    counterexample_residual,
    default_node_count,
    lower_bound_from_counterexample,
    raw_kernel_pair,
    sigma_helper,
    sinh_ratio,
    smooth_cutoff,
)
from segkernel.errors import ResolutionInsufficient
from segkernel.norms import NormContext, weighted_sup
from segkernel.operator1d import Grid, apply_between, assemble
from segkernel.profile import eval_profile

# regression values of r at theta = alpha = 0.5, default node rule
R_PINNED = {50.0: 1.558336, 100.0: 1.547815, 200.0: 1.542621, 400.0: 1.540516}


class TestCutoff:
    def test_plateau_support_midpoint(self):
        assert smooth_cutoff(0.4) == 1.0
        assert smooth_cutoff(0.8) == 0.0
        assert smooth_cutoff(5.0 / 8.0) == 0.5

    def test_even_and_monotone_transition(self):
        ys = np.linspace(0.5, 0.75, 64)
        vals = smooth_cutoff(ys)
        assert np.all(np.diff(vals) <= 0)
        assert np.allclose(smooth_cutoff(-ys), vals)


class TestSpec:
    def test_defaults(self):
        spec = CounterexampleSpec(R=100.0, theta=0.5)
        assert spec.alpha == 0.5
        assert spec.omega == 100.0 ** -0.5
        assert spec.omega * spec.R >= 1.0
        assert spec.N == default_node_count(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CounterexampleSpec(R=2.0, theta=0.5)
        with pytest.raises(ValueError):
            CounterexampleSpec(R=100.0, theta=1.5)
        with pytest.raises(ValueError):
            CounterexampleSpec(R=100.0, theta=0.5, omega=0.001)
        with pytest.raises(ValueError):
            CounterexampleSpec(R=100.0, theta=0.5, N=1000)


class TestSinhRatio:
    def test_endpoints(self):
        assert sinh_ratio(0.1, 100.0, 0.0) == 1.0
        assert sinh_ratio(0.1, 100.0, 100.0) == 0.0

    def test_matches_naive_formula(self):
        x = np.linspace(0.0, 30.0, 97)
        naive = np.sinh(0.1 * (30.0 - x)) / np.sinh(0.1 * 30.0)
        assert np.max(np.abs(sinh_ratio(0.1, 30.0, x) - naive)) <= 1e-13

    def test_no_overflow_large_omega_r(self):
        vals = sinh_ratio(1.0, 5000.0, np.array([0.0, 2500.0, 5000.0]))
        assert np.all(np.isfinite(vals))


class TestSigma:
    def test_zero_at_origin(self, table):
        assert sigma_helper(0.1, 100.0, table.asymptotics.A, 0.0) == 0.0

    def test_discrete_identity_second_order(self, table):
        A = table.asymptotics.A
        om, R = 0.1, 100.0
        res = []
        for n in (2001, 4001):
            x = np.linspace(0.0, R, n)
            h = x[1] - x[0]
            s = sigma_helper(om, R, A, x)
            d2 = (np.diff(s[1:]) - np.diff(s[:-1])) / (h * h)
            resid = -d2 + om * om * s[1:-1] + A * om * om
            res.append(np.max(np.abs(resid)))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.2)

    def test_linear_growth_bound(self, table):
        A = table.asymptotics.A
        for R in (50.0, 100.0, 400.0):
            om = R ** -0.5
            x = np.linspace(1e-3, math.log(R) / 2.0, 200)
            s = np.abs(sigma_helper(om, R, A, x))
            assert np.all(s <= 2.0 * A * om * x)


class TestBuild:
    def test_dirichlet_and_antisymmetry_exact(self, table):
        spec = CounterexampleSpec(R=100.0, theta=0.5)
        phi = build_counterexample(table, spec)
        assert phi.comp1[0] == 0.0 and phi.comp1[-1] == 0.0
        assert phi.comp2[0] == 0.0 and phi.comp2[-1] == 0.0
        assert np.array_equal(phi.comp1, -phi.comp2[::-1])

    def test_center_matches_kernel_element(self, table):
        spec = CounterexampleSpec(R=100.0, theta=0.5)
        phi = build_counterexample(table, spec)
        j0 = (spec.N - 1) // 2
        jt = (table.n_nodes - 1) // 2
        assert phi.comp1[j0] == table.dv1[jt]
        assert phi.comp2[j0] == table.dv2[jt]

    def test_locally_uniform_convergence_to_kernel_element(self, table):
        devs = []
        for R in (50.0, 100.0, 200.0):
            spec = CounterexampleSpec(R=R, theta=0.5)
            phi = build_counterexample(table, spec)
            grid = spec.grid
            sel = np.abs(grid.nodes) <= 2.0
            _, dv1, _, dv2 = eval_profile(table, grid.nodes[sel])
            devs.append(max(np.max(np.abs(phi.comp1[sel] - dv1)),
                            np.max(np.abs(phi.comp2[sel] - dv2))))
        assert devs[0] > devs[1] > devs[2]

    def test_negative_control_violates_dirichlet(self, table):
        grid = Grid(50.0, 2001)
        raw = raw_kernel_pair(table, grid)
        a = table.asymptotics.A
        assert abs(raw.comp1[-1]) >= 0.9 * a
        spec = CounterexampleSpec(R=50.0, theta=0.5, N=2001)
        glued = build_counterexample(table, spec)
        assert glued.comp1[-1] == 0.0


class TestResidual:
    def test_pinned_values_and_flatness(self, table):
        rs = {}
        for R, expect in R_PINNED.items():
            rep = counterexample_residual(
                table, CounterexampleSpec(R=R, theta=0.5), strict=False
            )
            assert rep.resolution_ok
            assert rep.r == pytest.approx(expect, rel=1e-3)
            rs[R] = rep.r
        assert rs[400.0] <= 1.5 * rs[100.0]

    def test_center_value_near_kernel_element(self, table):
        jt = (table.n_nodes - 1) // 2
        rep = counterexample_residual(
            table, CounterexampleSpec(R=100.0, theta=0.5), strict=False
        )
        assert abs(rep.phi_at_0[0] - table.dv1[jt]) <= 0.05
        assert abs(rep.phi_at_0[1] - table.dv2[jt]) <= 0.05

    def test_resolution_gate_raises(self, table):
        with pytest.raises(ResolutionInsufficient):
            counterexample_residual(
                table, CounterexampleSpec(R=50.0, theta=0.5, N=401)
            )

    def test_other_weights(self, table):
        for theta in (0.25, 0.75):
            rep = counterexample_residual(
                table, CounterexampleSpec(R=100.0, theta=theta), strict=False
            )
            assert rep.resolution_ok
            assert np.isfinite(rep.r)

    def test_lower_bound_positive(self, table):
        bound = lower_bound_from_counterexample(table, 0.5, 0.2, 50.0, 4001)
        assert bound > 0.01 / 0.2

    @pytest.mark.parametrize("theta, omega, R", [
        (1.5, 0.2, 50.0), (0.5, 1.0, 2.0), (0.5, 0.01, 50.0), (0.5, 0.0, 50.0),
    ], ids=["theta", "R", "omegaR", "omega-zero"])
    def test_lower_bound_nan_where_construction_fails(self, table, theta, omega, R):
        # the spec's own rules decide, and the bound is nan there, not an error
        with pytest.raises(ValueError):
            CounterexampleSpec(R=R, theta=theta, omega=omega)
        assert math.isnan(lower_bound_from_counterexample(table, theta, omega, R))

    @pytest.mark.parametrize("omega, R", [(0.2, 50.0), (0.05, 400.0)])
    def test_lower_bound_is_the_coarse_quotient(self, table, omega, R):
        # ||phi||_inf / (omega r) at the spec grid, bit for bit, from one
        # assembly: the doubled-resolution gate is not run
        rep = counterexample_residual(
            table, CounterexampleSpec(R=R, theta=0.5, omega=omega), strict=False
        )
        with mock.patch.object(counterexample, "apply_between",
                               wraps=counterexample.apply_between) as spy:
            bound = lower_bound_from_counterexample(table, 0.5, omega, R)
        assert spy.call_count == 1
        assert bound == rep.norm_phi / (omega * rep.r)

    @pytest.mark.parametrize("R", [10.0, 50.0, 800.0])
    def test_window_residual_matches_full_grid(self, table, R):
        # L assembled and applied on the window only gives, bit for bit,
        # the full-grid evaluation restricted to the window (at R = 10
        # the window holds the whole grid, endpoints included)
        spec = CounterexampleSpec(R=R, theta=0.5, omega=R ** -0.5)
        phi = build_counterexample(table, spec)
        grid = spec.grid
        rho = assemble(table, spec.omega, grid).apply(phi)
        window = max(table.half_length, 0.75 * math.log(R))
        x = grid.nodes
        mask = (np.abs(x) <= window) & (np.abs(x) > 0.5 * grid.h)
        full = weighted_sup(x[mask], rho.comp1[mask], rho.comp2[mask], 0.5)
        got, _, got_window = counterexample._windowed_weighted_residual(
            table, spec, grid.N, NormContext(0.5))
        assert got == full and got_window == window
        for lo, hi in ((1, grid.N - 1), (1, 7), (grid.N // 3, grid.N // 2)):
            r1, r2 = apply_between(table, spec.omega, grid, lo,
                                   phi.comp1[lo - 1:hi + 1], phi.comp2[lo - 1:hi + 1])
            assert np.array_equal(r1, rho.comp1[lo:hi])
            assert np.array_equal(r2, rho.comp2[lo:hi])
        for lo, u1, u2 in ((0, phi.comp1[:8], phi.comp2[:8]),
                           (1, phi.comp1, phi.comp2[:8]),
                           (2, phi.comp1, phi.comp2)):
            with pytest.raises(ValueError):
                apply_between(table, spec.omega, grid, lo, u1, u2)
