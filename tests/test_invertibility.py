from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import LinAlgError

from segkernel import invertibility
from segkernel.errors import BudgetExceeded, NoConvergence
from segkernel.lapack import pbtrf, pbtrs, tbtrs
from segkernel.invertibility import (
    SweepPoint,
    _interior_weights,
    _node_blocks,
    _perron_lower_bound,
    inv_constant_estimate,
    inv_constant_exact,
    run_sweep,
    run_sweep_entry,
    smallest_eigenvalue,
)
from segkernel.norms import NormContext, Projector, kernel_basis
from segkernel.operator1d import DiscreteOperator, Grid, assemble
from oracles import dense_matrix


# (R, N, omega): odd and even node counts, and omega = 0
DENSE_CASES = [(10.0, 201, 0.5), (10.0, 200, 0.5), (10.0, 202, 0.5), (40.0, 1201, 0.0)]
DENSE_IDS = [f"R{r:g}-N{n}-omega{om:g}" for r, n, om in DENSE_CASES]


@pytest.fixture(scope="module")
def small_case(table):
    grid = Grid(10.0, 201)
    op = assemble(table, 0.5, grid)
    dense = dense_matrix(table, 0.5, grid)
    return grid, op, dense


def dense_k(table, op, ctx, elements=None):
    """Max weighted absolute row sum of the dense L^-1 P diag(w)."""
    p_mat = np.eye(op.n_unknowns)
    if elements:
        proj = Projector(elements, op.grid, ctx)
        p_mat -= proj.carriers @ (proj.gram_inv @ proj.zrows)
    dense = dense_matrix(table, op.omega, op.grid)
    mat = np.linalg.inv(dense) @ p_mat @ np.diag(_interior_weights(op, ctx))
    return float(np.max(np.sum(np.abs(mat), axis=1)))


def eigenvalue_and_bound(op):
    """smallest_eigenvalue(op) and the lower bound that certified it."""
    bounds = []

    def capture(op, v):
        bounds.append(_perron_lower_bound(op, v))
        return bounds[-1]

    with mock.patch.object(invertibility, "_perron_lower_bound", capture):
        rho = smallest_eigenvalue(op)
    return rho, bounds[0]


class TestExactNorm:
    @pytest.mark.parametrize("r_val, n, omega", DENSE_CASES, ids=DENSE_IDS)
    def test_matches_dense_inverse(self, table, r_val, n, omega):
        grid = Grid(r_val, n)
        op = assemble(table, omega, grid)
        ctx = NormContext(0.5)
        k_dense = dense_k(table, op, ctx)
        k = inv_constant_exact(op, ctx)
        assert abs(k - k_dense) / k_dense <= 1e-10

    @pytest.mark.parametrize("r_val, n, omega", DENSE_CASES, ids=DENSE_IDS)
    def test_constrained_matches_dense(self, table, r_val, n, omega):
        grid = Grid(r_val, n)
        op = assemble(table, omega, grid)
        ctx = NormContext(0.5)
        kb = kernel_basis(table, grid)
        k_dense = dense_k(table, op, ctx, [kb.z1])
        k = inv_constant_exact(op, ctx, orth_elements=[kb.z1])
        assert abs(k - k_dense) / k_dense <= 1e-10

    @pytest.mark.parametrize("n", [201, 200])
    def test_constrained_multi_block(self, table, monkeypatch, n):
        # tile heights from one row (a 1-row tile carries the anchor on) to
        # one tile, odd ones giving ragged top tiles; chunk widths from 2,
        # where every chunk is certified, to one chunk, which always
        # straddles the tile and is summed entry by entry (the slow 1- and
        # 2-row sweeps take these two widths only)
        grid = Grid(10.0, n)
        kb = kernel_basis(table, grid)
        ctx = NormContext(0.5)
        for omega in (0.0, 0.5):
            op = assemble(table, omega, grid)
            m = op.n_unknowns
            solve = op.solve_interior
            for k in (1, 2):
                elements = [kb.z1, kb.z2][:k]
                k_dense = dense_k(table, op, ctx, elements)
                for rows in (1, 2, 3, 16, 41, m):
                    for width in (2, 4, 64, m + 2) if rows > 2 else (2, m + 2):
                        shapes = []

                        def counting_solve(rhs):
                            shapes.append(rhs.shape)
                            return solve(rhs)

                        monkeypatch.setattr(op, "solve_interior", counting_solve)
                        monkeypatch.setattr(invertibility, "TILE_ROWS", rows)
                        monkeypatch.setattr(invertibility, "CHUNK_COLUMNS", width)
                        got = inv_constant_exact(op, ctx, orth_elements=elements)
                        case = (omega, k, rows, width)
                        assert shapes == [(m, k)], case     # the carriers only
                        assert abs(got - k_dense) / k_dense <= 1e-10, case

    @pytest.mark.parametrize("n", [201, 200])
    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_node_blocks_match_dense_inverse(self, table, omega, n):
        # T = L^-1: T_qq is the diagonal block of node q (unknowns 2q, 2q+1)
        # and T[q, j] = P_q T[q+1, j] for every column j past node q
        grid = Grid(10.0, n)
        op = assemble(table, omega, grid)
        inv = np.linalg.inv(dense_matrix(table, omega, grid))
        p, t = _node_blocks(op.factorization())
        nodes = op.n_unknowns // 2
        blocks = inv.reshape(nodes, 2, nodes, 2)[np.arange(nodes), :, np.arange(nodes)]
        scale = np.max(np.abs(inv))
        assert np.max(np.abs(t - blocks)) <= 1e-12 * scale
        assert not p[-1].any()
        for q in range(nodes - 1):
            past = inv[2 * q: 2 * q + 2, 2 * q + 2:]
            assert np.max(np.abs(p[q] @ inv[2 * q + 2: 2 * q + 4, 2 * q + 2:] - past)) \
                <= 1e-12 * scale, q

    def test_one_triangular_solve(self, table, monkeypatch):
        # the node blocks take one back substitution; the tiles, whatever
        # their height, add no triangular solve
        grid = Grid(10.0, 201)
        op = assemble(table, 0.0, grid)
        m = op.n_unknowns
        ctx = NormContext(0.5)
        elements = [kernel_basis(table, grid).z1]
        calls = []

        def counting_tbtrs(band, b):
            calls.append(np.shape(band))
            return tbtrs(band, b)

        monkeypatch.setattr(invertibility, "tbtrs", counting_tbtrs)
        for rows in (1, 2, 3, 41, 128, m, m + 1):
            monkeypatch.setattr(invertibility, "TILE_ROWS", rows)
            calls.clear()
            inv_constant_exact(op, ctx, orth_elements=elements)
            assert calls == [(6, 3 * m // 2)], rows

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(
        n=st.integers(41, 241),
        r_val=st.floats(5.0, 15.0),
        theta=st.floats(0.3, 0.8),
        omega=st.floats(0.0, 0.5),
        orth_mode=st.sampled_from(["none", "one"]),
        rows=st.integers(1, 64),
        half_width=st.integers(1, 40),
    )
    def test_matches_dense_property(self, table, n, r_val, theta, omega, orth_mode,
                                    rows, half_width):
        grid = Grid(r_val, n)
        op = assemble(table, omega, grid)
        ctx = NormContext(theta)
        elements = [kernel_basis(table, grid).z1] if orth_mode == "one" else None
        k_dense = dense_k(table, op, ctx, elements)
        with mock.patch.multiple(invertibility, TILE_ROWS=rows,
                                 CHUNK_COLUMNS=2 * half_width):
            k = inv_constant_exact(op, ctx, orth_elements=elements)
        assert abs(k - k_dense) / k_dense <= 1e-10
        est = inv_constant_estimate(op, ctx, orth_elements=elements)
        assert est <= k * (1.0 + 1e-12)

    def test_constrained_below_unconstrained(self, table):
        grid = Grid(40.0, 1201)
        op = assemble(table, 0.0, grid)
        ctx = NormContext(0.5)
        kb = kernel_basis(table, grid)
        k_full = inv_constant_exact(op, ctx)
        k_one = inv_constant_exact(op, ctx, orth_elements=[kb.z1])
        assert k_one <= k_full

    def test_dominates_counterexample_quotient(self, table):
        from segkernel.counterexample import lower_bound_from_counterexample

        grid = Grid(20.0, 1601)
        op = assemble(table, 0.3, grid)
        k = inv_constant_exact(op, NormContext(0.5))
        bound = lower_bound_from_counterexample(table, 0.5, 0.3, 20.0, 1601)
        assert k >= 0.98 * bound

    def test_size_guard(self, table, monkeypatch):
        # the guard bounds constrained K only; plain K is one banded solve
        grid = Grid(10.0, 201)
        op = assemble(table, 0.5, grid)
        ctx = NormContext(0.5)
        elements = [kernel_basis(table, grid).z1]
        k_plain = inv_constant_exact(op, ctx)
        monkeypatch.setattr(invertibility, "EXACT_SIZE_GUARD", 100)
        with pytest.raises(BudgetExceeded, match="guard 100"):
            inv_constant_exact(op, ctx, orth_elements=elements)
        assert inv_constant_exact(op, ctx) == k_plain


class TestReflection:
    # Reversing an interleaved vector reverses the nodes and swaps the
    # components.  Constrained K adds each row's lower sum as the upper sum
    # of the mirror row, which needs solve, projector and weights to commute
    # with that reflection.
    @pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(
        half=st.integers(20, 120),
        r_val=st.floats(5.0, 15.0),
        theta=st.floats(0.3, 0.8),
        omega=st.floats(0.0, 0.5),
        k=st.integers(1, 2),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_commutes_with_reflection(self, table, parity, half, r_val, theta,
                                      omega, k, seed):
        grid = Grid(r_val, 2 * half + parity)
        op = assemble(table, omega, grid)
        ctx = NormContext(theta)
        kb = kernel_basis(table, grid)
        proj = Projector([kb.z1, kb.z2][:k], grid, ctx)
        g = np.random.default_rng(seed).standard_normal((op.n_unknowns, 2))

        def rel_sup(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        assert rel_sup(op.solve_interior(g[::-1]), op.solve_interior(g)[::-1]) <= 1e-12
        assert rel_sup(proj.apply(g[::-1]), proj.apply(g)[::-1]) <= 1e-12
        w = _interior_weights(op, ctx)
        assert rel_sup(w[::-1], w) <= 1e-12


class TestEstimate:
    def test_lower_bound_and_quality(self, table, small_case):
        _, op, _ = small_case
        ctx = NormContext(0.5)
        exact = inv_constant_exact(op, ctx)
        est = inv_constant_estimate(op, ctx, seed=42)
        assert est <= exact * (1.0 + 1e-12)
        assert est >= 0.5 * exact

    def test_never_exceeds_exact_random_cases(self, table):
        rng = np.random.default_rng(42)
        for _ in range(10):
            theta = rng.uniform(0.3, 0.8)
            omega = rng.uniform(0.05, 0.6)
            r_val = rng.uniform(8.0, 14.0)
            grid = Grid(r_val, 201)
            op = assemble(table, omega, grid)
            ctx = NormContext(theta)
            exact = inv_constant_exact(op, ctx)
            est = inv_constant_estimate(op, ctx, seed=int(rng.integers(1 << 30)))
            assert est <= exact * (1.0 + 1e-12)

    def test_more_restarts_never_worse(self, table, small_case, monkeypatch):
        grid, op, _ = small_case
        ctx = NormContext(0.5)
        elements = [kernel_basis(table, grid).z1]
        e5 = inv_constant_estimate(op, ctx, orth_elements=elements, seed=42)
        monkeypatch.setattr(invertibility, "ESTIMATE_RESTARTS", 1)
        e1 = inv_constant_estimate(op, ctx, orth_elements=elements, seed=42)
        assert e5 >= e1

    def test_plain_estimate_is_exact_k(self, table):
        # without constraints the estimate is plain K's one solve, bit for
        # bit and whatever the seed
        op = assemble(table, 0.2, Grid(100.0, 8001))
        ctx = NormContext(0.5)
        exact = inv_constant_exact(op, ctx)
        for seed in (0, 42):
            assert inv_constant_estimate(op, ctx, seed=seed) == exact


class TestEigenvalue:
    def test_matches_dense(self, table):
        for n in (201, 200):
            for omega in (0.0, 0.3):
                grid = Grid(10.0, n)
                lam_dense = np.linalg.eigvalsh(dense_matrix(table, omega, grid))[0]
                lam = smallest_eigenvalue(assemble(table, omega, grid))
                assert abs(lam - lam_dense) / abs(lam_dense) <= 1e-8, (n, omega)

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(
        n=st.integers(41, 241),
        r_val=st.floats(5.0, 15.0),
        omega=st.floats(0.0, 0.5),
    )
    def test_matches_dense_property(self, table, n, r_val, omega):
        grid = Grid(r_val, n)
        lam_dense = np.linalg.eigvalsh(dense_matrix(table, omega, grid))[0]
        lam = smallest_eigenvalue(assemble(table, omega, grid))
        assert abs(lam - lam_dense) / abs(lam_dense) <= 1e-8

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(
        n=st.integers(41, 241),
        r_val=st.floats(5.0, 15.0),
        omega=st.floats(0.0, 0.5),
    )
    def test_bound_brackets_dense_property(self, table, n, r_val, omega):
        # eigvalsh is off by up to ~eps ||L|| (3.4e-12 relative at R = 6,
        # N = 67), so the reference is the extended-precision Rayleigh
        # quotient of eigh's eigenvector: lambda_min to round-off, from above
        grid = Grid(r_val, n)
        dense = dense_matrix(table, omega, grid)
        x = np.linalg.eigh(dense)[1][:, 0].astype(np.longdouble)
        lam_ref = float(x @ (dense.astype(np.longdouble) @ x) / (x @ x))
        rho, low = eigenvalue_and_bound(assemble(table, omega, grid))
        assert 0.0 < low <= lam_ref <= rho * (1.0 + 1e-12)

    @pytest.mark.parametrize("r_val, n, width", [(800.0, 64001, 1e-5),
                                                 (1600.0, 128001, 1e-4)])
    def test_bracket_width(self, table, r_val, n, width):
        # delta / rho, the slack the check allows, is 8.7e-3 and 0.14
        # here; the bracket measures 1.7e-6 and 6.7e-6
        rho, low = eigenvalue_and_bound(assemble(table, 0.0, Grid(r_val, n)))
        assert 0.0 < low <= rho and (rho - low) / rho <= width

    def test_no_certificate_factorization(self, table, monkeypatch):
        # pbtrf runs only for the omega^2 shift, never for the certificate
        calls = []

        def counting_pbtrf(band):
            calls.append(1)
            return pbtrf(band)

        monkeypatch.setattr(invertibility, "pbtrf", counting_pbtrf)
        grid = Grid(40.0, 3201)
        op = assemble(table, 0.0, grid)
        op.factorization()
        smallest_eigenvalue(op)
        assert len(calls) == 0
        smallest_eigenvalue(assemble(table, 0.3, grid))
        assert len(calls) == 1

    def test_sign_vector_start_converges_fast(self, table, monkeypatch):
        # the lambda_min eigenvector is diag(s) p with p > 0, so the start
        # s / sqrt(m) needs few iterations (a random start took 16 here)
        op = assemble(table, 0.0, Grid(160.0, 12801))
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return pbtrs(*args, **kwargs)

        monkeypatch.setattr(invertibility, "pbtrs", counting_solve)
        smallest_eigenvalue(op)
        assert len(calls) <= 10

    def test_identity_shift(self, table):
        # the fine R = 10 grid (2/h^2 = 8e4) fails if omega^2 is taken off
        # the assembled diagonal instead of off the potentials
        for r_val, n in ((10.0, 4001), (40.0, 3201), (800.0, 64001)):
            grid = Grid(r_val, n)
            lam0 = smallest_eigenvalue(assemble(table, 0.0, grid))
            lam = smallest_eigenvalue(assemble(table, 0.3, grid))
            assert abs((lam - lam0) - 0.09) <= 1e-12, r_val

    def test_fallback_when_shifted_factor_fails(self, table):
        # potentials pot(0) + omega^2 - 1.5 lambda(0): L - omega^2 I is
        # indefinite, so the iteration falls back to the cached factor
        grid = Grid(10.0, 201)
        omega = 0.3
        op0 = assemble(table, 0.0, grid)
        lam0 = smallest_eigenvalue(op0)
        c = omega * omega - 1.5 * lam0
        op = DiscreteOperator(grid, omega, op0.pot1 + c, op0.pot2 + c, op0.coup)
        with pytest.raises(LinAlgError):
            pbtrf(op.shifted_band(omega * omega))
        dense = dense_matrix(table, 0.0, grid) + c * np.eye(op.n_unknowns)
        lam_dense = np.linalg.eigvalsh(dense)[0]
        lam = smallest_eigenvalue(op)
        assert abs(lam - lam_dense) / abs(lam_dense) <= 1e-8

    def test_failed_certificate_raises_with_value(self, table, monkeypatch):
        point = SweepPoint(theta=0.5, omega=0.0, R=10.0, N=201)
        op = assemble(table, point.omega, Grid(point.R, point.N))
        lam = smallest_eigenvalue(op)
        monkeypatch.setattr(invertibility, "_perron_lower_bound", lambda op, v: 0.0)
        with pytest.raises(NoConvergence, match="certificate") as info:
            smallest_eigenvalue(op)
        assert info.value.last_value == lam
        rec = run_sweep_entry(table, point)
        assert "certificate" in rec.error and "iterations" not in rec.error
        assert rec.lambda_min == lam

    def test_spectral_inclusion(self, table):
        for om, r_val in ((0.1, 40.0), (0.3, 60.0)):
            grid = Grid(r_val, int(80 * r_val) + 1)
            lam = smallest_eigenvalue(assemble(table, om, grid))
            assert lam >= om * om - 1e-4

    def test_iteration_cap_raises_with_value(self, table, monkeypatch):
        op = assemble(table, 0.05, Grid(60.0, 1601))
        monkeypatch.setattr(invertibility, "EIG_TOL", 1e-30)
        monkeypatch.setattr(invertibility, "EIG_MAX_ITERS", 5)
        with pytest.raises(NoConvergence, match="5 iterations") as info:
            smallest_eigenvalue(op)
        assert info.value.last_value is not None


class TestSweep:
    def test_records_in_plan_order_with_failures(self, table):
        plan = [
            SweepPoint(theta=0.5, omega=0.2, R=20.0, N=801),
            SweepPoint(theta=0.5, omega=0.2, R=20.0, N=801, method="bogus"),
            SweepPoint(theta=0.5, omega=0.0, R=20.0, N=801),
            SweepPoint(theta=0.5, omega=0.0, R=20.0, N=801, orth_mode="bogus"),
            SweepPoint(theta=0.5, omega=0.0, R=20.0, N=801, orth_mode="One"),
        ]
        recs = run_sweep(table, plan)
        assert len(recs) == 5
        assert recs[0].error == "" and np.isfinite(recs[0].K)
        assert recs[1].error == "ValueError: unknown method 'bogus'"
        assert recs[2].error == "" and recs[2].omega_K == 0.0
        assert np.isnan(recs[2].ce_lower_bound)
        assert recs[3].error == "ValueError: unknown orth_mode 'bogus'"
        assert recs[4].error == "ValueError: unknown orth_mode 'One'"
        # rejected before any solve
        for rec in recs[1:2] + recs[3:]:
            assert np.isnan(rec.K) and np.isnan(rec.lambda_min)

    def test_estimated_method_recorded(self, table):
        rec = run_sweep_entry(
            table, SweepPoint(theta=0.5, omega=0.3, R=15.0, N=601,
                              method="estimated")
        )
        assert rec.method == "estimated"
        assert np.isfinite(rec.K)
