from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segkernel import invertibility, operator1d
from segkernel.errors import BudgetExceeded, NoConvergence, SegkernelError, SingularSystem
from segkernel.lapack import gbsv, pbtrs
from segkernel.invertibility import (
    SweepPoint,
    _interior_weights,
    _near_triangles,
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


def dense_k(table, op, ctx, elements=None):
    """Max weighted absolute row sum of the dense L^-1 P diag(w)."""
    p_mat = np.eye(op.n_unknowns)
    if elements:
        proj = Projector(elements, op.grid, ctx)
        p_mat -= proj.carriers @ (proj.gram_inv @ proj.zrows)
    dense = dense_matrix(table, op.omega, op.grid)
    mat = np.linalg.inv(dense) @ p_mat @ np.diag(_interior_weights(op, ctx))
    return float(np.max(np.sum(np.abs(mat), axis=1)))


def count_operator_calls(monkeypatch):
    """Counts, from now on, of the factorizations of L DiscreteOperator
    computes (not those it returns from its cache) and of its solves."""
    calls = {"factorizations": 0, "solves": 0}
    factorization, solve = DiscreteOperator.factorization, DiscreteOperator.solve_interior

    def counting_factorization(op):
        calls["factorizations"] += op._factor is None
        return factorization(op)

    def counting_solve(op, rhs):
        calls["solves"] += 1
        return solve(op, rhs)

    monkeypatch.setattr(DiscreteOperator, "factorization", counting_factorization)
    monkeypatch.setattr(DiscreteOperator, "solve_interior", counting_solve)
    return calls


def eigenvalue_and_bound(op):
    """smallest_eigenvalue(op) and the lower bound that certified it: the
    certificate is of L(0), so omega^2 is added to it, rounded down."""
    bounds = []

    def capture(*args):
        bounds.append(_perron_lower_bound(*args))
        return bounds[-1]

    with mock.patch.object(invertibility, "_perron_lower_bound", capture):
        rho = smallest_eigenvalue(op)
    return rho, float(np.nextafter(bounds[0] + op.w2, -np.inf))


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
            calls = count_operator_calls(monkeypatch)
            runs = 0
            for k in (1, 2):
                elements = [kb.z1, kb.z2][:k]
                k_dense = dense_k(table, op, ctx, elements)
                for rows in (1, 2, 3, 16, 41, m):
                    for width in (2, 4, 64, m + 2) if rows > 2 else (2, m + 2):
                        shapes = []

                        def counting_pbtrs(factor, rhs):
                            shapes.append(rhs.shape)
                            return pbtrs(factor, rhs)

                        monkeypatch.setattr(operator1d, "pbtrs", counting_pbtrs)
                        monkeypatch.setattr(invertibility, "TILE_ROWS", rows)
                        monkeypatch.setattr(invertibility, "CHUNK_COLUMNS", width)
                        got = inv_constant_exact(op, ctx, orth_elements=elements)
                        runs += 1
                        case = (omega, k, rows, width)
                        # the carriers and the (here zero) dying column, one
                        # solve_interior with the Cholesky factor that gives L^-1
                        assert shapes == [(m, k + 1)], case
                        assert abs(got - k_dense) / k_dense <= 1e-10, case
            # L factored once, for every run, and no fold
            assert calls == {"factorizations": 1, "solves": runs}

    @pytest.mark.parametrize("n", [201, 200])
    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_inverse_diagonals_match_dense_inverse(self, table, omega, n):
        # T = L^-1: with y = 0, unit weights and one-row tiles, tile i's
        # anchor is rows i and i+1 of T at column i, so T_ii and T_i,i+1
        grid = Grid(10.0, n)
        op = assemble(table, omega, grid)
        m = op.n_unknowns
        inv = np.linalg.inv(dense_matrix(table, omega, grid))
        # no dying chain at R = 10: the kept band is L's whole band
        factor = op.factorization().core_factor
        _, diag, _, anchor = _near_triangles(factor, np.zeros((m + 2, 1)),
                                             np.zeros((1, m)), np.ones(m), 1)
        scale = np.max(np.abs(inv))
        assert np.max(np.abs(anchor[:, 0, 0] - np.diag(inv))) <= 1e-12 * scale
        assert np.max(np.abs(anchor[:-1, 1, 0] - np.diag(inv, 1))) <= 1e-12 * scale
        assert anchor[-1, 1, 0] == 0.0 and np.array_equal(diag, anchor[:, 0, 0])

    @pytest.mark.parametrize("segment", [2, 6, 64, 250])
    def test_inverse_diagonals_in_segments(self, table, monkeypatch, segment):
        # the back substitution in segments of a few unknowns, the top one
        # ragged, gives the diagonals of one substitution bit for bit
        grid = Grid(10.0, 201)
        op = assemble(table, 0.0, grid)
        m = op.n_unknowns
        inv = np.linalg.inv(dense_matrix(table, 0.0, grid))
        args = (op.factorization().core_factor, np.zeros((m + 2, 1)), np.zeros((1, m)),
                np.ones(m), 1)
        whole = _near_triangles(*args)[3]
        calls = []

        def counting_gbsv(kl, ku, band, b):
            calls.append(np.shape(band)[1])
            return gbsv(kl, ku, band, b)

        monkeypatch.setattr(invertibility, "gbsv", counting_gbsv)
        monkeypatch.setattr(invertibility, "SOLVE_SEGMENT", segment)
        anchor = _near_triangles(*args)[3]
        assert len(calls) == -(-2 * m // segment) and max(calls) <= segment + 4
        assert np.array_equal(anchor, whole)
        scale = np.max(np.abs(inv))
        assert np.max(np.abs(anchor[:, 0, 0] - np.diag(inv))) <= 1e-12 * scale
        assert np.max(np.abs(anchor[:-1, 1, 0] - np.diag(inv, 1))) <= 1e-12 * scale

    def test_one_triangular_solve(self, table, monkeypatch):
        # the diagonal and first off-diagonal of L^-1 take one back
        # substitution; the tiles, whatever their height, add no other
        grid = Grid(10.0, 201)
        op = assemble(table, 0.0, grid)
        m = op.n_unknowns
        ctx = NormContext(0.5)
        elements = [kernel_basis(table, grid).z1]
        calls = []

        def counting_gbsv(kl, ku, band, b):
            calls.append((kl, ku, np.shape(band)))
            return gbsv(kl, ku, band, b)

        monkeypatch.setattr(invertibility, "gbsv", counting_gbsv)
        for rows in (1, 2, 3, 41, 128, m, m + 1):
            monkeypatch.setattr(invertibility, "TILE_ROWS", rows)
            calls.clear()
            inv_constant_exact(op, ctx, orth_elements=elements)
            assert calls == [(0, 4, (5, 2 * m))], rows

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
        # the guard bounds constrained K only; plain K is one solve of the fold's core
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
    @pytest.mark.parametrize("n", [801, 800], ids=["odd", "even"])
    @pytest.mark.parametrize("omega", [0.0, 0.05])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_estimate_is_exact_k(self, table, k, omega, n):
        # --method estimated is exact K, plain or constrained, bit for bit
        # and whatever the seed
        grid = Grid(20.0, n)
        op = assemble(table, omega, grid)
        ctx = NormContext(0.5)
        kb = kernel_basis(table, grid)
        elements = [kb.z1, kb.z2][:k] or None
        exact = inv_constant_exact(op, ctx, elements)
        for seed in (0, 42):
            assert inv_constant_estimate(op, ctx, elements, seed=seed) == exact


def test_negative_coupling_fails_the_sign_structure(table):
    # -2 V1 V2 on the coupling row: D L D is then no Z-matrix, so neither
    # plain K's sign-flip identity nor the Perron argument that lets the
    # fold decide definiteness holds, and the lambda_min certificate fails
    grid = Grid(10.0, 201)
    op = assemble(table, 0.5, grid)
    flipped = DiscreteOperator(grid, 0.5, op.pot1_0, op.pot2_0, -op.coup)
    assert np.any(flipped.band[1] < 0)
    for compute in (lambda: inv_constant_exact(flipped, NormContext(0.5)),
                    lambda: smallest_eigenvalue(flipped), flipped.odd_core):
        with pytest.raises(SegkernelError, match="negative coupling"):
            compute()
    v = np.ones(flipped.n_unknowns // 2)
    assert _perron_lower_bound(flipped.band, v) == -np.inf


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
        # lambda_min factors no operator, of L(0) or of L, and solves with
        # neither: it works on the fold's coupled core alone, as plain K does
        grid = Grid(40.0, 3201)
        op = assemble(table, 0.0, grid)
        calls = count_operator_calls(monkeypatch)
        inv_constant_exact(op, NormContext(0.5))
        smallest_eigenvalue(op)
        smallest_eigenvalue(assemble(table, 0.3, grid))
        assert calls == {"factorizations": 0, "solves": 0}

    def test_omega_operator_left_unbuilt(self, table):
        # lambda_min of an omega > 0 operator runs on a separate L(0): the
        # operator's own band and factor are built only when K needs them
        op = assemble(table, 0.3, Grid(40.0, 3201))
        smallest_eigenvalue(op)
        assert "band" not in op.__dict__ and op.smallest_pivot is None

    def test_sign_vector_start_converges_fast(self, table, monkeypatch):
        # the lambda_min eigenvector is diag(s) p with p > 0, and the box
        # mode s * cos(pi x / (2R)) on the fold's core starts close to it:
        # one step of inverse iteration, one or two of Rayleigh functional
        # iteration and the certificate's step, each one solve on the core
        op = assemble(table, 0.0, Grid(160.0, 12801))
        solves = []
        for name in ("gbsv", "pbtrs"):
            solve = getattr(invertibility, name)
            monkeypatch.setattr(invertibility, name,
                                lambda *a, solve=solve: solves.append(1) or solve(*a))
        smallest_eigenvalue(op)
        assert 0 < len(solves) <= 6

    def test_identity_shift(self, table):
        # the iteration runs on the band of L(0) at every omega, so
        # lambda(omega) is lambda(0) + omega^2 to the bit, on the fine
        # R = 10 grid (2/h^2 = 8e4) and at R = 800 alike
        for r_val, n in ((10.0, 4001), (40.0, 3201), (800.0, 64001)):
            grid = Grid(r_val, n)
            op = assemble(table, 0.3, grid)
            op0 = DiscreteOperator(grid, 0.0, op.pot1_0, op.pot2_0, op.coup)
            assert np.array_equal(op0.band, assemble(table, 0.0, grid).band)
            lam0 = smallest_eigenvalue(assemble(table, 0.0, grid))
            assert smallest_eigenvalue(op) == lam0 + 0.3 * 0.3, r_val

    def test_fallback_when_shifted_factor_fails(self, table):
        # omega-free potentials pot(0) - 1.5 lambda(0): L(0) is indefinite
        # and does not factor, but lambda_min(0) < 0 is found all the same
        # on the fold's core, and lambda_min(omega) is lambda_min(0) + omega^2
        grid = Grid(10.0, 201)
        omega = 0.3
        op0 = assemble(table, 0.0, grid)
        lam0 = smallest_eigenvalue(op0)
        c = omega * omega - 1.5 * lam0
        op = DiscreteOperator(grid, omega, op0.pot1_0 - 1.5 * lam0,
                              op0.pot2_0 - 1.5 * lam0, op0.coup)
        singular0 = DiscreteOperator(grid, 0.0, op.pot1_0, op.pot2_0, op.coup)
        with pytest.raises(SingularSystem):
            singular0.factorization()
        with pytest.raises(SingularSystem):     # at omega = 0, L is not positive definite
            smallest_eigenvalue(singular0)
        dense = dense_matrix(table, 0.0, grid) + c * np.eye(op.n_unknowns)
        lam_dense = np.linalg.eigvalsh(dense)[0]
        lam = smallest_eigenvalue(op)
        assert abs(lam - lam_dense) / abs(lam_dense) <= 1e-8

    def test_fallback_on_a_long_coarse_grid(self, table):
        # R = 400, N = 4001: lambda_min(0) < 0, so L(0)'s fold does not
        # factor; the core iteration reaches it all the same, through the
        # free chain's sinh form, and lambda_min(0.1), which LAPACK's dsbevx
        # puts at 0.009997651452660959, is lambda_min(0) + 0.01
        op = assemble(table, 0.1, Grid(400.0, 4001))
        lam = smallest_eigenvalue(op)
        assert abs(lam - 0.009997651452660959) <= 1e-6 * lam

    def test_failed_certificate_raises_with_value(self, table, monkeypatch):
        point = SweepPoint(theta=0.5, omega=0.0, R=10.0, N=201)
        op = assemble(table, point.omega, Grid(point.R, point.N))
        lam = smallest_eigenvalue(op)
        monkeypatch.setattr(invertibility, "_perron_lower_bound", lambda *args: 0.0)
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
        # the iteration runs on L(0); the value carried is its Rayleigh
        # functional + omega^2.  One step, of inverse iteration, cannot stop it
        grid = Grid(60.0, 1601)
        monkeypatch.setattr(invertibility, "EIG_MAX_ITERS", 1)
        values = []
        for omega in (0.0, 0.05):
            with pytest.raises(NoConvergence, match="1 iterations") as info:
                smallest_eigenvalue(assemble(table, omega, grid))
            values.append(info.value.last_value)
        assert values[1] == values[0] + 0.05 * 0.05


def count_iterations(monkeypatch):
    """Sizes of the matrices the lambda_min iteration runs on, one per run."""
    sizes = []
    iterate = invertibility._certified_eigenvalue

    def counting(op):
        sizes.append(op.n_unknowns)
        return iterate(op)

    monkeypatch.setattr(invertibility, "_certified_eigenvalue", counting)
    return sizes


class TestSharedEigenvalue:
    def test_one_iteration_per_grid_and_call(self, table, monkeypatch):
        sizes = count_iterations(monkeypatch)
        plan = [SweepPoint(theta=0.5, omega=om, R=r_val, N=n)
                for om in (0.0, 0.05, 0.3) for r_val, n in ((20.0, 801), (40.0, 1601))]
        recs = run_sweep(table, plan)
        assert sizes == [2 * 799, 2 * 1599]
        base = {rec.R: rec.lambda_min for rec in recs if rec.omega == 0.0}
        for rec in recs:
            assert rec.error == ""
            assert rec.lambda_min == base[rec.R] + rec.omega * rec.omega
        # nothing outlives the call: a second sweep iterates again
        assert [r.lambda_min for r in run_sweep(table, plan)] == [r.lambda_min for r in recs]
        assert len(sizes) == 4

    def test_orth_plan_iterates_once_per_grid(self, table, monkeypatch):
        sizes = count_iterations(monkeypatch)
        plan = [SweepPoint(theta=0.5, omega=0.0, R=r_val, N=n, orth_mode=mode)
                for r_val, n in ((20.0, 801), (40.0, 1601)) for mode in ("none", "one")]
        recs = run_sweep(table, plan)
        assert sizes == [2 * 799, 2 * 1599]
        assert recs[0].lambda_min == recs[1].lambda_min
        assert recs[2].lambda_min == recs[3].lambda_min

    def test_first_point_may_have_omega(self, table):
        # the grid's lambda(0) comes from L(0)'s own factor when omega > 0
        # and from the cached one at omega = 0: the same bits either way
        grid = Grid(20.0, 801)
        shared = {}
        lam = smallest_eigenvalue(assemble(table, 0.3, grid), shared)
        assert lam == shared[grid] + 0.3 * 0.3
        assert shared[grid] == smallest_eigenvalue(assemble(table, 0.0, grid))


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

    def test_constrained_estimate_under_the_size_guard(self, table, monkeypatch):
        # the estimate is exact K, so the guard bounds it too: the entry
        # records the refusal and goes on
        monkeypatch.setattr(invertibility, "EXACT_SIZE_GUARD", 100)
        rec = run_sweep_entry(table, SweepPoint(theta=0.5, omega=0.0, R=10.0, N=201,
                                                orth_mode="one", method="estimated"))
        assert rec.error == "BudgetExceeded: 398 unknowns exceed the exact-method guard 100"
        assert np.isnan(rec.K) and np.isnan(rec.omega_K) and np.isfinite(rec.lambda_min)

    def test_estimated_method_recorded(self, table):
        rec = run_sweep_entry(
            table, SweepPoint(theta=0.5, omega=0.3, R=15.0, N=601,
                              method="estimated")
        )
        assert rec.method == "estimated"
        assert np.isfinite(rec.K)
