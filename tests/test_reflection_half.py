"""L on reflection-odd vectors: J reverses the interleaved unknowns
(x -> -x with u1 <-> u2), L commutes with it, and lambda_min and plain K
are solved on the core of the half-size fold of L on J-odd vectors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segkernel.errors import SegkernelError, SingularSystem
from segkernel.invertibility import _interior_weights, inv_constant_exact, smallest_eigenvalue
from segkernel.lapack import pbtrf, pbtrs
from segkernel.norms import NormContext
from segkernel import operator1d
from segkernel.operator1d import DiscreteOperator, Grid, _potentials, assemble
from segkernel.profile import eval_profile
from oracles import band_to_dense, full_system_eigenvalue, refined_solve

GRIDS = [(10.0, 201), (10.0, 200), (40.0, 3201), (40.0, 3200), (800.0, 64000)]


def odd(a):
    """The J-odd vector [a; -a reversed], a a vector or columns."""
    return np.concatenate((a, -a[::-1]))


@pytest.mark.parametrize("r_val, n", GRIDS, ids=lambda v: str(v))
@pytest.mark.parametrize("omega", [0.0, 0.3])
def test_band_is_mirror_exact(table, r_val, n, omega):
    band = assemble(table, omega, Grid(r_val, n)).band
    for k, row in zip((2, 1, 0), band):
        assert np.array_equal(row[k:], row[k:][::-1]), k


@pytest.mark.parametrize("r_val, n", GRIDS + [(10.0, 5), (10.0, 6)], ids=lambda v: str(v))
def test_potentials_from_the_left_half(table, monkeypatch, r_val, n):
    # assemble evaluates the profile at the nodes x <= 0 only, and mirrors
    # them to what evaluating every node gives, bit for bit
    grid = Grid(r_val, n)
    points = []

    def recording(p, x):
        points.append(np.asarray(x))
        return eval_profile(p, x)

    monkeypatch.setattr(operator1d, "eval_profile", recording)
    op = assemble(table, 0.3, grid)
    assert len(points) == 1 and len(points[0]) == (n - 1) // 2
    assert np.all(grid.interior[:len(points[0])] <= 0.0)
    for got, want in zip((op.pot1_0, op.pot2_0, op.coup), _potentials(table, grid.interior)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("parity", [1, 0], ids=["odd-N", "even-N"])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    half=st.integers(20, 300),
    r_val=st.floats(5.0, 20.0),
    omega=st.floats(0.0, 0.5),
    theta=st.floats(0.1, 1.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_odd_solve_matches_full_solve(table, parity, half, r_val, omega, theta, seed):
    # R > T = 12 leaves uncoupled tails; the fold's core then holds the
    # coupled middle only.  The full solution of a J-odd right-hand side is
    # J-odd, and plain K, on the fold's core, is the full solve's
    op = assemble(table, omega, Grid(r_val, 2 * half + parity))
    a = np.random.default_rng(seed).standard_normal(op.n_unknowns // 2)
    want = op.solve_interior(odd(a))
    assert np.max(np.abs(odd(want[:len(a)]) - want)) <= 1e-12 * np.max(np.abs(want))
    ctx = NormContext(theta)
    s = np.tile([1.0, -1.0], op.n_unknowns // 2)
    k_full = np.max(s * op.solve_interior(s * _interior_weights(op, ctx)))
    assert abs(inv_constant_exact(op, ctx) - k_full) <= 1e-12 * k_full


@pytest.mark.parametrize("n", [64001, 64000])
@pytest.mark.parametrize("omega", [0.0, 0.05])
def test_north_star_values_match_full_system(table, omega, n):
    # at omega = 0.05 the fold's core and the full solve agree to 2e-10.
    # At omega = 0, lambda(0) = 3.7e-6, they differ by the conditioning of
    # L(0).  Against solves refined with np.longdouble residuals neither is
    # farther off than one Cholesky factorization of L's whole band (K
    # 1.3e-9 and 6.9e-10, lambda 1.7e-9 and 7.4e-10, N = 64001, 64000):
    # plain K, refined on the fold's core, 1.2e-12 and 5.1e-13, lambda on
    # that core 5.2e-11 and 8e-13; the full solve, L's four chains
    # eliminated first, K 7.3e-10 and 2.4e-10, lambda 8.1e-10 and 2.6e-10
    grid = Grid(800.0, n)
    op = assemble(table, omega, grid)
    weights = _interior_weights(op, NormContext(0.5))
    s = np.tile([1.0, -1.0], op.n_unknowns // 2)
    k = inv_constant_exact(op, NormContext(0.5))
    k_full = np.max(s * op.solve_interior(s * weights))
    lam = smallest_eigenvalue(op)
    op0 = DiscreteOperator(grid, 0.0, op.pot1_0, op.pot2_0, op.coup)
    lam_full = full_system_eigenvalue(op0) + omega * omega
    if omega:
        assert abs(k - k_full) <= 2e-10 * k_full
        assert abs(lam - lam_full) <= 2e-10 * lam_full
        return
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than float64 here")
    k_band = np.max(s * pbtrs(pbtrf(op.band), s * weights))
    factor0 = pbtrf(op0.band)
    lam_band = full_system_eigenvalue(op0, lambda v: pbtrs(factor0, v))
    k_ref = float(np.max(s * refined_solve(op, s * weights)))
    lam_ref = full_system_eigenvalue(op0, lambda v: refined_solve(op0, v))
    for got in (k, k_full):
        assert abs(got - k_ref) <= abs(k_band - k_ref)
    for got in (lam, lam_full):
        assert abs(got - lam_ref) <= abs(lam_band - lam_ref)


def test_unmirrored_operator_raises(table):
    # one potential a rounding off its mirror: no K and no lambda_min
    grid = Grid(10.0, 201)
    op0 = assemble(table, 0.0, grid)
    pot1 = op0.pot1_0.copy()
    pot1[3] = np.nextafter(pot1[3], np.inf)
    for omega in (0.0, 0.1):
        op = DiscreteOperator(grid, omega, pot1, op0.pot2_0, op0.coup)
        with pytest.raises(ValueError, match="mirror exact"):
            inv_constant_exact(op, NormContext(0.5))
        with pytest.raises(ValueError, match="mirror exact"):
            smallest_eigenvalue(op)
        assert op.solve_interior(np.ones(op.n_unknowns)).shape == (op.n_unknowns,)


def test_singular_coarse_grid_raises(table):
    # R = 400 on N = 4001 (h = 0.2): L(0) is not positive definite
    op = assemble(table, 0.0, Grid(400.0, 4001))
    for compute in (op.factorization, lambda: smallest_eigenvalue(op),
                    lambda: inv_constant_exact(op, NormContext(0.5))):
        with pytest.raises(SingularSystem):
            compute()
    assert op.smallest_pivot is None


def test_positive_definite_odd_half_does_not_hide_indefinite_l(table):
    # E, -1 on every u2, maps J-odd vectors to J-even ones, and E L E is L
    # with its coupling negated: shifted between lambda_min and the next
    # eigenvalue, E L E is indefinite while its odd fold is definite.  The
    # fold decides definiteness only for coupling >= 0, so plain K and
    # lambda_min, both on its core, refuse
    grid = Grid(10.0, 201)
    op0 = assemble(table, 0.0, grid)
    eigs = np.linalg.eigvalsh(band_to_dense(op0))
    shift = 0.5 * (eigs[0] + eigs[1])
    op = DiscreteOperator(grid, 0.0, op0.pot1_0 - shift, op0.pot2_0 - shift, -op0.coup)
    fold = band_to_dense(op)[:op.n_unknowns // 2]
    fold = fold[:, :op.n_unknowns // 2] - fold[:, op.n_unknowns // 2:][:, ::-1]
    assert np.linalg.eigvalsh(fold)[0] > 0.0
    with pytest.raises(SegkernelError, match="negative coupling"):
        inv_constant_exact(op, NormContext(0.5))
    with pytest.raises(SegkernelError, match="negative coupling"):
        smallest_eigenvalue(op)
    assert op.smallest_pivot is None
