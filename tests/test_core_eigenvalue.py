"""lambda_min on the fold's coupled core: the free chain eliminated in
closed form, the dying chain from its last nodes, Rayleigh functional
iteration on the core's Schur complement, and the certificate on the
fold less its dying chain."""

import math

import numpy as np
import pytest

from segkernel import invertibility, operator1d
from segkernel.errors import NoConvergence
from segkernel.invertibility import (
    _certified_eigenvalue,
    _chain_end,
    _free_bound,
    _free_chain,
    _free_response,
    smallest_eigenvalue,
)
from segkernel.lapack import pttrf
from segkernel.operator1d import DiscreteOperator, Grid, assemble
from oracles import band_to_dense, dense_matrix, full_system_eigenvalue, refined_solve


def dense_reference(table, omega, grid):
    """lambda_min of the dense matrix to round-off: the extended-precision
    Rayleigh quotient of eigh's eigenvector (eigvalsh alone is off by up
    to eps ||L||)."""
    dense = dense_matrix(table, omega, grid)
    x = np.linalg.eigh(dense)[1][:, 0].astype(np.longdouble)
    return float(x @ (dense.astype(np.longdouble) @ x) / (x @ x))


def chain_by_pttrf(diag, b):
    """(b^2 / d, b^2 |q|^2, b q) of the chain with diagonal diag and -b
    beside it, d its last pivot and q its response to its last node's
    unit vector, from LAPACK's factor."""
    d, e = pttrf(np.array(diag, dtype=float), np.full(len(diag) - 1, -b))
    q = np.empty(len(d))
    q[0] = 1.0 / d[-1]
    q[1:] = -e[::-1]
    q = np.cumprod(q)[::-1]
    return b * b / d[-1], b * b * float(q @ q), b * q


@pytest.mark.parametrize("r_val", [20.0, 30.0, 40.0])
@pytest.mark.parametrize("parity", [1, 0], ids=["odd-N", "even-N"])
@pytest.mark.parametrize("omega", [0.0, 0.05, 0.3])
def test_matches_dense_oracle(table, r_val, parity, omega):
    # h = 0.2 and R > T = 12: both chains of the fold run over |x| > T
    grid = Grid(r_val, int(10 * r_val) + parity)
    op = assemble(table, omega, grid)
    assert op.odd_core().start > 0
    want = dense_reference(table, omega, grid)
    assert abs(smallest_eigenvalue(op) - want) <= 1e-10 * want


@pytest.mark.parametrize("n", [201, 200])
@pytest.mark.parametrize("omega", [0.0, 0.3])
def test_chain_free_grid(table, n, omega):
    # R = 10 < T: no chain, the core is the whole fold
    grid = Grid(10.0, n)
    op = assemble(table, omega, grid)
    assert op.odd_core().start == 0
    want = dense_reference(table, omega, grid)
    assert abs(smallest_eigenvalue(op) - want) <= 1e-10 * want


@pytest.mark.parametrize("n", [64001, 64000])
def test_north_star_against_refined_solves(table, n):
    # lambda_min(0) at R = 800 against inverse iteration on all of L with
    # solves refined in np.longdouble: the fold's factor was 8.9e-10 and
    # 3.0e-10 off, the core iteration is within 1e-10
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than float64 here")
    op = assemble(table, 0.0, Grid(800.0, n))
    want = full_system_eigenvalue(op, lambda v: refined_solve(op, v))
    assert abs(smallest_eigenvalue(op) - want) <= 1e-10 * want


def test_certificate_where_the_dying_tail_underflows(table):
    # at R = 200 the dying chain's response to its end underflows to 0 far
    # from T, so no Collatz-Wielandt vector over all of the fold holds it;
    # the certificate runs on the fold less that chain, its Schur term
    # bounded above, and still brackets lambda_min within delta
    op = assemble(table, 0.0, Grid(200.0, 16001))
    # L's left dying chain is the fold's: u1 over the leading uncoupled nodes
    assert np.any(op.factorization().q[0] == 0.0)
    rho, low = _certified_eigenvalue(op)
    core = operator1d.fold(op.odd_core().band)
    delta = max(1e-6 * rho, 64.0 * np.finfo(float).eps * np.max(core[2]))
    assert 0.0 < low < rho and rho - low <= delta
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        want = full_system_eigenvalue(op, lambda v: refined_solve(op, v))
        assert low <= want and abs(rho - want) <= 1e-10 * want


def test_no_solve_over_the_chains(table, monkeypatch):
    # the iteration and the certificate work on the core: no tridiagonal
    # solve and no tail-first solve, at omega = 0 or through L(0)
    calls = []
    for name in ("pttrs", "_solve"):
        original = getattr(operator1d, name)
        monkeypatch.setattr(operator1d, name,
                            lambda *a, original=original, name=name:
                            calls.append(name) or original(*a))
    grid = Grid(200.0, 16001)
    for omega in (0.0, 0.3):
        smallest_eigenvalue(assemble(table, omega, grid))
    assert calls == []


@pytest.mark.parametrize("tau", [-3e-3, -2e-7, 0.0, 2e-7, 3e-5, 1.3e-4])
def test_free_chain_closed_form(tau):
    # the free chain 2b - tau, -b of n nodes at h = 1/40: its last pivot,
    # its response and its squared norm against LAPACK's factor, below and
    # above 0 and just under its first eigenvalue, 4b sin^2(pi/(2(n+1)))
    n, b = 300, 1600.0
    assert tau < 4.0 * b * math.sin(math.pi / (2 * (n + 1))) ** 2
    g, dg, bq = chain_by_pttrf(np.full(n, 2.0 * b - tau), b)
    got_g, got_dg = _free_chain(n, b, tau)
    assert abs(got_g - g) <= 1e-12 * g
    assert abs(got_dg - dg) <= 1e-9 * dg
    assert np.max(np.abs(_free_response(n, b, tau) - bq)) <= 1e-10 * np.max(bq)


def test_free_chain_past_its_first_eigenvalue():
    n, b = 300, 1600.0
    first = 4.0 * b * math.sin(math.pi / (2 * (n + 1))) ** 2
    assert _free_chain(n, b, first * (1.0 + 1e-9)) == (math.inf, math.inf)
    assert _free_chain(n, b, 5.0 * b) == (math.inf, math.inf)
    assert _free_chain(0, b, 0.01) == (0.0, 0.0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("tau", [-3e-3, -2e-7, 0.0, 2e-7, 3e-5, 1.3e-4, 0.17, 0.1742])
def test_free_bound_covers_the_closed_form(tau):
    # the certificate's bound on g_V(ell) lies above g's closed form
    # evaluated in np.longdouble, up to just under the first eigenvalue
    # (0.17430), where sin((n+1) t) -> 0 magnifies the roundings
    n, b = 300, 1600.0
    ld = np.longdouble
    t = 2 * (np.arcsin(np.sqrt(ld(abs(tau)) / (4 * ld(b)))) if tau >= 0
             else np.arcsinh(np.sqrt(ld(-tau) / (4 * ld(b)))))
    if tau > 0:
        want = ld(b) * np.sin(n * t) / np.sin((n + 1) * t)
    elif tau < 0:
        want = ld(b) * np.exp(-t) * np.expm1(-2 * n * t) / np.expm1(-2 * (n + 1) * t)
    else:
        want = ld(b) * n / (n + 1)
    bound = _free_bound(n, b, tau)
    assert want <= bound and _free_chain(n, b, tau)[0] <= bound <= 1.01 * float(want)
    assert _free_bound(n, b, 0.175) == math.inf


@pytest.mark.parametrize("sigma", [-1.0, 0.0, 2e-3])
def test_dying_chain_from_its_last_nodes(table, sigma):
    # the dying chain's pivot, Schur term and derivative from scalar rows
    # against LAPACK's factor of the same nodes
    op = assemble(table, 0.0, Grid(80.0, 6401))
    dying = op._diagonal(op.odd_core().dying)
    g, dg, bq = chain_by_pttrf(dying[-40:] - sigma, 1600.0)
    got = _chain_end(dying[-40:].tolist(), 1600.0, sigma)
    assert abs(got[0] - g) <= 1e-14 * g and abs(got[1] - dg) <= 1e-13 * dg


def one_node_core_operator():
    """An operator whose dying and living chains meet a core of one node,
    the middle one of 2k + 1: L's joins are then (0, 1, 1, 0)."""
    grid = Grid(10.0, 103)
    n = grid.N - 2
    rng = np.random.default_rng(2)
    left = np.arange(n) < n // 2
    pot = np.where(left, rng.uniform(1.0, 2.0, n), 0.0)     # V2^2, 0 past the middle
    pot[n // 2] = 1.5
    coup = np.zeros(n)
    coup[n // 2] = 0.7
    return DiscreteOperator(grid, 0.4, pot, pot[::-1].copy(), coup)


def test_solve_with_shared_joins():
    op = one_node_core_operator()
    f = op.factorization()
    assert f.core.stop - f.core.start == 2 and list(f.joins) == [0, 1, 1, 0]
    dense = band_to_dense(op)
    rng = np.random.default_rng(3)
    for b in (rng.standard_normal(op.n_unknowns), rng.standard_normal((op.n_unknowns, 3))):
        want = np.linalg.solve(dense, b)
        assert np.max(np.abs(op.solve_interior(b) - want)) <= 1e-12 * np.max(np.abs(want))


def test_bracket_holding_zero_is_refused(table, monkeypatch):
    # lambda_min(0) shifted to -omega^2 + 1e-9, and its lower bound taken
    # 1e-8 lower, still within delta (9e-8): the bracket of
    # lambda_min(omega) then holds 0, and L(omega) is not certified
    # positive definite
    grid = Grid(10.0, 201)
    op0 = assemble(table, 0.0, grid)
    shift = smallest_eigenvalue(op0) + 0.09 - 1e-9
    op = DiscreteOperator(grid, 0.3, op0.pot1_0 - shift, op0.pot2_0 - shift, op0.coup)
    bound = invertibility._perron_lower_bound
    monkeypatch.setattr(invertibility, "_perron_lower_bound", lambda *a: bound(*a) - 1e-8)
    with pytest.raises(NoConvergence, match="not positive") as info:
        smallest_eigenvalue(op, {})
    assert abs(info.value.last_value - 1e-9) <= 1e-12
