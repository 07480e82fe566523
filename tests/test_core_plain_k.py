"""Plain K on the fold's coupled core: its two chains eliminated in closed
form (the free chain) and from its last nodes (the dying chain), one
refined solve of the core's Schur complement, and the chains' rows
certified below K by the maximum principle or solved."""

import math

import numpy as np
import pytest

from segkernel import invertibility, operator1d
from segkernel.errors import SingularSystem
from segkernel.invertibility import (
    SweepPoint,
    _free_response,
    _interior_weights,
    inv_constant_exact,
    run_sweep_entry,
)
from segkernel.norms import NormContext, cosh_weights
from segkernel.operator1d import DiscreteOperator, Grid, assemble
from oracles import band_to_dense, dense_matrix, refined_solve

THETAS = [0.5, 0.1, 0.01]


INVERSES = {}


def dense_k(table, op, theta):
    """max_i sum_j |L^-1|_ij w_j from the dense inverse, kept per grid and
    omega for the thetas."""
    key = (op.omega, op.grid)
    if key not in INVERSES:
        INVERSES[key] = np.abs(np.linalg.inv(dense_matrix(table, op.omega, op.grid)))
    return float(np.max(INVERSES[key] @ _interior_weights(op, NormContext(theta))))


def full_k(op, theta):
    """max(s * solve(s * w)) with L's own tail-first solve."""
    s = np.tile([1.0, -1.0], op.n_unknowns // 2)
    return float(np.max(s * op.solve_interior(s * _interior_weights(op, NormContext(theta)))))


def recording_chain_rows(monkeypatch):
    """(chain length, its rows' largest entry) of every chain plain K solves."""
    solved = []
    chain_max = invertibility._chain_max

    def recording(diag, *args):
        solved.append((len(diag), chain_max(diag, *args)))
        return solved[-1][1]

    monkeypatch.setattr(invertibility, "_chain_max", recording)
    return solved


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("omega", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("parity", [1, 0], ids=["odd-N", "even-N"])
@pytest.mark.parametrize("r_val", [20.0, 30.0, 40.0])
def test_matches_dense_oracle(table, r_val, parity, omega, theta):
    # h = 0.2 and R > T = 12: both chains of the fold run over |x| > T
    op = assemble(table, omega, Grid(r_val, int(10 * r_val) + parity))
    assert op.odd_core().start > 0
    want = dense_k(table, op, theta)
    assert abs(inv_constant_exact(op, NormContext(theta)) - want) <= 1e-10 * want


@pytest.mark.parametrize("omega", [0.0, 0.3])
def test_chain_free_grid(table, omega):
    # R = 10 < T: no chain, the core is the whole fold
    op = assemble(table, omega, Grid(10.0, 201))
    assert op.odd_core().start == 0
    want = dense_k(table, op, 0.5)
    assert abs(inv_constant_exact(op, NormContext(0.5)) - want) <= 1e-10 * want


@pytest.mark.parametrize("r_val, nodes", [(12.05, 4), (12.5, 39)])
@pytest.mark.parametrize("omega", [0.0, 0.05])
def test_chains_shorter_than_the_cut(table, r_val, nodes, omega):
    # R just past T at the default N = 2001: the chains are shorter than
    # the free chain's cut c, so all of their nodes are summed (the
    # unrefined full solve is 1e-12 to 3e-12 off here)
    op = assemble(table, omega, Grid(r_val, 2001))
    assert op.odd_core().start == 2 * nodes
    want = full_k(op, 0.5)
    assert abs(inv_constant_exact(op, NormContext(0.5)) - want) <= 1e-10 * want


# today's values, from the fold's tail-first factorization and solve
FOLD_K = [(0.01, 0.0, 40.0, 808.0463060108887), (0.01, 0.0, 50.0, 1249.2702755393968),
          (0.01, 0.2, 40.0, 26.112850036157703), (0.01, 0.2, 50.0, 26.126309657507292),
          (0.1, 0.0125, 800.0, 1132.4773670081017)]


@pytest.mark.parametrize("theta, omega, r_val, want", FOLD_K)
def test_exact_rows_against_the_fold(table, monkeypatch, theta, omega, r_val, want):
    # at small theta the weight hardly falls along the chains and u's
    # largest row nears them: at theta = 0.1, omega = 0.0125 neither bound
    # certifies V's rows (w_end / omega^2 is 3.1 K), which are solved over
    # the chain's last c nodes; at theta = 0.01 the bounds hold, at 0.95 of
    # K for omega = 0.2.  The largest row is in the core throughout
    op = assemble(table, omega, Grid(r_val, int(80 * r_val) + 1))
    solved = recording_chain_rows(monkeypatch)
    k = inv_constant_exact(op, NormContext(theta))
    assert abs(k - want) <= 1e-10 * want
    n = op.odd_core().start // 2
    c = math.ceil(math.log(4.0 / np.finfo(float).eps) / (theta * op.grid.h))
    s = np.tile([1.0, -1.0], op.n_unknowns // 2)
    u = s * op.solve_interior(s * _interior_weights(op, NormContext(theta)))
    if theta == 0.1:
        assert [length for length, _ in solved] == [min(c, n)]
        v_max = np.max(u[1:2 * n:2])
        assert abs(solved[0][1] - v_max) <= 1e-10 * v_max < 1e-10 * k
    else:
        assert solved == []
    assert np.argmax(u[:op.n_unknowns // 2]) >= 2 * n


def low_dying_operator(table, omega, scale):
    """The R = 20, N = 201 operator with the dying chains' potential V2^2
    (and its mirror) scaled by scale where the coupling vanishes."""
    op = assemble(table, omega, Grid(20.0, 201))
    dying = (op.coup == 0.0) & (op.pot2_0 == 0.0)
    pot1 = np.where(dying, scale * op.pot1_0, op.pot1_0)
    return DiscreteOperator(op.grid, omega, pot1, pot1[::-1].copy(), op.coup)


@pytest.mark.parametrize("omega, scale, solved_rows", [(0.0, 1e-9, True), (0.0, 1.0, False),
                                                       (0.3, 1.0, False)])
def test_exact_dying_rows(table, monkeypatch, omega, scale, solved_rows):
    # a dying chain whose potential is scaled down to 1e-9 of V2^2 leaves
    # w_end / (d_min - 2b) above K, and is not diagonally dominant enough
    # for its last nodes to stand for it: its pivots and rows are taken
    # over the whole chain, and K still matches the dense inverse;
    # unscaled, its rows are certified
    solved = recording_chain_rows(monkeypatch)
    op = low_dying_operator(table, omega, scale)
    n = op.odd_core().start // 2
    dense = band_to_dense(op)
    k_dense = np.max(np.abs(np.linalg.inv(dense)) @ _interior_weights(op, NormContext(0.5)))
    assert abs(inv_constant_exact(op, NormContext(0.5)) - k_dense) <= 1e-10 * k_dense
    assert (n in [length for length, _ in solved]) == solved_rows


@pytest.mark.parametrize("omega", [0.0, 0.05])
def test_truncated_free_sum(table, omega):
    # q_V . w over V's last c nodes against the sum over all its nodes: the
    # nodes past the cut add at most eps of the sum
    op = assemble(table, omega, Grid(800.0, 64001))
    n, b = op.odd_core().start // 2, 1.0 / op.grid.h ** 2
    eps = np.finfo(float).eps
    c = math.ceil(math.log(4.0 / eps) / (0.5 * op.grid.h))
    assert c < n // 10
    p = op._diagonal(op.odd_core().free) - 2.0 * b
    w = cosh_weights(op.grid.interior[:n], 0.5)
    full = _free_response(n, b, -p)
    part = _free_response(n, b, -p, n - c)
    assert np.array_equal(part, full[n - c:]) or np.max(np.abs(part - full[n - c:])) <= 4 * eps
    near, far = part @ w[n - c:], full[:n - c] @ w[:n - c]
    assert far <= eps * near
    assert abs(near - full @ w) <= 4 * eps * near


def test_no_chain_solve_where_the_bounds_certify(table, monkeypatch):
    # at the benchmark's points the chains' rows are certified: no
    # tridiagonal factorization or solve and no tail-first solve
    calls = []
    for module, names in ((operator1d, ("pttrf", "pttrs", "_solve")),
                          (invertibility, ("pttrf", "pttrs"))):
        for name in names:
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, original=original, name=name:
                                calls.append(name) or original(*a))
    for omega, r_val in ((0.2, 50.0), (0.1, 200.0), (0.05, 800.0), (0.0, 160.0), (0.0, 800.0)):
        inv_constant_exact(assemble(table, omega, Grid(r_val, int(80 * r_val) + 1)),
                           NormContext(0.5))
    assert calls == []


def test_singular_system(table):
    # R = 400 on N = 4001: lambda(0) < 0, and the core's Schur complement
    # does not factor
    with pytest.raises(SingularSystem, match="factorization failed"):
        inv_constant_exact(assemble(table, 0.0, Grid(400.0, 4001)), NormContext(0.5))


def test_fold_checked_once_per_sweep_point(table, monkeypatch):
    # lambda_min (on L(0)) and plain K (on L(omega)) read one odd_core,
    # whose mirror checks run once
    checks = []
    array_equal = np.array_equal
    monkeypatch.setattr(operator1d.np, "array_equal",
                        lambda *a: checks.append(1) or array_equal(*a))
    rec = run_sweep_entry(table, SweepPoint(theta=0.5, omega=0.2, R=50.0, N=4001))
    assert rec.error == "" and len(checks) == 2


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("n", [64001, 64000, 128001])
@pytest.mark.parametrize("omega", [0.0, 0.05, 0.0125])
def test_within_round_off_of_the_refined_solve(table, n, omega):
    # against L's solve refined by three np.longdouble residual steps:
    # float64 solves were 2e-11 to 3e-9 off at R = 800
    op = assemble(table, omega, Grid(800.0, n))
    s = np.tile([1.0, -1.0], op.n_unknowns // 2)
    want = float(np.max(s * refined_solve(op, s * _interior_weights(op, NormContext(0.5)))))
    assert abs(inv_constant_exact(op, NormContext(0.5)) - want) <= 1e-11 * want
