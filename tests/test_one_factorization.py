"""Each matrix is factored once: L by one tail-first elimination of its
four chains and a banded Cholesky factorization of its coupled core, the
core of its fold B on reflection-odd vectors, the chains eliminated in
closed form, once per plain K.  B alone
decides whether L is positive definite, by the Perron argument: with
coupling >= 0, diag(s) L diag(s), s = (+1, -1, ...), is an irreducible
Z-matrix, so an eigenvector of lambda_min(L) is diag(s) p with p > 0,
J-odd, and lambda_min(B) = lambda_min(L)."""

import numpy as np
import pytest

from segkernel import invertibility, operator1d
from segkernel.errors import SingularSystem
from segkernel.invertibility import inv_constant_estimate, inv_constant_exact, smallest_eigenvalue
from segkernel.lapack import pbtrf, pbtrs
from segkernel.norms import NormContext, kernel_basis
from segkernel.operator1d import DiscreteOperator, Grid, PairGridFunction, assemble
from oracles import band_to_dense

# odd and even N; R = 20 > T = 12 leaves the fold uncoupled tails
GRIDS = [(10.0, 201), (10.0, 200), (20.0, 201), (20.0, 200)]


def dense_fold(dense):
    """B = L[:h, :h] - L[:h, h:] with its columns reversed, h = m/2."""
    h = len(dense) // 2
    return dense[:h, :h] - dense[:h, h:][:, ::-1]


@pytest.mark.parametrize("r_val, n", GRIDS, ids=lambda v: str(v))
def test_lambda_min_eigenvector_is_j_odd(table, r_val, n):
    dense = band_to_dense(assemble(table, 0.0, Grid(r_val, n)))
    lam, vec = np.linalg.eigh(dense)
    s = np.tile([1.0, -1.0], len(dense) // 2)
    v = vec[:, 0] * np.sign(s @ vec[:, 0])
    resolved = np.abs(v) > 1e-8 * np.max(np.abs(v))     # signs above round-off
    assert np.all((s * v)[resolved] > 0.0)
    assert np.max(np.abs(v + v[::-1])) <= 1e-12
    assert abs(np.linalg.eigvalsh(dense_fold(dense))[0] - lam[0]) <= 1e-12 * lam[-1]


@pytest.mark.parametrize("r_val, n", GRIDS, ids=lambda v: str(v))
def test_fold_refuses_indefinite_l(table, r_val, n):
    # the potentials shifted midway between lambda_1 and lambda_2 of L:
    # L has one negative eigenvalue, on a J-odd eigenvector, so B has it
    # too and plain K, on the fold's core, refuses, as L's factorization does
    grid = Grid(r_val, n)
    op0 = assemble(table, 0.0, grid)
    eigs = np.linalg.eigvalsh(band_to_dense(op0))
    shift = 0.5 * (eigs[0] + eigs[1])
    op = DiscreteOperator(grid, 0.0, op0.pot1_0 - shift, op0.pot2_0 - shift, op0.coup)
    assert np.all(op.coup >= 0.0)
    for compute in (lambda: inv_constant_exact(op, NormContext(0.5)), op.factorization,
                    lambda: smallest_eigenvalue(op)):
        with pytest.raises(SingularSystem):
            compute()
    assert op.smallest_pivot is None


def test_one_factor_per_matrix(table, monkeypatch):
    # lambda(0), plain and constrained exact K, the estimate and a solve
    # on one omega = 0 operator: one pbtrf of L's coupled core and one of
    # the fold's core Schur complement (plain K's, made by invertibility);
    # lambda(0) factors neither, only shifted Schur complements of the
    # fold's core
    grid = Grid(20.0, 201)
    op = assemble(table, 0.0, grid)
    shapes = {"operator1d": [], "invertibility": []}
    for module in (operator1d, invertibility):
        def counting(band, name=module.__name__.split(".")[-1]):
            shapes[name].append(np.shape(band))
            return pbtrf(band)

        monkeypatch.setattr(module, "pbtrf", counting)
    ctx, elements = NormContext(0.5), [kernel_basis(table, grid).z1]
    smallest_eigenvalue(op)
    assert shapes["operator1d"] == [] and op._factor is None
    shapes["invertibility"].clear()
    inv_constant_exact(op, ctx)
    inv_constant_exact(op, ctx, orth_elements=elements)
    inv_constant_estimate(op, ctx, orth_elements=elements)
    rng = np.random.default_rng(0)
    op.solve(PairGridFunction(grid, rng.standard_normal(grid.N), rng.standard_normal(grid.N)))
    start, f = op.odd_core().start, op.factorization()
    kept = np.arange(op.n_unknowns)[f.core]
    assert 0 < start and shapes["invertibility"] == [(3, op.n_unknowns // 2 - start)]
    assert shapes["operator1d"] == [(3, len(kept))]
    assert len(f.chains) == 4 and len(kept) < op.n_unknowns
    assert op.smallest_pivot == float(min(np.min(f.d), np.min(f.core_factor[2] ** 2)))
    # a right-hand side that vanishes on the chains is solved on the core
    # by its factor alone, bit for bit
    dense = band_to_dense(op)
    for b in (rng.standard_normal(op.n_unknowns), rng.standard_normal((op.n_unknowns, 3))):
        x = op.solve_interior(b)
        want = np.linalg.solve(dense, b)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
        b[np.setdiff1d(np.arange(op.n_unknowns), kept)] = 0.0
        assert np.array_equal(op.solve_interior(b)[kept], pbtrs(f.core_factor, b[kept]))
