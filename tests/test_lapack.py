"""The banded and tridiagonal LAPACK bindings against dense numpy
solves, their input checks, and the absence of scipy from a CLI
process."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import segkernel
from segkernel import lapack


def to_band(a, kl, ku):
    """LAPACK band storage: a[i, j] at row ku + i - j of column j."""
    n = a.shape[0]
    ab = np.zeros((kl + ku + 1, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            ab[ku + i - j, j] = a[i, j]
    return ab


def to_dense_upper(ab):
    """Dense upper triangle of an upper band, diagonal in the last row."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    u = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - kd), j + 1):
            u[i, j] = ab[kd + i - j, j]
    return u


def banded(rng, n, kl, ku):
    """Random dense matrix with kl sub- and ku superdiagonals."""
    a = rng.uniform(-1.0, 1.0, (n, n))
    return np.triu(np.tril(a, ku), -kl)


def spd_band(rng, n=12, kd=2):
    a = banded(rng, n, kd, kd)
    a = a + a.T + np.diag(np.full(n, 4.0 * kd + 2.0))
    return a, to_band(a, 0, kd)


@pytest.mark.parametrize("rhs_shape", [(12,), (12, 1), (12, 5)])
def test_cholesky_solve_matches_dense(rhs_shape):
    rng = np.random.default_rng(0)
    a, ab = spd_band(rng)
    u = lapack.pbtrf(ab)
    dense_u = to_dense_upper(u)
    assert np.allclose(dense_u.T @ dense_u, a, rtol=0, atol=1e-13)
    b = rng.standard_normal(rhs_shape)
    x = lapack.pbtrs(u, b)
    assert x.shape == b.shape
    assert np.allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-13)


def spd_tridiagonal(rng, n=12):
    d, e = rng.uniform(3.0, 4.0, n), rng.uniform(-1.0, 1.0, n - 1)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1), d, e


@pytest.mark.parametrize("rhs_shape", [(12,), (12, 1), (12, 5)])
def test_tridiagonal_solve_matches_dense(rhs_shape):
    rng = np.random.default_rng(7)
    a, d, e = spd_tridiagonal(rng)
    piv, mult = lapack.pttrf(d, e)
    unit_l = np.eye(12) + np.diag(mult, -1)
    assert np.allclose(unit_l @ np.diag(piv) @ unit_l.T, a, rtol=0, atol=1e-13)
    b = rng.standard_normal(rhs_shape)
    x = lapack.pttrs(piv, mult, b.copy(order="F"))
    assert x.shape == b.shape
    assert np.allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-13)
    fortran = b.copy(order="F")         # solved in place
    assert lapack.pttrs(piv, mult, fortran) is fortran and np.array_equal(fortran, x)
    empty = lapack.pttrf(np.zeros(0), np.zeros(0))
    assert lapack.pttrs(*empty, np.zeros((0, 2))).shape == (0, 2)


def test_inputs_are_not_overwritten():
    rng = np.random.default_rng(1)
    _, ab = spd_band(rng)
    b = rng.standard_normal((12, 2))
    fab = np.asfortranarray(ab)     # with kl = 0, gbsv passes it to LAPACK uncopied
    ab0, b0 = ab.copy(), b.copy()
    lapack.pbtrs(lapack.pbtrf(ab), b)
    lapack.gbsv(0, 2, ab, b)
    lapack.gbsv(0, 2, fab, b)
    assert np.array_equal(ab, ab0) and np.array_equal(fab, ab0) and np.array_equal(b, b0)
    _, d, e = spd_tridiagonal(rng)
    strided = np.repeat(d, 2)[::2], np.repeat(e, 2)[::2]
    d0, e0 = d.copy(), e.copy()
    factor = lapack.pttrf(d, e)     # float64 in Fortran order: factored in place
    assert factor[0] is d and factor[1] is e
    factor0 = [f.copy() for f in factor]
    lapack.pttrs(*factor, b.copy())
    assert all(np.array_equal(f, f0) for f, f0 in zip(factor, factor0))
    copied = lapack.pttrf(*strided)     # not contiguous: copied, not overwritten
    assert np.array_equal(strided[0], d0) and np.array_equal(strided[1], e0)
    assert all(np.array_equal(f, f0) for f, f0 in zip(copied, factor0))


@pytest.mark.parametrize("rhs_shape", [(15,), (15, 3)])
def test_general_band_with_row_pivoting(rhs_shape):
    rng = np.random.default_rng(2)
    a = banded(rng, 15, 4, 2)
    a[0, 0] = a[5, 5] = 0.0     # elimination without row exchanges divides by 0
    b = rng.standard_normal(rhs_shape)
    x = lapack.gbsv(4, 2, to_band(a, 4, 2), b)
    assert x.shape == b.shape
    assert np.allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-11)


def test_upper_triangular_band():
    # no subdiagonal: a back substitution
    rng = np.random.default_rng(3)
    u = banded(rng, 14, 0, 2) + np.diag(np.full(14, 2.0))
    b = rng.standard_normal((14, 16))
    x = lapack.gbsv(0, 2, np.asfortranarray(to_band(u, 0, 2)), b)
    assert np.allclose(x, np.linalg.solve(u, b), rtol=0, atol=1e-13)


def test_non_finite_input_raises_value_error():
    rng = np.random.default_rng(4)
    _, ab = spd_band(rng)
    u = lapack.pbtrf(ab)
    b = rng.standard_normal(12)
    bad_b = b.copy()
    bad_b[3] = np.nan
    bad_ab = ab.copy()
    bad_ab[2, 5] = np.inf
    calls = [
        lambda: lapack.pbtrf(bad_ab),
        lambda: lapack.pbtrs(u, bad_b),
        lambda: lapack.gbsv(0, 2, bad_ab, b),
        lambda: lapack.gbsv(0, 2, ab, bad_b),
        lambda: lapack.gbsv(0, 2, np.asfortranarray(bad_ab), b),
        lambda: lapack.gbsv(0, 2, u, bad_b),
        lambda: lapack.pttrf(bad_ab[2], ab[1, 1:]),
        lambda: lapack.pttrf(ab[2], bad_ab[2, 1:]),
        lambda: lapack.pttrs(*lapack.pttrf(ab[2], ab[1, 1:]), bad_b),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()


def test_indefinite_and_singular_raise_linalg_error():
    rng = np.random.default_rng(5)
    a, ab = spd_band(rng)
    ab[2, 6] = -1.0             # a negative diagonal entry: not positive definite
    with pytest.raises(np.linalg.LinAlgError, match="7-th leading minor"):
        lapack.pbtrf(ab)
    with pytest.raises(np.linalg.LinAlgError, match="7-th leading minor"):
        lapack.pttrf(ab[2], np.zeros(11))
    singular = to_band(a, 0, 2)
    singular[2, 4] = 0.0        # zero on the diagonal of a triangle
    for band in (singular, np.asfortranarray(singular)):
        with pytest.raises(np.linalg.LinAlgError, match="U\\(5,5\\) is zero"):
            lapack.gbsv(0, 2, band, np.ones(12))


def test_mismatched_shapes_raise_value_error():
    rng = np.random.default_rng(6)
    _, ab = spd_band(rng)
    with pytest.raises(ValueError):
        lapack.pbtrs(lapack.pbtrf(ab), np.ones(11))
    with pytest.raises(ValueError):
        lapack.gbsv(1, 2, ab, np.ones(12))      # 3 rows hold kl + ku + 1 = 4
    d, e = lapack.pttrf(ab[2], ab[1, 1:])
    for bad in (lambda: lapack.pttrs(d, e, np.ones(11)),
                lambda: lapack.pttrs(d, e[:-1], np.ones(12)),
                lambda: lapack.pttrf(ab[2], ab[1])):
        with pytest.raises(ValueError):
            bad()


NO_SCIPY = textwrap.dedent("""
    import sys
    import segkernel
    from segkernel import cli
    code = cli.main(["eig", "--omega", "0.1", "--R", "10", "--N", "201",
                     "--cache-dir", sys.argv[1], "--out", sys.argv[2]])
    print(code, sorted(m for m in sys.modules if m.split(".")[0].startswith("scipy")))
""")


def test_cli_process_loads_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(segkernel.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path / "cache"), str(tmp_path / "eig.csv")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["0", "[]"]
    assert (tmp_path / "eig.csv").exists()


def test_missing_routine_raises_import_error_naming_it():
    with pytest.raises(ImportError, match="dnosuch"):
        lapack._bind("dnosuch", "i", "")
