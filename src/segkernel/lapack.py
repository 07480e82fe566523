"""The four banded LAPACK routines segkernel calls, bound with ctypes.

`pbtrf` and `pbtrs` give the operator's Cholesky factor and its solves,
`gbsv` the profile's Newton step and `tbtrs` the one back substitution
of constrained K, which gives the diagonal blocks of the inverse for all
nodes.  The symbols come from the LAPACK that numpy has already loaded:
opening numpy's linalg extension with ctypes resolves them through that
module's own dependency, so no second LAPACK is imported.
On the numpy wheels that is scipy-openblas with 64-bit integers and names
such as `scipy_dpbtrf_64_`.

Every routine copies its right-hand side and returns a new array.  A
non-finite input raises ValueError (pbtrs checks only its right-hand
side: a factor pbtrf made from a finite band is finite), a band that is
not positive definite or a singular matrix raises
numpy.linalg.LinAlgError, and an argument LAPACK rejects raises
ValueError.  Band storage follows LAPACK: entry (i, j) of the matrix
sits at row ku + i - j of column j.
"""

from __future__ import annotations

import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

LIBRARY = ctypes.CDLL(_umath_linalg.__file__)

# (symbol pattern, LAPACK integer) in the order tried
_SPELLINGS = (
    ("scipy_{}_64_", ctypes.c_int64),
    ("{}_64_", ctypes.c_int64),
    ("scipy_{}_", ctypes.c_int32),
    ("{}_", ctypes.c_int32),
)


def _bind(routine: str, signature: str, failure: str):
    """A caller of the routine, and its integer type.  signature lists
    the arguments before INFO: c a character, i an integer (passed as a
    Python int), d a float64 array in Fortran order, p an integer array.
    The caller appends INFO and the hidden character lengths, and raises
    LinAlgError with failure.format(info) when INFO > 0."""
    for pattern, int_t in _SPELLINGS:
        fn = getattr(LIBRARY, pattern.format(routine), None)
        if fn is None:
            continue
        kinds = {"c": ctypes.c_char_p, "i": ctypes.POINTER(int_t),
                 "d": np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS"),
                 "p": np.ctypeslib.ndpointer(int_t, flags="C_CONTIGUOUS")}
        lengths = (1,) * signature.count("c")
        fn.argtypes = ([kinds[k] for k in signature] + [kinds["i"]]
                       + [ctypes.c_size_t] * len(lengths))
        fn.restype = None

        def call(*args):
            info = int_t()
            fn(*(ctypes.byref(int_t(a)) if k == "i" else a for k, a in zip(signature, args)),
               ctypes.byref(info), *lengths)
            if info.value > 0:
                raise np.linalg.LinAlgError(failure.format(info.value))
            if info.value < 0:
                raise ValueError(f"illegal value in argument {-info.value} of {routine}")

        return call, int_t
    raise ImportError(f"the LAPACK linked by {_umath_linalg.__file__} exports no {routine}")


_dpbtrf, _ = _bind("dpbtrf", "ciidi", "{}-th leading minor not positive definite")
_dpbtrs, _ = _bind("dpbtrs", "ciiididi", "info = {}")
_dgbsv, _PIVOT = _bind("dgbsv", "iiiidipdi", "singular matrix: U({0},{0}) is zero")
_dtbtrs, _ = _bind("dtbtrs", "ccciiididi", "singular matrix: diagonal entry {} is zero")


def _band(band, rows=None, copy=False) -> np.ndarray:
    ab = np.array(band, dtype=np.float64, order="F", copy=True if copy else None)
    if ab.ndim != 2 or rows is not None and ab.shape[0] != rows:
        raise ValueError(f"band must be 2-d with {rows or 'kd + 1'} rows, got {ab.shape}")
    return ab


def _finite(a: np.ndarray):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _rhs(ab: np.ndarray, b) -> tuple[np.ndarray, int]:
    """A finite Fortran-order copy of b, checked against the band, and
    its column count."""
    x = np.array(b, dtype=np.float64, order="F")
    if x.ndim not in (1, 2) or x.shape[0] != ab.shape[1]:
        raise ValueError(f"shapes of the band {ab.shape} and b {x.shape} are not compatible")
    _finite(x)
    return x, 1 if x.ndim == 1 else x.shape[1]


def pbtrf(band) -> np.ndarray:
    """Upper Cholesky factor U (A = U^T U) of a symmetric positive
    definite band in upper storage, diagonal in the last row."""
    ab = _band(band, copy=True)
    _finite(ab)
    _dpbtrf(b"U", ab.shape[1], ab.shape[0] - 1, ab, ab.shape[0])
    return ab


def pbtrs(factor, b) -> np.ndarray:
    """Solve A x = b from the factor pbtrf returned; b a vector or a
    matrix of columns."""
    ab = _band(factor)
    x, nrhs = _rhs(ab, b)
    n = ab.shape[1]
    _dpbtrs(b"U", n, ab.shape[0] - 1, nrhs, ab, ab.shape[0], x, max(1, n))
    return x


def gbsv(kl: int, ku: int, band, b) -> np.ndarray:
    """Solve A x = b for a general band with kl sub- and ku
    superdiagonals in kl + ku + 1 rows, by LU with row pivoting."""
    a = _band(band, rows=kl + ku + 1)
    x, nrhs = _rhs(a, b)
    _finite(a)
    n = a.shape[1]
    ab = np.zeros((2 * kl + ku + 1, n), order="F")    # kl more rows for the fill-in
    ab[kl:] = a
    ipiv = np.empty(n, dtype=_PIVOT)
    _dgbsv(n, kl, ku, nrhs, ab, ab.shape[0], ipiv, x, max(1, n))
    return x


def tbtrs(band, b) -> np.ndarray:
    """Solve U x = b for an upper-triangular band, diagonal in the last
    row, by back substitution."""
    ab = _band(band)
    x, nrhs = _rhs(ab, b)
    _finite(ab)
    n = ab.shape[1]
    _dtbtrs(b"U", b"N", b"N", n, ab.shape[0] - 1, nrhs, ab, ab.shape[0], x, max(1, n))
    return x
