"""The five LAPACK routines segkernel calls, bound with ctypes.

`pttrf` and `pttrs` factor and solve the uncoupled tails of the
operator and the chain rows plain K cannot certify (symmetric
tridiagonals), `pbtrf` and `pbtrs` the operator's coupled core, the
Schur complement of its reflection-odd fold's core for plain K and, for
lambda_min, shifted where it is positive definite, and
`gbsv` gives the profile's Newton step, lambda_min's Rayleigh
functional steps (that Schur complement shifted past lambda_min) and,
with no subdiagonal, constrained K's one back substitution, which gives
the diagonal and first off-diagonal of the operator's core's inverse.
The symbols come from the LAPACK that numpy has already loaded: opening
numpy's linalg extension with ctypes resolves them through that
module's own dependency, so no second LAPACK is imported.  On the numpy
wheels that is scipy-openblas with 64-bit integers and names such as
`scipy_dpbtrf_64_`.  Importing the module sets that library, when it is
an OpenBLAS, to one thread, and, where the C library is glibc, keeps
freed memory in the process (_keep_heap_resident).

pbtrf, pbtrs and gbsv copy what they overwrite and return new arrays;
pttrf factors in place in a diagonal and off-diagonal, and pttrs solves
in place in a right-hand side, that are already float64 arrays in
Fortran order, which spares the caller's own tail vectors a copy on
every factorization and solve.  A non-finite input raises ValueError
(pbtrs and pttrs check only their right-hand side: a factor made from a
finite matrix is finite), a matrix that is not positive definite or a
singular matrix raises numpy.linalg.LinAlgError, and an argument LAPACK
rejects raises ValueError.  Band storage follows LAPACK: entry (i, j) of the matrix
sits at row ku + i - j of column j.
"""

from __future__ import annotations

import ctypes
import os
import warnings

import numpy as np
from numpy.linalg import _umath_linalg

LIBRARY = ctypes.CDLL(_umath_linalg.__file__)


def _pin_openblas_to_one_thread():
    """Set LIBRARY to one thread: a second one buys nothing on banded
    solves and small tile products, spins a core, and makes threaded dot
    products round with the thread count.  Does nothing where LIBRARY is
    not an OpenBLAS."""
    for name in ("openblas_set_num_threads", "scipy_openblas_set_num_threads",
                 "scipy_openblas_set_num_threads64_"):
        setter = getattr(LIBRARY, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


_pin_openblas_to_one_thread()

# glibc's mallopt parameters (malloc.h) and the values set
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 2 ** 20       # the largest glibc accepts on 64-bit
TRIM_THRESHOLD = 256 * 2 ** 20


def _keep_heap_resident():
    """Have glibc's malloc serve every block below MMAP_THRESHOLD from the
    heap, and trim the heap only when more than TRIM_THRESHOLD is free at
    its top.  By default glibc maps a block of 128 KB or more (raised to
    the size of the largest one freed) on its own and unmaps it when it is
    freed, and hands the heap's free top back to the kernel: a sweep entry
    at R = 800 (m = 128k unknowns) works in arrays of 0.5 to 1.5 MB, so
    each warmed-up pass of three sweep entries up to R = 800 faulted about
    2,900 pages in again, 7 to 8 ms of system time in 40 ms.  Freed
    memory now stays in the process until it exits, so its resident size
    holds its peak.  Warns when glibc refuses a value;
    does nothing where the C library is not glibc."""
    if os.name != "posix":
        return
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for name, param, value in (("M_MMAP_THRESHOLD", _M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                               ("M_TRIM_THRESHOLD", _M_TRIM_THRESHOLD, TRIM_THRESHOLD)):
        if mallopt(param, value) != 1:
            warnings.warn(f"glibc refused mallopt({name}, {value})", RuntimeWarning)


_keep_heap_resident()

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
    Python int), d a float64 array in Fortran order, p an integer array
    (both as the callers below make them: they are not checked again).
    Each call puts its integers and INFO in one ctypes array and passes
    every pointer as an address, which costs a fraction of ctypes'
    per-argument ndpointer checks and byref; it appends the hidden
    character lengths, and raises LinAlgError with failure.format(info)
    when INFO > 0."""
    for pattern, int_t in _SPELLINGS:
        fn = getattr(LIBRARY, pattern.format(routine), None)
        if fn is None:
            continue
        lengths = [1] * signature.count("c")
        fn.argtypes = ([ctypes.c_char_p if k == "c" else ctypes.c_void_p for k in signature]
                       + [ctypes.c_void_p] + [ctypes.c_size_t] * len(lengths))
        fn.restype = None
        size, ints_t = ctypes.sizeof(int_t), int_t * (signature.count("i") + 1)
        take = [i for i, k in enumerate(signature) if k == "i"]
        arrays = [i for i, k in enumerate(signature) if k in "dp"]
        chars = [i for i, k in enumerate(signature) if k == "c"]
        # each argument's offset into the integer array (INFO last); the
        # others' are replaced by the argument itself
        offsets = [0] * len(signature) + [len(take) * size]
        for slot, i in enumerate(take):
            offsets[i] = slot * size

        def call(*args):
            ints = ints_t(*[args[i] for i in take])
            base = ctypes.addressof(ints)
            argv = [base + off for off in offsets]
            for i in arrays:
                argv[i] = args[i].ctypes.data
            for i in chars:
                argv[i] = args[i]
            fn(*argv, *lengths)
            info = ints[-1]
            if info > 0:
                raise np.linalg.LinAlgError(failure.format(info))
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of {routine}")

        return call, int_t
    raise ImportError(f"the LAPACK linked by {_umath_linalg.__file__} exports no {routine}")


_dpbtrf, _ = _bind("dpbtrf", "ciidi", "{}-th leading minor not positive definite")
_dpbtrs, _ = _bind("dpbtrs", "ciiididi", "info = {}")
_dpttrf, _ = _bind("dpttrf", "idd", "{}-th leading minor not positive definite")
_dpttrs, _ = _bind("dpttrs", "iidddi", "info = {}")
_dgbsv, _PIVOT = _bind("dgbsv", "iiiidipdi", "singular matrix: U({0},{0}) is zero")


def _band(band, rows=None, copy=False) -> np.ndarray:
    ab = np.array(band, dtype=np.float64, order="F", copy=True if copy else None)
    if ab.ndim != 2 or rows is not None and ab.shape[0] != rows:
        raise ValueError(f"band must be 2-d with {rows or 'kd + 1'} rows, got {ab.shape}")
    return ab


def _tridiagonal(d, e) -> tuple[np.ndarray, np.ndarray]:
    """d and e as float64 arrays in Fortran order, copied only if they are
    not, checked to be a diagonal of length n and an off-diagonal of
    length n - 1."""
    d = np.asarray(d, dtype=np.float64, order="F")
    e = np.asarray(e, dtype=np.float64, order="F")
    if d.ndim != 1 or e.shape != (max(len(d) - 1, 0),):
        raise ValueError(f"need d of length n and e of length n - 1, got {d.shape} and {e.shape}")
    return d, e


def _finite(a: np.ndarray):
    # min and max propagate NaN: no temporary the size of a
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError("array must not contain infs or NaNs")


def _rhs(n: int, b, copy=True) -> tuple[np.ndarray, int]:
    """b as a finite float64 array in Fortran order (a copy, unless not
    copy and b is one already), checked against the order n of the
    matrix, and its column count."""
    x = np.array(b, dtype=np.float64, order="F", copy=True if copy else None)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"a matrix of order {n} and b {x.shape} are not compatible")
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
    n = ab.shape[1]
    x, nrhs = _rhs(n, b)
    _dpbtrs(b"U", n, ab.shape[0] - 1, nrhs, ab, ab.shape[0], x, max(1, n))
    return x


def pttrf(d, e) -> tuple[np.ndarray, np.ndarray]:
    """L D L^T factor of the symmetric positive definite tridiagonal with
    diagonal d and off-diagonal e: the pivots D and the subdiagonal of
    the unit bidiagonal L, written over d and e where they are float64
    arrays in Fortran order."""
    d, e = _tridiagonal(d, e)
    _finite(d)
    _finite(e)
    _dpttrf(len(d), d, e)
    return d, e


def pttrs(d, e, b) -> np.ndarray:
    """Solve A x = b from the pivots and multipliers pttrf returned; b a
    vector or a matrix of columns, overwritten by x when it is a float64
    array in Fortran order."""
    d, e = _tridiagonal(d, e)
    n = len(d)
    x, nrhs = _rhs(n, b, copy=False)
    _dpttrs(n, nrhs, d, e, x, max(1, n))
    return x


def gbsv(kl: int, ku: int, band, b) -> np.ndarray:
    """Solve A x = b for a general band with kl sub- and ku
    superdiagonals in kl + ku + 1 rows, by LU with row pivoting.  With
    kl = 0 that is a back substitution: LAPACK eliminates nothing and only
    reads the band, which is then passed without a copy."""
    ab = a = _band(band, rows=kl + ku + 1)
    n = a.shape[1]
    x, nrhs = _rhs(n, b)
    _finite(a)
    if kl:
        ab = np.zeros((2 * kl + ku + 1, n), order="F")    # kl more rows for the fill-in
        ab[kl:] = a
    ipiv = np.empty(n, dtype=_PIVOT)
    _dgbsv(n, kl, ku, nrhs, ab, ab.shape[0], ipiv, x, max(1, n))
    return x

