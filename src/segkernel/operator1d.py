"""Banded symmetric discretization of the linearized operator.

The two-component operator

    L = ( -d2/dx2 + V2^2 + w^2        2 V1 V2          )
        (      2 V1 V2           -d2/dx2 + V1^2 + w^2  )

is discretized on a uniform grid over (-R, R) with homogeneous
Dirichlet endpoints, second-order central differences, and the two
unknowns interleaved per node, giving a symmetric banded matrix with
half-bandwidth 2 over the 2(N-2) interior unknowns.  The factorization
is computed once per operator and reused for every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, SingularSystem
from .lapack import pbtrf, pbtrs
from .profile import ProfileTable, eval_profile

PIVOT_TOL = 1e-13


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [-R, R], endpoints included.

    Node j sits at R*(2j-(N-1))/(N-1); this closed form makes the
    endpoints and the mirror symmetry x_{N-1-j} = -x_j exact.
    """

    R: float
    N: int

    def __post_init__(self):
        if self.N < 5:
            raise ValueError("need at least 5 nodes")
        if self.R <= 0:
            raise ValueError("R must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.R / (self.N - 1)

    @property
    def nodes(self) -> np.ndarray:
        j = np.arange(self.N)
        return (2.0 * j - (self.N - 1)) / (self.N - 1) * self.R

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]


@dataclass
class PairGridFunction:
    """Two-component function sampled on a grid."""

    grid: Grid
    comp1: np.ndarray
    comp2: np.ndarray

    def __post_init__(self):
        self.comp1 = np.asarray(self.comp1, dtype=float)
        self.comp2 = np.asarray(self.comp2, dtype=float)
        if self.comp1.shape != (self.grid.N,) or self.comp2.shape != (self.grid.N,):
            raise ValueError("component length must match the grid")
        if not (np.all(np.isfinite(self.comp1)) and np.all(np.isfinite(self.comp2))):
            raise ValueError("components must be finite")

    @classmethod
    def zeros(cls, grid: Grid) -> "PairGridFunction":
        return cls(grid, np.zeros(grid.N), np.zeros(grid.N))


def interleave(u: PairGridFunction) -> np.ndarray:
    """Interior unknown vector in (comp1_j, comp2_j) per-node order."""
    m = 2 * (u.grid.N - 2)
    out = np.empty(m)
    out[0::2] = u.comp1[1:-1]
    out[1::2] = u.comp2[1:-1]
    return out


def deinterleave(grid: Grid, vec: np.ndarray) -> PairGridFunction:
    """Inverse of interleave; endpoints set to zero (Dirichlet)."""
    u = PairGridFunction.zeros(grid)
    u.comp1[1:-1] = vec[0::2]
    u.comp2[1:-1] = vec[1::2]
    return u


class DiscreteOperator:
    """Assembled banded operator with a cached symmetric factorization."""

    def __init__(self, grid: Grid, omega: float, pot1, pot2, coup):
        self.grid = grid
        self.omega = float(omega)
        self.pot1 = pot1            # V2^2 + w^2 at interior nodes
        self.pot2 = pot2            # V1^2 + w^2 at interior nodes
        self.coup = coup            # 2 V1 V2 at interior nodes
        self.band = self.shifted_band(0.0)
        self._factor = None
        self.smallest_pivot = None

    @property
    def n_unknowns(self) -> int:
        return 2 * (self.grid.N - 2)

    def shifted_band(self, sigma: float) -> np.ndarray:
        """Upper band storage of L - sigma I.  sigma comes off the
        potentials before 2/h^2 is added, so sigma = omega^2 gives the
        omega = 0 band up to round-off in the potentials alone."""
        m = self.n_unknowns
        h2 = self.grid.h ** 2
        band = np.zeros((3, m))
        band[2, 0::2] = 2.0 / h2 + (self.pot1 - sigma)
        band[2, 1::2] = 2.0 / h2 + (self.pot2 - sigma)
        band[1, 1::2] = self.coup          # same-node coupling
        band[0, 2:] = -1.0 / h2            # same-component neighbors
        return band

    def factorization(self) -> np.ndarray:
        """Banded Cholesky factor, computed once.

        Raises SingularSystem when the matrix is not numerically
        positive definite or a pivot falls below
        PIVOT_TOL * max(diagonal); the smallest pivot is kept for
        diagnostics (relevant for the flagged omega = 0 regime).
        """
        if self._factor is None:
            try:
                factor = pbtrf(self.band)
            except np.linalg.LinAlgError as exc:
                raise SingularSystem(f"factorization failed: {exc}") from exc
            pivots = factor[2] ** 2
            self.smallest_pivot = float(np.min(pivots))
            if self.smallest_pivot < PIVOT_TOL * float(np.max(self.band[2])):
                raise SingularSystem(
                    f"near-zero pivot {self.smallest_pivot:.3e}"
                )
            self._factor = factor
        return self._factor

    def solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for interleaved interior unknowns; rhs may be a matrix."""
        return pbtrs(self.factorization(), rhs)

    def solve(self, g: PairGridFunction) -> PairGridFunction:
        """Solve L u = g with homogeneous Dirichlet endpoints."""
        if g.grid != self.grid:
            raise GridMismatch("right-hand side lives on a different grid")
        return deinterleave(self.grid, self.solve_interior(interleave(g)))

    def apply(self, u: PairGridFunction) -> PairGridFunction:
        """Apply the discrete operator; endpoints of the output are 0.

        Endpoint values of u act as boundary data.
        """
        if u.grid != self.grid:
            raise GridMismatch("operand lives on a different grid")
        out = PairGridFunction.zeros(self.grid)
        self._stencil(u.comp1, u.comp2, out.comp1[1:-1], out.comp2[1:-1])
        return out

    def _stencil(self, u1: np.ndarray, u2: np.ndarray, out1: np.ndarray, out2: np.ndarray):
        """Write the interior values of both components of L u into out1
        and out2, from components u1 and u2 given at all N nodes,
        endpoints included.  Second differences are taken as differences
        of first differences, which keeps the evaluation reliable for
        near-kernel inputs."""
        h2 = self.grid.h ** 2
        for comp, other, pot, dst in ((u1, u2, self.pot1, out1), (u2, u1, self.pot2, out2)):
            d = np.diff(comp)
            dst[...] = -(d[1:] - d[:-1]) / h2 + pot * comp[1:-1] + self.coup * other[1:-1]


def assemble(p: ProfileTable, omega: float, grid: Grid) -> DiscreteOperator:
    """Assemble the operator; potentials come from the profile table
    (tail extension supplies them for R beyond the table)."""
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    v1, _, v2, _ = eval_profile(p, grid.interior)
    w2 = omega * omega
    return DiscreteOperator(grid, omega, v2 * v2 + w2, v1 * v1 + w2, 2.0 * v1 * v2)


def mms_pair(grid: Grid):
    """Manufactured solution (both components zero at the endpoints)
    and its analytic second derivatives."""
    x = grid.nodes
    R = grid.R
    a = np.pi / (2.0 * R)
    b = np.pi / R
    w = np.exp(-x * x / 8.0)
    wp = -x / 4.0 * w
    wpp = (x * x / 16.0 - 0.25) * w
    s1, c1 = np.sin(a * (x + R)), np.cos(a * (x + R))
    s2, c2 = np.sin(b * (x + R)), np.cos(b * (x + R))
    phi1 = s1 * w
    phi2 = -s2 * w
    phi1_xx = -a * a * s1 * w + 2.0 * a * c1 * wp + s1 * wpp
    phi2_xx = -(-b * b * s2 * w + 2.0 * b * c2 * wp + s2 * wpp)
    return phi1, phi2, phi1_xx, phi2_xx


def mms_solve_error(op: DiscreteOperator) -> float:
    """Sup error of the discrete solve against the manufactured pair."""
    grid = op.grid
    phi1, phi2, phi1_xx, phi2_xx = mms_pair(grid)
    g = PairGridFunction.zeros(grid)
    g.comp1[1:-1] = -phi1_xx[1:-1] + op.pot1 * phi1[1:-1] + op.coup * phi2[1:-1]
    g.comp2[1:-1] = -phi2_xx[1:-1] + op.pot2 * phi2[1:-1] + op.coup * phi1[1:-1]
    sol = op.solve(g)
    return float(max(np.max(np.abs(sol.comp1 - phi1)), np.max(np.abs(sol.comp2 - phi2))))


def convergence_report(p: ProfileTable, omega: float, R: float, n_list):
    """Manufactured-solution errors and observed orders over a grid family.

    Returns a list of dicts with keys N, error, order (order is None for
    the first entry).
    """
    n_list = list(n_list)
    if any(n % 2 == 0 for n in n_list):
        raise ValueError("node counts must be odd")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("node counts must be strictly increasing")
    rows = []
    prev = None
    for n in n_list:
        grid = Grid(R, n)
        err = mms_solve_error(assemble(p, omega, grid))
        order = None
        if prev is not None:
            n0, e0 = prev
            order = float(np.log(e0 / err) / np.log((n - 1) / (n0 - 1)))
        rows.append({"N": n, "error": err, "order": order})
        prev = (n, err)
    return rows
