"""Banded symmetric discretization of the linearized operator.

The two-component operator

    L = ( -d2/dx2 + V2^2 + w^2        2 V1 V2          )
        (      2 V1 V2           -d2/dx2 + V1^2 + w^2  )

is discretized on a uniform grid over (-R, R) with homogeneous
Dirichlet endpoints, second-order central differences, and the two
unknowns interleaved per node, giving a symmetric banded matrix with
half-bandwidth 2 over the 2(N-2) interior unknowns.  The band is built
on first use, and L is factored once per operator.  The coupling
2 V1 V2 vanishes where the profile's tail extension sets one component
to zero, so the factorization eliminates uncoupled tails first, as one
tridiagonal, and then Cholesky-factors what is left.  L's tails are its
four chains over |x| > T: the dying u1 on the left and u2 on the right,
whose partner potential is 0 there, and the living u2 on the left and
u1 on the right, where L is the free chain -d2/h2 + omega^2.  What is
left is the coupled core |x| <= T, whose size does not grow with R, and
every general solve and constrained K use it.  The potentials are
mirror exact, so on reflection-odd vectors L is a half-size band, the
fold, whose two chains are at its left end and whose core is the small
coupled one: odd_core gives its core and chains at omega = 0, checked
once per operator, and plain K and lambda_min eliminate the chains in
closed form; nothing of the fold is factored over its chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GridMismatch, SegkernelError, SingularSystem
from .lapack import pbtrf, pbtrs, pttrf, pttrs
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
        if not (np.isfinite(self.R) and self.R > 0):
            raise ValueError("R must be finite and positive")
        b = 1.0 / self.h ** 2 if self.h ** 2 else np.inf
        if not np.isfinite(b * b):      # plain K and lambda_min form b^2 = 1/h^4
            raise ValueError(f"R = {self.R!r} on {self.N} nodes: 1/h^4 overflows")

    @property
    def h(self) -> float:
        return 2.0 * self.R / (self.N - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """The N nodes, computed once per Grid and read-only."""
        j = np.arange(self.N)
        x = (2.0 * j - (self.N - 1)) / (self.N - 1) * self.R
        x.setflags(write=False)
        return x

    @cached_property
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
    """Assembled banded operator with L's cached tail-first
    factorization (smallest_pivot, its smallest pivot, is set once it is
    computed) and the cached core and chains of its fold on J-odd
    vectors (odd_core).

    It keeps the omega-free potentials; omega^2 enters only the diagonal,
    so L(omega) = L(0) + omega^2 I exactly.
    """

    def __init__(self, grid: Grid, omega: float, pot1_0, pot2_0, coup):
        self.grid = grid
        self.omega = float(omega)
        self.w2 = self.omega * self.omega
        if not (self.omega >= 0 and np.isfinite(self.w2)):
            raise ValueError("omega must be nonnegative, with a finite square")
        self.pot1_0 = pot1_0        # V2^2 at interior nodes
        self.pot2_0 = pot2_0        # V1^2 at interior nodes
        self.coup = coup            # 2 V1 V2 at interior nodes
        self._factor = self._odd_core = None
        self.smallest_pivot = None

    @property
    def n_unknowns(self) -> int:
        return 2 * (self.grid.N - 2)

    @cached_property
    def band(self) -> np.ndarray:
        """Upper band storage of L, built on first use."""
        return self._band_columns(0, self.n_unknowns)

    def _band_columns(self, lo: int, hi: int, w2=None) -> np.ndarray:
        """Columns lo..hi-1 of the band, lo even; of L(0) at w2 = 0.0."""
        j = lo // 2
        n1, n2 = j + (hi - lo + 1) // 2, j + (hi - lo) // 2
        band = np.zeros((3, hi - lo))
        band[2, 0::2] = self._diagonal(self.pot1_0[j:n1], w2)
        band[2, 1::2] = self._diagonal(self.pot2_0[j:n2], w2)
        band[1, 1::2] = self.coup[j:n2]                       # same-node coupling
        band[0, max(2 - lo, 0):] = -1.0 / self.grid.h ** 2    # same-component neighbors
        return band

    def dying_nodes(self) -> tuple[int, int]:
        """The lengths of L's dying chains: u1 over the leading and u2 over
        the trailing nodes where the coupling and the partner's potential
        (V1^2, resp. V2^2) are 0, cut so that one node is left between."""
        n = self.grid.N - 2
        left = min(_run((self.pot2_0 == 0.0) & (self.coup == 0.0)), (n - 1) // 2)
        right = _run((self.pot1_0[::-1] == 0.0) & (self.coup[::-1] == 0.0))
        return left, min(right, n - 1 - left)

    def factorization(self) -> TailFirst:
        """The factorization of L, computed once, that every general solve
        and constrained K use.  Its tails are L's four uncoupled chains over
        the nodes of dying_nodes(), each in order towards the core: the
        dying u1 on the left and u2 on the right, then the living u2 on the
        left and u1 on the right, whose potential is 0 there, so that L is
        the free chain -d2/h2 + omega^2 on them.  Its core is the coupled
        unknowns between, |x| <= T, in natural order, mirror symmetric when
        L is, and the same size for every R at one h; each chain meets it
        at its first (left) or last (right) u1 or u2.  With no chain
        (R <= T) the core is L's band in natural order.

        Raises SingularSystem when the matrix is not numerically
        positive definite or a pivot falls below PIVOT_TOL *
        max(diagonal); the smallest pivot is kept for diagnostics
        (relevant for the flagged omega = 0 regime).
        """
        if self._factor is None:
            m, n, (left, right) = self.n_unknowns, self.grid.N - 2, self.dying_nodes()
            lo, hi = 2 * left, m - 2 * right
            core = self._band_columns(lo, hi)
            core[0, :2] = 0.0               # its links to the left chains
            pots = (self.pot1_0[:left], self.pot2_0[n - right:][::-1],
                    self.pot2_0[:left], self.pot1_0[n - right:][::-1])
            self._factor, self.smallest_pivot = _tail_first(
                (slice(0, lo, 2), slice(m - 1, hi, -2), slice(1, lo, 2), slice(m - 2, hi - 1, -2)),
                [self._diagonal(p) for p in pots], slice(lo, hi), core,
                (0, hi - lo - 1, 1, hi - lo - 2), -1.0 / self.grid.h ** 2)
        return self._factor

    def _diagonal(self, pot, w2=None):
        """The diagonal entries of L over a component's potential pot, or
        of L(0) at w2 = 0.0: the band's 2/h^2 + (pot + omega^2), rounded
        as the band rounds them."""
        return 2.0 / self.grid.h ** 2 + (pot + (self.w2 if w2 is None else w2))

    def odd_core(self) -> OddCore:
        """L(0) on J-odd vectors [a; -a reversed], J the reversal of the
        interleaved unknowns (x -> -x with u1 <-> u2), which commutes with
        L when its potentials are mirror exact (else ValueError): the fold
        B, the band's first m/2 columns less the two entries linking the
        last one across the middle (fold(band)).  B's unknowns before its
        coupled core's first, start = 2n, are its two chains over the n
        uncoupled leading nodes, which meet the core at its positions 0
        and 1 by -1/h^2: D, the u1 (slice(0, start, 2)), and V, the u2
        (slice(1, start, 2)), whose potential must be one constant (else
        ValueError), so that V is a free chain.  Computed and checked once
        per operator and free of omega, as L(omega) = L(0) + omega^2 I:
        plain K builds its own core at omega, and lambda_min reads this one.

        B alone decides whether L is positive definite, when the coupling
        is nonnegative (else SegkernelError): with s = (+1, -1, ...),
        diag(s) L diag(s) is then an irreducible Z-matrix, so an
        eigenvector of lambda_min(L) is diag(s) p with p > 0 unique
        (Perron-Frobenius), hence J-odd, and lambda_min(B) = lambda_min(L)."""
        if self._odd_core is None:
            if not (np.array_equal(self.pot1_0, self.pot2_0[::-1])
                    and np.array_equal(self.coup, self.coup[::-1])):
                raise ValueError("potentials not mirror exact: L does not commute with J")
            if np.any(self.coup < 0):
                raise SegkernelError("negative coupling 2 V1 V2: sign-flip identity fails")
            h = self.n_unknowns // 2
            coupled = self.coup[:(h + 1) // 2] != 0.0
            # the core starts at the first coupled node and holds h-2 and h-1
            n = min(int(np.argmax(coupled)) if coupled.any() else h, h // 2 - 1)
            dying, free = self.pot1_0[:n], self.pot2_0[:n]
            if np.any(free != free[:1]):
                raise ValueError("the fold's u2 chain is not free: its potential is not constant")
            self._odd_core = OddCore(
                2 * n, self._band_columns(2 * n, h + 2, 0.0), dying,
                (float(np.min(dying, initial=np.inf)), float(np.max(dying, initial=-np.inf))),
                float(free[0]) if n else 0.0)
        return self._odd_core

    def solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for interleaved interior unknowns; rhs may be a matrix."""
        return _solve(self.factorization(), rhs, self.n_unknowns)

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
        out.comp1[1:-1], out.comp2[1:-1] = _stencil(
            self.grid.h ** 2, self.w2, (self.pot1_0, self.pot2_0, self.coup),
            u.comp1, u.comp2)
        return out


class OddCore(NamedTuple):
    """The fold's coupled core and chains at omega = 0, as
    DiscreteOperator.odd_core gives them."""

    start: int              # the core's first unknown, 2 n for chains of n nodes
    band: np.ndarray        # L(0)'s columns start..m/2+1: the core's, then their mirrors'
    dying: np.ndarray       # D's potential V2^2 at its n nodes, in order towards the core
    dying_range: tuple      # its smallest and largest value (+-inf with no chain)
    free: float             # V's potential V1^2, the same at each of its nodes


def fold(band: np.ndarray) -> np.ndarray:
    """The fold's core band, a copy, from the band's columns start..m/2+1
    (OddCore.band): its last column less its entries linking across the
    middle."""
    core = band[:, :-2].copy()
    core[1:, -1] -= band[:2, -2]
    return core


class TailFirst(NamedTuple):
    """A band factored tail first.  Tail positions run chain by chain,
    core positions in the core's order."""

    chains: tuple           # each chain's unknowns, a slice ending next to the core
    d: np.ndarray           # pttrf of the tails
    e: np.ndarray
    q: list                 # per chain, tails^-1 (chain end's unit vector), a column
    ends: np.ndarray        # each chain's last tail position
    joins: np.ndarray       # the core position next to it
    link: float             # the entry of L linking the two, -1/h^2
    core: slice             # the core's unknowns, in order
    core_factor: np.ndarray  # pbtrf of the core's Schur complement


def _tail_first(chains, tails, core, band, joins, link):
    """A band factored tail first, and its smallest pivot.  Its tails are
    the chains, uncoupled runs of unknowns with diagonals tails, linked
    by link to their neighbours and, at the end, to the core position
    joins; empty chains are skipped.  band is the core's band, a copy
    (factored in place).  The chains are stacked into one tridiagonal
    with a zero join, one L D L^T.
    The exact Schur complement of the tails takes link^2 / d_end off the
    core diagonal at each join (d_end the chain's last pivot); the core is
    then Cholesky-factored.  A chain's response q to the unit vector u at
    its end needs no solve: L^T q = u / d_end, as the unit lower factor
    leaves u as it is, so q is 1/d_end times the running product of -e
    taken back from the end."""
    live = [i for i, t in enumerate(tails) if len(t)]
    chains, tails, joins = ([v[i] for i in live] for v in (chains, tails, joins))
    sizes = [len(t) for t in tails]
    ends = np.cumsum(sizes, dtype=int) - 1
    joins = np.asarray(joins, dtype=int)
    e = np.full(sum(sizes), link)
    e[ends] = 0.0       # the joins between the chains
    d = np.concatenate([np.zeros(0)] + list(tails))
    largest = max(np.max(d, initial=-np.inf), np.max(band[2]))
    d, e = _factored(pttrf, d, e[:-1])
    np.subtract.at(band[2], joins, link ** 2 / d[ends])
    core_factor = _factored(pbtrf, band)
    smallest = _smallest_pivot(min(np.min(d, initial=np.inf), np.min(core_factor[2] ** 2)),
                               largest)
    q = []
    for k, n in zip(ends, sizes):
        qk = np.empty(n)
        qk[0] = 1.0 / d[k]
        np.negative(e[k + 1 - n:k][::-1], out=qk[1:])
        q.append(np.cumprod(qk, out=qk)[::-1, None])
    return TailFirst(tuple(chains), d, e, q, ends, joins, link, core, core_factor), smallest


def _solve(f: TailFirst, rhs, m: int) -> np.ndarray:
    """Solve with the tail-first factorization f of m unknowns; rhs may
    be a matrix.  One tail solve t, in place in a Fortran-order stack of
    the chains; the core solve, with link * t_end taken off at each join
    (subtract.at only where two chains share a join, as on a core of one
    node); and the chains back-corrected in place by t_chain -= q_chain *
    link * x_join, a column at a time, and scattered into x."""
    b = np.asarray(rhs, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != m:
        raise ValueError(f"rhs of shape {b.shape} does not fit {m} unknowns")
    cols = b.reshape(len(b), -1)
    t = np.empty((len(f.d), cols.shape[1]), order="F")
    starts = f.ends + 1 - np.array([len(q) for q in f.q], dtype=int)
    for s, lo, hi in zip(f.chains, starts, f.ends + 1):
        t[lo:hi] = cols[s]
    pttrs(f.d, f.e, t)
    core = cols[f.core].copy()
    if len(set(f.joins.tolist())) == len(f.joins):
        core[f.joins] -= f.link * t[f.ends]
    else:
        np.subtract.at(core, f.joins, f.link * t[f.ends])
    x = np.empty(cols.shape)
    x[f.core] = core = pbtrs(f.core_factor, core)
    for c, (tc, xc) in enumerate(zip(t.T, x.T)):       # contiguous tail columns
        for s, lo, hi, q, j in zip(f.chains, starts, f.ends + 1, f.q, f.joins):
            part = tc[lo:hi]
            part -= q[:, 0] * (f.link * core[j, c])
            xc[s] = part
    return x.reshape(b.shape)


def _run(mask: np.ndarray) -> int:
    """The length of mask's leading run of True."""
    return len(mask) if mask.all() else int(np.argmin(mask))


def _factored(routine, *args):
    """routine(*args), a LAPACK factorization, with a matrix that is not
    positive definite reported as SingularSystem."""
    try:
        return routine(*args)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"factorization failed: {exc}") from exc


def _smallest_pivot(smallest, largest) -> float:
    """The smallest pivot; SingularSystem when it falls below PIVOT_TOL
    times the largest diagonal entry of the matrix factored."""
    smallest = float(smallest)
    if smallest < PIVOT_TOL * float(largest):
        raise SingularSystem(f"near-zero pivot {smallest:.3e}")
    return smallest


def _stencil(h2, w2, pots, u1, u2):
    """L (u1, u2) at every node but the first and last of u1 and u2,
    with pots = (V2^2, V1^2, 2 V1 V2) at those nodes.  Second differences
    are taken as differences of first differences, which keeps the
    evaluation reliable for near-kernel inputs.
    """
    pot1_0, pot2_0, coup = pots
    out = []
    for comp, other, pot in ((u1, u2, pot1_0), (u2, u1, pot2_0)):
        d = np.diff(comp)
        out.append(-(d[1:] - d[:-1]) / h2 + (pot + w2) * comp[1:-1] + coup * other[1:-1])
    return out


def _potentials(p: ProfileTable, x):
    """(V2^2, V1^2, 2 V1 V2) at the points x, mirror exact: the profile
    is evaluated at -|x| and its components swapped where x > 0."""
    v1, _, v2, _ = eval_profile(p, -np.abs(x))
    v1, v2 = np.where(x > 0, v2, v1), np.where(x > 0, v1, v2)
    return v2 * v2, v1 * v1, 2.0 * v1 * v2


def assemble(p: ProfileTable, omega: float, grid: Grid) -> DiscreteOperator:
    """Assemble the operator; potentials come from the profile table
    (tail extension supplies them for R beyond the table).  The nodes
    x <= 0 are evaluated and those x > 0 are their mirrors with the
    components swapped, which is what _potentials gives there bit for
    bit, as the grid is mirror exact."""
    n = grid.N - 2
    half = (n + 1) // 2
    pot1, pot2, coup = _potentials(p, grid.interior[:half])
    mirror = slice(n - half - 1, None, -1)      # the mirrors of the nodes x > 0
    return DiscreteOperator(grid, omega, np.concatenate((pot1, pot2[mirror])),
                            np.concatenate((pot2, pot1[mirror])),
                            np.concatenate((coup, coup[mirror])))


def apply_between(p: ProfileTable, omega: float, grid: Grid, lo: int, u1, u2):
    """(L u) at the nodes lo..hi-1 of grid, 1 <= lo < hi <= N - 1, as two
    arrays, from u's components u1 and u2 at the nodes lo-1..hi, with L
    assembled at those nodes only: entry by entry what
    assemble(p, omega, grid).apply(u) gives there."""
    hi = lo + len(u1) - 2
    if not (1 <= lo < hi <= grid.N - 1 and len(u2) == len(u1)):
        raise ValueError("need 1 <= lo < hi <= N - 1 and u1, u2 at the nodes lo-1..hi")
    pots = _potentials(p, grid.nodes[lo:hi])
    return _stencil(grid.h ** 2, omega * omega, pots, u1, u2)


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
    g.comp1[1:-1] = -phi1_xx[1:-1] + (op.pot1_0 + op.w2) * phi1[1:-1] + op.coup * phi2[1:-1]
    g.comp2[1:-1] = -phi2_xx[1:-1] + (op.pot2_0 + op.w2) * phi2[1:-1] + op.coup * phi1[1:-1]
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
