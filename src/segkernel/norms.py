"""Weighted sup norms, kernel elements, and orthogonality projections.

The weighted norm of a right-hand side is sup |g(x)| cosh(theta x),
taken over both components (the pair norm is the max of the component
norms).  Weights are handled through log-cosh so that large theta*R
neither overflows nor turns exact zeros into NaNs.  The orthogonality
projector acts on the solver's interleaved interior unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GramSingular
from .operator1d import Grid, PairGridFunction, deinterleave, interleave
from .profile import ProfileTable, eval_profile

_LOG2 = np.log(2.0)


@dataclass(frozen=True)
class NormContext:
    """Exponential weight rate; theta > 0 in the theorem regime."""

    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise ValueError("theta must be finite and positive")


def log_cosh(y):
    y = np.abs(y)
    return y + np.log1p(np.exp(-2.0 * y)) - _LOG2


def cosh_weights(x, theta):
    """exp(-log cosh(theta x)): decaying weights, safe for any theta*x."""
    return np.exp(-log_cosh(theta * x))


def weighted_sup(x, comp1, comp2, theta: float) -> float:
    """max over the sampled nodes x of |comp1|, |comp2| times cosh(theta x),
    taken in logs so an exact zero times a huge weight stays zero."""
    lw = log_cosh(theta * x)
    with np.errstate(divide="ignore"):
        m1 = np.log(np.abs(comp1)) + lw
        m2 = np.log(np.abs(comp2)) + lw
    return float(np.exp(max(np.max(m1), np.max(m2))))


def weighted_sup_norm(u: PairGridFunction, ctx: NormContext) -> float:
    """max over nodes and components of |u| * cosh(theta x)."""
    return weighted_sup(u.grid.nodes, u.comp1, u.comp2, ctx.theta)


def unweighted_sup_norm(u: PairGridFunction) -> float:
    return float(max(np.max(np.abs(u.comp1)), np.max(np.abs(u.comp2))))


@dataclass(frozen=True)
class KernelBasis:
    """The two kernel elements of the omega=0 operator on the grid:
    z1 = (V1', V2') and z2 = (x V1' + V1, x V2' + V2)."""

    z1: PairGridFunction
    z2: PairGridFunction


def kernel_basis(p: ProfileTable, grid: Grid) -> KernelBasis:
    """The kernel elements, mirror exact: the profile is evaluated at the
    nodes x <= 0 and mirrored to x > 0 by V1(x) = V2(-x) and V1'(x) =
    -V2'(-x), so z1 is J-odd and z2 J-even bit for bit."""
    x, half = grid.nodes, (grid.N + 1) // 2
    v1, dv1, v2, dv2 = eval_profile(p, x[:half])
    mirror = slice(grid.N - half - 1, None, -1)     # the mirrors of the nodes x > 0
    v1, v2 = np.concatenate((v1, v2[mirror])), np.concatenate((v2, v1[mirror]))
    dv1, dv2 = np.concatenate((dv1, -dv2[mirror])), np.concatenate((dv2, -dv1[mirror]))
    z1 = PairGridFunction(grid, dv1, dv2)
    z2 = PairGridFunction(grid, x * dv1 + v1, x * dv2 + v2)
    return KernelBasis(z1=z1, z2=z2)


def pair_inner(u: PairGridFunction, v: PairGridFunction, grid: Grid) -> float:
    """Composite trapezoid of u.v (both components) over [-R, R]."""
    f = u.comp1 * v.comp1 + u.comp2 * v.comp2
    return float(np.trapezoid(f, dx=grid.h))


class Projector:
    """Removes kernel-element content from interleaved interior vectors.

    Subtracts multiples of the carriers z_i / cosh(2 theta x) (the bare
    elements are unbounded, so a theta-decaying carrier keeps the
    projected g inside the weighted class) with coefficients chosen so
    the pairings h * sum_interior z_i . g vanish.  One Gram matrix,
    zrows @ carriers, serves every caller.
    """

    def __init__(self, elements, grid: Grid, ctx: NormContext):
        self.grid = grid
        if not elements:
            raise ValueError("need at least one kernel element")
        zs = np.column_stack([interleave(z) for z in elements])        # m x k
        w = np.repeat(cosh_weights(grid.interior, 2.0 * ctx.theta), 2)
        self.carriers = zs * w[:, None]
        self.zrows = grid.h * zs.T
        gram = self.zrows @ self.carriers
        if np.linalg.cond(gram) > 1e12:
            raise GramSingular(
                f"carrier Gram condition {np.linalg.cond(gram):.3e}; grid too coarse"
            )
        self.gram_inv = np.linalg.inv(gram)

    def apply(self, vec):
        """vec may be (m,) or (m, b); returns the projected copy."""
        coef = self.gram_inv @ (self.zrows @ vec)
        return vec - self.carriers @ coef

    def __call__(self, g: PairGridFunction) -> PairGridFunction:
        """Projected copy of g with zero Dirichlet endpoints, so its
        trapezoid pairings with the z_i equal the interior ones."""
        return deinterleave(self.grid, self.apply(interleave(g)))
