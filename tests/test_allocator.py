"""segkernel keeps freed memory in the process where the C library is
glibc, so a repeated sweep entry reuses its arrays instead of faulting
them in again; the numbers do not depend on that policy.  The glued
counterexample pair is evaluated on its residual's window only, with
the same bits as on the whole grid."""

import ctypes
import math
import os
import resource
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import segkernel
from segkernel import (
    CounterexampleSpec,
    NormContext,
    SweepPoint,
    assemble,
    build_counterexample,
    counterexample,
    counterexample_residual,
    lower_bound_from_counterexample,
    run_sweep_entry,
    unweighted_sup_norm,
)
from segkernel.norms import weighted_sup

GLIBC = os.name == "posix" and hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
needs_glibc = pytest.mark.skipif(not GLIBC, reason="mallopt is glibc's")


@needs_glibc
def test_a_repeated_north_star_entry_faults_no_pages(table):
    point = SweepPoint(theta=0.5, omega=0.05, R=800.0, N=64001)
    run_sweep_entry(table, point)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    record = run_sweep_entry(table, point)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert record.error == "" and np.isfinite(record.K)
    assert faults <= 64


VALUES = textwrap.dedent("""
    import ctypes, sys
    import segkernel
    if sys.argv[1] == "glibc-defaults":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD back to 128 KB
        assert mallopt(-3, 128 * 1024) == 1 and mallopt(-1, 128 * 1024) == 1
    from segkernel import (Grid, NormContext, assemble, inv_constant_exact,
                           kernel_basis, smallest_eigenvalue, solve_profile)
    p = solve_profile(T=12.0, N=4801, newton_tol=1e-10)
    op = assemble(p, 0.05, Grid(800.0, 64001))
    print(repr(smallest_eigenvalue(op)))
    print(repr(inv_constant_exact(op, NormContext(0.5))))
    g = Grid(160.0, 12801)
    print(repr(inv_constant_exact(assemble(p, 0.0, g), NormContext(0.5),
                                  orth_elements=[kernel_basis(p, g).z1])))
""")


@needs_glibc
def test_results_do_not_depend_on_the_allocator_policy():
    src = os.path.dirname(os.path.dirname(segkernel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = [subprocess.run([sys.executable, "-c", VALUES, policy], env=env,
                              capture_output=True, text=True, check=True).stdout
               for policy in ("segkernel", "glibc-defaults")]
    assert len(outputs[0].split()) == 3
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("N", [None, 1201], ids=["default-N", "N=1201"])
@pytest.mark.parametrize("R", [5.0, 10.0, 50.0, 800.0])
@pytest.mark.parametrize("theta", [0.3, 0.5])
def test_window_only_pair_matches_the_whole_grid(table, theta, R, N):
    # at R = 5 and 10 the window holds the whole grid
    omega = R ** -theta
    spec = CounterexampleSpec(R=R, theta=theta, omega=omega, N=N or 0)
    full = build_counterexample(table, spec)
    grid = spec.grid
    rho = assemble(table, omega, grid).apply(full)
    window = max(table.half_length, 0.75 * math.log(R))
    x = grid.nodes
    mask = (np.abs(x) <= window) & (np.abs(x) > 0.5 * grid.h)
    r = weighted_sup(x[mask], rho.comp1[mask], rho.comp2[mask], theta) / omega
    norm = unweighted_sup_norm(full)

    weighted, phi, got_window = counterexample._windowed_weighted_residual(
        table, spec, grid.N, NormContext(theta))
    assert got_window == window and weighted / omega == r
    reach = (len(phi[0]) - 1) // 2      # the pair is held at the nodes j0 - reach .. j0 + reach
    j0 = (grid.N - 1) // 2
    assert np.array_equal(phi[0], full.comp1[j0 - reach:j0 + reach + 1])
    assert np.array_equal(phi[1], full.comp2[j0 - reach:j0 + reach + 1])
    assert lower_bound_from_counterexample(table, theta, omega, R, N) == norm / (omega * r)
    rep = counterexample_residual(table, spec, strict=False)
    assert rep.r == r and rep.norm_phi == norm
    assert rep.phi_at_0 == (full.comp1[j0], full.comp2[j0])
