"""segkernel runs its linear algebra on one BLAS thread, so its numbers do
not depend on the thread count the environment asks for."""

import ctypes
import os
import subprocess
import sys
import textwrap

import pytest

import segkernel

GETTERS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
           "scipy_openblas_get_num_threads64_")


def _mapped_openblas() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    return sorted({f[5].strip() for f in fields
                   if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1]})


def test_every_mapped_openblas_runs_one_thread():
    paths = _mapped_openblas()
    if not paths:
        pytest.skip("no OpenBLAS is mapped into this process")
    for path in paths:
        lib = ctypes.CDLL(path)
        getter = next(getattr(lib, name) for name in GETTERS if hasattr(lib, name))
        assert getter() == 1, path


VALUES = textwrap.dedent("""
    from segkernel import (Grid, NormContext, assemble, inv_constant_exact,
                           kernel_basis, smallest_eigenvalue, solve_profile)
    p = solve_profile(T=12.0, N=4801, newton_tol=1e-10)
    print(repr(smallest_eigenvalue(assemble(p, 0.0, Grid(80.0, 6401)))))
    g = Grid(160.0, 12801)
    print(repr(inv_constant_exact(assemble(p, 0.0, g), NormContext(0.5),
                                  orth_elements=[kernel_basis(p, g).z1])))
""")


def test_results_do_not_depend_on_the_thread_count():
    src = os.path.dirname(os.path.dirname(segkernel.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", VALUES], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert len(outputs[0].split()) == 2
    assert outputs[0] == outputs[1]
