"""Spans around the calls into segkernel's layers, recorded from outside.

`Tracer.active()` rebinds every public function that `segkernel/__init__`
exports, in each `segkernel.*` namespace that holds it, plus the
`DiscreteOperator` methods `factorization`, `solve_interior` and `apply`
and `Projector.__init__`.  Calls made inside the program (run_sweep ->
run_sweep_entry -> smallest_eigenvalue, cli.main -> ...) are therefore
caught too.  On exit every original is put back.

Spans are kept in memory.  Each records name, start, end, process CPU
time at both ends, parent, thread id, run id and counts.  Threads started
by a `concurrent.futures.ThreadPoolExecutor` (the column-streaming pool
inside exact K) inherit the span that submitted their work as parent.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import importlib
import inspect
import itertools
import math
import threading
import time

LAYERS = ("profile", "operator1d", "norms", "counterexample", "invertibility", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span stack -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def adopt(self, parent):
        """Run a pool task as if inside `parent`, the submitter's span."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Record one span; `counts` may be extended by the caller."""
        stack = self._stack()
        sid = next(self._ids)
        rec = {"id": sid, "name": name, "parent": stack[-1] if stack else None,
               "thread": threading.get_ident(), "run": self.run_id,
               "counts": counts}
        stack.append(sid)
        rec["cpu_start"] = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_end"] = time.process_time()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name, fn, counts_of=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = counts_of(*args, **kwargs) if counts_of else {}
            with self.span(name, **counts) as c:
                out = fn(*args, **kwargs)
                if after:
                    c.update(after(out))
                return out
        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        import segkernel
        from segkernel.norms import Projector
        from segkernel.operator1d import DiscreteOperator

        modules = [segkernel] + [importlib.import_module(f"segkernel.{n}") for n in LAYERS]
        restore = []

        def rebind(owner, attr, new):
            restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for attr, fn in sorted(vars(segkernel).items()):
            if not (inspect.isfunction(fn) and fn.__module__.startswith("segkernel.")):
                continue
            name = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
            counts_of, after = SPECIAL_COUNTS.get(name, (None, None))
            new = self._wrap(name, fn, counts_of, after)
            for mod in modules:
                if mod.__dict__.get(attr) is fn:
                    rebind(mod, attr, new)

        tracer = self
        factorization = DiscreteOperator.factorization

        @functools.wraps(factorization)
        def traced_factorization(op):
            if op.smallest_pivot is not None:     # cached: no work to record
                return factorization(op)
            with tracer.span("operator1d.factorization", m=op.n_unknowns):
                return factorization(op)

        rebind(DiscreteOperator, "factorization", traced_factorization)
        rebind(DiscreteOperator, "solve_interior", self._wrap(
            "operator1d.solve_interior", DiscreteOperator.solve_interior,
            lambda op, rhs: {"m": op.n_unknowns,
                             "cols": 1 if rhs.ndim == 1 else int(rhs.shape[1])}))
        rebind(DiscreteOperator, "apply", self._wrap(
            "operator1d.apply", DiscreteOperator.apply,
            lambda op, u: {"m": 2 * (u.grid.N - 2)}))
        rebind(Projector, "__init__", self._wrap(
            "norms.Projector", Projector.__init__,
            lambda proj, elements, grid, ctx: {"k": len(elements)}))

        base_pool = concurrent.futures.ThreadPoolExecutor

        class TracedPool(base_pool):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    with tracer.adopt(parent):
                        return fn(*a, **k)
                return super().submit(task, *args, **kwargs)

        rebind(concurrent.futures, "ThreadPoolExecutor", TracedPool)
        try:
            yield self
        finally:
            for owner, attr, old in reversed(restore):
                setattr(owner, attr, old)


def _operator_counts(op, ctx=None, orth_elements=None, *args, **kwargs):
    return {"m": op.n_unknowns, "orth": len(orth_elements or ())}


# span name -> (counts from the arguments, counts from the result)
SPECIAL_COUNTS = {
    "invertibility.inv_constant_exact": (_operator_counts, None),
    "invertibility.inv_constant_estimate": (_operator_counts, None),
    "invertibility.smallest_eigenvalue": (lambda op, *a, **k: {"m": op.n_unknowns}, None),
    "invertibility.run_sweep_entry": (None, lambda rec: {"error": int(bool(rec.error))}),
    "operator1d.assemble": (None, lambda op: {"m": op.n_unknowns}),
}


# -- reduction to per-layer metrics ----------------------------------------

def _union(intervals) -> float:
    """Length of the union of [start, end] intervals."""
    total, reach = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span), so overlapping pool-thread children are not
    subtracted twice and self time never goes negative."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], ())]
        covered = _union([(a, b) for a, b in kids if b > a])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans, plan_window, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced plan.

    `*_s` is the wall time during which at least one span of that kind was
    open (union of intervals); `*_self_s` sums each span's self time;
    `*_cpu_util` is process CPU time over wall time inside those spans.
    """
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def pick(name, pred=None):
        return [s for s in spans if s["name"] == name and (pred is None or pred(s))]

    def union_s(sel):
        return _union([(s["start"], s["end"]) for s in sel])

    def self_s(sel):
        return float(sum(selfs[s["id"]] for s in sel))

    def cpu_util(sel):
        wall = sum(s["end"] - s["start"] for s in sel)
        cpu = sum(s["cpu_end"] - s["cpu_start"] for s in sel)
        return cpu / wall if wall > 0 else 0.0

    def inside(s, name):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == name:
                return True
        return False

    exact = "invertibility.inv_constant_exact"
    k_plain = pick(exact, lambda s: s["counts"]["orth"] == 0)
    k_orth = pick(exact, lambda s: s["counts"]["orth"] > 0)
    solves = pick("operator1d.solve_interior")
    exact_cols = sum(s["counts"]["cols"] for s in solves if inside(s, exact))
    exact_m = sum(s["counts"]["m"] for s in k_plain + k_orth)
    lam = pick("invertibility.smallest_eigenvalue")
    entries = pick("invertibility.run_sweep_entry")
    factors = pick("operator1d.factorization")
    residuals = pick("counterexample.counterexample_residual")
    loads = pick("profile.load_profile")

    start, end = plan_window
    top = [s for s in spans if s["parent"] is None and s["start"] >= start and s["end"] <= end]
    traced_wall = end - start

    def cli(cmd):
        return union_s(pick(f"cli.{cmd}"))

    return {
        "invertibility.K_plain_s": union_s(k_plain),
        "invertibility.K_plain_self_s": self_s(k_plain),
        "invertibility.K_plain_cpu_util": cpu_util(k_plain),
        "operator1d.solve_calls": len(solves),
        "operator1d.solve_columns": sum(s["counts"]["cols"] for s in solves),
        "operator1d.solve_s": union_s(solves),
        "invertibility.solve_columns_per_unknown": exact_cols / exact_m if exact_m else 0.0,
        "invertibility.K_orth_s": union_s(k_orth),
        "invertibility.K_orth_self_s": self_s(k_orth),
        "norms.projector_s": union_s(pick("norms.Projector")),
        "norms.kernel_basis_s": union_s(pick("norms.kernel_basis")),
        "invertibility.lambda_min_s": union_s(lam),
        "invertibility.lambda_min_calls": len(lam),
        "invertibility.lambda_min_cpu_util": cpu_util(lam),
        "invertibility.K_estimate_s": union_s(pick("invertibility.inv_constant_estimate")),
        "invertibility.sweep_entry_s": union_s(entries),
        "invertibility.sweep_entries": len(entries),
        "invertibility.sweep_errors": sum(s["counts"]["error"] for s in entries),
        "operator1d.assemble_s": union_s(pick("operator1d.assemble")),
        "operator1d.factor_s": union_s(factors),
        "operator1d.factor_calls": len(factors),
        "operator1d.apply_s": union_s(pick("operator1d.apply")),
        "counterexample.residual_s": union_s(residuals),
        "counterexample.residual_calls": len(residuals),
        "counterexample.lower_bound_s": union_s(
            pick("counterexample.lower_bound_from_counterexample")),
        "profile.solve_s": union_s(pick("profile.solve_profile")),
        "profile.save_s": union_s(pick("profile.save_profile")),
        "profile.load_s": union_s(loads),
        "profile.load_calls": len(loads),
        "cli.profile_s": cli("profile"),
        "cli.eig_s": cli("eig"),
        "cli.counterexample_s": cli("counterexample"),
        "cli.solve_s": cli("solve"),
        "cli.sweep_s": union_s([s for s in spans if s["name"].startswith("cli.sweep")]),
        "cli.csv_bytes": sum(s["counts"].get("csv_bytes", 0) for s in spans
                             if s["name"].startswith("cli.")),
        "trace_overhead_s": traced_wall - untraced_wall,
        "trace_unaccounted_s": traced_wall - union_s(top),
    }
