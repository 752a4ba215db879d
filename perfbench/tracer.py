"""Outside-in tracing of the kamzero package.

The package imports its hot functions by name (``from .series import
poisson_bracket``), so patching one module attribute would miss most calls.
``rebind`` therefore replaces a function object in every ``kamzero`` module
namespace that holds it, and ``Tracer.install`` checks with the garbage
collector that no other reference to an original function is left behind.

Each traced call becomes a span (name, parent span, problem id, start,
duration).  Time the tracer spends on its own bookkeeping and on the sizing
counts is accumulated in ``overhead`` and subtracted from every enclosing
span, so the counts do not inflate any layer's self time.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from collections import Counter, defaultdict
from types import CellType

clock = time.perf_counter


def _package_namespaces():
    return [vars(mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "kamzero" or name.startswith("kamzero."))]


def rebind(old, new):
    """Replace ``old`` by ``new`` wherever a kamzero module binds it by name."""
    hits = 0
    for ns in _package_namespaces():
        for attr, value in list(ns.items()):
            if value is old:
                ns[attr] = new
                hits += 1
    if hits == 0:
        raise RuntimeError("%r is not bound in any kamzero module" % (old,))


class hook:
    """Context manager calling ``on_return(seconds, args, result)`` after each
    call of ``module.name``, wherever the package binds that function."""

    def __init__(self, module, name, on_return):
        self.original = getattr(module, name)
        self.on_return = on_return

        def hooked(*args, **kwargs):
            t0 = clock()
            result = self.original(*args, **kwargs)
            self.on_return(clock() - t0, args, result)
            return result

        self.hooked = hooked

    def __enter__(self):
        rebind(self.original, self.hooked)
        return self

    def __exit__(self, *exc):
        rebind(self.hooked, self.original)


# ---------------------------------------------------------------------------
# sizing counts, evaluated outside the spans
# ---------------------------------------------------------------------------

def _occupancy(series):
    """Nonzero counts per bracket column: k_b, alpha_b, beta_m, gamma_m."""
    n = series.dims.n
    kx = [0] * n
    ay = [0] * n
    zb = Counter()
    zg = Counter()
    for key in series.terms:
        for b in range(n):
            if key.k[b]:
                kx[b] += 1
            if key.alpha[b]:
                ay[b] += 1
        for m, _ in key.beta:
            zb[m] += 1
        for m, _ in key.gamma:
            zg[m] += 1
    return kx, ay, zb, zg


def rows_generated(F, G):
    """Product rows ``poisson_bracket(F, G)`` emits before any truncation.

    Sum over conjugate pairs of the products of the operands' nonzero-column
    counts, mirroring the kernel's derivative selection.  Empty operands and
    identical operands return early in the kernel and generate nothing.
    """
    if not F.terms or not G.terms or F.terms == G.terms:
        return 0
    fk, fa, fb, fg = _occupancy(F)
    gk, ga, gb, gg = _occupancy(G)
    rows = sum(fk[b] * ga[b] + fa[b] * gk[b] for b in range(F.dims.n))
    for m in F.dims.modes:
        rows += fb[m] * gg[m] + fg[m] * gb[m]
    return rows


def _size_bracket(counts, args, result):
    F, G = args[0], args[1]
    counts["terms_in"] += len(F) + len(G)
    counts["terms_out"] += len(result)
    counts["rows_generated"] += rows_generated(F, G)
    counts["precut_mass"] += result.meta.get("pruned_mass", 0.0)


def _size_norm(counts, args, result):
    counts["terms_in"] += len(args[0])


def _size_prune(counts, args, result):
    counts["mass"] += result


def _size_solve(counts, args, result):
    counts["solves"] += sum(result[2].solve_counts.values())


def _size_check(counts, args, result):
    counts["violations"] += len(result)


def _written_bytes(jpath, sidecar_suffix):
    size = os.path.getsize(jpath)
    sidecar = jpath[:-len(".json")] + sidecar_suffix
    if os.path.exists(sidecar):
        size += os.path.getsize(sidecar)
    return size


def _size_emit(counts, args, result):
    counts["bytes"] += _written_bytes(result[1], "_trace.csv")


def _size_emit_measure(counts, args, result):
    counts["bytes"] += _written_bytes(result[1], ".csv")


# (module, attribute, span name, sizing function); "TFSeries.x" patches the class
TARGETS = (
    ("cli", "cmd_run", "cli.cmd_run", None),
    ("cli", "cmd_measure", "cli.cmd_measure", None),
    ("config", "parse_config", "config.parse_config", None),
    ("series", "poisson_bracket", "series.poisson_bracket", _size_bracket),
    ("series", "vector_field_norm", "series.vector_field_norm", _size_norm),
    ("series", "TFSeries.__add__", "series.add", None),
    ("series", "TFSeries.prune", "series.prune", _size_prune),
    ("series", "split_low_high", "series.split_low_high", None),
    ("series", "fourier_truncate", "series.fourier_truncate", None),
    ("series", "lie_transform", "series.lie_transform", None),
    ("homological", "solve_homological", "homological.solve_homological", _size_solve),
    ("homological", "check_nonresonance", "homological.check_nonresonance", _size_check),
    ("homological", "hom_residual", "homological.hom_residual", None),
    ("matrixkit", "solve_dense", "matrixkit.solve_dense", None),
    ("matrixkit", "det_modulus", "matrixkit.det_modulus", None),
    ("matrixkit", "op_norm", "matrixkit.op_norm", None),
    ("driver", "run", "driver.run", None),
    ("driver", "kam_step", "driver.kam_step", None),
    ("driver", "no_torus_witness", "driver.no_torus_witness", None),
    ("driver", "make_synthetic_problem", "driver.make_synthetic_problem", None),
    ("measure", "estimate_excluded", "measure.estimate_excluded", None),
    ("measure", "lipschitz_quotients", "measure.lipschitz_quotients", None),
    ("nls", "build_nls", "nls.build_nls", None),
    ("nls", "birkhoff_transform", "nls.birkhoff_transform", None),
    ("nls", "to_kam_form", "nls.to_kam_form", None),
    ("reporting", "emit_report", "reporting.emit_report", _size_emit),
    ("reporting", "emit_measure_report", "reporting.emit_measure_report", _size_emit_measure),
)


class Tracer:
    """Spans and counts for every call into the functions in ``TARGETS``."""

    def __init__(self):
        self.names = []
        self.spans = []          # (name index, parent span, problem, start, duration)
        self.stack = []
        self.counts = defaultdict(Counter)
        self.overhead = 0.0
        self.problem = 0
        self.origin = clock()
        self._wrappers = []

    def _wrap(self, name, fn, sizer):
        idx = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self.stack
        counts = self.counts[name]

        def traced(*args, **kwargs):
            t0 = clock()
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            before = self.overhead
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                spans[span] = (idx, parent, self.problem, t1 - self.origin,
                               (t2 - t1) - (self.overhead - before))
            if sizer is not None:
                sizer(counts, args, result)
            self.overhead += (t1 - t0) + (clock() - t2)
            return result

        self._wrappers.append(traced)
        return traced

    def install(self, package):
        originals = []
        for modname, attr, name, sizer in TARGETS:
            module = getattr(package, modname)
            if attr.startswith("TFSeries."):
                cls = module.TFSeries
                meth = attr.split(".", 1)[1]
                fn = vars(cls)[meth]
                setattr(cls, meth, self._wrap(name, fn, sizer))
            else:
                fn = getattr(module, attr)
                rebind(fn, self._wrap(name, fn, sizer))
            originals.append(fn)
        self._check_unreachable(originals)

    def _check_unreachable(self, originals):
        """Fail if a module dict, class dict or closure other than our
        wrappers still holds an original: that would be a call path the
        tracer misses."""
        ours = {id(cell) for w in self._wrappers for cell in w.__closure__}
        for fn in originals:
            for ref in gc.get_referrers(fn):
                if id(ref) not in ours and isinstance(ref, (dict, type, CellType)):
                    raise RuntimeError("%s is still reachable untraced through %s"
                                       % (fn.__qualname__, type(ref).__name__))

    # -- results ----------------------------------------------------------

    def layer_stats(self):
        """Per span name: calls, self seconds and longest single call."""
        stats = {name: {"calls": 0, "self_s": 0.0, "max_call_s": 0.0} for name in self.names}
        for idx, parent, _, _, dur in self.spans:
            st = stats[self.names[idx]]
            st["calls"] += 1
            st["self_s"] += dur
            st["max_call_s"] = max(st["max_call_s"], dur)
            if parent >= 0:
                stats[self.names[self.spans[parent][0]]]["self_s"] -= dur
        for name, cnt in self.counts.items():
            stats[name].update(cnt)
        return stats

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,parent,problem,start_s,duration_s\n")
            for i, (idx, parent, problem, start, dur) in enumerate(self.spans):
                fh.write("%d,%s,%d,%d,%.9f,%.9f\n"
                         % (i, self.names[idx], parent, problem, start, dur))
