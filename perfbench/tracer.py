"""Span tracing of nnlslab from outside the package.

``Tracer.install()`` replaces every public function of the traced modules,
in every ``nnlslab`` module that binds it, by a wrapper that records one span
per call: name, start, end and the index of the enclosing span.  The
package's own code is not modified; only module attributes are swapped, and
``uninstall()`` puts every original object back.  Validation in
``SpectralField.__post_init__`` is traced as the span ``grid.SpectralField``
and scipy's ``cumulative_simpson``, as bound in ``evolve``, as
``evolve.cumulative_simpson``.

Entry calls into ``numpy.fft`` and ``scipy.fft`` are counted, not spanned,
with their transform lengths and the bytes they read and write as computed
from array sizes (no hardware counter is read).

Spans stay in memory until ``write_spans`` is called.
"""

from __future__ import annotations

import collections
import inspect
import sys
from time import perf_counter

LAYERS = ("grid", "equations", "gauge", "spaces", "evolve", "experiments", "cli")
FFT_ENTRIES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
               "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nnlslab" or name.startswith("nnlslab."))]


def _traced_functions():
    """Map of span name -> function for every public function of LAYERS."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules["nnlslab." + layer]
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == mod.__name__:
                out["%s.%s" % (layer, name)] = fn
    out["evolve.cumulative_simpson"] = sys.modules["nnlslab.evolve"].cumulative_simpson
    return out


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # (name, parent index, start, end, outermost of its name)
        self.counts = collections.Counter()
        self._stack = []
        self._active = collections.Counter()
        self._fft_depth = 0
        self._saved = []  # (namespace, attribute, original object)
        self._hooks = {
            "grid.dealiased_product": self._count_factors,
            "equations.nonlinear_term": self._count_kind,
            "evolve.picard_solve": self._count_picard,
            "cli.write_timeseries": self._count_rows,
        }

    # -- hooks that turn arguments and results into counters ----------------

    def _count_factors(self, args, kwargs, result):
        fields = args[0] if args else kwargs["fields"]
        self.counts["grid.dealiased_product.factors"] += len(fields)

    def _count_kind(self, args, kwargs, result):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        self.counts["equations.nonlinear_term.%s.calls" % spec.kind] += 1

    def _count_picard(self, args, kwargs, result):
        report = result[1]
        self.counts["evolve.picard_solve.iterations"] += len(report.iterates_distances)
        self.counts["evolve.picard_solve.converged"] += int(report.converged)

    def _count_rows(self, args, kwargs, result):
        traj = args[1] if len(args) > 1 else kwargs["traj"]
        self.counts["cli.write_timeseries.rows"] += len(traj.times)

    # -- wrappers --------------------------------------------------------------

    def span(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        spans, stack, active = self.spans, self._stack, self._active
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = active[name] == 0
            active[name] += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                spans[idx] = (name, parent, t0, t1, outer)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _fft_counter(self, fn):
        import numpy as np

        counts = self.counts

        def counted(a, *args, **kwargs):
            self._fft_depth += 1
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self._fft_depth -= 1
            if self._fft_depth == 0:
                a = np.asarray(a)
                counts["grid.fft.calls"] += 1
                # transform length times batch: the real side of a real
                # transform, either side of a complex one
                counts["grid.fft.points"] += max(a.size, out.size)
                counts["grid.fft.bytes_computed"] += a.nbytes + out.nbytes
            return out

        counted.__wrapped__ = fn
        return counted

    def _swap(self, namespace, attr, new):
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self):
        """Wrap every traced binding; the package must already be imported."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        import numpy.fft
        import scipy.fft

        try:
            wrappers = {}
            for name, fn in _traced_functions().items():
                wrappers[id(fn)] = (fn, self.span(name, fn))
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._swap(mod, attr, hit[1])
            field_cls = sys.modules["nnlslab.grid"].SpectralField
            self._swap(field_cls, "__post_init__",
                       self.span("grid.SpectralField", field_cls.__post_init__))
            for fft_mod in (numpy.fft, scipy.fft):
                for attr in FFT_ENTRIES:
                    self._swap(fft_mod, attr, self._fft_counter(getattr(fft_mod, attr)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Restore every binding that ``install`` replaced, newest first."""
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def summary(self):
        """Per span name: calls, self seconds and outermost-inclusive seconds.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the durations of
        the root spans.
        """
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = collections.defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for i, (name, _, t0, t1, outer) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[i]
            if outer:
                row["total_s"] += t1 - t0
        return dict(out)

    def write_spans(self, path):
        """Write spans as CSV: index, name, parent, start and end in seconds."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for i, (name, parent, t0, t1, _) in enumerate(self.spans):
                fh.write("%d,%s,%d,%.9f,%.9f\n" % (i, name, parent, t0 - base, t1 - base))
