"""Span recorder that wraps phasechain's public functions from outside.

`install()` replaces each public function listed in TARGETS on every
phasechain module that binds it (the defining module and every module that
imported the name), so calls are recorded whichever module looks them up. No
file under src/ is edited. Each span records its name, start, end, parent span
and the tracemalloc peak seen while it was open; `Recorder.summary()` folds the
spans into per-name self time, call count, peak and computed bytes.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _mode(args, kwargs):
    return "points" if kwargs.get("points") is not None else "grid"


def _nbytes(obj):
    return int(obj.data.nbytes)


# (module, function, variant(args, kwargs) or None, computed bytes(args, kwargs, result) or None)
TARGETS = (
    ("cli", "main", None, None),
    ("wigner", "wigner4", None, lambda a, k, r: _nbytes(_arg(a, k, 0, "psi")) + _nbytes(r)),
    ("wigner", "wigner3", None, None),
    ("wigner", "wigner24", None, None),
    ("fields", "partial_derivative", lambda a, k: _arg(a, k, 1, "axis"),
     lambda a, k, r: _nbytes(_arg(a, k, 0, "field")) + _nbytes(r)),
    ("fields", "integrate_axis", None, None),
    ("oscillator", "w1234_analytic", None, None),
    ("oscillator", "w123_analytic", None, None),
    ("oscillator", "w124_analytic", None, None),
    ("oscillator", "w12_analytic", None, None),
    ("oscillator", "gamma_form", None, None),
    ("moyal", "transport_lhs", _mode, None),
    ("moyal", "moyal_rhs", _mode, None),
    ("moyal", "moyal_residual", _mode, None),
    ("vlasov", "mean_flux_from_w4", lambda a, k: _arg(a, k, 1, "which"), None),
    ("vlasov", "accel_flux_124_from_w4", None, None),
    ("vlasov", "vlasov_residual", lambda a, k: f"{_arg(a, k, 0, 'kind')}.{_mode(a, k)}", None),
    ("vlasov", "dissipation_report", None, None),
    ("vlasov", "divergence_series_gap", None, None),
    ("fieldfile", "read_field", None,
     lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")) + _nbytes(r)),
    ("fieldfile", "write_field", None,
     lambda a, k, r: _nbytes(_arg(a, k, 0, "field")) + os.path.getsize(_arg(a, k, 1, "path"))),
    ("fieldfile", "export_csv", None, None),
    ("checks", "run_ho_suite", None, None),
    ("vonneumann", "von_neumann_residual", None, None),
    ("vonneumann", "density_matrix_at", None, None),
)


class Recorder:
    """In-memory span list; spans nest by call order within one thread."""

    def __init__(self):
        self.spans = []      # (id, parent id, name, start, end, peak bytes, computed bytes)
        self._stack = []     # open frames: [id, running peak of finished children]
        self.suite = None    # the SuiteReport returned by checks.run_ho_suite, if it ran

    def wrap(self, name, fn, variant=None, nbytes=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = name if variant is None else f"{name}.{variant(args, kwargs)}"
            # fold the peak reached so far into the parent before resetting the counter
            if self._stack:
                frame = self._stack[-1]
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append([span_id, 0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child_peak = self._stack.pop()
                peak = max(tracemalloc.get_traced_memory()[1], child_peak)
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], peak)
                self.spans[span_id] = (span_id, parent, full, start, end, peak, 0)
            if nbytes is not None:
                self.spans[span_id] = self.spans[span_id][:6] + (nbytes(args, kwargs, result),)
            if name == "checks.run_ho_suite":
                self.suite = result
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: self seconds, inclusive seconds, calls, peak bytes, computed bytes."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        for span_id, _, name, start, end, peak, nb in self.spans:
            s = stats.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "peak": 0, "bytes": 0})
            s["self_s"] += (end - start) - child_time[span_id]
            s["incl_s"] += end - start
            s["calls"] += 1
            s["peak"] = max(s["peak"], peak)
            s["bytes"] += nb
        return stats


def install(recorder: Recorder):
    """Wrap every TARGETS function on each phasechain module that binds it."""
    import phasechain
    import phasechain.cli  # noqa: F401  (the package does not import cli itself)
    from phasechain.fields import PointwiseField

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "phasechain" or n.startswith("phasechain."))]
    for mod_name, fn_name, variant, nbytes in TARGETS:
        original = getattr(sys.modules[f"phasechain.{mod_name}"], fn_name)
        wrapped = recorder.wrap(f"{mod_name}.{fn_name}", original, variant, nbytes)
        for mod in modules:
            if getattr(mod, fn_name, None) is original:
                setattr(mod, fn_name, wrapped)
    PointwiseField.derivative = recorder.wrap("fields.PointwiseField.derivative", PointwiseField.derivative)
    return phasechain
