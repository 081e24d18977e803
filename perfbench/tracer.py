"""Layer tracing from outside the library.

`Tracer.install()` wraps every public module-level function of the traced
bszego modules and rebinds the wrapper wherever the original is reachable:
in its own module, in every bszego module that copied it with
``from .x import y``, and in module-level dicts such as ``suites.SUITES``
(whose private suite functions are wrapped as ``suites.<suite_id>``).

Each wrapped call records a span (name, start, end, parent span, cell id)
into flat arrays kept in memory; the arrays are written once, at the end.
Evaluators handed to the oracle are wrapped too, so evaluator calls and the
points they receive are counted where the oracle makes them.  A span's self
time is its duration minus the durations of its direct children.  Times are
converted by the clock passed to `layer_metrics` (the worker passes its
host-speed map, so they read in reference seconds).
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from array import array
from types import FunctionType

import numpy as np

MODULES = [
    "oracle", "weight_models", "poly_core", "szego_polys",
    "quadrature", "pick_measures", "trig_identities", "suites",
]
EVALUATOR = "oracle.evaluator"  # evaluator spans; their time is oracle.eval_s
_ORACLE_ENTRY = {"integrate", "improper_integral", "fourier_coeff"}


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_cell = array("i")
        self.top = -1            # index of the innermost open span
        self.cell = -1           # id of the op being run, set by the workload
        self.oracle_depth = 0
        self.suite = None        # suite id whose span is open
        self.eval_calls = 0
        self.eval_points = 0
        self.suite_eval_calls = {}
        self.rho_eval_points = 0
        self.suite_records = 0   # records returned by suite functions
        self.raised = {}         # span name -> calls that ended in an exception
        self.nonconvergence = 0  # distinct NoConvergence escaping an oracle call
        self._last_nc = None
        self._installed = []     # (namespace, key, original) for uninstall

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.top)
        self.span_cell.append(self.cell)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        self.top = i
        return i

    def _close(self, i, parent):
        self.span_end[i] = time.perf_counter()
        self.top = parent

    def _raised(self, name, exc):
        self.raised[name] = self.raised.get(name, 0) + 1
        if (name.startswith("oracle.") and type(exc).__name__ == "NoConvergence"
                and exc is not self._last_nc):  # nested oracle calls see it twice
            self._last_nc = exc
            self.nonconvergence += 1

    def _counting(self, evaluator):
        """Wrap an evaluator handed to the oracle; count calls and points."""
        nid = self._name_id(EVALUATOR)
        tr = self

        def counted(x, *args, **kwargs):
            tr.eval_calls += 1
            tr.eval_points += int(np.size(x))
            if tr.suite is not None:
                tr.suite_eval_calls[tr.suite] = tr.suite_eval_calls.get(tr.suite, 0) + 1
            parent = tr.top
            i = tr._open(nid)
            try:
                return evaluator(x, *args, **kwargs)
            finally:
                tr._close(i, parent)

        return counted

    def _wrap(self, fn, name, suite_id=None):
        nid = self._name_id(name)
        tr = self
        short = name.split(".", 1)[1]
        oracle_entry = name.startswith("oracle.") and short in _ORACLE_ENTRY
        rho = name == "weight_models.rho_eval"

        def wrapper(*args, **kwargs):
            if oracle_entry:
                if tr.oracle_depth == 0 and args:
                    first = args[0]
                    if short == "integrate":
                        first = dataclasses.replace(first, evaluator=tr._counting(first.evaluator))
                    else:
                        first = tr._counting(first)
                    args = (first,) + args[1:]
                tr.oracle_depth += 1
            elif rho and len(args) > 1:
                tr.rho_eval_points += int(np.size(args[1]))
            prev_suite = tr.suite
            if suite_id is not None:
                tr.suite = suite_id
            parent = tr.top
            i = tr._open(nid)
            try:
                result = fn(*args, **kwargs)
                if suite_id is not None:
                    tr.suite_records += len(result)
                return result
            except Exception as exc:
                tr._raised(name, exc)
                raise
            finally:
                tr._close(i, parent)
                tr.suite = prev_suite
                if oracle_entry:
                    tr.oracle_depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap and rebind; bszego and its submodules must be imported."""
        pkg = [m for k, m in sys.modules.items() if k == "bszego" or k.startswith("bszego.")]
        wrapped = {}
        for short in MODULES:
            mod = sys.modules[f"bszego.{short}"]
            for key, val in vars(mod).items():
                if (isinstance(val, FunctionType) and not key.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrapped[val] = self._wrap(val, f"{short}.{key}")
        suites = sys.modules["bszego.suites"]
        for sid, fn in suites.SUITES.items():
            wrapped[fn] = self._wrap(fn, f"suites.{sid}", suite_id=sid)
        for mod in pkg:
            namespaces = [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if isinstance(val, FunctionType) and val in wrapped:
                        self._installed.append((ns, key, val))
                        ns[key] = wrapped[val]

    def uninstall(self):
        for ns, key, val in reversed(self._installed):
            ns[key] = val
        self._installed.clear()

    # -----------------------------------------------------------------------

    def _self_times(self, clock):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        dur = clock(end) - clock(start)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return name, dur, dur - child

    def layer_metrics(self, clock=lambda t: t):
        """Per-layer metrics, named <module>.<metric>; suites.<id>.* for every suite.

        `clock` maps arrays of perf_counter readings to the unit of the times.
        """
        name, dur, self_t = self._self_times(clock)
        k = len(self.names)
        calls_by = np.bincount(name, minlength=k)
        self_by = np.bincount(name, weights=self_t, minlength=k)
        dur_by = np.bincount(name, weights=dur, minlength=k)
        module_of = [n.split(".", 1)[0] if n != EVALUATOR else "evaluator" for n in self.names]

        def mod_sum(arr, module):
            return float(sum(arr[i] for i in range(k) if module_of[i] == module))

        def by_name(arr, full):
            i = self._ids.get(full)
            return float(arr[i]) if i is not None else 0.0

        out = {}
        for module in MODULES:
            if module != "suites":
                out[f"{module}.calls"] = int(mod_sum(calls_by, module))
            out[f"{module}.self_s"] = mod_sum(self_by, module)
        out["oracle.eval_s"] = by_name(dur_by, EVALUATOR)
        out["oracle.eval_calls"] = self.eval_calls
        out["oracle.eval_points"] = self.eval_points
        out["oracle.points_per_call"] = self.eval_points / self.eval_calls if self.eval_calls else 0.0
        out["oracle.nonconvergence"] = self.nonconvergence
        out["weight_models.rho_eval_points"] = self.rho_eval_points
        out["weight_models.factor_failures"] = self.raised.get("weight_models.build_szego_factor", 0)
        out["poly_core.poly_roots_calls"] = int(by_name(calls_by, "poly_core.poly_roots"))
        suites = sys.modules["bszego.suites"]
        out["suites.cells"] = self.suite_records
        for sid in sorted(suites.SUITES):
            out[f"suites.{sid}.wall_s"] = by_name(dur_by, f"suites.{sid}")
            out[f"suites.{sid}.eval_calls"] = self.suite_eval_calls.get(sid, 0)
        return out

    def write(self, path):
        """Spans as columns in an .npz, span names in a JSON side file."""
        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            cell=np.frombuffer(self.span_cell, dtype=np.int32),
        )
        with open(str(path) + ".names.json", "w") as fh:
            json.dump(self.names, fh)
