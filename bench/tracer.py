"""Per-layer tracing of thermalops from outside the package.

Every public function of every layer module is wrapped, and the wrapper is
bound in place of the original in every ``thermalops`` namespace that holds
it: ``from .maps import build_map`` copies the reference into ``otto``, so
patching ``maps`` alone would miss the calls made from ``otto``.  A wrapper
records one span (function, start, end, parent span, request id) per call
into flat arrays, so a traced run of a few hundred thousand calls stays a
few megabytes.  Self times are derived after the run: a span's duration
minus the durations of its direct children.  The program is single-threaded,
so children never overlap.

A few counts are taken from return values at the same boundaries:
non-finite ``fcs`` results, ``OptimumRecord`` evaluation counts and
convergence flags, the dense dimension of each microscopic map, and the
check records of ``verify``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from dataclasses import fields, is_dataclass

import numpy as np

LAYERS = ("cli", "optimize", "otto", "three_stroke", "maps", "fcs", "microscopic", "verify")

# Name of the root span each request runs under; it belongs to no layer.
REQUEST = "request"


def public_functions(module) -> dict[str, object]:
    """Module-level public functions defined in ``module`` itself."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _nonfinite(value) -> bool:
    if isinstance(value, (float, np.floating)):
        return not math.isfinite(value)
    if isinstance(value, tuple):
        return any(_nonfinite(v) for v in value)
    if is_dataclass(value) and not isinstance(value, type):
        return any(
            isinstance(v, (float, np.floating)) and not math.isfinite(v)
            for v in (getattr(value, f.name) for f in fields(value))
        )
    return False


class Tracer:
    """Installs span-recording wrappers; use as a context manager.

    Spans are recorded only between ``begin_request`` and ``end_request``,
    so benchmark code that calls thermalops (output checks) stays untraced
    even while the wrappers are installed.
    """

    def __init__(self):
        self.names: list[str] = [REQUEST]
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._request = -1
        self._patched: list[tuple[object, str, object]] = []
        self.nonfinite_fcs = 0
        self.optimum_evaluations: list[int] = []
        self.optimum_converged: list[bool] = []
        self.dense_dims: list[int] = []
        self.verify_checks = 0
        self.verify_checks_failed = 0

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        import thermalops  # noqa: F401  (loads every layer module)

        hooks = self._hooks()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"thermalops.{layer}"]
            for name, fn in public_functions(module).items():
                full = f"{layer}.{name}"
                wrappers[id(fn)] = (fn, self._wrap(full, fn, hooks.get(full)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "thermalops" and not mod_name.startswith("thermalops."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn, on_return):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request < 0:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self._stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_request.append(self._request)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    # -- counts taken at layer boundaries --------------------------------

    def _hooks(self) -> dict:
        def fcs_result(args, result):
            if _nonfinite(result):
                self.nonfinite_fcs += 1

        def optimum(args, result):
            self.optimum_evaluations.append(result.evaluations)
            self.optimum_converged.append(result.converged)

        def dense_dim(args, result):
            self.dense_dims.append(int(np.shape(args[0])[0]))

        def checks(args, result):
            self.verify_checks += len(result)
            self.verify_checks_failed += sum(not r.passed for r in result)

        hooks = {
            f"fcs.{name}": fcs_result
            for name in ("cumulant_gf", "work_moments", "scaled_cumulants", "intercycle_pcc")
        }
        hooks["optimize.maximize_work"] = optimum
        hooks["microscopic.induced_population_map"] = dense_dim
        hooks["verify.run_suites"] = checks
        return hooks

    # -- request boundaries ----------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self._request = request_id
        self._open(0)

    def end_request(self) -> None:
        idx = self._stack.pop()
        self.span_end[idx] = time.perf_counter()
        self._request = -1

    # -- analysis --------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.span_request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def self_times(self) -> dict[str, np.ndarray]:
        """Per span: duration, self time (duration minus direct children)."""
        s = self.spans()
        duration = s["end"] - s["start"]
        child = np.zeros_like(duration)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], duration[has_parent])
        return {"name": s["name"], "duration": duration, "self": duration - child}

    def summary(self) -> dict[str, float]:
        """Calls and self time (seconds) per function and per layer."""
        t = self.self_times()
        calls = np.bincount(t["name"], minlength=len(self.names))
        self_s = np.bincount(t["name"], weights=t["self"], minlength=len(self.names))
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                out[f"{layer}.self_s"] += float(self_s[i])
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())
