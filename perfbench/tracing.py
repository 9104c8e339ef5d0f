"""Outside-in tracing of spinboost's layer functions.

The program has no spans of its own, so the benchmark wraps each layer's
public functions from outside.  Most modules bind their collaborators
with ``from .x import f``, so a wrapper goes into every ``spinboost.*``
namespace that binds the original function object; methods are wrapped
on their class.  Each call records a span (pass, request, name, start,
end, parent) in memory; spans are aggregated and written out after the run.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from pathlib import Path

# Layer (module) -> public functions whose calls and self time are reported.
LAYER_FUNCTIONS = {
    "cli": ("cmd_scan", "cmd_check", "cmd_boost", "cmd_witness"),
    "kinematics": (
        "BoostScenario.from_angle",
        "default_geometry",
        "BoostScenario.rotation",
        "local_unitary",
    ),
    "boost": (
        "permutation_spin_ensemble",
        "SpinEnsemble.mix",
        "build_boost_unitary",
        "boost_pure",
        "composite_spin_ensemble",
        "boost_mixed",
    ),
    "states": ("compose", "read_state", "write_state", "CompositeState.spin_density"),
    "linalg": ("kron", "partial_trace", "hermitian_eigen", "is_density_matrix"),
    "measures": ("ghz_witness", "m_concurrence_pure", "three_tangle"),
    "classcheck": (
        "check_condition1",
        "verify_certificate",
        "random_local_unitary",
        "sample_biseparable",
        "haar_state",
    ),
}


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    for layer in LAYER_FUNCTIONS:
        units[f"{layer}.self_share"] = "share"
    units["linalg.kron.bytes_out"] = "bytes_computed"
    units["linalg.jacobi_sweeps.sweeps"] = "count"
    units["kinematics.default_geometry.calls_per_geometry"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "share"
    return units


def _spinboost_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "spinboost" or name.startswith("spinboost."))
    ]


class Tracer:
    """Span recorder for traced passes: install() before each, restore() after."""

    def __init__(self):
        self.names = [
            f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns
        ]
        # (pass, request, name index, start, end, parent span index or -1)
        self.spans: list[tuple | None] = []
        self.passes = 0
        self.request = -1
        self.kron_bytes = 0
        self.jacobi_sweeps = 0
        self.geometry_calls = 0
        self._geometries: set = set()
        self.distinct_geometries = 0
        self._stack: list[int] = []
        self._undo: list = []
        self.missing: list[str] = []

    def start_request(self, index: int) -> None:
        """Called before request `index` of a pass; index 0 starts a pass."""
        if index == 0:
            self.passes += 1
        self.request = index
        self._geometries = set()

    # --- wrappers ---------------------------------------------------------

    def _span(self, name_idx: int, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.passes, self.request, name_idx, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_kron(self, args, kwargs, result):
        self.kron_bytes += result.nbytes

    def _observe_geometry(self, args, kwargs, result):
        self.geometry_calls += 1
        key = (args, tuple(sorted(kwargs.items())))
        if key not in self._geometries:
            self._geometries.add(key)
            self.distinct_geometries += 1

    def _count_sweeps(self, fn):
        # The Jacobi kernel runs inside hermitian_eigen; it is counted, not
        # spanned, so hermitian_eigen keeps the solver in its self time.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sweeps = fn(*args, **kwargs)
            self.jacobi_sweeps += max(int(sweeps), 0)
            return sweeps

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for mod in _spinboost_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def install(self) -> None:
        observers = {
            "linalg.kron": self._observe_kron,
            "kinematics.default_geometry": self._observe_geometry,
        }
        self.missing = []
        for idx, name in enumerate(self.names):
            layer, qual = name.split(".", 1)
            module = sys.modules.get(f"spinboost.{layer}")
            cls_name, _, attr = qual.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(attr) if cls is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._span(idx, raw.__func__))
                else:
                    new = self._span(idx, raw)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
            else:
                fn = getattr(module, qual, None)
                if not callable(fn):
                    self.missing.append(name)
                    continue
                self._rebind(fn, self._span(idx, fn, observers.get(name)))
        kernel = getattr(sys.modules.get("spinboost.linalg"), "jacobi_sweeps", None)
        if callable(kernel):
            self._rebind(kernel, self._count_sweeps(kernel))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # --- results ----------------------------------------------------------

    def aggregate(self):
        """Per pass: per-name (calls, total_s, self_s), plus the summed
        duration of root spans.  Every traced pass runs the same requests,
        so the call counts divide exactly."""
        child = [0.0] * len(self.spans)
        for *_, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        n = len(self.names)
        calls, total, self_s = [0] * n, [0.0] * n, [0.0] * n
        root_s = 0.0
        for i, (_, _, name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            if parent < 0:
                root_s += dur
        k = max(self.passes, 1)
        return (
            [c // k for c in calls],
            [t / k for t in total],
            [t / k for t in self_s],
            root_s / k,
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics for one pass (the mean over traced passes)."""
        calls, _, self_s, root_s = self.aggregate()
        k = max(self.passes, 1)
        out: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s[i]
        for layer, value in layer_self.items():
            out[f"{layer}.self_share"] = value / root_s if root_s > 0 else 0.0
        out["linalg.kron.bytes_out"] = self.kron_bytes // k
        out["linalg.jacobi_sweeps.sweeps"] = self.jacobi_sweeps // k
        out["kinematics.default_geometry.calls_per_geometry"] = (
            self.geometry_calls / self.distinct_geometries
            if self.distinct_geometries
            else 0.0
        )
        return out

    def write_spans(self, path: Path) -> None:
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["pass", "request", "span", "parent", "name", "start_s", "end_s"]
            )
            for i, (pas, req, name, start, end, parent) in enumerate(self.spans):
                writer.writerow(
                    [pas, req, i, parent, self.names[name],
                     f"{start - origin:.9f}", f"{end - origin:.9f}"]
                )
