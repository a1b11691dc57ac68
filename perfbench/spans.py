"""In-memory span tracer that wraps reflectsim's public functions from outside.

Nothing under ``src/`` is modified: each wrapper is patched onto the module
(or class) where the *caller* looks the name up, because ``engine``, ``cli``
and ``runner`` import their dependencies by name.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: int      # operation id; spans of one operation share it


def _rays_flat(_args, _kwargs, result) -> dict:
    return {"engine.rays": int(result[0].size)}


def _rays_convex(_args, _kwargs, result) -> dict:
    return {"engine.rays": 0 if result is None else int(result.distance_m.size)}


def _no_capture(_args, _kwargs, result) -> dict:
    return {"engine.no_capture": int(np.count_nonzero(np.isneginf(result)))}


def _capture_hit(_args, _kwargs, result) -> dict:
    return {"scene.capture_hits": int(result is not None)}


def _bytes_written(args, kwargs, _result) -> dict:
    path = kwargs["path"] if "path" in kwargs else args[2]
    return {"profile_io.bytes_written": os.path.getsize(path)}


def _rows_read(_args, _kwargs, result) -> dict:
    return {"profile_io.rows_read": len(result)}


# (module name, attribute owner, attribute, span name, counter).
# The owner is the module or class whose attribute the caller resolves.
TARGETS: tuple[tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("cli", None, "parse_config", "config.parse", None),
    ("config", "ScenarioConfig", "to_scenario", "config.to_scenario", None),
    ("cli", None, "run_sweep", "runner.run_sweep", None),
    ("runner", None, "sweep_profile", "runner.sweep_profile", None),
    ("runner", None, "flat_sweep_power", "engine.flat_sweep", _no_capture),
    ("runner", None, "convex_sweep_power", "engine.convex_sweep", _no_capture),
    ("engine", None, "convex_received_power", "engine.convex_point", None),
    ("engine", None, "facetize_flat", "scene.facetize", None),
    ("engine", None, "path_geometry_batch", "scene.flat_paths", _rays_flat),
    ("engine", None, "convex_ray_paths", "scene.convex_paths", _rays_convex),
    ("scene", None, "solve_convex_capture", "scene.capture", _capture_hit),
    ("scene", None, "offset_angles_deg", "scene.angles", None),
    ("antenna", "AntennaPattern", "gain", "antenna.gain", None),
    ("metrics", None, "analyze", "metrics.analyze", None),
    ("metrics", None, "compare", "metrics.compare", None),
    ("cli", None, "export_profile", "profile_io.export", _bytes_written),
    ("cli", None, "import_measured", "profile_io.import", _rows_read),
)

# Per-layer metric -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "config.s": ("config.parse", "config.to_scenario"),
    "scene.capture_s": ("scene.capture",),
    "scene.convex_paths_s": ("scene.convex_paths",),
    "scene.angles_s": ("scene.angles",),
    "scene.facetize_s": ("scene.facetize",),
    "scene.flat_paths_s": ("scene.flat_paths",),
    "antenna.gain_s": ("antenna.gain",),
    "engine.self_s": ("engine.flat_sweep", "engine.convex_sweep", "engine.convex_point"),
    "metrics.analyze_s": ("metrics.analyze",),
    "metrics.compare_s": ("metrics.compare",),
    "profile_io.export_s": ("profile_io.export",),
    "profile_io.import_s": ("profile_io.import",),
    "cli.self_s": ("cli.main",),
    "runner.self_s": ("runner.run_sweep", "runner.sweep_profile"),
}

# Per-layer metric -> span name whose calls it counts.
CALL_METRICS = {
    "scene.capture_calls": "scene.capture",
    "scene.angles_calls": "scene.angles",
    "antenna.gain_calls": "antenna.gain",
    "metrics.analyze_calls": "metrics.analyze",
}

COUNTER_METRICS = (
    "engine.rays",
    "engine.no_capture",
    "profile_io.bytes_written",
    "profile_io.rows_read",
)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counters: Counter = Counter()
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, counter: Optional[Callable] = None, **kwargs):
        """Run ``fn`` inside a span named ``name``; update counters from its result."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op)
        if counter is not None:
            self.counters.update(counter(args, kwargs, result))
        return result

    def _wrapper(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)

        return traced

    def install(self, package) -> None:
        """Patch every target that exists in ``package``; remember the rest."""
        self.missing = []
        for module_name, owner_name, attr, span_name, counter in TARGETS:
            owner = getattr(package, module_name, None)
            if owner is not None and owner_name is not None:
                owner = getattr(owner, owner_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(span_name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(spans: list[Span], counters: Counter) -> dict[str, float]:
    """Per-layer self times, call counts and counters of one traced pass."""
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    calls: Counter = Counter()
    for span, self_s in zip(spans, selfs):
        by_name[span.name] = by_name.get(span.name, 0.0) + self_s
        calls[span.name] += 1
    out: dict[str, float] = {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    out.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
    out.update({metric: counters[metric] for metric in COUNTER_METRICS})
    n_capture = calls["scene.capture"]
    out["scene.capture_hit_ratio"] = counters["scene.capture_hits"] / n_capture if n_capture else 0.0
    return out
