"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/check_harness.py

The file name keeps these tests out of the repository's default test
collection: the last test runs real traced passes of every workload and
takes about a minute.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

import checks
import run
from spans import Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_children_on_nested_spans():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("runner.run_sweep", 1.0, 7.0, 0, 0),
        Span("engine.flat_sweep", 2.0, 6.0, 1, 0),
        Span("scene.flat_paths", 2.5, 4.0, 2, 0),
        Span("antenna.gain", 4.0, 5.0, 2, 0),
        Span("profile_io.export", 8.0, 9.5, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.5, 1.5, 1.0, 1.5])
    metrics = layer_metrics(spans, Counter())
    assert metrics["cli.self_s"] == pytest.approx(2.5)
    assert metrics["engine.self_s"] == pytest.approx(1.5)
    assert metrics["antenna.gain_calls"] == 1
    # Self times partition the root span: nothing counted twice or lost.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("b", 4.0, 6.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_counters():
    tracer = Tracer()

    def inner(x):
        return x * 2

    def outer(x):
        return tracer.call("inner", inner, x) + 1

    assert tracer.call("outer", outer, 3, counter=lambda a, k, r: {"seen": r}) == 7
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.counters["seen"] == 7


@pytest.mark.parametrize("n, rank, percentile", [
    (1, 1, 100.0),
    (10, 10, 100.0),   # fewer than 11 samples: the maximum
    (11, 1, 100.0 / 11),
    (20, 10, 50.0),
    (100, 90, 90.0),
    (1000, 990, 99.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, rank, percentile):
    samples = [float(v) for v in np.random.default_rng(n).permutation(np.arange(1, n + 1))]
    value, pct, count = run.tail(samples)
    assert value == float(rank)
    assert pct == pytest.approx(percentile)
    assert count == n
    if n >= 11:
        assert sum(s > value for s in samples) == 10


def test_reference_comparison_handles_inf_and_nan():
    ref = np.array([-50.0, -math.inf, -60.0, -math.inf])
    assert checks.compare_to_reference(ref.copy(), ref) == []
    assert checks.compare_to_reference(ref + np.array([1e-10, 0, -1e-10, 0]), ref) == []
    assert checks.compare_to_reference(ref + np.array([2e-9, 0, 0, 0]), ref)
    moved = ref.copy()
    moved[1], moved[2] = -70.0, -math.inf
    assert any("-inf" in p for p in checks.compare_to_reference(moved, ref))
    for bad in (math.nan, math.inf):
        corrupt = ref.copy()
        corrupt[1] = bad
        assert checks.compare_to_reference(corrupt, ref)
    nan_only = ref.copy()
    nan_only[0] = math.nan
    assert any("NaN" in p for p in checks.compare_to_reference(nan_only, ref))
    assert checks.compare_to_reference(ref[:3], ref)


def test_strict_json_rejects_non_finite_constants(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps({"a": 1.5, "b": [1, 2]}))
    assert checks.check_json_file(path)[0] == []
    path.write_text('{"a": -Infinity}')
    assert [kind for kind, _ in checks.check_json_file(path)[0]] == [checks.FLAGGED]
    path.write_text('{"a": NaN}')
    assert [kind for kind, _ in checks.check_json_file(path)[0]] == [checks.WRONG]


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER


REPEATED_COUNTS = (
    "scene.capture_calls",
    "antenna.gain_calls",
    "engine.rays",
    "engine.no_capture",
    "profile_io.bytes_written",
    "profile_io.rows_read",
)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly_across_two_runs(workload):
    sys.path.insert(0, str(run.ROOT / "src"))
    first, second = (run.measure(workload, seed=7, seconds=0, trace=True) for _ in range(2))
    for result in (first, second):
        assert result["checker"].wrong == 0
    assert {k: first["metrics"][k] for k in REPEATED_COUNTS} == \
        {k: second["metrics"][k] for k in REPEATED_COUNTS}
    if workload == "convex-bands":
        assert first["metrics"]["scene.capture_calls"] == 4 * 1800
        assert first["metrics"]["antenna.gain_calls"] == 2 * (4 * 1800 - first["metrics"]["engine.no_capture"])
        assert first["metrics"]["engine.no_capture"] == 447
    if workload == "flat-bands":
        assert first["metrics"]["profile_io.rows_read"] == 3 * run.MEASURED_POINTS
