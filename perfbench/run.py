"""reflectsim benchmark: received-power sweeps driven through the public CLI.

    python3 perfbench/run.py --workload flat-bands --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout. One process, one client, closed
loop: each operation is a ``reflectsim.cli.main([...])`` call made in-process
after the previous one returned. A pass runs the workload's fixed list of
operations once; passes repeat for ``--seconds`` (at least two, so every
output is also checked for a byte-identical rerun). Every operation's output
is checked (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object; the lines
before it are a readable table and the machine record. The full record,
spans included, is written under ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import scipy

import checks
from spans import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference" / "profiles.npz"
WORKLOADS = ("flat-bands", "convex-bands")
BANDS = ("28", "39", "120")
SETUP_REPEATS = 5
MIN_PASSES = 2
# Synthetic "measured" sweeps: denser than the 1800-point simulation,
# off its grid, with a seeded constant offset and Gaussian noise.
MEASURED_POINTS = 2400
MEASURED_NOISE_DB = 0.5
MEASURED_OFFSET_DB = 6.0

# Metric -> (unit, better[, bound]); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pass_s.p50": ("s", "lower", 0.25),
    "pass_s.tail": ("s", "lower", 0.25),
    "positions_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ok_frac": ("fraction", "higher", 0.05),
}
PER_LAYER = {
    "config.s": ("s", "lower"),
    "scene.capture_s": ("s", "lower"),
    "scene.capture_calls": ("count", "lower"),
    "scene.capture_hit_ratio": ("ratio", "higher"),
    "scene.convex_paths_s": ("s", "lower"),
    "scene.angles_s": ("s", "lower"),
    "scene.angles_calls": ("count", "lower"),
    "scene.facetize_s": ("s", "lower"),
    "scene.flat_paths_s": ("s", "lower"),
    "antenna.gain_s": ("s", "lower"),
    "antenna.gain_calls": ("count", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.rays": ("count", "lower"),
    "engine.no_capture": ("count", "lower"),
    "metrics.analyze_s": ("s", "lower"),
    "metrics.analyze_calls": ("count", "lower"),
    "metrics.compare_s": ("s", "lower"),
    "profile_io.export_s": ("s", "lower"),
    "profile_io.bytes_written": ("bytes", "lower"),
    "profile_io.import_s": ("s", "lower"),
    "profile_io.rows_read": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
UNITS = {name: spec[0] for name, spec in {**END_TO_END, **PER_LAYER}.items()}


class Op(NamedTuple):
    """One CLI invocation and what its output is checked against."""

    name: str
    argv: list
    out: Path                   # output directory (simulate) or report file (compare)
    reference: str              # key of the reference simulated profile
    measured: Optional[tuple]   # (positions, powers) of the measured CSV, compare only


def _flat_cfg(band: str) -> Path:
    return ROOT / "configs" / f"{band}ghz_flat.cfg"


def _write_measured(path: Path, rng: np.random.Generator, ref: np.ndarray) -> tuple:
    """Write a seeded measured CSV derived from a reference sweep."""
    pos_ref, pwr_ref = ref
    step = (pos_ref[-1] - pos_ref[0]) / (MEASURED_POINTS + 1)
    start = pos_ref[0] + rng.uniform(0.1, 0.9) * step
    positions = start + step * (np.arange(MEASURED_POINTS) + rng.uniform(-0.2, 0.2, MEASURED_POINTS))
    powers = (np.interp(positions, pos_ref, pwr_ref)
              + rng.uniform(-MEASURED_OFFSET_DB, MEASURED_OFFSET_DB)
              + rng.normal(0.0, MEASURED_NOISE_DB, MEASURED_POINTS))
    lines = ["position_m,power_db"] + [f"{p!r},{w!r}" for p, w in zip(positions.tolist(), powers.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return positions, powers


def simulate_ops(workload: str, workdir: Path) -> list[Op]:
    """The workload's ``simulate`` operations, in fixture order."""
    ops: list[Op] = []
    if workload == "flat-bands":
        for band in BANDS:
            for mode in ("physical", "literal"):
                name = f"flat-{band}ghz-{mode}"
                out = workdir / name
                ops.append(Op(name, ["simulate", "--config", str(_flat_cfg(band)), "--mode", mode,
                                     "--out", str(out)], out, name, None))
    elif workload == "convex-bands":
        offset_cfg = workdir / "28ghz_convex_offset5.cfg"
        offset_cfg.write_text((ROOT / "configs" / "28ghz_convex.cfg").read_text(encoding="utf-8")
                              + "geometry.sweep_offset = 5.0\n", encoding="utf-8")
        cfgs = {f"convex-{band}ghz-physical": ROOT / "configs" / f"{band}ghz_convex.cfg" for band in BANDS}
        cfgs["convex-28ghz-offset5"] = offset_cfg
        for name, cfg in cfgs.items():
            out = workdir / name
            ops.append(Op(name, ["simulate", "--config", str(cfg), "--out", str(out)], out, name, None))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def compare_ops(seed: int, workdir: Path, refs: dict) -> list[Op]:
    """``compare`` of each flat fixture against a seeded measured CSV it writes."""
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    for band in BANDS:
        name = f"compare-{band}ghz"
        ref_key = f"flat-{band}ghz-physical"
        csv = workdir / f"measured_{band}ghz.csv"
        measured = _write_measured(csv, rng, refs[ref_key])
        out = workdir / f"{name}.report.json"
        ops.append(Op(name, ["compare", "--config", str(_flat_cfg(band)), str(csv), "--out", str(out)],
                      out, ref_key, measured))
    return ops


def build_ops(workload: str, seed: int, workdir: Path, refs: dict) -> list[Op]:
    """The workload's operations in a seed-chosen order; writes generated inputs."""
    ops = simulate_ops(workload, workdir)
    if workload == "flat-bands":
        ops += compare_ops(seed, workdir, refs)
    random.Random(seed).shuffle(ops)
    return ops


def invoke(cli, argv: list, tracer: Optional[Tracer] = None) -> tuple[Optional[int], list[str]]:
    """One CLI call with its console output swallowed; returns exit code and problems."""
    sink = io.StringIO()
    problems: list[str] = []
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(sink), redirect_stderr(sink):
        warnings.simplefilter("always")
        try:
            rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation, not a dead run
            rc = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
    problems.extend(f"warning {w.category.__name__}: {w.message}" for w in caught)
    return rc, problems


class Checker:
    """Checks each operation's output and keeps the run's tallies."""

    def __init__(self, refs: dict) -> None:
        self.refs = refs
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: dict[str, set] = {}

    def _output_problems(self, op: Op) -> list[tuple[str, str]]:
        if op.measured is None:
            profiles = sorted(op.out.glob("*.csv"))
            stats = sorted(op.out.glob("*.stats.json"))
            if len(profiles) != 1 or len(stats) != 1:
                return [(checks.WRONG, f"expected one profile and one stats file in {op.out.name}")]
            files = [profiles[0], stats[0]]
            problems, _ = checks.check_json_file(stats[0])
            _, power = checks.read_profile_csv(profiles[0])
            problems += [(checks.WRONG, p) for p in checks.compare_to_reference(power, self.refs[op.reference][1])]
        else:
            if not op.out.is_file():
                return [(checks.WRONG, f"missing report {op.out.name}")]
            files = [op.out]
            problems, report = checks.check_json_file(op.out)
            sim_pos, sim_pwr = self.refs[op.reference]
            expected = checks.expected_report(sim_pos, sim_pwr, *op.measured)
            problems += [(checks.WRONG, p) for p in checks.compare_report(report, expected)]
        digest = checks.digest(*files)
        if self.digests.setdefault(op.name, digest) != digest:
            problems.append((checks.WRONG, "rerun output is not byte-identical"))
        return problems

    def record(self, op: Op, rc: Optional[int], call_problems: list[str]) -> None:
        self.attempted += 1
        problems = [(checks.FLAGGED, p) for p in call_problems]
        if rc != 0:
            problems.append((checks.WRONG, f"exit code {rc}"))
        else:
            problems += self._output_problems(op)
        if problems:
            self.failed += 1
            self.wrong += any(kind == checks.WRONG for kind, _ in problems)
            self.problems.setdefault(op.name, set()).update(msg for _, msg in problems)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten samples
    beyond it, or the maximum when there are fewer than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    rank = n - 10  # 1-based rank with exactly ten samples above it
    return ordered[rank - 1], 100.0 * rank / n, n


def setup_times(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of ``import reflectsim.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import reflectsim.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def machine_record(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var, "unset")
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def load_references() -> dict:
    with np.load(REFERENCE_FILE, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its metrics, tallies and record."""
    import reflectsim
    import reflectsim.cli as cli

    workdir = BENCH_DIR / "out" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    refs = load_references()
    ops = build_ops(workload, seed, workdir, refs)
    checker = Checker(refs)
    positions_per_pass = sum(refs[op.reference].shape[1] for op in ops)
    setup = [] if trace else setup_times()

    # Warm-up, neither timed nor counted: lazy imports and first calls.
    invoke(cli, ops[0].argv)

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    layer_rows: list[dict] = []
    span_log: list[list] = []
    started = time.perf_counter()
    n_op = 0
    while True:
        tracing = trace and len(untraced) > len(traced)
        if tracing:
            tracer.reset()
            tracer.install(reflectsim)
        results = []
        try:
            t0 = time.perf_counter()
            for op in ops:
                tracer.op = n_op
                n_op += 1
                results.append(invoke(cli, op.argv, tracer if tracing else None))
            elapsed = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        (traced if tracing else untraced).append(elapsed)
        if tracing:
            layer_rows.append(layer_metrics(tracer.spans, tracer.counters))
            span_log.append([list(s) for s in tracer.spans])
        for op, (rc, problems) in zip(ops, results):
            checker.record(op, rc, problems)
        n_passes = len(untraced) + len(traced)
        typical = statistics.median(untraced + traced)
        if n_passes >= MIN_PASSES and time.perf_counter() - started + typical > seconds:
            break

    record = machine_record(workload, seed)
    record["operations"] = [op.name for op in ops]
    record["problems"] = {name: sorted(msgs) for name, msgs in checker.problems.items()}
    if trace:
        layers = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = {name: layers[name] for name in PER_LAYER}
        record["traced_passes"] = len(traced)
        record["untraced_passes"] = len(untraced)
        record["unpatched"] = tracer.missing
        (workdir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "passes": span_log}) + "\n",
            encoding="utf-8")
    else:
        tail_value, tail_pct, n = tail(untraced)
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s.p50": statistics.median(untraced),
            "pass_s.tail": tail_value,
            "positions_per_s": positions_per_pass * n / sum(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - checker.failed / checker.attempted,
        }
        record.update(passes=n, tail_percentile=tail_pct, setup_samples=setup, pass_samples=untraced)
    return {"metrics": metrics, "checker": checker, "record": record}


def report(result: dict) -> None:
    metrics, checker, record = result["metrics"], result["checker"], result["record"]
    print(f"workload {record['workload']}  seed {record['seed']}  operations {', '.join(record['operations'])}")
    print("machine " + json.dumps({k: record[k] for k in
                                   ("nproc", "cpus_usable", "machine", "python", "numpy", "scipy",
                                    "blas", "blas_threads", "git_commit")}, sort_keys=True))
    notes = {
        "setup_s": f"median of {len(record.get('setup_samples', []))} fresh imports",
        "pass_s.p50": f"{record.get('passes')} passes",
        "pass_s.tail": f"p{record.get('tail_percentile', 0):.1f} of {record.get('passes')} passes",
        "trace.overhead_s": f"traced {record.get('traced_passes')} / untraced {record.get('untraced_passes')} passes",
    }
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {UNITS[name]:<9} {notes.get(name, '')}")
    print(f"  {'fail_frac':<26} {checker.failed / checker.attempted:>14.6g} {'fraction':<9} "
          f"{checker.failed} of {checker.attempted} operations failed the output check")
    for name, msgs in record["problems"].items():
        print(f"  FAILED {name}: {'; '.join(msgs)}")
    if record.get("unpatched"):
        print(f"  not traced (absent): {', '.join(record['unpatched'])}")
    print(json.dumps(result_object(result)))


def result_object(result: dict) -> dict:
    """The run's result in the form the last output line carries."""
    checker = result["checker"]
    return {
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in result["metrics"].items()},
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reflectsim").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a reflectsim source checkout (no src/reflectsim or configs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (BENCH_DIR / "out" / args.workload / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result["record"], **result_object(result)}, indent=1) + "\n", encoding="utf-8")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
