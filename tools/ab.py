"""Compare the working tree with a base revision: benchmark pairs, or profile bits.

    python3 tools/ab.py --base <rev> --workload convex-bands --pairs 10
    python3 tools/ab.py --bits --base <rev>

Both modes extract `git archive <rev>` into a temporary directory and leave
the working tree as it is.

Pairs: each pair runs `perfbench/run.py --workload W --seed S --seconds 55
--trace 0` once in each tree, the base first in odd pairs and the working
tree first in even ones. `BENCH_<workload>.json` at the repository root
gets both result objects of every pair, each end-to-end metric's median and
quartiles per side, the change/base ratio of the medians, the pairs the
change won on that metric, and the machine block `run.py` prints.

Bits: each config of `bits_corpus()` (overrides of the bundled defaults, at
301 positions) runs through `runner.sweep_profile` in both trees. The
listing names every config whose `power_db.tobytes()`, or raised error,
differs between them; the exit status is 1 if any does. Its file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BANDS = ("28", "39", "120")
MODES = ("physical", "literal")
BITS_POSITIONS = 301
RUN_SECONDS = 55

# Runs in one tree with its `src` on the path: reads the corpus as JSON on
# stdin and prints one JSON list, per config the sha256 of its power_db
# bytes or its error.
_BITS_WORKER = """
import hashlib, json, sys
from reflectsim.config import parse_config
from reflectsim.runner import sweep_profile
out = []
for overrides in json.load(sys.stdin):
    try:
        cfg = parse_config("", overrides)
        power = sweep_profile(cfg.to_scenario(), cfg.mode).power_db
        out.append({"sha256": hashlib.sha256(power.tobytes()).hexdigest(),
                    "minus_inf": int((power == float("-inf")).sum())})
    except Exception as exc:
        out.append({"error": f"{type(exc).__name__}: {exc}"})
print(json.dumps(out))
"""


def bits_corpus() -> list[dict[str, str]]:
    """554 config overrides: flat and convex plates over the three bands,
    off specular and at incidence, near the planar limit, far wider than the
    default plate and near the edges of the capture certificate, each in
    both sum modes."""
    shared = {"geometry.n_positions": str(BITS_POSITIONS)}
    flat_places = [{}, {"geometry.sweep_offset": "0.7"}, {"geometry.incidence_deg": "60"}]
    convex_places = flat_places[:2] + [
        {"geometry.sweep_offset": "5"}, flat_places[2],
        {"geometry.tx_range": "1.3", "geometry.rx_range": "0.8"}]
    plates = []
    for band in BANDS:
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33):
            plates += [{"band": band, "reflector.kind": "flat",
                        "reflector.facets_per_side": str(n), **place} for place in flat_places]
        for r in ("0.21", "0.3", "0.5", "1", "3", "10", "100", "9e5"):
            plates += [{"band": band, "reflector.kind": "convex",
                        "reflector.radius_of_curvature": r, **place} for place in convex_places]
    for r in ("1e6", "1e9"):
        plates += [{"band": "28", "reflector.kind": "convex", "reflector.radius_of_curvature": r,
                    "geometry.sweep_offset": offset} for offset in ("0", "0.7")]
    for band in ("28", "39"):
        for width in (20, 100):
            for r in (0.505 * width, width, 3 * width):
                plates += [{"band": band, "reflector.kind": "convex", "reflector.width": str(width),
                            "reflector.radius_of_curvature": repr(r),
                            "geometry.sweep_offset": offset} for offset in ("0", "0.7", "3")]
    # Near the edges of the capture certificate (scene._rising_lines), where
    # certified and refused lines meet in one sweep: 10 cm sweeps 0.1-0.3 m
    # from the plate, and plates 1-3 m wide slid up to 3 m off specular, some
    # curved almost to a half circle. (tx_range, rx_range, radius, incidence)
    # and (width, radius, offset):
    short = [("0.1", "0.2", "1", "0"), ("0.1", "0.3", "3", "30"), ("0.2", "0.2", "0.5", "0"),
             ("0.2", "0.2", "1", "60"), ("0.2", "0.3", "1", "60"), ("0.2", "0.3", "3", "60"),
             ("0.3", "0.2", "0.5", "30"), ("0.3", "0.3", "0.5", "60")]
    wide = [("1", "1", "0"), ("1", "2", "-3"), ("1", "2", "3"), ("2", "2", "0"), ("2", "4", "3"),
            ("3", "3", "0"), ("3", "6", "3")] + [("1", "0.5005", o) for o in ("-3", "0", "3")]
    for i, (tx, rx, r, incidence) in enumerate(short):
        plates.append({"band": BANDS[i % 3], "reflector.kind": "convex",
                       "reflector.radius_of_curvature": r, "geometry.tx_range": tx,
                       "geometry.rx_range": rx, "geometry.incidence_deg": incidence,
                       "geometry.sweep_length": "0.1"})
    for i, (width, r, offset) in enumerate(wide):
        plates.append({"band": BANDS[i % 3], "reflector.kind": "convex", "reflector.width": width,
                       "reflector.radius_of_curvature": r, "geometry.sweep_offset": offset})
    return [{**shared, **plate, "engine.mode": mode} for plate in plates for mode in MODES]


def extract(rev: str, into: Path) -> str:
    """Extract `git archive <rev>` into `into`; returns the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return sha


def bench_once(tree: Path, workload: str, seed: int) -> dict:
    """One `run.py` in `tree`: its result object and machine block."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    machine = next(json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine "))
    return {"result": json.loads(lines[-1]), "machine": machine}


def summarize(pairs: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the
    change/base ratio of the medians and the change's wins."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = {}
    for metric in spec:
        name = metric["name"]
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("base", "change")}
        stats = {}
        for side, values in sides.items():
            q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
            stats[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        lower = metric["better"] == "lower"
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(sides["base"], sides["change"]))
        base_median = stats["base"]["median"]
        summary[name] = {**stats, "better": metric["better"], "wins": wins,
                         "ratio": stats["change"]["median"] / base_median if base_median else None}
    return summary


def run_pairs(base: str, workload: str, n_pairs: int, seed: int) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        sha = extract(base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        pairs, machines = [], {}
        for i in range(1, n_pairs + 1):
            order = ("base", "change") if i % 2 else ("change", "base")
            pair = {"order": list(order)}
            for side in order:
                run = bench_once(trees[side], workload, seed)
                pair[side] = run["result"]
                machines.setdefault(side, run["machine"])
            pairs.append(pair)
            print(f"pair {i}/{n_pairs}: positions_per_s "
                  f"base {pair['base']['metrics']['positions_per_s']['value']:.0f} "
                  f"change {pair['change']['metrics']['positions_per_s']['value']:.0f}",
                  flush=True)
    record = {
        "command": f"python3 tools/ab.py --base {base} --workload {workload} "
                   f"--pairs {n_pairs} --seed {seed}",
        "workload": workload,
        "base": sha,
        "seed": seed,
        "seconds": RUN_SECONDS,
        "summary": summarize(pairs),
        "machine": machines,
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, row in record["summary"].items():
        print(f"  {name:<16} base {row['base']['median']:.6g} "
              f"[{row['base']['q1']:.6g}, {row['base']['q3']:.6g}]  "
              f"change {row['change']['median']:.6g}  ratio {row['ratio'] or float('nan'):.4f}  "
              f"wins {row['wins']}/{n_pairs}")
    print(f"wrote {out.name}")
    return 0


def bits_in(tree: Path, corpus: list[dict]) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-c", _BITS_WORKER], input=json.dumps(corpus),
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def run_bits(base: str) -> int:
    corpus = bits_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        sha = extract(base, base_tree)
        before = bits_in(base_tree, corpus)
    after = bits_in(ROOT, corpus)
    differ = [i for i, (b, a) in enumerate(zip(before, after)) if b != a]
    errors = sum("error" in a for a in after)
    with_inf = sum(a.get("minus_inf", 0) > 0 for a in after)
    print(f"bits: {len(corpus)} configs at {BITS_POSITIONS} positions against {sha[:12]}: "
          f"{len(corpus) - errors} run ({with_inf} with -inf positions), {errors} raise, "
          f"{len(differ)} differ")
    for i in differ:
        print(f"  DIFFERS {json.dumps(corpus[i], sort_keys=True)}: base {before[i]}, "
              f"change {after[i]}")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--bits", action="store_true", help="compare profile bits, not timings")
    parser.add_argument("--workload", choices=("flat-bands", "convex-bands"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.bits:
        return run_bits(args.base)
    if args.workload is None or args.pairs < 1:
        parser.error("--workload and --pairs >= 1 are needed without --bits")
    return run_pairs(args.base, args.workload, args.pairs, args.seed)


if __name__ == "__main__":
    sys.exit(main())
