"""Run tier-1 against one-line mutants of the package and record what kills each.

    python3 tools/mutants.py

Each row of `MUTANTS` names a file under `src/reflectsim/`, the exact text a
mutant replaces (it must occur once), the new text, the rule the old text
guards, and the outcome expected:

- "killed": some tier-1 test fails on the mutant;
- "equivalent: <why>": no output can tell the mutant apart;
- "gap: <why>": a known survivor, until a test is written for it.

The script copies the repository into a temporary directory and runs the
unmutated tier-1 there first, with no test deselected: a mutant counts as
killed only by a test that passes on that run. `ROW_CHECK`, the tier-1 test
that each row's old text occurs once, kills no mutant: applying a row
removes that text, so it fails on every mutant. Each mutant is then applied to
the copy on its own, tier-1 runs again, and the file is restored. Every row
runs; the record (baseline, then per mutant its outcome, the first killing
test and the seconds taken) is written to MUTANTS.json at the repository root.
The exit status is 1 if any outcome is not the one its row expects. Its file
name keeps pytest from collecting it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
ROW_CHECK = "tests.test_source::test_every_mutant_row_finds_its_text_once"

# (file, old text, new text, rule guarded, expected outcome)
MUTANTS = [
    ("scene.py", "behind = p[:, 0] <= 0.0", "behind = p[:, 0] < 0.0",
     "a link point in the plate plane x = 0 is rejected", "killed"),
    ("scene.py", "if p.ndim != 2 or p.shape[1] != 3:", "if False:",
     "RX points that are not an (M, 3) array are rejected", "killed"),
    ("scene.py", "not_finite = ~np.isfinite(p).all(axis=1)",
     "not_finite = np.zeros(len(p), dtype=bool)",
     "a non-finite link point is rejected before any ray is solved", "killed"),
    ("scene.py", 'for name in ("tx_position", "sweep_start", "sweep_end"):',
     'for name in ("sweep_start", "sweep_end"):',
     "the TX is held to the link-point rule with the sweep ends", "killed"),
    ("engine.py", "terms = np.take(terms, columns, axis=1)", "terms = terms[:, columns]",
     "a folded row is gathered C-contiguous, so it sums as its unfolded row", "killed"),
    ("engine.py", "step = max(1, _RAY_BLOCK // columns.size)",
     "step = max(1, _RAY_BLOCK // columns.size) + 7",
     "a block holds at most _RAY_BLOCK rays",
     "equivalent: every position is summed on its own, so blocking changes no bit; "
     "only a block's memory grows"),
    ("engine.py",
     "reshape(block.size, -1),\n            intercepts[block][kept].reshape(block.size, -1, 2)",
     "reshape(-1, counts.max()),\n            intercepts[block][kept].reshape(-1, counts.max(), 2)",
     "each convex group's solve reads its own captured-ray count K, not the last group's",
     "killed"),
    ("engine.py", "for k in np.unique(counts[counts > 0])", "for k in np.unique(counts)",
     "a position that captures no ray is in no group, and reads -inf", "killed"),
    ("engine.py", "solved = heights[mirror_fold(heights, 1)[0]]", "solved = heights",
     "the convex solve traces only the sections that mirror_fold solves, in their order",
     "killed"),
    ("scene.py", "valid &= tau > 1e-9", "valid &= tau > -1e-9",
     "an arc ray reaches a capture line only ahead of its launch point", "killed"),
    ("scene.py", "if np.any(horiz < 1e-9):", "if np.any(horiz < 0.0):",
     "a vertical reflected ray has no capture intercept", "killed"),
    ("scene.py", "read = n_valid >= 2", "read = n_valid >= 3",
     "a capture line reached by two arc rays is interpolated", "killed"),
    ("scene.py", "if height < 0.0 else i for i, height", "if height <= 0.0 else i for i, height",
     "only a row below z = 0 reads its mirror",
     "equivalent: a -0.0 row finds its own 0.0 key and reads itself"),
    ("scene.py", "row_at.get(-height, i) if height < 0.0",
     "len(h) - 1 - i if height < 0.0",
     "a row reads its mirror only if the mirror's height is its exact negation", "killed"),
    ("scene.py", "one_run & (rising | falling)", "(rising | falling)",
     "a capture line reached by two runs of the arc is rejected", "killed"),
    ("scene.py", "falling[falling] = np.all(falls, axis=1)", "falling[falling] = True",
     "a read capture line that does not rise must fall, or it is rejected", "killed"),
    ("scene.py", "s_i, beta_i = s_i[::-1], beta_i[::-1]", "pass",
     "a falling capture line is interpolated over its run reversed", "killed"),
    ("scene.py", "_CAPTURE_GRID_POINTS)[::-1]", "_CAPTURE_GRID_POINTS)",
     "the arc is traced from +beta_max down, so config-built capture lines rise",
     "equivalent: every line then falls and is read reversed, with the same bits; "
     "only the copies and the falling test come back"),
    ("scene.py", "if np.any(norm_seg < 1e-12):", "if np.any(norm_seg < 0.0):",
     "an RX point on the plate's vertical axis has no capture segment", "killed"),
    ("scene.py", "d2 = x * x\n    d2 += y * y\n    d2 += z * z",
     "d2 = y * y\n    d2 += z * z\n    d2 += x * x",
     "the RX leg sums (x*x + y*y) + z*z, the order of the golden bits", "killed"),
    ("config.py", "lambda v: 0.0 <= v < 90.0", "lambda v: 0.0 <= v <= 90.0",
     "an incidence of 90 degrees is rejected",
     "equivalent: a 90-degree config is still rejected, by the sweep-in-front rule "
     "with that rule's message"),
    ("config.py", '_KIND_KEYS = {"reflector.facets_per_side": "flat", ', "_KIND_KEYS = {",
     "a key of one reflector kind is rejected on a config of the other", "killed"),
    ("config.py", "misplaced = [key for key in seen if _KIND_KEYS.get(key, kind) != kind]",
     "misplaced = []",
     "a document may not set a key of the other kind, even to its default", "killed"),
    ("config.py",
     "if _KIND_KEYS.get(key, config.reflector_kind) != config.reflector_kind:", "if False:",
     "dump_config leaves out the keys of the other kind", "killed"),
    # Killed by test_config.py::test_out_of_range_value_names_its_key_and_line.
    ("config.py", "lambda v: 0.0 < v <= 1.0", "lambda v: 0.0 <= v <= 1.0",
     "a reflection efficiency of 0 is rejected by its key-table range", "killed"),
    ("engine.py", 'with np.errstate(divide="ignore"):', "with np.errstate():",
     "a zero coherent sum is the -inf sentinel, with no RuntimeWarning", "killed"),
    ("metrics.py", 'with np.errstate(divide="ignore"):', "with np.errstate():",
     "a smoothing window without a finite sample is -inf, with no RuntimeWarning", "killed"),
    ("metrics.py", "np.r_[True, positions[1:] > positions[:-1]]",
     "np.r_[True, positions[1:] >= positions[:-1]]",
     "a profile position equal to the one before it is rejected", "killed"),
    ("metrics.py", "| np.isneginf(powers)", "| np.isinf(powers)",
     "a +inf power is rejected; only -inf is the sentinel", "killed"),
    ("profile_io.py", "row {rows[bad[0]]}", "row {bad[0] + 2}",
     "a sample's error names its CSV row, past skipped blank lines", "killed"),
    ("runner.py", 'key="reflector.radius_of_curvature"', 'key="reflector.width"',
     "a sweep-time geometry error of a config names the curvature radius", "killed"),
    ("scene.py", "if point.shape != (3,):", "if False:",
     "a geometry point that is not one 3-vector names its field and shape", "killed"),
    ("scene.py", "b[0] * e_az[1] - b[1] * e_az[0]", "b[1] * e_az[0] - b[0] * e_az[1]",
     "e_el = b x e_az points up: a ray above the link plane has a positive elevation",
     "killed"),
    ("scene.py", "e_az = unit(np.array([-b[1], b[0], 0.0]))",
     "e_az = unit(np.array([b[1], -b[0], 0.0]))",
     "e_az = z x b: a ray left of the boresight, seen along it, has a positive azimuth",
     "killed"),
    ("scene.py", "if not 0.0 < self.alpha <= 1.0:", "if not 0.0 <= self.alpha <= 1.0:",
     "a scenario's alpha is in (0, 1]", "killed"),
    ("scene.py", "if not math.isfinite(self.d_ref_m):", "if False:",
     "a scenario's phase reference d_ref_m is finite", "killed"),
    ("runner.py", 'key="reflector.height"', 'key="reflector.radius_of_curvature"',
     "a vertical reflected ray of a config names the plate height, not the radius",
     "killed"),
    ("antenna.py", "np.minimum(rolloff, _SIDELOBE_FLOOR_DB)", "rolloff",
     "the gain is clamped at the sidelobe floor 30 dB below boresight", "killed"),
    ("cli.py", "return EXIT_VALIDATION\n    except (ValueError, OSError)",
     "return EXIT_RUNTIME\n    except (ValueError, OSError)",
     "a ConfigError exits 1, not 2", "killed"),
    # Killed by test_cli.py::test_simulate_writes_profile_and_stats.
    ("cli.py", "if key in _KEY_TABLE and value is not None}",
     'if key in ("band", "reflector.kind", "engine.mode") and value is not None}',
     "every flag whose dest is a config key sets that key, --out's output.dir too",
     "killed"),
    # Killed by test_cli.py::test_unreadable_config_is_validation_error_naming_the_path.
    ("cli.py", "    except OSError as exc:\n        raise ConfigError(",
     "    except UnicodeError as exc:\n        raise ConfigError(",
     "an unreadable --config file is a ConfigError naming its path (exit 1)", "killed"),
    ("metrics.py", "peak_db=float(power[peak_idx])", "peak_db=float(envelope[peak_idx])",
     "the peak is the profile's own maximum, not its envelope's", "killed"),
    ("metrics.py", "decay = float(envelope[-1] - envelope[peak_idx])",
     "decay = float(envelope[-1] - envelope[0])",
     "the decay is taken from the peak position, not the sweep start", "killed"),
    ("metrics.py", "dynamic_range = float(np.max(envelope) - np.min(envelope))",
     "dynamic_range = float(np.max(envelope) - envelope[-1])",
     "the envelope's dynamic range is its maximum minus its minimum", "killed"),
]


def tier1(repo: Path) -> tuple[dict[str, bool], float]:
    """Run tier-1 in `repo`: {test id: passed} and the seconds taken."""
    report = repo / "tier1.xml"
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    start = time.perf_counter()
    subprocess.run([sys.executable, *TIER1, f"--junitxml={report}"], cwd=repo, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=1800)
    seconds = time.perf_counter() - start
    results = {}
    for case in ET.parse(report).iter("testcase"):
        if case.find("skipped") is None:
            test_id = f"{case.get('classname')}::{case.get('name')}"
            results[test_id] = case.find("failure") is None and case.find("error") is None
    report.unlink()
    return results, seconds


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(
            ".git", "out", "__pycache__", ".pytest_cache", ".hypothesis", "MUTANTS.json"))
        base, base_s = tier1(repo)
        print(f"baseline: {sum(base.values())} passed, {len(base) - sum(base.values())} failed "
              f"in {base_s:.1f} s", flush=True)
        rows = []
        for name, old, new, rule, expected in MUTANTS:
            path = repo / "src" / "reflectsim" / name
            source = path.read_text()
            row = {"file": f"src/reflectsim/{name}", "old": old, "new": new, "rule": rule,
                   "expected": expected}
            if source.count(old) != 1:
                row.update(outcome="not applied", killed_by=None, kills=0, seconds=0.0)
            else:
                path.write_text(source.replace(old, new))
                try:
                    results, seconds = tier1(repo)
                finally:
                    path.write_text(source)
                # A test the mutant breaks: it passed at baseline and does not now
                # (a collection error of its module included).
                kills = sorted(t for t, ok in results.items()
                               if not ok and base.get(t, True) and t != ROW_CHECK)
                row.update(outcome="killed" if kills else "survived",
                           killed_by=kills[0] if kills else None, kills=len(kills),
                           seconds=round(seconds, 1))
            want = "killed" if expected == "killed" else "survived"
            row["as_expected"] = row["outcome"] == want
            rows.append(row)
            print(f"{row['outcome']:>11} ({row['kills']} tests, {row['seconds']} s)"
                  f"{'' if row['as_expected'] else '  UNEXPECTED'}: {name}: {rule}", flush=True)

    record = {
        "command": "python " + " ".join(TIER1),
        "baseline": {"passed": sum(base.values()),
                     "failed": sorted(t for t, ok in base.items() if not ok),
                     "seconds": round(base_s, 1)},
        "mutants": rows,
    }
    (ROOT / "MUTANTS.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(row["as_expected"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
