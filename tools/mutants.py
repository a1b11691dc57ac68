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
killed only by a test that passes on that run. Each mutant is then applied to
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
    ("scene.py", "if abs(float(np.dot(b, _UP))) > 0.999:",
     "if abs(float(np.dot(b, _UP))) > 0.9999999:",
     "a boresight within the |b.z| > 0.999 cone has no frame", "killed"),
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
    ("scene.py", "np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])",
     "np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]) + 0.0",
     "_cross keeps np.cross's signed zeros", "killed"),
    ("scene.py", "d2 = x * x\n    d2 += y * y\n    d2 += z * z",
     "d2 = y * y\n    d2 += z * z\n    d2 += x * x",
     "the RX leg sums (x*x + y*y) + z*z, the order of the golden bits", "killed"),
    ("config.py", "0.0 <= self.incidence_deg < 90.0", "0.0 <= self.incidence_deg <= 90.0",
     "an incidence of 90 degrees is rejected",
     "equivalent: a 90-degree config is still rejected, by the sweep-in-front rule "
     "with that rule's message"),
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
                kills = sorted(t for t, ok in results.items() if not ok and base.get(t, True))
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
