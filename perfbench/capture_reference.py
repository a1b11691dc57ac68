"""Capture the reference profiles the benchmark checks every operation against.

    python3 perfbench/capture_reference.py

Runs each simulate operation of ``flat-bands`` and ``convex-bands`` once and
stores its exported profile in ``reference/profiles.npz`` as a (2, n) array
of positions and powers keyed by operation name. The committed file was
captured at the commit that introduced the benchmark; re-capture only when
a change of model is intended, and say so in the change.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np

import checks
import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import reflectsim.cli as cli

    workdir = run.BENCH_DIR / "out" / "capture"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    profiles = {}
    for workload in ("flat-bands", "convex-bands"):
        for op in run.simulate_ops(workload, workdir):
            rc, _ = run.invoke(cli, op.argv)
            if rc != 0:
                print(f"error: {op.name} exited with {rc}", file=sys.stderr)
                return 1
            (csv,) = op.out.glob("*.csv")
            profiles[op.name] = np.stack(checks.read_profile_csv(csv))
    run.REFERENCE_FILE.parent.mkdir(exist_ok=True)
    np.savez_compressed(run.REFERENCE_FILE, **profiles)
    print(f"wrote {len(profiles)} profiles to {run.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
