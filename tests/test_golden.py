"""Golden profiles: the bundled fixtures must reproduce the reference sweeps
stored in perfbench/reference/profiles.npz bit for bit.

Each stored entry is a (2, n) array of sweep positions and powers keyed by
operation name. The file is only read here.

Bit equality holds on the host that pinned the references: numpy 2.4.6 on
x86-64 with AVX-512 dispatch. With numpy's AVX-512 kernels turned off
(`NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`), all 10 cases
differ by up to 4.3e-14 dB, with the same -inf positions: the AVX-512 and
AVX2 kernels of arctan2, arcsin, log10, 10**x and tan differ in their last
bits. The model's contract across hosts is agreement to 1e-9 dB.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reflectsim.config import parse_config
from reflectsim.engine import SumMode
from reflectsim.runner import run_sweep

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
BANDS = (28, 39, 120)


@pytest.fixture(scope="module")
def golden():
    with np.load(ROOT / "perfbench" / "reference" / "profiles.npz") as data:
        return {name: data[name] for name in data.files}


@pytest.mark.parametrize("mode", ["physical", "literal"])
@pytest.mark.parametrize("band", BANDS)
def test_flat_fixture_matches_golden(golden, band, mode):
    config = parse_config((CONFIGS / f"{band}ghz_flat.cfg").read_text(encoding="utf-8"))
    profile = run_sweep(replace(config, mode=SumMode.parse(mode)))
    positions, power = golden[f"flat-{band}ghz-{mode}"]
    assert np.array_equal(profile.positions_m, positions)
    assert np.array_equal(profile.power_db, power)


CONVEX_CASES = {f"convex-{band}ghz-physical": (band, "") for band in BANDS}
CONVEX_CASES["convex-28ghz-offset5"] = (28, "geometry.sweep_offset = 5.0\n")


@pytest.mark.parametrize("name", sorted(CONVEX_CASES))
def test_convex_fixture_matches_golden(golden, name):
    band, extra = CONVEX_CASES[name]
    text = (CONFIGS / f"{band}ghz_convex.cfg").read_text(encoding="utf-8") + extra
    profile = run_sweep(parse_config(text))
    positions, power = golden[name]
    assert np.array_equal(profile.positions_m, positions)
    assert np.array_equal(profile.power_db, power)
