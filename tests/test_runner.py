import numpy as np
import pytest

from reflectsim.antenna import Band
from reflectsim.config import ScenarioConfig, parse_config
from reflectsim.engine import SumMode
from reflectsim.runner import run_sweep, sweep_profile


def test_two_point_sweep():
    profile = run_sweep(parse_config("band = 28\ngeometry.n_positions = 2\n"))
    assert len(profile) == 2
    assert profile.positions_m[0] == 0.0
    assert profile.positions_m[-1] == pytest.approx(1.8)


def test_run_sweep_deterministic():
    cfg = parse_config("band = 28\ngeometry.n_positions = 150\n")
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert np.array_equal(a.power_db, b.power_db)
    assert np.array_equal(a.positions_m, b.positions_m)


def test_convex_run_sweep_deterministic():
    cfg = parse_config(
        "band = 39\nreflector.kind = convex\nreflector.radius_of_curvature = 0.5\n"
        "geometry.n_positions = 40\n"
    )
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert np.array_equal(a.power_db, b.power_db)
    assert a.reflector_kind == "convex"


def test_literal_profiles_are_relative_to_peak():
    cfg = parse_config("band = 28\nengine.mode = literal\ngeometry.n_positions = 150\n")
    profile = run_sweep(cfg)
    assert np.max(profile.power_db) == pytest.approx(0.0, abs=1e-12)


def test_sweep_profile_labels():
    scn = ScenarioConfig(band=Band.GHZ120, reflector_kind="convex").to_scenario()
    scn_small = ScenarioConfig(band=Band.GHZ120, reflector_kind="convex",
                               n_positions=25).to_scenario()
    profile = sweep_profile(scn_small, SumMode.PHYSICAL)
    assert profile.band is Band.GHZ120
    assert profile.reflector_kind == "convex"
    assert profile.label == "120ghz_convex"
    assert scn.label == "120ghz_convex"
