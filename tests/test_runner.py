import threading

import numpy as np
import pytest

from reflectsim import runner
from reflectsim.antenna import Band
from reflectsim.config import ScenarioConfig, parse_config
from reflectsim.engine import SumMode, sweep_power
from reflectsim.runner import run_sweep, sweep_profile
from reflectsim.scene import GeometryError


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
    assert a.label == "39ghz_convex"


def test_literal_profiles_are_relative_to_peak():
    cfg = parse_config("band = 28\nengine.mode = literal\ngeometry.n_positions = 150\n")
    profile = run_sweep(cfg)
    assert np.max(profile.power_db) == pytest.approx(0.0, abs=1e-12)


def test_sweep_profile_labels():
    scn = ScenarioConfig(band=Band.GHZ120, reflector_kind="convex").to_scenario()
    scn_small = ScenarioConfig(band=Band.GHZ120, reflector_kind="convex",
                               n_positions=25).to_scenario()
    profile = sweep_profile(scn_small, SumMode.PHYSICAL)
    assert profile.label == "120ghz_convex"
    assert scn.label == "120ghz_convex"


@pytest.mark.parametrize("n_positions", [2, 3, 101])
@pytest.mark.parametrize("mode", list(SumMode))
@pytest.mark.parametrize("kind", ["flat", "convex"])
def test_threaded_sweep_equals_one_engine_call(kind, mode, n_positions, monkeypatch):
    monkeypatch.setattr(runner, "_SWEEP_WORKERS", 2)
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind=kind,
                         n_positions=n_positions).to_scenario()
    want = sweep_power(scn, scn.geometry.rx_positions(), mode)
    if mode is SumMode.LITERAL:
        want = want - np.max(want)

    chunk_sizes = []

    def counted(scenario, rx, sum_mode):
        chunk_sizes.append(len(rx))
        return sweep_power(scenario, rx, sum_mode)

    monkeypatch.setattr(runner, "sweep_power", counted)
    threads = threading.active_count()
    got = sweep_profile(scn, mode).power_db
    assert threading.active_count() == threads  # no worker outlives the sweep
    assert sorted(chunk_sizes) == [n_positions // 2, n_positions - n_positions // 2]
    assert np.array_equal(got, want)


def test_error_in_second_chunk_surfaces(monkeypatch):
    monkeypatch.setattr(runner, "_SWEEP_WORKERS", 2)
    scn = ScenarioConfig(band=Band.GHZ28, n_positions=5).to_scenario()
    second = scn.geometry.rx_positions()[3:]

    def fail_on_second(scenario, rx, mode):
        if np.array_equal(rx, second):
            raise GeometryError("ray launch point coincides with the RX")
        return sweep_power(scenario, rx, mode)

    monkeypatch.setattr(runner, "sweep_power", fail_on_second)
    with pytest.raises(GeometryError, match="coincides with the RX"):
        sweep_profile(scn, SumMode.PHYSICAL)
