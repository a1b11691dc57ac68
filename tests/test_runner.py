import dataclasses
import threading

import numpy as np
import pytest

from reflectsim import runner
from reflectsim.antenna import Band
from reflectsim.config import ConfigError, ScenarioConfig, parse_config
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


@pytest.mark.parametrize("mode", list(SumMode))
def test_nan_sum_is_an_error_not_a_coverage_hole(mode):
    # A NaN TX power makes every coherent sum NaN, on either plate. The -inf
    # no-capture sentinel comes only from a zero sum, so the profile rejects
    # the NaN.
    for kind in ("flat", "convex"):
        scn = ScenarioConfig(band=Band.GHZ28, reflector_kind=kind, n_positions=5).to_scenario()
        bad = dataclasses.replace(scn, tx_power_dbm=float("nan"))
        assert np.all(np.isnan(sweep_power(bad, scn.geometry.rx_positions(), mode)))
        with pytest.raises(ValueError, match=r"sample 0: power .* \(no NaN or \+inf\), got nan"):
            sweep_profile(bad, mode)


def test_plate_too_wide_for_its_curvature_names_the_radius():
    config = parse_config("band = 28\nreflector.kind = convex\nreflector.width = 20\n"
                          "reflector.radius_of_curvature = 10.1\ngeometry.n_positions = 101\n")
    with pytest.raises(ConfigError, match="not monotone.*reflector.width") as info:
        run_sweep(config)
    assert (info.value.key, info.value.line) == ("reflector.radius_of_curvature", None)
    # sweep_profile, below the config, still raises the geometry error.
    with pytest.raises(GeometryError, match="not monotone"):
        sweep_profile(config.to_scenario(), config.mode)


def test_plate_too_tall_for_its_link_names_the_height():
    # A reflected ray off a plate 1e9 m tall, 1 mm from the TX, runs vertical:
    # the height causes it, whatever the radius, and a 1 m plate runs.
    text = ("band = 28\nreflector.kind = convex\nreflector.radius_of_curvature = {}\n"
            "reflector.height = {}\ngeometry.tx_range = 1e-3\ngeometry.n_positions = 11\n")
    for radius in ("0.5", "1e5"):
        with pytest.raises(ConfigError, match="reflected ray is vertical") as info:
            run_sweep(parse_config(text.format(radius, "1e9")))
        assert (info.value.key, info.value.line) == ("reflector.height", None)
        assert "radius" not in info.value.message
    assert len(run_sweep(parse_config(text.format("0.5", "1")))) == 11
