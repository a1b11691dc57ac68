import json
import warnings

import numpy as np
import pytest

from reflectsim.cli import main
from reflectsim.config import parse_config
from reflectsim.profile_io import export_profile, import_measured
from reflectsim import metrics
from reflectsim.metrics import PowerProfile
from reflectsim.antenna import Band

FAST_CONFIG = """\
band = 28
geometry.n_positions = 200
"""


def write_config(tmp_path, text=FAST_CONFIG, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_simulate_writes_profile_and_stats(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "28ghz_flat.csv").exists()
    stats = json.loads((out / "28ghz_flat.stats.json").read_text())
    assert stats["band"] == "28ghz"
    assert stats["n_positions"] == 200
    assert stats["stats"]["fringe_count"] >= 0


def test_simulate_band_flag_only(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--band", "39", "--reflector", "flat",
                 "--out", str(out), "--format", "json"])
    assert code == 0
    assert (out / "39ghz_flat.json").exists()


def test_simulate_outputs_are_byte_stable(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "28ghz_flat.csv").read_bytes() == (out2 / "28ghz_flat.csv").read_bytes()
    assert (out1 / "28ghz_flat.stats.json").read_bytes() == (
        out2 / "28ghz_flat.stats.json").read_bytes()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_uncaptured_run_longer_than_window_gives_strict_json_stats(tmp_path):
    # At a 5 m offset the last quarter of the 28 GHz convex sweep captures no
    # ray: a run of -inf powers longer than the smoothing window, where the
    # smoothed envelope is -inf too.
    cfg = write_config(tmp_path, "band = 28\nreflector.kind = convex\n"
                       "reflector.radius_of_curvature = 0.5\n"
                       "geometry.sweep_offset = 5.0\ngeometry.n_positions = 300\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    power = import_measured(out / "28ghz_convex.csv").power_db
    uncaptured = np.flatnonzero(np.isneginf(power))
    assert uncaptured.size > metrics.DEFAULT_SMOOTHING_SAMPLES
    assert np.all(np.diff(uncaptured) == 1)
    text = (out / "28ghz_convex.stats.json").read_text()
    stats = json.loads(text, parse_constant=_reject_constant)["stats"]
    assert stats["rhs_decay_db"] is None
    assert stats["envelope_dynamic_range_db"] is None
    assert np.isfinite(stats["peak_db"])


def test_compare_of_uncaptured_run_fits_over_the_finite_overlap(tmp_path):
    cfg = write_config(tmp_path, "band = 28\nreflector.kind = convex\n"
                       "reflector.radius_of_curvature = 0.5\n"
                       "geometry.sweep_offset = 5.0\ngeometry.n_positions = 300\n")
    out = tmp_path / "out"
    report_path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["compare", "--config", str(cfg), str(out / "28ghz_convex.csv"),
                     "--out", str(report_path)]) == 0
    n_uncaptured = int(np.count_nonzero(np.isneginf(
        import_measured(out / "28ghz_convex.csv").power_db)))
    report = json.loads(report_path.read_text(), parse_constant=_reject_constant)
    assert report["offset_db"] == 0.0
    assert report["rmse_db"] == 0.0
    assert report["n_overlap"] == 300
    assert report["n_excluded"] == n_uncaptured > 0


def test_dump_config_round_trips(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert parse_config(dumped) == parse_config(FAST_CONFIG)


def test_missing_band_is_validation_error(capsys):
    assert main(["simulate"]) == 1
    assert "band" in capsys.readouterr().err


def test_bad_config_key_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "band = 28\nbogus.key = 1\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "bogus.key" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["simulate", "--band", "60"]) == 1


def test_compare_against_exported_measurement(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    sim = import_measured(out / "28ghz_flat.csv")
    measured = PowerProfile(sim.positions_m, sim.power_db + 7.0, Band.GHZ28,
                            "measured", "meas")
    measured_path = tmp_path / "measured_28ghz.csv"
    export_profile(measured, "csv", measured_path)

    report_path = tmp_path / "report.json"
    code = main(["compare", "--config", str(cfg), str(measured_path),
                 "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["offset_db"] == pytest.approx(7.0, abs=1e-9)
    assert report["rmse_db"] == pytest.approx(0.0, abs=1e-9)
    assert report["n_overlap"] == 200
    assert report["n_excluded"] == 0


def test_compare_missing_measured_file_is_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["compare", "--config", str(cfg), str(tmp_path / "nope.csv")]) == 2


def test_bands_lists_all_three(capsys):
    assert main(["bands"]) == 0
    out = capsys.readouterr().out
    for token in ("28ghz", "39ghz", "120ghz"):
        assert token in out


def test_oracle_checks_pass(capsys):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "oracle checks passed" in out
