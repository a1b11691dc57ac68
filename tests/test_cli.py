import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from reflectsim import cli
from reflectsim.cli import main
from reflectsim.config import parse_config
from reflectsim.profile_io import export_profile, import_measured
from reflectsim import metrics
from reflectsim.metrics import PowerProfile

FAST_CONFIG = """\
band = 28
geometry.n_positions = 200
"""

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# A document that sets the key of every scenario flag.
FLAG_KEYS_CONFIG = """\
band = 28
reflector.kind = flat
engine.mode = physical
geometry.n_positions = 200
output.dir = doc_out
"""


def write_config(tmp_path, text=FAST_CONFIG, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cli_import_loads_no_scipy():
    # Importing scipy.signal costs over a second of every CLI start.
    code = ("import sys, reflectsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


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
                 "--out", str(out)])
    assert code == 0
    assert (out / "39ghz_flat.csv").exists()


@pytest.mark.parametrize("flag, value, line", [
    ("--band", "39", "band = 39ghz"),
    ("--mode", "literal", "engine.mode = literal"),
    ("--out", "flag_out", "output.dir = flag_out"),
])
def test_flag_wins_over_the_document_and_dump_config_prints_it(tmp_path, capsys,
                                                               flag, value, line):
    cfg = write_config(tmp_path, FLAG_KEYS_CONFIG)
    assert main(["simulate", "--config", str(cfg), flag, value, "--dump-config"]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_band_flag_wins_over_the_document(tmp_path):
    cfg = write_config(tmp_path, FLAG_KEYS_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--band", "39", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["39ghz_flat.csv", "39ghz_flat.stats.json"]


def test_reflector_flag_wins_over_the_document(tmp_path, capsys):
    # A convex document without its required radius is a valid flat one.
    cfg = write_config(tmp_path, "band = 28\nreflector.kind = convex\n")
    assert main(["simulate", "--config", str(cfg), "--reflector", "flat", "--dump-config"]) == 0
    assert "reflector.kind = flat" in capsys.readouterr().out.splitlines()
    assert main(["simulate", "--config", str(CONFIGS / "28ghz_flat.cfg"),
                 "--reflector", "convex"]) == 1
    assert "error: reflector.radius_of_curvature: required" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, key", [
    ("--band", "60", "band"),
    ("--reflector", "parabolic", "reflector.kind"),
    ("--mode", "exact", "engine.mode"),
])
def test_bad_flag_value_is_validation_error_naming_its_key(tmp_path, capsys, flag, value, key):
    cfg = write_config(tmp_path, FLAG_KEYS_CONFIG)
    assert main(["simulate", "--config", str(cfg), flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


def test_compare_flags_win_over_the_document_and_out_stays_the_report(tmp_path):
    cfg = write_config(tmp_path, FLAG_KEYS_CONFIG)
    measured = tmp_path / "measured.csv"
    export_profile(PowerProfile(np.arange(200) * 1e-3, np.full(200, -60.0)), measured)
    report_path = tmp_path / "report.json"
    assert main(["compare", "--config", str(cfg), str(measured), "--band", "39",
                 "--reflector", "flat", "--mode", "literal", "--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["sim_label"] == "39ghz_flat"


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


def test_uncaptured_run_longer_than_window_gives_strict_json_stats(tmp_path, capsys):
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
    # The summary line prints what the stats file holds.
    printed = capsys.readouterr().out
    assert "inf" not in printed.lower() and "nan" not in printed.lower()
    assert f"peak {stats['peak_db']:.2f} dB" in printed
    assert "envelope range n/a (some positions uncaptured)" in printed


def test_run_that_captures_nothing_prints_no_nan(tmp_path, capsys):
    # At a 20 m offset no position of the 28 GHz convex sweep captures a ray.
    cfg = write_config(tmp_path, "band = 28\nreflector.kind = convex\n"
                       "reflector.radius_of_curvature = 0.5\n"
                       "geometry.sweep_offset = 20\ngeometry.n_positions = 200\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "nan" not in printed.lower()
    assert "no RX position received power" in printed
    assert np.all(np.isneginf(import_measured(out / "28ghz_convex.csv").power_db))
    text = (out / "28ghz_convex.stats.json").read_text()
    stats = json.loads(text, parse_constant=_reject_constant)["stats"]
    assert stats["peak_db"] is None
    assert stats["envelope_dynamic_range_db"] is None
    assert stats["rhs_decay_db"] is None


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


def test_config_with_a_byte_order_mark_is_read(tmp_path, capsys):
    # Notepad and other editors start a UTF-8 file with U+FEFF.
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("\ufeff" + FAST_CONFIG, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--dump-config"]) == 0
    assert parse_config(capsys.readouterr().out) == parse_config(FAST_CONFIG)


def test_config_that_is_not_utf8_is_validation_error(tmp_path, capsys):
    # A Latin-1 editor writes "é" as the single byte 0xe9.
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes((FAST_CONFIG + "output.label = café\n").encode("latin-1"))
    assert main(["simulate", "--config", str(cfg), "--dump-config"]) == 1
    assert capsys.readouterr().err == "error: line 3: not UTF-8 text (byte 0xe9)\n"


def test_usage_error_exit_code():
    assert main(["simulate", "--band", "60"]) == 1


def test_compare_against_exported_measurement(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    sim = import_measured(out / "28ghz_flat.csv")
    measured = PowerProfile(sim.positions_m, sim.power_db + 7.0, "meas")
    measured_path = tmp_path / "measured_28ghz.csv"
    export_profile(measured, measured_path)

    report_path = tmp_path / "report.json"
    code = main(["compare", "--config", str(cfg), str(measured_path),
                 "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["offset_db"] == pytest.approx(7.0, abs=1e-9)
    assert report["rmse_db"] == pytest.approx(0.0, abs=1e-9)
    assert report["n_overlap"] == 200
    assert report["n_excluded"] == 0


def test_plate_too_wide_for_its_curvature_is_validation_error(tmp_path, capsys):
    # The config is valid, but its arc reflects the capture lines out of
    # order at sweep time: that names the radius (exit 1), not a crash (2).
    cfg = write_config(tmp_path, "band = 28\nreflector.kind = convex\nreflector.width = 20\n"
                       "reflector.radius_of_curvature = 10.1\ngeometry.n_positions = 101\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reflector.radius_of_curvature: "
                          "arc reflection map is not monotone for this geometry")
    assert "reflector.width" in err
    assert not (tmp_path / "out").exists()


def test_plate_too_tall_for_its_link_is_validation_error(tmp_path, capsys):
    # A reflected ray off a plate 1e9 m tall, 1 mm from the TX, runs vertical
    # at sweep time: that names the height (exit 1), not the radius.
    cfg = write_config(tmp_path, "band = 28\nreflector.kind = convex\n"
                       "reflector.radius_of_curvature = 0.5\nreflector.height = 1e9\n"
                       "geometry.tx_range = 1e-3\ngeometry.n_positions = 11\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reflector.height: reflected ray is vertical")
    assert "radius" not in err
    assert not (tmp_path / "out").exists()


def test_compare_missing_measured_file_is_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["compare", "--config", str(cfg), str(tmp_path / "nope.csv")]) == 2


@pytest.mark.parametrize("text, error", [
    ("position_m,power_db,note\n0.0,-54.0,a\n0.001,-55.0\n", "row 3: expected 3 columns"),
    ("position_m,power_db\n\n", "no data rows")], ids=["short_row", "header_only"])
def test_compare_rejects_a_measured_csv_without_full_rows(tmp_path, capsys, text, error):
    cfg = write_config(tmp_path)
    measured = tmp_path / "measured.csv"
    measured.write_text(text)
    assert main(["compare", "--config", str(cfg), str(measured)]) == 2
    assert capsys.readouterr().err == f"error: {measured}: {error}\n"


def test_compare_rejects_a_power_beyond_the_bound(tmp_path, capsys):
    cfg = write_config(tmp_path)
    measured = tmp_path / "loud.csv"
    rows = [f"{i * 0.001!r},{5000.0 if i == 200 else -60.0}" for i in range(400)]
    measured.write_text("position_m,power_db\n" + "\n".join(rows) + "\n")
    assert main(["compare", "--config", str(cfg), str(measured)]) == 2
    captured = capsys.readouterr()
    assert f"{measured}: row 202: power" in captured.err
    assert captured.out == ""


def test_bands_lists_all_three(capsys):
    assert main(["bands"]) == 0
    assert capsys.readouterr().out == (
        "    band  freq_ghz  tx_dbm  gain_dbi  hpbw_az  hpbw_el   lambda_m  facets\n"
        "   28ghz        28     -10        17       24       26   0.010707      36\n"
        "   39ghz        39     -10        20       16       15   0.007687      36\n"
        "  120ghz       120      10        21       13       13   0.002498     256\n"
    )


@pytest.mark.parametrize("missing", [True, False], ids=["missing_file", "directory"])
def test_unreadable_config_is_validation_error_naming_the_path(tmp_path, capsys, missing):
    cfg = tmp_path / "nope.cfg" if missing else tmp_path
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    reason = "No such file or directory" if missing else "Is a directory"
    # No key and no line: the error is the file's, not a value's.
    assert capsys.readouterr().err == f"error: cannot read config file {str(cfg)!r}: {reason}\n"
    assert not out.exists()


def test_non_number_in_a_length_key_names_its_line_and_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "band = 28\nreflector.width = wide\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: line 2: reflector.width: expected a number, got 'wide'\n")
    assert not (tmp_path / "out").exists()


def test_compare_without_out_writes_the_report_to_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path)
    measured = tmp_path / "measured.csv"
    export_profile(PowerProfile(np.arange(200) * 1e-3, np.full(200, -60.0)), measured)
    assert main(["compare", "--config", str(cfg), str(measured)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["sim_label"] == "28ghz_flat"
    assert captured.err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["measured.csv", "scenario.cfg"]


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: reflectsim")


def test_output_directory_that_cannot_be_made_fails_before_the_sweep(tmp_path, capsys,
                                                                    monkeypatch):
    # A regular file where the output directory, or one of its parents,
    # should be: the error that making it gives (exit 2), with no sweep run
    # and nothing made.
    afile = tmp_path / "afile"
    afile.write_text("")
    monkeypatch.setattr(cli, "run_sweep", lambda config: pytest.fail("the sweep ran"))
    for out in (afile, afile / "x", afile / "x" / "y"):
        with pytest.raises(OSError) as made:
            out.mkdir(parents=True, exist_ok=True)
        assert main(["simulate", "--band", "28", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {made.value}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
