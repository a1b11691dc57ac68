import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reflectsim.metrics import PowerProfile, analyze, compare
from reflectsim.profile_io import (
    ProfileFormatError,
    export_profile,
    import_measured,
)


def tiny_profile(label="28ghz_flat"):
    return PowerProfile(
        positions_m=np.array([0.0, 0.001]),
        power_db=np.array([-54.123456789, -60.0]),
        label=label,
    )


def test_csv_export_layout(tmp_path):
    path = tmp_path / "p.csv"
    export_profile(tiny_profile(), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "position_m,power_db"
    assert lines[1].startswith("0.0,")


def test_csv_round_trip_lossless(tmp_path):
    path = tmp_path / "p.csv"
    profile = tiny_profile()
    export_profile(profile, path)
    back = import_measured(path)
    assert np.array_equal(back.positions_m, profile.positions_m)
    assert np.array_equal(back.power_db, profile.power_db)
    assert back.label == "p"


def test_csv_round_trip_with_minus_inf(tmp_path):
    profile = PowerProfile(np.array([0.0, 0.5, 1.0]),
                           np.array([-60.0, -np.inf, -70.0]),
                           "x")
    path = tmp_path / "inf.csv"
    export_profile(profile, path)
    back = import_measured(path)
    assert np.array_equal(back.power_db, profile.power_db)


def test_export_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_profile(tiny_profile(), a)
    export_profile(tiny_profile(), b)
    assert a.read_bytes() == b.read_bytes()


def test_import_ignores_extra_columns(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text("position_m,power_db,notes\n0.0,-54.0,calibration\n0.001,-60.0,ok\n")
    profile = import_measured(path)
    assert_allclose(profile.power_db, [-54.0, -60.0])


def test_import_rejects_out_of_order_positions(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("position_m,power_db\n0.0,-54.0\n0.002,-55.0\n0.001,-56.0\n")
    with pytest.raises(ProfileFormatError, match="row 4"):
        import_measured(path)


def test_import_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    for row in ("abc,-55.0", "nan,-55.0", "inf,-55.0", "-inf,-55.0",
                "0.001,nan", "0.001,inf", "0.001,+inf"):
        path.write_text(f"position_m,power_db\n0.0,-54.0\n{row}\n")
        with pytest.raises(ProfileFormatError, match=re.escape(f"{path}: row 3")):
            import_measured(path)
    # A -inf power is the no-capture sentinel and stays accepted.
    path.write_text("position_m,power_db\n0.0,-54.0\n0.001,-inf\n")
    assert import_measured(path).power_db[1] == float("-inf")


def test_import_bounds_the_power_so_the_metrics_stay_finite(tmp_path):
    path = tmp_path / "loud.csv"
    for power in ("3000.0000001", "5000", "-3000.0000001", "-1e300"):
        path.write_text(f"position_m,power_db\n0.0,-54.0\n0.001,{power}\n")
        with pytest.raises(ProfileFormatError, match=re.escape(f"{path}: row 3: power")):
            import_measured(path)
    # At the bound, a smoothing window full of the loudest power and residuals
    # against the quietest one stay finite (a RuntimeWarning fails the suite).
    rows = [f"{i * 0.001!r},{3000.0 if i < 100 else -3000.0}" for i in range(200)]
    path.write_text("position_m,power_db\n" + "\n".join(rows) + "\n")
    measured = import_measured(path)
    assert np.isfinite(analyze(measured).envelope_dynamic_range_db)
    flat = PowerProfile(measured.positions_m, np.full(200, -3000.0))
    assert np.isfinite(compare(flat, measured).rmse_db)


def test_import_requires_schema_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0,1\n")
    with pytest.raises(ProfileFormatError, match="position_m"):
        import_measured(path)


def test_import_reads_a_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with U+FEFF.
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffposition_m,power_db\n0.0,-54.5\n0.001,-60.0\n", encoding="utf-8")
    measured = import_measured(path)
    assert measured.positions_m.tolist() == [0.0, 0.001]
    assert measured.power_db.tolist() == [-54.5, -60.0]


def test_import_names_the_row_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("position_m,power_db,note\n0.0,-54.0,ok\n0.001,-55.0,café\n"
                     .encode("latin-1"))
    with pytest.raises(ProfileFormatError,
                       match=re.escape(f"{path}: row 3: not UTF-8 text (byte 0xe9)")):
        import_measured(path)


def test_import_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ProfileFormatError, match="empty"):
        import_measured(path)


def test_import_names_the_row_past_blank_lines(tmp_path):
    # Blank lines are skipped, but a rule broken by a sample names its row.
    path = tmp_path / "gaps.csv"
    path.write_text("position_m,power_db\n0.0,-54.0\n\n0.001,-55.0\n\n\n0.001,-56.0\n")
    with pytest.raises(ProfileFormatError, match=re.escape(
            f"{path}: row 7: positions must be strictly increasing, got 0.001")):
        import_measured(path)
