import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reflectsim.antenna import Band
from reflectsim.metrics import PowerProfile, analyze, compare
from reflectsim.profile_io import (
    ProfileFormatError,
    export_profile,
    import_measured,
    read_profile_json,
)


def tiny_profile(label="28ghz_flat"):
    return PowerProfile(
        positions_m=np.array([0.0, 0.001]),
        power_db=np.array([-54.123456789, -60.0]),
        band=Band.GHZ28,
        reflector_kind="flat",
        label=label,
    )


def test_csv_export_layout(tmp_path):
    path = tmp_path / "p.csv"
    export_profile(tiny_profile(), "csv", path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "position_m,power_db"
    assert lines[1].startswith("0.0,")


def test_csv_round_trip_lossless(tmp_path):
    path = tmp_path / "p.csv"
    profile = tiny_profile()
    export_profile(profile, "csv", path)
    back = import_measured(path, Band.GHZ28)
    assert np.array_equal(back.positions_m, profile.positions_m)
    assert np.array_equal(back.power_db, profile.power_db)
    assert back.label == "p"


def test_csv_round_trip_with_minus_inf(tmp_path):
    profile = PowerProfile(np.array([0.0, 0.5, 1.0]),
                           np.array([-60.0, -np.inf, -70.0]),
                           Band.GHZ39, "convex", "x")
    path = tmp_path / "inf.csv"
    export_profile(profile, "csv", path)
    back = import_measured(path, Band.GHZ28)
    assert np.array_equal(back.power_db, profile.power_db)


def test_json_export_schema(tmp_path):
    import json

    path = tmp_path / "p.json"
    export_profile(tiny_profile(), "json", path)
    doc = json.loads(path.read_text())
    assert doc["meta"]["schema_version"] == "1"
    assert doc["meta"]["band"] == "28ghz"
    assert doc["meta"]["kind"] == "flat"
    assert doc["meta"]["label"] == "28ghz_flat"
    assert len(doc["positions_m"]) == len(doc["power_db"]) == 2


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_json_round_trip_lossless(tmp_path):
    path = tmp_path / "p.json"
    profile = PowerProfile(np.array([0.0, 0.001, 0.002]),
                           np.array([-54.123456789, -np.inf, -60.0]),
                           Band.GHZ28, "flat", "28ghz_flat")
    export_profile(profile, "json", path)
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert doc["power_db"] == [-54.123456789, None, -60.0]
    back = read_profile_json(path)
    assert np.array_equal(back.positions_m, profile.positions_m)
    assert np.array_equal(back.power_db, profile.power_db)
    assert back.band is Band.GHZ28


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="format"):
        export_profile(tiny_profile(), "xml", tmp_path / "p.xml")


def test_export_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_profile(tiny_profile(), "csv", a)
    export_profile(tiny_profile(), "csv", b)
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    export_profile(tiny_profile(), "json", ja)
    export_profile(tiny_profile(), "json", jb)
    assert ja.read_bytes() == jb.read_bytes()


def test_import_ignores_extra_columns(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text("position_m,power_db,notes\n0.0,-54.0,calibration\n0.001,-60.0,ok\n")
    profile = import_measured(path, Band.GHZ28)
    assert_allclose(profile.power_db, [-54.0, -60.0])


def test_import_rejects_out_of_order_positions(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("position_m,power_db\n0.0,-54.0\n0.002,-55.0\n0.001,-56.0\n")
    with pytest.raises(ProfileFormatError, match="row 4"):
        import_measured(path, Band.GHZ28)


def test_import_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    for row in ("abc,-55.0", "nan,-55.0", "inf,-55.0", "-inf,-55.0",
                "0.001,nan", "0.001,inf", "0.001,+inf"):
        path.write_text(f"position_m,power_db\n0.0,-54.0\n{row}\n")
        with pytest.raises(ProfileFormatError, match=re.escape(f"{path}: row 3")):
            import_measured(path, Band.GHZ28)
    # A -inf power is the no-capture sentinel and stays accepted.
    path.write_text("position_m,power_db\n0.0,-54.0\n0.001,-inf\n")
    assert import_measured(path, Band.GHZ28).power_db[1] == float("-inf")


def test_import_bounds_the_power_so_the_metrics_stay_finite(tmp_path):
    path = tmp_path / "loud.csv"
    for power in ("3000.0000001", "5000", "-3000.0000001", "-1e300"):
        path.write_text(f"position_m,power_db\n0.0,-54.0\n0.001,{power}\n")
        with pytest.raises(ProfileFormatError, match=re.escape(f"{path}: row 3: power")):
            import_measured(path, Band.GHZ28)
    # At the bound, a smoothing window full of the loudest power and residuals
    # against the quietest one stay finite (a RuntimeWarning fails the suite).
    rows = [f"{i * 0.001!r},{3000.0 if i < 100 else -3000.0}" for i in range(200)]
    path.write_text("position_m,power_db\n" + "\n".join(rows) + "\n")
    measured = import_measured(path, Band.GHZ28)
    assert np.isfinite(analyze(measured).envelope_dynamic_range_db)
    flat = PowerProfile(measured.positions_m, np.full(200, -3000.0), Band.GHZ28, "flat")
    assert np.isfinite(compare(flat, measured).rmse_db)


def test_json_read_bounds_the_power_like_the_csv_import(tmp_path):
    path = tmp_path / "loud.json"
    profile = PowerProfile(np.arange(200) * 0.001, np.full(200, -60.0), Band.GHZ28, "flat")
    export_profile(profile, "json", path)
    doc = json.loads(path.read_text())
    for power in (5000.0, -1e300):
        doc["power_db"][7] = power
        path.write_text(json.dumps(doc))
        with pytest.raises(ProfileFormatError, match=re.escape(f"{path}: power_db[7]: power")):
            read_profile_json(path)
    # The bound and the null (-inf) sentinel read back.
    doc["power_db"][7], doc["power_db"][8] = -3000.0, None
    path.write_text(json.dumps(doc))
    assert read_profile_json(path).power_db[7:9].tolist() == [-3000.0, -np.inf]


def test_json_read_rejects_a_non_finite_position(tmp_path):
    # json.loads reads Infinity and NaN. An infinite last position passed the
    # strictly-increasing check and, at the loudest sample, gave analyze a
    # peak_position_m of inf that no strict JSON writer accepts.
    path = tmp_path / "far.json"
    power = np.full(200, -60.0)
    power[-1] = -50.0
    export_profile(PowerProfile(np.arange(200) * 0.001, power, Band.GHZ28, "flat"), "json", path)
    doc = json.loads(path.read_text())
    for index, position in ((199, np.inf), (3, np.nan)):
        positions = list(doc["positions_m"])
        positions[index] = position
        path.write_text(json.dumps({**doc, "positions_m": positions}))
        with pytest.raises(ProfileFormatError,
                           match=re.escape(f"{path}: positions_m[{index}]: position")):
            read_profile_json(path)


def test_import_requires_schema_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0,1\n")
    with pytest.raises(ProfileFormatError, match="position_m"):
        import_measured(path, Band.GHZ28)


def test_import_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ProfileFormatError, match="empty"):
        import_measured(path, Band.GHZ28)


def test_import_tags_the_callers_band(tmp_path):
    # A band in the filename does not decide the tag.
    path = tmp_path / "sweep_120ghz_convex.csv"
    path.write_text("position_m,power_db\n0.0,-54.0\n0.001,-55.0\n")
    assert import_measured(path, Band.GHZ39).band is Band.GHZ39


# (name, edit of a valid 5-sample JSON document or replacement text, message
# after the file name): every malformed document is a ProfileFormatError
# that names the file, where PowerProfile, numpy, Band.parse or json.loads
# used to raise a bare ValueError.
MALFORMED_JSON = [
    ("reversed", lambda d: {**d, "positions_m": d["positions_m"][::-1]},
     "positions_m[1]: positions must be strictly increasing"),
    ("repeated", lambda d: {**d, "positions_m": [0.0, 0.001, 0.002, 0.002, 0.004]},
     "positions_m[3]: positions must be strictly increasing"),
    ("unequal", lambda d: {**d, "power_db": d["power_db"][:4]},
     "positions_m has 5 entries, power_db 4"),
    ("empty", lambda d: {**d, "positions_m": [], "power_db": []}, "no positions"),
    ("ragged", lambda d: {**d, "positions_m": [[0.0, 0.001], [0.002]]},
     "missing or malformed field"),
    ("nested", lambda d: {**d, "positions_m": [[0.0], [0.001], [0.002], [0.003], [0.004]]},
     "positions_m and power_db must be lists of numbers"),
    ("non-numeric position", lambda d: {**d, "positions_m": ["a"] * 5},
     "missing or malformed field"),
    ("non-numeric power", lambda d: {**d, "power_db": ["loud"] * 5},
     "missing or malformed field"),
    ("unknown band", lambda d: {**d, "meta": {**d["meta"], "band": "60"}},
     "missing or malformed field: unknown band '60'"),
    ("not JSON", "position_m,power_db\n0.0,-60.0\n", "missing or malformed field"),
    ("not UTF-8", b"\xff\xfe{}", "missing or malformed field"),
]


@pytest.mark.parametrize("edit, message", [case[1:] for case in MALFORMED_JSON],
                         ids=[case[0] for case in MALFORMED_JSON])
def test_json_read_names_the_file_for_every_malformed_document(tmp_path, edit, message):
    path = tmp_path / "bad.json"
    profile = PowerProfile(np.arange(5) * 0.001, np.full(5, -60.0), Band.GHZ28, "flat")
    export_profile(profile, "json", path)
    if isinstance(edit, bytes):
        path.write_bytes(edit)
    elif isinstance(edit, str):
        path.write_text(edit)
    else:
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ProfileFormatError, match=re.escape(f"{path}: {message}")):
        read_profile_json(path)
