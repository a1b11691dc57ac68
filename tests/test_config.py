
import argparse
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import reflectsim
from reflectsim import config as config_module, scene
from reflectsim.antenna import Band
from reflectsim.cli import build_parser, main
from reflectsim.config import ConfigError, ScenarioConfig, dump_config, parse_config
from reflectsim.engine import SumMode
from reflectsim.runner import run_sweep
from reflectsim.scene import INCH_M, convex_captures

ROOT = Path(__file__).resolve().parents[1]

# Every key whose value is a float or a length, read off the key table.
_NUMBER_PARSERS = (config_module._parse_float, config_module._parse_length)
NUMBER_KEYS = sorted(key for key, (_, parser, *_) in config_module._KEY_TABLE.items()
                     if parser in _NUMBER_PARSERS)


def test_empty_text_with_band_flag_gives_full_defaults():
    cfg = parse_config("", {"band": "28"})
    assert cfg.band is Band.GHZ28
    assert cfg.reflector_kind == "flat"
    assert cfg.mode is SumMode.PHYSICAL
    assert cfg.n_positions == 1800
    assert_allclose(cfg.width_m, 0.4064)
    scn = cfg.to_scenario()
    assert scn.reflector.facets_per_side == 6
    assert_allclose(scn.geometry.sweep_length_m, 1.8)


def test_inch_suffix_conversion():
    cfg = parse_config("band = 28\nreflector.width = 16in\n")
    assert_allclose(cfg.width_m, 0.4064, atol=1e-12)


def test_band_required_without_flag():
    with pytest.raises(ConfigError, match="band"):
        parse_config("")


def test_convex_requires_radius():
    with pytest.raises(ConfigError, match="reflector.radius_of_curvature"):
        parse_config("band = 39\nreflector.kind = convex\n")


def test_convex_via_default_reflector_flag_also_requires_radius():
    with pytest.raises(ConfigError, match="radius_of_curvature"):
        parse_config("band = 39\n", {"reflector.kind": "convex"})


def test_override_replaces_the_documents_value():
    text = "band = 28\nengine.mode = physical\noutput.dir = a\n"
    cfg = parse_config(text, {"band": "39ghz", "engine.mode": "literal", "output.dir": "b"})
    assert (cfg.band, cfg.mode, cfg.output_dir) == (Band.GHZ39, SumMode.LITERAL, "b")


@pytest.mark.parametrize("overrides, key", [
    ({"band": "60"}, "band"),
    ({"engine.mode": "exact"}, "engine.mode"),
    ({"output.format": "xml"}, "output.format"),
    ({"output.dir": " b"}, "output.dir"),
    ({"output.dir": ""}, "output.dir"),
    ({"reflector.color": "red"}, "reflector.color"),
])
def test_override_error_names_the_key_and_no_line(overrides, key):
    # output.dir is also set on line 2, where it is valid.
    with pytest.raises(ConfigError) as info:
        parse_config("band = 28\noutput.dir = a\n", overrides)
    assert info.value.key == key
    assert info.value.line is None


def test_override_kind_is_applied_before_the_kind_checks():
    with pytest.raises(ConfigError, match="line 2: reflector.facets_per_side: only valid for flat"):
        parse_config("band = 28\nreflector.facets_per_side = 8\n", {"reflector.kind": "convex"})
    text = "band = 28\nreflector.kind = convex\nreflector.radius_of_curvature = 0.5\n"
    with pytest.raises(ConfigError, match="line 3: reflector.radius_of_curvature: only valid for convex"):
        parse_config(text, {"reflector.kind": "flat"})


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("band = 28\n\nreflector.witdh = 16in\n")


def test_capture_distance_is_not_a_key():
    # None of these keys exists: the convex capture segment is sized at the RX
    # range, the phase reference and the attenuation are derived from the
    # geometry, the band fixes which horn plane is azimuth, every profile is
    # written as CSV, and a convex plate always sums 16 height sections x 32
    # azimuth targets.
    for key, value in [("engine.capture_distance", "2.5"), ("engine.d_ref", "5.0"),
                       ("engine.alpha_flat", "0.2"), ("engine.alpha_curved", "0.07"),
                       ("antenna.eh_swap", "true"), ("output.format", "csv"),
                       ("reflector.section_height", "auto"),
                       ("reflector.azimuth_ray_spacing", "0.01")]:
        text = ("band = 28\nreflector.kind = convex\nreflector.radius_of_curvature = 0.5\n"
                f"{key} = {value}\n")
        with pytest.raises(ConfigError, match="unknown key") as info:
            parse_config(text)
        assert (info.value.key, info.value.line) == (key, 4)


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("band = 28\nnot a key value pair\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match="geometry.n_positions"):
        parse_config("band = 28\ngeometry.n_positions = many\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("band = 28\nband = 39\n")


def test_flat_only_key_rejected_for_convex():
    text = "band = 28\nreflector.kind = convex\nreflector.radius_of_curvature = 0.5\n" \
           "reflector.facets_per_side = 6\n"
    with pytest.raises(ConfigError, match="facets_per_side"):
        parse_config(text)


def test_convex_only_key_rejected_for_flat(tmp_path, capsys):
    text = "band = 28\nreflector.radius_of_curvature = 0.5\n"
    with pytest.raises(ConfigError, match="only valid for convex reflectors") as info:
        parse_config(text)
    assert (info.value.key, info.value.line) == ("reflector.radius_of_curvature", 2)

    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert ("line 2: reflector.radius_of_curvature: only valid for convex reflectors"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field, key", [
    ("radius_of_curvature_m", "reflector.radius_of_curvature"),
])
def test_convex_field_rejected_on_flat_config(field, key):
    # A flat scenario ignores the field and dump_config drops it.
    with pytest.raises(ConfigError, match="only valid for convex reflectors") as info:
        ScenarioConfig(band=Band.GHZ28, **{field: 0.05})
    assert info.value.key == key


def test_facet_count_rejected_on_convex_config():
    with pytest.raises(ConfigError, match="only valid for flat reflectors") as info:
        ScenarioConfig(band=Band.GHZ28, reflector_kind="convex", facets_per_side=6)
    assert info.value.key == "reflector.facets_per_side"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# scenario\nband = 120  # sub-THz\n\ngeometry.n_positions = 600\n")
    assert cfg.band is Band.GHZ120
    assert cfg.n_positions == 600


@pytest.mark.parametrize(
    "line, match",
    [
        ("reflector.reflection_efficiency = 1.5", "reflection_efficiency"),
        ("geometry.incidence_deg = 95", "incidence_deg"),
        ("geometry.n_positions = 1", "n_positions"),
        ("output.format = xml", "format"),
        ("engine.mode = fast", "mode"),
    ],
)
def test_validation_failures(line, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(f"band = 28\n{line}\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", NUMBER_KEYS)
def test_non_finite_number_rejected_with_key_and_line(key, value, tmp_path, capsys):
    assert {"reflector.radius_of_curvature", "reflector.width",
            "geometry.tx_range"} <= set(NUMBER_KEYS)
    lines = ["band = 28"]
    if config_module._KIND_KEYS.get(key) == "convex":
        lines.append("reflector.kind = convex")
        if key != "reflector.radius_of_curvature":
            lines.append("reflector.radius_of_curvature = 0.5")
    lines.append(f"{key} = {value}")
    text = "\n".join(lines) + "\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert (info.value.key, info.value.line) == (key, len(lines))
    assert "finite" in str(info.value)

    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"line {len(lines)}: {key}" in capsys.readouterr().err


def test_convex_radius_must_exceed_half_chord():
    text = "band = 28\nreflector.kind = convex\nreflector.radius_of_curvature = 0.1\n"
    with pytest.raises(ConfigError, match="chord"):
        parse_config(text)


def test_dump_round_trip_flat_defaults():
    cfg = parse_config("", {"band": "39"})
    assert parse_config(dump_config(cfg)) == cfg


def test_dump_round_trip_convex_custom():
    text = (
        "band = 120\n"
        "engine.mode = literal\n"
        "reflector.kind = convex\n"
        "reflector.radius_of_curvature = 0.5\n"
        "reflector.reflection_efficiency = 0.85\n"
        "geometry.sweep_offset = -0.1\n"
        "geometry.n_positions = 333\n"
        "output.label = demo_run\n"
    )
    cfg = parse_config(text)
    round_tripped = parse_config(dump_config(cfg))
    assert round_tripped == cfg
    assert round_tripped.label == "demo_run"


def test_dump_is_idempotent():
    cfg = parse_config("", {"band": "28"})
    once = dump_config(cfg)
    twice = dump_config(parse_config(once))
    assert once == twice


def test_auto_values_accepted():
    cfg = parse_config("band = 28\nreflector.facets_per_side = auto\n")
    assert cfg.facets_per_side is None


def test_resolved_label_defaults_to_band_and_kind():
    cfg = parse_config("band = 120\n", {"reflector.kind": "flat"})
    assert cfg.resolved_label() == "120ghz_flat"


# (key, out-of-range value): every range rule of the key table at least once.
OUT_OF_RANGE = [
    ("reflector.width", "-1"),
    ("reflector.width", "0"),
    ("reflector.height", "-1"),
    ("reflector.facets_per_side", "0"),
    ("reflector.facets_per_side", "-3"),
    ("reflector.radius_of_curvature", "0.1"),
    ("reflector.reflection_efficiency", "0"),
    ("reflector.reflection_efficiency", "1.5"),
    ("geometry.tx_range", "-1"),
    ("geometry.rx_range", "-1"),
    ("geometry.rx_range", "0.1"),  # sweep reaches the reflector plane
    ("geometry.incidence_deg", "-5"),
    ("geometry.incidence_deg", "90"),
    ("geometry.sweep_length", "0"),
    # Lengths outside [1e-6, 1e9] m. A width or height of 1e200 ran with
    # overflow warnings and exited 0; tx_range 1e308 and 1e-162 exited 2.
    ("geometry.sweep_length", "1e-20"),
    ("geometry.rx_range", "1e160"),
    ("reflector.width", "1e200"),
    ("reflector.height", "1e200"),
    ("geometry.tx_range", "1e308"),
    ("geometry.tx_range", "1e-162"),
    ("geometry.n_positions", "1"),
    ("geometry.n_positions", "0"),
    ("geometry.sweep_offset", "-5"),  # sweep reaches the reflector plane
    # More than 256 facets per side.
    ("reflector.facets_per_side", "257"),
    # A label names files inside output.dir: "../a" wrote outside it, and
    # "runs/a" failed at run time.
    ("output.label", "runs/a"),
    ("output.label", "../a"),
]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_out_of_range_value_names_its_key_and_line(key, value, tmp_path, capsys):
    lines = ["# out-of-range probe", "band = 28"]
    if config_module._KIND_KEYS.get(key) == "convex":
        lines.append("reflector.kind = convex")
        if key != "reflector.radius_of_curvature":
            lines.append("reflector.radius_of_curvature = 0.5")
    lines.append(f"{key} = {value}")
    text = "\n".join(lines) + "\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert (info.value.key, info.value.line) == (key, len(lines))

    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"line {len(lines)}: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["flat", "convex"])
def test_sweep_reaching_the_reflector_is_rejected(kind):
    text = f"band = 28\nreflector.kind = {kind}\n"
    if kind == "convex":
        text += "reflector.radius_of_curvature = 0.5\n"
    with pytest.raises(ConfigError, match="in front of the reflector") as info:
        parse_config(text + "geometry.rx_range = 0.1\ngeometry.n_positions = 12\n")
    assert info.value.key == "geometry.rx_range"
    # With geometry.rx_range left at its default, the rule names the sweep
    # key written last.
    with pytest.raises(ConfigError) as info:
        parse_config(text + "geometry.sweep_offset = -1\ngeometry.sweep_length = 8\n")
    assert info.value.key == "geometry.sweep_length"
    assert info.value.line == text.count("\n") + 2
    # An override counts as written after every line.
    with pytest.raises(ConfigError) as info:
        parse_config(text + "geometry.sweep_length = 8\n", {"geometry.sweep_offset": "-1"})
    assert (info.value.key, info.value.line) == ("geometry.sweep_offset", None)
    with pytest.raises(ConfigError) as info:
        parse_config(text + "geometry.incidence_deg = 89\n")
    assert (info.value.key, info.value.line) == ("geometry.incidence_deg", text.count("\n") + 1)


def test_configs_built_in_code_are_checked_too():
    with pytest.raises(ConfigError) as info:
        ScenarioConfig(band=Band.GHZ28, height_m=-1.0)
    assert (info.value.key, info.value.line) == ("reflector.height", None)
    with pytest.raises(ConfigError, match="reflector.reflection_efficiency"):
        ScenarioConfig(band=Band.GHZ28, reflection_efficiency=float("nan"))
    with pytest.raises(ConfigError, match="geometry.rx_range"):
        ScenarioConfig(band=Band.GHZ28, rx_range_m=0.1)
    with pytest.raises(TypeError):
        ScenarioConfig(Band.GHZ28, "flat")  # fields are keyword-only
    # Values the parser could never produce are rejected the same way.
    for field, value, key in [("sweep_offset_m", float("inf"), "geometry.sweep_offset"),
                              ("tx_range_m", float("inf"), "geometry.tx_range"),
                              ("reflector_kind", "parabolic", "reflector.kind"),
                              ("output_dir", "", "output.dir"),
                              ("output_dir", "runs # 2", "output.dir"),
                              ("label", "two\nlines", "output.label"),
                              ("label", " padded", "output.label"),
                              ("label", "a\0b", "output.label"),
                              ("output_dir", "out\0", "output.dir"),
                              # An int is held to a float field's range: width 0
                              # used to fail only in to_scenario(), and 10**12
                              # to construct and then fail to round-trip.
                              ("width_m", 0, "reflector.width"),
                              ("tx_range_m", 10**12, "geometry.tx_range"),
                              ("tx_range_m", 10**400, "geometry.tx_range"),
                              ("width_m", "0.3", "reflector.width"),
                              # A bool is not a number in any number field.
                              ("width_m", True, "reflector.width"),
                              ("facets_per_side", True, "reflector.facets_per_side"),
                              ("n_positions", True, "geometry.n_positions"),
                              ("n_positions", 12.0, "geometry.n_positions"),
                              # 10**12 positions used to fail allocating 7.28 TiB.
                              ("n_positions", 10**12, "geometry.n_positions")]:
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(band=Band.GHZ28, **{field: value})
        assert info.value.key == key
    # A value of the wrong type is rejected naming the type expected: band=None
    # used to raise a bare ValueError, label=5 to construct and then fail to
    # round-trip, and band="28" to get the message for a multi-line value.
    for field, value, key, message in [
            ("band", None, "band", "expected a Band, got None"),
            ("band", "28", "band", "expected a Band, got '28'"),
            ("mode", "physical", "engine.mode", "expected a SumMode, got 'physical'"),
            ("reflector_kind", "Flat", "reflector.kind", "expected 'flat', got 'Flat'"),
            ("label", 5, "output.label", "expected a str, got 5"),
            ("output_dir", 3, "output.dir", "expected a str, got 3"),
            ("width_m", None, "reflector.width", "must be a number")]:
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(**{"band": Band.GHZ28, field: value})
        assert (info.value.key, info.value.message) == (key, message)
    # An int in range is stored as a float, so the config dumps as it parses.
    config = ScenarioConfig(band=Band.GHZ28, width_m=1, tx_range_m=3)
    assert (type(config.width_m), type(config.tx_range_m)) == (float, float)
    assert parse_config(dump_config(config)) == config
    counted = ScenarioConfig(band=Band.GHZ28, n_positions=np.int64(12))
    assert parse_config(dump_config(counted)) == counted


def test_length_keys_share_one_range():
    lo, hi = config_module._MIN_LENGTH_M, config_module._MAX_LENGTH_M
    # Five keys share one range object; the offset is bounded in magnitude.
    length_keys = {key for key, row in config_module._KEY_TABLE.items()
                   if row[3] is config_module._LENGTH_RANGE} | {"geometry.sweep_offset"}
    assert length_keys == {
        "reflector.width", "reflector.height", "geometry.tx_range",
        "geometry.rx_range", "geometry.sweep_length", "geometry.sweep_offset"}
    convex = dict(reflector_kind="convex", radius_of_curvature_m=0.5)
    for key in sorted(length_keys):
        field = config_module._KEY_TABLE[key][0]
        kind = convex if config_module._KIND_KEYS.get(key) == "convex" else {}
        # The offset may be 0 or negative: only its magnitude is bounded.
        below = (-math.nextafter(hi, math.inf) if key == "geometry.sweep_offset"
                 else math.nextafter(lo, 0.0))
        for value in (below, math.nextafter(hi, math.inf)):
            with pytest.raises(ConfigError, match=r"1e\+09") as info:
                ScenarioConfig(band=Band.GHZ28, **{**kind, field: value})
            assert info.value.key == key
    # Both ends of the range are in it.
    ScenarioConfig(band=Band.GHZ28, width_m=lo, height_m=hi, tx_range_m=hi, sweep_offset_m=hi)
    ScenarioConfig(band=Band.GHZ28, width_m=hi, tx_range_m=lo, sweep_length_m=lo,
                   sweep_offset_m=-lo)
    # A convex plate at both ends of the range.
    ScenarioConfig(band=Band.GHZ28, reflector_kind="convex", width_m=lo, radius_of_curvature_m=lo,
                   height_m=lo, rx_range_m=hi)
    ScenarioConfig(band=Band.GHZ28, reflector_kind="convex", radius_of_curvature_m=0.5,
                   height_m=hi, rx_range_m=lo, sweep_length_m=lo)
    # The radius only has to exceed half the chord; far past the planar-limit
    # flag it still runs clean.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                                radius_of_curvature_m=1e300, n_positions=5)
        assert np.all(np.isfinite(run_sweep(config).power_db))
    # Every length key takes an inch suffix, and the range applies after it.
    assert parse_config("band = 28\ngeometry.tx_range = 100in\n").tx_range_m == 100 * INCH_M
    with pytest.raises(ConfigError, match="geometry.tx_range"):
        parse_config("band = 28\ngeometry.tx_range = 4e10in\n")


KINDS = [dict(reflector_kind="flat"),
         dict(reflector_kind="convex", radius_of_curvature_m=0.5)]


def _target_spacings(scn):
    """Distances between adjacent azimuth targets on the specular RX's capture segment."""
    rx = scn.geometry.sweep_midpoint[None, :]
    _, (intercepts,) = convex_captures(scn.reflector, scn.geometry, rx, scn.rx_pattern)
    return np.linalg.norm(np.diff(intercepts, axis=0), axis=1)


def _none_fields(obj):
    return [f.name for f in dataclasses.fields(obj) if getattr(obj, f.name) is None]


@pytest.mark.parametrize("kind", KINDS, ids=["flat", "convex"])
@pytest.mark.parametrize("band", list(Band))
def test_every_auto_value_is_resolved_to_its_closed_form(band, kind):
    cfg = ScenarioConfig(band=band, **kind)
    scn = cfg.to_scenario()
    assert _none_fields(scn) == []
    assert _none_fields(scn.reflector) == []
    g = scn.geometry
    assert isinstance(scn.d_ref_m, float)
    assert abs(scn.d_ref_m - 5.0) < 1e-12  # 2.5 m out to the plate and 2.5 m back
    assert abs(g.rx_range_m - 2.5) < 1e-12
    # The plate's share of the TX main-lobe footprint: an ellipse with semi-axes
    # 2.5*tan(HPBW/2), the elevation one stretched by 1/cos(30deg), and the
    # plate area foreshortened by cos(30deg).
    horn = scn.tx_pattern
    cos_inc = math.cos(math.radians(30.0))
    semi_az = 2.5 * math.tan(math.radians(horn.hpbw_az_deg) / 2.0)
    semi_el = 2.5 * math.tan(math.radians(horn.hpbw_el_deg) / 2.0) / cos_inc
    flat = cfg.width_m * cfg.height_m * cos_inc / (math.pi * semi_az * semi_el)
    if cfg.reflector_kind == "flat":
        assert_allclose(scn.alpha, flat, rtol=1e-12)
        return
    # 16 height sections x 32 azimuth targets, exactly: no ray bound is
    # checked for a convex plate.
    assert scene._HEIGHT_SECTIONS == 16
    spacings = _target_spacings(scn)
    assert spacings.size == 32 - 1
    d = g.rx_range_m
    hpbw = math.radians(scn.rx_pattern.hpbw_az_deg)
    assert_allclose(spacings, 2.0 * d * math.tan(hpbw / 2.0) / 32.0, rtol=1e-12)
    r = scn.reflector.radius_of_curvature_m
    assert_allclose(scn.alpha, flat * r / (r + 2.0 * d), rtol=1e-12)
    flat_scn = ScenarioConfig(band=band, reflector_kind="flat").to_scenario()
    assert scn.alpha == flat_scn.alpha * r / (r + 2.0 * d)


def test_each_set_value_wins_over_its_default():
    # The one auto key: a set value reaches the reflector spec.
    scn = ScenarioConfig(band=Band.GHZ39, facets_per_side=9).to_scenario()
    assert scn.reflector.facets_per_side == 9


def test_each_set_convex_value_wins_over_its_default():
    base = dict(band=Band.GHZ39, reflector_kind="convex", radius_of_curvature_m=0.5)
    scn = ScenarioConfig(rx_range_m=4.0, **base).to_scenario()
    # The target spacing follows the RX range.
    hpbw = math.radians(scn.rx_pattern.hpbw_az_deg)
    assert_allclose(_target_spacings(scn), 2.0 * 4.0 * math.tan(hpbw / 2.0) / 32.0, rtol=1e-12)


@pytest.mark.parametrize("radius", [1e6, 1e300])
def test_planar_limit_config_gets_the_flat_spec(radius, monkeypatch):
    # The planar limit is decided here and nowhere else: the flat grid follows
    # scene's height-section count, and alpha keeps the curved factor.
    monkeypatch.setattr(scene, "_HEIGHT_SECTIONS", 7)
    sizes = dict(band=Band.GHZ39, reflector_kind="convex", width_m=0.3, height_m=0.35,
                 reflection_efficiency=0.6)
    scn = ScenarioConfig(radius_of_curvature_m=radius, **sizes).to_scenario()
    assert scn.reflector == scene.FlatReflectorSpec(0.3, 0.35, 7, 0.6)
    flat = ScenarioConfig(band=Band.GHZ39, width_m=0.3, height_m=0.35,
                          reflection_efficiency=0.6).to_scenario()
    assert scn.alpha == flat.alpha * radius / (radius + 2.0 * scn.geometry.rx_range_m)
    below = ScenarioConfig(radius_of_curvature_m=999_999.0, **sizes).to_scenario()
    assert below.reflector == scene.ConvexReflectorSpec(0.3, 0.35, 999_999.0, 0.6)


def test_rays_per_position_are_bounded():
    # A flat 256/side block of 200 RX positions peaked at 1.3 GB. A convex
    # plate always sums 16 x 32 rays (see the closed-form test above).
    assert config_module._MAX_FACETS_PER_SIDE == 256
    ScenarioConfig(band=Band.GHZ28, facets_per_side=256)
    with pytest.raises(ConfigError, match=r"must be in \[1, 256\] or 'auto'") as info:
        ScenarioConfig(band=Band.GHZ28, facets_per_side=257)
    assert info.value.key == "reflector.facets_per_side"


def test_readme_lists_every_key_in_table_order():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()]
    assert keys == list(config_module._KEY_TABLE)


def test_readme_flag_table_matches_the_parser():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = {tuple(cell.strip().strip("`") for cell in line.split("|")[1:3])
             for line in readme.splitlines() if line.startswith("| `--")}
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = {(flag, action.dest) for name in ("simulate", "compare")
             for action in commands[name]._actions if action.dest in config_module._KEY_TABLE
             for flag in action.option_strings}
    assert table == flags


def test_readme_api_table_matches_all():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    names = [line.split("|")[1].strip().strip("`")
             for line in section.splitlines() if line.startswith("| `")]
    assert names == list(reflectsim.__all__)


def _number(low, high):
    return st.floats(low, high, allow_nan=False).map(lambda x: repr(round(x, 3)))


def _auto_or(strategy):
    return st.one_of(st.just("auto"), strategy)


# key -> (in-range values, out-of-range values). Resolutions stay coarse (at
# most 12 RX positions, 8 facets/side, and a convex plate sums 512 rays), so
# no example sums more than about 1e4 rays. In-range values can still break
# a rule that joins two keys (radius vs. width, sweep vs. reflector plane).
_VALUES = {
    "engine.mode": (st.sampled_from(["physical", "literal"]), ["fast"]),
    "reflector.width": (_number(0.05, 1.0), ["0", "-0.1", "inf"]),
    "reflector.height": (_number(0.05, 1.0), ["0", "-1"]),
    "reflector.facets_per_side": (_auto_or(st.integers(1, 8).map(str)), ["0", "-1", "2.5"]),
    "reflector.radius_of_curvature": (st.one_of(_number(0.3, 5.0), st.just("1e6")),
                                      ["0.05", "-1", "0"]),
    "reflector.reflection_efficiency": (_number(0.01, 1.0), ["0", "1.2", "-0.1"]),
    "geometry.tx_range": (_number(0.2, 6.0), ["0", "-1"]),
    "geometry.rx_range": (_number(0.2, 6.0), ["0", "-1"]),
    "geometry.incidence_deg": (_number(0.0, 89.9), ["90", "-10", "100"]),
    "geometry.sweep_length": (_number(0.01, 5.0), ["0", "-0.5"]),
    "geometry.n_positions": (st.integers(2, 12).map(str), ["1", "0", "-1", "100001"]),
    "geometry.sweep_offset": (_number(-5.0, 5.0), ["nan", "1e400"]),
}


# Length keys whose magnitudes are also drawn log-uniformly over
# 1e-300..1e300, far past both ends of the length range.
_SPREAD = ("reflector.width", "reflector.height", "reflector.radius_of_curvature",
           "geometry.tx_range", "geometry.rx_range", "geometry.sweep_length",
           "geometry.sweep_offset")


def _magnitude(signed):
    value = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)
    if signed:
        value = st.tuples(st.sampled_from([1.0, -1.0]), value).map(lambda sv: sv[0] * sv[1])
    return value.map(repr)


@st.composite
def _documents(draw):
    kind = draw(st.sampled_from(["flat", "convex"]))
    foreign = {key for key, only in config_module._KIND_KEYS.items() if only != kind}
    keys = draw(st.lists(st.sampled_from(sorted(set(_VALUES) - foreign)), unique=True, max_size=8))
    # The default 1800 positions would make a convex example take seconds.
    keys += [key for key in ("geometry.n_positions", "reflector.radius_of_curvature")
             if key not in keys and key not in foreign]
    values = {key: draw(_VALUES[key][0]) for key in keys}
    for key in keys:
        if key in _SPREAD and draw(st.booleans()):
            values[key] = draw(_magnitude(signed=key == "geometry.sweep_offset"))
    broken = draw(st.one_of(st.none(), st.sampled_from(keys)))
    if broken is not None:
        values[broken] = draw(st.sampled_from(_VALUES[broken][1]))
    lines = [f"band = {draw(st.sampled_from(['28', '39', '120']))}", f"reflector.kind = {kind}"]
    lines += [f"{key} = {value}" for key, value in values.items()]
    return draw(st.permutations(lines))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_documents())
def test_every_document_is_rejected_with_key_and_line_or_runs_clean(lines):
    text = "\n".join(lines) + "\n"
    line_of = {line.split(" = ")[0]: n for n, line in enumerate(lines, start=1)}
    try:
        config = parse_config(text)
    except ConfigError as exc:
        assert exc.key is not None
        if exc.key in line_of:
            assert exc.line == line_of[exc.key], str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        power = run_sweep(config).power_db
    assert np.all(np.isfinite(power) | np.isneginf(power))


def _any_float():
    # ints and bools too: a bool is rejected and an int stored as a float.
    return st.one_of(st.floats(0.01, 5.0), st.floats(-10.0, 100.0), st.floats(),
                     st.integers(-2, 10**12), st.booleans())


# ScenarioConfig field -> values of its declared type, in range or not.
_FIELD_VALUES = {
    "mode": st.sampled_from(list(SumMode)),
    "reflector_kind": st.sampled_from(["flat", "convex", "parabolic"]),
    "width_m": _any_float(),
    "height_m": _any_float(),
    "facets_per_side": st.one_of(st.none(), st.integers(-1, 64), st.booleans()),
    "radius_of_curvature_m": _any_float(),
    "reflection_efficiency": _any_float(),
    "tx_range_m": _any_float(),
    "rx_range_m": _any_float(),
    "incidence_deg": _any_float(),
    "sweep_length_m": _any_float(),
    "n_positions": st.one_of(st.integers(-1, 5000), st.booleans()),
    "sweep_offset_m": _any_float(),
    "output_dir": st.one_of(st.sampled_from(["runs/a b", "", "a#b", "out "]), st.text(max_size=8)),
    "label": st.one_of(st.sampled_from(["run=1", "auto", "x\ny", "\x85"]), st.text(max_size=8)),
}


@st.composite
def _config_fields(draw):
    names = draw(st.lists(st.sampled_from(sorted(_FIELD_VALUES)), unique=True, max_size=6))
    fields = {name: draw(_FIELD_VALUES[name]) for name in names}
    return {"band": draw(st.sampled_from(list(Band))), **fields}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_config_fields())
def test_every_constructible_config_round_trips(fields):
    try:
        config = ScenarioConfig(**fields)
    except ConfigError as exc:
        assert exc.key is not None
        return
    assert parse_config(dump_config(config)) == config
