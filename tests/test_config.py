
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from reflectsim import config as config_module
from reflectsim.antenna import Band
from reflectsim.cli import main
from reflectsim.config import ConfigError, ScenarioConfig, dump_config, parse_config
from reflectsim.engine import SumMode, alpha_flat
from reflectsim.runner import run_sweep
from reflectsim.scene import INCH_M

# Every key whose value is a float or a length, read off the key table.
_NUMBER_PARSERS = (config_module._parse_float, config_module._parse_auto_float,
                   config_module._parse_length, config_module._parse_auto_length)
NUMBER_KEYS = sorted(key for key, (_, parser) in config_module._KEY_TABLE.items()
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
    text = "band = 28\nengine.mode = physical\noutput.dir = a\noutput.format = csv\n"
    cfg = parse_config(text, {"band": "39ghz", "engine.mode": "literal",
                              "output.dir": "b", "output.format": "json"})
    assert (cfg.band, cfg.mode, cfg.output_dir, cfg.output_format) == (
        Band.GHZ39, SumMode.LITERAL, "b", "json")


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
    # The convex capture segment is sized at the RX range; no key sets it.
    text = ("band = 28\nreflector.kind = convex\nreflector.radius_of_curvature = 0.5\n"
            "engine.capture_distance = 2.5\n")
    with pytest.raises(ConfigError, match="unknown key") as info:
        parse_config(text)
    assert (info.value.key, info.value.line) == ("engine.capture_distance", 4)


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


def test_convex_only_key_rejected_for_flat():
    with pytest.raises(ConfigError, match="radius_of_curvature"):
        parse_config("band = 28\nreflector.radius_of_curvature = 0.5\n")


@pytest.mark.parametrize("line", ["engine.alpha_curved = 0.01"])
def test_convex_engine_key_rejected_for_flat(line, tmp_path, capsys):
    # A flat run has no curved factor.
    key = line.split(" = ")[0]
    text = f"band = 28\n{line}\n"
    with pytest.raises(ConfigError, match="only valid for convex reflectors") as info:
        parse_config(text)
    assert (info.value.key, info.value.line) == (key, 2)

    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"line 2: {key}: only valid for convex reflectors" in capsys.readouterr().err


@pytest.mark.parametrize("field, key", [
    ("alpha_curved", "engine.alpha_curved"),
    ("radius_of_curvature_m", "reflector.radius_of_curvature"),
    ("section_height_m", "reflector.section_height"),
    ("azimuth_ray_spacing_m", "reflector.azimuth_ray_spacing"),
])
def test_convex_field_rejected_on_flat_config(field, key):
    # A flat scenario ignores these fields and dump_config drops them.
    with pytest.raises(ConfigError, match="only valid for convex reflectors") as info:
        ScenarioConfig(band=Band.GHZ28, **{field: 0.05})
    assert info.value.key == key
    with pytest.raises(ConfigError, match="engine.alpha_curved"):
        ScenarioConfig(band=Band.GHZ28, alpha_curved=0.01, section_height_m=0.05)


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
        ("engine.alpha_flat = 2.0", "alpha_flat"),
        ("engine.d_ref = -1", "d_ref"),
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
    assert {"engine.d_ref", "reflector.width", "geometry.tx_range"} <= set(NUMBER_KEYS)
    lines = ["band = 28"]
    if key in config_module._CONVEX_ONLY_KEYS:
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
        "reflector.section_height = 0.0127\n"
        "reflector.reflection_efficiency = 0.85\n"
        "geometry.sweep_offset = -0.1\n"
        "geometry.n_positions = 333\n"
        "antenna.eh_swap = true\n"
        "output.format = json\n"
        "output.label = demo_run\n"
    )
    cfg = parse_config(text)
    round_tripped = parse_config(dump_config(cfg))
    assert round_tripped == cfg
    assert round_tripped.label == "demo_run"
    assert round_tripped.eh_swap is True


def test_dump_is_idempotent():
    cfg = parse_config("", {"band": "28"})
    once = dump_config(cfg)
    twice = dump_config(parse_config(once))
    assert once == twice


def test_scenario_wiring_of_engine_overrides():
    text = (
        "band = 28\n"
        "engine.d_ref = 12.5\n"
        "engine.alpha_flat = 0.2\n"
    )
    scn = parse_config(text).to_scenario()
    assert scn.d_ref_m == 12.5
    assert scn.alpha == 0.2


def test_scenario_wiring_of_convex_engine_overrides():
    text = (
        "band = 28\n"
        "reflector.kind = convex\n"
        "reflector.radius_of_curvature = 0.5\n"
        "engine.d_ref = 12.5\n"
        "engine.alpha_curved = 0.07\n"
    )
    scn = parse_config(text).to_scenario()
    assert scn.d_ref_m == 12.5
    assert scn.alpha == 0.07


def test_auto_values_accepted():
    cfg = parse_config("band = 28\nengine.d_ref = auto\nengine.alpha_flat = auto\n")
    assert cfg.d_ref_m is None
    assert cfg.alpha_flat is None


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
    ("reflector.section_height", "0"),
    ("reflector.section_height", "1.0"),
    ("reflector.azimuth_ray_spacing", "0"),
    ("reflector.azimuth_ray_spacing", "-0.01"),
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
    ("engine.d_ref", "0"),
    ("engine.d_ref", "-1"),
    ("engine.alpha_flat", "0"),
    ("engine.alpha_flat", "2"),
    ("engine.alpha_curved", "0"),
    ("engine.alpha_curved", "1.5"),
]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_out_of_range_value_names_its_key_and_line(key, value, tmp_path, capsys):
    lines = ["# out-of-range probe", "band = 28"]
    if key in config_module._CONVEX_ONLY_KEYS:
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
    with pytest.raises(ConfigError, match="engine.alpha_flat"):
        ScenarioConfig(band=Band.GHZ28, alpha_flat=float("nan"))
    with pytest.raises(ConfigError, match="geometry.rx_range"):
        ScenarioConfig(band=Band.GHZ28, rx_range_m=0.1)
    with pytest.raises(TypeError):
        ScenarioConfig(Band.GHZ28, "flat")  # fields are keyword-only
    # Values the parser could never produce are rejected the same way.
    for field, value, key in [("sweep_offset_m", float("inf"), "geometry.sweep_offset"),
                              ("tx_range_m", float("inf"), "geometry.tx_range"),
                              ("reflector_kind", "parabolic", "reflector.kind"),
                              ("output_format", "xml", "output.format"),
                              ("output_dir", "", "output.dir"),
                              ("output_dir", "runs # 2", "output.dir"),
                              ("label", "two\nlines", "output.label"),
                              ("label", " padded", "output.label")]:
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(band=Band.GHZ28, **{field: value})
        assert info.value.key == key


def test_length_keys_share_one_range():
    lo, hi = config_module._MIN_LENGTH_M, config_module._MAX_LENGTH_M
    assert config_module._LENGTH_KEYS == {
        "engine.d_ref", "reflector.width", "reflector.height",
        "reflector.section_height", "reflector.azimuth_ray_spacing", "geometry.tx_range",
        "geometry.rx_range", "geometry.sweep_length", "geometry.sweep_offset"}
    convex = dict(reflector_kind="convex", radius_of_curvature_m=0.5)
    for key in sorted(config_module._LENGTH_KEYS):
        field = config_module._KEY_TABLE[key][0]
        kind = convex if key in config_module._CONVEX_ONLY_KEYS else {}
        # The offset may be 0 or negative: only its magnitude is bounded.
        below = (-math.nextafter(hi, math.inf) if key == "geometry.sweep_offset"
                 else math.nextafter(lo, 0.0))
        for value in (below, math.nextafter(hi, math.inf)):
            with pytest.raises(ConfigError, match=r"1e\+09") as info:
                ScenarioConfig(band=Band.GHZ28, **{**kind, field: value})
            assert info.value.key == key
    # Both ends of the range are in it.
    ScenarioConfig(band=Band.GHZ28, width_m=lo, height_m=hi, tx_range_m=hi, d_ref_m=lo,
                   sweep_offset_m=hi)
    ScenarioConfig(band=Band.GHZ28, width_m=hi, tx_range_m=lo, d_ref_m=hi, sweep_length_m=lo,
                   sweep_offset_m=-lo)
    ScenarioConfig(band=Band.GHZ28, reflector_kind="convex", width_m=lo, radius_of_curvature_m=lo,
                   section_height_m=lo, azimuth_ray_spacing_m=hi, rx_range_m=hi)
    ScenarioConfig(band=Band.GHZ28, reflector_kind="convex", radius_of_curvature_m=0.5,
                   height_m=hi, section_height_m=hi, azimuth_ray_spacing_m=lo)
    # The radius only has to exceed half the chord; far past the planar-limit
    # flag it still runs clean.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                                radius_of_curvature_m=1e300, n_positions=5)
        assert np.all(np.isfinite(run_sweep(config).power_db))
    # Every length key takes an inch suffix, and the range applies after it.
    assert parse_config("band = 28\nengine.d_ref = 100in\n").d_ref_m == 100 * INCH_M
    with pytest.raises(ConfigError, match="engine.d_ref"):
        parse_config("band = 28\nengine.d_ref = 4e10in\n")


KINDS = [dict(reflector_kind="flat"),
         dict(reflector_kind="convex", radius_of_curvature_m=0.5)]


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
    flat = alpha_flat(g, scn.tx_pattern, scn.reflector)
    if cfg.reflector_kind == "flat":
        assert scn.alpha == flat
        return
    d = g.rx_range_m
    hpbw = math.radians(scn.rx_pattern.hpbw_az_deg)
    assert_allclose(scn.reflector.azimuth_ray_spacing_m, 2.0 * d * math.tan(hpbw / 2.0) / 32.0,
                    rtol=1e-12)
    r = scn.reflector.radius_of_curvature_m
    assert scn.alpha == flat * r / (r + 2.0 * d)


@pytest.mark.parametrize("kind", KINDS, ids=["flat", "convex"])
def test_each_set_value_wins_over_its_default(kind):
    scn = ScenarioConfig(band=Band.GHZ39, d_ref_m=7.5, **kind).to_scenario()
    assert scn.d_ref_m == 7.5
    scn = ScenarioConfig(band=Band.GHZ39, alpha_flat=0.3, **kind).to_scenario()
    if kind["reflector_kind"] == "flat":
        assert scn.alpha == 0.3
    else:
        # A set flat factor still feeds the convex R/(R + 2d) factor.
        assert scn.alpha == 0.3 * 0.5 / (0.5 + 2.0 * scn.geometry.rx_range_m)
        both = ScenarioConfig(band=Band.GHZ39, alpha_flat=0.3, alpha_curved=0.02,
                              **kind).to_scenario()
        assert both.alpha == 0.02


def test_each_set_convex_value_wins_over_its_default():
    base = dict(band=Band.GHZ39, reflector_kind="convex", radius_of_curvature_m=0.5)
    scn = ScenarioConfig(rx_range_m=4.0, **base).to_scenario()
    # The auto spacing follows the RX range.
    hpbw = math.radians(scn.rx_pattern.hpbw_az_deg)
    assert_allclose(scn.reflector.azimuth_ray_spacing_m, 2.0 * 4.0 * math.tan(hpbw / 2.0) / 32.0,
                    rtol=1e-12)
    scn = ScenarioConfig(rx_range_m=4.0, azimuth_ray_spacing_m=0.03, **base).to_scenario()
    assert scn.reflector.azimuth_ray_spacing_m == 0.03
    scn = ScenarioConfig(section_height_m=0.05, **base).to_scenario()
    assert scn.reflector.section_height_m == 0.05
    scn = ScenarioConfig(alpha_curved=0.02, **base).to_scenario()
    assert scn.alpha == 0.02


def test_auto_section_height_follows_the_configured_height():
    convex = ScenarioConfig(band=Band.GHZ39, reflector_kind="convex", height_m=0.32).to_scenario()
    assert convex.reflector.section_height_m == 0.32 / 16
    assert convex.reflector.n_height_sections == 16


def _number(low, high):
    return st.floats(low, high, allow_nan=False).map(lambda x: repr(round(x, 3)))


def _auto_or(strategy):
    return st.one_of(st.just("auto"), strategy)


# key -> (in-range values, out-of-range values). Resolutions stay coarse (at
# most 12 RX positions, 8 facets/side, sections and azimuth spacing >= 5 cm),
# so no example sums more than about 1e5 rays. In-range values can still break
# a rule that joins two keys (radius vs. width, sweep vs. reflector plane).
_VALUES = {
    "engine.mode": (st.sampled_from(["physical", "literal"]), ["fast"]),
    "engine.d_ref": (_auto_or(_number(0.5, 20.0)), ["0", "-1", "nan"]),
    "engine.alpha_flat": (_auto_or(_number(0.01, 1.0)), ["0", "1.5"]),
    "engine.alpha_curved": (_auto_or(_number(0.01, 1.0)), ["0", "-0.2", "1.01"]),
    "reflector.width": (_number(0.05, 1.0), ["0", "-0.1", "inf"]),
    "reflector.height": (_number(0.05, 1.0), ["0", "-1"]),
    "reflector.facets_per_side": (_auto_or(st.integers(1, 8).map(str)), ["0", "-1", "2.5"]),
    "reflector.radius_of_curvature": (st.one_of(_number(0.3, 5.0), st.just("1e6")),
                                      ["0.05", "-1", "0"]),
    "reflector.section_height": (_auto_or(_number(0.05, 0.5)), ["0", "-0.01", "2"]),
    "reflector.azimuth_ray_spacing": (_auto_or(_number(0.05, 0.5)), ["0", "-0.01"]),
    "reflector.reflection_efficiency": (_number(0.01, 1.0), ["0", "1.2", "-0.1"]),
    "geometry.tx_range": (_number(0.2, 6.0), ["0", "-1"]),
    "geometry.rx_range": (_number(0.2, 6.0), ["0", "-1"]),
    "geometry.incidence_deg": (_number(0.0, 89.9), ["90", "-10", "100"]),
    "geometry.sweep_length": (_number(0.01, 5.0), ["0", "-0.5"]),
    "geometry.n_positions": (st.integers(2, 12).map(str), ["1", "0", "-1"]),
    "geometry.sweep_offset": (_number(-5.0, 5.0), ["nan", "1e400"]),
    "antenna.eh_swap": (st.sampled_from(["true", "false"]), ["maybe"]),
}


# Length keys whose magnitudes are also drawn log-uniformly over
# 1e-300..1e300, far past both ends of the length range, mapped to the ray
# spacing that divides them. A length over an explicit spacing is a ray count,
# which stays coarse: such a length is spread only while its spacing is auto.
# The spacings themselves are never spread.
_SPREAD = {
    "engine.d_ref": None,
    "reflector.width": None,
    "reflector.height": "reflector.section_height",
    "reflector.radius_of_curvature": None,
    "geometry.tx_range": None,
    "geometry.rx_range": "reflector.azimuth_ray_spacing",
    "geometry.sweep_length": None,
    "geometry.sweep_offset": None,
}


def _magnitude(signed):
    value = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)
    if signed:
        value = st.tuples(st.sampled_from([1.0, -1.0]), value).map(lambda sv: sv[0] * sv[1])
    return value.map(repr)


@st.composite
def _documents(draw):
    kind = draw(st.sampled_from(["flat", "convex"]))
    foreign = config_module._FLAT_ONLY_KEYS if kind == "convex" else config_module._CONVEX_ONLY_KEYS
    keys = draw(st.lists(st.sampled_from(sorted(set(_VALUES) - foreign)), unique=True, max_size=8))
    # The default 1800 positions would make a convex example take seconds.
    keys += [key for key in ("geometry.n_positions", "reflector.radius_of_curvature")
             if key not in keys and key not in foreign]
    values = {key: draw(_VALUES[key][0]) for key in keys}
    for key in keys:
        if (key in _SPREAD and values.get(_SPREAD[key], "auto") == "auto"
                and draw(st.booleans())):
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
    return st.one_of(st.floats(0.01, 5.0), st.floats(-10.0, 100.0), st.floats())


# ScenarioConfig field -> values of its declared type, in range or not.
_FIELD_VALUES = {
    "mode": st.sampled_from(list(SumMode)),
    "reflector_kind": st.sampled_from(["flat", "convex", "parabolic"]),
    "width_m": _any_float(),
    "height_m": _any_float(),
    "facets_per_side": st.one_of(st.none(), st.integers(-1, 64)),
    "radius_of_curvature_m": _any_float(),
    "section_height_m": st.one_of(st.none(), _any_float()),
    "azimuth_ray_spacing_m": st.one_of(st.none(), _any_float()),
    "reflection_efficiency": _any_float(),
    "tx_range_m": _any_float(),
    "rx_range_m": _any_float(),
    "incidence_deg": _any_float(),
    "sweep_length_m": _any_float(),
    "n_positions": st.integers(-1, 5000),
    "sweep_offset_m": _any_float(),
    "d_ref_m": st.one_of(st.none(), _any_float()),
    "alpha_flat": st.one_of(st.none(), _any_float()),
    "alpha_curved": st.one_of(st.none(), _any_float()),
    "eh_swap": st.booleans(),
    "output_dir": st.one_of(st.sampled_from(["runs/a b", "", "a#b", "out "]), st.text(max_size=8)),
    "output_format": st.sampled_from(["csv", "json", "xml"]),
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
