
import pytest
from numpy.testing import assert_allclose

from reflectsim import config as config_module
from reflectsim.antenna import Band
from reflectsim.cli import main
from reflectsim.config import ConfigError, dump_config, parse_config
from reflectsim.engine import SumMode

# Every key whose value is a float or a length, read off the key table.
_NUMBER_PARSERS = (config_module._parse_float, config_module._parse_auto_float,
                   config_module._parse_length, config_module._parse_auto_length)
NUMBER_KEYS = sorted(key for key, (_, parser) in config_module._KEY_TABLE.items()
                     if parser in _NUMBER_PARSERS)


def test_empty_text_with_band_flag_gives_full_defaults():
    cfg = parse_config("", default_band=Band.GHZ28)
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
        parse_config("band = 39\n", default_reflector="convex")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("band = 28\n\nreflector.witdh = 16in\n")


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
    cfg = parse_config("", default_band=Band.GHZ39)
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
    cfg = parse_config("", default_band=Band.GHZ28)
    once = dump_config(cfg)
    twice = dump_config(parse_config(once))
    assert once == twice


def test_scenario_wiring_of_engine_overrides():
    text = (
        "band = 28\n"
        "engine.d_ref = 12.5\n"
        "engine.alpha_flat = 0.2\n"
        "engine.capture_distance = 4.0\n"
    )
    scn = parse_config(text).to_scenario()
    assert scn.reference_path_m == 12.5
    assert scn.alpha_flat_override == 0.2
    assert scn.capture_range_m == 4.0


def test_auto_values_accepted():
    cfg = parse_config("band = 28\nengine.d_ref = auto\nengine.alpha_flat = auto\n")
    assert cfg.d_ref_m is None
    assert cfg.alpha_flat is None


def test_resolved_label_defaults_to_band_and_kind():
    cfg = parse_config("band = 120\n", default_reflector="flat")
    assert cfg.resolved_label() == "120ghz_flat"
