
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from reflectsim import config as config_module
from reflectsim.antenna import Band
from reflectsim.cli import main
from reflectsim.config import ConfigError, ScenarioConfig, dump_config, parse_config
from reflectsim.engine import SumMode
from reflectsim.runner import run_sweep

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
    ("geometry.n_positions", "1"),
    ("geometry.n_positions", "0"),
    ("geometry.sweep_offset", "-5"),  # sweep reaches the reflector plane
    ("engine.d_ref", "0"),
    ("engine.d_ref", "-1"),
    ("engine.alpha_flat", "0"),
    ("engine.alpha_flat", "2"),
    ("engine.alpha_curved", "0"),
    ("engine.alpha_curved", "1.5"),
    ("engine.capture_distance", "0"),
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
    "engine.capture_distance": (_auto_or(_number(0.1, 5.0)), ["0", "-1"]),
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


@st.composite
def _documents(draw):
    kind = draw(st.sampled_from(["flat", "convex"]))
    foreign = config_module._FLAT_ONLY_KEYS if kind == "convex" else config_module._CONVEX_ONLY_KEYS
    keys = draw(st.lists(st.sampled_from(sorted(set(_VALUES) - foreign)), unique=True, max_size=8))
    # The default 1800 positions would make a convex example take seconds.
    keys += [key for key in ("geometry.n_positions", "reflector.radius_of_curvature")
             if key not in keys and key not in foreign]
    values = {key: draw(_VALUES[key][0]) for key in keys}
    broken = draw(st.one_of(st.none(), st.sampled_from(keys)))
    if broken is not None:
        values[broken] = draw(st.sampled_from(_VALUES[broken][1]))
    lines = [f"band = {draw(st.sampled_from(['28', '39', '120']))}", f"reflector.kind = {kind}"]
    lines += [f"{key} = {value}" for key, value in values.items()]
    return draw(st.permutations(lines))


@settings(max_examples=80, deadline=None, derandomize=True)
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
