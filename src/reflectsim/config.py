"""Scenario configuration: a small line-oriented key = value format.

Keys are dotted block paths (`reflector.width = 16in`); `#` starts a comment.
Dimensions accept meters or inches with an `in` suffix. Every omitted key
falls back to the bundled measurement-style defaults for the selected band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .antenna import Band
from .engine import SumMode
from .scene import INCH_M, REFLECTOR_SIDE_16IN_M, Scenario, build_default_scenario


class ConfigError(ValueError):
    """Configuration problem with key and line context."""

    def __init__(self, message: str, key: Optional[str] = None, line: Optional[int] = None):
        self.key = key
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"{key}: "
        super().__init__(prefix + message)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario description; `None` means auto-derived."""

    band: Band
    mode: SumMode = SumMode.PHYSICAL
    reflector_kind: str = "flat"
    width_m: float = REFLECTOR_SIDE_16IN_M
    height_m: float = REFLECTOR_SIDE_16IN_M
    facets_per_side: Optional[int] = None
    radius_of_curvature_m: Optional[float] = None
    section_height_m: Optional[float] = None
    azimuth_ray_spacing_m: Optional[float] = None
    reflection_efficiency: float = 1.0
    tx_range_m: float = 2.5
    rx_range_m: float = 2.5
    incidence_deg: float = 30.0
    sweep_length_m: float = 1.8
    n_positions: int = 1800
    sweep_offset_m: float = 0.0
    d_ref_m: Optional[float] = None
    alpha_flat: Optional[float] = None
    alpha_curved: Optional[float] = None
    capture_distance_m: Optional[float] = None
    eh_swap: bool = False
    output_dir: str = "out"
    output_format: str = "csv"
    label: str = ""

    def resolved_label(self) -> str:
        return self.label or f"{self.band.value}_{self.reflector_kind}"

    def to_scenario(self) -> Scenario:
        return build_default_scenario(
            self.band,
            self.reflector_kind,
            tx_range_m=self.tx_range_m,
            rx_range_m=self.rx_range_m,
            incidence_deg=self.incidence_deg,
            sweep_length_m=self.sweep_length_m,
            n_positions=self.n_positions,
            sweep_offset_m=self.sweep_offset_m,
            width_m=self.width_m,
            height_m=self.height_m,
            facets_per_side=self.facets_per_side,
            radius_of_curvature_m=self.radius_of_curvature_m,
            section_height_m=self.section_height_m,
            azimuth_ray_spacing_m=self.azimuth_ray_spacing_m,
            reflection_efficiency=self.reflection_efficiency,
            eh_swap=self.eh_swap,
            d_ref_m=self.d_ref_m,
            alpha_flat_override=self.alpha_flat,
            alpha_curved_override=self.alpha_curved,
            capture_distance_m=self.capture_distance_m,
            label=self.resolved_label(),
        )


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_length(text: str) -> float:
    """Meters, or inches with an 'in' suffix (e.g. '16in')."""
    t = text.strip().lower()
    if t.endswith("in"):
        return _parse_float(t[:-2].strip()) * INCH_M
    return _parse_float(t)


def _parse_positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def _parse_auto_float(text: str) -> Optional[float]:
    if text.strip().lower() == "auto":
        return None
    return _parse_float(text)


def _parse_auto_positive_int(text: str) -> Optional[int]:
    if text.strip().lower() == "auto":
        return None
    return _parse_positive_int(text)


def _parse_auto_length(text: str) -> Optional[float]:
    if text.strip().lower() == "auto":
        return None
    return _parse_length(text)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_kind(text: str) -> str:
    t = text.strip().lower()
    if t not in ("flat", "convex"):
        raise ValueError(f"expected 'flat' or 'convex', got {text!r}")
    return t


def _parse_format(text: str) -> str:
    t = text.strip().lower()
    if t not in ("csv", "json"):
        raise ValueError(f"expected 'csv' or 'json', got {text!r}")
    return t


# key -> (config field, value parser)
_KEY_TABLE = {
    "band": ("band", Band.parse),
    "engine.mode": ("mode", SumMode.parse),
    "engine.d_ref": ("d_ref_m", _parse_auto_float),
    "engine.alpha_flat": ("alpha_flat", _parse_auto_float),
    "engine.alpha_curved": ("alpha_curved", _parse_auto_float),
    "engine.capture_distance": ("capture_distance_m", _parse_auto_float),
    "reflector.kind": ("reflector_kind", _parse_kind),
    "reflector.width": ("width_m", _parse_length),
    "reflector.height": ("height_m", _parse_length),
    "reflector.facets_per_side": ("facets_per_side", _parse_auto_positive_int),
    "reflector.radius_of_curvature": ("radius_of_curvature_m", _parse_length),
    "reflector.section_height": ("section_height_m", _parse_auto_length),
    "reflector.azimuth_ray_spacing": ("azimuth_ray_spacing_m", _parse_auto_length),
    "reflector.reflection_efficiency": ("reflection_efficiency", _parse_float),
    "geometry.tx_range": ("tx_range_m", _parse_length),
    "geometry.rx_range": ("rx_range_m", _parse_length),
    "geometry.incidence_deg": ("incidence_deg", _parse_float),
    "geometry.sweep_length": ("sweep_length_m", _parse_length),
    "geometry.n_positions": ("n_positions", _parse_positive_int),
    "geometry.sweep_offset": ("sweep_offset_m", _parse_length),
    "antenna.eh_swap": ("eh_swap", _parse_bool),
    "output.dir": ("output_dir", str),
    "output.format": ("output_format", _parse_format),
    "output.label": ("label", str),
}

_FLAT_ONLY_KEYS = {"reflector.facets_per_side"}
_CONVEX_ONLY_KEYS = {
    "reflector.radius_of_curvature",
    "reflector.section_height",
    "reflector.azimuth_ray_spacing",
}


def parse_config(
    text: str,
    default_band: Optional[Band] = None,
    default_reflector: Optional[str] = None,
) -> ScenarioConfig:
    """Parse and validate a config document.

    `default_band` / `default_reflector` fill in for keys absent from the
    text (e.g. supplied as command-line flags); an empty document plus a band
    is a complete default scenario.
    """
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEY_TABLE:
            raise ConfigError(f"unknown key {key!r}", key=key, line=lineno)
        if key in seen:
            raise ConfigError(f"duplicate key (first set on line {seen[key]})",
                              key=key, line=lineno)
        if not value:
            raise ConfigError("missing value", key=key, line=lineno)
        seen[key] = lineno
        field_name, parser = _KEY_TABLE[key]
        try:
            values[field_name] = parser(value)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=lineno) from None

    if "band" not in values:
        if default_band is None:
            raise ConfigError("band is required (set 'band = ...' or pass --band)", key="band")
        values["band"] = default_band
    if "reflector_kind" not in values and default_reflector is not None:
        values["reflector_kind"] = _parse_kind(default_reflector)

    kind = values.get("reflector_kind", "flat")
    for key in (_CONVEX_ONLY_KEYS if kind == "flat" else _FLAT_ONLY_KEYS):
        field_name, _ = _KEY_TABLE[key]
        if field_name in values:
            raise ConfigError(
                f"only valid for {'convex' if key in _CONVEX_ONLY_KEYS else 'flat'} reflectors",
                key=key, line=seen.get(key),
            )
    if kind == "convex" and "radius_of_curvature_m" not in values:
        raise ConfigError("required for convex reflectors", key="reflector.radius_of_curvature")

    config = ScenarioConfig(**values)
    _validate(config)
    return config


def _validate(config: ScenarioConfig) -> None:
    def bad(key: str, message: str) -> ConfigError:
        return ConfigError(message, key=key)

    if config.width_m <= 0 or config.height_m <= 0:
        raise bad("reflector.width", "reflector dimensions must be positive")
    if not (0.0 < config.reflection_efficiency <= 1.0):
        raise bad("reflector.reflection_efficiency", "must be in (0, 1]")
    if config.reflector_kind == "convex":
        assert config.radius_of_curvature_m is not None
        if config.radius_of_curvature_m <= config.width_m / 2.0:
            raise bad("reflector.radius_of_curvature",
                      f"must exceed half the chord width ({config.width_m / 2.0:.4f} m)")
        if config.section_height_m is not None and not (
            0.0 < config.section_height_m <= config.height_m
        ):
            raise bad("reflector.section_height", "must be in (0, height]")
    if config.tx_range_m <= 0 or config.rx_range_m <= 0:
        raise bad("geometry.tx_range", "ranges must be positive")
    if not (0.0 <= config.incidence_deg < 90.0):
        raise bad("geometry.incidence_deg", "must be in [0, 90)")
    if config.sweep_length_m <= 0:
        raise bad("geometry.sweep_length", "must be positive")
    if config.n_positions < 2:
        raise bad("geometry.n_positions", "must be >= 2")
    if config.d_ref_m is not None and config.d_ref_m <= 0:
        raise bad("engine.d_ref", "must be positive or 'auto'")
    for key, value in (("engine.alpha_flat", config.alpha_flat),
                       ("engine.alpha_curved", config.alpha_curved)):
        if value is not None and not (0.0 < value <= 1.0):
            raise bad(key, "must be in (0, 1] or 'auto'")
    if config.capture_distance_m is not None and config.capture_distance_m <= 0:
        raise bad("engine.capture_distance", "must be positive or 'auto'")


def _format_value(value: object) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (Band, SumMode)):
        return value.value
    return str(value)


def dump_config(config: ScenarioConfig) -> str:
    """Canonical text form; parses back to an equal config."""
    skip = _CONVEX_ONLY_KEYS if config.reflector_kind == "flat" else _FLAT_ONLY_KEYS
    lines = []
    for key in _KEY_TABLE:
        if key in skip:
            continue
        field_name, _ = _KEY_TABLE[key]
        value = getattr(config, field_name)
        if key == "output.label" and value == "":
            continue
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
