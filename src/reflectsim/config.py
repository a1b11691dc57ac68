"""Scenario configuration: a small line-oriented key = value format.

Keys are dotted block paths (`reflector.width = 16in`); `#` starts a comment.
Dimensions accept meters or inches with an `in` suffix. Every omitted key
falls back to the bundled measurement-style defaults for the selected band.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .antenna import Band, band_defaults
from .engine import SumMode, alpha_curved, alpha_flat
from .scene import (
    INCH_M,
    REFLECTOR_SIDE_16IN_M,
    ConvexReflectorSpec,
    FlatReflectorSpec,
    ReflectorSpec,
    Scenario,
    ScenarioGeometry,
    capture_length_m,
)

# Flat-plate grid used when `reflector.facets_per_side = auto`.
_DEFAULT_FACETS_PER_SIDE = {Band.GHZ28: 6, Band.GHZ39: 6, Band.GHZ120: 16}

# Range of every length key but the curvature radius; the sweep offset, which
# may be 0 or negative, is bounded in magnitude only. Above the range, path
# lengths would pass about 1e10 m, where float64 rounds them in steps over
# 2e-6 m (a few mrad of phase at 120 GHz), and squared lengths approach float
# overflow. The floor is under 1/1000 of the shortest wavelength (2.5 mm at
# 120 GHz) and keeps the TX footprint area and the convex capture map, traced
# at 4097 points across the chord, far from float underflow and rounding.
_MIN_LENGTH_M = 1e-6
_MAX_LENGTH_M = 1e9


class ConfigError(ValueError):
    """Configuration problem with key and line context."""

    def __init__(self, message: str, key: Optional[str] = None, line: Optional[int] = None):
        self.message = message
        self.key = key
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"{key}: "
        super().__init__(prefix + message)


def _check(ok: bool, key: str, message: str) -> None:
    # Written as "ok" conditions so that NaN fails every range check.
    if not ok:
        raise ConfigError(message, key=key)


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """The one description of a scenario; `None` means auto-derived.

    Construction checks the range of every value and raises a `ConfigError`
    naming the config key, whether the config was parsed or built in code.
    """

    band: Band
    mode: SumMode = SumMode.PHYSICAL
    reflector_kind: str = "flat"
    width_m: float = REFLECTOR_SIDE_16IN_M
    height_m: float = REFLECTOR_SIDE_16IN_M
    facets_per_side: Optional[int] = None
    # 0.5 m is a demo value: the curvature radius is scenario hardware, not a
    # band property, so parse_config requires it for convex runs.
    radius_of_curvature_m: float = 0.5
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

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            key = _FIELD_KEYS.get(field.name)
            if isinstance(value, float):
                _check(math.isfinite(value), key, "must be a finite number")
                if key == "geometry.sweep_offset":
                    _check(abs(value) <= _MAX_LENGTH_M, key,
                           f"must be at most {_MAX_LENGTH_M:g} m in magnitude")
                elif key in _LENGTH_KEYS:
                    _check(_MIN_LENGTH_M <= value <= _MAX_LENGTH_M, key,
                           f"must be in [{_MIN_LENGTH_M:g}, {_MAX_LENGTH_M:g}] m")
            elif isinstance(value, str) and key is not None:
                try:
                    parsed = _KEY_TABLE[key][1](value)
                except ValueError as exc:
                    raise ConfigError(str(exc), key=key) from None
                # The text format has no quoting: a value is one stripped line
                # cut at the first '#'.
                _check(parsed == value == value.strip() and "#" not in value
                       and value.splitlines() in ([], [value]),
                       key, "must be one line without '#' or surrounding whitespace")
        _check(self.output_dir != "", "output.dir", "must not be empty")
        # A field of the other reflector kind would be ignored by to_scenario()
        # and dropped by dump_config().
        other, foreign = (("convex", _CONVEX_ONLY_KEYS) if self.reflector_kind == "flat"
                          else ("flat", _FLAT_ONLY_KEYS))
        for key in sorted(foreign):
            name = _KEY_TABLE[key][0]
            _check(getattr(self, name) == _DEFAULTS[name], key,
                   f"only valid for {other} reflectors")
        _check(self.facets_per_side is None or self.facets_per_side >= 1,
               "reflector.facets_per_side", "must be >= 1 or 'auto'")
        _check(0.0 < self.reflection_efficiency <= 1.0,
               "reflector.reflection_efficiency", "must be in (0, 1]")
        if self.reflector_kind == "convex":
            _check(self.radius_of_curvature_m > self.width_m / 2.0,
                   "reflector.radius_of_curvature",
                   f"must exceed half the chord width ({self.width_m / 2.0:.4f} m)")
            _check(self.section_height_m is None or self.section_height_m <= self.height_m,
                   "reflector.section_height", "must be in (0, height] or 'auto'")
        _check(0.0 <= self.incidence_deg < 90.0, "geometry.incidence_deg", "must be in [0, 90)")
        _check(self.n_positions >= 2, "geometry.n_positions", "must be >= 2")
        geometry = self._geometry()
        near_x = min(geometry.sweep_start[0], geometry.sweep_end[0])
        _check(near_x > 0, "geometry.rx_range",
               f"the RX sweep reaches x = {near_x:.4f} m; every RX position must be "
               "in front of the reflector plane (x > 0)")
        for key, value in (("engine.alpha_flat", self.alpha_flat),
                           ("engine.alpha_curved", self.alpha_curved)):
            _check(value is None or 0.0 < value <= 1.0, key, "must be in (0, 1] or 'auto'")

    def resolved_label(self) -> str:
        return self.label or f"{self.band.value}_{self.reflector_kind}"

    def _geometry(self) -> ScenarioGeometry:
        """Reflector at the origin facing +x, the TX at `tx_range_m` along a
        direction `incidence_deg` off the normal, and the RX sweep centered on
        the specular point at `rx_range_m` (shifted by `sweep_offset_m`),
        perpendicular to the specular direction in the horizontal plane."""
        inc = math.radians(self.incidence_deg)
        mirror_dir = np.array([math.cos(inc), -math.sin(inc), 0.0])
        sweep_axis = np.array([math.sin(inc), math.cos(inc), 0.0])
        sweep_center = self.rx_range_m * mirror_dir + self.sweep_offset_m * sweep_axis
        sweep_start = sweep_center - 0.5 * self.sweep_length_m * sweep_axis
        sweep_end = sweep_center + 0.5 * self.sweep_length_m * sweep_axis
        return ScenarioGeometry(
            tx_position=self.tx_range_m * np.array([math.cos(inc), math.sin(inc), 0.0]),
            reflector_center=np.zeros(3),
            reflector_normal=np.array([1.0, 0.0, 0.0]),
            incidence_angle_deg=self.incidence_deg,
            sweep_start=sweep_start,
            sweep_end=sweep_end,
            n_rx_positions=self.n_positions,
        )

    def to_scenario(self) -> Scenario:
        """Measurement-style scenario with every `auto` default resolved."""
        geometry = self._geometry()
        link = band_defaults(self.band, eh_swap=self.eh_swap)
        capture_distance_m = (geometry.rx_range_m if self.capture_distance_m is None
                              else self.capture_distance_m)
        reflector: ReflectorSpec
        if self.reflector_kind == "flat":
            reflector = FlatReflectorSpec(
                width_m=self.width_m,
                height_m=self.height_m,
                facets_per_side=(_DEFAULT_FACETS_PER_SIDE[self.band]
                                 if self.facets_per_side is None else self.facets_per_side),
                reflection_efficiency=self.reflection_efficiency,
            )
        else:
            reflector = ConvexReflectorSpec(
                chord_width_m=self.width_m,
                height_m=self.height_m,
                radius_of_curvature_m=self.radius_of_curvature_m,
                section_height_m=(self.height_m / 16.0
                                  if self.section_height_m is None else self.section_height_m),
                azimuth_ray_spacing_m=(
                    capture_length_m(link.rx_pattern, capture_distance_m) / 32.0
                    if self.azimuth_ray_spacing_m is None else self.azimuth_ray_spacing_m),
                reflection_efficiency=self.reflection_efficiency,
            )

        if self.reflector_kind == "convex" and self.alpha_curved is not None:
            alpha = self.alpha_curved
        else:
            alpha = (alpha_flat(geometry, link.tx_pattern, reflector)
                     if self.alpha_flat is None else self.alpha_flat)
            if self.reflector_kind == "convex":
                # The flat factor, set or derived, scaled by R/(R + 2d).
                alpha = alpha_curved(alpha, reflector, geometry)
        d_ref_m = self.d_ref_m
        if d_ref_m is None:  # TX -> reflector center -> sweep midpoint
            d_ref_m = (float(np.linalg.norm(geometry.tx_position - geometry.reflector_center))
                       + geometry.rx_range_m)
        return Scenario(
            band=self.band,
            geometry=geometry,
            reflector=reflector,
            tx_pattern=link.tx_pattern,
            rx_pattern=link.rx_pattern,
            tx_power_dbm=link.tx_power_dbm,
            wavelength_m=link.wavelength_m,
            d_ref_m=d_ref_m,
            alpha=alpha,
            capture_distance_m=capture_distance_m,
            label=self.resolved_label(),
        )


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}")


def _parse_length(text: str) -> float:
    """Meters, or inches with an 'in' suffix (e.g. '16in')."""
    t = text.strip().lower()
    if t.endswith("in"):
        return _parse_float(t[:-2].strip()) * INCH_M
    return _parse_float(t)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}")


def _auto(parse):
    """Parser that maps 'auto' to None and defers anything else to `parse`."""
    def parse_auto(text: str):
        return None if text.strip().lower() == "auto" else parse(text)
    return parse_auto


_parse_auto_float = _auto(_parse_float)
_parse_auto_length = _auto(_parse_length)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _choice(*options: str):
    """Parser for one of `options`, case-insensitive."""
    def parse_choice(text: str) -> str:
        t = text.strip().lower()
        if t not in options:
            raise ValueError(f"expected {' or '.join(map(repr, options))}, got {text!r}")
        return t
    return parse_choice


_parse_kind = _choice("flat", "convex")


# key -> (config field, value parser)
_KEY_TABLE = {
    "band": ("band", Band.parse),
    "engine.mode": ("mode", SumMode.parse),
    "engine.d_ref": ("d_ref_m", _parse_auto_length),
    "engine.alpha_flat": ("alpha_flat", _parse_auto_float),
    "engine.alpha_curved": ("alpha_curved", _parse_auto_float),
    "engine.capture_distance": ("capture_distance_m", _parse_auto_length),
    "reflector.kind": ("reflector_kind", _parse_kind),
    "reflector.width": ("width_m", _parse_length),
    "reflector.height": ("height_m", _parse_length),
    "reflector.facets_per_side": ("facets_per_side", _auto(_parse_int)),
    "reflector.radius_of_curvature": ("radius_of_curvature_m", _parse_length),
    "reflector.section_height": ("section_height_m", _parse_auto_length),
    "reflector.azimuth_ray_spacing": ("azimuth_ray_spacing_m", _parse_auto_length),
    "reflector.reflection_efficiency": ("reflection_efficiency", _parse_float),
    "geometry.tx_range": ("tx_range_m", _parse_length),
    "geometry.rx_range": ("rx_range_m", _parse_length),
    "geometry.incidence_deg": ("incidence_deg", _parse_float),
    "geometry.sweep_length": ("sweep_length_m", _parse_length),
    "geometry.n_positions": ("n_positions", _parse_int),
    "geometry.sweep_offset": ("sweep_offset_m", _parse_length),
    "antenna.eh_swap": ("eh_swap", _parse_bool),
    "output.dir": ("output_dir", str),
    "output.format": ("output_format", _choice("csv", "json")),
    "output.label": ("label", str),
}

_FIELD_KEYS = {field_name: key for key, (field_name, _) in _KEY_TABLE.items()}
# Keys held to the length range. The curvature radius only has to exceed half
# the chord: at or above the planar-limit flag it enters nothing but R/(R + 2d).
_LENGTH_KEYS = {key for key, (_, parse) in _KEY_TABLE.items()
                if parse in (_parse_length, _parse_auto_length)
                and key != "reflector.radius_of_curvature"}
_DEFAULTS = {field.name: field.default for field in dataclasses.fields(ScenarioConfig)}

_FLAT_ONLY_KEYS = {"reflector.facets_per_side"}
_CONVEX_ONLY_KEYS = {
    "engine.alpha_curved",
    "engine.capture_distance",
    "reflector.radius_of_curvature",
    "reflector.section_height",
    "reflector.azimuth_ray_spacing",
}
# Keys that place the RX sweep together.
_SWEEP_KEYS = ("geometry.rx_range", "geometry.incidence_deg",
               "geometry.sweep_length", "geometry.sweep_offset")


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
    other, foreign = ("convex", _CONVEX_ONLY_KEYS) if kind == "flat" else ("flat", _FLAT_ONLY_KEYS)
    misplaced = sorted(foreign & seen.keys(), key=seen.__getitem__)
    if misplaced:
        key = misplaced[0]
        raise ConfigError(f"only valid for {other} reflectors", key=key, line=seen[key])
    if kind == "convex" and "radius_of_curvature_m" not in values:
        raise ConfigError("required for convex reflectors", key="reflector.radius_of_curvature")

    try:
        return ScenarioConfig(**values)
    except ConfigError as exc:
        key = exc.key
        if key in _SWEEP_KEYS and key not in seen:
            # A default never fails its own range, so this is the joint rule
            # that the sweep stays in front of the reflector: name the sweep
            # key the document set last.
            key = max((k for k in _SWEEP_KEYS if k in seen), key=seen.__getitem__, default=key)
        raise ConfigError(exc.message, key=key, line=seen.get(key)) from None


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
