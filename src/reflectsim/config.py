"""Scenario configuration: a small line-oriented key = value format.

Keys are dotted block paths (`reflector.width = 16in`); `#` starts a comment.
Dimensions accept meters or inches with an `in` suffix. Every omitted key
falls back to the bundled measurement-style defaults for the selected band.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import scene
from .antenna import Band
from .engine import SumMode
from .scene import (
    INCH_M,
    REFLECTOR_SIDE_16IN_M,
    ConvexReflectorSpec,
    FlatReflectorSpec,
    GeometryError,
    ReflectorSpec,
    Scenario,
    ScenarioGeometry,
)

# Flat-plate grid used when `reflector.facets_per_side = auto`.
_DEFAULT_FACETS_PER_SIDE = {Band.GHZ28: 6, Band.GHZ39: 6, Band.GHZ120: 16}

# A convex plate of at least this radius is the flat plate: to_scenario() gives
# it a flat spec with scene's height-section count per side, and keeps the
# curved attenuation factor.
PLANAR_LIMIT_RADIUS_M = 1e6

# Range of every length key but the curvature radius; the sweep offset, which
# may be 0 or negative, is bounded in magnitude only. Above the range, path
# lengths would pass about 1e10 m, where float64 rounds them in steps over
# 2e-6 m (a few mrad of phase at 120 GHz), and squared lengths approach float
# overflow. The floor is under 1/1000 of the shortest wavelength (2.5 mm at
# 120 GHz) and keeps the TX footprint area and the convex capture map, traced
# at 4097 points across the chord, far from float underflow and rounding.
_MIN_LENGTH_M = 1e-6
_MAX_LENGTH_M = 1e9

# RX positions per sweep. The default 1.8 m sweep then has an 18 um pitch,
# under 1/100 of the shortest wavelength; a 28 GHz convex sweep of this many
# positions took 6.8 s through the CLI with a peak RSS of 145 MB on 2 CPUs.
_MAX_POSITIONS = 100_000

# Flat facets per side: the engine's ray budget bounds a block's memory at any
# n, so this bounds the time, n^2 rays per RX position. A convex plate has no
# grid key: it always sums scene's 16 height sections x 32 azimuth targets.
_MAX_FACETS_PER_SIDE = 256


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

    Construction checks the type and range of every value and raises a
    `ConfigError` naming the config key, whether the config was parsed or
    built in code.
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
    reflection_efficiency: float = 1.0
    tx_range_m: float = 2.5
    rx_range_m: float = 2.5
    incidence_deg: float = 30.0
    sweep_length_m: float = 1.8
    n_positions: int = 1800
    sweep_offset_m: float = 0.0
    output_dir: str = "out"
    label: str = ""

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            key = _FIELD_KEYS[field.name]
            _, parse, vtype, bound = _KEY_TABLE[key]
            # None is 'auto', which only a field defaulting to it accepts.
            if value is None and field.default is None:
                continue
            if vtype in (int, float):
                # A bool is an int, but no document can write one.
                _check(isinstance(value, numbers.Integral if vtype is int else numbers.Real)
                       and not isinstance(value, bool), key,
                       "must be an integer" if vtype is int else "must be a number")
            else:
                _check(isinstance(value, vtype), key, f"expected a {vtype.__name__}, got {value!r}")
            if vtype is float:
                # Stored as a float, so that it dumps as one.
                value = float(value) if abs(value) <= sys.float_info.max else math.inf
                object.__setattr__(self, field.name, value)
                _check(math.isfinite(value), key, "must be a finite number")
            elif vtype is str:
                try:
                    parsed = parse(value)
                except ValueError as exc:
                    raise ConfigError(str(exc), key=key) from None
                # The text format has no quoting: a value is one stripped line
                # cut at the first '#'.
                _check(value == value.strip() and "#" not in value
                       and value.splitlines() in ([], [value]),
                       key, "must be one line without '#' or surrounding whitespace")
                _check(parsed == value, key, f"expected {parsed!r}, got {value!r}")
                _check("\0" not in value, key, "must not contain a NUL byte")
            only = _KIND_KEYS.get(key, self.reflector_kind)
            _check(only == self.reflector_kind or value == field.default, key,
                   f"only valid for {only} reflectors")
            if bound is not None:
                ok, message = bound
                _check(ok(value), key, message)
        if self.reflector_kind == "convex":
            _check(self.radius_of_curvature_m > self.width_m / 2.0,
                   "reflector.radius_of_curvature",
                   f"must exceed half the chord width ({self.width_m / 2.0:.4f} m)")
        try:
            self.to_scenario()
        except GeometryError as exc:
            raise ConfigError(str(exc), key="geometry.rx_range") from None

    def resolved_label(self) -> str:
        return self.label or f"{self.band.value}_{self.reflector_kind}"

    def to_scenario(self) -> Scenario:
        """Measurement-style scenario with every `auto` default resolved.

        Positions are in the reflector frame of `scene` (center at the
        origin, normal +x, +z up). The TX sits at `tx_range_m` along a
        horizontal direction `incidence_deg` off the normal, and the RX sweep
        is centered on the specular point at `rx_range_m` (shifted by
        `sweep_offset_m`), perpendicular to the specular direction in the
        horizontal plane. A convex config whose radius is at least
        `PLANAR_LIMIT_RADIUS_M` keeps its curved `alpha` but gets a flat spec
        of `scene._HEIGHT_SECTIONS` facets per side: the engine sums the plate
        it is given and decides nothing.
        """
        inc = math.radians(self.incidence_deg)
        mirror_dir = np.array([math.cos(inc), -math.sin(inc), 0.0])
        sweep_axis = np.array([math.sin(inc), math.cos(inc), 0.0])
        sweep_center = self.rx_range_m * mirror_dir + self.sweep_offset_m * sweep_axis
        sweep_start = sweep_center - 0.5 * self.sweep_length_m * sweep_axis
        sweep_end = sweep_center + 0.5 * self.sweep_length_m * sweep_axis
        geometry = ScenarioGeometry(
            tx_position=self.tx_range_m * np.array([math.cos(inc), math.sin(inc), 0.0]),
            sweep_start=sweep_start,
            sweep_end=sweep_end,
            n_rx_positions=self.n_positions,
        )
        horn = self.band.horn
        # Attenuation: the plate's share of the TX main-lobe footprint, the
        # ellipse the HPBW cone cuts on the reflector plane, with the plate
        # area foreshortened by the incidence angle; at most 1.
        d_tx = float(np.linalg.norm(geometry.tx_position))
        cos_inc = math.cos(inc)
        semi_az = d_tx * math.tan(math.radians(horn.hpbw_az_deg) / 2.0)
        semi_el = d_tx * math.tan(math.radians(horn.hpbw_el_deg) / 2.0) / cos_inc
        alpha = min(1.0, self.width_m * self.height_m * cos_inc / (math.pi * semi_az * semi_el))
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
            # A convex mirror spreads the reflected bundle from a virtual
            # focus R/2 behind it: R/(R + 2d) over the leg to the sweep midpoint.
            r = self.radius_of_curvature_m
            alpha = alpha * r / (r + 2.0 * geometry.rx_range_m)
            if r >= PLANAR_LIMIT_RADIUS_M:
                reflector = FlatReflectorSpec(self.width_m, self.height_m,
                                              scene._HEIGHT_SECTIONS, self.reflection_efficiency)
            else:
                reflector = ConvexReflectorSpec(
                    chord_width_m=self.width_m,
                    height_m=self.height_m,
                    radius_of_curvature_m=r,
                    reflection_efficiency=self.reflection_efficiency,
                )
        # Phase reference: TX -> reflector center -> sweep midpoint.
        d_ref_m = d_tx + geometry.rx_range_m
        return Scenario(
            band=self.band,
            geometry=geometry,
            reflector=reflector,
            tx_pattern=horn,
            rx_pattern=horn,
            tx_power_dbm=self.band.tx_power_dbm,
            d_ref_m=d_ref_m,
            alpha=alpha,
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


def _choice(*options: str):
    """Parser for one of `options`, case-insensitive."""
    def parse_choice(text: str) -> str:
        t = text.strip().lower()
        if t not in options:
            raise ValueError(f"expected {' or '.join(map(repr, options))}, got {text!r}")
        return t
    return parse_choice


# A key's range: an "ok" condition on its stored value, and the message when
# it fails. The five length keys share this one.
_LENGTH_RANGE = (lambda v: _MIN_LENGTH_M <= v <= _MAX_LENGTH_M,
                 f"must be in [{_MIN_LENGTH_M:g}, {_MAX_LENGTH_M:g}] m")

# key -> (config field, value parser, value type, range or None)
_KEY_TABLE = {
    "band": ("band", Band.parse, Band, None),
    "engine.mode": ("mode", SumMode.parse, SumMode, None),
    "reflector.kind": ("reflector_kind", _choice("flat", "convex"), str, None),
    "reflector.width": ("width_m", _parse_length, float, _LENGTH_RANGE),
    "reflector.height": ("height_m", _parse_length, float, _LENGTH_RANGE),
    "reflector.facets_per_side": ("facets_per_side", _auto(_parse_int), int, (
        lambda v: 1 <= v <= _MAX_FACETS_PER_SIDE,
        f"must be in [1, {_MAX_FACETS_PER_SIDE}] or 'auto'")),
    # The radius only has to exceed half the chord, a rule of two fields:
    # from PLANAR_LIMIT_RADIUS_M on it enters nothing but R/(R + 2d).
    "reflector.radius_of_curvature": ("radius_of_curvature_m", _parse_length, float, None),
    "reflector.reflection_efficiency": ("reflection_efficiency", _parse_float, float, (
        lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")),
    "geometry.tx_range": ("tx_range_m", _parse_length, float, _LENGTH_RANGE),
    "geometry.rx_range": ("rx_range_m", _parse_length, float, _LENGTH_RANGE),
    "geometry.incidence_deg": ("incidence_deg", _parse_float, float, (
        lambda v: 0.0 <= v < 90.0, "must be in [0, 90)")),
    "geometry.sweep_length": ("sweep_length_m", _parse_length, float, _LENGTH_RANGE),
    "geometry.n_positions": ("n_positions", _parse_int, int, (
        lambda v: 2 <= v <= _MAX_POSITIONS, f"must be in [2, {_MAX_POSITIONS}]")),
    # The offset may be 0 or negative: only its magnitude is bounded.
    "geometry.sweep_offset": ("sweep_offset_m", _parse_length, float, (
        lambda v: abs(v) <= _MAX_LENGTH_M, f"must be at most {_MAX_LENGTH_M:g} m in magnitude")),
    "output.dir": ("output_dir", str, str, (lambda v: v != "", "must not be empty")),
    # The label names the output files inside output.dir.
    "output.label": ("label", str, str, (
        lambda v: os.path.basename(v) == v, "must be a file name, not a path")),
}

_FIELD_KEYS = {row[0]: key for key, row in _KEY_TABLE.items()}

# Key -> the one reflector kind that reads it. A field of the other kind would
# be ignored by to_scenario() and dropped by dump_config(), so a config of the
# other kind must leave it at its default, and a document must not set it.
_KIND_KEYS = {"reflector.facets_per_side": "flat", "reflector.radius_of_curvature": "convex"}
# Keys that place the RX sweep together.
_SWEEP_KEYS = ("geometry.rx_range", "geometry.incidence_deg",
               "geometry.sweep_length", "geometry.sweep_offset")


def parse_config(text: str, overrides: Optional[Mapping[str, str]] = None) -> ScenarioConfig:
    """Parse and validate a config document.

    `overrides` maps config keys to text values (e.g. command-line flags).
    Each is read by its key's parser and replaces the document's value; an
    error in one names the key and no line. An empty document plus a band is
    a complete default scenario.
    """
    values: dict[str, object] = {}
    seen: dict[str, Optional[int]] = {}  # key -> line that set it, None for an override

    def set_key(key: str, value: str, line: Optional[int]) -> None:
        if key not in _KEY_TABLE:
            raise ConfigError(f"unknown key {key!r}", key=key, line=line)
        if not value:
            raise ConfigError("missing value", key=key, line=line)
        field_name, parser = _KEY_TABLE[key][:2]
        try:
            values[field_name] = parser(value)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=line) from None
        seen.pop(key, None)  # an override counts as set after every line
        seen[key] = line

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in seen:
            raise ConfigError(f"duplicate key (first set on line {seen[key]})",
                              key=key, line=lineno)
        set_key(key, value.strip(), lineno)
    for key, value in (overrides or {}).items():
        set_key(key, value, None)

    if "band" not in values:
        raise ConfigError("band is required (set 'band = ...' or pass --band)", key="band")
    kind = values.get("reflector_kind", "flat")
    misplaced = [key for key in seen if _KIND_KEYS.get(key, kind) != kind]
    if misplaced:
        key = misplaced[0]
        raise ConfigError(f"only valid for {_KIND_KEYS[key]} reflectors", key=key, line=seen[key])
    if kind == "convex" and "radius_of_curvature_m" not in values:
        raise ConfigError("required for convex reflectors", key="reflector.radius_of_curvature")

    try:
        return ScenarioConfig(**values)
    except ConfigError as exc:
        key = exc.key
        if key in _SWEEP_KEYS and key not in seen:
            # A default never fails its own range, so this is the joint rule
            # that the sweep stays in front of the reflector: name the sweep
            # key set last.
            key = next((k for k in reversed(seen) if k in _SWEEP_KEYS), key)
        raise ConfigError(exc.message, key=key, line=seen.get(key)) from None


def dump_config(config: ScenarioConfig) -> str:
    """Canonical text form; parses back to an equal config."""
    lines = []
    for key in _KEY_TABLE:
        if _KIND_KEYS.get(key, config.reflector_kind) != config.reflector_kind:
            continue
        value = getattr(config, _KEY_TABLE[key][0])
        if key == "output.label" and value == "":
            continue
        # str() of a float is its repr, and of a Band or SumMode its value.
        lines.append(f"{key} = {'auto' if value is None else str(value)}")
    return "\n".join(lines) + "\n"
