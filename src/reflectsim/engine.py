"""Coherent facet-sum engine for flat and convex reflector received power."""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .antenna import AntennaPattern
from .scene import (
    ConvexReflectorSpec,
    FlatReflectorSpec,
    GeometryError,
    ReflectorSpec,
    Scenario,
    ScenarioGeometry,
    convex_captures,
    convex_path_geometry_batch,
    facetize_flat,
    path_geometry_batch,
)

FOUR_PI = 4.0 * math.pi

# Sentinel for "no capturable field at this RX position".
NO_POWER_DB = float("-inf")

# RX positions per flat-sweep block: bounds the (positions x facets) arrays.
_RX_BLOCK = 200

# Rays per convex-sweep block: bounds the (positions x sections x rays) arrays.
_RAY_BLOCK = 8192


class SumMode(enum.Enum):
    """How per-ray terms are formed and combined.

    PHYSICAL: per-ray field amplitudes sqrt(P*G_T*G_R*alpha*eta) * lambda/(4*pi*d),
    averaged over the ray set so that a single in-phase ray reproduces the
    Friis link budget; reported as |sum|^2 in dBm (TX power in mW).

    LITERAL: the textbook facet-sum form with a sqrt(N) prefactor and
    P/(4*pi*d)^2 * sqrt(G_T*G_R) * lambda^2 terms, reported as 10*log10|sum|.
    Its absolute level is not a calibrated power; use it on a relative scale.
    """

    PHYSICAL = "physical"
    LITERAL = "literal"

    @classmethod
    def parse(cls, text: str) -> "SumMode":
        key = str(text).strip().lower()
        for mode in cls:
            if mode.value == key:
                return mode
        raise ValueError(f"unknown sum mode {text!r}; expected 'physical' or 'literal'")

    def __str__(self) -> str:
        return self.value


def alpha_flat(geometry: ScenarioGeometry, tx_pattern: AntennaPattern,
               reflector: ReflectorSpec) -> float:
    """Fraction of the TX main-lobe footprint intercepted by the plate.

    The footprint is the ellipse cut by the TX HPBW cone on the reflector
    plane at the reflector range; the plate area is foreshortened by the
    incidence angle. Clamped at 1 when the plate out-sizes the footprint.
    """
    convex = isinstance(reflector, ConvexReflectorSpec)
    width = reflector.chord_width_m if convex else reflector.width_m
    d_tx = float(np.linalg.norm(geometry.tx_position - geometry.reflector_center))
    cos_inc = math.cos(math.radians(geometry.incidence_angle_deg))
    semi_az = d_tx * math.tan(math.radians(tx_pattern.hpbw_az_deg) / 2.0)
    semi_el = d_tx * math.tan(math.radians(tx_pattern.hpbw_el_deg) / 2.0) / cos_inc
    footprint = math.pi * semi_az * semi_el
    if footprint <= 0.0:
        raise GeometryError("beam footprint on the reflector plane is degenerate")
    return min(1.0, width * reflector.height_m * cos_inc / footprint)


def alpha_curved(flat_alpha: float, reflector: ConvexReflectorSpec,
                 geometry: ScenarioGeometry) -> float:
    """Convex-mirror divergence factor applied on top of the flat attenuation.

    A convex mirror of radius R spreads the reflected bundle as if it came
    from a virtual focus at R/2 behind the surface, scaling captured power by
    R / (R + 2*d) over the reflector-to-RX leg. Strictly below `flat_alpha`
    for every finite radius.
    """
    r = reflector.radius_of_curvature_m
    return flat_alpha * r / (r + 2.0 * geometry.rx_range_m)


def _power_db_from_sum(total: np.ndarray, mode: SumMode) -> np.ndarray:
    """Power (dB) of each coherent sum; a zero sum maps to the -inf sentinel."""
    mag = np.abs(total)
    out = np.full(mag.shape, NO_POWER_DB)
    nz = mag > 0.0
    if mode is SumMode.PHYSICAL:
        out[nz] = 20.0 * np.log10(mag[nz])  # |sum|^2 in dB
    else:
        out[nz] = 10.0 * np.log10(mag[nz])
    return out


def _ray_sums(scenario: Scenario, paths, mode: SumMode, n_nominal: int) -> np.ndarray:
    """Coherent sum of each row of a (G, N) ray block from a path solve.

    Each ray's phase is referenced to `scenario.d_ref_m`. PHYSICAL mode
    averages over the N rays of a row; LITERAL mode applies the
    sqrt(n_nominal) prefactor instead.
    """
    d, tx_az, tx_el, rx_az, rx_el = paths
    lam = scenario.wavelength_m
    tx_power_mw = 10.0 ** (scenario.tx_power_dbm / 10.0)
    gain_tx = scenario.tx_pattern.gain(tx_az, tx_el)
    gain_rx = scenario.rx_pattern.gain(rx_az, rx_el)
    phasor = np.exp(1j * (-2.0 * math.pi * (d - scenario.d_ref_m) / lam))
    if mode is SumMode.PHYSICAL:
        amp = (
            (1.0 / d.shape[1])
            * np.sqrt(tx_power_mw * gain_tx * gain_rx * scenario.alpha
                      * scenario.reflector.reflection_efficiency)
            * (lam / (FOUR_PI * d))
        )
    else:
        amp = (
            tx_power_mw / (FOUR_PI * d) ** 2
            * np.sqrt(gain_tx * gain_rx)
            * lam ** 2
            * scenario.alpha
        )
    total = (amp * phasor).sum(axis=1)
    if mode is SumMode.LITERAL:
        total = math.sqrt(n_nominal) * total
    return total


def flat_sweep_power(scenario: Scenario, rx_points: np.ndarray, mode: SumMode) -> np.ndarray:
    """Received power (dB) at each of the (M, 3) RX points for a flat-reflector scenario.

    PHYSICAL mode sums field amplitudes over the facet grid with 1/N
    averaging (dBm); LITERAL mode additionally includes the center reference
    ray and the sqrt(N) prefactor. Facet order is row-major and fixed, and
    RX points are evaluated in blocks of _RX_BLOCK, so memory stays bounded
    and results are bit-reproducible.
    """
    spec = scenario.reflector
    if not isinstance(spec, FlatReflectorSpec):
        raise ValueError("flat_sweep_power requires a flat reflector spec")
    geom = scenario.geometry
    launches = facetize_flat(spec, geom)
    if mode is SumMode.LITERAL:
        launches = np.vstack([geom.reflector_center, launches])
    tx_boresight, rx_boresight = scenario.tx_boresight, scenario.rx_boresight

    rx = np.asarray(rx_points, dtype=float)
    total = np.empty(len(rx), dtype=complex)
    for start in range(0, len(rx), _RX_BLOCK):
        block = slice(start, start + _RX_BLOCK)
        paths = path_geometry_batch(geom.tx_position, launches, rx[block],
                                    tx_boresight, rx_boresight)
        total[block] = _ray_sums(scenario, paths, mode, spec.facet_count)
    return _power_db_from_sum(total, mode)


def _planar_limit_scenario(scenario: Scenario) -> Scenario:
    """Flat-reflector equivalent used above the planar-limit radius flag.

    The azimuth discretization follows the height-section count (square
    grid), and the scenario's curved attenuation factor carries over (it
    converges to the flat factor in this limit).
    """
    spec = scenario.reflector
    flat_equiv = FlatReflectorSpec(
        width_m=spec.chord_width_m,
        height_m=spec.height_m,
        facets_per_side=spec.n_height_sections,
        reflection_efficiency=spec.reflection_efficiency,
    )
    return dataclasses.replace(scenario, reflector=flat_equiv)


def convex_sweep_power(scenario: Scenario, rx_points: np.ndarray, mode: SumMode) -> np.ndarray:
    """Received power (dB) at each of the (M, 3) RX points for a convex-reflector scenario.

    At each position, sums captured rays over height sections and azimuth
    intercepts with the curved-surface attenuation factor. Each ray is
    evaluated along its specular path from the TX over the arc to its
    intercept on the RX capture segment (the bundle the antenna aperture
    actually collects), so the divergence of the curved surface dephases the
    bundle physically. PHYSICAL mode averages over the captured-ray count;
    LITERAL applies the sqrt(N_el * N_az) prefactor. A position where no ray
    is capturable gets -inf. Radii at the planar-limit flag are evaluated as
    the equivalent flat plate.

    Positions are grouped by captured-ray count K and evaluated in blocks of
    at most _RAY_BLOCK rays, so every row of a block sums the same number of
    rays and results do not depend on the blocking.
    """
    spec = scenario.reflector
    if not isinstance(spec, ConvexReflectorSpec):
        raise ValueError("convex_sweep_power requires a convex reflector spec")
    rx = np.asarray(rx_points, dtype=float)
    if spec.is_planar_limit:
        return flat_sweep_power(_planar_limit_scenario(scenario), rx, mode)
    geom = scenario.geometry
    tx_boresight, rx_boresight = scenario.tx_boresight, scenario.rx_boresight
    angles, intercepts = convex_captures(spec, geom, rx, scenario.rx_pattern,
                                         scenario.capture_distance_m)
    n_el, n_az = spec.n_height_sections, angles.shape[1]

    captured = ~np.isnan(angles)
    counts = captured.sum(1)
    total = np.zeros(len(rx), dtype=complex)  # uncaptured positions stay 0 -> -inf
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        step = max(1, _RAY_BLOCK // (n_el * k))
        for start in range(0, rows.size, step):
            block = rows[start:start + step]
            kept = captured[block]
            paths = convex_path_geometry_batch(
                spec,
                geom,
                angles[block][kept].reshape(-1, k),
                intercepts[block][kept].reshape(-1, k, 2),
                tx_boresight,
                rx_boresight,
            )
            total[block] = _ray_sums(scenario, paths, mode, n_el * n_az)
    return _power_db_from_sum(total, mode)
