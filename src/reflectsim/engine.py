"""Coherent facet-sum engine for flat and convex reflector received power."""

from __future__ import annotations

import enum
import math

import numpy as np

from .scene import (
    ConvexReflectorSpec,
    FlatReflectorSpec,
    GeometryError,
    Scenario,
    antenna_frame,
    convex_captures,
    convex_path_geometry_batch,
    facetize_flat,
    mirror_fold,
    path_geometry_batch,
    section_heights,
    tx_leg,
)

FOUR_PI = 4.0 * math.pi

# Sentinel for "no capturable field at this RX position".
NO_POWER_DB = float("-inf")

# Rays per sweep block, for both shapes: bounds the (positions x rays) arrays
# of a flat block and the (positions x sections x rays) arrays of a convex one.
_RAY_BLOCK = 16384


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


def _rx_in_link_plane(rx_points: np.ndarray) -> np.ndarray:
    """The (M, 3) RX points as floats; a GeometryError unless every one is
    finite, in front of the plate (x > 0) and in the link plane z = 0."""
    rx = np.asarray(rx_points, dtype=float)
    not_finite = ~np.isfinite(rx).all(axis=1)
    if np.any(not_finite):
        raise GeometryError("RX points must be finite, "
                            f"got {rx[np.argmax(not_finite)].tolist()!r}")
    behind = rx[:, 0] <= 0.0
    if np.any(behind):
        raise GeometryError("RX points must be in front of the reflector (x > 0), "
                            f"got x = {float(rx[np.argmax(behind), 0])!r} m")
    off_plane = rx[:, 2] != 0.0
    if np.any(off_plane):
        raise GeometryError("RX points must lie in the link plane z = 0, "
                            f"got z = {float(rx[np.argmax(off_plane), 2])!r} m")
    return rx


def _ray_sums(scenario: Scenario, d: np.ndarray, gain_tx: np.ndarray, rx_az: np.ndarray,
              rx_el: np.ndarray, mode: SumMode, n_nominal: int,
              columns: np.ndarray | None = None) -> np.ndarray:
    """Coherent sum of each row of a (G, N) ray block of path lengths `d`.

    `gain_tx` holds the rays' linear TX gains and `rx_az`, `rx_el` their
    arrival angles, each broadcast against `d`. Each ray's phase is
    referenced to `scenario.d_ref_m`. `columns`, if given, gathers each row's
    ray terms into the rays they stand for (`scene.mirror_fold`) before the
    sum. PHYSICAL mode averages over the rays of a row; LITERAL mode
    applies the sqrt(n_nominal) prefactor instead.
    """
    n_rays = d.shape[1] if columns is None else columns.size
    lam = scenario.wavelength_m
    tx_power_mw = 10.0 ** (scenario.tx_power_dbm / 10.0)
    gain_rx = scenario.rx_pattern.gain(rx_az, rx_el)
    phasor = np.exp(1j * (-2.0 * math.pi * (d - scenario.d_ref_m) / lam))
    if mode is SumMode.PHYSICAL:
        amp = (
            (1.0 / n_rays)
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
    terms = amp * phasor
    if columns is not None:
        # np.take gives a fresh C-contiguous (G, N) block (terms[:, columns]
        # would be column-major), so each row is summed as an unfolded one.
        terms = np.take(terms, columns, axis=1)
    total = terms.sum(axis=1)
    if mode is SumMode.LITERAL:
        total = math.sqrt(n_nominal) * total
    return total


def flat_sweep_power(scenario: Scenario, rx_points: np.ndarray, mode: SumMode) -> np.ndarray:
    """Received power (dB) at each of the (M, 3) RX points, all in z = 0, for a
    flat-reflector scenario.

    PHYSICAL mode sums field amplitudes over the facet grid with 1/N
    averaging (dBm); LITERAL mode additionally includes the center reference
    ray and the sqrt(N) prefactor. Facet order is row-major and fixed, and
    RX points are evaluated in blocks of at most _RAY_BLOCK rays (at least
    one position), so memory stays bounded and results are bit-reproducible.
    Only the facet rows that `scene.mirror_fold` solves are traced; its
    columns gather their ray terms into all N rays of a row, which are then
    summed in order.
    """
    spec = scenario.reflector
    if not isinstance(spec, FlatReflectorSpec):
        raise ValueError("flat_sweep_power requires a flat reflector spec")
    geom = scenario.geometry
    n = spec.facets_per_side
    launches = facetize_flat(spec)
    rows, columns = mirror_fold(launches[::n, 2], n)
    launches = launches.reshape(n, n, 3)[rows].reshape(-1, 3)
    if mode is SumMode.LITERAL:
        # The centre ray leads the row; it lies in z = 0 and is always solved.
        launches = np.vstack([np.zeros(3), launches])
        columns = np.concatenate([[0], columns + 1])
    rx = _rx_in_link_plane(rx_points)
    # The TX leg and its gain do not depend on the RX: solved once per call.
    d1, tx_az, tx_el = tx_leg(geom.tx_position, launches, antenna_frame(scenario.tx_boresight))
    gain_tx = scenario.tx_pattern.gain(tx_az, tx_el)
    rx_frame = antenna_frame(scenario.rx_boresight)

    total = np.empty(len(rx), dtype=complex)
    step = max(1, _RAY_BLOCK // columns.size)
    for start in range(0, len(rx), step):
        block = slice(start, start + step)
        d, rx_az, rx_el = path_geometry_batch(launches, d1, rx[block], rx_frame)
        total[block] = _ray_sums(scenario, d, gain_tx, rx_az, rx_el, mode, spec.facet_count,
                                 columns)
    return _power_db_from_sum(total, mode)


def convex_sweep_power(scenario: Scenario, rx_points: np.ndarray, mode: SumMode) -> np.ndarray:
    """Received power (dB) at each of the (M, 3) RX points, all in z = 0, for a
    convex-reflector scenario.

    At each position, sums captured rays over height sections and azimuth
    intercepts with the curved-surface attenuation factor. Each ray is
    evaluated along its specular path from the TX over the arc to its
    intercept on the RX capture segment (the bundle the antenna aperture
    actually collects), so the divergence of the curved surface dephases the
    bundle physically. PHYSICAL mode averages over the captured-ray count;
    LITERAL applies the sqrt(N_el * N_az) prefactor. A position where no ray
    is capturable gets -inf. Every radius is summed this way; a config at
    its planar-limit radius reaches `flat_sweep_power` instead, because
    `ScenarioConfig.to_scenario()` gives it a flat spec.

    Positions are grouped by captured-ray count K and evaluated in blocks of
    at most _RAY_BLOCK rays, so every row of a block sums the same number of
    rays and results do not depend on the blocking. Only the height sections
    that `scene.mirror_fold` solves (the upper half) are traced: its columns
    gather their ray terms into all S*K rays of a row, which are then summed
    in order.
    """
    spec = scenario.reflector
    if not isinstance(spec, ConvexReflectorSpec):
        raise ValueError("convex_sweep_power requires a convex reflector spec")
    rx = _rx_in_link_plane(rx_points)
    geom = scenario.geometry
    angles, intercepts = convex_captures(spec, geom, rx, scenario.rx_pattern)
    tx_frame = antenna_frame(scenario.tx_boresight)
    rx_frame = antenna_frame(scenario.rx_boresight)
    heights = section_heights(spec)
    n_el, n_az = heights.size, angles.shape[1]

    captured = ~np.isnan(angles)
    counts = captured.sum(1)
    total = np.zeros(len(rx), dtype=complex)  # uncaptured positions stay 0 -> -inf
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        _, columns = mirror_fold(heights, k)
        step = max(1, _RAY_BLOCK // columns.size)
        for start in range(0, rows.size, step):
            block = rows[start:start + step]
            kept = captured[block]
            d, tx_az, tx_el, rx_az, rx_el = convex_path_geometry_batch(
                spec,
                geom,
                angles[block][kept].reshape(-1, k),
                intercepts[block][kept].reshape(-1, k, 2),
                tx_frame,
                rx_frame,
            )
            gain_tx = scenario.tx_pattern.gain(tx_az, tx_el)
            total[block] = _ray_sums(scenario, d, gain_tx, rx_az, rx_el, mode, n_el * n_az,
                                     columns)
    return _power_db_from_sum(total, mode)
