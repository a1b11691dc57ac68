"""Coherent facet-sum engine for flat and convex reflector received power."""

from __future__ import annotations

import enum
import math

import numpy as np

from .scene import (
    Scenario,
    antenna_frame,
    convex_captures,
    convex_path_geometry_batch,
    facetize_flat,
    link_points,
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
# A larger block makes fewer numpy calls per ray, so a sweep's two threads
# trade the GIL less often. On a 2-CPU host the four `convex-bands` sweeps
# took 0.53-0.60 s at 16,384 rays, 0.45-0.54 s at 32,768 and 0.48-0.55 s at
# 65,536 (medians of 5 passes in each of three processes), and peaked at 44,
# 44 and 50 MB of RSS; the three default flat sweeps at 34, 36 and 40 MB.
_RAY_BLOCK = 32768


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


def _ray_sums(scenario: Scenario, d: np.ndarray, gain_tx: np.ndarray, rx_az: np.ndarray,
              rx_el: np.ndarray, mode: SumMode, n_nominal: int,
              columns: np.ndarray) -> np.ndarray:
    """Coherent sum of each row of a (G, N) ray block of path lengths `d`.

    `gain_tx` holds the rays' linear TX gains and `rx_az`, `rx_el` their
    arrival angles, each broadcast against `d`. Each ray's phase is
    referenced to `scenario.d_ref_m`. `columns` gathers each row's ray terms
    into the rays they stand for (`scene.mirror_fold`) before the sum.
    PHYSICAL mode averages over the rays of a row; LITERAL mode applies the
    sqrt(n_nominal) prefactor instead.
    """
    n_rays = columns.size
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
    # np.take gives a fresh C-contiguous (G, N) block (terms[:, columns]
    # would be column-major), so each row is summed as an unfolded one.
    terms = np.take(terms, columns, axis=1)
    total = terms.sum(axis=1)
    if mode is SumMode.LITERAL:
        total = math.sqrt(n_nominal) * total
    return total


def sweep_power(scenario: Scenario, rx_points: np.ndarray, mode: SumMode) -> np.ndarray:
    """Received power (dB) at each of the (M, 3) RX points, all in z = 0.

    The RX points are checked and both antenna frames built once; the plate's
    plan (`_flat_groups` or `_convex_groups`) then splits the sweep into ray
    groups. A group is (positions, columns, n_nominal, solve): the indices of
    the RX points it sums, the `scene.mirror_fold` columns that gather each
    row's solved ray terms into all the rays it stands for, the nominal ray
    count of LITERAL's sqrt(n_nominal) prefactor, and `solve(block)`, which
    returns (d, gain_tx, rx_az, rx_el) for a block of its positions. Each
    group is evaluated in blocks of at most _RAY_BLOCK rays (at least one
    position), so memory stays bounded, every row of a block sums the same
    rays in the same order, and results do not depend on the blocking.
    PHYSICAL mode averages the field amplitudes over a row's rays (dBm).
    A position no group sums gets -inf.
    """
    rx = link_points(rx_points, "RX points")
    frames = antenna_frame(scenario.tx_boresight), antenna_frame(scenario.rx_boresight)
    groups = (_convex_groups(scenario, rx, *frames) if scenario.is_convex
              else _flat_groups(scenario, rx, mode, *frames))
    total = np.zeros(len(rx), dtype=complex)
    for positions, columns, n_nominal, solve in groups:
        step = max(1, _RAY_BLOCK // columns.size)
        for start in range(0, positions.size, step):
            block = positions[start:start + step]
            d, gain_tx, rx_az, rx_el = solve(block)
            total[block] = _ray_sums(scenario, d, gain_tx, rx_az, rx_el, mode, n_nominal, columns)
    return _power_db_from_sum(total, mode)


def _flat_groups(scenario: Scenario, rx: np.ndarray, mode: SumMode, tx_frame, rx_frame):
    """One group of every RX point over the facet grid, row-major. Only the
    facet rows that `mirror_fold` solves are traced, and LITERAL mode leads
    each row with the centre reference ray. The TX leg and its gains do not
    depend on the RX, so they are solved here, once."""
    spec = scenario.reflector
    n = spec.facets_per_side
    launches = facetize_flat(spec)
    rows, columns = mirror_fold(launches[::n, 2], n)
    launches = launches.reshape(n, n, 3)[rows].reshape(-1, 3)
    if mode is SumMode.LITERAL:
        # The centre ray leads the row; it lies in z = 0 and is always solved.
        launches = np.vstack([np.zeros(3), launches])
        columns = np.concatenate([[0], columns + 1])
    d1, tx_az, tx_el = tx_leg(scenario.geometry.tx_position, launches, tx_frame)
    gain_tx = scenario.tx_pattern.gain(tx_az, tx_el)

    def solve(block):
        d, rx_az, rx_el = path_geometry_batch(launches, d1, rx[block], rx_frame)
        return d, gain_tx, rx_az, rx_el

    return [(np.arange(len(rx)), columns, spec.facet_count, solve)]


def _convex_groups(scenario: Scenario, rx: np.ndarray, tx_frame, rx_frame):
    """One group per captured-ray count K of the RX points that capture any
    ray, in increasing K. Each ray is evaluated along its specular path from
    the TX over the arc to its intercept on the RX capture segment (the
    bundle the antenna aperture actually collects), so the divergence of the
    curved surface dephases the bundle physically. Only the height sections
    that `mirror_fold` solves (the upper half) are traced; a group's columns
    gather them into all S*K rays of a row. A `ConvexReflectorSpec` of any
    radius is summed this way; a config at its planar-limit radius never
    gets here, because `ScenarioConfig.to_scenario()` gives it a flat spec."""
    spec, geom = scenario.reflector, scenario.geometry
    angles, intercepts = convex_captures(spec, geom, rx, scenario.rx_pattern)
    heights = section_heights(spec)
    captured = ~np.isnan(angles)
    counts = captured.sum(1)
    # The solved sections do not depend on the number of rays in a row.
    solved = heights[mirror_fold(heights, 1)[0]]

    def solve(block):
        kept = captured[block]
        d, tx_az, tx_el, rx_az, rx_el = convex_path_geometry_batch(
            spec, geom, solved, angles[block][kept].reshape(block.size, -1),
            intercepts[block][kept].reshape(block.size, -1, 2), tx_frame, rx_frame)
        return d, scenario.tx_pattern.gain(tx_az, tx_el), rx_az, rx_el

    n_nominal = heights.size * angles.shape[1]
    return [(np.flatnonzero(counts == k), mirror_fold(heights, k)[1], n_nominal, solve)
            for k in np.unique(counts[counts > 0])]
