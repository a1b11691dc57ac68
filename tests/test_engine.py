import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from reflectsim import engine, scene
from reflectsim.antenna import AntennaPattern, Band
from reflectsim.engine import (
    SumMode,
    _ray_sums,
    alpha_curved,
    alpha_flat,
    convex_sweep_power,
    flat_sweep_power,
)
from reflectsim.config import ScenarioConfig
from reflectsim.runner import sweep_profile
from reflectsim.scene import (
    GeometryError,
    REFLECTOR_SIDE_16IN_M,
    ScenarioGeometry,
    convex_captures,
    specular_point,
)

SIDE = REFLECTOR_SIDE_16IN_M


def friis_dbm(tx_power_dbm, gain_dbi, wavelength_m, distance_m):
    return tx_power_dbm + 2 * gain_dbi + 20.0 * math.log10(
        wavelength_m / (4.0 * math.pi * distance_m)
    )


# ---------------------------------------------------------------- attenuation

def flat_factor(scn):
    """The footprint factor of a scenario's plate, whatever its kind."""
    return alpha_flat(scn.geometry, scn.tx_pattern, scn.reflector)


def test_alpha_flat_clamps_for_oversized_reflector():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=10.0,
                         height_m=10.0).to_scenario()
    assert flat_factor(scn) == 1.0
    assert scn.alpha == 1.0


def test_alpha_flat_28ghz_closed_form():
    # Independent ellipse-footprint arithmetic: semi-axes 2.5*tan(12deg) and
    # 2.5*tan(13deg)/cos(30deg), plate area foreshortened by cos(30deg).
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    semi_az = 2.5 * math.tan(math.radians(12.0))
    semi_el = 2.5 * math.tan(math.radians(13.0)) / math.cos(math.radians(30.0))
    want = (SIDE * SIDE * math.cos(math.radians(30.0))) / (math.pi * semi_az * semi_el)
    got = flat_factor(scn)
    assert_allclose(got, want, rtol=1e-12)
    assert_allclose(got, 0.129, atol=1e-3)
    assert scn.alpha == got


def test_alpha_flat_quadruples_with_doubled_side():
    base = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=0.1,
                          height_m=0.1).to_scenario()
    doubled = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=0.2,
                             height_m=0.2).to_scenario()
    assert_allclose(doubled.alpha / base.alpha, 4.0, rtol=1e-12)


def test_alpha_flat_degenerate_footprint_raises():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    # smallest positive float collapses tan(hpbw/2) to zero
    degenerate = AntennaPattern(17.0, hpbw_az_deg=5e-324, hpbw_el_deg=26.0)
    with pytest.raises(GeometryError):
        alpha_flat(scn.geometry, degenerate, scn.reflector)


def test_alpha_flat_override_wins():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", alpha_flat=0.42).to_scenario()
    assert scn.alpha == 0.42


def test_alpha_curved_demo_radius():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=0.5).to_scenario()
    assert_allclose(scn.alpha / flat_factor(scn), 0.5 / 5.5, rtol=1e-12)
    assert scn.alpha == alpha_curved(flat_factor(scn), scn.reflector, scn.geometry)


def test_alpha_curved_planar_limit_converges():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=1e12).to_scenario()
    assert_allclose(scn.alpha / flat_factor(scn), 1.0, rtol=1e-9)


@pytest.mark.parametrize("radius", [0.25, 0.5, 1.0, 10.0, 1e5])
def test_alpha_ordering_strict_for_finite_radius(radius):
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=radius).to_scenario()
    assert scn.alpha < flat_factor(scn)


# ---------------------------------------------------------------- amplitudes

# 28 GHz horns on both ends (17 dBi, 24/26 deg HPBW), 0 dBm, no attenuation,
# a 1 cm wavelength and the phase referenced to 5 m.
BORESIGHT_SCENARIO = dataclasses.replace(
    ScenarioConfig(band=Band.GHZ28, alpha_flat=1.0).to_scenario(),
    wavelength_m=0.01, d_ref_m=5.0, tx_power_dbm=0.0,
)
LAM = BORESIGHT_SCENARIO.wavelength_m


def boresight_amplitudes(distance_m):
    """PHYSICAL-mode terms of on-boresight rays at the given path lengths, one ray per row."""
    d = np.asarray(distance_m, dtype=float)[:, None]
    zero = np.zeros_like(d)
    return _ray_sums(BORESIGHT_SCENARIO, (d, zero, zero, zero, zero), SumMode.PHYSICAL, 1)


def test_contribution_at_reference_distance_is_real_positive():
    (amp,) = boresight_amplitudes([5.0])
    assert amp.imag == 0.0
    assert amp.real > 0.0


def test_contribution_half_wave_flips_sign():
    ref, half = boresight_amplitudes([5.0, 5.0 + LAM / 2.0])
    assert_allclose(abs(np.angle(half)), math.pi, rtol=1e-12)
    assert half.real < 0.0
    assert abs(half.imag) < 1e-12 * abs(half.real)
    assert ref.real > 0.0


def test_half_wave_pair_cancels():
    a, b_raw = boresight_amplitudes([5.0, 5.0 + LAM / 2.0])
    # same magnitude, half a wavelength longer path
    b = b_raw * abs(a) / abs(b_raw)
    assert abs(a + b) < 1e-12 * abs(a)


# ------------------------------------------------------------------ flat path

def test_friis_identity_single_facet():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", facets_per_side=1,
                         alpha_flat=1.0).to_scenario()
    rx = specular_point(scn.geometry)[None, :]
    (got,) = flat_sweep_power(scn, rx, SumMode.PHYSICAL)
    want = friis_dbm(scn.tx_power_dbm, 17.0, scn.wavelength_m, 5.0)
    assert abs(got - want) < 1e-9


def test_literal_mode_single_facet_formula():
    # One facet plus the center ray at the same point: two identical terms,
    # sqrt(1) prefactor, magnitude reported as 10*log10|sum|.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", facets_per_side=1,
                         alpha_flat=1.0).to_scenario()
    rx = specular_point(scn.geometry)[None, :]
    (got,) = flat_sweep_power(scn, rx, SumMode.LITERAL)
    p_mw = 10.0 ** (scn.tx_power_dbm / 10.0)
    term = p_mw / (4 * math.pi * 5.0) ** 2 * 10.0**1.7 * scn.wavelength_m**2
    assert_allclose(got, 10.0 * math.log10(2.0 * term), atol=1e-9)


def test_reference_path_shift_leaves_power_unchanged():
    base = ScenarioConfig(band=Band.GHZ39, reflector_kind="flat").to_scenario()
    shifted = ScenarioConfig(band=Band.GHZ39, reflector_kind="flat",
                             d_ref_m=base.d_ref_m + 7.3).to_scenario()
    rx = base.geometry.sweep_start + 0.62 * (base.geometry.sweep_end - base.geometry.sweep_start)
    for mode in SumMode:
        delta = flat_sweep_power(base, rx[None, :], mode) - flat_sweep_power(
            shifted, rx[None, :], mode)
        assert abs(delta[0]) < 1e-9


def test_efficiency_scales_power_linearly():
    k = 0.37
    full = ScenarioConfig(band=Band.GHZ39, reflector_kind="flat",
                          reflection_efficiency=1.0).to_scenario()
    part = ScenarioConfig(band=Band.GHZ39, reflector_kind="flat",
                          reflection_efficiency=k).to_scenario()
    rx = full.geometry.sweep_start + 0.62 * (full.geometry.sweep_end - full.geometry.sweep_start)
    (diff,) = flat_sweep_power(full, rx[None, :], SumMode.PHYSICAL) - flat_sweep_power(
        part, rx[None, :], SumMode.PHYSICAL)
    assert abs(diff - (-10.0 * math.log10(k))) < 1e-9


def _swapped_link(scn, rx_point):
    """Swap TX and RX ends: TX moves to rx_point, the sweep midpoint (which
    carries the RX boresight) moves to the old TX position."""
    g = scn.geometry
    swapped_geom = ScenarioGeometry(
        tx_position=rx_point,
        reflector_center=g.reflector_center,
        reflector_normal=g.reflector_normal,
        incidence_angle_deg=g.incidence_angle_deg,
        sweep_start=g.tx_position - 0.9 * g.sweep_axis,
        sweep_end=g.tx_position + 0.9 * g.sweep_axis,
        n_rx_positions=g.n_rx_positions,
    )
    return dataclasses.replace(scn, geometry=swapped_geom,
                               tx_pattern=scn.rx_pattern, rx_pattern=scn.tx_pattern)


def test_reciprocity_flat():
    # Distinct patterns at the two ends; attenuation pinned so the swap is
    # exact. Evaluation at the sweep midpoint, where the fixed-boresight
    # convention makes the swapped link well defined.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", alpha_flat=0.3,
                         sweep_offset_m=0.25).to_scenario()
    scn = dataclasses.replace(scn, tx_pattern=AntennaPattern(17.0, 24.0, 26.0),
                              rx_pattern=AntennaPattern(20.0, 16.0, 15.0))
    rx = scn.geometry.sweep_midpoint
    fwd = flat_sweep_power(scn, rx[None, :], SumMode.PHYSICAL)
    rev = flat_sweep_power(_swapped_link(scn, rx), scn.geometry.tx_position[None, :],
                           SumMode.PHYSICAL)
    assert abs(fwd[0] - rev[0]) < 1e-9


def test_reciprocity_convex():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex", alpha_curved=0.05).to_scenario()
    rx = specular_point(scn.geometry)
    fwd = convex_sweep_power(scn, rx[None, :], SumMode.PHYSICAL)
    rev = convex_sweep_power(_swapped_link(scn, rx), scn.geometry.tx_position[None, :],
                             SumMode.PHYSICAL)
    assert abs(fwd[0] - rev[0]) < 1e-9


def test_peak_power_bounded_by_shortest_path_friis():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    profile = sweep_profile(scn, SumMode.PHYSICAL)
    # Shortest possible facet path across the sweep is bounded below by the
    # direct image-source distance, so one bound covers every position.
    d_min = 5.0 - 0.5 * scn.geometry.sweep_length_m
    bound = friis_dbm(scn.tx_power_dbm, 17.0, scn.wavelength_m, d_min)
    assert np.max(profile.power_db) <= bound


def test_flat_sweep_bit_determinism():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", n_positions=101).to_scenario()
    rx = scn.geometry.rx_positions()
    a = flat_sweep_power(scn, rx, SumMode.PHYSICAL)
    b = flat_sweep_power(scn, rx, SumMode.PHYSICAL)
    assert np.array_equal(a, b)


def test_flat_requires_flat_spec():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    with pytest.raises(ValueError):
        flat_sweep_power(scn, specular_point(scn.geometry)[None, :], SumMode.PHYSICAL)


# ---------------------------------------------------------------- convex path

def test_convex_single_ray_friis():
    # One height section, one azimuth target centered on the RX: the captured
    # ray is the exact specular path through the arc apex.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex", section_height_m=SIDE,
                         azimuth_ray_spacing_m=10.0, alpha_curved=1.0).to_scenario()
    rx = specular_point(scn.geometry)[None, :]
    (got,) = convex_sweep_power(scn, rx, SumMode.PHYSICAL)
    want = friis_dbm(scn.tx_power_dbm, 17.0, scn.wavelength_m, 5.0)
    assert abs(got - want) < 1e-9


def test_convex_no_capture_returns_sentinel():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=9e5).to_scenario()
    g = scn.geometry
    rx = g.sweep_midpoint + 2.5 * g.sweep_axis
    power = convex_sweep_power(scn, rx[None, :], SumMode.PHYSICAL)
    assert power.tolist() == [float("-inf")]


@pytest.mark.parametrize("mode", list(SumMode))
def test_convex_sweep_does_not_depend_on_blocking(mode, monkeypatch):
    # At sweep offset 5 m the 28 GHz sweep mixes uncaptured positions with
    # ray counts that vary along it. A small ray block makes the strided sweep
    # span block boundaries within its ray-count groups, and a capture block
    # that does not divide its 200 positions puts capture-line blocks across
    # ray-count groups and across the start of the uncaptured run.
    monkeypatch.setattr(engine, "_RAY_BLOCK", 1000)
    monkeypatch.setattr(scene, "_CAPTURE_BLOCK", 7)
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         sweep_offset_m=5.0).to_scenario()
    rx = scn.geometry.rx_positions()[::9]
    angles, _ = convex_captures(scn.reflector, scn.geometry, rx, scn.rx_pattern)
    counts = np.count_nonzero(~np.isnan(angles), axis=1)
    n_el = scn.reflector.n_height_sections
    groups = {int(k): np.count_nonzero(counts == k) for k in np.unique(counts[counts > 0])}
    assert 0 in counts and len(groups) > 1
    assert any(size > engine._RAY_BLOCK // (n_el * k) for k, size in groups.items())
    assert counts.size % scene._CAPTURE_BLOCK != 0
    starts = range(scene._CAPTURE_BLOCK, counts.size, scene._CAPTURE_BLOCK)
    assert any(counts[i - 1] == counts[i] > 0 for i in starts)
    captured = [np.count_nonzero(counts[i:i + scene._CAPTURE_BLOCK])
                for i in range(0, counts.size, scene._CAPTURE_BLOCK)]
    assert any(0 < n < scene._CAPTURE_BLOCK for n in captured)

    one_by_one = [convex_captures(scn.reflector, scn.geometry, point[None, :],
                                  scn.rx_pattern)[0][0] for point in rx]
    assert np.array_equal(angles, one_by_one, equal_nan=True)

    swept = convex_sweep_power(scn, rx, mode)
    alone = [convex_sweep_power(scn, point[None, :], mode)[0] for point in rx]
    assert np.array_equal(swept, alone)
    assert np.array_equal(np.isneginf(swept), counts == 0)


def test_planar_limit_flag_matches_flat_sweep():
    flat = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", facets_per_side=16,
                          n_positions=121).to_scenario()
    convex = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex", radius_of_curvature_m=1e6,
                            section_height_m=SIDE / 16, n_positions=121).to_scenario()
    p_flat = sweep_profile(flat, SumMode.PHYSICAL)
    p_convex = sweep_profile(convex, SumMode.PHYSICAL)
    assert np.max(np.abs(p_flat.power_db - p_convex.power_db)) < 1e-3


def test_convex_requires_convex_spec():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    with pytest.raises(ValueError):
        convex_sweep_power(scn, specular_point(scn.geometry)[None, :], SumMode.PHYSICAL)


@given(t=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_physical_power_never_exceeds_friis_bound(t):
    scn = ScenarioConfig(band=Band.GHZ39, reflector_kind="flat").to_scenario()
    g = scn.geometry
    rx = g.sweep_start + t * (g.sweep_end - g.sweep_start)
    (power,) = flat_sweep_power(scn, rx[None, :], SumMode.PHYSICAL)
    d_min = min(
        float(np.linalg.norm(g.tx_position - p) + np.linalg.norm(rx - p))
        for p in (g.reflector_center,)
    ) - SIDE  # generous slack below any facet path
    bound = friis_dbm(scn.tx_power_dbm, 20.0, scn.wavelength_m, max(d_min, 1.0))
    assert power <= bound
