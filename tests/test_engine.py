import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from reflectsim.antenna import AntennaPattern, Band
from reflectsim.engine import (
    SumMode,
    _amplitudes,
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
    specular_point,
)

SIDE = REFLECTOR_SIDE_16IN_M


def friis_dbm(tx_power_dbm, gain_dbi, wavelength_m, distance_m):
    return tx_power_dbm + 2 * gain_dbi + 20.0 * math.log10(
        wavelength_m / (4.0 * math.pi * distance_m)
    )


# ---------------------------------------------------------------- attenuation

def test_alpha_flat_clamps_for_oversized_reflector():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=10.0,
                         height_m=10.0).to_scenario()
    assert alpha_flat(scn) == 1.0


def test_alpha_flat_28ghz_closed_form():
    # Independent ellipse-footprint arithmetic: semi-axes 2.5*tan(12deg) and
    # 2.5*tan(13deg)/cos(30deg), plate area foreshortened by cos(30deg).
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    semi_az = 2.5 * math.tan(math.radians(12.0))
    semi_el = 2.5 * math.tan(math.radians(13.0)) / math.cos(math.radians(30.0))
    want = (SIDE * SIDE * math.cos(math.radians(30.0))) / (math.pi * semi_az * semi_el)
    got = alpha_flat(scn)
    assert_allclose(got, want, rtol=1e-12)
    assert_allclose(got, 0.129, atol=1e-3)


def test_alpha_flat_quadruples_with_doubled_side():
    base = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=0.1,
                          height_m=0.1).to_scenario()
    doubled = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=0.2,
                             height_m=0.2).to_scenario()
    assert_allclose(alpha_flat(doubled) / alpha_flat(base), 4.0, rtol=1e-12)


def test_alpha_flat_degenerate_footprint_raises():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    # smallest positive float collapses tan(hpbw/2) to zero
    degenerate = AntennaPattern(17.0, hpbw_az_deg=5e-324, hpbw_el_deg=26.0)
    scn = dataclasses.replace(scn, tx_pattern=degenerate)
    with pytest.raises(GeometryError):
        alpha_flat(scn)


def test_alpha_flat_override_wins():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", alpha_flat=0.42).to_scenario()
    assert alpha_flat(scn) == 0.42


def test_alpha_curved_demo_radius():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=0.5).to_scenario()
    assert_allclose(alpha_curved(scn) / alpha_flat(scn), 0.5 / 5.5, rtol=1e-12)


def test_alpha_curved_planar_limit_converges():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=1e12).to_scenario()
    assert_allclose(alpha_curved(scn) / alpha_flat(scn), 1.0, rtol=1e-9)


@pytest.mark.parametrize("radius", [0.25, 0.5, 1.0, 10.0, 1e5])
def test_alpha_ordering_strict_for_finite_radius(radius):
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=radius).to_scenario()
    assert alpha_curved(scn) < alpha_flat(scn)


# ---------------------------------------------------------------- amplitudes

PAT = AntennaPattern(17.0, 24.0, 26.0)


def boresight_amplitudes(distance_m, wavelength_m, d_ref_m=5.0):
    """PHYSICAL-mode terms of on-boresight rays at the given path lengths."""
    d = np.asarray(distance_m, dtype=float)
    zero = np.zeros_like(d)
    return _amplitudes(PAT, PAT, d, zero, zero, zero, zero, wavelength_m, d_ref_m,
                       alpha=1.0, efficiency=1.0, tx_power_mw=1.0, mode=SumMode.PHYSICAL,
                       normalization=1.0)


def test_contribution_at_reference_distance_is_real_positive():
    (amp,) = boresight_amplitudes([5.0], 0.01)
    assert amp.imag == 0.0
    assert amp.real > 0.0


def test_contribution_half_wave_flips_sign():
    lam = 0.01
    ref, half = boresight_amplitudes([5.0, 5.0 + lam / 2.0], lam)
    assert_allclose(abs(np.angle(half)), math.pi, rtol=1e-12)
    assert half.real < 0.0
    assert abs(half.imag) < 1e-12 * abs(half.real)
    assert ref.real > 0.0


def test_half_wave_pair_cancels():
    lam = 0.01
    a, b_raw = boresight_amplitudes([5.0, 5.0 + lam / 2.0], lam)
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
                             d_ref_m=base.reference_path_m + 7.3).to_scenario()
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
