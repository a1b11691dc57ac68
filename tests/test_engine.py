import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import unfolded_convex_paths, unfolded_sweep_power
from reflectsim import engine, runner, scene
from reflectsim.antenna import Band
from reflectsim.engine import SumMode, _ray_sums, sweep_power
from reflectsim.config import ConfigError, ScenarioConfig, parse_config
from reflectsim.runner import sweep_profile
from reflectsim.scene import (
    REFLECTOR_SIDE_16IN_M,
    GeometryError,
    antenna_frame,
    convex_captures,
    convex_path_geometry_batch,
    mirror_fold,
    section_heights,
)

SIDE = REFLECTOR_SIDE_16IN_M
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def friis_dbm(tx_power_dbm, gain_dbi, wavelength_m, distance_m):
    return tx_power_dbm + 2 * gain_dbi + 20.0 * math.log10(
        wavelength_m / (4.0 * math.pi * distance_m)
    )


# ---------------------------------------------------------------- attenuation

def test_alpha_flat_clamps_for_oversized_reflector():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=10.0,
                         height_m=10.0).to_scenario()
    assert scn.alpha == 1.0


def test_alpha_flat_28ghz_closed_form():
    # Independent ellipse-footprint arithmetic: semi-axes 2.5*tan(12deg) and
    # 2.5*tan(13deg)/cos(30deg), plate area foreshortened by cos(30deg).
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    semi_az = 2.5 * math.tan(math.radians(12.0))
    semi_el = 2.5 * math.tan(math.radians(13.0)) / math.cos(math.radians(30.0))
    want = (SIDE * SIDE * math.cos(math.radians(30.0))) / (math.pi * semi_az * semi_el)
    assert_allclose(scn.alpha, want, rtol=1e-12)
    assert_allclose(scn.alpha, 0.129, atol=1e-3)


def test_alpha_flat_quadruples_with_doubled_side():
    base = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=0.1,
                          height_m=0.1).to_scenario()
    doubled = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=0.2,
                             height_m=0.2).to_scenario()
    assert_allclose(doubled.alpha / base.alpha, 4.0, rtol=1e-12)


def test_alpha_curved_demo_radius():
    # The convex plate's alpha is the same-size flat plate's times R/(R + 2d).
    flat = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=0.5).to_scenario()
    assert_allclose(scn.alpha / flat.alpha, 0.5 / 5.5, rtol=1e-12)
    assert scn.alpha == flat.alpha * 0.5 / (0.5 + 2.0 * scn.geometry.rx_range_m)


def test_alpha_curved_planar_limit_converges():
    flat = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=1e12).to_scenario()
    assert_allclose(scn.alpha / flat.alpha, 1.0, rtol=1e-9)


# ---------------------------------------------------------------- amplitudes

# 28 GHz horns on both ends (17 dBi, 24/26 deg HPBW), 0 dBm, no attenuation,
# the 28 GHz wavelength and the phase referenced to 5 m.
BORESIGHT_SCENARIO = dataclasses.replace(
    ScenarioConfig(band=Band.GHZ28).to_scenario(),
    d_ref_m=5.0, tx_power_dbm=0.0, alpha=1.0,
)
LAM = BORESIGHT_SCENARIO.wavelength_m


def boresight_amplitudes(distance_m):
    """PHYSICAL-mode terms of on-boresight rays at the given path lengths, one ray per row."""
    d = np.asarray(distance_m, dtype=float)[:, None]
    zero = np.zeros_like(d)
    gain_tx = BORESIGHT_SCENARIO.tx_pattern.gain(zero, zero)
    return _ray_sums(BORESIGHT_SCENARIO, d, gain_tx, zero, zero, SumMode.PHYSICAL, 1)


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
    scn = dataclasses.replace(ScenarioConfig(band=Band.GHZ28, reflector_kind="flat",
                                             facets_per_side=1).to_scenario(), alpha=1.0)
    rx = scn.geometry.sweep_midpoint[None, :]
    (got,) = sweep_power(scn, rx, SumMode.PHYSICAL)
    want = friis_dbm(scn.tx_power_dbm, 17.0, scn.wavelength_m, 5.0)
    assert abs(got - want) < 1e-9


def test_literal_mode_single_facet_formula():
    # One facet plus the center ray at the same point: two identical terms,
    # sqrt(1) prefactor, magnitude reported as 10*log10|sum|.
    scn = dataclasses.replace(ScenarioConfig(band=Band.GHZ28, reflector_kind="flat",
                                             facets_per_side=1).to_scenario(), alpha=1.0)
    rx = scn.geometry.sweep_midpoint[None, :]
    (got,) = sweep_power(scn, rx, SumMode.LITERAL)
    p_mw = 10.0 ** (scn.tx_power_dbm / 10.0)
    term = p_mw / (4 * math.pi * 5.0) ** 2 * 10.0**1.7 * scn.wavelength_m**2
    assert_allclose(got, 10.0 * math.log10(2.0 * term), atol=1e-9)


def test_reference_path_shift_leaves_power_unchanged():
    base = ScenarioConfig(band=Band.GHZ39, reflector_kind="flat").to_scenario()
    shifted = dataclasses.replace(base, d_ref_m=base.d_ref_m + 7.3)
    rx = base.geometry.sweep_start + 0.62 * (base.geometry.sweep_end - base.geometry.sweep_start)
    for mode in SumMode:
        delta = sweep_power(base, rx[None, :], mode) - sweep_power(
            shifted, rx[None, :], mode)
        assert abs(delta[0]) < 1e-9


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
    a = sweep_power(scn, rx, SumMode.PHYSICAL)
    b = sweep_power(scn, rx, SumMode.PHYSICAL)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", list(SumMode))
@pytest.mark.parametrize("ray_block", [1, 1000])
def test_flat_sweep_does_not_depend_on_blocking(mode, ray_block, monkeypatch):
    # A one-ray budget puts every position in a block of its own; 1000 rays is
    # no multiple of the 36 launches (37 in LITERAL mode), and its 27-position
    # blocks do not divide the 200-position sweep. LITERAL mode also sums the
    # folded odd 5/side grid (26 rays: row 0 read off row 4, the z = 0 row
    # solved), whose 38-position blocks do not divide the sweep either.
    grids = [6, 5] if mode is SumMode.LITERAL else [6]
    scenarios = [ScenarioConfig(band=Band.GHZ28, reflector_kind="flat",
                                facets_per_side=n).to_scenario() for n in grids]
    rx = scenarios[0].geometry.rx_positions()[::9]
    launch_counts = [scn.reflector.facet_count + (mode is SumMode.LITERAL) for scn in scenarios]
    assert all(rx.shape[0] * n_launch <= engine._RAY_BLOCK for n_launch in launch_counts)
    wholes = [sweep_power(scn, rx, mode) for scn in scenarios]

    monkeypatch.setattr(engine, "_RAY_BLOCK", ray_block)
    for scn, n_launch, whole in zip(scenarios, launch_counts, wholes):
        assert ray_block % n_launch != 0
        step = max(1, ray_block // n_launch)
        assert step == 1 or rx.shape[0] % step != 0
        assert np.array_equal(sweep_power(scn, rx, mode), whole)
        alone = [sweep_power(scn, point[None, :], mode)[0] for point in rx]
        assert np.array_equal(whole, alone)


@pytest.mark.parametrize("offset", [0.0, 0.7])
@pytest.mark.parametrize("mode", list(SumMode))
@pytest.mark.parametrize("facets_per_side", [1, 2, 3, 5, 6, 7, 16, 64])
def test_folded_flat_sweep_is_the_unfolded_sum(facets_per_side, mode, offset):
    # 1/side LITERAL sums two launches at the origin, the facet and the centre
    # ray; neither has a mirror, so both are solved and neither is merged.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", facets_per_side=facets_per_side,
                         sweep_offset_m=offset).to_scenario()
    rx = scn.geometry.rx_positions()[::15]
    want = unfolded_sweep_power(scn, rx, mode)
    assert np.array_equal(sweep_power(scn, rx, mode), want)


# ---------------------------------------------------------------- convex path

def test_convex_single_ray_friis(monkeypatch):
    # One height section, one azimuth target centered on the RX: the captured
    # ray is the exact specular path through the arc apex.
    monkeypatch.setattr(scene, "_HEIGHT_SECTIONS", 1)
    monkeypatch.setattr(scene, "_AZIMUTH_TARGETS", 1)
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    scn = dataclasses.replace(scn, alpha=1.0)
    rx = scn.geometry.sweep_midpoint[None, :]
    (got,) = sweep_power(scn, rx, SumMode.PHYSICAL)
    want = friis_dbm(scn.tx_power_dbm, 17.0, scn.wavelength_m, 5.0)
    assert abs(got - want) < 1e-9


def test_convex_no_capture_returns_sentinel():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=9e5).to_scenario()
    g = scn.geometry
    rx = g.sweep_midpoint + 2.5 * g.sweep_axis
    power = sweep_power(scn, rx[None, :], SumMode.PHYSICAL)
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
    n_el = scene._HEIGHT_SECTIONS
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

    swept = sweep_power(scn, rx, mode)
    alone = [sweep_power(scn, point[None, :], mode)[0] for point in rx]
    assert np.array_equal(swept, alone)
    assert np.array_equal(np.isneginf(swept), counts == 0)


@pytest.mark.parametrize("mode", list(SumMode))
def test_planar_limit_sweep_is_the_flat_sweep_with_the_curved_alpha(mode):
    # A planar-limit convex config runs the flat 16/side plate, bit for bit;
    # only its attenuation factor is the curved one.
    flat = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", facets_per_side=16,
                          n_positions=121).to_scenario()
    convex = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex", radius_of_curvature_m=1e6,
                            n_positions=121).to_scenario()
    assert convex.alpha != flat.alpha
    p_flat = sweep_profile(dataclasses.replace(flat, alpha=convex.alpha), mode)
    assert np.array_equal(sweep_profile(convex, mode).power_db, p_flat.power_db)


def _convex_fixture(band, extra=""):
    text = (CONFIGS / f"{band}ghz_convex.cfg").read_text(encoding="utf-8") + extra
    return parse_config(text).to_scenario()


def _captured_rows(scn, rx):
    """(arc angles (1, K), intercepts (1, K, 2)) of each RX point that captures."""
    angles, intercepts = convex_captures(scn.reflector, scn.geometry, rx, scn.rx_pattern)
    for a, q in zip(angles, intercepts):
        kept = ~np.isnan(a)
        if kept.any():
            yield a[kept][None], q[kept][None]


@pytest.mark.parametrize("sections", [1, 16])
@pytest.mark.parametrize("band", [28, 39, 120])
def test_mirrored_height_sections_solve_to_the_same_rays(band, sections, monkeypatch):
    # With the TX and the RX in z = 0, section s and section S-1-s of the
    # unfolded solve give bit-equal path lengths, azimuths and gains and exactly
    # negated elevations; the folded solve is the unfolded upper half, and its
    # section gather rebuilds every mirrored array.
    monkeypatch.setattr(scene, "_HEIGHT_SECTIONS", sections)
    scn = _convex_fixture(band)
    frames = antenna_frame(scn.tx_boresight), antenna_frame(scn.rx_boresight)
    heights = section_heights(scn.reflector)
    solved = heights[mirror_fold(heights, 1)[0]]
    rows = list(_captured_rows(scn, scn.geometry.rx_positions()[::300]))
    assert len(rows) == 6
    for angles, intercepts in rows:
        k = angles.shape[1]
        full = unfolded_convex_paths(scn.reflector, scn.geometry, angles, intercepts, *frames)
        half = convex_path_geometry_batch(scn.reflector, scn.geometry, solved, angles, intercepts,
                                          *frames)
        d, tx_az, tx_el, rx_az, rx_el = (a.reshape(sections, k) for a in full)
        mirror = slice(None, None, -1)
        for same in (d, tx_az, rx_az, scn.tx_pattern.gain(tx_az, tx_el),
                     scn.rx_pattern.gain(rx_az, rx_el)):
            assert np.array_equal(same, same[mirror])
        for negated in (tx_el, rx_el):
            assert np.array_equal(negated, -negated[mirror])
        _, columns = mirror_fold(heights, k)
        for whole, upper in zip(full, half):
            assert np.array_equal(upper.reshape(-1, k), whole.reshape(sections, k)[sections // 2:])
        for i in (0, 1, 3):
            assert np.array_equal(np.take(half[i], columns, axis=1), full[i])


@pytest.mark.parametrize("mode", list(SumMode))
@pytest.mark.parametrize("fixture", ["28", "39", "120", "28-offset5"])
def test_folded_sweep_is_the_unfolded_sum(fixture, mode):
    # No golden profile holds a LITERAL convex sweep; this pins both modes.
    band, _, offset = fixture.partition("-offset")
    scn = _convex_fixture(band, f"geometry.sweep_offset = {offset}\n" if offset else "")
    rx = scn.geometry.rx_positions()[::15]
    want = unfolded_sweep_power(scn, rx, mode)
    assert np.array_equal(sweep_power(scn, rx, mode), want)
    assert np.isneginf(want).any() == bool(offset)


# One RX rule for both shapes. The ids keep the names of the two per-shape
# sweep functions that `sweep_power` replaced.
SHAPES = pytest.mark.parametrize("kind", ["flat", "convex"],
                                 ids=["flat_sweep_power", "convex_sweep_power"])


@SHAPES
def test_sweep_rejects_rx_points_off_the_link_plane(kind):
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind=kind).to_scenario()
    rx = scn.geometry.rx_positions()[::100].copy()
    rx[7, 2] = 0.125
    with pytest.raises(GeometryError, match=r"link plane z = 0, got z = 0\.125 m"):
        sweep_power(scn, rx, SumMode.PHYSICAL)


@pytest.mark.parametrize("bad_rx, message", [
    ([np.nan, 0.5, 0.0], r"must be finite, got \[nan, 0\.5, 0\.0\]"),
    ([-2.0, 0.5, 0.0], r"in front of the reflector \(x > 0\), got x = -2\.0 m"),
    ([0.0, 0.5, 0.0], r"in front of the reflector \(x > 0\), got x = 0\.0 m"),
], ids=["not_finite", "behind", "in_plate_plane"])
@SHAPES
def test_sweep_rejects_rx_points_that_are_not_finite_or_in_front(kind, bad_rx, message):
    # A flat sweep once gave -inf at the NaN point and, behind the plate, the
    # power it gives at the mirrored point in front.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind=kind).to_scenario()
    rx = scn.geometry.rx_positions()[::100].copy()
    rx[4] = bad_rx
    with pytest.raises(GeometryError, match=message):
        sweep_power(scn, rx, SumMode.PHYSICAL)


@pytest.mark.parametrize("shape", ["one_point", "two_columns"])
@SHAPES
def test_sweep_rejects_rx_points_that_are_not_an_m_by_3_array(kind, shape):
    # A single (3,) point once raised numpy's AxisError, and an (M, 2) array
    # an IndexError.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind=kind).to_scenario()
    rx = (scn.geometry.sweep_midpoint if shape == "one_point"
          else scn.geometry.rx_positions()[::100, :2])
    with pytest.raises(GeometryError, match=re.escape(f"(M, 3) array, got shape {rx.shape}")):
        sweep_power(scn, rx, SumMode.PHYSICAL)


@st.composite
def _links(draw):
    """A short sweep over a random link: band, shape, mode, TX and RX ranges,
    incidence and sweep offset, on a small flat grid or a convex arc."""
    kind = draw(st.sampled_from(["flat", "convex"]))
    fields = dict(band=draw(st.sampled_from(list(Band))), mode=draw(st.sampled_from(list(SumMode))),
                  reflector_kind=kind, tx_range_m=draw(st.floats(0.5, 5.0)),
                  rx_range_m=draw(st.floats(0.5, 5.0)), incidence_deg=draw(st.floats(0.0, 60.0)),
                  sweep_offset_m=draw(st.floats(-1.0, 1.0)), n_positions=draw(st.integers(2, 9)))
    if kind == "flat":
        fields["facets_per_side"] = draw(st.integers(1, 8))
    else:
        fields["radius_of_curvature_m"] = draw(st.floats(SIDE / 2, 3.0, exclude_min=True))
    try:
        return ScenarioConfig(**fields)
    except ConfigError:  # a sweep that reaches behind the plate
        assume(False)


def _outcome(call):
    """The result of `call()`, or the message of the GeometryError it raises."""
    try:
        return call()
    except GeometryError as exc:
        return str(exc)


@given(config=_links())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_links_sum_every_ray_whatever_the_blocking(config):
    # The folded, grouped and blocked sweep is the unfolded sum bit for bit,
    # for every ray budget and thread count; a sweep that raises raises the
    # same GeometryError every way.
    scn, mode = config.to_scenario(), config.mode
    rx = scn.geometry.rx_positions()
    want = _outcome(lambda: unfolded_sweep_power(scn, rx, mode))
    got = [_outcome(lambda: sweep_power(scn, rx, mode))]
    with pytest.MonkeyPatch.context() as patch:
        for ray_block in (1, 7):
            patch.setattr(engine, "_RAY_BLOCK", ray_block)
            got.append(_outcome(lambda: sweep_power(scn, rx, mode)))
    profiles = []
    with pytest.MonkeyPatch.context() as patch:
        for workers in (1, 2):
            patch.setattr(runner, "_SWEEP_WORKERS", workers)
            profiles.append(_outcome(lambda: sweep_profile(scn, mode).power_db))
    if isinstance(want, str):
        assert all(isinstance(other, str) and other == want for other in got + profiles)
        return
    assert all(np.array_equal(power, want) for power in got)
    top = np.max(want)
    if mode is SumMode.LITERAL and np.isfinite(top):
        want = want - top
    assert all(np.array_equal(power, want) for power in profiles)


@given(t=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_physical_power_never_exceeds_friis_bound(t):
    scn = ScenarioConfig(band=Band.GHZ39, reflector_kind="flat").to_scenario()
    g = scn.geometry
    rx = g.sweep_start + t * (g.sweep_end - g.sweep_start)
    (power,) = sweep_power(scn, rx[None, :], SumMode.PHYSICAL)
    # The path through the reflector center, less generous slack for any facet.
    d_min = float(np.linalg.norm(g.tx_position) + np.linalg.norm(rx)) - SIDE
    bound = friis_dbm(scn.tx_power_dbm, 20.0, scn.wavelength_m, max(d_min, 1.0))
    assert power <= bound
