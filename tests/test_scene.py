import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from reflectsim.antenna import Band, band_defaults
from reflectsim.config import ConfigError, ScenarioConfig, parse_config
from reflectsim.scene import (
    ConvexReflectorSpec,
    FlatReflectorSpec,
    GeometryError,
    REFLECTOR_SIDE_16IN_M,
    ScenarioGeometry,
    _CAPTURE_BLOCK,
    capture_length_m,
    convex_captures,
    convex_path_geometry_batch,
    facetize_flat,
    offset_angles_deg,
    path_geometry_batch,
    specular_point,
    surface_axes,
    vec3,
)

SIDE = REFLECTOR_SIDE_16IN_M


def test_sixteen_inches_in_meters():
    assert_allclose(SIDE, 0.4064, atol=1e-15)


def test_default_scenario_28_flat():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    assert scn.reflector.facets_per_side == 6
    assert scn.reflector.facet_count == 36
    assert_allclose(scn.reflector.width_m, 0.4064)
    assert_allclose(scn.reflector.height_m, 0.4064)
    g = scn.geometry
    assert g.n_rx_positions == 1800
    assert_allclose(g.sweep_length_m, 1.8, atol=1e-12)
    assert_allclose(np.linalg.norm(g.tx_position), 2.5, atol=1e-12)
    cos_inc = float(np.dot(g.tx_position, g.reflector_normal)) / 2.5
    assert_allclose(cos_inc, math.cos(math.radians(30.0)), atol=1e-12)


def test_default_scenario_120_uses_256_facets():
    scn = ScenarioConfig(band=Band.GHZ120, reflector_kind="flat").to_scenario()
    assert scn.reflector.facets_per_side == 16
    assert scn.reflector.facet_count == 256


def test_default_39_convex_sweep_centered_on_specular():
    scn = ScenarioConfig(band=Band.GHZ39, reflector_kind="convex").to_scenario()
    g = scn.geometry
    assert_allclose(g.sweep_length_m, 1.8, atol=1e-12)
    assert_allclose(specular_point(g), g.sweep_midpoint, atol=1e-12)


def test_facetize_single_facet_degenerates_to_center():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", facets_per_side=1).to_scenario()
    facets = facetize_flat(scn.reflector, scn.geometry)
    assert facets.shape == (1, 3)
    assert_allclose(facets[0], scn.geometry.reflector_center, atol=1e-15)


def test_facetize_6x6_grid_offsets():
    # Uniform 6-per-side grid across 0.4064 m: centers at +/-{1,3,5} * side/12
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    facets = facetize_flat(scn.reflector, scn.geometry)
    assert facets.shape == (36, 3)
    expected = sorted(k * SIDE / 12.0 for k in (-5, -3, -1, 1, 3, 5))
    for axis in (1, 2):  # surface horizontal (y) and vertical (z)
        got = sorted({round(float(v), 12) for v in facets[:, axis]})
        assert_allclose(got, expected, atol=1e-12)
    # row-major: rows climb the vertical axis, columns run along the horizontal
    grid = facets.reshape(6, 6, 3)
    assert np.all(np.diff(grid[:, :, 2], axis=0) > 0.0)
    assert np.all(np.diff(grid[:, :, 1], axis=1) > 0.0)


def test_facets_lie_on_reflector_plane():
    scn = ScenarioConfig(band=Band.GHZ120, reflector_kind="flat").to_scenario()
    facets = facetize_flat(scn.reflector, scn.geometry)
    n = scn.geometry.reflector_normal
    c = scn.geometry.reflector_center
    assert np.max(np.abs((facets - c) @ n)) <= 1e-12


def test_facet_grid_mirror_symmetry():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    facets = facetize_flat(scn.reflector, scn.geometry)
    pts = {(round(float(y), 12), round(float(z), 12)) for y, z in facets[:, 1:]}
    assert {(-y, z) for y, z in pts} == pts
    assert {(y, -z) for y, z in pts} == pts


def test_facet_areas_tile_reflector():
    spec = FlatReflectorSpec(width_m=0.4064, height_m=0.4064, facets_per_side=6,
                             reflection_efficiency=1.0)
    facet_area = (spec.width_m / spec.facets_per_side) * (spec.height_m / spec.facets_per_side)
    total = facet_area * spec.facet_count
    assert_allclose(total, spec.width_m * spec.height_m, rtol=1e-9)


def test_capture_length_28ghz():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    got = capture_length_m(scn.rx_pattern, 2.5)
    want = 2.0 * 2.5 * math.tan(math.radians(12.0))
    assert_allclose(got, want, rtol=1e-15)
    assert_allclose(got, 1.063, atol=5e-4)


def test_capture_length_requires_positive_distance():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    with pytest.raises(GeometryError):
        capture_length_m(scn.rx_pattern, 0.0)


def _capture_and_paths(scn, rx):
    """Nominal target count, captured arc angles (K,) and the traced ray bundle
    (one row of each path array, or None when nothing is captured) of a convex
    scenario at one RX."""
    (angles,), (intercepts,) = convex_captures(
        scn.reflector, scn.geometry, rx[None, :], scn.rx_pattern)
    n_az = angles.size
    captured = ~np.isnan(angles)
    angles, intercepts = angles[captured], intercepts[captured]
    if angles.size == 0:
        return n_az, angles, None
    paths = convex_path_geometry_batch(scn.reflector, scn.geometry, angles[None],
                                       intercepts[None], scn.tx_boresight, scn.rx_boresight)
    return n_az, angles, [p[0] for p in paths]


def test_section_convex_single_section():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         section_height_m=SIDE).to_scenario()
    _, angles, paths = _capture_and_paths(scn, specular_point(scn.geometry))
    assert scn.reflector.n_height_sections == 1
    assert all(p.size == angles.size for p in paths)


def test_section_convex_default_counts():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    rx = specular_point(scn.geometry)
    n_az, angles, paths = _capture_and_paths(scn, rx)
    assert scn.reflector.n_height_sections == 16  # height / (height/16)
    # R = 0.5 m diverges rays strongly, so all 32 intercept targets are reachable
    assert n_az == 32
    assert angles.size == 32
    _, (intercepts,) = convex_captures(scn.reflector, scn.geometry, rx[None, :],
                                       scn.rx_pattern)
    gamma = scn.reflector.azimuth_ray_spacing_m
    offsets = np.linalg.norm(intercepts - rx[:2], axis=1)
    assert_allclose(offsets, np.abs(np.arange(32) - 15.5) * gamma, rtol=1e-12)
    assert all(p.size == 16 * 32 for p in paths)


def test_section_convex_rays_lie_on_arc():
    # The traced bundle departs the TX toward points on the arc of radius R
    # about the vertical axis behind the plate, within the plate's chord.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    spec, g = scn.reflector, scn.geometry
    _, angles, (_, tx_az_deg, tx_el_deg, _, _) = _capture_and_paths(scn, specular_point(g))
    r = spec.radius_of_curvature_m
    assert np.max(np.abs(angles)) <= math.asin(spec.chord_width_m / (2.0 * r))
    e_h, e_v = surface_axes(g.reflector_normal)
    axis_center = g.reflector_center - r * g.reflector_normal
    b = angles[:, None]
    radial = np.cos(b) * g.reflector_normal + np.sin(b) * e_h
    z = -0.5 * spec.height_m + 0.5 * spec.section_height_m  # bottom section
    launch = axis_center + r * radial + z * e_v
    assert_allclose(np.linalg.norm(radial, axis=1), 1.0, atol=1e-12)
    d_in = launch - g.tx_position
    tx_az, tx_el = offset_angles_deg(d_in / np.linalg.norm(d_in, axis=1, keepdims=True),
                                     scn.tx_boresight)
    n_az = angles.size
    assert_allclose(tx_az_deg[:n_az], tx_az, atol=1e-9)
    assert_allclose(tx_el_deg[:n_az], tx_el, atol=1e-9)


def test_section_convex_planar_limit_matches_flat_directions():
    # At the planar-limit radius the arc normals collapse onto the plate normal,
    # so mirror reflections agree with the flat law to well under 1e-4 rad.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=1e6).to_scenario()
    g = scn.geometry
    _, angles, _ = _capture_and_paths(scn, specular_point(g))
    assert angles.size > 0
    assert np.max(np.abs(angles)) < 1e-4
    e_h, _ = surface_axes(g.reflector_normal)
    n_flat = g.reflector_normal
    d_in = g.reflector_center - g.tx_position
    d_in /= np.linalg.norm(d_in)
    refl_flat = d_in - 2 * float(np.dot(d_in, n_flat)) * n_flat
    for b in angles:
        normal = math.cos(b) * n_flat + math.sin(b) * e_h
        refl_arc = d_in - 2 * float(np.dot(d_in, normal)) * normal
        assert float(np.linalg.norm(refl_arc - refl_flat)) < 1e-4


def test_section_convex_empty_when_nothing_reachable():
    # Just below the planar-limit flag the reachable intercept band is the
    # plate image; an RX far along the sweep axis cannot capture any of it.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         radius_of_curvature_m=9e5).to_scenario()
    g = scn.geometry
    rx = g.sweep_midpoint + 2.5 * g.sweep_axis
    _, angles, paths = _capture_and_paths(scn, rx)
    assert angles.size == 0 and paths is None


def test_section_convex_rejects_rx_behind_reflector():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    behind = -1.0 * scn.geometry.reflector_normal
    with pytest.raises(GeometryError):
        convex_captures(scn.reflector, scn.geometry, behind[None, :], scn.rx_pattern)
    # One bad position in a sweep rejects the whole sweep.
    rx = np.vstack([specular_point(scn.geometry), behind])
    with pytest.raises(GeometryError):
        convex_captures(scn.reflector, scn.geometry, rx, scn.rx_pattern)


def _captures_at(radius_m, tx, rx, *more_rx):
    """`convex_captures` at one RX, followed by `more_rx`, for a 16-section,
    16-inch plate facing +x at the origin, with 3.31 cm ray spacing, the
    28 GHz RX pattern and a sweep midpoint 2.5 m out, which sizes the capture
    segments. Returns the targets, the
    capture-line origin and direction, and the captured arc angles and their
    intercepts at the first RX."""
    spec = ConvexReflectorSpec(chord_width_m=SIDE, height_m=SIDE, radius_of_curvature_m=radius_m,
                               section_height_m=SIDE / 16, azimuth_ray_spacing_m=0.0331,
                               reflection_efficiency=1.0)
    rx = np.asarray(rx)
    geom = ScenarioGeometry(tx_position=tx, reflector_center=np.zeros(3),
                            reflector_normal=[1.0, 0.0, 0.0], incidence_angle_deg=30.0,
                            sweep_start=[2.5, -0.5, 0.0], sweep_end=[2.5, 0.5, 0.0],
                            n_rx_positions=2)
    (angles, *_), (intercepts, *_) = convex_captures(
        spec, geom, np.array([rx, *more_rx]), band_defaults(Band.GHZ28).rx_pattern)
    n_az = angles.size
    targets = (np.arange(n_az) - (n_az - 1) / 2.0) * spec.azimuth_ray_spacing_m
    line = np.array([rx[1], -rx[0]]) / np.linalg.norm(rx[:2])
    captured = ~np.isnan(angles)
    return targets, rx[:2], line, angles[captured], intercepts[captured]


def test_capture_map_increasing_along_the_arc():
    # A nearly flat arc lit from far to the side: the reflected intercepts
    # grow with the arc angle, the opposite of the default sweeps' maps.
    radius = 119.25068253803899
    tx = np.array([6.863308605723315, -7.905305784640073, 0.4197838364770865])
    rx = [0.04410115685021309, -0.07342395706239557, 0.35237264271198265]
    targets, q, line, angles, intercepts = _captures_at(radius, tx, rx)
    assert angles.size == 7 and np.all(np.diff(angles) > 0.0)
    offsets = (intercepts - q) @ line
    first = int(np.argmin(np.abs(targets - offsets[0])))
    assert_allclose(offsets, targets[first:first + 7], rtol=0.0, atol=1e-12)

    # Re-trace each captured angle: its reflected ray passes through its intercept.
    normal = np.stack([np.cos(angles), np.sin(angles)], axis=1)  # e_h = +y here
    launch = radius * (normal - [1.0, 0.0])
    d_in = launch - tx[:2]
    d_in /= np.linalg.norm(d_in, axis=1, keepdims=True)
    d_out = d_in - 2.0 * np.sum(d_in * normal, axis=1, keepdims=True) * normal
    rel = intercepts - launch
    assert np.all(np.sum(rel * d_out, axis=1) > 0.0)
    assert np.max(np.abs(d_out[:, 0] * rel[:, 1] - d_out[:, 1] * rel[:, 0])) < 1e-9

    # The default 28 GHz sweep's map runs the other way.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    _, default_angles, _ = _capture_and_paths(scn, specular_point(scn.geometry))
    assert np.all(np.diff(default_angles) < 0.0)


def test_capture_map_that_is_not_monotone_is_rejected():
    # A tight arc lit from far to the side: part of its reflected fan turns
    # past the direction of the capture line, so the intercepts run off one
    # end of the line and come back from the other.
    with pytest.raises(GeometryError, match="not monotone"):
        _captures_at(0.22876151890631236,
                     [0.8605285095721427, -8.126597734089998, 0.9610066152749481],
                     [0.29169247385091673, -2.893838176250152, -0.6420837448390428])


def test_every_rx_is_checked_before_any_capture_line():
    # The first capture block has a map that is not monotone; a non-finite RX
    # in the next block is reported first.
    rx = [0.29169247385091673, -2.893838176250152, -0.6420837448390428]
    with pytest.raises(GeometryError, match="finite"):
        _captures_at(0.22876151890631236,
                     [0.8605285095721427, -8.126597734089998, 0.9610066152749481],
                     rx, *[rx] * _CAPTURE_BLOCK, [np.nan, 0.5, 0.0])


def test_specular_point_is_sweep_midpoint_by_construction():
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario().geometry
    assert_allclose(specular_point(g), g.sweep_midpoint, atol=1e-12)


def test_specular_point_normal_incidence_on_normal_line():
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat",
                       incidence_deg=0.0).to_scenario().geometry
    s = specular_point(g)
    off_axis = s - float(np.dot(s, g.reflector_normal)) * g.reflector_normal
    assert float(np.linalg.norm(off_axis)) < 1e-12


def test_specular_path_length_image_source_oracle():
    # 30 degree incidence, 2.5 m both legs: the image-source distance is 5 m.
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario().geometry
    s = specular_point(g)
    d = float(np.linalg.norm(g.tx_position) + np.linalg.norm(s))
    assert_allclose(d, 5.0, atol=1e-12)
    tx_image = g.tx_position.copy()
    tx_image[0] = -tx_image[0]
    assert_allclose(np.linalg.norm(s - tx_image), 5.0, atol=1e-12)


def test_specular_point_parallel_sweep_raises():
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario().geometry
    tx_image = g.tx_position.copy()
    tx_image[0] = -tx_image[0]
    sight = (g.reflector_center - tx_image) / np.linalg.norm(g.reflector_center - tx_image)
    shifted = ScenarioGeometry(
        tx_position=g.tx_position,
        reflector_center=g.reflector_center,
        reflector_normal=g.reflector_normal,
        incidence_angle_deg=g.incidence_angle_deg,
        sweep_start=g.sweep_midpoint + np.array([0.0, 0.3, 0.0]),
        sweep_end=g.sweep_midpoint + np.array([0.0, 0.3, 0.0]) + 1.8 * sight,
        n_rx_positions=g.n_rx_positions,
    )
    with pytest.raises(GeometryError, match="parallel"):
        specular_point(shifted)


def test_specular_point_ignores_reflector_size():
    small = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=0.1,
                           height_m=0.1).to_scenario()
    large = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", width_m=4.0,
                           height_m=4.0).to_scenario()
    assert_allclose(specular_point(small.geometry), specular_point(large.geometry), atol=1e-15)


def _single_path(tx, launch, rx, tx_boresight, rx_boresight):
    """The one (distance, tx_az, tx_el, rx_az, rx_el) ray of a 1 x 1 batch."""
    return tuple(float(a[0, 0]) for a in path_geometry_batch(
        tx, np.asarray(launch)[None, :], np.asarray(rx)[None, :], tx_boresight, rx_boresight))


def test_path_geometry_collinear():
    boresight = np.array([1.0, 0.0, 0.0])
    d, tx_az, tx_el, rx_az, rx_el = _single_path(
        np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), boresight, boresight)
    assert_allclose(d, 2.0, atol=1e-15)
    assert tx_az == tx_el == 0.0
    assert rx_az == rx_el == 0.0


def test_path_geometry_swap_symmetry():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    launch = facetize_flat(scn.reflector, scn.geometry)[7]
    tx = scn.geometry.tx_position
    rx = scn.geometry.sweep_start
    bt, br = scn.tx_boresight, scn.rx_boresight
    fwd_d, fwd_tx_az, fwd_tx_el, fwd_rx_az, fwd_rx_el = _single_path(tx, launch, rx, bt, br)
    # Swapping the link ends keeps each horn's physical axis; the reference
    # vectors negate because departure and arrival conventions point opposite
    # ways along that axis.
    rev_d, rev_tx_az, rev_tx_el, rev_rx_az, rev_rx_el = _single_path(rx, launch, tx, -br, -bt)
    assert_allclose(fwd_d, rev_d, rtol=1e-15)
    # azimuths exchange exactly; elevations exchange in magnitude (the global
    # vertical does not flip with the antenna, and gains are even in elevation)
    assert_allclose(fwd_tx_az, rev_rx_az, atol=1e-12)
    assert_allclose(fwd_rx_az, rev_tx_az, atol=1e-12)
    assert_allclose(abs(fwd_tx_el), abs(rev_rx_el), atol=1e-12)
    assert_allclose(abs(fwd_rx_el), abs(rev_tx_el), atol=1e-12)


def test_path_geometry_degenerate_raises():
    # A zero-length leg at either end leaves the ray direction undefined.
    b = np.array([1.0, 0.0, 0.0])
    with pytest.raises(GeometryError, match="TX"):
        _single_path(np.zeros(3), np.zeros(3), np.array([2.0, 0.0, 0.0]), b, b)
    with pytest.raises(GeometryError, match="RX"):
        _single_path(np.zeros(3), np.array([2.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), b, b)


coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(px=coords, py=coords, pz=coords, rx_t=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_path_distance_triangle_inequality(px, py, pz, rx_t):
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    g = scn.geometry
    launch = np.array([px, py, pz])
    rx = g.sweep_start + rx_t * (g.sweep_end - g.sweep_start)
    if np.linalg.norm(launch - g.tx_position) < 1e-9 or np.linalg.norm(launch - rx) < 1e-9:
        return
    d = _single_path(g.tx_position, launch, rx, scn.tx_boresight, scn.rx_boresight)[0]
    assert d >= float(np.linalg.norm(g.tx_position - rx)) - 1e-12


def test_geometry_validation():
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario().geometry
    with pytest.raises(GeometryError, match="unit"):
        ScenarioGeometry(g.tx_position, g.reflector_center, g.reflector_normal * 1.1,
                         30.0, g.sweep_start, g.sweep_end, 1800)
    with pytest.raises(GeometryError, match="illuminated"):
        ScenarioGeometry(-g.tx_position, g.reflector_center, g.reflector_normal,
                         30.0, g.sweep_start, g.sweep_end, 1800)
    with pytest.raises(GeometryError, match="length"):
        ScenarioGeometry(g.tx_position, g.reflector_center, g.reflector_normal,
                         30.0, g.sweep_start, g.sweep_start, 1800)
    with pytest.raises(GeometryError, match=">= 2"):
        ScenarioGeometry(g.tx_position, g.reflector_center, g.reflector_normal,
                         30.0, g.sweep_start, g.sweep_end, 1)


def test_reflector_spec_validation():
    flat = dict(width_m=SIDE, height_m=SIDE, facets_per_side=6, reflection_efficiency=1.0)
    convex = dict(chord_width_m=SIDE, height_m=SIDE, radius_of_curvature_m=0.5,
                  section_height_m=SIDE / 16, azimuth_ray_spacing_m=0.01,
                  reflection_efficiency=1.0)
    with pytest.raises(ValueError):
        FlatReflectorSpec(**{**flat, "facets_per_side": 0})
    with pytest.raises(ValueError):
        FlatReflectorSpec(**{**flat, "reflection_efficiency": 1.5})
    with pytest.raises(ValueError, match="exceed"):
        ConvexReflectorSpec(**{**convex, "radius_of_curvature_m": 0.2})  # below chord/2
    with pytest.raises(ValueError):
        ConvexReflectorSpec(**{**convex, "section_height_m": 1.0})  # above height
    with pytest.raises(ValueError, match="spacing"):
        ConvexReflectorSpec(**{**convex, "azimuth_ray_spacing_m": 0.0})


def test_vec3_rejects_non_finite():
    with pytest.raises(GeometryError):
        vec3([1.0, float("nan"), 0.0])


def test_default_scenario_unknown_inputs():
    with pytest.raises(ConfigError, match="band"):
        parse_config("band = 60ghz\n")
    with pytest.raises(ConfigError, match="line 2: reflector.kind"):
        parse_config("band = 28\nreflector.kind = parabolic\n")
    with pytest.raises(ConfigError, match="parabolic") as info:
        ScenarioConfig(band=Band.GHZ28, reflector_kind="parabolic")
    assert info.value.key == "reflector.kind"
