import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import image_source_specular_oracle

from reflectsim import scene
from reflectsim.antenna import Band
from reflectsim.config import ConfigError, ScenarioConfig, parse_config
from reflectsim.engine import SumMode, sweep_power
from reflectsim.scene import (
    ConvexReflectorSpec,
    FlatReflectorSpec,
    GeometryError,
    REFLECTOR_SIDE_16IN_M,
    ScenarioGeometry,
    _CAPTURE_BLOCK,
    antenna_frame,
    capture_length_m,
    convex_captures,
    convex_path_geometry_batch,
    facetize_flat,
    mirror_fold,
    offset_angles_deg,
    path_geometry_batch,
    section_heights,
    tx_leg,
)

SIDE = REFLECTOR_SIDE_16IN_M
# The reflector frame: center at the origin, normal +x, surface axes +y and +z.
NORMAL = np.array([1.0, 0.0, 0.0])
E_H = np.array([0.0, 1.0, 0.0])
E_V = np.array([0.0, 0.0, 1.0])


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
    cos_inc = float(np.dot(g.tx_position, NORMAL)) / 2.5
    assert_allclose(cos_inc, math.cos(math.radians(30.0)), atol=1e-12)


def test_default_scenario_120_uses_256_facets():
    scn = ScenarioConfig(band=Band.GHZ120, reflector_kind="flat").to_scenario()
    assert scn.reflector.facets_per_side == 16
    assert scn.reflector.facet_count == 256


def test_default_39_convex_sweep_centered_on_specular():
    scn = ScenarioConfig(band=Band.GHZ39, reflector_kind="convex").to_scenario()
    g = scn.geometry
    assert_allclose(g.sweep_length_m, 1.8, atol=1e-12)
    assert_allclose(image_source_specular_oracle(g), g.sweep_midpoint, atol=1e-12)


def test_facetize_single_facet_degenerates_to_center():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", facets_per_side=1).to_scenario()
    facets = facetize_flat(scn.reflector)
    assert facets.shape == (1, 3)
    assert_allclose(facets[0], np.zeros(3), atol=1e-15)


def test_facetize_6x6_grid_offsets():
    # Uniform 6-per-side grid across 0.4064 m: centers at +/-{1,3,5} * side/12
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    facets = facetize_flat(scn.reflector)
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
    facets = facetize_flat(scn.reflector)
    assert np.max(np.abs(facets @ NORMAL)) <= 1e-12


def test_facet_grid_mirror_symmetry():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    facets = facetize_flat(scn.reflector)
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
    heights = section_heights(scn.reflector)
    paths = convex_path_geometry_batch(scn.reflector, scn.geometry,
                                       heights[mirror_fold(heights, 1)[0]], angles[None],
                                       intercepts[None], antenna_frame(scn.tx_boresight),
                                       antenna_frame(scn.rx_boresight))
    return n_az, angles, [p[0] for p in paths]


def test_section_convex_single_section(monkeypatch):
    monkeypatch.setattr(scene, "_HEIGHT_SECTIONS", 1)
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    _, angles, paths = _capture_and_paths(scn, scn.geometry.sweep_midpoint)
    assert all(p.size == angles.size for p in paths)


def test_section_convex_default_counts():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    rx = scn.geometry.sweep_midpoint
    n_az, angles, paths = _capture_and_paths(scn, rx)
    assert scene._HEIGHT_SECTIONS == 16
    # R = 0.5 m diverges rays strongly, so all 32 intercept targets are reachable
    assert n_az == 32
    assert angles.size == 32
    _, (intercepts,) = convex_captures(scn.reflector, scn.geometry, rx[None, :],
                                       scn.rx_pattern)
    gamma = capture_length_m(scn.rx_pattern, scn.geometry.rx_range_m) / 32
    offsets = np.linalg.norm(intercepts - rx[:2], axis=1)
    assert_allclose(offsets, np.abs(np.arange(32) - 15.5) * gamma, rtol=1e-12)
    # The upper 8 of the 16 sections are solved; the gather reads all 16.
    assert all(p.size == 8 * 32 for p in paths)
    assert mirror_fold(section_heights(scn.reflector), 32)[1].size == 16 * 32


@pytest.mark.parametrize("k", [1, 5, 32])
def test_mirror_fold_of_the_sections_is_the_upper_half(k):
    # The 16 section heights are exactly antisymmetric: sections 8-15 are
    # solved, in order, and section s reads section max(s, 15 - s).
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    rows, columns = mirror_fold(section_heights(scn.reflector), k)
    assert rows.tolist() == list(range(8, 16))
    sections = np.arange(16)
    half = np.maximum(sections, 15 - sections) - 8
    assert np.array_equal(columns, (half[:, None] * k + np.arange(k)).ravel())


@pytest.mark.parametrize("facets_per_side, solved", [(1, 1), (2, 1), (5, 4), (6, 5), (7, 5),
                                                      (16, 8), (33, 24), (64, 32)])
def test_mirror_fold_reads_only_exact_mirror_rows(facets_per_side, solved):
    # A row reads another only if their heights are exact negations; at 6/side
    # one of the three row pairs is, and a z = 0 row is always solved.
    spec = FlatReflectorSpec(width_m=SIDE, height_m=SIDE, facets_per_side=facets_per_side,
                             reflection_efficiency=1.0)
    n = facets_per_side
    launches = facetize_flat(spec)
    heights = launches[::n, 2]
    rows, columns = mirror_fold(heights, n)
    assert rows.size == solved
    assert np.all(np.diff(rows) > 0)
    assert set(np.flatnonzero(heights >= 0.0)) <= set(rows.tolist())
    if n % 2:
        assert heights[n // 2] == 0.0 and n // 2 in rows
    gathered = launches.reshape(n, n, 3)[rows].reshape(-1, 3)[columns]
    assert np.array_equal(gathered[:, :2], launches[:, :2])
    folded = gathered[:, 2] != launches[:, 2]
    assert np.array_equal(gathered[:, 2], np.where(folded, -launches[:, 2], launches[:, 2]))
    assert np.count_nonzero(folded) == (n - solved) * n


def test_mirror_fold_solves_rows_without_an_exact_mirror():
    # -0.1 has no exact mirror: the row above it sits one ulp higher than 0.1.
    rows, columns = mirror_fold(np.array([-0.25, 0.0, -0.1, np.nextafter(0.1, 1.0), 0.25]), 2)
    assert rows.tolist() == [1, 2, 3, 4]
    assert columns.tolist() == [6, 7, 0, 1, 2, 3, 4, 5, 6, 7]


def test_section_convex_rays_lie_on_arc():
    # The traced bundle departs the TX toward points on the arc of radius R
    # about the vertical axis behind the plate, within the plate's chord.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    spec, g = scn.reflector, scn.geometry
    _, angles, (_, tx_az_deg, tx_el_deg, _, _) = _capture_and_paths(scn, g.sweep_midpoint)
    r = spec.radius_of_curvature_m
    assert np.max(np.abs(angles)) <= math.asin(spec.chord_width_m / (2.0 * r))
    axis_center = -r * NORMAL
    b = angles[:, None]
    radial = np.cos(b) * NORMAL + np.sin(b) * E_H
    z = -0.5 * spec.height_m + 0.5 * spec.height_m / scene._HEIGHT_SECTIONS  # bottom section
    launch = axis_center + r * radial + z * E_V
    assert_allclose(np.linalg.norm(radial, axis=1), 1.0, atol=1e-12)
    d_in = launch - g.tx_position
    tx_az, tx_el = offset_angles_deg(d_in / np.linalg.norm(d_in, axis=1, keepdims=True),
                                     antenna_frame(scn.tx_boresight))
    # The bottom section is the mirror of the top one, the last solved section.
    n_az = angles.size
    assert_allclose(tx_az_deg[-n_az:], tx_az, atol=1e-9)
    assert_allclose(-tx_el_deg[-n_az:], tx_el, atol=1e-9)


def test_section_convex_planar_limit_matches_flat_directions():
    # At the planar-limit radius the arc normals collapse onto the plate normal,
    # so mirror reflections agree with the flat law to well under 1e-4 rad.
    # A config of this radius gets a flat spec, so the arc is built in code.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    scn = dataclasses.replace(scn, reflector=dataclasses.replace(
        scn.reflector, radius_of_curvature_m=1e6))
    g = scn.geometry
    _, angles, _ = _capture_and_paths(scn, g.sweep_midpoint)
    assert angles.size > 0
    assert np.max(np.abs(angles)) < 1e-4
    d_in = -g.tx_position / np.linalg.norm(g.tx_position)
    refl_flat = d_in - 2 * float(np.dot(d_in, NORMAL)) * NORMAL
    for b in angles:
        normal = math.cos(b) * NORMAL + math.sin(b) * E_H
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
    # The sweep checks its RX points once, before the capture solve.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    behind = -NORMAL
    with pytest.raises(GeometryError, match="in front of the reflector"):
        sweep_power(scn, behind[None, :], SumMode.PHYSICAL)
    # One bad position in a sweep rejects the whole sweep.
    rx = np.vstack([scn.geometry.sweep_midpoint, behind])
    with pytest.raises(GeometryError, match="in front of the reflector"):
        sweep_power(scn, rx, SumMode.PHYSICAL)


def _plate_and_sweep(radius_m, tx):
    """A 16-inch convex plate facing +x at the origin, lit from `tx`, and a
    sweep whose midpoint 2.5 m out sizes the capture segments and so the
    spacing of their 32 targets."""
    spec = ConvexReflectorSpec(chord_width_m=SIDE, height_m=SIDE, radius_of_curvature_m=radius_m,
                               reflection_efficiency=1.0)
    geom = ScenarioGeometry(tx_position=tx, sweep_start=[2.5, -0.5, 0.0],
                            sweep_end=[2.5, 0.5, 0.0], n_rx_positions=2)
    return spec, geom


def _captures_at(radius_m, tx, rx, *more_rx):
    """`convex_captures` at one RX, followed by `more_rx`, on `_plate_and_sweep`
    with the 28 GHz RX pattern. Returns the targets, the capture-line origin
    and direction, and the captured arc angles and their intercepts at the
    first RX."""
    spec, geom = _plate_and_sweep(radius_m, tx)
    rx = np.asarray(rx)
    pattern = Band.GHZ28.horn
    (angles, *_), (intercepts, *_) = convex_captures(spec, geom, np.array([rx, *more_rx]), pattern)
    n_az = angles.size
    targets = (np.arange(n_az) - (n_az - 1) / 2.0) * (capture_length_m(pattern, 2.5) / n_az)
    line = np.array([rx[1], -rx[0]]) / np.linalg.norm(rx[:2])
    captured = ~np.isnan(angles)
    return targets, rx[:2], line, angles[captured], intercepts[captured]


def test_capture_map_increasing_along_the_arc():
    # A nearly flat arc lit from far to the side: the reflected intercepts
    # grow with the arc angle, the opposite of the default sweeps' maps.
    radius = 119.25068253803899
    tx = np.array([6.863308605723315, -7.905305784640073, 0.0])
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
    _, default_angles, _ = _capture_and_paths(scn, scn.geometry.sweep_midpoint)
    assert np.all(np.diff(default_angles) < 0.0)


def test_capture_map_that_is_not_monotone_is_rejected():
    # A tight arc lit from far to the side: part of its reflected fan turns
    # past the direction of the capture line, so the intercepts run off one
    # end of the line and come back from the other.
    with pytest.raises(GeometryError, match="not monotone"):
        _captures_at(0.22876151890631236,
                     [0.8605285095721427, -8.126597734089998, 0.0],
                     [0.29169247385091673, -2.893838176250152, -0.6420837448390428])


def test_every_rx_is_checked_before_any_capture_line():
    # The first capture block has a map that is not monotone; a non-finite RX
    # in the next block is reported first, by the sweep's one RX check.
    spec, geom = _plate_and_sweep(0.22876151890631236,
                                  [0.8605285095721427, -8.126597734089998, 0.0])
    scn = dataclasses.replace(ScenarioConfig(band=Band.GHZ28).to_scenario(),
                              reflector=spec, geometry=geom)
    rx = [0.29169247385091673, -2.893838176250152, 0.0]
    with pytest.raises(GeometryError, match="not monotone"):
        sweep_power(scn, np.array([rx]), SumMode.PHYSICAL)
    with pytest.raises(GeometryError, match="finite"):
        sweep_power(scn, np.array([rx] * (_CAPTURE_BLOCK + 1) + [[np.nan, 0.5, 0.0]]),
                    SumMode.PHYSICAL)


def _arc_rays_reaching_capture_line(radius, tx, rx):
    """Which of the capture solve's arc points send their specular ray
    forward across the RX's capture line: an independent re-trace."""
    beta_max = math.asin(SIDE / (2.0 * radius))
    beta = np.linspace(-beta_max, beta_max, scene._CAPTURE_GRID_POINTS)
    normal = np.stack([np.cos(beta), np.sin(beta)], axis=1)
    launch = radius * (normal - [1.0, 0.0])
    d_in = launch - np.asarray(tx)[:2]
    d_in /= np.linalg.norm(d_in, axis=1, keepdims=True)
    d_out = d_in - 2.0 * np.sum(d_in * normal, axis=1, keepdims=True) * normal
    q = np.asarray(rx)[:2]
    line = np.array([q[1], -q[0]]) / np.linalg.norm(q)
    # launch + tau * d_out = q + s * line, solved for tau by Cramer's rule.
    cross = d_out[:, 0] * line[1] - d_out[:, 1] * line[0]
    tau = ((q[0] - launch[:, 0]) * line[1] - (q[1] - launch[:, 1]) * line[0]) / cross
    return tau > 1e-9


def _is_one_run(mask):
    """True when the set entries of a boolean vector are contiguous."""
    idx = np.flatnonzero(mask)
    return idx.size > 0 and idx[-1] - idx[0] + 1 == idx.size


def _per_row_capture_angles(spec, geom, rx, pattern):
    """The captured arc angles (M, n_az) of `convex_captures`, one capture
    line at a time: the same arc trace and line intersection, then a gather of
    each line's valid points, the one-run rule on np.diff and np.interp. Also
    returns each line's valid-point mask (M, arc points)."""
    r = spec.radius_of_curvature_m
    beta_max = math.asin(min(1.0, spec.chord_width_m / (2.0 * r)))
    beta = np.linspace(-beta_max, beta_max, scene._CAPTURE_GRID_POINTS)
    normals = np.stack([np.cos(beta), np.sin(beta)], axis=1)
    points = np.stack([r * (normals[:, 0] - 1.0), r * normals[:, 1]], axis=1)
    d_in = points - geom.tx_position[:2]
    d_in /= np.linalg.norm(d_in, axis=1, keepdims=True)
    d_out = d_in - 2.0 * np.sum(d_in * normals, axis=1, keepdims=True) * normals
    n_az = scene._AZIMUTH_TARGETS
    gamma = capture_length_m(pattern, geom.rx_range_m) / n_az
    targets = (np.arange(n_az) - (n_az - 1) / 2.0) * gamma
    angles = np.full((len(rx), n_az), np.nan)
    masks = np.zeros((len(rx), beta.size), dtype=bool)
    for i, (qx, qy) in enumerate(np.asarray(rx)[:, :2]):
        seg = np.array([qy, -qx]) / np.linalg.norm([qy, -qx])
        l0, l1 = seg / np.linalg.norm(seg)
        cross = d_out[:, 0] * l1 - d_out[:, 1] * l0
        valid = np.abs(cross) > 1e-15
        tau = np.divide((qx - points[:, 0]) * l1 - (qy - points[:, 1]) * l0, cross,
                        out=np.full(cross.shape, np.nan), where=valid)
        valid &= tau > 1e-9
        s = ((points[:, 0] + tau * d_out[:, 0] - qx) * l0
             + (points[:, 1] + tau * d_out[:, 1] - qy) * l1)
        masks[i] = valid
        if np.count_nonzero(valid) >= 2:
            # One run of the arc whose intercepts strictly fall or strictly rise.
            s_v, beta_v = s[valid], beta[valid]
            ds = np.diff(s_v)
            if not _is_one_run(valid) or not (np.all(ds < 0.0) or np.all(ds > 0.0)):
                raise GeometryError("not monotone")
            if ds[0] < 0.0:
                s_v, beta_v = s_v[::-1], beta_v[::-1]
            angles[i] = np.interp(targets, s_v, beta_v, left=np.nan, right=np.nan)
    return angles, masks


# Found by random search: a gently curved arc lit at grazing incidence from
# far to the side, with the RX close to the plate, reaches the capture line
# with every arc ray but folds the map; a flatter arc lit at grazing incidence
# from near the plate reaches it with one run of its fan and folds that run;
# a tight arc lit from the side reaches it with two runs and folds them.
NOT_MONOTONE = {
    "block": (1.7402556874548352, [0.02409094640275095, 9.482446983240362, 0.0],
              [0.10969409751167192, -0.14700042527432444, -0.3608426189750602]),
    "contiguous": (2.085210790986243, [0.035888276375566935, -0.6824853807899866, 0.0],
                   [0.010505292445855614, 0.11742511887720701, 0.0]),
    "row": (0.23885786817028432, [1.9805731762628922, 8.900492966092528, 0.0],
            [1.6675687612955161, 7.041046649255506, 0.0]),
}


@pytest.mark.parametrize("branch", sorted(NOT_MONOTONE))
def test_capture_map_that_is_not_monotone_is_rejected_by_either_check(branch):
    radius, tx, rx = NOT_MONOTONE[branch]
    reached = _arc_rays_reaching_capture_line(radius, tx, rx)
    with pytest.raises(GeometryError, match="not monotone"):
        _captures_at(radius, tx, rx)
    if branch == "block":
        # Every arc ray reaches the line.
        assert np.all(reached)
    elif branch == "contiguous":
        # One run of the arc reaches it.
        assert 2 <= np.count_nonzero(reached) < reached.size and _is_one_run(reached)
    else:
        # Two runs reach it, and they fold across the gap.
        assert np.count_nonzero(reached) >= 2 and not _is_one_run(reached)


def test_capture_line_reached_by_one_arc_ray_captures_nothing():
    # One point cannot be interpolated, so the line gets NaN angles, with no
    # RuntimeWarning (which the suite's settings turn into an error).
    radius = 0.43663268570585767
    tx = [2.5892847611599414, 4.399769426784072, 0.0]
    rx = [0.26895424279909375, 6.507981537100132, 0.0]
    assert np.count_nonzero(_arc_rays_reaching_capture_line(radius, tx, rx)) == 1
    _, _, _, angles, _ = _captures_at(radius, tx, rx)
    assert angles.size == 0


def test_capture_line_reached_by_two_arc_rays_is_interpolated():
    # Two adjacent arc rays that run nearly along the capture line cross it
    # far apart: the map between their two intercepts captures 12 targets.
    radius = 0.538399366101344
    tx = [0.618757771534818, 0.4194355122707295, 0.0]
    rx = [0.012533682006507119, 0.08835471278818269, 0.0]
    spec, geom = _plate_and_sweep(radius, tx)
    reached = _arc_rays_reaching_capture_line(radius, tx, rx)
    assert np.array_equal(np.flatnonzero(reached), [2950, 2951])
    want, _ = _per_row_capture_angles(spec, geom, np.array([rx]), Band.GHZ28.horn)
    got, _ = convex_captures(spec, geom, np.array([rx]), Band.GHZ28.horn)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.count_nonzero(~np.isnan(got)) == 12


def test_capture_line_through_an_arc_point_leaves_that_point_out():
    # The capture line passes through arc point 2, so that point's ray starts
    # on the line and does not reach it: the line is read over points 3 to
    # 1738 alone, and target 19, whose intercept lies between those of
    # points 2 and 3, captures nothing.
    radius, tx = 0.5, [2.165, -1.25, 0.0]
    rx = [0.06467209523470692, -0.15926242508400928, 0.0]
    spec, geom = _plate_and_sweep(radius, tx)
    beta_max = math.asin(SIDE / (2.0 * radius))
    beta = np.linspace(-beta_max, beta_max, scene._CAPTURE_GRID_POINTS)[2]
    point = radius * np.array([math.cos(beta) - 1.0, math.sin(beta)])
    q = np.asarray(rx[:2])
    assert abs((point - q) @ q) / np.linalg.norm(q) < 1e-15
    reached = _arc_rays_reaching_capture_line(radius, tx, rx)
    assert np.flatnonzero(reached)[[0, -1]].tolist() == [3, 1738] and _is_one_run(reached)
    want, _ = _per_row_capture_angles(spec, geom, np.array([rx]), Band.GHZ28.horn)
    got, _ = convex_captures(spec, geom, np.array([rx]), Band.GHZ28.horn)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.count_nonzero(~np.isnan(got)) == 19 and np.isnan(got[0, 19])


# Found by random search: a tight arc lit from the side reaches each of these
# capture lines, close to the plate, with two runs of its fan. Read across
# the gap as one map, their intercepts all fall and the sweep gave finite
# powers, but 6, 1 and 3 of the targets lay behind the rays interpolated
# for them.
TWO_RUNS = [
    (0.20686633297066545, [0.9624650763669171, -0.8523676743062261, 0.0],
     [0.018015248165684727, -0.01462254446254363, 0.0]),
    (0.23945029096254558, [0.9194454319807106, -0.47670699350162593, 0.0],
     [0.01571861924233914, -0.006516580034123365, 0.0]),
    (0.2268411721430038, [1.551137478887874, -2.2925374872155473, 0.0],
     [0.03953330212115226, -0.03492221419602082, 0.0]),
]


def test_capture_line_reached_by_two_runs_of_the_arc_is_rejected():
    for radius, tx, rx in TWO_RUNS:
        reached = _arc_rays_reaching_capture_line(radius, tx, rx)
        assert np.count_nonzero(reached) >= 2 and not _is_one_run(reached)
        spec, geom = _plate_and_sweep(radius, tx)
        scn = dataclasses.replace(ScenarioConfig(band=Band.GHZ28).to_scenario(),
                                  reflector=spec, geometry=geom)
        with pytest.raises(GeometryError, match="not monotone"):
            sweep_power(scn, np.array([rx]), SumMode.PHYSICAL)


def test_rx_on_the_plates_vertical_axis_is_rejected():
    # An RX point within 1e-12 m of the plate's vertical axis has no
    # horizontal sight line, so no capture segment.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    with pytest.raises(GeometryError, match="vertical axis"):
        sweep_power(scn, np.array([[1e-13, 0.0, 0.0]]), SumMode.PHYSICAL)


def test_tx_over_a_launch_point_is_rejected():
    # A TX 1e-13 m in front of the arc's centre point: the rays from it to
    # that point's height sections come in, and leave, all but vertically, so
    # they cross no capture segment.
    spec, geom = _plate_and_sweep(0.5, [1e-13, 0.0, 0.0])
    tx_frame, rx_frame = antenna_frame(-geom.tx_position), antenna_frame(geom.sweep_midpoint)
    with pytest.raises(GeometryError, match="reflected ray is vertical"):
        convex_path_geometry_batch(spec, geom, section_heights(spec), np.zeros((1, 1)),
                                   np.array([[[2.5, 0.0]]]), tx_frame, rx_frame)


def test_arc_ray_parallel_to_its_capture_line_is_dropped():
    # The RX is placed so that its capture line runs exactly along the
    # reflected ray of arc point 1070: the line intersection divides by zero
    # there, with no RuntimeWarning (an error in this suite), and that point is
    # left out of the one run of arc points that reaches the line.
    radius, tx = 0.21, [2.0, 1.0, 0.0]
    rx = [1.9643539045185174, -0.37591719540725355, 0.0]
    spec, geom = _plate_and_sweep(radius, tx)
    pattern = Band.GHZ28.horn
    want, (valid,) = _per_row_capture_angles(spec, geom, np.array([rx]), pattern)
    beta_max = math.asin(SIDE / (2.0 * radius))
    beta = np.linspace(-beta_max, beta_max, scene._CAPTURE_GRID_POINTS)
    normal = np.array([math.cos(beta[1070]), math.sin(beta[1070])])
    d_in = radius * (normal - [1.0, 0.0]) - np.asarray(tx[:2])
    d_in /= np.linalg.norm(d_in)
    d_out = d_in - 2.0 * float(d_in @ normal) * normal
    assert d_out[0] * rx[0] + d_out[1] * rx[1] == 0.0  # the line runs along the ray
    assert not valid[1070] and valid[1071] and _is_one_run(valid)
    assert np.count_nonzero(~np.isnan(want)) == 32

    got, _ = convex_captures(spec, geom, np.array([rx]), pattern)
    assert np.array_equal(got, want)


def test_offset_sweep_captures_match_the_per_row_solve():
    # The 28 GHz convex sweep 5 m off specular: part of the arc reaches most
    # of its capture lines, each with one run of arc points, and 447 lines
    # capture nothing.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         sweep_offset_m=5.0).to_scenario()
    rx = scn.geometry.rx_positions()
    want, valid = _per_row_capture_angles(scn.reflector, scn.geometry, rx, scn.rx_pattern)
    partial = [v.any() and not v.all() for v in valid]
    assert sum(partial) > 1000 and all(_is_one_run(v) for v in valid if v.any())
    assert np.count_nonzero(np.all(np.isnan(want), axis=1)) == 447

    got, _ = convex_captures(scn.reflector, scn.geometry, rx, scn.rx_pattern)
    assert np.array_equal(got, want, equal_nan=True)


def test_capture_lines_whose_intercepts_fall_along_the_trace_match_the_per_row_solve():
    # The nearly flat arc of test_capture_map_increasing_along_the_arc, lit
    # from far to the side, and RX points within 0.05 m of the plate: on
    # capture lines 1 to 27 the captured angles rise with the targets, so the
    # intercepts fall along the arc as it is traced, from +beta_max down. No
    # config places an RX there. Each of those lines is read over a part of
    # the arc, and lines 28 to 31, which rise, share the first 32-line block.
    spec, _ = _plate_and_sweep(119.25068253803899, [6.863308605723315, -7.905305784640073, 0.0])
    geom = ScenarioGeometry([6.863308605723315, -7.905305784640073, 0.0], [0.01, -0.2, 0.0],
                            [0.05, 0.2, 0.0], 64)
    rx = geom.rx_positions()
    pattern = Band.GHZ28.horn
    want, valid = _per_row_capture_angles(spec, geom, rx, pattern)
    read = np.count_nonzero(~np.isnan(want), axis=1) >= 2
    ascending = np.array([np.all(np.diff(row[~np.isnan(row)]) > 0.0) for row in want])
    falls = read & ascending
    assert np.flatnonzero(falls).tolist() == list(range(1, 28))
    assert all(v.any() and not v.all() for v in valid[falls])
    assert np.all(read[28:32] & ~ascending[28:32])

    got, _ = convex_captures(spec, geom, rx, pattern)
    assert np.array_equal(got, want, equal_nan=True)


def _certified(spec, geom, rx, line=None):
    """`scene._rising_lines` on the rays that `convex_captures` traces for
    the RX points `rx`: its verdict on each capture line, or on the lines
    through `rx` along `line` if given."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scene, "_rising_lines", lambda *args: calls.append(args) or
                      np.zeros(len(args[4]), dtype=bool))
        try:
            convex_captures(spec, geom, np.asarray(rx, dtype=float), Band.GHZ28.horn)
        except GeometryError:  # the block check of a line the map folds on
            pass
    px, py, dx, dy, q, own_line = calls[0]
    return scene._rising_lines(px, py, dx, dy, q, own_line if line is None else line)


def _assert_block_check_bits(spec, geom, rx, pattern):
    """`convex_captures` gives the angle and intercept bits, or raises the
    GeometryError, that it gives with every line left to the block check."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scene, "_rising_lines", lambda *args: np.zeros(len(args[4]), dtype=bool))
        try:
            want = convex_captures(spec, geom, rx, pattern)
        except GeometryError as exc:
            want = exc
    if isinstance(want, GeometryError):
        with pytest.raises(GeometryError, match=re.escape(str(want))):
            convex_captures(spec, geom, rx, pattern)
    else:
        got = convex_captures(spec, geom, rx, pattern)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("band", list(Band))
def test_every_line_of_the_default_convex_sweeps_is_certified(band):
    scn = ScenarioConfig(band=band, reflector_kind="convex").to_scenario()
    assert np.all(_certified(scn.reflector, scn.geometry, scn.geometry.rx_positions()))


def test_no_line_of_the_offset_sweep_is_certified():
    # 5 m off specular, part of the arc reaches most capture lines, and some
    # arc rays run parallel to them: every line keeps the block check.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                         sweep_offset_m=5.0).to_scenario()
    assert not np.any(_certified(scn.reflector, scn.geometry, scn.geometry.rx_positions()))


# Found by search, each refused by one certificate condition alone (see
# tools/mutants.py for the rows that drop them): (radius, plate width, TX,
# RX). "span": a tight arc lit from near its edge turns its fan by more than
# pi; "parallel": the capture line runs along the fan on one side but one
# end ray all but runs along it; "reach": the capture line passes through
# the disk of the arc points; "gap": the capture line runs nearly along the
# last arc ray, so its intercepts are far out and their rounding outgrows
# the certified step.
ONE_CONDITION = {
    "span": (0.2739588908488698, 0.5000455539538571,
             [0.049364252563968404, 0.16740522343184863, 0.0],
             [0.09664120651467034, 0.3901938686635563, 0.0]),
    "parallel": (8.818220759684406, 0.611915293668073,
                 [0.20099609658671316, 0.19584727756452175, 0.0],
                 [0.4707774838501463, 0.16966156734461613, 0.0]),
    "reach": (14.391057595098225, 1.1354563098051245,
              [2.2640746262604377, -4.110475346244637, 0.0],
              [0.08466574074577649, 0.14884931202882343, 0.0]),
    "gap": (0.49836484301408424, SIDE, [3.044753344998262, -1.5991723651534928, 0.0],
            [1.2902424994801995, -0.2649569348948014, 0.0]),
}


@pytest.mark.parametrize("condition", sorted(ONE_CONDITION))
def test_certificate_refuses_a_line_that_one_condition_fails(condition):
    radius, width, tx, rx = ONE_CONDITION[condition]
    spec = ConvexReflectorSpec(chord_width_m=width, height_m=SIDE, radius_of_curvature_m=radius,
                               reflection_efficiency=1.0)
    geom = ScenarioGeometry(tx_position=tx, sweep_start=[2.5, -0.5, 0.0],
                            sweep_end=[2.5, 0.5, 0.0], n_rx_positions=2)
    assert not _certified(spec, geom, [rx])[0]
    _assert_block_check_bits(spec, geom, np.array([rx]), Band.GHZ28.horn)


def test_certificate_refuses_a_falling_line():
    # The default sweep's midpoint line, read the other way along: every ray
    # reaches it, but its intercepts fall, as the crossings of adjacent rays
    # lie on its other side.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario()
    rx = scn.geometry.sweep_midpoint[None, :]
    line = np.array([[-rx[0, 1], rx[0, 0]]]) / np.linalg.norm(rx[0, :2])
    assert _certified(scn.reflector, scn.geometry, rx)[0]
    assert not _certified(scn.reflector, scn.geometry, rx, line)[0]


def test_certificate_refuses_a_fan_that_turns_back():
    # Rays from one point whose direction turns forward, back and forward
    # again, ending past every earlier direction: the span rule passes, and
    # every crossing of adjacent rays is that point, but the intercepts on a
    # line ahead fold. Only the rotation-sign rule refuses the fan.
    x = np.linspace(0.0, 1.0, 4097)
    theta = x + 0.2 * np.sin(2.0 * np.pi * x)
    assert np.any(np.diff(theta) < 0.0) and np.all(theta[:-1] < theta[-1])
    points = np.zeros(x.size)
    q, line = np.array([[5.0, 0.0, 0.0]]), np.array([[0.0, 1.0]])
    assert not scene._rising_lines(points, points, np.cos(theta), np.sin(theta), q, line)[0]
    # The same fan turned forward throughout is certified.
    theta = np.linspace(0.0, 1.0, 4097)
    assert scene._rising_lines(points, points, np.cos(theta), np.sin(theta), q, line)[0]


@st.composite
def _short_convex_links(draw):
    """A convex config of 41 positions with short ranges, sweeps up to 3 m
    off specular and plates up to 3 m wide, whose lines are certified,
    refused, partly reached or not monotone."""
    width = draw(st.floats(0.41, 3.0))
    try:
        config = ScenarioConfig(
            band=draw(st.sampled_from(list(Band))), reflector_kind="convex", width_m=width,
            radius_of_curvature_m=draw(st.floats(0.5005 * width, 20.0)),
            tx_range_m=draw(st.floats(0.05, 6.0)), rx_range_m=draw(st.floats(0.05, 6.0)),
            incidence_deg=draw(st.floats(0.0, 60.0)), sweep_offset_m=draw(st.floats(-3.0, 3.0)),
            sweep_length_m=draw(st.floats(0.05, 1.8)), n_positions=41)
        scn = config.to_scenario()
    except ConfigError:  # a sweep that reaches behind the plate
        assume(False)
    assume(scn.is_convex)
    return scn


@given(scn=_short_convex_links())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_certified_lines_give_the_bits_of_the_block_check(scn):
    _assert_block_check_bits(scn.reflector, scn.geometry, scn.geometry.rx_positions(),
                             scn.rx_pattern)


def test_specular_point_is_sweep_midpoint_by_construction():
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario().geometry
    assert_allclose(image_source_specular_oracle(g), g.sweep_midpoint, atol=1e-12)


def test_specular_point_normal_incidence_on_normal_line():
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat",
                       incidence_deg=0.0).to_scenario().geometry
    s = g.sweep_midpoint
    off_axis = s - float(np.dot(s, NORMAL)) * NORMAL
    assert float(np.linalg.norm(off_axis)) < 1e-12


def test_specular_path_length_image_source_oracle():
    # 30 degree incidence, 2.5 m both legs: the image-source distance is 5 m.
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario().geometry
    s = g.sweep_midpoint
    d = float(np.linalg.norm(g.tx_position) + np.linalg.norm(s))
    assert_allclose(d, 5.0, atol=1e-12)
    tx_image = g.tx_position.copy()
    tx_image[0] = -tx_image[0]
    assert_allclose(np.linalg.norm(s - tx_image), 5.0, atol=1e-12)


def test_antenna_frame_has_the_bits_of_np_cross():
    # Boresights in the link plane z = 0: the +-x and +-y axes and random ones.
    # The frame equals the np.cross frame value for value; array_equal, since
    # some of its zero components differ from np.cross's in sign.
    up = np.array([0.0, 0.0, 1.0])
    random = np.random.default_rng(4).standard_normal((200, 2))
    for b in (np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]),
              np.array([0.0, 1.0, 0.0]), np.array([0.0, -1.0, 0.0]),
              np.array([0.6, -0.8, 0.0]), *np.hstack([random, np.zeros((200, 1))])):
        b, e_az, e_el = antenna_frame(b)
        want_az = scene.unit(np.cross(up, b))
        assert np.array_equal(e_az, want_az)
        assert np.array_equal(e_el, np.cross(b, want_az))


@pytest.mark.parametrize("band, facets_per_side", [(Band.GHZ28, 6), (Band.GHZ39, 7),
                                                   (Band.GHZ120, 16), (Band.GHZ28, 1)])
def test_component_rx_leg_is_the_stacked_solve(band, facets_per_side):
    # The RX leg on (M, N) components equals the (M, N, 3) broadcast solve,
    # LITERAL's centre ray and an offset sweep included.
    scn = ScenarioConfig(band=band, reflector_kind="flat", facets_per_side=facets_per_side,
                         sweep_offset_m=0.3).to_scenario()
    launches = np.vstack([np.zeros(3), facetize_flat(scn.reflector)])
    frame = antenna_frame(scn.rx_boresight)
    d1, _, _ = tx_leg(scn.geometry.tx_position, launches, antenna_frame(scn.tx_boresight))
    rx = scn.geometry.rx_positions()[::7]
    arrival = rx[:, None, :] - launches[None, :, :]
    d2 = np.linalg.norm(arrival, axis=-1)
    want = (d1[None, :] + d2, *offset_angles_deg(arrival / d2[:, :, None], frame))
    got = path_geometry_batch(launches, d1, rx, frame)
    for g, w in zip(got, want):
        assert g.shape == (len(rx), len(launches))
        assert np.array_equal(g, w)


def _single_path(tx, launch, rx, tx_boresight, rx_boresight):
    """The one (distance, tx_az, tx_el, rx_az, rx_el) ray of a 1 x 1 solve."""
    launch = np.asarray(launch)[None, :]
    d1, tx_az, tx_el = tx_leg(tx, launch, antenna_frame(tx_boresight))
    d, rx_az, rx_el = path_geometry_batch(launch, d1, np.asarray(rx)[None, :],
                                          antenna_frame(rx_boresight))
    return tuple(float(a.flat[0]) for a in (d, tx_az, tx_el, rx_az, rx_el))


def test_path_geometry_collinear():
    boresight = np.array([1.0, 0.0, 0.0])
    d, tx_az, tx_el, rx_az, rx_el = _single_path(
        np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), boresight, boresight)
    assert_allclose(d, 2.0, atol=1e-15)
    assert tx_az == tx_el == 0.0
    assert rx_az == rx_el == 0.0


def test_path_geometry_swap_symmetry():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    launch = facetize_flat(scn.reflector)[7]
    tx = scn.geometry.tx_position
    rx = scn.geometry.sweep_start
    bt, br = scn.tx_boresight, scn.rx_boresight
    fwd_d, fwd_tx_az, fwd_tx_el, fwd_rx_az, fwd_rx_el = _single_path(tx, launch, rx, bt, br)
    # The TX leg is solved once per launch point: its arrays are (N,), the
    # RX-leg arrays (M, N).
    launches = facetize_flat(scn.reflector)
    d1, tx_az, tx_el = tx_leg(tx, launches, antenna_frame(bt))
    batch = path_geometry_batch(launches, d1, scn.geometry.rx_positions()[:3], antenna_frame(br))
    assert [a.shape for a in (d1, tx_az, tx_el, *batch)] == [(36,)] * 3 + [(3, 36)] * 3
    assert_allclose([tx_az[7], tx_el[7]], [fwd_tx_az, fwd_tx_el], atol=1e-12)
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
    with pytest.raises(GeometryError, match="in front of the reflector"):
        ScenarioGeometry(-g.tx_position, g.sweep_start, g.sweep_end, 1800)
    with pytest.raises(GeometryError, match="length"):
        ScenarioGeometry(g.tx_position, g.sweep_start, g.sweep_start, 1800)
    with pytest.raises(GeometryError, match=">= 2"):
        ScenarioGeometry(g.tx_position, g.sweep_start, g.sweep_end, 1)


@pytest.mark.parametrize("kind", ["flat", "convex"])
def test_sweep_behind_the_plate_is_rejected(kind):
    # Mirrored to x < 0, the default 28 GHz sweep summed through a flat plate
    # to finite powers (-83.06 dBm at its first position), while the convex
    # capture solve rejected it.
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind=kind).to_scenario()
    g = scn.geometry
    mirror = np.array([-1.0, 1.0, 1.0])
    with pytest.raises(GeometryError, match="in front of the reflector"):
        ScenarioGeometry(g.tx_position, mirror * g.sweep_start, mirror * g.sweep_end, 1800)
    on_plane = g.sweep_start * np.array([0.0, 1.0, 1.0])
    with pytest.raises(GeometryError, match=r"x = 0\.0 m"):
        ScenarioGeometry(g.tx_position, on_plane, g.sweep_end, 1800)


@pytest.mark.parametrize("name", ["tx_position", "sweep_start", "sweep_end"])
def test_geometry_off_the_link_plane_is_rejected(name):
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario().geometry
    fields = {f: getattr(g, f) for f in ("tx_position", "sweep_start", "sweep_end")}
    fields[name] = fields[name] + [0.0, 0.0, -0.0625]
    with pytest.raises(GeometryError, match=rf"{name} must lie in the link plane z = 0, "
                                            r"got z = -0\.0625 m"):
        ScenarioGeometry(**fields, n_rx_positions=1800)


def test_geometry_is_the_tx_and_the_sweep_in_the_reflector_frame():
    # The reflector pose is fixed by the frame, so no field carries it.
    assert [f.name for f in dataclasses.fields(ScenarioGeometry)] == [
        "tx_position", "sweep_start", "sweep_end", "n_rx_positions"]


def test_reflector_spec_validation():
    flat = dict(width_m=SIDE, height_m=SIDE, facets_per_side=6, reflection_efficiency=1.0)
    convex = dict(chord_width_m=SIDE, height_m=SIDE, radius_of_curvature_m=0.5,
                  reflection_efficiency=1.0)
    with pytest.raises(ValueError):
        FlatReflectorSpec(**{**flat, "facets_per_side": 0})
    with pytest.raises(ValueError):
        FlatReflectorSpec(**{**flat, "reflection_efficiency": 1.5})
    with pytest.raises(ValueError, match="exceed"):
        ConvexReflectorSpec(**{**convex, "radius_of_curvature_m": 0.2})  # below chord/2
    for size in (0.0, -SIDE):
        for bad in ({"width_m": size}, {"height_m": size}):
            with pytest.raises(ValueError, match="^reflector width and height must be positive$"):
                FlatReflectorSpec(**{**flat, **bad})
        for bad in ({"chord_width_m": size}, {"height_m": size}):
            with pytest.raises(ValueError, match="^reflector chord width and height must be"):
                ConvexReflectorSpec(**{**convex, **bad})
    for efficiency in (0.0, -0.1, 1.0 + 1e-12, math.nan):
        with pytest.raises(ValueError, match=re.escape("reflection_efficiency must be in (0, 1]")):
            ConvexReflectorSpec(**{**convex, "reflection_efficiency": efficiency})


def test_unit_of_a_zero_vector_is_a_geometry_error():
    with pytest.raises(GeometryError, match="^cannot normalize a zero vector$"):
        scene.unit(np.zeros(3))


def test_scenario_holds_alpha_in_0_1_and_a_finite_phase_reference():
    # A code-built scenario outside these ranges would sum NaN rays with a
    # RuntimeWarning (sqrt of a negative alpha, an infinite phase); it names
    # the field instead. Every config gives values inside them.
    scn = ScenarioConfig(band=Band.GHZ28, n_positions=5).to_scenario()
    for alpha in (-1.0, 0.0, 1.0 + 1e-12, math.nan, math.inf):
        with pytest.raises(ValueError, match=re.escape(f"alpha must be in (0, 1], got {alpha!r}")):
            dataclasses.replace(scn, alpha=alpha)
    for d_ref in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"d_ref_m must be finite, got {d_ref!r}")):
            dataclasses.replace(scn, d_ref_m=d_ref)
    for alpha in (1.0, 5e-324):
        assert dataclasses.replace(scn, alpha=alpha).alpha == alpha


def test_geometry_rejects_a_point_that_is_not_finite():
    # The TX and the sweep ends are checked by the rule that checks a
    # sweep's RX points, and say so in its words.
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario().geometry
    with pytest.raises(GeometryError,
                       match=r"tx_position must be finite, got \[1\.0, nan, 0\.0\]"):
        ScenarioGeometry(np.array([1.0, np.nan, 0.0]), g.sweep_start, g.sweep_end, 1800)


@pytest.mark.parametrize("name", ["tx_position", "sweep_start", "sweep_end"])
@pytest.mark.parametrize("point", [[1.0, 0.0], [[1.0, 0.0, 0.0]], 1.0, [1.0, 0.0, 0.0, 0.0]])
def test_geometry_point_that_is_not_one_3_vector_names_its_field_and_shape(name, point):
    g = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario().geometry
    fields = {f: getattr(g, f) for f in ("tx_position", "sweep_start", "sweep_end")}
    fields[name] = point
    shape = np.shape(point)
    with pytest.raises(GeometryError, match=re.escape(
            f"{name} must be a point of shape (3,), got shape {shape}")):
        ScenarioGeometry(**fields, n_rx_positions=1800)


def test_default_scenario_unknown_inputs():
    with pytest.raises(ConfigError, match="band"):
        parse_config("band = 60ghz\n")
    with pytest.raises(ConfigError, match="line 2: reflector.kind"):
        parse_config("band = 28\nreflector.kind = parabolic\n")
    with pytest.raises(ConfigError, match="parabolic") as info:
        ScenarioConfig(band=Band.GHZ28, reflector_kind="parabolic")
    assert info.value.key == "reflector.kind"
