import numpy as np

from reflectsim import scene
from reflectsim.engine import SumMode, _power_db_from_sum, _ray_sums
from reflectsim.scene import (
    FlatReflectorSpec,
    antenna_frame,
    convex_captures,
    facetize_flat,
    offset_angles_deg,
    path_geometry_batch,
    tx_leg,
)

criterion_lines: list[str] = []


def image_source_specular_oracle(geom) -> np.ndarray:
    """Independent specular-point construction: mirror the TX across the
    reflector plane and solve the collinearity equation on the sweep line."""
    n = np.array([1.0, 0.0, 0.0])  # the plate normal; its center is the origin
    tx_image = geom.tx_position - 2.0 * float(np.dot(geom.tx_position, n)) * n
    sight = -tx_image / np.linalg.norm(tx_image)
    sweep_dir = geom.sweep_end - geom.sweep_start
    # S(t) = start + t*dir must be collinear with the image sight line:
    # cross(S(t) - tx_image, sight) = 0, linear in t.
    a = np.cross(sweep_dir, sight)
    b = -np.cross(geom.sweep_start - tx_image, sight)
    t = float(np.dot(a, b) / np.dot(a, a))
    return geom.sweep_start + t * sweep_dir


def unfolded_convex_paths(spec, geom, arc_angles, intercepts, tx_frame, rx_frame):
    """Every one of the S height sections solved on (G, S, K, 3) stacks, with
    no mirror fold: (distance, tx_az, tx_el, rx_az, rx_el), each (G, S*K) and
    section-major."""
    r = spec.radius_of_curvature_m
    cos_b, sin_b = np.cos(arc_angles), np.sin(arc_angles)
    normals = np.stack([cos_b, sin_b, np.zeros_like(cos_b)], axis=-1)[:, None]
    arc_xy = np.stack([r * (cos_b - 1.0), r * sin_b], axis=-1)
    n_el = scene._HEIGHT_SECTIONS
    g, k = arc_angles.shape
    launch = np.empty((g, n_el, k, 3))
    launch[..., :2] = arc_xy[:, None]
    launch[..., 2] = (((np.arange(n_el) + 0.5) / n_el - 0.5) * spec.height_m)[:, None]
    to_launch = launch - geom.tx_position
    d1 = np.linalg.norm(to_launch, axis=-1)
    d_in = to_launch / d1[..., None]
    reflected = d_in - 2.0 * np.sum(d_in * normals, axis=-1)[..., None] * normals
    distance = (d1 + np.linalg.norm(intercepts - arc_xy, axis=-1)[:, None]
                / np.linalg.norm(reflected[..., :2], axis=-1))
    tx_az, tx_el = offset_angles_deg(d_in.reshape(g, -1, 3), tx_frame)
    rx_az, rx_el = offset_angles_deg(reflected.reshape(g, -1, 3), rx_frame)
    return distance.reshape(g, -1), tx_az, tx_el, rx_az, rx_el


def unfolded_sweep_power(scn, rx, mode):
    """Received power of each RX point summed over every ray of the plate with
    no mirror fold, then a row sum in `_ray_sums` over identity columns. A
    flat plate sends every facet (and LITERAL's centre ray) through `tx_leg`
    and `path_geometry_batch`; a convex one sums every height section's own
    rays (`unfolded_convex_paths`), one position at a time."""
    spec = scn.reflector
    frames = antenna_frame(scn.tx_boresight), antenna_frame(scn.rx_boresight)
    if isinstance(spec, FlatReflectorSpec):
        launches = facetize_flat(spec)
        if mode is SumMode.LITERAL:
            launches = np.vstack([np.zeros(3), launches])
        d1, tx_az, tx_el = tx_leg(scn.geometry.tx_position, launches, frames[0])
        d, rx_az, rx_el = path_geometry_batch(launches, d1, rx, frames[1])
        total = _ray_sums(scn, d, scn.tx_pattern.gain(tx_az, tx_el), rx_az, rx_el, mode,
                          spec.facet_count, np.arange(len(launches)))
        return _power_db_from_sum(total, mode)
    angles, intercepts = convex_captures(spec, scn.geometry, rx, scn.rx_pattern)
    total = np.zeros(len(rx), dtype=complex)
    for i in np.flatnonzero(~np.all(np.isnan(angles), axis=1)):
        kept = ~np.isnan(angles[i])
        d, tx_az, tx_el, rx_az, rx_el = unfolded_convex_paths(
            spec, scn.geometry, angles[i][kept][None], intercepts[i][kept][None], *frames)
        gain_tx = scn.tx_pattern.gain(tx_az, tx_el)
        (total[i],) = _ray_sums(scn, d, gain_tx, rx_az, rx_el, mode,
                                scene._HEIGHT_SECTIONS * angles.shape[1], np.arange(d.shape[1]))
    return _power_db_from_sum(total, mode)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in criterion_lines:
        terminalreporter.write_line(line)
