"""Measurement geometry: TX pose, reflector surface decomposition, RX sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .antenna import AntennaPattern, Band

INCH_M = 0.0254
REFLECTOR_SIDE_16IN_M = 16 * INCH_M  # 0.4064 m

_UP = np.array([0.0, 0.0, 1.0])

# Flat reflectors essentially indistinguishable from this radius are treated
# as the planar limit of the convex model.
PLANAR_LIMIT_RADIUS_M = 1e6

_CAPTURE_GRID_POINTS = 4097


class GeometryError(ValueError):
    """Raised for degenerate or inconsistent scene geometry."""


def vec3(x, y=None, z=None) -> np.ndarray:
    """Build a finite 3-vector from components or any length-3 sequence."""
    if y is None and z is None:
        arr = np.asarray(x, dtype=float).reshape(3).copy()
    else:
        arr = np.array([x, y, z], dtype=float)
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"vector components must be finite, got {arr}")
    return arr


def unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise GeometryError("cannot normalize a zero vector")
    return np.asarray(v, dtype=float) / n


def surface_axes(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-plane horizontal and vertical unit axes of a (near-vertical) surface."""
    if abs(float(np.dot(normal, _UP))) > 0.999:
        raise GeometryError("horizontal reflector surfaces are not supported")
    e_h = unit(np.cross(_UP, normal))
    e_v = np.cross(normal, e_h)
    return e_h, e_v


@dataclass(frozen=True, eq=False)
class ScenarioGeometry:
    """TX pose, reflector pose, and the linear RX sweep segment."""

    tx_position: np.ndarray
    reflector_center: np.ndarray
    reflector_normal: np.ndarray
    incidence_angle_deg: float
    sweep_start: np.ndarray
    sweep_end: np.ndarray
    n_rx_positions: int

    def __post_init__(self) -> None:
        for name in ("tx_position", "reflector_center", "reflector_normal",
                     "sweep_start", "sweep_end"):
            object.__setattr__(self, name, vec3(getattr(self, name)))
        if abs(float(np.linalg.norm(self.reflector_normal)) - 1.0) > 1e-12:
            raise GeometryError("reflector_normal must be a unit vector (|n| = 1 ± 1e-12)")
        if self.sweep_length_m <= 0.0:
            raise GeometryError("sweep must have positive length")
        if self.n_rx_positions < 2:
            raise GeometryError("n_rx_positions must be >= 2")
        side = float(np.dot(self.tx_position - self.reflector_center, self.reflector_normal))
        if side <= 0.0:
            raise GeometryError("TX must be on the illuminated side of the reflector plane")

    @property
    def sweep_length_m(self) -> float:
        return float(np.linalg.norm(self.sweep_end - self.sweep_start))

    @property
    def sweep_axis(self) -> np.ndarray:
        return unit(self.sweep_end - self.sweep_start)

    @property
    def sweep_midpoint(self) -> np.ndarray:
        return 0.5 * (self.sweep_start + self.sweep_end)

    def rx_offsets_m(self) -> np.ndarray:
        """Sweep coordinates (meters from sweep_start) of the RX positions."""
        return np.linspace(0.0, self.sweep_length_m, self.n_rx_positions)

    def rx_positions(self) -> np.ndarray:
        """(n_rx_positions, 3) array of RX points along the sweep."""
        t = self.rx_offsets_m()[:, None]
        return self.sweep_start[None, :] + t * self.sweep_axis[None, :]


@dataclass(frozen=True)
class FlatReflectorSpec:
    """Flat plate decomposed into a uniform facets_per_side^2 grid."""

    width_m: float
    height_m: float
    facets_per_side: int
    reflection_efficiency: float

    def __post_init__(self) -> None:
        if self.width_m <= 0.0 or self.height_m <= 0.0:
            raise ValueError("reflector width and height must be positive")
        if self.facets_per_side < 1:
            raise ValueError("facets_per_side must be >= 1")
        if not (0.0 < self.reflection_efficiency <= 1.0):
            raise ValueError("reflection_efficiency must be in (0, 1]")

    @property
    def facet_count(self) -> int:
        return self.facets_per_side ** 2


@dataclass(frozen=True)
class ConvexReflectorSpec:
    """Convex plate: circular arc in azimuth, straight in elevation.

    The surface is a vertical-axis cylinder section of radius
    `radius_of_curvature_m` bulging toward the illuminated side; reflected
    rays appear to diverge from a virtual focus at half the radius behind
    the surface. `azimuth_ray_spacing_m = None` spaces launch rays so their
    reflected intercepts land 1/32 of the RX capture length apart.
    """

    chord_width_m: float
    height_m: float
    radius_of_curvature_m: float
    section_height_m: float
    azimuth_ray_spacing_m: Optional[float]
    reflection_efficiency: float

    def __post_init__(self) -> None:
        if self.chord_width_m <= 0.0 or self.height_m <= 0.0:
            raise ValueError("reflector chord width and height must be positive")
        if self.radius_of_curvature_m <= self.chord_width_m / 2.0:
            raise ValueError(
                "radius_of_curvature_m must exceed chord_width_m / 2 "
                f"({self.chord_width_m / 2.0:.4f} m) for a realizable arc"
            )
        if not (0.0 < self.section_height_m <= self.height_m):
            raise ValueError("section_height_m must be in (0, height_m]")
        if self.azimuth_ray_spacing_m is not None and self.azimuth_ray_spacing_m <= 0.0:
            raise ValueError("azimuth_ray_spacing_m must be positive")
        if not (0.0 < self.reflection_efficiency <= 1.0):
            raise ValueError("reflection_efficiency must be in (0, 1]")

    @property
    def focal_length_m(self) -> float:
        return self.radius_of_curvature_m / 2.0

    @property
    def n_height_sections(self) -> int:
        return math.ceil(self.height_m / self.section_height_m - 1e-12)

    @property
    def is_planar_limit(self) -> bool:
        """Radii at or above PLANAR_LIMIT_RADIUS_M flag the surface as flat."""
        return self.radius_of_curvature_m >= PLANAR_LIMIT_RADIUS_M


ReflectorSpec = Union[FlatReflectorSpec, ConvexReflectorSpec]


@dataclass(frozen=True, eq=False)
class Scenario:
    """Full experiment description: band, link hardware, reflector, poses."""

    band: Band
    geometry: ScenarioGeometry
    reflector: ReflectorSpec
    tx_pattern: AntennaPattern
    rx_pattern: AntennaPattern
    tx_power_dbm: float
    wavelength_m: float
    # None selects the built-in conventions; explicit values override them.
    d_ref_m: Optional[float]
    alpha_flat_override: Optional[float]
    alpha_curved_override: Optional[float]
    capture_distance_m: Optional[float]
    label: str

    @property
    def is_convex(self) -> bool:
        return isinstance(self.reflector, ConvexReflectorSpec)

    @property
    def tx_boresight(self) -> np.ndarray:
        """TX horn aimed at the reflector center."""
        return unit(self.geometry.reflector_center - self.geometry.tx_position)

    @property
    def rx_boresight(self) -> np.ndarray:
        """Arrival-direction reference of the RX horn.

        The horn is aimed at the reflector center from the sweep midpoint, so
        a ray arriving along that sight line scores zero offset; RX-side
        angles compare the ray's travel direction against this vector. The
        positioner translates the RX without rotating it, so the same
        reference applies at every sweep position.
        """
        return unit(self.geometry.sweep_midpoint - self.geometry.reflector_center)

    @property
    def reference_path_m(self) -> float:
        """Phase-reference path: TX -> reflector center -> sweep midpoint."""
        if self.d_ref_m is not None:
            return self.d_ref_m
        g = self.geometry
        return float(
            np.linalg.norm(g.tx_position - g.reflector_center)
            + np.linalg.norm(g.sweep_midpoint - g.reflector_center)
        )

    @property
    def rx_range_m(self) -> float:
        """Nominal reflector-to-RX range (taken at the sweep midpoint)."""
        g = self.geometry
        return float(np.linalg.norm(g.sweep_midpoint - g.reflector_center))

    @property
    def capture_range_m(self) -> float:
        """Far-field distance used to size the RX capture segment."""
        if self.capture_distance_m is not None:
            return self.capture_distance_m
        return self.rx_range_m


def facetize_flat(spec: FlatReflectorSpec, geom: ScenarioGeometry) -> np.ndarray:
    """Uniform facet-center grid over the plate as an (n^2, 3) array of launch points.

    Facets are ordered row-major: rows climb the surface vertical axis,
    columns run along the surface horizontal axis.
    """
    e_h, e_v = surface_axes(geom.reflector_normal)
    n = spec.facets_per_side
    frac = (np.arange(n) + 0.5) / n - 0.5
    h_offsets = (frac * spec.width_m)[None, :, None]
    v_offsets = (frac * spec.height_m)[:, None, None]
    grid = geom.reflector_center + h_offsets * e_h + v_offsets * e_v
    return grid.reshape(n * n, 3)


def capture_length_m(pattern: AntennaPattern, distance_m: float) -> float:
    """Azimuth extent captured by the antenna main lobe at a given range."""
    if distance_m <= 0.0:
        raise GeometryError("capture distance must be positive")
    return 2.0 * distance_m * math.tan(math.radians(pattern.hpbw_az_deg) / 2.0)


class _ArcCaptureMap(NamedTuple):
    """Monotone map between arc angle and reflected-ray intercept coordinate."""

    intercept_s: np.ndarray  # sorted intercept coordinates along the capture line
    arc_angle: np.ndarray    # matching arc angles


class ConvexCapture(NamedTuple):
    """Solved azimuth capture geometry for one RX position.

    `arc_angles` are the launch angles whose reflected rays hit the capture
    segment at offsets `intercepts_s` (meters from the RX along `segment_dir`);
    `columns` are the original target indices that survived reachability.
    """

    arc_angles: np.ndarray
    intercepts_s: np.ndarray
    columns: np.ndarray
    segment_dir: np.ndarray
    capture_length_m: float
    ray_spacing_m: float
    n_az_nominal: int


def _arc_capture_map(
    spec: ConvexReflectorSpec,
    geom: ScenarioGeometry,
    line_point: np.ndarray,
    line_dir: np.ndarray,
) -> _ArcCaptureMap:
    """Trace specular rays off the arc and record where they cross the capture
    line, working in the horizontal plane (the cylinder axis is vertical, so
    every height section shares the same azimuth solution).
    """
    e_h, _ = surface_axes(geom.reflector_normal)
    n2 = geom.reflector_normal[:2]
    eh2 = e_h[:2]
    c2 = geom.reflector_center[:2]
    tx2 = geom.tx_position[:2]
    q2 = np.asarray(line_point, dtype=float)[:2]
    u2 = np.asarray(line_dir, dtype=float)[:2]
    u2 = u2 / np.linalg.norm(u2)

    r = spec.radius_of_curvature_m
    beta_max = math.asin(min(1.0, spec.chord_width_m / (2.0 * r)))
    beta = np.linspace(-beta_max, beta_max, _CAPTURE_GRID_POINTS)

    cos_b = np.cos(beta)[:, None]
    sin_b = np.sin(beta)[:, None]
    normals = cos_b * n2[None, :] + sin_b * eh2[None, :]
    points = c2[None, :] + r * (cos_b - 1.0) * n2[None, :] + r * sin_b * eh2[None, :]

    d_in = points - tx2[None, :]
    d_in /= np.linalg.norm(d_in, axis=1, keepdims=True)
    d_out = d_in - 2.0 * np.sum(d_in * normals, axis=1, keepdims=True) * normals

    # Intersect point + tau * d_out with the line q2 + s * u2.
    rel = q2[None, :] - points
    cross_du = d_out[:, 0] * u2[1] - d_out[:, 1] * u2[0]
    cross_ru = rel[:, 0] * u2[1] - rel[:, 1] * u2[0]
    valid = np.abs(cross_du) > 1e-15
    tau = np.where(valid, cross_ru / np.where(valid, cross_du, 1.0), np.nan)
    valid &= tau > 1e-9
    hit = points + tau[:, None] * d_out
    s = np.sum((hit - q2[None, :]) * u2[None, :], axis=1)

    beta_v = beta[valid]
    s_v = s[valid]
    if beta_v.size < 2:
        return _ArcCaptureMap(np.empty(0), np.empty(0))
    order = np.argsort(s_v, kind="stable")
    s_sorted = s_v[order]
    beta_sorted = beta_v[order]
    keep = np.concatenate(([True], np.diff(s_sorted) > 0.0))
    s_sorted = s_sorted[keep]
    beta_sorted = beta_sorted[keep]
    d_beta = np.diff(beta_sorted)
    if not (np.all(d_beta > 0.0) or np.all(d_beta < 0.0)):
        raise GeometryError("arc reflection map is not monotone for this geometry")
    return _ArcCaptureMap(s_sorted, beta_sorted)


def solve_convex_capture(
    spec: ConvexReflectorSpec,
    geom: ScenarioGeometry,
    rx: np.ndarray,
    pattern: AntennaPattern,
    far_field_distance_m: float,
) -> Optional[ConvexCapture]:
    """Find the arc launch angles whose reflections the RX can capture.

    The capture segment is horizontal, perpendicular to the RX sight line
    toward the reflector center, centered at the RX, with length
    2*d*tan(HPBW_az/2). Target intercepts are spaced `azimuth_ray_spacing_m`
    apart across it (default: 1/32 of the capture length); targets the arc
    cannot reach are dropped. Returns None when nothing is capturable.
    """
    rx = vec3(rx)
    if float(np.dot(rx - geom.reflector_center, geom.reflector_normal)) <= 0.0:
        raise GeometryError("RX must be in front of the reflector")
    l_ant = capture_length_m(pattern, far_field_distance_m)
    gamma = spec.azimuth_ray_spacing_m if spec.azimuth_ray_spacing_m is not None else l_ant / 32.0
    n_az = math.ceil(l_ant / gamma - 1e-12)

    sight = geom.reflector_center - rx
    u2 = np.array([-sight[1], sight[0]])
    norm_u2 = float(np.linalg.norm(u2))
    if norm_u2 < 1e-12:
        raise GeometryError("RX sight line is vertical; capture segment undefined")
    u3 = np.array([u2[0] / norm_u2, u2[1] / norm_u2, 0.0])

    cmap = _arc_capture_map(spec, geom, rx, u3)
    if cmap.intercept_s.size == 0:
        return None
    targets = (np.arange(n_az) - (n_az - 1) / 2.0) * gamma
    reachable = (targets >= cmap.intercept_s[0]) & (targets <= cmap.intercept_s[-1])
    kept_cols = np.nonzero(reachable)[0]
    if kept_cols.size == 0:
        return None
    betas = np.interp(targets[kept_cols], cmap.intercept_s, cmap.arc_angle)
    return ConvexCapture(
        arc_angles=betas,
        intercepts_s=targets[kept_cols],
        columns=kept_cols,
        segment_dir=u3,
        capture_length_m=l_ant,
        ray_spacing_m=gamma,
        n_az_nominal=n_az,
    )


def _convex_section_offsets(spec: ConvexReflectorSpec) -> np.ndarray:
    n_el = spec.n_height_sections
    return ((np.arange(n_el) + 0.5) / n_el - 0.5) * spec.height_m


class ConvexRayPaths(NamedTuple):
    """Vectorized specular ray paths from the TX over the arc to the capture
    segment of one RX position, ordered section-major then by intercept."""

    distance_m: np.ndarray
    tx_az_deg: np.ndarray
    tx_el_deg: np.ndarray
    rx_az_deg: np.ndarray
    rx_el_deg: np.ndarray
    n_sections: int
    n_az_nominal: int


def convex_ray_paths(
    spec: ConvexReflectorSpec,
    geom: ScenarioGeometry,
    rx: np.ndarray,
    pattern: AntennaPattern,
    far_field_distance_m: float,
    tx_boresight: np.ndarray,
    rx_boresight: np.ndarray,
) -> Optional[ConvexRayPaths]:
    """Geometry of the captured ray bundle, traced to the capture segment.

    Each ray runs TX -> arc launch point -> its intercept on the capture
    segment (the specular path the antenna actually collects), so the path
    length is d1 + the reflected leg to the intercept, and the arrival angles
    are those of the reflected ray direction against the RX boresight.
    """
    capture = solve_convex_capture(spec, geom, rx, pattern, far_field_distance_m)
    if capture is None:
        return None
    rx = vec3(rx)
    e_h, e_v = surface_axes(geom.reflector_normal)
    n = geom.reflector_normal
    r = spec.radius_of_curvature_m
    center = geom.reflector_center
    tx = geom.tx_position

    betas = capture.arc_angles
    cos_b = np.cos(betas)[:, None]
    sin_b = np.sin(betas)[:, None]
    normals = cos_b * n[None, :] + sin_b * e_h[None, :]          # (K, 3)
    arc_xy = center[None, :] + r * (cos_b - 1.0) * n[None, :] + r * sin_b * e_h[None, :]

    z_offsets = _convex_section_offsets(spec)                     # (S,)
    launch = arc_xy[None, :, :] + z_offsets[:, None, None] * e_v[None, None, :]  # (S, K, 3)

    to_launch = launch - tx[None, None, :]
    d1 = np.linalg.norm(to_launch, axis=2)                        # (S, K)
    d_in = to_launch / d1[:, :, None]
    reflected = d_in - 2.0 * np.sum(d_in * normals[None, :, :], axis=2, keepdims=True) * normals[None, :, :]

    # Horizontal intercept on the capture segment; every section shares it.
    q_xy = rx[None, :2] + capture.intercepts_s[:, None] * capture.segment_dir[None, :2]  # (K, 2)
    tau_h = np.linalg.norm(q_xy - arc_xy[:, :2], axis=1)          # (K,)
    horiz = np.linalg.norm(reflected[:, :, :2], axis=2)           # (S, K)
    if np.any(horiz < 1e-9):
        raise GeometryError("reflected ray is vertical; capture intercept undefined")
    leg2 = tau_h[None, :] / horiz                                  # (S, K)

    tx_az, tx_el = offset_angles_deg(d_in.reshape(-1, 3), tx_boresight)
    rx_az, rx_el = offset_angles_deg(reflected.reshape(-1, 3), rx_boresight)
    return ConvexRayPaths(
        distance_m=(d1 + leg2).reshape(-1),
        tx_az_deg=tx_az,
        tx_el_deg=tx_el,
        rx_az_deg=rx_az,
        rx_el_deg=rx_el,
        n_sections=spec.n_height_sections,
        n_az_nominal=capture.n_az_nominal,
    )


def specular_point(geom: ScenarioGeometry) -> np.ndarray:
    """Point on the sweep line hit by the mirror ray through the reflector center.

    Image-source construction: reflect the TX across the reflector plane and
    intersect the line from the image through the center with the sweep line.
    """
    n = geom.reflector_normal
    tx_rel = geom.tx_position - geom.reflector_center
    tx_image = geom.tx_position - 2.0 * float(np.dot(tx_rel, n)) * n
    sight_dir = unit(geom.reflector_center - tx_image)
    sweep_dir = geom.sweep_axis

    dot = float(np.dot(sight_dir, sweep_dir))
    det = dot * dot - 1.0
    if abs(det) < 1e-12:
        raise GeometryError("sweep line is parallel to the specular sight line")
    e = tx_image - geom.sweep_start
    # Least-squares closest point between the two lines, taken on the sweep line.
    b = (-float(np.dot(e, sweep_dir)) + dot * float(np.dot(e, sight_dir))) / det
    return geom.sweep_start + b * sweep_dir


def _antenna_frame(boresight: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    b = unit(boresight)
    if abs(float(np.dot(b, _UP))) > 0.999:
        raise GeometryError("vertical antenna boresights are not supported")
    e_az = unit(np.cross(_UP, b))
    e_el = np.cross(b, e_az)
    return b, e_az, e_el


def offset_angles_deg(directions: np.ndarray, boresight: np.ndarray):
    """Azimuth/elevation offsets (degrees, in [-180, 180]) of unit directions
    from a boresight, using the global vertical to split the two planes."""
    b, e_az, e_el = _antenna_frame(boresight)
    d = np.asarray(directions, dtype=float)
    x = d @ b
    y = d @ e_az
    z = d @ e_el
    az = np.degrees(np.arctan2(y, x))
    el = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
    return az, el


def path_geometry_batch(
    tx: np.ndarray,
    launch_points: np.ndarray,
    rx: np.ndarray,
    tx_boresight: np.ndarray,
    rx_boresight: np.ndarray,
):
    """Vectorized ray path solve for many launch points and RX positions.

    Angles follow the ray's travel direction: departure (tx -> launch)
    against the TX boresight, arrival (launch -> rx) against the RX
    boresight. launch_points has shape (N, 3) and rx has shape (M, 3).
    Returns (distance, tx_az, tx_el, rx_az, rx_el), each of shape (M, N),
    all angles in degrees.
    """
    tx = vec3(tx)
    launch = np.asarray(launch_points, dtype=float)
    rx = np.asarray(rx, dtype=float)

    to_launch = launch - tx[None, :]
    d1 = np.linalg.norm(to_launch, axis=1)
    if np.any(d1 == 0.0):
        raise GeometryError("ray launch point coincides with the TX")
    tx_az, tx_el = offset_angles_deg(to_launch / d1[:, None], tx_boresight)

    arrival = rx[:, None, :] - launch[None, :, :]
    d2 = np.linalg.norm(arrival, axis=2)
    if np.any(d2 == 0.0):
        raise GeometryError("ray launch point coincides with the RX")
    rx_az, rx_el = offset_angles_deg(arrival / d2[:, :, None], rx_boresight)

    dist = d1[None, :] + d2
    tx_az = np.broadcast_to(tx_az[None, :], dist.shape)
    tx_el = np.broadcast_to(tx_el[None, :], dist.shape)
    return dist, tx_az, tx_el, rx_az, rx_el
