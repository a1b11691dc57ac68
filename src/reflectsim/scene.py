"""Measurement geometry: TX pose, reflector surface decomposition, RX sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .antenna import AntennaPattern, Band

INCH_M = 0.0254
REFLECTOR_SIDE_16IN_M = 16 * INCH_M  # 0.4064 m

_UP = np.array([0.0, 0.0, 1.0])

# Flat reflectors essentially indistinguishable from this radius are treated
# as the planar limit of the convex model.
PLANAR_LIMIT_RADIUS_M = 1e6

_CAPTURE_GRID_POINTS = 4097
# RX positions whose capture lines are solved together: the (block, 4097)
# temporaries stay in cache; 32 or more positions per block run slower.
_CAPTURE_BLOCK = 16


class GeometryError(ValueError):
    """Raised for degenerate or inconsistent scene geometry."""


def vec3(v) -> np.ndarray:
    """Build a finite 3-vector from any length-3 sequence."""
    arr = np.asarray(v, dtype=float).reshape(3).copy()
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

    @property
    def rx_range_m(self) -> float:
        """Nominal reflector-to-RX range (taken at the sweep midpoint)."""
        return float(np.linalg.norm(self.sweep_midpoint - self.reflector_center))

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
    the surface. Launch rays are spaced so their reflected intercepts land
    `azimuth_ray_spacing_m` apart on the RX capture segment.
    """

    chord_width_m: float
    height_m: float
    radius_of_curvature_m: float
    section_height_m: float
    azimuth_ray_spacing_m: float
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
        if self.azimuth_ray_spacing_m <= 0.0:
            raise ValueError("azimuth_ray_spacing_m must be positive")
        if not (0.0 < self.reflection_efficiency <= 1.0):
            raise ValueError("reflection_efficiency must be in (0, 1]")

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
    d_ref_m: float             # phase-reference path length
    alpha: float               # attenuation factor applied to every ray
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


def _row_norms(v: np.ndarray) -> np.ndarray:
    """(M, 1) norms of the rows of an (M, 2) array, each with the bits of a
    1-D np.linalg.norm (a BLAS dot); norm(axis=1) differs in the last bit."""
    return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]


def convex_captures(
    spec: ConvexReflectorSpec,
    geom: ScenarioGeometry,
    rx_points: np.ndarray,
    pattern: AntennaPattern,
) -> tuple[np.ndarray, np.ndarray]:
    """Find, at each RX point, the arc launch angles whose reflections it captures.

    The capture segment of an RX point is horizontal, perpendicular to its
    sight line toward the reflector center, centered on it, and
    2*d*tan(HPBW_az/2) long at the sweep's range d = `geom.rx_range_m`.
    `n_az` target intercepts are spaced `azimuth_ray_spacing_m` apart across
    it. All RX points are checked first.
    The specular rays off the arc are traced once, in the horizontal plane
    (the cylinder axis is vertical, so every height section shares the
    azimuth solution); only their crossings with each capture line depend on
    the RX point, and those are solved for `_CAPTURE_BLOCK` RX points at a
    time. The intercepts of the rays that reach a capture line must be
    strictly ordered along the arc, or a GeometryError is raised.

    Returns the captured arc angle of each target (M, n_az), NaN where the
    arc cannot reach it, and the target intercepts (M, n_az, 2) on the
    capture segments in the horizontal plane.
    """
    rx = np.asarray(rx_points, dtype=float)
    if not np.all(np.isfinite(rx)):
        raise GeometryError("RX positions must be finite")
    if np.any((rx - geom.reflector_center) @ geom.reflector_normal <= 0.0):
        raise GeometryError("RX must be in front of the reflector")
    sight = geom.reflector_center - rx
    seg = np.stack([-sight[:, 1], sight[:, 0]], axis=1)
    norm_seg = _row_norms(seg)
    if np.any(norm_seg < 1e-12):
        raise GeometryError("RX sight line is vertical; capture segment undefined")
    seg = seg / norm_seg
    # The intersection has always used a twice-normalized direction;
    # normalizing once moves the last bits of the convex profiles.
    line = seg / _row_norms(seg)

    e_h, _ = surface_axes(geom.reflector_normal)
    n2 = geom.reflector_normal[:2]
    eh2 = e_h[:2]
    c2 = geom.reflector_center[:2]
    r = spec.radius_of_curvature_m
    beta_max = math.asin(min(1.0, spec.chord_width_m / (2.0 * r)))
    beta = np.linspace(-beta_max, beta_max, _CAPTURE_GRID_POINTS)
    cos_b = np.cos(beta)[:, None]
    sin_b = np.sin(beta)[:, None]
    normals = cos_b * n2[None, :] + sin_b * eh2[None, :]
    points = c2[None, :] + r * (cos_b - 1.0) * n2[None, :] + r * sin_b * eh2[None, :]
    d_in = points - geom.tx_position[None, :2]
    d_in /= np.linalg.norm(d_in, axis=1, keepdims=True)
    d_out = d_in - 2.0 * np.sum(d_in * normals, axis=1, keepdims=True) * normals

    gamma = spec.azimuth_ray_spacing_m
    n_az = math.ceil(capture_length_m(pattern, geom.rx_range_m) / gamma - 1e-12)
    targets = (np.arange(n_az) - (n_az - 1) / 2.0) * gamma
    px, py = points.T.copy()
    dx, dy = d_out.T.copy()
    angles = np.full((len(rx), n_az), np.nan)
    for start in range(0, len(rx), _CAPTURE_BLOCK):
        block = slice(start, start + _CAPTURE_BLOCK)
        # Intersect point + tau * d_out with each capture line q + s * line as
        # (block, arc point) arrays. Each element is computed by the same
        # operations whatever the block size, so blocking changes no bit.
        qx, qy = rx[block, :1], rx[block, 1:2]
        l0, l1 = line[block, :1], line[block, 1:]
        cross_du = dx * l1 - dy * l0
        cross_ru = (qx - px) * l1 - (qy - py) * l0
        valid = np.abs(cross_du) > 1e-15
        tau = np.divide(cross_ru, cross_du, out=np.full(cross_du.shape, np.nan), where=valid)
        valid &= tau > 1e-9
        s = (px + tau * dx - qx) * l0 + (py + tau * dy - qy) * l1

        for i, (s_row, valid_row) in enumerate(zip(s, valid), start):
            # np.interp needs increasing intercepts: flip a decreasing map.
            beta_v = beta[valid_row]
            s_v = s_row[valid_row]
            if beta_v.size < 2:
                continue
            ds = np.diff(s_v)
            if np.all(ds < 0.0):
                s_v, beta_v = s_v[::-1], beta_v[::-1]
            elif not np.all(ds > 0.0):
                raise GeometryError("arc reflection map is not monotone for this geometry")
            angles[i] = np.interp(targets, s_v, beta_v, left=np.nan, right=np.nan)
    intercepts = rx[:, None, :2] + targets[None, :, None] * seg[:, None, :]
    return angles, intercepts


def convex_path_geometry_batch(
    spec: ConvexReflectorSpec,
    geom: ScenarioGeometry,
    arc_angles: np.ndarray,
    intercepts: np.ndarray,
    tx_boresight: np.ndarray,
    rx_boresight: np.ndarray,
):
    """Vectorized ray path solve for G RX positions that each capture K rays.

    `arc_angles` (G, K) and `intercepts` (G, K, 2) are the captured entries
    of G rows of `convex_captures`. Each ray runs TX -> arc launch point in
    one of the S height sections -> its intercept on the capture segment (the
    specular path the antenna actually collects), so the path length is d1 +
    the reflected leg to the intercept, and the arrival angles are those of
    the reflected ray direction against the RX boresight. Returns
    (distance, tx_az, tx_el, rx_az, rx_el), each of shape (G, S*K) ordered
    section-major, all angles in degrees.
    """
    n = geom.reflector_normal
    e_h, e_v = surface_axes(n)
    r = spec.radius_of_curvature_m
    cos_b = np.cos(arc_angles)[..., None]
    sin_b = np.sin(arc_angles)[..., None]
    normals = (cos_b * n + sin_b * e_h)[:, None]                    # (G, 1, K, 3)
    arc_xy = geom.reflector_center + r * (cos_b - 1.0) * n + r * sin_b * e_h  # (G, K, 3)

    n_el = spec.n_height_sections
    z_offsets = ((np.arange(n_el) + 0.5) / n_el - 0.5) * spec.height_m
    launch = arc_xy[:, None] + z_offsets[:, None, None] * e_v       # (G, S, K, 3)

    to_launch = launch - geom.tx_position
    d1 = np.linalg.norm(to_launch, axis=-1)                         # (G, S, K)
    d_in = to_launch / d1[..., None]
    reflected = d_in - 2.0 * np.sum(d_in * normals, axis=-1, keepdims=True) * normals

    # Horizontal intercept on the capture segment; every section shares it.
    tau_h = np.linalg.norm(intercepts - arc_xy[..., :2], axis=-1)   # (G, K)
    horiz = np.linalg.norm(reflected[..., :2], axis=-1)             # (G, S, K)
    if np.any(horiz < 1e-9):
        raise GeometryError("reflected ray is vertical; capture intercept undefined")
    distance = d1 + tau_h[:, None, :] / horiz

    # Angles are projected on (G, S*K, 3) stacks: the BLAS product in
    # offset_angles_deg then gives each row the bits of a single-position call.
    g = len(arc_angles)
    tx_az, tx_el = offset_angles_deg(d_in.reshape(g, -1, 3), tx_boresight)
    rx_az, rx_el = offset_angles_deg(reflected.reshape(g, -1, 3), rx_boresight)
    return distance.reshape(g, -1), tx_az, tx_el, rx_az, rx_el


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
