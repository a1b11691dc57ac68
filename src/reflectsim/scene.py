"""Measurement geometry: TX position, reflector surface decomposition, RX sweep.

The reflector is the frame: its center is the origin, its normal is +x
(toward the TX), and its surface axes are +y (horizontal) and +z (up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .antenna import AntennaPattern, Band

INCH_M = 0.0254
REFLECTOR_SIDE_16IN_M = 16 * INCH_M  # 0.4064 m

# Every convex plate is summed as 16 height sections x 32 azimuth targets:
# 512 rays per RX position.
_HEIGHT_SECTIONS = 16
_AZIMUTH_TARGETS = 32

_CAPTURE_GRID_POINTS = 4097
# RX positions whose capture lines are solved together: each numpy call of a
# block covers this many lines, so a larger block makes fewer calls, and
# hands the GIL between a sweep's two threads less often. On a 2-CPU host,
# two threads, the capture solves of the four `convex-bands` sweeps took
# 0.65-0.74 s at 4 positions per block, 0.43-0.48 s at 8, 0.32-0.38 s at 16,
# 0.28-0.34 s at 32 and 0.31-0.36 s at 64 (medians of 9 interleaved rounds,
# two series). The three (32, 4097) buffers take 3 MB per thread.
_CAPTURE_BLOCK = 32

_NOT_MONOTONE = "arc reflection map is not monotone for this geometry"


class GeometryError(ValueError):
    """Raised for degenerate or inconsistent scene geometry."""


def link_points(points, name: str) -> np.ndarray:
    """The (M, 3) points of `name` as floats; a GeometryError unless every one
    is finite, in front of the plate (x > 0) and in the link plane z = 0."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3:
        raise GeometryError(f"{name} must be an (M, 3) array, got shape {p.shape}")
    not_finite = ~np.isfinite(p).all(axis=1)
    if np.any(not_finite):
        raise GeometryError(f"{name} must be finite, got {p[np.argmax(not_finite)].tolist()!r}")
    behind = p[:, 0] <= 0.0
    if np.any(behind):
        raise GeometryError(f"{name} must be in front of the reflector (x > 0), "
                            f"got x = {float(p[np.argmax(behind), 0])!r} m")
    off_plane = p[:, 2] != 0.0
    if np.any(off_plane):
        raise GeometryError(f"{name} must lie in the link plane z = 0, "
                            f"got z = {float(p[np.argmax(off_plane), 2])!r} m")
    return p


def unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise GeometryError("cannot normalize a zero vector")
    return np.asarray(v, dtype=float) / n


@dataclass(frozen=True, eq=False)
class ScenarioGeometry:
    """TX position and the linear RX sweep segment, in the reflector frame.

    The TX and the sweep lie in front of the plate, in the link plane z = 0
    through its center (`link_points`), so both shapes can read a row of
    rays below it off its exact mirror image above it (`mirror_fold`).
    """

    tx_position: np.ndarray
    sweep_start: np.ndarray
    sweep_end: np.ndarray
    n_rx_positions: int

    def __post_init__(self) -> None:
        # A straight sweep with both ends in front is in front everywhere.
        for name in ("tx_position", "sweep_start", "sweep_end"):
            point = np.asarray(getattr(self, name), dtype=float)
            if point.shape != (3,):
                raise GeometryError(f"{name} must be a point of shape (3,), "
                                    f"got shape {point.shape}")
            object.__setattr__(self, name, link_points(point[None], name)[0])
        if self.sweep_length_m <= 0.0:
            raise GeometryError("sweep must have positive length")
        if self.n_rx_positions < 2:
            raise GeometryError("n_rx_positions must be >= 2")

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
        return float(np.linalg.norm(self.sweep_midpoint))

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
    the surface. The plate is summed as `_HEIGHT_SECTIONS` height sections
    times `_AZIMUTH_TARGETS` intercepts spread evenly across the RX capture
    segment, whatever the radius: this model has no flat limit of its own.
    """

    chord_width_m: float
    height_m: float
    radius_of_curvature_m: float
    reflection_efficiency: float

    def __post_init__(self) -> None:
        if self.chord_width_m <= 0.0 or self.height_m <= 0.0:
            raise ValueError("reflector chord width and height must be positive")
        if self.radius_of_curvature_m <= self.chord_width_m / 2.0:
            raise ValueError(
                "radius_of_curvature_m must exceed chord_width_m / 2 "
                f"({self.chord_width_m / 2.0:.4f} m) for a realizable arc"
            )
        if not (0.0 < self.reflection_efficiency <= 1.0):
            raise ValueError("reflection_efficiency must be in (0, 1]")


ReflectorSpec = Union[FlatReflectorSpec, ConvexReflectorSpec]

# An antenna's unit boresight and its azimuth and elevation axes.
Frame = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class Scenario:
    """Full experiment description: band, link hardware, reflector, geometry."""

    band: Band
    geometry: ScenarioGeometry
    reflector: ReflectorSpec
    tx_pattern: AntennaPattern
    rx_pattern: AntennaPattern
    tx_power_dbm: float
    d_ref_m: float             # phase-reference path length
    alpha: float               # attenuation factor applied to every ray
    label: str

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:  # NaN fails it too
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if not math.isfinite(self.d_ref_m):
            raise ValueError(f"d_ref_m must be finite, got {self.d_ref_m!r}")

    @property
    def wavelength_m(self) -> float:
        return self.band.wavelength_m

    @property
    def is_convex(self) -> bool:
        return isinstance(self.reflector, ConvexReflectorSpec)

    @property
    def tx_boresight(self) -> np.ndarray:
        """TX horn aimed at the reflector center."""
        return unit(-self.geometry.tx_position)

    @property
    def rx_boresight(self) -> np.ndarray:
        """Arrival-direction reference of the RX horn.

        The horn is aimed at the reflector center from the sweep midpoint, so
        a ray arriving along that sight line scores zero offset; RX-side
        angles compare the ray's travel direction against this vector. The
        positioner translates the RX without rotating it, so the same
        reference applies at every sweep position.
        """
        return unit(self.geometry.sweep_midpoint)


def facetize_flat(spec: FlatReflectorSpec) -> np.ndarray:
    """Uniform facet-center grid over the plate as an (n^2, 3) array of launch points.

    Facets are ordered row-major: rows climb the surface vertical axis (+z),
    columns run along the surface horizontal axis (+y).
    """
    n = spec.facets_per_side
    y, z = np.meshgrid(_midpoints(n, spec.width_m), _midpoints(n, spec.height_m))
    return np.stack([np.zeros(n * n), y.ravel(), z.ravel()], axis=1)


def _midpoints(n: int, length_m: float) -> np.ndarray:
    """Centres of n equal cells across a span of `length_m` centred on 0."""
    return ((np.arange(n) + 0.5) / n - 0.5) * length_m


def section_heights(spec: ConvexReflectorSpec) -> np.ndarray:
    """Centre heights of the `_HEIGHT_SECTIONS` height sections of a convex plate."""
    return _midpoints(_HEIGHT_SECTIONS, spec.height_m)


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
    `_AZIMUTH_TARGETS` target intercepts are spaced evenly across it, one
    segment length / `_AZIMUTH_TARGETS` apart. The RX points must be finite
    and in front of the plate, as the sweep has checked them.
    The specular rays off the arc are traced once, in the horizontal plane
    (the cylinder axis is vertical, so every height section shares the
    azimuth solution), at `_CAPTURE_GRID_POINTS` arc angles from +beta_max
    down to -beta_max; only their crossings with each capture line depend on
    the RX point, and those are solved in place for `_CAPTURE_BLOCK` RX points
    at a time. A capture line that two or more arc rays reach is read over
    them, and they must be one contiguous run of the arc whose intercepts
    strictly fall or strictly rise along it, or a GeometryError is raised.
    The rule is checked with the whole block; only the interpolation of the
    targets runs once per RX point.

    Returns the captured arc angle of each target (M, n_az), NaN where the
    arc cannot reach it, and the target intercepts (M, n_az, 2) on the
    capture segments in the horizontal plane.
    """
    rx = np.asarray(rx_points, dtype=float)
    # Horizontal and perpendicular to the sight line -rx toward the center.
    seg = np.stack([rx[:, 1], -rx[:, 0]], axis=1)
    norm_seg = _row_norms(seg)
    if np.any(norm_seg < 1e-12):
        raise GeometryError("RX point within 1e-12 m of the plate's vertical axis; "
                            "capture segment undefined")
    seg = seg / norm_seg
    # The intersection has always used a twice-normalized direction;
    # normalizing once moves the last bits of the convex profiles.
    line = seg / _row_norms(seg)

    r = spec.radius_of_curvature_m
    beta_max = math.asin(min(1.0, spec.chord_width_m / (2.0 * r)))
    # Traced from +beta_max down, so the intercepts of every config-built
    # line rise along the arc. The reversed ascending linspace keeps its
    # points' bits; a descending linspace can differ in the last bit.
    beta = np.linspace(-beta_max, beta_max, _CAPTURE_GRID_POINTS)[::-1]
    cos_b = np.cos(beta)[:, None]
    sin_b = np.sin(beta)[:, None]
    normals = np.hstack([cos_b, sin_b])
    points = np.hstack([r * (cos_b - 1.0), r * sin_b])
    d_in = points - geom.tx_position[None, :2]
    d_in /= np.linalg.norm(d_in, axis=1, keepdims=True)
    d_out = d_in - 2.0 * np.sum(d_in * normals, axis=1, keepdims=True) * normals

    n_az = _AZIMUTH_TARGETS
    gamma = capture_length_m(pattern, geom.rx_range_m) / n_az
    targets = (np.arange(n_az) - (n_az - 1) / 2.0) * gamma
    px, py = points.T.copy()
    dx, dy = d_out.T.copy()
    n_pts = _CAPTURE_GRID_POINTS
    angles = np.full((len(rx), n_az), np.nan)
    # Every block is computed in place in three (block, arc point) buffers.
    bufs = np.empty((3, min(_CAPTURE_BLOCK, len(rx)), n_pts))
    valid_buf = np.empty(bufs.shape[1:], dtype=bool)
    for start in range(0, len(rx), _CAPTURE_BLOCK):
        block = slice(start, start + _CAPTURE_BLOCK)
        # Intersect point + tau * d_out with each capture line q + s * line as
        # (block, arc point) arrays. Each element is computed by the same
        # operations whatever the block size, so blocking changes no bit.
        qx, qy = rx[block, :1], rx[block, 1:2]
        l0, l1 = line[block, :1], line[block, 1:]
        cross, tau, work = bufs[:, :len(qx)]
        valid = valid_buf[:len(qx)]
        # A ray that runs parallel to its line divides by ~0; it is not valid,
        # so whatever that gives is never read.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.multiply(dx, l1, out=cross)
            cross -= np.multiply(dy, l0, out=work)             # dx*l1 - dy*l0
            np.subtract(qx, px, out=tau)
            tau *= l1
            np.subtract(qy, py, out=work)
            work *= l0
            tau -= work                                         # (qx-px)*l1 - (qy-py)*l0
            np.greater(np.abs(cross, out=work), 1e-15, out=valid)
            tau /= cross
            valid &= tau > 1e-9
            s = cross                                           # cross is not read again
            np.multiply(tau, dx, out=s)
            s += px
            s -= qx
            s *= l0                                             # (px + tau*dx - qx) * l0
            np.multiply(tau, dy, out=work)
            work += py
            work -= qy
            work *= l1                                          # (py + tau*dy - qy) * l1
            s += work

        # A line is read over its valid points, which must be one contiguous
        # run of the arc whose intercepts all rise or all fall along it: the
        # block is checked on its adjacent valid pairs. The lines of every
        # config rise, so only a read line that does not rise is tested for
        # falling: that takes code-built geometry, such as an RX a few
        # centimetres from the plate and off its reflected fan.
        rises = s[:, 1:] > s[:, :-1]
        if np.all(valid):
            n_valid = np.full(len(qx), n_pts)
            first = np.zeros(len(qx), dtype=int)
            one_run = True
            pairs = None
        else:
            pairs = valid[:, 1:] & valid[:, :-1]
            n_valid = np.count_nonzero(valid, axis=1)
            # One run of n valid points holds n - 1 valid pairs.
            one_run = n_valid - np.count_nonzero(pairs, axis=1) == 1
            first = np.argmax(valid, axis=1)
            rises |= ~pairs
        read = n_valid >= 2
        rising = np.all(rises, axis=1)
        falling = read & ~rising
        if np.any(falling):
            falls = s[falling, 1:] < s[falling, :-1]
            if pairs is not None:
                falls |= ~pairs[falling]
            falling[falling] = np.all(falls, axis=1)
        if np.any(read & ~(one_run & (rising | falling))):
            raise GeometryError(_NOT_MONOTONE)
        for i in np.flatnonzero(read):
            lo, n = first[i], n_valid[i]
            s_i, beta_i = s[i, lo:lo + n], beta[lo:lo + n]
            if falling[i]:
                # np.interp needs increasing intercepts: it reads the run
                # through reversed views, which it copies.
                s_i, beta_i = s_i[::-1], beta_i[::-1]
            angles[start + i] = np.interp(targets, s_i, beta_i, left=np.nan, right=np.nan)
    intercepts = rx[:, None, :2] + targets[None, :, None] * seg[:, None, :]
    return angles, intercepts


def mirror_fold(heights: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a launch grid to solve, and the column gather that rebuilds
    the whole grid from them.

    `heights` holds the grid's row heights (the convex height sections or the
    flat facet rows) and each row holds `k` rays. The TX and the RX lie in
    z = 0, so a row whose height is exactly the negation of another's gives
    bit-equal path lengths, azimuths and gains and exactly negated
    elevations: it reads its mirror. A row is solved if its height is >= 0 or
    no other row has exactly its negated height. Returns the solved rows in
    increasing order and the (rows * k,) columns that gather the (G, solved
    rows * k) ray terms of the solved rows into the whole row-major grid.
    """
    h = np.asarray(heights, dtype=float).tolist()
    row_at = {height: i for i, height in enumerate(h)}
    # The row each row reads: its exact mirror if it is below z = 0 and has one.
    source = [row_at.get(-height, i) if height < 0.0 else i for i, height in enumerate(h)]
    rows = [i for i, s in enumerate(source) if s == i]
    slot = {row: j for j, row in enumerate(rows)}  # index of each solved row among them
    columns = np.array([slot[s] for s in source])[:, None] * k + np.arange(k)
    return np.array(rows), columns.ravel()


def convex_path_geometry_batch(
    spec: ConvexReflectorSpec,
    geom: ScenarioGeometry,
    heights: np.ndarray,
    arc_angles: np.ndarray,
    intercepts: np.ndarray,
    tx_frame: Frame,
    rx_frame: Frame,
):
    """Vectorized ray path solve for G RX positions that each capture K rays.

    `arc_angles` (G, K) and `intercepts` (G, K, 2) are the captured entries
    of G rows of `convex_captures`. Each ray runs TX -> arc launch point in
    one of the height sections -> its intercept on the capture segment (the
    specular path the antenna actually collects), so the path length is d1 +
    the reflected leg to the intercept, and the arrival angles are those of
    the reflected ray direction in the RX antenna frame. Only the H sections
    at `heights` are traced: a sweep passes the upper half of the 16, the
    rows `mirror_fold` solves, and its columns map them onto all S. Returns
    (distance, tx_az, tx_el, rx_az, rx_el), each of shape (G, H*K) ordered
    section-major, all angles in degrees.
    """
    r = spec.radius_of_curvature_m
    cos_b = np.cos(arc_angles)
    sin_b = np.sin(arc_angles)
    arc_x = r * (cos_b - 1.0)                                        # (G, K)
    arc_y = r * sin_b
    tx = geom.tx_position

    # TX -> launch leg, component by component: x and y are shared by every
    # section, z is the section height (the TX lies in z = 0), and d1 sums
    # (x*x + y*y) + z*z, the order of np.linalg.norm.
    x = arc_x - tx[0]
    y = arc_y - tx[1]
    z = heights[:, None]                                             # (H, 1)
    d1 = np.sqrt((x * x + y * y)[:, None] + z * z)                   # (G, H, K)
    ux = x[:, None] / d1
    uy = y[:, None] / d1
    uz = z / d1
    # Mirror off the vertical arc normal (cos, sin, 0). Its zero z term would
    # add ±0 to an in-plane dot product that is never -0, and subtract ±0
    # from the z component: neither changes a bit, so both are left out.
    cos_b, sin_b = cos_b[:, None], sin_b[:, None]
    two_dot = ux * cos_b
    two_dot += uy * sin_b
    two_dot *= 2.0
    vx = ux - two_dot * cos_b
    vy = uy - two_dot * sin_b

    # Horizontal intercept on the capture segment; every section shares it.
    hx = intercepts[..., 0] - arc_x
    hy = intercepts[..., 1] - arc_y
    tau_h = np.sqrt(hx * hx + hy * hy)                               # (G, K)
    horiz = np.sqrt(vx * vx + vy * vy)                               # (G, H, K)
    if np.any(horiz < 1e-9):
        raise GeometryError("reflected ray is vertical; capture intercept undefined")
    distance = d1 + tau_h[:, None] / horiz

    # Angles are projected on (G, H*K, 3) stacks: the BLAS product in
    # offset_angles_deg then gives each row the bits of a single-position call.
    g, h, k = d1.shape
    d_in = np.empty((g, h, k, 3))
    reflected = np.empty((g, h, k, 3))
    d_in[..., 0], d_in[..., 1], d_in[..., 2] = ux, uy, uz
    reflected[..., 0], reflected[..., 1], reflected[..., 2] = vx, vy, uz
    tx_az, tx_el = offset_angles_deg(d_in.reshape(g, -1, 3), tx_frame)
    rx_az, rx_el = offset_angles_deg(reflected.reshape(g, -1, 3), rx_frame)
    return distance.reshape(g, -1), tx_az, tx_el, rx_az, rx_el


def antenna_frame(boresight: np.ndarray) -> Frame:
    """The unit boresight b and the azimuth and elevation axes of an antenna.
    b lies in the link plane z = 0 (`link_points`), so e_az is horizontal and
    e_el = b x e_az points up. A sweep builds each frame once."""
    b = unit(boresight)
    e_az = unit(np.array([-b[1], b[0], 0.0]))
    e_el = np.array([0.0, 0.0, b[0] * e_az[1] - b[1] * e_az[0]])
    return b, e_az, e_el


def offset_angles_deg(directions: np.ndarray, frame: Frame):
    """Azimuth/elevation offsets (degrees, in [-180, 180]) of unit directions
    from the boresight of an `antenna_frame`."""
    b, e_az, e_el = frame
    d = np.asarray(directions, dtype=float)
    x = d @ b
    y = d @ e_az
    z = d @ e_el
    az = np.degrees(np.arctan2(y, x))
    el = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
    return az, el


def tx_leg(tx: np.ndarray, launch_points: np.ndarray, tx_frame: Frame):
    """TX leg of a flat ray set: it does not depend on the RX, so a sweep
    solves it once. launch_points has shape (N, 3). Returns the TX-to-launch
    distances d1 and the departure angles (tx -> launch, degrees, in the TX
    antenna frame), each of shape (N,).
    """
    to_launch = np.asarray(launch_points, dtype=float) - np.asarray(tx)[None, :]
    d1 = np.linalg.norm(to_launch, axis=-1)
    if np.any(d1 == 0.0):
        raise GeometryError("ray launch point coincides with the TX")
    tx_az, tx_el = offset_angles_deg(to_launch / d1[:, None], tx_frame)
    return d1, tx_az, tx_el


def path_geometry_batch(launch_points: np.ndarray, d1: np.ndarray, rx: np.ndarray,
                        rx_frame: Frame):
    """Vectorized RX-leg solve for many launch points and RX positions.

    launch_points has shape (N, 3), `d1` (N,) is their `tx_leg` distance
    and rx has shape (M, 3). Returns the total path lengths d1 + d2 and the
    arrival angles (launch -> rx, degrees, in the RX antenna frame), each of
    shape (M, N).
    """
    launch = np.asarray(launch_points, dtype=float)
    rx = np.asarray(rx, dtype=float)
    # The launch -> RX leg, component by component as (M, N) arrays: d2 sums
    # (x*x + y*y) + z*z, the order of np.linalg.norm.
    x, y, z = (rx[:, i, None] - launch[:, i] for i in range(3))
    d2 = x * x
    d2 += y * y
    d2 += z * z
    np.sqrt(d2, out=d2)
    if np.any(d2 == 0.0):
        raise GeometryError("ray launch point coincides with the RX")
    # The angles are projected on one (M, N, 3) stack, as in the convex
    # solve: its BLAS product gives each row the bits of the broadcast solve.
    arrival = np.empty(d2.shape + (3,))
    for i, component in enumerate((x, y, z)):
        np.divide(component, d2, out=arrival[..., i])
    rx_az, rx_el = offset_angles_deg(arrival, rx_frame)
    return d1[None, :] + d2, rx_az, rx_el
