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
# RX positions whose capture lines the block check solves together (the
# lines `_rising_lines` refuses): each numpy call of a block covers this many
# lines, so a larger block makes fewer calls, and hands the GIL between a
# sweep's two threads less often. Of the `convex-bands` sweeps only the one
# 5 m off specular takes this path; on a 2-CPU host, two threads, its
# capture solve took 81 ms at 8 positions per block, 67 ms at 16, 63 ms at
# 32, 65 ms at 64 and 63 ms at 128 (medians of 7 interleaved rounds). The
# three (32, 4097) buffers take 3 MB per thread.
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


def _intercepts(px, py, dx, dy, qx, qy, l0, l1, bufs, valid=None):
    """Intersect the arc rays (px, py) + tau * (dx, dy) with the capture lines
    (qx, qy) + s * (l0, l1), elementwise over the broadcast inputs, in the
    three buffers `bufs` of the broadcast shape; returns s, in `bufs[0]`.

    Every element is computed by the same IEEE operations whatever the array
    shape, so a block of whole lines and a gather of single rays give the
    same bits. If `valid` is given, it is set where the ray is not parallel
    to its line and reaches it ahead of its launch point. A ray that runs
    parallel to its line divides by ~0; it is not valid, so whatever that
    gives is never read.
    """
    cross, tau, work = bufs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.multiply(dx, l1, out=cross)
        cross -= np.multiply(dy, l0, out=work)             # dx*l1 - dy*l0
        np.subtract(qx, px, out=tau)
        tau *= l1
        np.subtract(qy, py, out=work)
        work *= l0
        tau -= work                                         # (qx-px)*l1 - (qy-py)*l0
        if valid is not None:
            np.greater(np.abs(cross, out=work), 1e-15, out=valid)
        tau /= cross
        if valid is not None:
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
    return s


def _rising_lines(px, py, dx, dy, q, line):
    """Which capture lines every arc ray provably reaches, with intercepts
    that provably rise along the arc: the (M,) mask of lines whose block
    check (`_intercepts`, then the one-run and monotone rules) is known
    beforehand to find all rays valid and the computed s strictly rising.

    Notation: the arc rays P_j + tau * D_j, j = 0..N-1, and the line
    Q + s * L, all read as exact reals from their stored floats; a x b =
    a0*b1 - a1*b0. Per call, over the arc:

    1. Rotation: every w_j = D_j x D_{j+1} has one sign sigma and clears its
       rounding, so each ray turns from the last by an angle in (0, pi) in
       the sense sigma, and no two adjacent rays are parallel.
    2. Span: every D_j x D_{N-1}, j < N-1, has the sign sigma and clears its
       rounding. With 1, the rays turn by less than pi in all: a turn of
       pi or more would pass, in steps under pi, a ray whose angle to the
       last lies in [pi, 2 pi), and that ray's product has the other sign.
    3. A disk (c_P, rho_P) holding every arc point P_j, and a disk
       (c_X, rho_X) holding every crossing X_j = P_j + a_j D_j of adjacent
       rays, a_j = ((P_{j+1} - P_j) x D_{j+1}) / w_j, widened by the error
       bound of its computed X_j.

    Per line, in O(1):

    4. Parallel: D_0 x L and D_{N-1} x L have one sign and clear their
       rounding. By 1 and 2 the ray angles lie in an interval shorter than
       pi whose ends are on one side of L, so no ray is parallel to L, every
       c_j = D_j x L has that sign, and |sin| is smallest at an end:
       |c_j| >= c_low = min |c_ends| * min|D| / max|D|.
    5. Reach: (Q - c_P) x L has the sign of the c_j and clears rho_P*|L|, so
       every (Q - P_j) x L has it too, and tau_j = ((Q - P_j) x L) / c_j is
       at least n_low / (max|D| |L|) > 0; the bound must hold the computed
       tau above the 1e-9 cut, and c_low - err(c) above the 1e-15 cut, with
       a factor 2 to spare.
    6. Rising side: (Q - c_X) x L has the sign sigma and clears rho_X*|L|:
       every X_j lies on one side of the line, at least m_low / |L| off it.
       Adjacent intercepts differ by s_{j+1} - s_j = |L|^2 m_j w_j /
       (c_j c_{j+1}) with m_j = (Q - X_j) x L, so every exact step rises by
       at least gap = m_low * min|w| / max|D|^2.
    7. Gap against rounding: gap > 4 * err(s), where err(s) bounds the
       distance of every computed s_j from its exact value: with the exact
       tau_j at most t_high = n_high / c_low, err(tau) = (err(n) + t_high *
       err(c)) / (c_low - err(c)) + 2u t_high, and err(s) = 10u ((t_high +
       err(tau)) max|D| + max|P| + |Q|) |L| + err(tau) max|D| |L|, from
       |fl(x op y) - x op y| <= u |x op y| (u = 2^-53) with each chain's
       gamma_k = ku / (1 - ku) doubled. Then every computed step exceeds
       gap - 2 err(s) > 0.

    Each error term is at least twice the rounding it covers (a k-rounding
    sum or product of terms S is charged 2ku S), so the few roundings of the
    certificate's own arithmetic, on terms no larger, cannot turn a test;
    the comparison in 7 keeps a further factor 2. A line that is refused
    (a fan that folds or turns past pi, a line some ray runs parallel to or
    misses, a falling line, a gap within rounding) is left to the block
    check; a NaN or overflow on the way refuses too.
    """
    u = 2.0 ** -53  # the unit roundoff of float64
    # 1. Rotation of each ray to the next.
    w = dx[:-1] * dy[1:] - dy[:-1] * dx[1:]
    w_err = 4 * u * (np.abs(dx[:-1] * dy[1:]) + np.abs(dy[:-1] * dx[1:]))
    sigma = 1.0 if w[0] > 0.0 else -1.0
    w_low = np.min(np.abs(w) - w_err)
    # 2. Turn of each ray toward the last.
    span = dx[:-1] * dy[-1] - dy[:-1] * dx[-1]
    span_err = 4 * u * (np.abs(dx[:-1] * dy[-1]) + np.abs(dy[:-1] * dx[-1]))
    if not (np.all(np.sign(w) == sigma) and w_low > 0.0 and np.all(sigma * span > span_err)):
        return np.zeros(len(q), dtype=bool)
    # An overflow or NaN on the way fails its test below, and refuses.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        norm2 = dx * dx + dy * dy
        d_max = math.sqrt(np.max(norm2)) * (1 + 4 * u)
        d_min = math.sqrt(np.min(norm2)) * (1 - 4 * u)

        def disk(x, y, err=0.0):
            """A center and a radius holding the points (x, y), each within `err`."""
            cx, cy = 0.5 * (np.min(x) + np.max(x)), 0.5 * (np.min(y) + np.max(y))
            return cx, cy, float(np.max(np.hypot(x - cx, y - cy) * (1 + 8 * u) + err))

        # 3. Disks around the arc points and the crossings of adjacent rays.
        cpx, cpy, rho_p = disk(px, py)
        p_max = math.hypot(cpx, cpy) * (1 + 4 * u) + rho_p
        dpx, dpy = px[1:] - px[:-1], py[1:] - py[:-1]
        num = dpx * dy[1:] - dpy * dx[1:]
        num_err = 6 * u * (np.abs(dpx * dy[1:]) + np.abs(dpy * dx[1:]))
        a = num / w
        a_err = (num_err + np.abs(a) * (1 + u) * w_err) / (np.abs(w) - w_err) + 2 * u * np.abs(a)
        x_err = a_err * d_max + 6 * u * (p_max + np.abs(a) * d_max)
        cxx, cxy, rho_x = disk(px[:-1] + a * dx[:-1], py[:-1] + a * dy[:-1], x_err)

        qx, qy = q[:, 0], q[:, 1]
        l0, l1 = line[:, 0], line[:, 1]
        l_max = np.hypot(l0, l1) * (1 + 4 * u)
        # 4. No ray parallel to the line.
        c_ends = dx[[0, -1], None] * l1 - dy[[0, -1], None] * l0
        c_end_err = 4 * u * (np.abs(dx[[0, -1], None] * l1) + np.abs(dy[[0, -1], None] * l0))
        c_sign = np.sign(c_ends[0])
        ok = (np.sign(c_ends[1]) == c_sign)
        c_low = np.min(np.abs(c_ends) - c_end_err, axis=0) * (d_min / d_max)
        c_err = 4 * u * d_max * l_max
        # 5. Every ray reaches the line ahead of its launch point.
        n_c = (qx - cpx) * l1 - (qy - cpy) * l0
        n_c_err = 6 * u * (np.abs((qx - cpx) * l1) + np.abs((qy - cpy) * l0))
        n_low = np.abs(n_c) - n_c_err - rho_p * l_max
        n_high = np.abs(n_c) + n_c_err + rho_p * l_max
        n_err = 6 * u * (np.hypot(qx - cpx, qy - cpy) * (1 + 4 * u) + rho_p) * l_max
        ok &= (np.sign(n_c) == c_sign) & (c_low > 2 * c_err + 2e-15)
        ok &= n_low - n_err > 2e-9 * (d_max * l_max + c_err)
        # 6. Every crossing of adjacent rays on the rising side of the line.
        m_c = (qx - cxx) * l1 - (qy - cxy) * l0
        m_c_err = 6 * u * (np.abs((qx - cxx) * l1) + np.abs((qy - cxy) * l0))
        m_low = np.abs(m_c) - m_c_err - rho_x * l_max
        ok &= (np.sign(m_c) == sigma) & (m_low > 0.0)
        # 7. The smallest exact step against the rounding of the computed s.
        t_high = n_high / c_low
        tau_err = (n_err + t_high * c_err) / (c_low - c_err) + 2 * u * t_high
        s_err = (10 * u * ((t_high + tau_err) * d_max + p_max + np.hypot(qx, qy) * (1 + 4 * u))
                 * l_max + tau_err * d_max * l_max)
        ok &= m_low * w_low / (d_max * d_max) > 4 * s_err
        return ok


def _interp_rising(rays, beta, q, line, targets):
    """np.interp(targets, s, beta, left=NaN, right=NaN) for capture lines
    whose intercepts s over the whole arc strictly rise (`_rising_lines`),
    without computing all of s: each target is bracketed by bisection on the
    arc index, and s is computed by `_intercepts` at the indices read only.

    `rays` holds (px, py, dx, dy) for each arc point, as an (N, 4) array.
    np.interp finds, for s_0 <= t <= s_{N-1}, the last j with s_j <= t, and
    returns beta_j if t == s_j (j = N-1 included), else the slope
    (beta_{j+1} - beta_j) / (s_{j+1} - s_j) times (t - s_j) plus beta_j; its
    retry of a NaN result is never taken, as a certified step is far from 0.
    The same operations give the same bits here. The work runs on (target,
    line) arrays, so each numpy loop runs along the lines.
    """
    n_pts = len(rays)
    qx, qy, l0, l1 = q[:, 0], q[:, 1], line[:, 0], line[:, 1]

    def s_at(index):
        ray = np.take(rays, index, axis=0)
        return _intercepts(*np.moveaxis(ray, -1, 0), qx, qy, l0, l1,
                           np.empty((3,) + index.shape))

    t = targets[:, None]
    shape = (len(targets), len(q))
    first, last = s_at(np.broadcast_to([[0], [n_pts - 1]], (2, len(q))))
    lo, hi = np.zeros(shape, dtype=np.intp), np.full(shape, n_pts - 1)
    s_lo, s_hi = np.broadcast_to(first, shape).copy(), np.broadcast_to(last, shape).copy()
    # Keep s_lo <= t < s_hi while halving [lo, hi] down to one step.
    for _ in range((n_pts - 2).bit_length()):
        mid = (lo + hi) >> 1
        s_mid = s_at(mid)
        up = t >= s_mid
        np.copyto(lo, mid, where=up)
        np.copyto(s_lo, s_mid, where=up)
        down = ~up
        np.copyto(hi, mid, where=down)
        np.copyto(s_hi, s_mid, where=down)
    b_lo = beta[lo]
    angles = (beta[hi] - b_lo) / (s_hi - s_lo) * (t - s_lo) + b_lo
    np.copyto(angles, b_lo, where=t == s_lo)
    np.copyto(angles, beta[-1], where=t == last)
    angles[(t < first) | (t > last)] = np.nan
    return angles.T


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
    the RX point. A capture line that two or more arc rays reach is read over
    them, and they must be one contiguous run of the arc whose intercepts
    strictly fall or strictly rise along it, or a GeometryError is raised.

    A line that `_rising_lines` proves every ray reaches, with rising
    intercepts, is interpolated by bisection (`_interp_rising`), which reads
    about 12 rays per target. Every other line is solved whole, in place for
    `_CAPTURE_BLOCK` lines at a time: the rule is checked with the block,
    and only the interpolation of the targets runs once per RX point. Both
    give the bits of that block check and np.interp.

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
    rays = np.hstack([points, d_out])
    px, py, dx, dy = rays.T.copy()
    n_pts = _CAPTURE_GRID_POINTS
    angles = np.full((len(rx), n_az), np.nan)
    certified = _rising_lines(px, py, dx, dy, rx, line)
    if np.any(certified):
        angles[certified] = _interp_rising(rays, beta, rx[certified], line[certified], targets)
    rest = np.flatnonzero(~certified)
    # Every block is computed in place in three (block, arc point) buffers.
    bufs = np.empty((3, min(_CAPTURE_BLOCK, len(rest)), n_pts))
    valid_buf = np.empty(bufs.shape[1:], dtype=bool)
    for start in range(0, len(rest), _CAPTURE_BLOCK):
        block = rest[start:start + _CAPTURE_BLOCK]
        # Intersect each arc ray with each capture line as (block, arc
        # point) arrays.
        valid = valid_buf[:len(block)]
        s = _intercepts(px, py, dx, dy, rx[block, :1], rx[block, 1:2], line[block, :1],
                        line[block, 1:], bufs[:, :len(block)], valid)

        # A line is read over its valid points, which must be one contiguous
        # run of the arc whose intercepts all rise or all fall along it: the
        # block is checked on its adjacent valid pairs. The lines of every
        # config rise, so only a read line that does not rise is tested for
        # falling: that takes code-built geometry, such as an RX a few
        # centimetres from the plate and off its reflected fan.
        rises = s[:, 1:] > s[:, :-1]
        if np.all(valid):
            n_valid = np.full(len(block), n_pts)
            first = np.zeros(len(block), dtype=int)
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
            angles[block[i]] = np.interp(targets, s_i, beta_i, left=np.nan, right=np.nan)
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
