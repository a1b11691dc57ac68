"""Sweep-profile statistics: peaks, interference fringes, envelope shape."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy.signal import find_peaks

from .antenna import Band

DEFAULT_SMOOTHING_SAMPLES = 51
DEFAULT_FRINGE_PROMINENCE_DB = 1.0

MIN_ANALYZE_SAMPLES = 101


@dataclass(frozen=True, eq=False)
class PowerProfile:
    """Received power (dB) indexed by position along the linear RX sweep."""

    positions_m: np.ndarray
    power_db: np.ndarray
    band: Band
    reflector_kind: str
    label: str = ""

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions_m, dtype=float).reshape(-1)
        pwr = np.asarray(self.power_db, dtype=float).reshape(-1)
        object.__setattr__(self, "positions_m", pos)
        object.__setattr__(self, "power_db", pwr)
        if pos.size != pwr.size:
            raise ValueError("positions and powers must have equal length")
        if pos.size == 0:
            raise ValueError("profile must contain at least one sample")
        if not np.all(np.diff(pos) > 0.0):
            raise ValueError("positions must be strictly increasing")
        if np.any(np.isnan(pwr)) or np.any(pwr == np.inf):
            raise ValueError("powers must not contain NaN or +inf (-inf sentinel allowed)")

    def __len__(self) -> int:
        return int(self.positions_m.size)


@dataclass(frozen=True)
class ProfileStats:
    """Headline numbers of one sweep profile."""

    peak_db: float
    peak_position_m: float
    fringe_count: int
    envelope_dynamic_range_db: float
    rhs_decay_db: float

    def to_dict(self) -> dict:
        """JSON-ready statistics; a statistic that is not finite (e.g. an
        envelope that reaches the -inf sentinel) is written as None."""
        return {
            "peak_db": _finite_or_none(self.peak_db),
            "peak_position_m": _finite_or_none(self.peak_position_m),
            "fringe_count": self.fringe_count,
            "envelope_dynamic_range_db": _finite_or_none(self.envelope_dynamic_range_db),
            "rhs_decay_db": _finite_or_none(self.rhs_decay_db),
        }


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class ComparisonReport:
    """Offset-fit comparison of a simulated profile against a measured one.

    Reports the best constant-offset alignment and residual statistics; it
    never decides pass/fail itself.
    """

    offset_db: float
    rmse_db: float
    peak_position_delta_m: float
    fringe_count_delta: Optional[int]
    n_overlap: int
    n_excluded: int
    sim_label: str = ""
    measured_label: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def smoothed_envelope_db(power_db: np.ndarray, window: int = DEFAULT_SMOOTHING_SAMPLES) -> np.ndarray:
    """Centered moving average of the profile, taken over linear power.

    Averaging in the linear domain makes the envelope track the local mean
    power, so narrow interference nulls do not drag it down; -inf samples
    contribute zero power. Edges average over the available part of the
    window.
    """
    if window < 1:
        raise ValueError("smoothing window must be >= 1")
    pwr = np.asarray(power_db, dtype=float)
    linear = 10.0 ** (pwr / 10.0)
    kernel = np.ones(min(window, pwr.size))
    sums = np.convolve(linear, kernel, mode="same")
    counts = np.convolve(np.ones_like(linear), kernel, mode="same")
    mean = sums / counts
    out = np.full(mean.shape, -np.inf)
    nz = mean > 0.0
    out[nz] = 10.0 * np.log10(mean[nz])
    return out


def analyze(
    profile: PowerProfile,
    smoothing_window: int = DEFAULT_SMOOTHING_SAMPLES,
    fringe_prominence_db: float = DEFAULT_FRINGE_PROMINENCE_DB,
) -> ProfileStats:
    """Peak, fringe count, and envelope statistics of a sweep profile.

    Fringes are local maxima of the envelope-detrended profile with at least
    `fringe_prominence_db` of prominence. The decay number is the smoothed
    envelope at the sweep end minus at the peak position.
    """
    if len(profile) < MIN_ANALYZE_SAMPLES:
        raise ValueError(
            f"analyze needs at least {MIN_ANALYZE_SAMPLES} samples, got {len(profile)}"
        )
    power = profile.power_db
    envelope = smoothed_envelope_db(power, smoothing_window)
    peak_idx = int(np.argmax(power))

    # Detrend only where both are finite; -inf stretches count as flat.
    detrended = np.zeros_like(power)
    finite = np.isfinite(power) & np.isfinite(envelope)
    detrended[finite] = power[finite] - envelope[finite]
    peaks, _ = find_peaks(detrended, prominence=fringe_prominence_db)

    return ProfileStats(
        peak_db=float(power[peak_idx]),
        peak_position_m=float(profile.positions_m[peak_idx]),
        fringe_count=int(peaks.size),
        envelope_dynamic_range_db=float(np.max(envelope) - np.min(envelope)),
        rhs_decay_db=float(envelope[-1] - envelope[peak_idx]),
    )


def compare(sim: PowerProfile, measured: PowerProfile) -> ComparisonReport:
    """Fit a single dB offset of the simulated profile onto the measured one.

    The simulated profile is linearly interpolated onto the measured
    positions inside the overlapping range; the offset is the least-squares
    constant shift (the mean difference) and the RMSE is the residual after
    removing it. Samples where either power is not finite (the -inf
    no-capture sentinel) are left out of the fit and counted in `n_excluded`.
    """
    lo = max(float(sim.positions_m[0]), float(measured.positions_m[0]))
    hi = min(float(sim.positions_m[-1]), float(measured.positions_m[-1]))
    if lo > hi:
        raise ValueError("profiles do not overlap in position")
    mask = (measured.positions_m >= lo) & (measured.positions_m <= hi)
    meas_pos = measured.positions_m[mask]
    meas_pwr = measured.power_db[mask]
    sim_pwr = np.interp(meas_pos, sim.positions_m, sim.power_db)
    finite = np.isfinite(meas_pwr) & np.isfinite(sim_pwr)
    if not np.any(finite):
        raise ValueError("profiles have no finite power samples in their overlap")
    diff = meas_pwr[finite] - sim_pwr[finite]

    offset = float(np.mean(diff))
    residual = diff - offset
    rmse = float(np.sqrt(np.mean(residual**2)))

    sim_peak_pos = float(sim.positions_m[np.argmax(sim.power_db)])
    meas_peak_pos = float(measured.positions_m[np.argmax(measured.power_db)])

    fringe_delta: Optional[int] = None
    if len(sim) >= MIN_ANALYZE_SAMPLES and len(measured) >= MIN_ANALYZE_SAMPLES:
        fringe_delta = analyze(measured).fringe_count - analyze(sim).fringe_count

    return ComparisonReport(
        offset_db=offset,
        rmse_db=rmse,
        peak_position_delta_m=meas_peak_pos - sim_peak_pos,
        fringe_count_delta=fringe_delta,
        n_overlap=int(meas_pos.size),
        n_excluded=int(meas_pos.size - np.count_nonzero(finite)),
        sim_label=sim.label,
        measured_label=measured.label,
    )


def flat_vs_convex_gap_db(flat: ProfileStats, convex: ProfileStats) -> float:
    """Peak-power advantage of the flat reflector over the convex one (dB).

    Both stats must come from the same band; only within-band differences
    are meaningful since absolute levels sit on an uncalibrated scale.
    """
    return flat.peak_db - convex.peak_db


def envelope_rise_db(power_db: np.ndarray, start_idx: int, window: int = DEFAULT_SMOOTHING_SAMPLES) -> float:
    """Largest rise of the smoothed envelope above its running minimum, walking
    from `start_idx` toward the last sample. Zero for a monotone decay."""
    envelope = smoothed_envelope_db(power_db, window)
    tail = envelope[start_idx:]
    running_min = np.minimum.accumulate(tail)
    return float(np.max(tail - running_min))
