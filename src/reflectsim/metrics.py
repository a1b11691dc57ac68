"""Sweep-profile statistics: peaks, interference fringes, envelope shape."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

DEFAULT_SMOOTHING_SAMPLES = 51
DEFAULT_FRINGE_PROMINENCE_DB = 1.0

MIN_ANALYZE_SAMPLES = 101

# Largest power magnitude a profile may hold (dB). The smoothed envelope sums
# 10**(p/10) over 51 samples, which overflows from about 3065 dB on; a far
# more negative power overflows the squared compare residuals instead.
MAX_ABS_POWER_DB = 3000.0


def first_bad_sample(positions: np.ndarray, powers: np.ndarray) -> Optional[tuple[int, str]]:
    """Index and reason of the first sample of two equal-length float arrays
    that breaks a profile rule, or None. A sample's position is finite and
    above the one before it, and its power is -inf (the no-capture sentinel)
    or within MAX_ABS_POWER_DB. Written as "ok" rules, so NaN breaks them."""
    ok = np.stack([
        np.isfinite(positions),
        np.r_[True, positions[1:] > positions[:-1]],
        (np.abs(powers) <= MAX_ABS_POWER_DB) | np.isneginf(powers),
    ])
    if ok.all():
        return None
    i = int(np.argmin(ok.all(axis=0)))
    rule = int(np.argmin(ok[:, i]))
    reason = ("position must be finite", "positions must be strictly increasing",
              f"power must be -inf or in [-{MAX_ABS_POWER_DB:g}, {MAX_ABS_POWER_DB:g}] dB"
              " (no NaN or +inf)")[rule]
    return i, f"{reason}, got {float((powers if rule == 2 else positions)[i])!r}"


@dataclass(frozen=True, eq=False)
class PowerProfile:
    """Received power (dB) indexed by position along the linear RX sweep."""

    positions_m: np.ndarray
    power_db: np.ndarray
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
        bad = first_bad_sample(pos, pwr)
        if bad is not None:
            raise ValueError(f"sample {bad[0]}: {bad[1]}")

    def __len__(self) -> int:
        return int(self.positions_m.size)


@dataclass(frozen=True)
class ProfileStats:
    """Headline numbers of one sweep profile."""

    peak_db: float
    peak_position_m: float
    fringe_count: int
    # None when no position received power: the envelope is -inf throughout.
    envelope_dynamic_range_db: Optional[float]
    rhs_decay_db: Optional[float]

    def to_dict(self) -> dict:
        """JSON-ready statistics; a statistic that is None or not finite
        (e.g. an envelope that reaches the -inf sentinel) is written as None."""
        return {
            "peak_db": _finite_or_none(self.peak_db),
            "peak_position_m": _finite_or_none(self.peak_position_m),
            "fringe_count": self.fringe_count,
            "envelope_dynamic_range_db": _finite_or_none(self.envelope_dynamic_range_db),
            "rhs_decay_db": _finite_or_none(self.rhs_decay_db),
        }


def _finite_or_none(value: Optional[float]) -> Optional[float]:
    return value if value is not None and math.isfinite(value) else None


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


def smoothed_envelope_db(power_db: np.ndarray) -> np.ndarray:
    """Centered DEFAULT_SMOOTHING_SAMPLES moving average of the profile, taken
    over linear power.

    Averaging in the linear domain makes the envelope track the local mean
    power, so narrow interference nulls do not drag it down. A window
    averages its finite samples only (at the edges, those inside the
    array), and gives -inf if it has none.
    """
    pwr = np.asarray(power_db, dtype=float)
    linear = 10.0 ** (pwr / 10.0)
    kernel = np.ones(min(DEFAULT_SMOOTHING_SAMPLES, pwr.size))
    sums = np.convolve(linear, kernel, mode="same")
    counts = np.convolve(np.isfinite(pwr).astype(float), kernel, mode="same")
    mean = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0.0)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(mean)


def _detrended(power: np.ndarray, envelope: np.ndarray) -> np.ndarray:
    # Detrend only where both are finite; -inf stretches count as flat.
    out = np.zeros_like(power)
    finite = np.isfinite(power) & np.isfinite(envelope)
    out[finite] = power[finite] - envelope[finite]
    return out


def _prominent_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the local maxima of `x` with at least `prominence`.

    Follows scipy.signal.find_peaks(x, prominence=prominence)[0]: a peak is
    a run of equal values with strictly lower neighbours, reported at index
    (first + last) // 2, so the array ends are never peaks. A side's base
    is the minimum of `x` from the peak out to, not including, the first
    strictly higher sample (or to the array end). The walk out to that
    sample is a binary search over range-max tables, done for every peak
    at once; the range-min tables give the base on the way.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        return np.zeros(0, dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.append(starts[1:] - 1, n - 1)
    values = x[starts]
    inner = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    peaks = (starts[1:-1][inner] + ends[1:-1][inner]) // 2
    if peaks.size == 0:
        return peaks

    # maxs[k][i], mins[k][i]: max and min of x[i : i + 2**k].
    maxs, mins = [x], [x]
    step = 1
    while 2 * step <= n:
        maxs.append(np.maximum(maxs[-1][:-step], maxs[-1][step:]))
        mins.append(np.minimum(mins[-1][:-step], mins[-1][step:]))
        step *= 2

    height = left_base = right_base = x[peaks]
    left, right = peaks, peaks + 1  # x[left : right] <= height throughout
    for k in range(len(maxs) - 1, -1, -1):
        step = 1 << k
        start = left - step
        at = np.maximum(start, 0)
        take = (start >= 0) & (maxs[k][at] <= height)
        left = np.where(take, start, left)
        left_base = np.where(take, np.minimum(left_base, mins[k][at]), left_base)
        at = np.minimum(right, n - step)
        take = (right + step <= n) & (maxs[k][at] <= height)
        right_base = np.where(take, np.minimum(right_base, mins[k][at]), right_base)
        right = np.where(take, right + step, right)
    return peaks[height - np.maximum(left_base, right_base) >= prominence]


def analyze(profile: PowerProfile) -> ProfileStats:
    """Peak, fringe count, and envelope statistics of a sweep profile.

    Fringes are counted on the profile minus its DEFAULT_SMOOTHING_SAMPLES
    (51) envelope, with samples where either is -inf set to 0. A fringe is
    a run of equal samples whose neighbours on both sides are strictly
    lower, reported at the run's midpoint; the first and last sample are
    never fringes. Each side's base is the lowest sample met walking out
    from the fringe before the first strictly higher sample (or the array
    end), and the fringe counts when its height above the higher of the
    two bases is >= DEFAULT_FRINGE_PROMINENCE_DB (1 dB). The decay number
    is the smoothed envelope at the sweep end minus at the peak position.
    Both envelope numbers are None when no position received power.
    """
    if len(profile) < MIN_ANALYZE_SAMPLES:
        raise ValueError(
            f"analyze needs at least {MIN_ANALYZE_SAMPLES} samples, got {len(profile)}"
        )
    power = profile.power_db
    envelope = smoothed_envelope_db(power)
    peak_idx = int(np.argmax(power))

    peaks = _prominent_peaks(_detrended(power, envelope), DEFAULT_FRINGE_PROMINENCE_DB)

    dynamic_range = decay = None
    if np.isfinite(envelope[peak_idx]):  # else the envelope is -inf throughout
        dynamic_range = float(np.max(envelope) - np.min(envelope))
        decay = float(envelope[-1] - envelope[peak_idx])
    return ProfileStats(
        peak_db=float(power[peak_idx]),
        peak_position_m=float(profile.positions_m[peak_idx]),
        fringe_count=int(peaks.size),
        envelope_dynamic_range_db=dynamic_range,
        rhs_decay_db=decay,
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

