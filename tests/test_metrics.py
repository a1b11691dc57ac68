from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.signal import find_peaks

from reflectsim.antenna import Band
from reflectsim.metrics import (
    DEFAULT_FRINGE_PROMINENCE_DB,
    ComparisonReport,
    PowerProfile,
    _detrended,
    _prominent_peaks,
    analyze,
    compare,
    smoothed_envelope_db,
)

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "profiles.npz"


def make_profile(power_db, positions=None, label="test"):
    power_db = np.asarray(power_db, dtype=float)
    if positions is None:
        positions = np.linspace(0.0, 1.8, power_db.size)
    return PowerProfile(positions, power_db, Band.GHZ28, "flat", label)


def test_constant_profile_has_no_fringes():
    stats = analyze(make_profile(np.full(500, -60.0)))
    assert stats.fringe_count == 0
    assert stats.envelope_dynamic_range_db == pytest.approx(0.0, abs=1e-9)
    assert stats.rhs_decay_db == pytest.approx(0.0, abs=1e-9)


def test_profile_without_power_has_no_envelope_numbers():
    # Warnings are errors here: -inf - -inf must not be evaluated.
    stats = analyze(make_profile(np.full(300, -np.inf)))
    assert stats.envelope_dynamic_range_db is None
    assert stats.rhs_decay_db is None
    assert stats.to_dict()["envelope_dynamic_range_db"] is None
    assert stats.peak_db == -np.inf


def test_sinusoid_fringe_count():
    # 10 full periods, 3 dB amplitude: one counted fringe per period (+/- 1)
    x = np.linspace(0.0, 1.0, 1001)
    profile = make_profile(-60.0 + 3.0 * np.sin(2.0 * np.pi * 10.0 * x))
    assert abs(analyze(profile).fringe_count - 10) <= 1


def test_analyze_shift_invariance():
    rng = np.random.default_rng(3)
    power = -60.0 + np.cumsum(rng.normal(0.0, 0.2, 400))
    a = analyze(make_profile(power))
    b = analyze(make_profile(power + 7.0))
    assert_allclose(b.peak_db - a.peak_db, 7.0, atol=1e-9)
    assert b.peak_position_m == a.peak_position_m
    assert b.fringe_count == a.fringe_count
    assert_allclose(b.envelope_dynamic_range_db, a.envelope_dynamic_range_db, atol=1e-9)
    assert_allclose(b.rhs_decay_db, a.rhs_decay_db, atol=1e-9)


def test_fringe_count_invariant_under_reversal():
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 1.0, 600)
    power = -60.0 + 2.5 * np.sin(2 * np.pi * 7 * x) + rng.normal(0.0, 0.1, 600)
    fwd = analyze(make_profile(power))
    rev = analyze(make_profile(power[::-1]))
    assert fwd.fringe_count == rev.fringe_count


def test_plateau_peak_reports_its_midpoint():
    x = np.array([0.0, 2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 3.0, 3.0, 3.0, 1.0])
    assert _prominent_peaks(x, 1.0).tolist() == [2, 8]


def test_array_ends_are_never_peaks():
    x = np.array([5.0, 1.0, 3.0, 1.0, 1.0, 4.0, 6.0])
    assert _prominent_peaks(x, 1.0).tolist() == [2]
    # A plateau that runs into the end is no peak either.
    assert _prominent_peaks(np.array([0.0, 2.0, 2.0]), 0.0).tolist() == []
    for n in range(3):
        assert _prominent_peaks(np.ones(n), 0.0).tolist() == []


def test_prominence_is_kept_at_equality_and_uses_the_higher_base():
    # Bases 1 (left) and 0 (right): prominence 3 - max(1, 0) = 2.
    x = np.array([4.0, 1.0, 3.0, 0.0, 5.0])
    assert _prominent_peaks(x, 2.0).tolist() == [2]
    assert _prominent_peaks(x, np.nextafter(2.0, 3.0)).tolist() == []
    # An equal peak does not stop the walk and a strictly higher one does:
    # both peaks of height 2 reach bases 0 and 1 (prominence 1, not 0.5).
    x = np.array([0.0, 2.0, 1.5, 2.0, 1.0, 3.0, 0.0])
    assert _prominent_peaks(x, 1.0).tolist() == [1, 3, 5]
    assert _prominent_peaks(x, np.nextafter(1.0, 2.0)).tolist() == [5]


def test_minus_inf_stretch_is_zeroed_before_counting_fringes():
    power = np.full(301, -60.0)
    power[100:200] = -np.inf
    detrended = _detrended(power, smoothed_envelope_db(power))
    assert np.all(detrended[100:200] == 0.0)
    # The envelope dips towards the stretch, so the last finite sample on
    # each side stands about 2.9 dB above it: one fringe per stretch edge.
    assert _prominent_peaks(detrended, 1.0).tolist() == [99, 200]
    assert analyze(make_profile(power)).fringe_count == 2


_PEAK_INPUTS = st.one_of(
    st.lists(st.integers(0, 3), max_size=400),
    st.lists(st.integers(-2, 2), max_size=400).map(np.cumsum),
    st.lists(st.floats(-5.0, 5.0).map(lambda v: round(v, 1)), max_size=400),
    st.tuples(st.integers(-3, 3), st.integers(0, 400)).map(lambda t: [t[0]] * t[1]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_PEAK_INPUTS, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]))
def test_prominent_peaks_match_scipy_find_peaks(values, prominence):
    x = np.asarray(values, dtype=float)
    expected = find_peaks(x, prominence=prominence)[0]
    assert np.array_equal(_prominent_peaks(x, prominence), expected)


def test_fringes_of_the_golden_profiles_match_scipy_find_peaks():
    with np.load(GOLDEN) as data:
        profiles = {name: data[name][1] for name in data.files}
    assert len(profiles) == 10
    for name, power in profiles.items():
        detrended = _detrended(power, smoothed_envelope_db(power))
        expected = find_peaks(detrended, prominence=DEFAULT_FRINGE_PROMINENCE_DB)[0]
        actual = _prominent_peaks(detrended, DEFAULT_FRINGE_PROMINENCE_DB)
        assert np.array_equal(actual, expected), name


def test_analyze_requires_enough_samples():
    with pytest.raises(ValueError, match="at least"):
        analyze(make_profile(np.zeros(100)))


def test_smoothed_envelope_tracks_mean_power():
    # Deep dB nulls carry almost no linear power, so they barely move the envelope.
    power = np.full(301, -60.0)
    power[150] = -110.0
    env = smoothed_envelope_db(power)
    assert env[150] > -61.0


def test_envelope_handles_minus_inf():
    power = np.full(301, -60.0)
    power[10] = -np.inf
    env = smoothed_envelope_db(power)
    assert np.all(np.isfinite(env))


def test_compare_self_is_zero():
    p = make_profile(-60.0 + np.sin(np.linspace(0, 20, 400)))
    report = compare(p, p)
    assert report.offset_db == pytest.approx(0.0, abs=1e-12)
    assert report.rmse_db == pytest.approx(0.0, abs=1e-12)
    assert report.peak_position_delta_m == 0.0
    assert report.fringe_count_delta == 0
    assert report.n_excluded == 0


def test_compare_pure_offset():
    power = -60.0 + np.sin(np.linspace(0, 20, 400))
    a = make_profile(power)
    b = make_profile(power + 7.0, label="shifted")
    report = compare(a, b)
    assert report.offset_db == pytest.approx(7.0, abs=1e-12)
    assert report.rmse_db == pytest.approx(0.0, abs=1e-12)


def test_compare_noise_rmse_oracle():
    rng = np.random.default_rng(7)
    power = -60.0 + 2.0 * np.sin(np.linspace(0, 30, 1800))
    sim = make_profile(power)
    measured = make_profile(power + rng.normal(0.0, 1.0, power.size), label="noisy")
    report = compare(sim, measured)
    assert 0.8 <= report.rmse_db <= 1.2
    assert abs(report.offset_db) < 0.1


def test_compare_antisymmetric_offset():
    power = -60.0 + np.sin(np.linspace(0, 20, 400))
    a = make_profile(power)
    b = make_profile(power + 3.0)
    ab = compare(a, b)
    ba = compare(b, a)
    assert_allclose(ab.offset_db, -ba.offset_db, atol=1e-12)
    assert_allclose(ab.rmse_db, ba.rmse_db, atol=1e-12)


def test_compare_disjoint_ranges_raises():
    a = make_profile(np.zeros(200), positions=np.linspace(0.0, 1.0, 200))
    b = make_profile(np.zeros(200), positions=np.linspace(2.0, 3.0, 200))
    with pytest.raises(ValueError, match="overlap"):
        compare(a, b)


def test_compare_short_profiles_skip_fringe_delta():
    a = make_profile(np.zeros(50), positions=np.linspace(0.0, 1.0, 50))
    report = compare(a, a)
    assert report.fringe_count_delta is None


def test_compare_fits_over_the_finite_overlap():
    power = -60.0 + np.sin(np.linspace(0, 20, 400))
    sim_power = power.copy()
    sim_power[250:330] = -np.inf  # an uncaptured stretch of the simulated sweep
    measured_power = power + 4.0
    measured_power[10:15] = -np.inf
    report = compare(make_profile(sim_power), make_profile(measured_power, label="meas"))
    assert report.n_excluded == 80 + 5
    assert report.n_overlap == 400
    assert report.offset_db == pytest.approx(4.0, abs=1e-12)
    assert report.rmse_db == pytest.approx(0.0, abs=1e-12)


def test_compare_without_finite_overlap_raises():
    a = make_profile(np.full(200, -np.inf))
    b = make_profile(np.zeros(200))
    with pytest.raises(ValueError, match="finite"):
        compare(a, b)


def test_report_serialization_round_trip():
    report = ComparisonReport(1.5, 0.3, -0.02, 2, 400, 3, "sim", "meas")
    d = report.to_dict()
    assert d["offset_db"] == 1.5
    assert d["fringe_count_delta"] == 2
    assert d["n_excluded"] == 3
    assert d["measured_label"] == "meas"


@pytest.mark.parametrize(
    "flat_peak, convex_peak, gap",
    [
        # measured metal-reflector peaks: uncalibrated scale, gaps meaningful
        (-54.00, -74.69, 20.69),
        (-55.36, -76.72, 21.36),
        (-39.95, -58.36, 18.41),
    ],
)
def test_flat_vs_convex_gap_measured_values(flat_peak, convex_peak, gap):
    flat = analyze(make_profile(np.full(200, flat_peak)))
    convex = analyze(make_profile(np.full(200, convex_peak)))
    assert_allclose(flat.peak_db - convex.peak_db, gap, atol=1e-9)


def test_profile_validation():
    pos = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="increasing"):
        PowerProfile(pos[::-1], np.zeros(10), Band.GHZ28, "flat")
    with pytest.raises(ValueError, match="NaN"):
        PowerProfile(pos, np.full(10, np.nan), Band.GHZ28, "flat")
    with pytest.raises(ValueError, match="NaN"):
        PowerProfile(pos, np.full(10, np.inf), Band.GHZ28, "flat")
    with pytest.raises(ValueError, match="equal length"):
        PowerProfile(pos, np.zeros(9), Band.GHZ28, "flat")
    # -inf sentinel is allowed
    power = np.zeros(10)
    power[3] = -np.inf
    PowerProfile(pos, power, Band.GHZ28, "flat")
