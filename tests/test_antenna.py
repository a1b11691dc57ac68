
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from reflectsim.antenna import AntennaPattern, Band, band_defaults

PATTERN_28 = AntennaPattern(17.0, hpbw_az_deg=24.0, hpbw_el_deg=26.0)


def test_boresight_gain_is_exact():
    assert PATTERN_28.gain_db(0.0, 0.0) == 17.0
    assert_allclose(PATTERN_28.gain(0.0, 0.0), 10.0**1.7, rtol=1e-15)


def test_half_power_at_half_beamwidth():
    # 3 dB down at hpbw/2 in each plane, by definition of the beamwidth
    assert_allclose(PATTERN_28.gain_db(12.0, 0.0), 14.0, atol=1e-12)
    assert_allclose(PATTERN_28.gain_db(0.0, 13.0), 14.0, atol=1e-12)
    for band in Band:
        for p in (band_defaults(band).tx_pattern, band_defaults(band).rx_pattern):
            peak = p.boresight_gain_dbi
            assert_allclose(p.gain_db(p.hpbw_az_deg / 2.0, 0.0), peak - 3.0, atol=1e-12)
            assert_allclose(p.gain_db(0.0, p.hpbw_el_deg / 2.0), peak - 3.0, atol=1e-12)


def test_sidelobe_floor_clamps_wide_angles():
    # 12*(60/24)^2 = 75 dB of roll-off, clamped at the 30 dB floor
    assert PATTERN_28.gain_db(60.0, 0.0) == 17.0 - 30.0
    assert_allclose(PATTERN_28.gain(60.0, 0.0), 10.0 ** (-1.3), rtol=1e-12)
    assert_allclose(PATTERN_28.gain(60.0, 0.0), 0.05011872, rtol=1e-6)


def test_gain_accepts_arrays():
    az = np.array([0.0, 12.0, 60.0])
    out = PATTERN_28.gain_db(az, 0.0)
    assert_allclose(out, [17.0, 14.0, -13.0], atol=1e-12)


@pytest.mark.parametrize(
    "band, gain_dbi, hpbw_az, hpbw_el, tx_power_dbm",
    [
        (Band.GHZ28, 17.0, 24.0, 26.0, -10.0),
        (Band.GHZ39, 20.0, 16.0, 15.0, -10.0),
        (Band.GHZ120, 21.0, 13.0, 13.0, 10.0),
    ],
)
def test_band_defaults_table(band, gain_dbi, hpbw_az, hpbw_el, tx_power_dbm):
    d = band_defaults(band)
    for pattern in (d.tx_pattern, d.rx_pattern):
        assert pattern.boresight_gain_dbi == gain_dbi
        assert pattern.hpbw_az_deg == hpbw_az
        assert pattern.hpbw_el_deg == hpbw_el
    assert d.tx_power_dbm == tx_power_dbm


@pytest.mark.parametrize(
    "band, freq_hz",
    [(Band.GHZ28, 28e9), (Band.GHZ39, 39e9), (Band.GHZ120, 120e9)],
)
def test_wavelength_from_first_principles(band, freq_hz):
    assert_allclose(band_defaults(band).wavelength_m, 299792458.0 / freq_hz, rtol=1e-15)


def test_wavelength_28ghz_value():
    assert round(band_defaults(Band.GHZ28).wavelength_m, 6) == 0.010707


def test_eh_swap_exchanges_planes():
    d = band_defaults(Band.GHZ39, eh_swap=True)
    assert d.tx_pattern.hpbw_az_deg == 15.0
    assert d.tx_pattern.hpbw_el_deg == 16.0


@pytest.mark.parametrize("text, band", [("28", Band.GHZ28), ("39ghz", Band.GHZ39),
                                        ("120 GHz", Band.GHZ120)])
def test_band_parse(text, band):
    assert Band.parse(text) is band


def test_band_parse_unknown_raises():
    with pytest.raises(ValueError, match="unknown band"):
        Band.parse("60")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(boresight_gain_dbi=17.0, hpbw_az_deg=0.0, hpbw_el_deg=26.0),
        dict(boresight_gain_dbi=17.0, hpbw_az_deg=24.0, hpbw_el_deg=181.0),
        dict(boresight_gain_dbi=17.0, hpbw_az_deg=24.0, hpbw_el_deg=26.0,
             sidelobe_floor_db=-10.0),
        dict(boresight_gain_dbi=float("nan"), hpbw_az_deg=24.0, hpbw_el_deg=26.0),
    ],
)
def test_pattern_validation(kwargs):
    with pytest.raises(ValueError):
        AntennaPattern(**kwargs)


angles = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)


@given(az=angles, el=angles)
@settings(max_examples=100, deadline=None)
def test_gain_even_symmetry(az, el):
    g = PATTERN_28.gain_db(az, el)
    assert g == PATTERN_28.gain_db(-az, el)
    assert g == PATTERN_28.gain_db(az, -el)


@given(az=angles, el=angles)
@settings(max_examples=100, deadline=None)
def test_gain_bounds(az, el):
    g = PATTERN_28.gain_db(az, el)
    assert PATTERN_28.boresight_gain_dbi + PATTERN_28.sidelobe_floor_db <= g
    assert g <= PATTERN_28.boresight_gain_dbi


@given(az=angles, el=angles, t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_gain_monotone_along_rays(az, el, t1, t2):
    lo, hi = sorted((t1, t2))
    assert PATTERN_28.gain_db(hi * az, hi * el) <= PATTERN_28.gain_db(lo * az, lo * el) + 1e-9
