"""Directional horn antenna model: boresight gain plus HPBW-driven main lobe."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0


class Band(enum.Enum):
    """Carrier bands with bundled channel-sounder-style defaults."""

    GHZ28 = "28ghz"
    GHZ39 = "39ghz"
    GHZ120 = "120ghz"

    @property
    def frequency_hz(self) -> float:
        return _BAND_FREQUENCY_HZ[self]

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.frequency_hz

    @classmethod
    def parse(cls, text: str) -> "Band":
        """Accepts '28', '28ghz', '28 GHz', etc. Raises ValueError on unknown bands."""
        key = str(text).strip().lower().replace(" ", "").removesuffix("ghz")
        for band in cls:
            if band.value.removesuffix("ghz") == key:
                return band
        raise ValueError(f"unknown band {text!r}; expected one of 28, 39, 120 (GHz)")

    def __str__(self) -> str:
        return self.value


_BAND_FREQUENCY_HZ = {
    Band.GHZ28: 28e9,
    Band.GHZ39: 39e9,
    Band.GHZ120: 120e9,
}


@dataclass(frozen=True)
class AntennaPattern:
    """Separable azimuth/elevation main-lobe pattern.

    The roll-off is quadratic in dB with a 3 dB loss at half the HPBW in each
    plane, clamped at a flat sidelobe floor relative to boresight:

        gain_dB(az, el) = G0 - min(12*(az/hpbw_az)^2 + 12*(el/hpbw_el)^2, |floor|)

    Angles are offsets from boresight in degrees.
    """

    boresight_gain_dbi: float
    hpbw_az_deg: float
    hpbw_el_deg: float
    sidelobe_floor_db: float = -30.0

    def __post_init__(self) -> None:
        if not (0.0 < self.hpbw_az_deg <= 180.0):
            raise ValueError(f"hpbw_az_deg must be in (0, 180], got {self.hpbw_az_deg}")
        if not (0.0 < self.hpbw_el_deg <= 180.0):
            raise ValueError(f"hpbw_el_deg must be in (0, 180], got {self.hpbw_el_deg}")
        if not self.sidelobe_floor_db <= -20.0:
            raise ValueError(
                f"sidelobe_floor_db must be <= -20 dB, got {self.sidelobe_floor_db}"
            )
        if not math.isfinite(self.boresight_gain_dbi):
            raise ValueError("boresight_gain_dbi must be finite")

    def gain_db(self, az_deg, el_deg):
        """Gain in dBi at the given offsets from boresight (scalar or array)."""
        az = np.asarray(az_deg, dtype=float)
        el = np.asarray(el_deg, dtype=float)
        rolloff = 12.0 * (az / self.hpbw_az_deg) ** 2 + 12.0 * (el / self.hpbw_el_deg) ** 2
        out = self.boresight_gain_dbi - np.minimum(rolloff, -self.sidelobe_floor_db)
        return out if out.ndim else float(out)

    def gain(self, az_deg, el_deg):
        """Linear power gain at the given offsets from boresight."""
        return 10.0 ** (np.asarray(self.gain_db(az_deg, el_deg)) / 10.0)


class BandDefaults(NamedTuple):
    tx_pattern: AntennaPattern
    rx_pattern: AntennaPattern
    tx_power_dbm: float
    wavelength_m: float


# (gain dBi, H-plane HPBW deg, E-plane HPBW deg, TX power dBm) per band.
# Identical horns are used at both link ends.
_BAND_TABLE = {
    Band.GHZ28: (17.0, 24.0, 26.0, -10.0),
    Band.GHZ39: (20.0, 16.0, 15.0, -10.0),
    Band.GHZ120: (21.0, 13.0, 13.0, 10.0),
}


def band_defaults(band: Band) -> BandDefaults:
    """Default link parameters for a band. The horizontal sweep geometry maps
    the H-plane to azimuth and the E-plane to elevation."""
    if band not in _BAND_TABLE:
        raise ValueError(f"unknown band {band!r}")
    gain_dbi, hpbw_h, hpbw_e, tx_power_dbm = _BAND_TABLE[band]
    pattern = AntennaPattern(gain_dbi, hpbw_az_deg=hpbw_h, hpbw_el_deg=hpbw_e)
    return BandDefaults(pattern, pattern, tx_power_dbm, band.wavelength_m)
