"""Directional horn antenna model: boresight gain plus HPBW-driven main lobe."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0


class Band(enum.Enum):
    """Carrier bands with the channel-sounder horn and TX power of each."""

    GHZ28 = "28ghz"
    GHZ39 = "39ghz"
    GHZ120 = "120ghz"

    @property
    def frequency_hz(self) -> float:
        return _BAND_TABLE[self][0]

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.frequency_hz

    @property
    def horn(self) -> AntennaPattern:
        """The horn used at both link ends. The horizontal sweep geometry maps
        its H-plane to azimuth and its E-plane to elevation."""
        return _BAND_TABLE[self][1]

    @property
    def tx_power_dbm(self) -> float:
        return _BAND_TABLE[self][2]

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


# Roll-off at which the main lobe meets the flat sidelobe floor (dB below boresight).
_SIDELOBE_FLOOR_DB = 30.0


@dataclass(frozen=True)
class AntennaPattern:
    """Separable azimuth/elevation main-lobe pattern.

    The roll-off is quadratic in dB with a 3 dB loss at half the HPBW in each
    plane, clamped at a flat sidelobe floor 30 dB below boresight:

        gain_dB(az, el) = G0 - min(12*(az/hpbw_az)^2 + 12*(el/hpbw_el)^2, 30)

    Angles are offsets from boresight in degrees.
    """

    boresight_gain_dbi: float
    hpbw_az_deg: float
    hpbw_el_deg: float

    def __post_init__(self) -> None:
        if not (0.0 < self.hpbw_az_deg <= 180.0):
            raise ValueError(f"hpbw_az_deg must be in (0, 180], got {self.hpbw_az_deg}")
        if not (0.0 < self.hpbw_el_deg <= 180.0):
            raise ValueError(f"hpbw_el_deg must be in (0, 180], got {self.hpbw_el_deg}")
        if not math.isfinite(self.boresight_gain_dbi):
            raise ValueError("boresight_gain_dbi must be finite")

    def gain_db(self, az_deg, el_deg):
        """Gain in dBi at the given offsets from boresight (scalar or array)."""
        az = np.asarray(az_deg, dtype=float)
        el = np.asarray(el_deg, dtype=float)
        rolloff = 12.0 * (az / self.hpbw_az_deg) ** 2 + 12.0 * (el / self.hpbw_el_deg) ** 2
        out = self.boresight_gain_dbi - np.minimum(rolloff, _SIDELOBE_FLOOR_DB)
        return out if out.ndim else float(out)

    def gain(self, az_deg, el_deg):
        """Linear power gain at the given offsets from boresight."""
        return 10.0 ** (np.asarray(self.gain_db(az_deg, el_deg)) / 10.0)


# (frequency Hz, horn (gain dBi, H-plane HPBW deg, E-plane HPBW deg), TX power dBm)
_BAND_TABLE = {
    Band.GHZ28: (28e9, AntennaPattern(17.0, hpbw_az_deg=24.0, hpbw_el_deg=26.0), -10.0),
    Band.GHZ39: (39e9, AntennaPattern(20.0, hpbw_az_deg=16.0, hpbw_el_deg=15.0), -10.0),
    Band.GHZ120: (120e9, AntennaPattern(21.0, hpbw_az_deg=13.0, hpbw_el_deg=13.0), 10.0),
}
