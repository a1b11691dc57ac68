"""Profile persistence: CSV/JSON export and measured-CSV import."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from .antenna import Band
from .metrics import PowerProfile

PROFILE_SCHEMA_VERSION = "1"

_CSV_HEADER = "position_m,power_db"

# Largest measured power magnitude accepted (dB). The smoothed envelope sums
# 10**(p/10) over 51 samples, which overflows from about 3065 dB on; a far
# more negative power overflows the squared compare residuals instead.
_MAX_ABS_POWER_DB = 3000.0


class ProfileFormatError(ValueError):
    """Malformed profile file; carries the offending row when known."""


def _check_power(power: float, path: Path, where: str) -> None:
    # -inf is the no-capture sentinel that export_profile writes.
    if not (abs(power) <= _MAX_ABS_POWER_DB or power == -math.inf):
        raise ProfileFormatError(
            f"{path}: {where}: power must be -inf or in "
            f"[-{_MAX_ABS_POWER_DB:g}, {_MAX_ABS_POWER_DB:g}] dB, got {power!r}"
        )


def export_profile(profile: PowerProfile, format: str, path: Union[str, Path]) -> None:
    """Write a profile as CSV (`position_m,power_db` rows) or JSON.

    Floats are written with full round-trip precision, so export/import is
    lossless and repeated runs are byte-identical. JSON is strict: the -inf
    no-capture sentinel is written as null.
    """
    path = Path(path)
    if format == "csv":
        lines = [_CSV_HEADER]
        lines.extend(
            f"{float(p)!r},{float(db)!r}"
            for p, db in zip(profile.positions_m, profile.power_db)
        )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif format == "json":
        doc = {
            "meta": {
                "band": profile.band.value,
                "kind": profile.reflector_kind,
                "label": profile.label,
                "schema_version": PROFILE_SCHEMA_VERSION,
            },
            "positions_m": [float(p) for p in profile.positions_m],
            "power_db": [float(p) if np.isfinite(p) else None for p in profile.power_db],
        }
        path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown profile format {format!r}; expected 'csv' or 'json'")


def import_measured(path: Union[str, Path], band: Band) -> PowerProfile:
    """Read a measured profile from CSV in the export schema.

    Extra columns are ignored; the profile label is taken from the filename.
    Band and reflector kind are not encoded in CSV, so the profile is tagged
    with the caller's `band` and a neutral kind.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ProfileFormatError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    try:
        pos_col = header.index("position_m")
        pwr_col = header.index("power_db")
    except ValueError:
        raise ProfileFormatError(
            f"{path}: header must contain position_m and power_db columns"
        ) from None

    positions: list[float] = []
    powers: list[float] = []
    for row_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) < len(header):
            raise ProfileFormatError(f"{path}: row {row_no}: expected {len(header)} columns")
        try:
            pos = float(cells[pos_col])
            pwr = float(cells[pwr_col])
        except ValueError:
            raise ProfileFormatError(f"{path}: row {row_no}: non-numeric value") from None
        if not math.isfinite(pos):
            raise ProfileFormatError(f"{path}: row {row_no}: position must be finite")
        _check_power(pwr, path, f"row {row_no}")
        if positions and pos <= positions[-1]:
            raise ProfileFormatError(
                f"{path}: row {row_no}: positions must be strictly increasing"
            )
        positions.append(pos)
        powers.append(pwr)
    if not positions:
        raise ProfileFormatError(f"{path}: no data rows")

    return PowerProfile(
        positions_m=np.array(positions),
        power_db=np.array(powers),
        band=band,
        reflector_kind="measured",
        label=path.stem,
    )


def read_profile_json(path: Union[str, Path]) -> PowerProfile:
    """Read a profile previously exported as JSON; null powers read as -inf.

    Positions must be finite and strictly increasing and powers are held to
    the same bound, as in `import_measured`. Every malformed document raises
    a ProfileFormatError naming the file.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        meta = doc["meta"]
        positions = np.array(doc["positions_m"], dtype=float)
        powers = np.array([-np.inf if p is None else p for p in doc["power_db"]], dtype=float)
        band = Band.parse(meta["band"])
        kind = meta["kind"]
        label = meta.get("label", path.stem)
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers text that is not UTF-8 JSON, ragged or non-numeric
        # arrays and an unknown band.
        raise ProfileFormatError(f"{path}: missing or malformed field: {exc}") from None
    if positions.ndim != 1 or powers.ndim != 1:
        raise ProfileFormatError(f"{path}: positions_m and power_db must be lists of numbers")
    if positions.size != powers.size:
        raise ProfileFormatError(f"{path}: positions_m has {positions.size} entries, "
                                 f"power_db {powers.size}")
    if positions.size == 0:
        raise ProfileFormatError(f"{path}: no positions")
    values = positions.tolist()
    for index, position in enumerate(values):
        if not math.isfinite(position):
            raise ProfileFormatError(
                f"{path}: positions_m[{index}]: position must be finite, got {position!r}"
            )
        if index and position <= values[index - 1]:
            raise ProfileFormatError(
                f"{path}: positions_m[{index}]: positions must be strictly increasing"
            )
    for index, power in enumerate(powers.tolist()):
        _check_power(power, path, f"power_db[{index}]")
    return PowerProfile(positions, powers, band, kind, label)
