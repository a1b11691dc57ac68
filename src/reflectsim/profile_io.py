"""Profile persistence: CSV export and measured-CSV import."""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from .metrics import PowerProfile, first_bad_sample

_CSV_HEADER = "position_m,power_db"


class ProfileFormatError(ValueError):
    """Malformed profile file; carries the offending row when known."""


def export_profile(profile: PowerProfile, path: Union[str, Path]) -> None:
    """Write a profile as CSV (`position_m,power_db` rows).

    Floats are written with full round-trip precision, so export/import is
    lossless and repeated runs are byte-identical.
    """
    lines = [_CSV_HEADER]
    lines.extend(
        f"{p!r},{db!r}"
        for p, db in zip(profile.positions_m.tolist(), profile.power_db.tolist())
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def import_measured(path: Union[str, Path]) -> PowerProfile:
    """Read a measured profile from CSV in the export schema.

    Extra columns are ignored; the profile label is taken from the filename.
    The samples are held to `PowerProfile`'s rules, and an error names its row.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        # utf-8-sig: spreadsheet "CSV UTF-8" exports start with a byte-order mark.
        lines = data.decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        row_no = data.count(b"\n", 0, exc.start) + 1
        raise ProfileFormatError(
            f"{path}: row {row_no}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
        ) from None
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

    rows: list[int] = []
    positions: list[float] = []
    powers: list[float] = []
    for row_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) < len(header):
            raise ProfileFormatError(f"{path}: row {row_no}: expected {len(header)} columns")
        try:
            positions.append(float(cells[pos_col]))
            powers.append(float(cells[pwr_col]))
        except ValueError:
            raise ProfileFormatError(f"{path}: row {row_no}: non-numeric value") from None
        rows.append(row_no)
    if not rows:
        raise ProfileFormatError(f"{path}: no data rows")
    positions_m, power_db = np.array(positions), np.array(powers)
    bad = first_bad_sample(positions_m, power_db)
    if bad is not None:
        raise ProfileFormatError(f"{path}: row {rows[bad[0]]}: {bad[1]}")
    return PowerProfile(positions_m=positions_m, power_db=power_db, label=path.stem)
