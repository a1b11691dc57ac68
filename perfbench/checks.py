"""Output checks behind ``fail_frac``: reference profiles, strict JSON, reruns.

A check returns a list of problems; an empty list means the output passed.
Problems are split in two kinds. *Wrong* outputs (a profile away from the
reference, a NaN, a rerun that differs, a missing file) make the run's
``correct`` false. Every problem, including a warning or JSON that a strict
parser rejects, makes the operation count as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.signal import find_peaks

TOLERANCE_DB = 1e-9

# Kinds of problem. WRONG makes the run incorrect; every kind fails the operation.
WRONG = "wrong"
FLAGGED = "flagged"


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity extensions Python accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def read_profile_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Positions and powers of an exported ``position_m,power_db`` CSV."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    data = np.array([[float(cell) for cell in row.split(",")] for row in rows if row], dtype=float)
    return data[:, 0], data[:, 1]


def compare_to_reference(power: np.ndarray, reference: np.ndarray) -> list[str]:
    """Problems of a profile against its reference (dB, -inf sentinel allowed)."""
    if power.shape != reference.shape:
        return [f"length {power.size} != reference {reference.size}"]
    problems = []
    if np.isnan(power).any():
        problems.append(f"{int(np.isnan(power).sum())} NaN values")
    if np.isposinf(power).any():
        problems.append("+inf values")
    if not np.array_equal(np.isneginf(power), np.isneginf(reference)):
        problems.append("-inf positions differ from the reference")
    finite = np.isfinite(power) & np.isfinite(reference)
    if finite.any():
        worst = float(np.max(np.abs(power[finite] - reference[finite])))
        if worst > TOLERANCE_DB:
            problems.append(f"max |diff| {worst:.3e} dB > {TOLERANCE_DB:g} dB")
    return problems


def _has_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, dict):
        return any(_has_nan(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_nan(v) for v in value)
    return False


def check_json_file(path: Path) -> tuple[list[tuple[str, str]], Optional[dict]]:
    """Strict-JSON check of a stats or report file; returns problems and the document."""
    text = path.read_text(encoding="utf-8")
    try:
        doc = strict_json(text)
    except ValueError as exc:
        loose = json.loads(text)
        kind = WRONG if _has_nan(loose) else FLAGGED
        return [(kind, f"{path.name}: strict JSON parser rejects it ({exc})")], loose
    return [], doc


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def fringe_count(power_db: np.ndarray, window: int = 51, prominence_db: float = 1.0) -> int:
    """Fringes as ``metrics.analyze`` defines them: prominent maxima of the profile
    minus its linear-power moving-average envelope."""
    pwr = np.asarray(power_db, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        linear = 10.0 ** (pwr / 10.0)
        kernel = np.ones(min(window, pwr.size))
        mean = np.convolve(linear, kernel, mode="same") / np.convolve(
            np.ones_like(linear), kernel, mode="same")
        envelope = np.where(mean > 0.0, 10.0 * np.log10(mean), -np.inf)
        detrended = pwr - envelope
    detrended[~np.isfinite(detrended)] = 0.0
    return int(find_peaks(detrended, prominence=prominence_db)[0].size)


def expected_report(sim_pos: np.ndarray, sim_pwr: np.ndarray,
                    meas_pos: np.ndarray, meas_pwr: np.ndarray) -> dict:
    """Offset-fit comparison computed independently from the reference profile."""
    inside = (meas_pos >= max(sim_pos[0], meas_pos[0])) & (meas_pos <= min(sim_pos[-1], meas_pos[-1]))
    diff = meas_pwr[inside] - np.interp(meas_pos[inside], sim_pos, sim_pwr)
    offset = float(np.mean(diff))
    return {
        "offset_db": offset,
        "rmse_db": float(np.sqrt(np.mean((diff - offset) ** 2))),
        "peak_position_delta_m": float(meas_pos[np.argmax(meas_pwr)] - sim_pos[np.argmax(sim_pwr)]),
        "fringe_count_delta": fringe_count(meas_pwr) - fringe_count(sim_pwr),
        "n_overlap": int(inside.sum()),
    }


def compare_report(report: dict, expected: dict) -> list[str]:
    problems = []
    for key, want in expected.items():
        got = report.get(key)
        if isinstance(want, int):
            ok = got == want
        else:
            ok = isinstance(got, float) and abs(got - want) <= TOLERANCE_DB
        if not ok:
            problems.append(f"report {key} = {got!r}, expected {want!r}")
    return problems
