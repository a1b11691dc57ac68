"""Sweep orchestration: evaluate a scenario at every RX position."""

from __future__ import annotations

import os

import numpy as np

from .config import ConfigError, ScenarioConfig
from .engine import SumMode, sweep_power
from .metrics import PowerProfile
from .scene import GeometryError, Scenario

# Threads per sweep. Every position is computed on its own, so contiguous
# chunks of the sweep give the same bits as one call over the whole sweep.
# numpy releases the GIL only inside each array kernel, so the threads
# overlap part of a sweep, not all of it (README, "Model summary").
_SWEEP_WORKERS = min(2, os.cpu_count() or 1)


def sweep_profile(scenario: Scenario, mode: SumMode) -> PowerProfile:
    """Evaluate the engine at every sweep position of a scenario.

    The sweep is split into up to `_SWEEP_WORKERS` contiguous chunks, each
    evaluated on its own thread; an error in any chunk is raised here.
    LITERAL-mode profiles are reported relative to their own sweep maximum
    (their absolute level is not calibrated); PHYSICAL-mode profiles are dBm.
    """
    # Imported here: commands that run no sweep (`bands`, `--dump-config`, a
    # rejected config) then start without the thread-pool modules.
    from concurrent.futures import ThreadPoolExecutor

    rx_points = scenario.geometry.rx_positions()
    chunks = np.array_split(rx_points, min(_SWEEP_WORKERS, len(rx_points)))
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        power = np.concatenate(list(pool.map(lambda rx: sweep_power(scenario, rx, mode), chunks)))
    if mode is SumMode.LITERAL:
        top = np.max(power)
        if np.isfinite(top):
            power = power - top
    return PowerProfile(
        positions_m=scenario.geometry.rx_offsets_m(),
        power_db=power,
        label=scenario.label,
    )


def run_sweep(config: ScenarioConfig) -> PowerProfile:
    """Run the sweep described by a config; deterministic for a fixed config.
    A sweep-time `GeometryError` is a `ConfigError` on the key that causes it:
    the radius if the capture map is not monotone, else (a reflected ray runs
    vertical, the one other error a config reaches) the plate height."""
    try:
        return sweep_profile(config.to_scenario(), config.mode)
    except GeometryError as exc:
        if "not monotone" in str(exc):
            raise ConfigError(f"{exc}; lower reflector.width or raise this radius",
                              key="reflector.radius_of_curvature") from None
        raise ConfigError(f"{exc}; lower this height or raise geometry.tx_range",
                          key="reflector.height") from None
