"""Sweep orchestration: evaluate a scenario at every RX position."""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .engine import SumMode, convex_sweep_power, flat_sweep_power
from .metrics import PowerProfile
from .scene import Scenario


def sweep_profile(scenario: Scenario, mode: SumMode) -> PowerProfile:
    """Evaluate the engine at every sweep position of a scenario.

    LITERAL-mode profiles are reported relative to their own sweep maximum
    (their absolute level is not calibrated); PHYSICAL-mode profiles are dBm.
    """
    rx_points = scenario.geometry.rx_positions()
    if scenario.is_convex:
        power = convex_sweep_power(scenario, rx_points, mode)
    else:
        power = flat_sweep_power(scenario, rx_points, mode)
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
    """Run the sweep described by a config; deterministic for a fixed config."""
    return sweep_profile(config.to_scenario(), config.mode)
