"""reflectsim: ray-based received-power simulation for passive reflectors.

Predicts the power profile along a linear RX sweep when a directional TX
illuminates a flat or convex reflector, by coherently summing per-facet ray
contributions, and provides the metrics and I/O needed to compare those
sweeps against channel-sounder measurements.
"""

from .antenna import AntennaPattern, Band
from .config import ConfigError, ScenarioConfig, dump_config, parse_config
from .engine import SumMode
from .metrics import (
    ComparisonReport,
    PowerProfile,
    ProfileStats,
    analyze,
    compare,
    smoothed_envelope_db,
)
from .profile_io import export_profile, import_measured
from .runner import run_sweep, sweep_profile
from .scene import (
    ConvexReflectorSpec,
    FlatReflectorSpec,
    GeometryError,
    Scenario,
    ScenarioGeometry,
    facetize_flat,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaPattern",
    "Band",
    "ComparisonReport",
    "ConfigError",
    "ConvexReflectorSpec",
    "FlatReflectorSpec",
    "GeometryError",
    "PowerProfile",
    "ProfileStats",
    "Scenario",
    "ScenarioConfig",
    "ScenarioGeometry",
    "SumMode",
    "analyze",
    "compare",
    "dump_config",
    "export_profile",
    "facetize_flat",
    "import_measured",
    "parse_config",
    "run_sweep",
    "smoothed_envelope_db",
    "sweep_profile",
    "__version__",
]
