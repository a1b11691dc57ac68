"""reflectsim: ray-based received-power simulation for passive reflectors.

Predicts the power profile along a linear RX sweep when a directional TX
illuminates a flat or convex reflector, by coherently summing per-facet ray
contributions, and provides the metrics and I/O needed to compare those
sweeps against channel-sounder measurements.
"""

from .antenna import AntennaPattern, Band, BandDefaults, band_defaults
from .config import ConfigError, ScenarioConfig, dump_config, parse_config
from .engine import SumMode, alpha_curved, alpha_flat
from .metrics import (
    ComparisonReport,
    PowerProfile,
    ProfileStats,
    analyze,
    compare,
    smoothed_envelope_db,
)
from .profile_io import export_profile, import_measured, read_profile_json
from .runner import run_sweep, sweep_profile
from .scene import (
    ConvexReflectorSpec,
    FlatReflectorSpec,
    GeometryError,
    Scenario,
    ScenarioGeometry,
    facetize_flat,
    specular_point,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaPattern",
    "Band",
    "BandDefaults",
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
    "alpha_curved",
    "alpha_flat",
    "analyze",
    "band_defaults",
    "compare",
    "dump_config",
    "export_profile",
    "facetize_flat",
    "import_measured",
    "parse_config",
    "read_profile_json",
    "run_sweep",
    "smoothed_envelope_db",
    "specular_point",
    "sweep_profile",
    "__version__",
]
