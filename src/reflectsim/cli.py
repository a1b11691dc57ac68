"""Command-line surface: simulate sweeps, compare to measurements, inspect defaults."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import metrics
from .antenna import Band, band_defaults
from .config import ConfigError, ScenarioConfig, dump_config, parse_config
from .profile_io import ProfileFormatError, export_profile, import_measured
from .runner import run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# Config keys that command-line flags set, each flag's `dest`; a flag's value
# wins over the document's.
_FLAG_KEYS = ("band", "reflector.kind", "engine.mode", "output.dir", "output.format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectsim",
        description="Ray-based received-power simulator for flat and convex passive reflectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="scenario config file")
        p.add_argument("--band", help="band: 28, 39 or 120 (GHz)")
        p.add_argument("--reflector", dest="reflector.kind", help="reflector kind: flat or convex")
        p.add_argument("--mode", dest="engine.mode", help="summation mode: physical or literal")

    sim = sub.add_parser("simulate", help="run one sweep and export profile + stats")
    add_scenario_flags(sim)
    sim.add_argument("--out", dest="output.dir", type=Path,
                     help="output directory (default from config)")
    sim.add_argument("--format", dest="output.format", help="profile file format: csv or json")
    sim.add_argument("--dump-config", action="store_true",
                     help="print the resolved config and exit")

    cmp_p = sub.add_parser("compare", help="compare a simulated sweep against a measured CSV")
    add_scenario_flags(cmp_p)
    cmp_p.add_argument("measured", type=Path, help="measured profile CSV")
    cmp_p.add_argument("--out", type=Path, help="write the JSON report here (default stdout)")

    sub.add_parser("bands", help="print per-band link defaults")

    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    text = "" if args.config is None else args.config.read_text(encoding="utf-8")
    overrides = {key: str(getattr(args, key)) for key in _FLAG_KEYS
                 if getattr(args, key, None) is not None}
    return parse_config(text, overrides)


def _write_json(path: Optional[Path], payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.dump_config:
        sys.stdout.write(dump_config(config))
        return EXIT_OK

    profile = run_sweep(config)
    stats = (metrics.analyze(profile).to_dict()
             if len(profile) >= metrics.MIN_ANALYZE_SAMPLES else None)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    label = config.resolved_label()
    profile_path = out_dir / f"{label}.{config.output_format}"
    export_profile(profile, config.output_format, profile_path)

    summary = {
        "label": label,
        "band": config.band.value,
        "reflector": config.reflector_kind,
        "mode": config.mode.value,
        "n_positions": len(profile),
        "stats": stats,
    }
    _write_json(out_dir / f"{label}.stats.json", summary)

    # The summary line prints the values the stats file holds, where a
    # statistic that reaches the -inf sentinel is None.
    print(f"wrote {profile_path}")
    if stats and stats["peak_db"] is None:
        print("no RX position received power")
    elif stats:
        envelope = stats["envelope_dynamic_range_db"]
        print(f"peak {stats['peak_db']:.2f} dB at {stats['peak_position_m']:.3f} m, "
              f"{stats['fringe_count']} fringes, envelope range "
              + ("n/a (some positions uncaptured)" if envelope is None else f"{envelope:.2f} dB"))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args)
    sim = run_sweep(config)
    measured = import_measured(args.measured, config.band)
    report = metrics.compare(sim, measured)
    _write_json(args.out, report.to_dict())
    return EXIT_OK


def _cmd_bands(_args: argparse.Namespace) -> int:
    print(f"{'band':>8} {'freq_ghz':>9} {'tx_dbm':>7} {'gain_dbi':>9} "
          f"{'hpbw_az':>8} {'hpbw_el':>8} {'lambda_m':>10} {'facets':>7}")
    for band in Band:
        d = band_defaults(band)
        p = d.tx_pattern
        n_facets = ScenarioConfig(band=band).to_scenario().reflector.facet_count
        print(f"{band.value:>8} {band.frequency_hz / 1e9:>9.0f} {d.tx_power_dbm:>7.0f} "
              f"{p.boresight_gain_dbi:>9.0f} {p.hpbw_az_deg:>8.0f} {p.hpbw_el_deg:>8.0f} "
              f"{d.wavelength_m:>10.6f} {n_facets:>7d}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION

    handlers = {
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "bands": _cmd_bands,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError, ProfileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
