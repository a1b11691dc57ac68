"""Command-line surface: simulate sweeps, compare to measurements, inspect defaults."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import engine, metrics, scene
from .antenna import Band, band_defaults
from .config import ConfigError, ScenarioConfig, dump_config, parse_config
from .engine import SumMode
from .profile_io import ProfileFormatError, export_profile, import_measured
from .runner import run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectsim",
        description="Ray-based received-power simulator for flat and convex passive reflectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="scenario config file")
        p.add_argument("--band", choices=["28", "39", "120"], help="band in GHz")
        p.add_argument("--reflector", choices=["flat", "convex"], help="reflector kind")
        p.add_argument("--mode", choices=["literal", "physical"], help="summation mode")

    sim = sub.add_parser("simulate", help="run one sweep and export profile + stats")
    add_scenario_flags(sim)
    sim.add_argument("--out", type=Path, help="output directory (default from config)")
    sim.add_argument("--format", choices=["csv", "json"], help="profile file format")
    sim.add_argument("--dump-config", action="store_true",
                     help="print the resolved config and exit")

    cmp_p = sub.add_parser("compare", help="compare a simulated sweep against a measured CSV")
    add_scenario_flags(cmp_p)
    cmp_p.add_argument("measured", type=Path, help="measured profile CSV")
    cmp_p.add_argument("--out", type=Path, help="write the JSON report here (default stdout)")

    sub.add_parser("bands", help="print per-band link defaults")

    sub.add_parser("oracle", help="run independent brute-force cross-checks")

    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    text = ""
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
    band = Band.parse(args.band) if args.band else None
    config = parse_config(text, default_band=band, default_reflector=args.reflector)
    if args.mode:
        config = replace(config, mode=SumMode.parse(args.mode))
    return config


def _write_json(path: Optional[Path], payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.out is not None:
        config = replace(config, output_dir=str(args.out))
    if args.format is not None:
        config = replace(config, output_format=args.format)
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


def _oracle_checks() -> list[tuple[str, bool, str]]:
    """Independent closed-form cross-checks of the core geometry and link math."""
    checks: list[tuple[str, bool, str]] = []

    # Uniform 6x6 facet grid offsets across a 16-inch plate.
    scn = ScenarioConfig(band=Band.GHZ28).to_scenario()
    facets = scene.facetize_flat(scn.reflector, scn.geometry)
    got = sorted({round(float(y), 12) for y in facets[:, 1]})
    side = scene.REFLECTOR_SIDE_16IN_M
    want = sorted(round(k * side / 12.0, 12) for k in (-5, -3, -1, 1, 3, 5))
    checks.append(("facet_grid_offsets", got == want, f"{got} vs {want}"))

    # Capture length from the HPBW cone at the nominal range.
    l_ant = scene.capture_length_m(scn.rx_pattern, 2.5)
    want_l = 2.0 * 2.5 * math.tan(math.radians(24.0) / 2.0)
    checks.append(("capture_length_28ghz", abs(l_ant - want_l) < 1e-12,
                   f"{l_ant:.6f} vs {want_l:.6f}"))

    # Footprint attenuation from the closed-form ellipse.
    a = scn.alpha
    semi_az = 2.5 * math.tan(math.radians(12.0))
    semi_el = 2.5 * math.tan(math.radians(13.0)) / math.cos(math.radians(30.0))
    want_a = side * side * math.cos(math.radians(30.0)) / (math.pi * semi_az * semi_el)
    checks.append(("alpha_flat_28ghz", abs(a - want_a) < 1e-12, f"{a:.6f} vs {want_a:.6f}"))

    # Wavelengths straight from c/f.
    for band, f_hz in ((Band.GHZ28, 28e9), (Band.GHZ39, 39e9), (Band.GHZ120, 120e9)):
        lam = band_defaults(band).wavelength_m
        want_lam = 299792458.0 / f_hz
        checks.append((f"wavelength_{band.value}", abs(lam - want_lam) < 1e-15,
                       f"{lam:.9f} vs {want_lam:.9f}"))

    # Single-facet boresight link equals the analytic free-space budget.
    single = ScenarioConfig(band=Band.GHZ28, facets_per_side=1, alpha_flat=1.0).to_scenario()
    rx = scene.specular_point(single.geometry)
    got_db = float(engine.flat_sweep_power(single, rx[None, :], SumMode.PHYSICAL)[0])
    lam = single.wavelength_m
    want_db = (single.tx_power_dbm + 2 * 17.0
               + 20.0 * math.log10(lam / (4.0 * math.pi * 5.0)))
    checks.append(("friis_single_facet", abs(got_db - want_db) < 1e-9,
                   f"{got_db:.9f} vs {want_db:.9f} dBm"))

    # Image-source path length through the reflector center.
    d_spec = float(np.linalg.norm(single.geometry.tx_position)
                   + np.linalg.norm(rx))
    checks.append(("specular_path_length", abs(d_spec - 5.0) < 1e-9, f"{d_spec:.9f} vs 5.0"))

    # Half-power definition of the pattern model.
    p = band_defaults(Band.GHZ39).tx_pattern
    drop = p.boresight_gain_dbi - float(p.gain_db(p.hpbw_az_deg / 2.0, 0.0))
    checks.append(("hpbw_half_power", abs(drop - 3.0) < 1e-12, f"{drop:.6f} vs 3.0 dB"))

    return checks


def _cmd_oracle(_args: argparse.Namespace) -> int:
    checks = _oracle_checks()
    failed = 0
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} oracle checks passed")
    return EXIT_OK if failed == 0 else EXIT_RUNTIME


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
        "oracle": _cmd_oracle,
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
