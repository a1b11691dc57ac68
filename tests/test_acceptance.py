"""Acceptance gate: one test per release criterion, each at its pinned
tolerance, printing a [PASS]/[FAIL] line with the measured numbers.

Physical-mode powers are absolute (dBm); cross-shape comparisons use
within-band differences only, since measured reference levels sit on an
uncalibrated scale.
"""

import dataclasses
import math
import time

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import conftest

from reflectsim.antenna import AntennaPattern, Band
from reflectsim.config import ConfigError, ScenarioConfig, dump_config, parse_config
from reflectsim.engine import SumMode, sweep_power
from reflectsim.metrics import analyze, smoothed_envelope_db
from reflectsim.profile_io import export_profile, import_measured
from reflectsim.runner import run_sweep, sweep_profile
from reflectsim.scene import GeometryError, ScenarioGeometry, facetize_flat

BANDS = (Band.GHZ28, Band.GHZ39, Band.GHZ120)

# Facet grid on which the 28 GHz facet sum resolves the plate over the whole
# sweep, and the adjacent-facet path step above which the sum aliases: the
# facet centres sample the aperture phase exp(-j2*pi*d/lambda), so a path
# step over half a wavelength is below the Nyquist rate of that phase.
RESOLVED_FACETS_PER_SIDE = 64
NYQUIST_STEP_WAVELENGTHS = 0.5
# RX positions per block in max_facet_step_wavelengths, to bound peak memory.
RX_CHUNK = 200


def report(cid: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}"
    print(line)
    conftest.criterion_lines.append(line)
    assert ok, line


def friis_dbm(tx_power_dbm, gain_dbi, wavelength_m, distance_m):
    return tx_power_dbm + 2 * gain_dbi + 20.0 * math.log10(
        wavelength_m / (4.0 * math.pi * distance_m)
    )


def sweep_coordinate(geom: ScenarioGeometry, point: np.ndarray) -> float:
    return float(np.dot(point - geom.sweep_start, geom.sweep_axis))


def max_facet_step_wavelengths(scn) -> float:
    """Largest TX->facet->RX path difference between adjacent facet centres
    of a flat scenario over its whole sweep, in wavelengths."""
    n = scn.reflector.facets_per_side
    launch = facetize_flat(scn.reflector).reshape(n, n, 3)
    d_tx = np.linalg.norm(launch - scn.geometry.tx_position, axis=-1)
    rx = scn.geometry.rx_positions()
    worst = 0.0
    for i in range(0, len(rx), RX_CHUNK):
        d = d_tx + np.linalg.norm(launch - rx[i:i + RX_CHUNK, None, None], axis=-1)
        worst = max(worst, float(np.max(np.abs(np.diff(d, axis=1)))),
                    float(np.max(np.abs(np.diff(d, axis=2)))))
    return worst / scn.wavelength_m


def lobe_centre_m(positions_m: np.ndarray, power_db: np.ndarray) -> float:
    """Midpoint of the span where the smoothed envelope lies within 3 dB of
    its maximum."""
    envelope = smoothed_envelope_db(power_db)
    within = np.flatnonzero(envelope >= np.max(envelope) - 3.0)
    return 0.5 * float(positions_m[within[0]] + positions_m[within[-1]])


def test_c1_friis_identity_all_bands():
    t0 = time.perf_counter()
    worst = 0.0
    for band in BANDS:
        scn = dataclasses.replace(ScenarioConfig(band=band, reflector_kind="flat",
                                                 facets_per_side=1).to_scenario(), alpha=1.0)
        rx = scn.geometry.sweep_midpoint[None, :]
        (got,) = sweep_power(scn, rx, SumMode.PHYSICAL)
        want = friis_dbm(scn.tx_power_dbm, scn.tx_pattern.boresight_gain_dbi,
                         scn.wavelength_m, 5.0)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    report("C1 friis-identity", worst < 1e-9 and elapsed < 1.0,
           f"max |sim - analytic| = {worst:.3e} dB (limit 1e-9), {elapsed:.2f} s (limit 1 s)")


def test_c2_specular_peak_location():
    # The model ties the main lobe, not the argmax, to specular: the resolved
    # 28 GHz profile peaks on a flanking Fresnel maximum ~15 cm off specular,
    # and the default 6-facet grid aliases. So the lobe centre is checked on
    # a grid that resolves the plate, for the centred sweep (symmetric by
    # construction) and a displaced one (where the lobe could drift).
    coarse = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    coarse_step = max_facet_step_wavelengths(coarse)
    scenarios = {
        offset: ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", sweep_offset_m=offset,
                               facets_per_side=RESOLVED_FACETS_PER_SIDE).to_scenario()
        for offset in (0.0, -0.30)
    }
    resolved_step = max(max_facet_step_wavelengths(scn) for scn in scenarios.values())
    t0 = time.perf_counter()
    errors = {}
    for offset, scn in scenarios.items():
        power = sweep_power(scn, scn.geometry.rx_positions(), SumMode.PHYSICAL)
        centre = lobe_centre_m(scn.geometry.rx_offsets_m(), power)
        oracle = sweep_coordinate(scn.geometry, conftest.image_source_specular_oracle(scn.geometry))
        errors[offset] = centre - oracle
    elapsed = time.perf_counter() - t0
    ok = (all(abs(e) <= 0.05 for e in errors.values()) and elapsed < 10.0
          and resolved_step < NYQUIST_STEP_WAVELENGTHS < coarse_step)
    detail = ", ".join(f"offset {offset:+.2f} m {err * 100:+.1f} cm"
                       for offset, err in errors.items())
    report("C2 specular-peak-location", ok,
           f"3 dB lobe centre - specular at {RESOLVED_FACETS_PER_SIDE} facets/side: "
           f"{detail} (limit 5 cm), {elapsed:.2f} s (limit 10 s); facet step "
           f"{resolved_step:.2f} wavelengths (limit {NYQUIST_STEP_WAVELENGTHS}), "
           f"default grid {coarse_step:.2f} (must exceed it)")


def test_c3_fringe_narrowing_ratio():
    t0 = time.perf_counter()
    counts = {}
    for band in (Band.GHZ28, Band.GHZ120):
        scn = ScenarioConfig(band=band, reflector_kind="flat").to_scenario()
        profile = sweep_profile(scn, SumMode.PHYSICAL)
        counts[band] = analyze(profile).fringe_count
    ratio = counts[Band.GHZ120] / counts[Band.GHZ28]
    elapsed = time.perf_counter() - t0
    report("C3 fringe-narrowing", 3.0 <= ratio <= 6.0 and elapsed < 30.0,
           f"fringes 120ghz/28ghz = {counts[Band.GHZ120]}/{counts[Band.GHZ28]} "
           f"= {ratio:.2f} (limit [3, 6]), {elapsed:.2f} s (limit 30 s)")


def test_c4_flat_vs_convex_gap_per_band():
    t0 = time.perf_counter()
    gaps = {}
    for band in BANDS:
        flat = sweep_profile(ScenarioConfig(band=band, reflector_kind="flat").to_scenario(),
                             SumMode.PHYSICAL)
        convex = sweep_profile(ScenarioConfig(band=band, reflector_kind="convex").to_scenario(),
                               SumMode.PHYSICAL)
        gaps[band] = float(np.max(flat.power_db) - np.max(convex.power_db))
    elapsed = time.perf_counter() - t0
    ok = all(14.0 <= g <= 27.0 for g in gaps.values()) and elapsed < 60.0
    detail = ", ".join(f"{band.value} {gap:.2f} dB" for band, gap in gaps.items())
    report("C4 flat-vs-convex-gap", ok,
           f"{detail} (limit [14, 27] dB each), {elapsed:.1f} s (limit 60 s)")


def test_c5_convex_envelope_flatness():
    flat = sweep_profile(ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario(),
                         SumMode.PHYSICAL)
    convex = sweep_profile(ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario(),
                           SumMode.PHYSICAL)
    flat_range = analyze(flat).envelope_dynamic_range_db
    convex_range = analyze(convex).envelope_dynamic_range_db
    report("C5 convex-flatness", convex_range < flat_range,
           f"envelope dynamic range convex {convex_range:.2f} dB < flat "
           f"{flat_range:.2f} dB at 28ghz")


def test_c6_envelope_decay_from_peak():
    scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    profile = sweep_profile(scn, SumMode.PHYSICAL)
    envelope = smoothed_envelope_db(profile.power_db)
    peak_idx = int(np.argmax(profile.power_db))
    # walk from the peak toward the sweep end farther away from it
    tail = envelope[peak_idx:] if peak_idx < len(envelope) // 2 else envelope[: peak_idx + 1][::-1]
    rise = float(np.max(tail - np.minimum.accumulate(tail)))
    report("C6 envelope-decay", rise <= 0.5,
           f"max smoothed-envelope rise beyond the peak = {rise:.2f} dB (limit 0.5 dB)")


def _swapped_link(scn, rx_point):
    g = scn.geometry
    swapped_geom = ScenarioGeometry(
        tx_position=rx_point,
        sweep_start=g.tx_position - 0.9 * g.sweep_axis,
        sweep_end=g.tx_position + 0.9 * g.sweep_axis,
        n_rx_positions=g.n_rx_positions,
    )
    return dataclasses.replace(scn, geometry=swapped_geom,
                               tx_pattern=scn.rx_pattern, rx_pattern=scn.tx_pattern)


def test_c7a_reciprocity():
    flat = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat",
                          sweep_offset_m=0.25).to_scenario()
    flat = dataclasses.replace(flat, alpha=0.3, tx_pattern=AntennaPattern(17.0, 24.0, 26.0),
                               rx_pattern=AntennaPattern(20.0, 16.0, 15.0))
    rx = flat.geometry.sweep_midpoint
    (d_flat,) = np.abs(
        sweep_power(flat, rx[None, :], SumMode.PHYSICAL)
        - sweep_power(_swapped_link(flat, rx), flat.geometry.tx_position[None, :],
                      SumMode.PHYSICAL))

    convex = dataclasses.replace(
        ScenarioConfig(band=Band.GHZ28, reflector_kind="convex").to_scenario(), alpha=0.05)
    rx_c = convex.geometry.sweep_midpoint
    (d_convex,) = np.abs(
        sweep_power(convex, rx_c[None, :], SumMode.PHYSICAL)
        - sweep_power(_swapped_link(convex, rx_c),
                      convex.geometry.tx_position[None, :], SumMode.PHYSICAL))
    report("C7a reciprocity", d_flat < 1e-9 and d_convex < 1e-9,
           f"TX/RX swap deltas: flat {d_flat:.2e} dB, convex {d_convex:.2e} dB (limit 1e-9)")


def test_c7b_reference_path_invariance():
    base = ScenarioConfig(band=Band.GHZ39, reflector_kind="flat").to_scenario()
    shifted = dataclasses.replace(base, d_ref_m=base.d_ref_m + 7.3)
    rx = base.geometry.sweep_start + 0.62 * (base.geometry.sweep_end - base.geometry.sweep_start)
    (delta,) = np.abs(sweep_power(base, rx[None, :], SumMode.PHYSICAL)
                      - sweep_power(shifted, rx[None, :], SumMode.PHYSICAL))
    report("C7b d-ref-invariance", delta < 1e-9,
           f"power shift under +7.3 m reference change = {delta:.2e} dB (limit 1e-9)")


def test_c7c_efficiency_scaling():
    k = 0.37
    full = ScenarioConfig(band=Band.GHZ39, reflector_kind="flat",
                          reflection_efficiency=1.0).to_scenario()
    part = ScenarioConfig(band=Band.GHZ39, reflector_kind="flat",
                          reflection_efficiency=k).to_scenario()
    rx = full.geometry.sweep_start + 0.62 * (full.geometry.sweep_end - full.geometry.sweep_start)
    (diff,) = sweep_power(full, rx[None, :], SumMode.PHYSICAL) - sweep_power(
        part, rx[None, :], SumMode.PHYSICAL)
    err = abs(diff + 10.0 * math.log10(k))
    report("C7c efficiency-scaling", err < 1e-9,
           f"|delta - 10*log10(eta)| = {err:.2e} dB (limit 1e-9)")


@st.composite
def _flat_links(draw):
    """A PHYSICAL flat link with distinct TX and RX horns from the band table,
    and the same link with its TX and RX swapped."""
    tx_horn, rx_horn = draw(st.permutations([band.horn for band in BANDS]))[:2]
    try:
        config = ScenarioConfig(
            band=draw(st.sampled_from(BANDS)), reflector_kind="flat", mode=SumMode.PHYSICAL,
            tx_range_m=draw(st.floats(0.5, 5.0)), rx_range_m=draw(st.floats(0.5, 5.0)),
            incidence_deg=draw(st.floats(0.0, 60.0)), sweep_offset_m=draw(st.floats(-1.0, 1.0)),
            facets_per_side=draw(st.integers(1, 8)))
    except ConfigError:  # a sweep that reaches behind the plate
        assume(False)
    scn = dataclasses.replace(config.to_scenario(), tx_pattern=tx_horn, rx_pattern=rx_horn)
    try:
        swapped = _swapped_link(scn, scn.geometry.sweep_midpoint)
    except GeometryError:  # a swapped sweep that reaches behind the plate
        assume(False)
    return scn, swapped


@given(link=_flat_links(), d_ref_shift=st.floats(1.0, 5.0), eta=st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_c7abc_hold_on_random_flat_links(link, d_ref_shift, eta):
    # C7a-C7c on random asymmetric flat links, at the sweep midpoint, where
    # the swapped horns aim as the originals do. A RuntimeWarning is an error.
    scn, swapped = link
    rx = scn.geometry.sweep_midpoint[None, :]

    def power(s, point=rx):
        (p,) = sweep_power(s, point, SumMode.PHYSICAL)
        assert np.isfinite(p)
        return p

    base = power(scn)
    assert abs(base - power(swapped, scn.geometry.tx_position[None, :])) < 1e-9
    assert abs(base - power(dataclasses.replace(scn, d_ref_m=scn.d_ref_m + d_ref_shift))) < 1e-9
    part = dataclasses.replace(scn.reflector, reflection_efficiency=eta)
    scaled = power(dataclasses.replace(scn, reflector=part))
    assert abs(base + 10.0 * math.log10(eta) - scaled) < 1e-9


@st.composite
def _convex_links(draw):
    """A PHYSICAL convex link of 51 positions with distinct TX and RX horns
    from the band table."""
    tx_horn, rx_horn = draw(st.permutations([band.horn for band in BANDS]))[:2]
    try:
        config = ScenarioConfig(
            band=draw(st.sampled_from(BANDS)), reflector_kind="convex", mode=SumMode.PHYSICAL,
            tx_range_m=draw(st.floats(0.5, 5.0)), rx_range_m=draw(st.floats(0.5, 5.0)),
            incidence_deg=draw(st.floats(0.0, 60.0)), sweep_offset_m=draw(st.floats(-1.0, 1.0)),
            radius_of_curvature_m=draw(st.floats(0.25, 20.0)), n_positions=51)
    except ConfigError:  # a sweep that reaches behind the plate
        assume(False)
    return dataclasses.replace(config.to_scenario(), tx_pattern=tx_horn, rx_pattern=rx_horn)


@given(scn=_convex_links(), d_ref_shift=st.floats(1.0, 5.0), eta=st.floats(0.05, 1.0))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_mirror_and_c7bc_hold_on_random_convex_links(scn, d_ref_shift, eta):
    # At every position: mirroring the link through y = 0, a phase-reference
    # shift and an efficiency step. A RuntimeWarning is an error.
    g = scn.geometry
    flip = np.array([1.0, -1.0, 1.0])
    mirrored = dataclasses.replace(scn, geometry=ScenarioGeometry(
        flip * g.tx_position, flip * g.sweep_start, flip * g.sweep_end, g.n_rx_positions))
    assert np.array_equal(mirrored.geometry.rx_positions(), flip * g.rx_positions())

    def power(s):
        return sweep_power(s, s.geometry.rx_positions(), SumMode.PHYSICAL)

    try:
        base = power(scn)
    except GeometryError as exc:  # a plate too wide for this link
        assume("not monotone" not in str(exc))
        raise
    uncaptured = np.isneginf(base)
    assert np.all(np.isfinite(base[~uncaptured]))
    for other, shift in ((mirrored, 0.0),
                         (dataclasses.replace(scn, d_ref_m=scn.d_ref_m + d_ref_shift), 0.0),
                         (dataclasses.replace(scn, reflector=dataclasses.replace(
                             scn.reflector, reflection_efficiency=eta)), 10.0 * math.log10(eta))):
        got = power(other)
        assert np.array_equal(np.isneginf(got), uncaptured)
        assert np.max(np.abs(got[~uncaptured] - base[~uncaptured] - shift), initial=0.0) < 1e-9


def test_c7d_attenuation_ordering():
    radii = (0.25, 0.5, 1.0, 10.0, 1e5)
    flat = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat").to_scenario()
    ok = True
    for r in radii:
        scn = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                             radius_of_curvature_m=r).to_scenario()
        ok &= scn.alpha < flat.alpha
    report("C7d attenuation-ordering", ok,
           f"curved < flat attenuation for all finite radii {radii}")


def test_c7e_planar_limit_matches_flat():
    flat = ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", facets_per_side=16).to_scenario()
    convex = ScenarioConfig(band=Band.GHZ28, reflector_kind="convex",
                            radius_of_curvature_m=1e6).to_scenario()
    p_flat = sweep_profile(flat, SumMode.PHYSICAL)
    p_convex = sweep_profile(convex, SumMode.PHYSICAL)
    worst = float(np.max(np.abs(p_flat.power_db - p_convex.power_db)))
    report("C7e planar-limit", worst <= 0.5,
           f"max |convex(R=1e6) - flat| = {worst:.2e} dB per point (limit 0.5 dB)")


def test_c7f_facet_refinement_convergence():
    # Refinement only converges once adjacent facets differ in path by less
    # than half a wavelength. At 28 GHz that step reaches 1.04 wavelengths at
    # 16 facets/side and 0.53 at 32 at the sweep ends, so both sums alias
    # there; at 64 it is at most 0.27, so 64 -> 128 is the first resolved pair.
    coarse_step = max_facet_step_wavelengths(
        ScenarioConfig(band=Band.GHZ28, reflector_kind="flat", facets_per_side=16).to_scenario())
    resolved_step = max_facet_step_wavelengths(
        ScenarioConfig(band=Band.GHZ28, reflector_kind="flat",
                       facets_per_side=RESOLVED_FACETS_PER_SIDE).to_scenario())
    scenarios = (ScenarioConfig(band=Band.GHZ28, reflector_kind="flat",
                                facets_per_side=n).to_scenario()
                 for n in (32, RESOLVED_FACETS_PER_SIDE, 2 * RESOLVED_FACETS_PER_SIDE))
    p32, p64, p128 = (sweep_power(scn, scn.geometry.rx_positions(), SumMode.PHYSICAL)
                      for scn in scenarios)
    change_32_64 = float(np.max(np.abs(p32 - p64)))
    change_64_128 = float(np.max(np.abs(p64 - p128)))
    ok = (change_64_128 <= 0.5 and change_64_128 < change_32_64
          and resolved_step < NYQUIST_STEP_WAVELENGTHS < coarse_step)
    report("C7f facet-refinement", ok,
           f"max per-point change 64 -> 128 facets/side = {change_64_128:.2f} dB "
           f"(limit 0.5 dB), 32 -> 64 = {change_32_64:.2f} dB (must exceed it); "
           f"facet step at 64 = {resolved_step:.2f} wavelengths "
           f"(limit {NYQUIST_STEP_WAVELENGTHS}), at 16 = {coarse_step:.2f} (must exceed it)")


def test_c8_io_round_trips(tmp_path):
    cfg = parse_config("band = 28\ngeometry.n_positions = 300\n")
    ok = parse_config(dump_config(cfg)) == cfg

    profile = run_sweep(cfg)
    csv_path = tmp_path / "p.csv"
    export_profile(profile, csv_path)
    back_csv = import_measured(csv_path)
    ok &= bool(np.array_equal(back_csv.positions_m, profile.positions_m))
    ok &= bool(np.array_equal(back_csv.power_db, profile.power_db))

    rerun = run_sweep(cfg)
    ok &= bool(np.array_equal(rerun.power_db, profile.power_db))
    csv2 = tmp_path / "p2.csv"
    export_profile(rerun, csv2)
    ok &= csv_path.read_bytes() == csv2.read_bytes()
    report("C8 io-round-trips", ok,
           "config dump/parse equal, profile export/import lossless, reruns byte-identical")
