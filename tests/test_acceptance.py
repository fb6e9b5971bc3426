"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success). The Monte Carlo criteria use the desk-scale numerology;
analytical criteria also check the full-scale (802.11ay-style) values.
"""
import time
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from chirpim.channel import RadarScene
from chirpim.chirps import (ChirpFamily, ChirpSpec, fourier_coeffs,
                            gcp_from_chirps, is_gcp, sinusoidal_chirp_coeffs)
from chirpim.config import desk_preset, paper_preset
from chirpim.indexing import (delta_no_loss, index_count, indices_to_rank,
                              rank_to_indices)
from chirpim.modem import (ModemConfig, Scheme, detect_words_batch,
                           extract_bins, frame_from_symbols,
                           post_equalization_snr, union_bound_bler, word_symbols)
from chirpim.radar import (RadarObservation, crlb_coeff, crlb_range,
                           crlb_range_no_phase, estimate_lmmse, estimate_multi_mf,
                           min_resolution)
from chirpim.runners import (radar_trials, random_words, run_bler, run_pmepr_ccdf,
                             run_radar_rmse, run_resolution)
from chirpim.util import default_band

from oracles import (enumerate_index_sequences, fourier_coeffs_quadrature,
                     linear_chirp_phase, quadrature_panels,
                     sinusoidal_chirp_phase)
from test_indexing import TABLE_M10_L3


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE[{name}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def test_combinatorics_exactness():
    t0 = time.time()
    ok = (index_count(3, 0, 10), index_count(3, 1, 10), index_count(3, 2, 10)) \
        == (120, 50, 10)
    checked = 0
    for m in range(2, 21):
        for length in range(1, min(5, m) + 1):
            for delta in range(0, 5):
                expect = len(enumerate_index_sequences(m, length, delta))
                ok = ok and index_count(length, delta, m) == expect
                checked += 1
    report("combinatorics-exactness", ok and time.time() - t0 < 60,
           f"reference cardinalities 120/50/10 + {checked} brute-force cases, "
           f"{time.time() - t0:.1f}s")


def test_bijection_fidelity():
    ok = True
    for delta, rows in TABLE_M10_L3.items():
        for rank, indices in rows.items():
            ok = ok and rank_to_indices(rank, 10, 3, delta) == indices
    for delta in (0, 1, 2):
        count = index_count(3, delta, 10)
        images = set()
        for rank in range(1, count + 1):
            idx = rank_to_indices(rank, 10, 3, delta)
            ok = ok and indices_to_rank(idx, 10, 3, delta) == rank
            images.add(idx)
        ok = ok and len(images) == count
    report("bijection-fidelity", ok,
           "all reference rows reproduced; full round-trip at M=10, L=3, "
           "delta in {0,1,2}")


def test_delta_no_loss_values():
    t0 = time.time()
    ok = all(delta_no_loss(m, 2) == m // 4 - 1 for m in (16, 32, 64, 128, 256))
    ok = ok and delta_no_loss(931, 3) == 90
    ok = ok and delta_no_loss(954, 4) == 48
    ok = ok and delta_no_loss(1012, 5) == 31
    report("delta-no-loss", ok and time.time() - t0 < 60,
           f"M/4-1 at powers of two; 931->90, 954->48, 1012->31 "
           f"({time.time() - t0:.1f}s)")


def test_chirp_coefficients_match_quadrature():
    t0 = time.time()
    worst = 0.0
    for d, m in ((12.0, 24), (56.0, 64), (1382.0, 1448)):
        for family, phase in ((ChirpFamily.LINEAR, linear_chirp_phase(d)),
                              (ChirpFamily.SINUSOIDAL, sinusoidal_chirp_phase(d))):
            closed = fourier_coeffs(ChirpSpec(family, d), m)
            l_d, l_u = default_band(m)
            k = np.arange(l_d, l_u + 1)
            panels = quadrature_panels(d, max(abs(l_d), l_u))
            ref = fourier_coeffs_quadrature(phase, k, panels)
            probe = k[:: max(m // 8, 1)]
            drift = np.max(np.abs(
                fourier_coeffs_quadrature(phase, probe, 2 * panels)
                - ref[:: max(m // 8, 1)]))
            assert drift < 1e-10, "quadrature oracle has not converged"
            mask = np.abs(ref) > 1e-4
            worst = max(worst, float(np.max(
                np.abs(closed[mask] - ref[mask]) / np.abs(ref[mask]))))
    elapsed = time.time() - t0
    report("chirp-coefficients", worst < 1e-6 and elapsed < 120,
           f"worst relative error {worst:.2e} over (D,M) in "
           f"{{(12,24),(56,64),(1382,1448)}} x {{linear,sinusoidal}}, {elapsed:.1f}s")


def test_gcp_construction():
    k = np.arange(-11, 13)
    good = is_gcp(*gcp_from_chirps(sinusoidal_chirp_coeffs(12.0, k), 0, 1,
                                   1.0, 1.0), 1e-2)
    bad = is_gcp(*gcp_from_chirps(sinusoidal_chirp_coeffs(24.0, k), 0, 1,
                                  1.0, 1.0), 1e-2)
    report("gcp-construction", good.is_pair and not bad.is_pair,
           f"D=12 passes (violation {good.max_violation:.1e}); "
           f"D=24 fails (violation {bad.max_violation:.1e}) at tol 1e-2")


def test_pmepr_bounds():
    t0 = time.time()
    ok = True
    details = []
    for family, length, limit in ((ChirpFamily.SINUSOIDAL, 1, 0.1),
                                  (ChirpFamily.SINUSOIDAL, 2, 10 * np.log10(2) + 0.1),
                                  (ChirpFamily.SINUSOIDAL, 5, 10 * np.log10(5) + 0.1),
                                  (ChirpFamily.LINEAR, 5, 7.7)):
        cfg = desk_preset(length=length, family=family, trials=100_000, batch=8192)
        peak = run_pmepr_ccdf(cfg)[0]["max_pmepr_db"]
        ok = ok and peak <= limit
        details.append(f"{family.value[:3]} L={length}: {peak:.3f}<={limit:.2f}")
    elapsed = time.time() - t0
    report("pmepr-bounds", ok and elapsed < 600,
           "; ".join(details) + f" dB over 1e5 frames each, {elapsed:.0f}s")


def test_bler_tracks_union_bound():
    t0 = time.time()
    cfg = desk_preset(scheme=Scheme.DFT_S_OFDM_IM, length=2)
    mcfg = cfg.modem_config()

    def bound_at(snr_db):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        return union_bound_bler(mcfg, 1.0 / post_equalization_snr(mcfg.fdss, sigma2))

    crossing = brentq(lambda s: np.log(bound_at(s) + 1e-300) - np.log(1e-3), -10, 5)
    cfg = replace(cfg, snr_db=(crossing - 2.0, crossing - 1.0, crossing),
                  target_errors=150, max_trials=400_000, batch=4096)
    rows = run_bler(cfg)
    below = all(r["bler"] <= r["union_bound"] for r in rows)
    at_crossing = rows[-1]
    factor = at_crossing["union_bound"] / at_crossing["bler"]
    elapsed = time.time() - t0
    report("bler-union-bound", below and factor <= 2.0 and elapsed < 600,
           f"simulated<=bound at all {len(rows)} points; bound/sim={factor:.2f} "
           f"at the 1e-3 crossing ({crossing:.2f} dB SNR), {elapsed:.0f}s")


def test_crlb_attainment():
    t0 = time.time()
    cfg = desk_preset(length=1, trials=2000, snr_db=(30.0, 35.0, 40.0))
    rows = run_radar_rmse(cfg, "single")
    gaps = [20 * np.log10(r["rmse_mf_m"] / r["crlb_m"]) for r in rows]
    ok = all(abs(g) <= 1.0 for g in gaps)
    # the range-dependent carrier phase must tighten the bound at full scale
    paper = paper_preset()
    scene = RadarScene(targets=((2.5, -1.0),), f_c=paper.f_c, t_s=paper.t_s,
                       t_cp=paper.t_cp)
    fdss = paper.modem_config().fdss
    aware = crlb_range(scene, fdss.g, 1e-3)
    unaware = crlb_range_no_phase(scene, paper.m, 1e-3)
    ok = ok and aware < unaware
    elapsed = time.time() - t0
    report("crlb-attainment", ok and elapsed < 600,
           f"MF gaps {[f'{g:+.2f}' for g in gaps]} dB at 30/35/40 dB SNR "
           f"(2000 trials each); phase-aware bound {np.sqrt(aware):.2e} m < "
           f"phase-unaware {np.sqrt(unaware):.2e} m, {elapsed:.0f}s")


def test_coefficient_crlb_attainment():
    # alpha = 0.5: a bound scaled by 1/alpha^2 would sit 4x too low here
    t0 = time.time()
    alpha, trials = 0.5, 1000
    cfg = desk_preset(length=1, single_coeff=alpha)
    rng = np.random.default_rng(305)
    gaps = []
    for snr_db in (30.0, 35.0, 40.0):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        b, w, scene = radar_trials(cfg, "single", trials, sigma2, rng)
        bound = crlb_coeff(scene, w, sigma2)
        obs = RadarObservation(b=b, w=w, sigma2=sigma2, f_c=cfg.f_c, t_s=cfg.t_s, t_cp=cfg.t_cp)
        err2 = (estimate_multi_mf(obs, 1).coeffs[:, 0] - alpha) ** 2
        gaps.append(10 * np.log10(err2.mean() / bound.mean()))
    ok = all(abs(g) <= 1.0 for g in gaps)
    elapsed = time.time() - t0
    report("coefficient-crlb-attainment", ok and elapsed < 600,
           f"MF coefficient gaps {[f'{g:+.2f}' for g in gaps]} dB at 30/35/40 dB SNR "
           f"({trials} trials each, alpha = {alpha}), {elapsed:.0f}s")


def _two_target_rmse(cfg, snr_db, trials, seed, estimator):
    """The runners' trials (drawn one by one, then estimated as one stack)
    from their own seed: RMSE and root mean joint range bound."""
    sigma2 = 10.0 ** (-snr_db / 10.0)
    b, w, scene = radar_trials(cfg, "two", trials, sigma2, np.random.default_rng(seed))
    bound = crlb_range(scene, w, sigma2)
    obs = RadarObservation(b=b, w=w, sigma2=sigma2, f_c=cfg.f_c, t_s=cfg.t_s, t_cp=cfg.t_cp)
    est = estimate_multi_mf(obs, 2) if estimator == "mf" else estimate_lmmse(obs, 2)
    err2 = np.array([np.sum((row - truth) ** 2)
                     for row, truth in zip(est.distances, scene.distances)])
    return float(np.sqrt(err2.mean())), float(np.sqrt(bound.mean()))


def test_is_radar_benefit():
    t0 = time.time()
    snrs = (20.0, 25.0, 30.0, 35.0, 40.0)
    with_is = desk_preset(length=2, separated=True)
    without = desk_preset(length=2)
    comp = []
    ok = True
    for snr in snrs:
        r_is, _ = _two_target_rmse(with_is, snr, 400, 303, "mf")
        r_no, _ = _two_target_rmse(without, snr, 400, 303, "mf")
        ok = ok and r_is <= r_no
        comp.append(f"{snr:.0f}dB: {r_is * 1e3:.2f}<={r_no * 1e3:.2f}mm")
    # LMMSE: unimodular reference attains the bound; the shaped multi-chirp
    # waveform leaves a > 1 dB gap
    uni = desk_preset(scheme=Scheme.DFT_S_OFDM_IM, length=1)
    r_uni, b_uni = _two_target_rmse(uni, 40.0, 400, 304, "lmmse")
    r_csc, b_csc = _two_target_rmse(with_is, 40.0, 400, 304, "lmmse")
    gap_uni = 20 * np.log10(r_uni / b_uni)
    gap_csc = 20 * np.log10(r_csc / b_csc)
    ok = ok and gap_uni <= 1.0 and gap_csc > 1.0
    elapsed = time.time() - t0
    report("is-radar-benefit", ok and elapsed < 900,
           "MF with-IS <= without-IS at " + ", ".join(comp) +
           f"; LMMSE gaps: unimodular {gap_uni:+.2f} dB (attains), "
           f"shaped {gap_csc:+.2f} dB (>1), {elapsed:.0f}s")


def test_two_target_crlb_attainment():
    # the joint carrier-lobe check brings two-target MF with IS to the joint
    # bound: without it, targets settled one lobe off left +39 to +55 dB
    t0 = time.time()
    cases = [(desk_preset(length=2, separated=True), 30.0, 400),
             (desk_preset(length=2, separated=True), 40.0, 400),
             (paper_preset(length=2, separated=True), 30.0, 256)]
    gaps = []
    for cfg, snr, trials in cases:
        rmse, bound = _two_target_rmse(cfg, snr, trials, 303, "mf")
        gaps.append(20 * np.log10(rmse / bound))
    ok = all(abs(g) <= 1.0 for g in gaps)
    elapsed = time.time() - t0
    report("two-target-crlb-attainment", ok and elapsed < 600,
           f"MF with IS gaps {[f'{g:+.2f}' for g in gaps]} dB to the joint bound "
           f"(desk 30/40 dB, 400 trials; paper 30 dB, 256 trials), {elapsed:.0f}s")


def test_resolution():
    t0 = time.time()
    paper = paper_preset()
    r_min_paper = min_resolution(paper.bandwidth_hz)
    ok = abs(r_min_paper - 0.021) <= 0.0005
    cfg = desk_preset(length=2, separated=True, trials=160,
                      spacing_rmin=(0.5, 1.0, 1.5, 2.0, 3.0))
    rows = run_resolution(cfg)
    rmse = {r["spacing_rmin"]: r["rmse_mf_m"] for r in rows}
    drop = all(rmse[f] < rmse[0.5] / 5 for f in (1.5, 2.0, 3.0))
    elapsed = time.time() - t0
    report("resolution", ok and drop and elapsed < 600,
           f"r_min at full scale {r_min_paper * 100:.3f} cm (2.1 +- 0.05); "
           f"desk sweep RMSE {rmse[0.5] * 1e3:.1f} mm at 0.5 r_min vs "
           f"{rmse[2.0] * 1e3:.2f} mm at 2 r_min, {elapsed:.0f}s")


def test_end_to_end_loopback():
    t0 = time.time()
    lin = ChirpSpec(ChirpFamily.LINEAR, 48.0)
    sin = ChirpSpec(ChirpFamily.SINUSOIDAL, 48.0)
    configs = [
        ModemConfig(Scheme.CSC_IM, 64, 128, 32, 1, 4, chirp=lin),
        ModemConfig(Scheme.CSC_IM, 64, 128, 32, 2, 4, chirp=lin),
        ModemConfig(Scheme.CSC_IM, 64, 128, 32, 2, 4, delta=15, chirp=lin),
        ModemConfig(Scheme.CSC_IM, 64, 128, 32, 5, 4, delta=10, chirp=sin),
        ModemConfig(Scheme.DFT_S_OFDM_IM, 64, 128, 32, 2, 4),
        ModemConfig(Scheme.OFDM_IM, 64, 128, 32, 2, 4),
    ]
    frames_per_config = 10_000
    total_errors = 0
    for ci, cfg in enumerate(configs):
        rng = np.random.default_rng(500 + ci)
        for lo in range(0, frames_per_config, 2048):
            nb = min(2048, frames_per_config - lo)
            idx, psk = random_words(cfg, nb, rng)
            frame = frame_from_symbols(word_symbols(idx, psk, cfg), cfg)
            det_i, det_z = detect_words_batch(extract_bins(frame, cfg), 1.0, 0.0, cfg)
            total_errors += int(np.any((det_i != idx) | (det_z != psk), axis=1).sum())
    elapsed = time.time() - t0
    report("end-to-end-loopback", total_errors == 0 and elapsed < 600,
           f"{total_errors} word errors over {frames_per_config} noiseless frames "
           f"x {len(configs)} configs (all schemes, incl. separation), {elapsed:.0f}s")
