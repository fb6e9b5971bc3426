"""Monte Carlo experiment runners with deterministic, seed-keyed output.

Every runner runs a sweep point through one batch driver, :func:`_batches`:
batch i of a point reads its own stream, seeded by (master seed, experiment
id, sweep index, i), and results come back in batch order, so they are
byte-identical for a fixed config regardless of the worker count. With
``workers`` > 1 a runner opens one process pool (:func:`_pool`) for all
its sweep points. BLER and radar batches return named sums, which one
accumulator, :func:`_total`, adds by name in batch order: a BLER point
stops on its error count or at ``max_trials`` frames, a hard cap.
Each batch gets the config alone and reads the modem from it
(``cfg.modem_config()``), built with the config and complete with its FDSS
profile and bit capacity. Every batch draws its whole stream first: its
words in one :func:`random_words` call, which unranks them in one
:func:`~chirpim.indexing.ranks_to_indices` call, then its radar targets
or channels, then its noise. A PMEPR or BLER batch then runs its frames
:data:`~chirpim.chirps.FRAME_BLOCK` at a time, so its temporaries are one
block's, whatever ``cfg.batch``; a radar batch of :data:`RADAR_BATCH`
trials runs as one stack. A PMEPR batch builds no frame: a spread frame's
8N-point body is the sum of L shifted copies of the base chirp, which
:func:`~chirpim.modem.atom_peaks` adds up one body at a time from a
per-process table; only OFDM-IM, a bin count M with too many base
waveforms, or an L past its rule measures the bins through the IDFT of
:func:`measure_pmepr`.
Rows are returned as dicts and, when ``cfg.out`` is set, written there as
CSV with one comment line recording the preset, seed, and a config hash,
and a header of the row keys in order.
"""
from __future__ import annotations

import csv
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, nullcontext
from itertools import islice
from typing import Literal

import numpy as np

from .channel import CommChannel, RadarScene, complex_noise, radar_cfr, rician_realize
from .config import EXPERIMENT_IDS, RESOLUTION_SPACING_RMIN, ExperimentConfig
from .indexing import check_batch_index_bits, ranks_to_indices
from .modem import ModemConfig, atom_peaks, detect_words_batch, post_equalization_snr, \
    tx_bins, union_bound_bler, word_symbols
from .chirps import FRAME_BLOCK, measure_pmepr
from .radar import RadarObservation, crlb_range, crlb_range_no_phase, \
    estimate_mf_lmmse, min_resolution
from .util import noise_variance
# perfbench/spans.py wraps these names here; the runners call the batched
# estimate_mf_lmmse instead, and sum a PMEPR body from atoms (or measure
# it from the bins), never from a frame
from .modem import frame_from_symbols  # noqa: F401
from .radar import estimate_lmmse, estimate_multi_mf  # noqa: F401

PMEPR_THRESHOLDS = np.round(np.arange(0.0, 12.0 + 1e-9, 0.05), 2)
RADAR_BATCH = 64
WILSON_Z = 1.959963984540054  # two-sided 95%


def _pool(cfg: ExperimentConfig):
    """The process pool of one runner call, kept across its sweep points, or
    ``None`` (a null context) when ``cfg.workers`` <= 1."""
    return ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else nullcontext()


def _batches(cfg: ExperimentConfig, pool: ProcessPoolExecutor | None, experiment: str,
             sweep_idx: int, total: int, size: int, fn, *args):
    """Run ``total`` trials as batches of ``size``, the last one short, and
    yield ``fn(cfg, rng, batch, *args)`` for each in batch order.

    Batch i reads the stream seeded by (cfg.seed, experiment id, sweep
    index, i). With a ``pool`` (:func:`_pool`) the batches run there, one
    wave of ``cfg.workers`` at a time, so a consumer that stops early
    (error-count stopping) wastes at most one wave: closing the generator
    cancels the wave's batches that have not started.
    """
    tasks = ((np.random.default_rng([cfg.seed, EXPERIMENT_IDS[experiment], sweep_idx, i]),
              min(size, total - lo)) for i, lo in enumerate(range(0, total, size)))
    if pool is None:
        for rng, batch in tasks:
            yield fn(cfg, rng, batch, *args)
        return
    while wave := list(islice(tasks, cfg.workers)):
        futures = [pool.submit(fn, cfg, rng, batch, *args) for rng, batch in wave]
        try:
            for fut in futures:
                yield fut.result()
        finally:
            for fut in futures:
                fut.cancel()


def _total(batches, stop=lambda totals: False) -> Counter:
    """Add up the named sums that ``batches`` (:func:`_batches`) yields, key
    by key in batch order, and close ``batches`` as soon as
    ``stop(totals)`` holds, which cancels the batches not yet started."""
    totals = Counter()
    with closing(batches):
        for sums in batches:
            totals.update(sums)
            if stop(totals):
                break
    return totals


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(cfg: ExperimentConfig, experiment: str, rows: list[dict]) -> None:
    """Write ``rows`` to ``cfg.out`` when it is set; the header is the keys
    of the first row."""
    if not cfg.out:
        return
    fieldnames = list(rows[0])
    with open(cfg.out, "w", newline="") as fh:
        fh.write(f"# chirpim {experiment} preset={cfg.preset} seed={cfg.seed} "
                 f"config={cfg.sha()}\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def random_words(mcfg: ModemConfig, batch: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random index rows and PSK rows, shape (batch, L) each: all
    the ranks, then all the PSK integers, and the ranks unranked in one
    :func:`ranks_to_indices` call for the batch. Ranks are drawn from the
    2**index_bits codebook the bit mapper uses, which is equivalent to
    encoding uniform random bits; a codebook past
    :data:`~chirpim.indexing.BATCH_INDEX_BITS` is refused by name. The one
    word draw: every PMEPR, BLER and radar batch reads its words here, in
    one call."""
    check_batch_index_bits(mcfg.capacity.index_bits, mcfg.m, mcfg.length, mcfg.delta)
    ranks = rng.integers(1, (1 << mcfg.capacity.index_bits) + 1, size=batch)
    psk = rng.integers(0, mcfg.h, size=(batch, mcfg.length))
    return ranks_to_indices(ranks, mcfg.m, mcfg.length, mcfg.delta), psk


# ---------------------------------------------------------------------------
# PMEPR CCDF
# ---------------------------------------------------------------------------

def _pmepr_batch(cfg: ExperimentConfig, rng: np.random.Generator,
                 batch: int) -> np.ndarray:
    """PMEPR of a batch of random codewords, measured on the 8N-point grid
    against the nominal transmit power sum |g|^2 = M, with no time-domain
    frame built.

    The batch's ranks and PSK are drawn and unranked in one
    :func:`random_words` call. A spread frame is then the sum of L shifted
    copies of the base chirp, and :func:`atom_peaks` takes its peak from
    those copies one body at a time: memory is one body, one term and one
    |x| row plus the waveform's atom table. Where ``atom_peaks`` declines
    (OFDM-IM, M with u > FRAME_BLOCK, or L past its rule) the bins are
    built FRAME_BLOCK codewords at a time into one (B, M) array, which one
    :func:`measure_pmepr` call measures through its IDFT. The two paths
    agree to rounding, a few 1e-15 dB."""
    mcfg = cfg.modem_config()
    idx, psk = random_words(mcfg, batch, rng)
    peak = atom_peaks(idx, psk, mcfg)
    if peak is not None:
        return 10.0 * np.log10(peak / float(mcfg.m))
    w = np.empty((batch, mcfg.m), dtype=complex)
    for lo in range(0, batch, FRAME_BLOCK):
        rows = slice(lo, lo + FRAME_BLOCK)
        w[rows] = tx_bins(word_symbols(idx[rows], psk[rows], mcfg), mcfg)
    return np.atleast_1d(measure_pmepr(w, mcfg.n, p_av=float(mcfg.m)))


def run_pmepr_ccdf(cfg: ExperimentConfig) -> list[dict]:
    """Empirical CCDF of the oversampled PMEPR over random frames.

    Rows: (scheme, pmepr_db, ccdf) on a fixed 0.05 dB threshold grid; every
    row also carries the observed maximum. Peaks are referenced against the
    nominal transmit power (sum |g_k|^2 = M), i.e. the average power of the
    whole transmission rather than the individual frame.
    """
    exceed = np.zeros(len(PMEPR_THRESHOLDS), dtype=np.int64)
    total = 0
    max_pmepr = -np.inf
    with _pool(cfg) as pool:
        for values in _batches(cfg, pool, "pmepr", 0, cfg.trials, cfg.batch, _pmepr_batch):
            exceed += (values[:, None] > PMEPR_THRESHOLDS[None, :]).sum(axis=0)
            total += len(values)
            max_pmepr = max(max_pmepr, float(values.max()))
    rows = [{"scheme": cfg.scheme.value, "pmepr_db": float(t),
             "ccdf": float(exceed[i] / total), "max_pmepr_db": max_pmepr}
            for i, t in enumerate(PMEPR_THRESHOLDS)]
    write_csv(cfg, "pmepr", rows)
    return rows


# ---------------------------------------------------------------------------
# BLER
# ---------------------------------------------------------------------------

def _bler_batch(cfg: ExperimentConfig, rng: np.random.Generator, batch: int,
                sigma2: float) -> dict:
    """Send ``batch`` random frames at noise variance ``sigma2``; return the
    frame count and the block errors by name (``trials``, ``errors``).

    The stream is read whole-batch, in this order: the ranks and PSK
    (:func:`random_words`), under fading one :func:`rician_realize` of
    ``batch`` channels, then one (B, M) :func:`complex_noise` array. The
    frames then run :data:`FRAME_BLOCK` at a time through their symbols,
    bins and CFR, are received in place on their noise rows and detected,
    so every temporary is one block's, whatever the batch. Each kernel acts
    row by row, so every detected word is the one a single pass over the
    whole batch detects.
    """
    mcfg = cfg.modem_config()
    idx, psk = random_words(mcfg, batch, rng)
    channel = rician_realize(cfg.pdp, rng, batch=batch) if cfg.fading else None
    noise = complex_noise((batch, mcfg.m), sigma2, rng)
    errors = 0
    for lo in range(0, batch, FRAME_BLOCK):
        rows = slice(lo, lo + FRAME_BLOCK)
        w = tx_bins(word_symbols(idx[rows], psk[rows], mcfg), mcfg)
        if channel is None:
            h_c = 1.0  # AWGN: the equalizer keeps c = h_c g as one row
        else:
            h_c = CommChannel(channel.delays, channel.gains[rows]).cfr(mcfg.k, cfg.t_s)
        b = noise[rows]  # each noise row is used once, so receive in place
        b += h_c * w
        det_i, det_z = detect_words_batch(b, h_c, sigma2, mcfg)
        errors += int(np.any((det_i != idx[rows]) | (det_z != psk[rows]), axis=1).sum())
    return {"trials": batch, "errors": errors}


def _wilson(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score interval, clamped to hold ``errors / trials`` itself."""
    phat = errors / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = WILSON_Z * np.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials ** 2)) / denom
    return float(np.clip(center - half, 0.0, phat)), float(np.clip(center + half, phat, 1.0))


def run_bler(cfg: ExperimentConfig) -> list[dict]:
    """Simulated block-error rate plus the analytical union bound.

    Sweeps ``cfg.snr_db`` (or ``cfg.ebn0_db``, converted through the frame's
    bit count). Each point runs batches until ``target_errors`` block
    errors or ``max_trials`` frames, a hard cap (the last batch is short).
    The bound column is the AWGN union bound at the post-equalization noise
    level; under fading it is reported unchanged as a reference curve.
    """
    mcfg = cfg.modem_config()
    use_ebn0 = len(cfg.ebn0_db) > 0
    points = cfg.ebn0_db if use_ebn0 else cfg.snr_db
    if not points:
        raise ValueError("[sweep] snr_db (--snrs) and ebn0_db are both empty")
    rows = []
    with _pool(cfg) as pool:
        for sweep_idx, (value, snr_db) in enumerate(
                zip(points, cfg.ebn0_snr_db() if use_ebn0 else points)):
            sigma2 = noise_variance(snr_db)
            snr = post_equalization_snr(mcfg.fdss, sigma2)  # 0 below about -1618 dB
            n0 = 1.0 / snr if snr > 0 else np.inf
            bound = union_bound_bler(mcfg, n0)
            sums = _total(_batches(cfg, pool, "bler", sweep_idx, cfg.max_trials, cfg.batch,
                                   _bler_batch, sigma2),
                          lambda totals: totals["errors"] >= cfg.target_errors)
            trials, errors = sums["trials"], sums["errors"]
            lo, hi = _wilson(errors, trials)
            rows.append({
                "axis_db": float(value), "snr_db": float(snr_db),
                "bler": float(errors / trials), "union_bound": bound,
                "trials": trials, "errors": errors, "ci_lo": lo, "ci_hi": hi,
            })
    write_csv(cfg, "bler", rows)
    return rows


# ---------------------------------------------------------------------------
# Radar RMSE and resolution
# ---------------------------------------------------------------------------

def radar_trials(cfg: ExperimentConfig, scenario: str, batch: int, sigma2: float,
                 rng: np.random.Generator, spacing_m: float | None = None,
                 ) -> tuple[np.ndarray, np.ndarray, RadarScene]:
    """``batch`` random radar trials: received bins b and reference bins w,
    each of shape (batch, M), and the stack of their scenes.

    The stream is read whole-batch, in this order: the ranks and PSK
    (:func:`random_words`), ``batch`` first ranges, ``batch`` spacings
    when the scenario draws them ("two" with no ``spacing_m``), then one
    (B, M) :func:`complex_noise` array, so a one-trial batch reads what one
    trial drawn alone reads. The targets are built as one (B, R, 2) array,
    the symbols and bins in one :func:`word_symbols` and one
    :func:`tx_bins` call, and the CFRs in one :func:`radar_cfr` call on the
    stacked scene."""
    mcfg = cfg.modem_config()
    idx, psk = random_words(mcfg, batch, rng)
    if scenario == "single":
        ranges, coeff = rng.uniform(*cfg.single_range_m, batch)[:, None], cfg.single_coeff
    else:
        first = rng.uniform(*cfg.two_range_m, batch)
        if spacing_m is None:
            spacing_m = rng.uniform(*cfg.two_spacing_rmin, batch) * \
                min_resolution(cfg.bandwidth_hz)
        ranges, coeff = np.stack((first, first + spacing_m), axis=-1), cfg.two_coeff
    noise = complex_noise((batch, mcfg.m), sigma2, rng)
    scene = RadarScene(np.stack((ranges, np.full_like(ranges, coeff)), axis=-1),
                       cfg.f_c, cfg.t_s, cfg.t_cp)
    w = tx_bins(word_symbols(idx, psk, mcfg), mcfg)
    return radar_cfr(scene, mcfg.k) * w + noise, w, scene


def _radar_batch(cfg: ExperimentConfig, rng: np.random.Generator, batch: int,
                 scenario: str, sigma2: float, spacing_m: float | None) -> dict:
    """The trial count and the sums of one batch, each sum named by the CSV
    column that is the root of its mean over the trials.

    :func:`radar_trials` draws the batch whole and returns its stacked
    scene; the rest runs once per batch on (B, .) arrays. One
    :func:`estimate_mf_lmmse` call puts the MF and LMMSE rows in the same
    delay searches, one :func:`crlb_range` call inverts the (2B, 2R, 2R)
    stack of the per-frame and the expectation-form Fisher informations at
    once, and one :func:`crlb_range_no_phase` call gives every trial's
    phase-unaware bound. Each sum is then added up in trial order (a
    cumulative sum, not a pairwise one), as one trial at a time would.
    """
    mcfg = cfg.modem_config()
    b, w, scene = radar_trials(cfg, scenario, batch, sigma2, rng, spacing_m)
    twice = RadarScene(np.concatenate((scene.targets,) * 2), cfg.f_c, cfg.t_s, cfg.t_cp)
    expected = np.broadcast_to(mcfg.fdss.g, w.shape)
    bounds = crlb_range(twice, np.concatenate((w, expected)), sigma2)
    obs = RadarObservation(b=b, w=w, sigma2=sigma2, f_c=cfg.f_c, t_s=cfg.t_s, t_cp=cfg.t_cp)
    est_mf, est_lm = estimate_mf_lmmse(obs, scene.n_targets)
    per_trial = {"rmse_mf_m": ((est_mf.distances - scene.distances) ** 2).sum(axis=-1),
                 "rmse_lmmse_m": ((est_lm.distances - scene.distances) ** 2).sum(axis=-1),
                 "crlb_m": bounds[:batch], "crlb_expected_m": bounds[batch:],
                 "crlb_nophase_m": crlb_range_no_phase(scene, mcfg.m, sigma2)}
    return {"trials": batch, **{name: np.cumsum(x)[-1] for name, x in per_trial.items()}}


def _radar_rows(cfg: ExperimentConfig, experiment: str, scenario: str, points) -> list[dict]:
    """One row per sweep point of ``points``, (leading columns, sigma2,
    spacing_m) triples: the leading columns, the root of each named mean
    square of :func:`_radar_batch`, then ``trials``."""
    rows = []
    with _pool(cfg) as pool:
        for sweep_idx, (lead, sigma2, spacing_m) in enumerate(points):
            sums = _total(_batches(cfg, pool, experiment, sweep_idx, cfg.trials, RADAR_BATCH,
                                   _radar_batch, scenario, sigma2, spacing_m))
            n = sums.pop("trials")
            rows.append(lead | {name: float(np.sqrt(sum_ / n)) for name, sum_ in sums.items()}
                        | {"trials": n})
    write_csv(cfg, experiment, rows)
    return rows


def run_radar_rmse(cfg: ExperimentConfig,
                   scenario: Literal["single", "two"] = "single") -> list[dict]:
    """Range-estimation RMSE versus SNR for the MF and LMMSE estimators,
    alongside the phase-aware, expectation-form, and phase-unaware range
    bounds (all reported as root values in meters)."""
    if scenario not in ("single", "two"):
        raise ValueError("scenario must be 'single' or 'two'")
    if not cfg.snr_db:
        raise ValueError("[sweep] snr_db (--snrs) is empty: nothing to sweep")
    return _radar_rows(cfg, "radar-rmse", scenario, [
        ({"snr_db": float(snr_db), "scenario": scenario}, noise_variance(snr_db), None)
        for snr_db in cfg.snr_db])


def run_resolution(cfg: ExperimentConfig) -> list[dict]:
    """Two-target RMSE versus spacing (in units of the minimum resolution)
    at the fixed SNR ``cfg.resolution_snr_db``."""
    r_min = min_resolution(cfg.bandwidth_hz)
    snr_db, sigma2 = float(cfg.resolution_snr_db), noise_variance(cfg.resolution_snr_db)
    return _radar_rows(cfg, "resolution", "two", [
        ({"spacing_m": float(f * r_min), "spacing_rmin": float(f), "snr_db": snr_db},
         sigma2, float(f * r_min)) for f in cfg.spacing_rmin or RESOLUTION_SPACING_RMIN])
