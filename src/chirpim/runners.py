"""Monte Carlo experiment runners with deterministic, seed-keyed output.

Every runner runs a sweep point through one batch driver, :func:`_batches`:
batch i of a point reads its own stream, seeded by (master seed, experiment
id, sweep index, i), and results come back in batch order, so they are
byte-identical for a fixed config regardless of the worker count. With
``workers`` > 1 a runner opens one process pool (:func:`_pool`) for all
its sweep points. A BLER point stops on its error count or at
``max_trials`` frames, a hard cap.
Each batch gets the config alone and reads the modem from it
(``cfg.modem_config()``), built with the config and complete with its FDSS
profile and bit capacity. Rows are returned as dicts and, when ``cfg.out``
is set, written there as CSV with one comment line recording the preset,
seed, and a config hash, and a header of the row keys in order.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, nullcontext
from itertools import islice
from typing import Literal

import numpy as np

from .channel import RadarScene, complex_noise, radar_cfr, rician_realize
from .config import EXPERIMENT_IDS, RESOLUTION_SPACING_RMIN, ExperimentConfig
from .indexing import rank_to_indices
from .modem import ModemConfig, detect_words_batch, post_equalization_snr, \
    tx_bins, union_bound_bler, word_symbols
from .chirps import PMEPR_BLOCK, measure_pmepr
from .radar import RadarObservation, crlb_range, crlb_range_no_phase, \
    estimate_mf_lmmse, min_resolution
from .util import noise_variance
# perfbench/spans.py wraps these names here; the runners call the batched
# estimate_mf_lmmse instead, and measure PMEPR from the bins, not a frame
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


def _draw_words(mcfg: ModemConfig, batch: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random index rows and PSK rows, shape (batch, L) each: all
    the ranks, then all the PSK integers. Ranks are drawn from the
    2**index_bits codebook the bit mapper uses, which is equivalent to
    encoding uniform random bits."""
    ranks = rng.integers(1, (1 << mcfg.capacity.index_bits) + 1, size=batch)
    idx = np.array([rank_to_indices(int(n), mcfg.m, mcfg.length, mcfg.delta)
                    for n in ranks], dtype=np.int64)
    return idx, rng.integers(0, mcfg.h, size=(batch, mcfg.length))


def random_words(mcfg: ModemConfig, batch: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform random codewords: index rows, PSK rows, modulation vectors."""
    idx, psk = _draw_words(mcfg, batch, rng)
    return idx, psk, word_symbols(idx, psk, mcfg)


# ---------------------------------------------------------------------------
# PMEPR CCDF
# ---------------------------------------------------------------------------

def _pmepr_batch(cfg: ExperimentConfig, rng: np.random.Generator,
                 batch: int) -> np.ndarray:
    """PMEPR of a batch of random codewords from their bins (no time-domain
    frame), against the nominal transmit power sum |g|^2 = M.

    The batch's ranks and PSK are drawn as :func:`random_words` draws them;
    the bins are then built :data:`PMEPR_BLOCK` codewords at a time into one
    (B, M) array, which one :func:`measure_pmepr` call measures. Memory is
    that bins array plus one 32-frame workspace, whatever the batch."""
    mcfg = cfg.modem_config()
    idx, psk = _draw_words(mcfg, batch, rng)
    w = np.empty((batch, mcfg.m), dtype=complex)
    for lo in range(0, batch, PMEPR_BLOCK):
        rows = slice(lo, lo + PMEPR_BLOCK)
        w[rows] = tx_bins(word_symbols(idx[rows], psk[rows], mcfg), mcfg)
    return np.atleast_1d(measure_pmepr(w, mcfg.k, mcfg.n, p_av=float(mcfg.m)))


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
                sigma2: float) -> tuple[int, int]:
    mcfg = cfg.modem_config()
    idx, psk, d = random_words(mcfg, batch, rng)
    w = tx_bins(d, mcfg)
    if cfg.fading:
        h_c = rician_realize(cfg.pdp, rng, batch=batch).cfr(mcfg.k, cfg.t_s)
    else:
        h_c = np.ones_like(w)
    b = complex_noise(w.shape, sigma2, rng)
    b += h_c * w
    det_i, det_z = detect_words_batch(b, h_c, sigma2, mcfg)
    errors = np.any((det_i != idx) | (det_z != psk), axis=1)
    return batch, int(errors.sum())


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
            trials = errors = 0
            # closing the batches at the error count cancels the unstarted ones
            with closing(_batches(cfg, pool, "bler", sweep_idx, cfg.max_trials, cfg.batch,
                                  _bler_batch, sigma2)) as batches:
                for n, e in batches:
                    trials += n
                    errors += e
                    if errors >= cfg.target_errors:
                        break
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

def _draw_scene(cfg: ExperimentConfig, scenario: str, rng: np.random.Generator,
                spacing_m: float | None = None) -> RadarScene:
    t_cp = cfg.t_cp
    if scenario == "single":
        d0 = rng.uniform(*cfg.single_range_m)
        targets = ((d0, cfg.single_coeff),)
    else:
        d0 = rng.uniform(*cfg.two_range_m)
        if spacing_m is None:
            spacing_m = rng.uniform(*cfg.two_spacing_rmin) * min_resolution(cfg.bandwidth_hz)
        targets = ((d0, cfg.two_coeff), (d0 + spacing_m, cfg.two_coeff))
    return RadarScene(targets=targets, f_c=cfg.f_c, t_s=cfg.t_s, t_cp=t_cp)


def radar_trials(cfg: ExperimentConfig, scenario: str, batch: int, sigma2: float,
                 rng: np.random.Generator, spacing_m: float | None = None,
                 ) -> tuple[np.ndarray, np.ndarray, list[RadarScene]]:
    """``batch`` random radar trials: received bins b and reference bins w,
    each of shape (batch, M), and the scenes.

    The stream is read trial by trial: one codeword (its rank, then its
    PSK), the scene (:func:`_draw_scene`), then the noise. The symbols and
    bins of all trials are then built in one :func:`word_symbols` and one
    :func:`tx_bins` call, so every row equals the trial drawn alone."""
    mcfg = cfg.modem_config()
    idx = np.empty((batch, mcfg.length), dtype=np.int64)
    psk = np.empty((batch, mcfg.length), dtype=np.int64)
    cfr = np.empty((batch, mcfg.m), dtype=complex)
    noise = np.empty((batch, mcfg.m), dtype=complex)
    scenes = []
    for t in range(batch):
        idx[t:t + 1], psk[t:t + 1] = _draw_words(mcfg, 1, rng)
        scenes.append(_draw_scene(cfg, scenario, rng, spacing_m))
        cfr[t] = radar_cfr(scenes[-1], mcfg.k)
        noise[t] = complex_noise(mcfg.m, sigma2, rng)
    w = tx_bins(word_symbols(idx, psk, mcfg), mcfg)
    return cfr * w + noise, w, scenes


def _radar_batch(cfg: ExperimentConfig, rng: np.random.Generator, batch: int,
                 scenario: str, sigma2: float, spacing_m: float | None) -> np.ndarray:
    """[sum err2 MF, sum err2 LMMSE, sum crlb, sum crlb_expected,
    sum crlb_nophase, trials] over one batch.

    :func:`radar_trials` draws the trials in trial order; the rest runs
    once per batch on (B, .) arrays. One :func:`estimate_mf_lmmse` call
    puts the MF and LMMSE rows in the same delay searches, one
    :func:`crlb_range` call inverts the (2B, 2R, 2R) stack of the
    per-frame and the expectation-form Fisher informations at once, and
    one :func:`crlb_range_no_phase` call gives every trial's phase-unaware
    bound. Each column is then added up in trial order (a cumulative sum,
    not a pairwise one), as one trial at a time would.
    """
    mcfg = cfg.modem_config()
    b, w, scenes = radar_trials(cfg, scenario, batch, sigma2, rng, spacing_m)
    expected = np.broadcast_to(mcfg.fdss.g, w.shape)
    bounds = crlb_range(scenes * 2, (mcfg.k, np.concatenate((w, expected))), sigma2)
    obs = RadarObservation(b=b, w=w, k=mcfg.k, sigma2=sigma2,
                           f_c=cfg.f_c, t_s=cfg.t_s, t_cp=cfg.t_cp)
    est_mf, est_lm = estimate_mf_lmmse(obs, scenes[0].n_targets)
    truths = np.array([scene.distances for scene in scenes])
    per_trial = np.stack((((est_mf.distances - truths) ** 2).sum(axis=-1),
                          ((est_lm.distances - truths) ** 2).sum(axis=-1),
                          bounds[:batch], bounds[batch:],
                          crlb_range_no_phase(scenes, mcfg.m, sigma2),
                          np.ones(batch)))
    return np.cumsum(per_trial, axis=-1)[:, -1]


def _radar_point(cfg: ExperimentConfig, pool: ProcessPoolExecutor | None, experiment: str,
                 scenario: str, sweep_idx: int, sigma2: float,
                 spacing_m: float | None) -> dict:
    acc = sum(_batches(cfg, pool, experiment, sweep_idx, cfg.trials, RADAR_BATCH,
                       _radar_batch, scenario, sigma2, spacing_m), np.zeros(6))
    n = acc[5]
    return {
        "rmse_mf_m": float(np.sqrt(acc[0] / n)),
        "rmse_lmmse_m": float(np.sqrt(acc[1] / n)),
        "crlb_m": float(np.sqrt(acc[2] / n)),
        "crlb_expected_m": float(np.sqrt(acc[3] / n)),
        "crlb_nophase_m": float(np.sqrt(acc[4] / n)),
        "trials": int(n),
    }


def run_radar_rmse(cfg: ExperimentConfig,
                   scenario: Literal["single", "two"] = "single") -> list[dict]:
    """Range-estimation RMSE versus SNR for the MF and LMMSE estimators,
    alongside the phase-aware, expectation-form, and phase-unaware range
    bounds (all reported as root values in meters)."""
    if scenario not in ("single", "two"):
        raise ValueError("scenario must be 'single' or 'two'")
    if not cfg.snr_db:
        raise ValueError("[sweep] snr_db (--snrs) is empty: nothing to sweep")
    rows = []
    with _pool(cfg) as pool:
        for sweep_idx, snr_db in enumerate(cfg.snr_db):
            row = {"snr_db": float(snr_db), "scenario": scenario}
            row.update(_radar_point(cfg, pool, "radar-rmse", scenario, sweep_idx,
                                    noise_variance(snr_db), None))
            rows.append(row)
    write_csv(cfg, "radar-rmse", rows)
    return rows


def run_resolution(cfg: ExperimentConfig) -> list[dict]:
    """Two-target RMSE versus spacing (in units of the minimum resolution)
    at the fixed SNR ``cfg.resolution_snr_db``."""
    factors = cfg.spacing_rmin or RESOLUTION_SPACING_RMIN
    r_min = min_resolution(cfg.bandwidth_hz)
    sigma2 = noise_variance(cfg.resolution_snr_db)
    rows = []
    with _pool(cfg) as pool:
        for sweep_idx, factor in enumerate(factors):
            row = {"spacing_m": float(factor * r_min), "spacing_rmin": float(factor),
                   "snr_db": float(cfg.resolution_snr_db)}
            row.update(_radar_point(cfg, pool, "resolution", "two", sweep_idx, sigma2,
                                    float(factor * r_min)))
            rows.append(row)
    write_csv(cfg, "resolution", rows)
    return rows
