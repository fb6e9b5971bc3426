"""The benchmark's workloads: configs, runner calls and output checks.

Each workload is one public runner (``run_pmepr_ccdf``, ``run_bler`` or
``run_radar_rmse``) on a fixed experiment config. The benchmark calls the
runner once per *chunk*, each chunk with its own seed derived from the
benchmark seed, and times the chunks. The first ``min_chunks`` chunks are
pooled into the workload's error figure, so that figure repeats exactly for
a fixed seed whatever the machine speed.

chirpim must be importable before this module is imported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from chirpim import runners
from chirpim.chirps import ChirpFamily
from chirpim.config import ExperimentConfig, desk_preset, paper_preset
from chirpim.modem import Scheme

BLER_SNRS_DB = (-16.0, -14.0, -12.0)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "pmepr", "bler" or a radar scenario ("single", "two")
    why: str
    operation: str
    base: ExperimentConfig
    chunk: dict          # config overrides of one timed runner call
    scale: dict          # overrides of the workers=1 vs workers=2 job
    min_chunks: int      # chunks pooled into the error figure
    smoke_chunk: dict = field(default_factory=dict)
    smoke_scale: dict = field(default_factory=dict)

    def config(self, seed: int, overrides: dict) -> ExperimentConfig:
        return replace(self.base, seed=seed, **overrides)

    def run(self, cfg: ExperimentConfig) -> list[dict]:
        if self.kind == "pmepr":
            return runners.run_pmepr_ccdf(cfg)
        if self.kind == "bler":
            return runners.run_bler(cfg)
        return runners.run_radar_rmse(cfg, scenario=self.kind)

    def ops(self, cfg: ExperimentConfig) -> int:
        """Operations in one runner call: frames, or radar trials."""
        if self.kind == "pmepr":
            return cfg.trials
        if self.kind == "bler":
            return len(cfg.snr_db) * cfg.max_trials
        return len(cfg.snr_db) * cfg.trials

    def check_rows(self, cfg: ExperimentConfig, rows: list[dict]) -> list[str]:
        """Problems with one runner call's rows; empty when they pass."""
        return _ROW_CHECKS[self.kind](cfg, rows)

    def figures(self, chunks: list[list[dict]]) -> dict:
        """Accuracy figures pooled over the rows of several runner calls.

        ``error_ratio`` is the workload's headline error as a plain ratio
        (lower is better); the other keys are the figures the paper plots.
        """
        rows = [row for chunk in chunks for row in chunk]
        if self.kind == "pmepr":
            peak_db = max(row["max_pmepr_db"] for row in rows)
            return {"error_ratio": 10.0 ** (peak_db / 10.0) / self.base.length,
                    "pmepr_max_db": peak_db}
        if self.kind == "bler":
            trials = sum(row["trials"] for row in rows)
            out = {"error_ratio": sum(row["errors"] for row in rows) / trials}
            out["bler"] = out["error_ratio"]
            for snr in BLER_SNRS_DB:
                point = [row for row in rows if row["snr_db"] == snr]
                out[f"bler_at_{snr:g}dB"] = (sum(r["errors"] for r in point)
                                             / sum(r["trials"] for r in point))
            return out

        def pooled(key):
            return sum(row[key] ** 2 * row["trials"] for row in rows)

        mf, lm, crlb = pooled("rmse_mf_m"), pooled("rmse_lmmse_m"), pooled("crlb_m")
        return {"error_ratio": math.sqrt((mf + lm) / (2.0 * crlb)),
                "rmse_mf_gap_db": 10.0 * math.log10(mf / crlb),
                "rmse_lmmse_gap_db": 10.0 * math.log10(lm / crlb)}


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_pmepr(cfg: ExperimentConfig, rows: list[dict]) -> list[str]:
    problems = []
    ccdf = [row["ccdf"] for row in rows]
    if not all(0.0 <= c <= 1.0 for c in ccdf):
        problems.append("CCDF leaves [0, 1]")
    if any(b > a for a, b in zip(ccdf, ccdf[1:])):
        problems.append("CCDF increases")
    peak = rows[0]["max_pmepr_db"]
    limit = 10.0 * math.log10(cfg.length) + 0.1
    if not (_finite(peak) and peak <= limit):
        problems.append(f"max PMEPR {peak} dB above {limit:.4f} dB")
    return problems


def _check_bler(cfg: ExperimentConfig, rows: list[dict]) -> list[str]:
    problems = []
    if [row["snr_db"] for row in rows] != list(cfg.snr_db):
        problems.append("rows do not follow the SNR sweep")
    for row in rows:
        if row["trials"] != cfg.max_trials:
            problems.append(f"{row['trials']} frames at {row['snr_db']} dB, "
                            f"expected {cfg.max_trials}")
        if not 0 <= row["errors"] <= row["trials"] or \
                row["bler"] != row["errors"] / row["trials"]:
            problems.append(f"inconsistent error count at {row['snr_db']} dB")
        if not (_finite(row["union_bound"]) and 0.0 <= row["union_bound"] <= 1.0):
            problems.append(f"union bound {row['union_bound']} outside [0, 1]")
    return problems


def _check_radar(cfg: ExperimentConfig, rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        if row["trials"] != cfg.trials:
            problems.append(f"{row['trials']} trials, expected {cfg.trials}")
        values = [row[k] for k in ("rmse_mf_m", "rmse_lmmse_m", "crlb_m")]
        if not (_finite(*values) and min(values) > 0.0):
            problems.append(f"non-finite or zero RMSE/CRLB at {row['snr_db']} dB")
    return problems


_ROW_CHECKS = {"pmepr": _check_pmepr, "bler": _check_bler,
               "single": _check_radar, "two": _check_radar}


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="radar-two-desk", kind="two",
        why="desk CSC-IM L=2 delta=15, two targets at 30 dB: about 12 small "
            "delay searches per trial, so radar per-call overhead dominates",
        operation="one trial: one MF plus one LMMSE two-target estimate",
        base=desk_preset(Scheme.CSC_IM, length=2, separated=True, snr_db=(30.0,)),
        chunk={"trials": 16}, scale={"trials": 128}, min_chunks=48,
        smoke_chunk={"trials": 2}, smoke_scale={"trials": 4},
    ),
    Workload(
        name="radar-single-paper", kind="single",
        why="paper M=1536 L=1, one target at 30 dB: 2 searches per trial, "
            "each bound by the 768x1536 coarse steering matrix",
        operation="one trial: one MF plus one LMMSE single-target estimate",
        base=paper_preset(Scheme.CSC_IM, length=1, snr_db=(30.0,)),
        chunk={"trials": 1}, scale={"trials": 128}, min_chunks=64,
        smoke_chunk={"trials": 1}, smoke_scale={"trials": 2},
    ),
    Workload(
        name="bler-paper", kind="bler",
        why="paper CSC-IM L=2 delta=84 with Rician fading at -16/-14/-12 dB: "
            "unranking, the greedy detector and per-frame channel draws",
        operation="one frame: draw, transmit, fade, detect",
        base=paper_preset(Scheme.CSC_IM, length=2, separated=True, fading=True,
                          snr_db=BLER_SNRS_DB),
        # target_errors above max_trials: every point runs its full frame count
        chunk={"max_trials": 128, "batch": 128, "target_errors": 129},
        scale={"max_trials": 512, "batch": 256, "target_errors": 513},
        min_chunks=24,
        smoke_chunk={"max_trials": 8, "batch": 8, "target_errors": 9},
        smoke_scale={"max_trials": 8, "batch": 4, "target_errors": 9},
    ),
    Workload(
        name="pmepr-paper", kind="pmepr",
        why="paper sinusoidal L=2 delta=0: the only workload that runs "
            "synthesize and the 16384-point oversampled PMEPR",
        operation="one frame: draw, synthesize, 8x oversampled PMEPR",
        base=paper_preset(Scheme.CSC_IM, length=2, family=ChirpFamily.SINUSOIDAL),
        chunk={"trials": 512, "batch": 512}, scale={"trials": 1024, "batch": 512},
        min_chunks=8,
        smoke_chunk={"trials": 8, "batch": 8}, smoke_scale={"trials": 8, "batch": 4},
    ),
)}
