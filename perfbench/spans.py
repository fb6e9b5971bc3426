"""Spans and output checks around the public names chirpim.runners calls.

:class:`Instrument` replaces those names (and two inside the modem and
channel layers) with wrappers for the length of a ``with`` block and puts
the originals back on exit. Every wrapper runs the output check for its
name; with ``trace=True`` it also records a span (name, start, end, parent,
operation id). Spans stay in memory until the benchmark summarises them.
"""
from __future__ import annotations

import functools
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

import chirpim.channel
import chirpim.modem
import chirpim.runners
from chirpim.util import SPEED_OF_LIGHT

# (owner, attribute, span name); the layer is the span name up to the first dot
TARGETS = (
    (chirpim.runners, "random_words", "indexing.random_words"),
    (chirpim.runners, "frame_from_symbols", "modem.frame_from_symbols"),
    (chirpim.modem, "synthesize", "chirps.synthesize"),
    (chirpim.modem, "chirp_fdss", "chirps.fdss"),
    (chirpim.runners, "measure_pmepr", "chirps.measure_pmepr"),
    (chirpim.runners, "tx_bins", "modem.tx_bins"),
    (chirpim.runners, "detect_words_batch", "modem.detect_words_batch"),
    (chirpim.runners, "post_equalization_snr", "modem.bound"),
    (chirpim.runners, "union_bound_bler", "modem.bound"),
    (chirpim.runners, "rician_realize", "channel.rician"),
    (chirpim.channel.CommChannel, "cfr", "channel.rician"),
    (chirpim.runners, "radar_cfr", "channel.radar_cfr"),
    (chirpim.runners, "estimate_multi_mf", "radar.estimate_multi_mf"),
    (chirpim.runners, "estimate_lmmse", "radar.estimate_lmmse"),
    (chirpim.runners, "crlb_range", "radar.crlb"),
    (chirpim.runners, "crlb_range_no_phase", "radar.crlb"),
    (chirpim.runners, "min_resolution", "radar.min_resolution"),
)
LAYERS = ("chirps", "indexing", "modem", "channel", "radar", "runners")


class Checks:
    """Per-operation output checks and counters, fed by the wrappers."""

    def __init__(self):
        self.failed = 0
        self.problems: list[str] = []
        self.words = 0
        self.estimates = 0
        self.outliers = 0
        self.edges = 0
        self.final_steps: list[float] = []
        self._truth: np.ndarray | None = None
        self._trial_failed = False

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def __call__(self, name: str, args: tuple, out) -> None:
        if name == "indexing.random_words":
            self.words += int(args[1])
        elif name == "chirps.measure_pmepr":
            bad = int(np.count_nonzero(~np.isfinite(np.atleast_1d(out))))
            if bad:
                self.fail(bad, f"{bad} non-finite PMEPR values")
        elif name == "modem.detect_words_batch":
            mcfg = args[3]
            idx, psk = out
            bad = np.any((idx < 0) | (idx >= mcfg.m), axis=1) | \
                np.any((psk < 0) | (psk >= mcfg.h), axis=1)
            if bad.any():
                self.fail(int(bad.sum()), f"{int(bad.sum())} detected words out of range")
        elif name == "channel.radar_cfr":
            # a new trial: the next estimates are checked against this scene
            self._truth = np.array(args[0].distances)
            self._trial_failed = False
        elif name.startswith("radar.estimate_"):
            self._estimate(name, args[0], out)

    def _estimate(self, name: str, obs, est) -> None:
        delays = est.delays
        self.estimates += len(delays)
        self.final_steps.append(est.final_step)
        ok = len(delays) == len(self._truth) and bool(
            np.all(np.isfinite(delays)) and np.all((delays >= 0) & (delays <= obs.t_cp)))
        if not ok:
            if not self._trial_failed:
                self._trial_failed = True
                self.fail(1, f"{name} estimate {delays} outside [0, {obs.t_cp:.4e}] s")
            return
        quarter_wave = SPEED_OF_LIGHT / obs.f_c / 4.0
        self.outliers += int(np.sum(np.abs(est.distances - self._truth) > quarter_wave))
        self.edges += int(np.sum((delays < est.final_step) |
                                 (delays > obs.t_cp - est.final_step)))


class Instrument:
    """Install check (and optionally span) wrappers; restore on exit."""

    def __init__(self, checks: Checks, trace: bool):
        self.checks = checks
        self.trace = trace
        self.spans: list[tuple] = []   # (name, start, end, parent, op)
        self.op = -1                   # id of the runner call under way
        self.bytes_per_frame: list[float] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Instrument":
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def call(self, name: str, fn, *args):
        """Run ``fn`` as a root span (the runner call itself)."""
        return self._wrap(name, fn)(*args) if self.trace else fn(*args)

    def _wrap(self, name: str, fn):
        checks = self.checks
        if not self.trace:
            @functools.wraps(fn)
            def checked(*args, **kwargs):
                out = fn(*args, **kwargs)
                checks(name, args, out)
                return out
            return checked

        memory = name == "chirps.measure_pmepr"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            if memory:
                tracemalloc.start()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if memory:
                self.bytes_per_frame.append(peak / max(np.size(out), 1))
            checks(name, args, out)
            return out
        return traced


def summarize(spans: list[tuple]) -> dict:
    """Per-name totals and per-layer self time of a list of spans.

    A span's self time is its duration minus the durations of its direct
    children (children never overlap: the run is single-threaded).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                    "durations": []})
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["durations"].append(end - start)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + (end - start) - child_time[i]
    return {"names": dict(by_name), "layer_self_s": layer_self}
