"""chirpim benchmark: end-to-end and per-layer metrics of the Monte Carlo runners.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics (``ops_per_s``, ``setup_s``,
``peak_rss_mb``, ``error_ratio``). ``--trace 1`` runs the workload once
untraced and once with spans, and reports the per-layer metrics, the
``workers=2`` scaling and the tracing overhead. Both print a report, save it
under ``perfbench/results/`` and end with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. ``--smoke`` shrinks every
size so that a run takes seconds (used by ``perfbench/test_smoke.py``).

The benchmark imports chirpim from ``src/`` of the checkout it sits in and
leaves the BLAS thread variables as it finds them.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_REPS = 8    # half before the timed loop and half after it
SCALING_PAIRS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
              "error_ratio": "ratio"}
SHARES = ("chirps.fdss", "chirps.synthesize", "chirps.measure_pmepr", "modem.tx_bins",
          "modem.detect_words_batch", "channel.rician", "channel.radar_cfr",
          "radar.estimate_multi_mf", "radar.estimate_lmmse", "radar.crlb")
PER_LAYER = {
    "chirps.fdss.setup_s": "s",
    "chirps.measure_pmepr.bytes_per_frame_computed": "B",
    "indexing.random_words.s_per_word": "s",
    "indexing.random_words.words": "count",
    "runners.self_s_per_op": "s",
    **{f"{name}.share": "%" for name in SHARES},
    **{f"{layer}.self_share": "%" for layer in
       ("chirps", "indexing", "modem", "channel", "radar", "runners")},
    "radar.calls_per_trial": "count",
    "radar.final_step_m": "m",
    "radar.outlier_ratio": "ratio",
    "radar.edge_ratio": "ratio",
    "runners.scaling_2w": "ratio",
    "trace.overhead": "%",
}
# Absolute per-frame, per-trial or per-call times, reported where a workload runs them
ABSOLUTE = (("chirps.synthesize", "s_per_frame"), ("chirps.measure_pmepr", "s_per_frame"),
            ("modem.tx_bins", "s_per_frame"), ("modem.detect_words_batch", "s_per_frame"),
            ("channel.rician", "s_per_frame"), ("channel.radar_cfr", "s_per_trial"),
            ("radar.estimate_multi_mf", "s_per_call"), ("radar.estimate_lmmse", "s_per_call"),
            ("radar.crlb", "s_per_trial"))
# Baseline rows of ROADMAP.md (2 CPUs, numpy 2.4.6, scipy 1.17.1, 1 BLAS thread)
BASELINE_MF_SEARCH_S = {"desk": 2.5e-3, "paper": 142e-3}
BASELINE_WORD_S = {"bler-paper": 0.6e-3}


def chunk_seed(seed: int, index: int) -> int:
    """Seed of runner call ``index``; index 9999 is the scaling job."""
    return seed * 10_000 + index


def median(values):
    return statistics.median(values) if values else 0.0


def fast_rate(rates):
    """90th percentile of per-chunk rates."""
    return statistics.quantiles(rates, n=10)[-1] if len(rates) > 1 else rates[0]


class HostProbe:
    """How fast the host runs right now, from a fixed kernel outside chirpim.

    Other load on a shared host slows whole stretches of a run, by up to
    1.8x on the 2-CPU Xeon used for tuning, and for longer than one run.
    The probe (FFTs, elementwise complex arithmetic and a Python loop,
    none of it threaded, so chirpim cannot change its speed) runs after
    every chunk, so each chunk's rate can be scaled to the probe's nominal
    speed ``NOMINAL``, its runs per second on that host in a quiet stretch.
    A probe reading is the fastest of three runs of about 4 ms, so that one
    descheduled run does not read as a slow host.
    """

    NOMINAL = 250.0

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((16, 2048)) + 0j
        self._a = rng.standard_normal((193, 64)) + 0j
        self._v = np.exp(1j * np.arange(64))
        self._np = np

    def rate(self) -> float:
        np = self._np
        best = math.inf
        for _ in range(3):
            start = perf_counter()
            for _ in range(2):
                np.fft.ifft(np.fft.fft(self._x, axis=-1), axis=-1)
                for _ in range(20):
                    np.abs(self._a * self._v)
                total = 0
                for i in range(3000):
                    total += i * i
            best = min(best, perf_counter() - start)
        return 1.0 / best


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(seed: int, workers, chirpim_workers: str | None) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "CHIRPIM_WORKERS": chirpim_workers, "workers": workers,
        "git_commit": git_commit(), "seed": seed,
    }


class Bench:
    """One workload at one seed: the timed loops, the checks, the counts."""

    def __init__(self, workload, seed: int, smoke: bool):
        from spans import Checks
        self.wl = workload
        self.seed = seed
        self.smoke = smoke
        self.chunk = workload.smoke_chunk if smoke else workload.chunk
        self.scale = workload.smoke_scale if smoke else workload.scale
        self.min_chunks = 1 if smoke else workload.min_chunks
        self.attempted = 0
        self.checks = [Checks()]    # one per phase; failures are summed
        self.spans: list[tuple] = []
        self.probe = HostProbe()

    @property
    def failed(self) -> int:
        return min(sum(c.failed for c in self.checks), self.attempted)

    @property
    def problems(self) -> list[str]:
        return [p for c in self.checks for p in c.problems]

    def call(self, cfg, instrument=None):
        """One runner call: (rows or None, seconds, operations)."""
        checks = instrument.checks if instrument else self.checks[0]
        ops = self.wl.ops(cfg)
        self.attempted += ops
        runner = self.wl.run
        start = perf_counter()
        try:
            rows = (instrument.call(f"runners.{self.wl.kind}", runner, cfg)
                    if instrument else runner(cfg))
        except Exception as exc:  # a failing runner call fails its operations; the run goes on
            checks.fail(ops, f"{type(exc).__name__}: {exc}")
            return None, perf_counter() - start, ops
        seconds = perf_counter() - start
        problems = self.wl.check_rows(cfg, rows)
        if problems:
            checks.fail(ops, "; ".join(problems))
        return rows, seconds, ops

    def loop(self, seconds: float, instrument, min_chunks: int) -> dict:
        """Run chunks 0, 1, ... and time every chunk after the first.

        Stops once ``seconds`` have passed since the warm-up chunk and at
        least ``min_chunks`` chunks ran, or at four times ``seconds``.
        Returns per-chunk ops/s as measured (``raw``), the host probe's
        speed around each chunk (``probe``, the mean of the probes run on
        either side) and ops/s scaled by it (``rates``), the rows of every
        chunk, the operation count, and the seconds spent in runner calls.
        """
        raw, rates, speeds, chunks, total_ops, busy = [], [], [], [], 0, 0.0
        clock = speed = None
        index = 0
        while True:
            instrument.op = index
            rows, took, ops = self.call(self.wl.config(chunk_seed(self.seed, index), self.chunk),
                                        instrument)
            before, speed = speed, self.probe.rate()
            chunks.append(rows)
            total_ops += ops
            busy += took
            if clock is None:
                clock = perf_counter()
            else:
                raw.append(ops / took)
                speeds.append((before + speed) / 2.0)
                rates.append(raw[-1] * HostProbe.NOMINAL / speeds[-1])
            index += 1
            elapsed = perf_counter() - clock
            if rates and ((elapsed >= seconds and index >= min_chunks) or elapsed >= 4 * seconds):
                return {"raw": raw, "rates": rates, "probe": speeds, "chunks": chunks,
                        "ops": total_ops, "busy": busy}

    def setup_times(self, reps: int) -> list[float]:
        times = []
        for _ in range(reps):
            out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), self.wl.name,
                                  str(self.seed)], capture_output=True, text=True,
                                 timeout=120, check=True)
            times.append(float(out.stdout.strip().splitlines()[-1]))
        return times

    def scaling(self, budget: float) -> dict:
        """ops/s at workers=2 over workers=1 on one job, pairs alternating."""
        one = self.wl.config(chunk_seed(self.seed, 9999), {**self.scale, "workers": 1})
        two = self.wl.config(chunk_seed(self.seed, 9999), {**self.scale, "workers": 2})
        times = {1: [], 2: []}
        start = perf_counter()
        while len(times[2]) < SCALING_PAIRS and (not times[2] or perf_counter() - start < budget):
            rows1, t1, ops = self.call(one)
            rows2, t2, _ = self.call(two)
            if rows1 != rows2:
                self.checks[0].fail(ops, "workers=2 rows differ from workers=1 rows")
            times[1].append(t1)
            times[2].append(t2)
        return {"ratio": median(times[1]) / median(times[2]), "pairs": len(times[2]),
                "workers1_s": times[1], "workers2_s": times[2], "ops": self.wl.ops(one)}

    def reference_problems(self, rows) -> list[str]:
        """The default seed's first bler chunk must equal the stored rows."""
        if self.wl.kind != "bler" or self.seed != DEFAULT_SEED or self.smoke:
            return []
        path = HERE / "reference" / f"{self.wl.name}-seed{DEFAULT_SEED}.json"
        if rows != json.loads(path.read_text()):
            return [f"first chunk rows differ from {path.relative_to(ROOT)}"]
        return []

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        from spans import Instrument
        # set-up time swings with host load; sampling it on both sides of the
        # loop spreads the repetitions over the run
        reps = 1 if self.smoke else SETUP_REPS // 2
        setup = self.setup_times(reps)
        with Instrument(self.checks[0], trace=False) as inst:
            timed = self.loop(seconds, inst, self.min_chunks)
        setup += self.setup_times(reps)
        chunks = timed["chunks"]
        chunk_ops = self.wl.ops(self.wl.config(0, self.chunk))
        pooled = [rows for rows in chunks[: self.min_chunks] if rows is not None]
        figures = self.wl.figures(pooled) if pooled else {"error_ratio": math.nan}
        for problem in self.reference_problems(chunks[0]):
            self.checks[0].fail(chunk_ops, problem)
        metrics = {
            "ops_per_s": fast_rate(timed["rates"]),
            "setup_s": median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_ratio": figures["error_ratio"],
        }
        detail = {"ops_per_s_samples": timed["rates"], "raw_ops_per_s_samples": timed["raw"],
                  "probe_per_s_samples": timed["probe"],
                  "setup_s_samples": setup, "chunks": len(chunks), "chunk_ops": chunk_ops,
                  "timed_ops": timed["ops"], "runner_s": timed["busy"],
                  "pooled_chunks": len(pooled), "figures": figures}
        return metrics, detail

    def traced(self, seconds: float) -> tuple[dict, dict]:
        from spans import Checks, Instrument, summarize
        with Instrument(self.checks[0], trace=False) as inst:
            plain = self.loop(seconds / 2, inst, 2)
        checks = Checks()
        self.checks.append(checks)
        with Instrument(checks, trace=True) as inst:
            traced = self.loop(seconds / 2, inst, 2)
        ops, busy = traced["ops"], traced["busy"]
        self.spans = inst.spans
        summary = summarize(inst.spans)
        scaling = self.scaling(seconds)
        metrics, detail = self.layer_metrics(summary, checks, inst, ops, busy)
        metrics["runners.scaling_2w"] = scaling["ratio"]
        metrics["trace.overhead"] = 100.0 * (1.0 - fast_rate(traced["rates"])
                                             / fast_rate(plain["rates"]))
        detail.update({"untraced_ops_per_s": plain["rates"], "traced_ops_per_s": traced["rates"],
                       "traced_ops": ops, "traced_runner_s": busy, "scaling": scaling})
        return metrics, detail

    def layer_metrics(self, summary, checks, inst, ops, busy) -> tuple[dict, dict]:
        """Per-layer metrics; shares are of ``busy``, the seconds in runner calls."""
        from chirpim.util import SPEED_OF_LIGHT
        names = summary["names"]

        def total(name):
            return names[name]["total_s"] if name in names else 0.0

        def calls(name):
            return names[name]["calls"] if name in names else 0

        layer_self = summary["layer_self_s"]
        trials = ops if self.wl.kind not in ("pmepr", "bler") else 0
        metrics = {
            "chirps.fdss.setup_s": median(names.get("chirps.fdss", {}).get("durations", [])),
            "chirps.measure_pmepr.bytes_per_frame_computed": median(inst.bytes_per_frame),
            "indexing.random_words.s_per_word": total("indexing.random_words") / max(checks.words, 1),
            "indexing.random_words.words": checks.words,
            "runners.self_s_per_op": layer_self["runners"] / ops,
        }
        for name in SHARES:
            metrics[f"{name}.share"] = 100.0 * total(name) / busy
        for layer, self_s in layer_self.items():
            metrics[f"{layer}.self_share"] = 100.0 * self_s / busy
        metrics["radar.calls_per_trial"] = (
            (calls("radar.estimate_multi_mf") + calls("radar.estimate_lmmse")) / trials
            if trials else 0)
        metrics["radar.final_step_m"] = median(checks.final_steps) * SPEED_OF_LIGHT / 2.0
        metrics["radar.outlier_ratio"] = checks.outliers / max(checks.estimates, 1)
        metrics["radar.edge_ratio"] = checks.edges / max(checks.estimates, 1)

        absolute = {}
        for name, unit in ABSOLUTE:
            if calls(name):
                per = calls(name) if unit == "s_per_call" else ops
                absolute[f"{name}.{unit}"] = total(name) / per
        detail = {"span_totals": {n: {"calls": e["calls"], "total_s": e["total_s"]}
                                  for n, e in names.items()},
                  "layer_self_s": layer_self,
                  "coverage": math.fsum(layer_self.values()) / busy,
                  "absolute": absolute, "baseline": self.baseline(absolute, metrics)}
        return metrics, detail

    def baseline(self, absolute: dict, metrics: dict) -> list[dict]:
        """Compare with the hand-measured Baseline rows of ROADMAP.md."""
        rows = []
        mf = absolute.get("radar.estimate_multi_mf.s_per_call")
        if mf is not None:
            cfg = self.wl.base
            # estimate_multi_mf(obs, n) runs n searches, then 2 update passes of n
            targets = 1 if self.wl.kind == "single" else 2
            searches = targets + (2 * targets if targets > 1 else 0)
            rows.append({"row": f"MF estimate, one search ({cfg.preset})",
                         "baseline_s": BASELINE_MF_SEARCH_S[cfg.preset],
                         "measured_s": mf / searches, "searches_per_call": searches})
        if self.wl.name in BASELINE_WORD_S:
            rows.append({"row": "random_words per word (paper, delta=84)",
                         "baseline_s": BASELINE_WORD_S[self.wl.name],
                         "measured_s": metrics["indexing.random_words.s_per_word"]})
        for row in rows:
            row["ratio"] = row["measured_s"] / row["baseline_s"]
        return rows


def print_report(report: dict) -> None:
    wl, env = report["workload"], report["environment"]
    print(f"workload {wl['name']}: {wl['why']}")
    print(f"  operation: {wl['operation']}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    units = {**END_TO_END, **PER_LAYER}
    detail = report["detail"]
    counts = {"ops_per_s": len(detail.get("ops_per_s_samples", [])),
              "setup_s": len(detail.get("setup_s_samples", []))}
    for name, value in report["metrics"].items():
        note = f"  (median of {counts[name]})" if name in counts else ""
        if name == "ops_per_s":
            raw = detail["raw_ops_per_s_samples"]
            note = (f"  (90th percentile of {counts[name]} probe-scaled chunk rates; "
                    f"as measured: 90th percentile {fast_rate(raw):.6g}, median {median(raw):.6g})")
        print(f"  {name:48s} {value:.6g} {units[name]}{note}")
    for name, value in detail.get("figures", {}).items():
        print(f"  {name:48s} {value:.6g}  (pooled over {detail['pooled_chunks']} chunks)")
    for name, value in detail.get("absolute", {}).items():
        print(f"  {name:48s} {value:.6g} s")
    if "coverage" in detail:
        print(f"  layer self times cover {100 * detail['coverage']:.2f}% of the traced time in "
              f"runner calls ({detail['traced_runner_s']:.3f} s, {detail['traced_ops']} ops)")
        scaling = detail["scaling"]
        print(f"  scaling job: {scaling['ops']} ops, {scaling['pairs']} pairs, "
              f"workers=1 {median(scaling['workers1_s']):.3f} s, "
              f"workers=2 {median(scaling['workers2_s']):.3f} s")
    for row in detail.get("baseline", []):
        print(f"  baseline {row['row']}: ROADMAP {row['baseline_s']:.4g} s, "
              f"measured {row['measured_s']:.4g} s ({row['ratio']:.2f}x)")
    print(f"  attempted {report['attempted']}, failed {report['failed']} "
          f"(failed_ratio {report['failed'] / report['attempted']:.6g})")
    for problem in report["problems"]:
        print(f"  check failed: {problem}")


def run_one(args) -> dict:
    from workloads import WORKLOADS
    # CHIRPIM_WORKERS would override the worker counts the benchmark sets
    chirpim_workers = os.environ.pop("CHIRPIM_WORKERS", None)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.smoke)
    if args.trace:
        metrics, detail = bench.traced(args.seconds)
    else:
        metrics, detail = bench.untraced(args.seconds)
    wl = bench.wl
    report = {
        "workload": {"name": wl.name, "why": wl.why, "operation": wl.operation,
                     "chunk": bench.chunk, "scale": bench.scale},
        "environment": environment(args.seed, [1, 2] if args.trace else 1, chirpim_workers),
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "metrics": metrics, "detail": detail,
        "attempted": bench.attempted, "failed": bench.failed, "problems": bench.problems,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tag = "-smoke" if args.smoke else ""
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}{tag}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1, default=float))
    if bench.spans:
        # one [name, start, end, parent index, operation id] row per span
        (results / f"{stem}-spans.json").write_text(json.dumps(bench.spans))
    return report


def result_line(report: dict) -> str:
    units = END_TO_END if report["trace"] == 0 else PER_LAYER
    return json.dumps({
        "correct": report["failed"] == 0, "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })


def run_all(args) -> int:
    """Every workload in its own process; a table, then a combined line."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        print(out.stdout, end="")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chirpim" / "__init__.py").is_file():
        print(f"perfbench: no chirpim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    report = run_one(args)
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
