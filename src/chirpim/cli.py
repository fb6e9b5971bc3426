"""Command-line harness.

Experiment subcommands (pmepr, bler, radar-rmse, resolution) run Monte
Carlo sweeps from a preset or an INI config file and write CSV. Codec
subcommands (count, rank, unrank, delta-no-loss) expose the separation-
constrained index codec with decimal I/O; gcp-check and crlb expose the
complementary-pair test and the range bounds.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import indexing
from .channel import RadarScene
from .chirps import ChirpFamily, gcp_from_chirps, is_gcp, linear_chirp_coeffs, \
    sinusoidal_chirp_coeffs
from .config import ExperimentConfig, load_config, preset
from .modem import Scheme
from .radar import crlb_coeff, crlb_range, crlb_range_no_phase, min_resolution
from .runners import run_bler, run_pmepr_ccdf, run_radar_rmse, run_resolution
from .util import default_band


def _experiment_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file (overrides the preset)")
    sub.add_argument("--preset", default="desk", choices=["desk", "paper", "paper1448"])
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--out", help="CSV output path")
    sub.add_argument("--scheme", choices=[s.value for s in Scheme])
    sub.add_argument("--family", choices=[f.value for f in ChirpFamily])
    sub.add_argument("--L", dest="length", type=int)
    sub.add_argument("--delta", type=int)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--snrs", help="comma-separated SNR dB sweep")
    sub.add_argument("--workers", type=int)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else preset(args.preset)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out"] = args.out
    if args.scheme:
        updates["scheme"] = Scheme(args.scheme)
    if args.family:
        updates["family"] = ChirpFamily(args.family)
    if args.length is not None:
        updates["length"] = args.length
    if args.delta is not None:
        updates["delta"] = args.delta
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.snrs:
        updates["snr_db"] = tuple(float(s) for s in args.snrs.split(","))
    if args.workers is not None:
        updates["workers"] = args.workers
    return replace(cfg, **updates) if updates else cfg


def _print_rows(rows: list[dict]) -> None:
    if not rows:
        return
    names = list(rows[0])
    print(",".join(names))
    for row in rows:
        print(",".join(str(row[n]) for n in names))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="chirpim")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("pmepr", "bler", "resolution"):
        _experiment_args(subs.add_parser(name))
    radar = subs.add_parser("radar-rmse")
    _experiment_args(radar)
    radar.add_argument("--scenario", default="single", choices=["single", "two"])

    count = subs.add_parser("count", help="number of separation-valid index sequences")
    unrank = subs.add_parser("unrank", help="rank -> index sequence")
    rank = subs.add_parser("rank", help="index sequence -> rank")
    dnl = subs.add_parser("delta-no-loss", help="largest separation with no bit loss")
    for sub in (count, unrank, rank, dnl):
        sub.add_argument("--M", type=int, required=True)
        sub.add_argument("--L", type=int, required=True)
    for sub in (count, unrank, rank):
        sub.add_argument("--delta", type=int, default=0)
    unrank.add_argument("--n", type=int, required=True)
    rank.add_argument("--indices", required=True, help="comma-separated, e.g. 0,4,7")

    gcp = subs.add_parser("gcp-check", help="test the two-chirp Golay construction")
    gcp.add_argument("--family", default="sinusoidal", choices=[f.value for f in ChirpFamily])
    gcp.add_argument("--D", type=float, required=True)
    gcp.add_argument("--M", type=int, required=True)
    gcp.add_argument("--shifts", default="0,1", help="two shifts, e.g. 0,1")
    gcp.add_argument("--tol", type=float, default=1e-2)

    crlb = subs.add_parser("crlb", help="range/coefficient bounds for a preset")
    crlb.add_argument("--preset", default="desk", choices=["desk", "paper", "paper1448"])
    crlb.add_argument("--snr", type=float, default=30.0)
    crlb.add_argument("--range-m", type=float, default=2.0)
    crlb.add_argument("--coeff", type=float, default=-1.0)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd in ("pmepr", "bler", "radar-rmse", "resolution"):
        cfg = _build_config(args)
        if cmd == "pmepr":
            rows = run_pmepr_ccdf(cfg, out=cfg.out)
        elif cmd == "bler":
            rows = run_bler(cfg, out=cfg.out)
        elif cmd == "radar-rmse":
            rows = run_radar_rmse(cfg, scenario=args.scenario, out=cfg.out)
        else:
            rows = run_resolution(cfg, out=cfg.out)
        if cfg.out:
            print(f"wrote {cfg.out} ({len(rows)} rows)")
        else:
            _print_rows(rows)
        return 0

    if cmd == "count":
        print(indexing.index_count(args.L, args.delta, args.M))
    elif cmd == "unrank":
        idx = indexing.rank_to_indices(args.n, args.M, args.L, args.delta)
        print(",".join(str(i) for i in idx))
    elif cmd == "rank":
        idx = tuple(int(t) for t in args.indices.split(","))
        print(indexing.indices_to_rank(idx, args.M, args.L, args.delta))
    elif cmd == "delta-no-loss":
        print(indexing.delta_no_loss(args.M, args.L))
    elif cmd == "gcp-check":
        l_d, l_u = default_band(args.M)
        k = np.arange(l_d, l_u + 1)
        coeffs = (linear_chirp_coeffs(args.D, k) if args.family == "linear"
                  else sinusoidal_chirp_coeffs(args.D, k))
        s_p, s_r = (int(t) for t in args.shifts.split(","))
        a, b = gcp_from_chirps(coeffs, s_p, s_r, 1.0, 1.0, l_d=l_d)
        check = is_gcp(a, b, args.tol)
        print(f"{'PASS' if check.is_pair else 'FAIL'} max_violation={check.max_violation:.6e} "
              f"tol={args.tol:g}")
        return 0 if check.is_pair else 1
    elif cmd == "crlb":
        cfg = preset(args.preset)
        scene = RadarScene(targets=((args.range_m, args.coeff),), f_c=cfg.f_c,
                           t_s=cfg.t_s, t_cp=cfg.t_cp)
        sigma2 = 10.0 ** (-args.snr / 10.0)
        fdss = cfg.modem_config().fdss
        print(f"r_min_m={min_resolution(cfg.bandwidth_hz):.6g}")
        print(f"crlb_range_m={np.sqrt(crlb_range(scene, fdss, sigma2)):.6g}")
        print(f"crlb_range_no_phase_m={np.sqrt(crlb_range_no_phase(scene, cfg.m, sigma2)):.6g}")
        print(f"crlb_coeff={np.sqrt(crlb_coeff(scene, fdss, sigma2)):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
