"""Command-line harness.

Experiment subcommands (pmepr, bler, radar-rmse, resolution) run Monte
Carlo sweeps from a preset or an INI config file and write CSV. Codec
subcommands (count, rank, unrank, delta-no-loss) expose the separation-
constrained index codec with decimal I/O; gcp-check and crlb expose the
complementary-pair test and the range bounds.
"""
from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import indexing
from .channel import RadarScene
from .chirps import ChirpFamily, ChirpSpec, fourier_coeffs, gcp_from_chirps, is_gcp
from .config import CONFIG_KEYS, PRESETS, ExperimentConfig, load_config, preset
from .radar import crlb_coeff, crlb_range, crlb_range_no_phase, min_resolution
from .runners import run_bler, run_pmepr_ccdf, run_radar_rmse, run_resolution
from .util import noise_variance


_RUNNERS = {"pmepr": run_pmepr_ccdf, "bler": run_bler, "radar-rmse": run_radar_rmse,
            "resolution": run_resolution}


def _experiment_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file; flags override its keys")
    for (section, key), (field, _, flag) in CONFIG_KEYS.items():
        if flag:
            sub.add_argument(flag, dest=field, type=str, default=None,
                             help=f"same as [{section}] {key}")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    return load_config(args.config, {field: getattr(args, field)
                                     for field, _, flag in CONFIG_KEYS.values() if flag})


def _print_rows(rows: list[dict]) -> None:
    names = list(rows[0])
    print(",".join(names))
    for row in rows:
        print(",".join(str(row[n]) for n in names))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chirpim")
    subs = parser.add_subparsers(dest="command", required=True)

    experiments = {name: subs.add_parser(name) for name in _RUNNERS}
    for sub in experiments.values():
        _experiment_args(sub)
    experiments["radar-rmse"].add_argument("--scenario", default="single",
                                           choices=["single", "two"])

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
    crlb.add_argument("--preset", default="desk", choices=list(PRESETS))
    crlb.add_argument("--snr", type=float, default=30.0)
    crlb.add_argument("--range-m", type=float, default=2.0)
    crlb.add_argument("--coeff", type=float, default=-1.0)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line. argparse takes a value such as ``-4,0,3`` for an
    option, so a value that starts with a minus and a digit joins its flag
    first (``--snrs=-4,0,3``)."""
    joined: list[str] = []
    for tok in argv:
        if joined and joined[-1].startswith("--") and "=" not in joined[-1] \
                and re.match(r"-\.?\d", tok):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    return _parser().parse_args(joined)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd in _RUNNERS:
        cfg = _build_config(args)
        scenario = {"scenario": args.scenario} if cmd == "radar-rmse" else {}
        rows = _RUNNERS[cmd](cfg, **scenario)
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
        coeffs = fourier_coeffs(ChirpSpec(args.family, args.D), args.M)
        s_p, s_r = (int(t) for t in args.shifts.split(","))
        a, b = gcp_from_chirps(coeffs, s_p, s_r, 1.0, 1.0)
        check = is_gcp(a, b, args.tol)
        print(f"{'PASS' if check.is_pair else 'FAIL'} max_violation={check.max_violation:.6e} "
              f"tol={args.tol:g}")
        return 0 if check.is_pair else 1
    elif cmd == "crlb":
        cfg = preset(args.preset)
        scene = RadarScene(targets=((args.range_m, args.coeff),), f_c=cfg.f_c,
                           t_s=cfg.t_s, t_cp=cfg.t_cp)
        sigma2 = noise_variance(args.snr)
        g = cfg.modem_config().fdss.g
        print(f"r_min_m={min_resolution(cfg.bandwidth_hz):.6g}")
        print(f"crlb_range_m={np.sqrt(crlb_range(scene, g, sigma2)):.6g}")
        print(f"crlb_range_no_phase_m={np.sqrt(crlb_range_no_phase(scene, cfg.m, sigma2)):.6g}")
        print(f"crlb_coeff={np.sqrt(crlb_coeff(scene, g, sigma2)):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
