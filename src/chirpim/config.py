"""Experiment configuration: presets, INI-file loading, derived objects.

Two built-in numerologies:

* ``desk``  - M=64 on a 1.44 Gsps grid at a 6.48 GHz carrier. Small enough
  that every experiment finishes in minutes on a laptop while keeping the
  carrier-to-bandwidth ratio of the full-scale setup.
* ``paper`` - the 802.11ay-style numerology (M=1536, N=2048, 10.56 Gsps,
  64.8 GHz). ``paper1448`` is the variant where the bin window +-723/724
  is taken literally, giving M=1448.

Config files are flat INI text (``key = value`` under sections); every key
defaults from the chosen preset. See docs/formats.md for the schema.
"""
from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, replace

from .chirps import ChirpFamily, ChirpSpec
from .modem import ModemConfig, Scheme

EXPERIMENT_IDS = {"pmepr": 1, "bler": 2, "radar-rmse": 3, "resolution": 4}


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    scheme: Scheme
    family: ChirpFamily
    m: int
    n: int
    n_cp: int
    length: int
    h: int
    delta: int
    d: float
    sample_rate: float
    f_c: float
    # sweep axes: exactly one is used per experiment
    snr_db: tuple[float, ...] = ()
    ebn0_db: tuple[float, ...] = ()
    spacing_rmin: tuple[float, ...] = ()
    resolution_snr_db: float = 20.0
    # Monte Carlo
    trials: int = 1000
    target_errors: int = 100
    max_trials: int = 200_000
    batch: int = 2048
    seed: int = 1
    workers: int = 1
    # channel
    fading: bool = False
    pdp: tuple[tuple[float, float, float], ...] = ()
    # radar scenarios
    single_range_m: tuple[float, float] = (1.0, 2.5)
    two_range_m: tuple[float, float] = (1.0, 2.3)
    two_spacing_rmin: tuple[float, float] = (1.5, 2.0)
    single_coeff: float = -1.0
    two_coeff: float = -0.7071067811865476
    out: str | None = None

    def __post_init__(self):
        for name in ("trials", "batch", "max_trials", "target_errors", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    @property
    def t_s(self) -> float:
        return self.n / self.sample_rate

    @property
    def t_cp(self) -> float:
        return self.n_cp / self.sample_rate

    @property
    def bandwidth_hz(self) -> float:
        return self.d / self.t_s

    def chirp_spec(self) -> ChirpSpec:
        return ChirpSpec.centered(self.family, self.d, self.m, self.t_s)

    def modem_config(self) -> ModemConfig:
        chirp = self.chirp_spec() if self.scheme is Scheme.CSC_IM else None
        return ModemConfig(scheme=self.scheme, m=self.m, n=self.n, n_cp=self.n_cp,
                           length=self.length, h=self.h, delta=self.delta,
                           t_s=self.t_s, chirp=chirp)

    def sha(self) -> str:
        """Hash of the result-relevant fields: ``workers`` and ``out`` do not
        change the rows, so they are reset before hashing."""
        relevant = replace(self, workers=1, out=None)
        return hashlib.sha1(repr(relevant).encode()).hexdigest()[:12]


_DESK_DELTAS = {2: 15, 5: 10}
_PAPER_DELTAS = {2: 84, 5: 252}

_DESK_PDP = ((0.0, 0.0, 10.0), (10e-9, -10.0, 0.0), (20e-9, -20.0, 0.0))


def desk_preset(scheme: Scheme = Scheme.CSC_IM, length: int = 2,
                family: ChirpFamily = ChirpFamily.LINEAR,
                separated: bool = False, **overrides) -> ExperimentConfig:
    """Down-scaled numerology for fast runs. ``separated=True`` applies the
    per-L default separation (15 for L=2, 10 for L=5)."""
    delta = _DESK_DELTAS.get(length, 0) if separated else 0
    cfg = ExperimentConfig(
        preset="desk", scheme=scheme, family=family, m=64, n=128, n_cp=32,
        length=length, h=4, delta=delta, d=48.0, sample_rate=1.44e9,
        f_c=6.48e9, snr_db=tuple(range(0, 22, 2)), pdp=_DESK_PDP,
        trials=2000)
    return replace(cfg, **overrides) if overrides else cfg


def paper_preset(scheme: Scheme = Scheme.CSC_IM, length: int = 2,
                 family: ChirpFamily = ChirpFamily.LINEAR,
                 separated: bool = False, literal_band: bool = False,
                 **overrides) -> ExperimentConfig:
    """802.11ay-style numerology. With ``literal_band`` the bin window is
    -723..724 (M=1448); otherwise M=1536 and the window follows from it."""
    m = 1448 if literal_band else 1536
    delta = _PAPER_DELTAS.get(length, 0) if separated else 0
    cfg = ExperimentConfig(
        preset="paper1448" if literal_band else "paper", scheme=scheme,
        family=family, m=m, n=2048, n_cp=512, length=length, h=4, delta=delta,
        d=1382.0, sample_rate=10.56e9, f_c=64.8e9,
        snr_db=tuple(range(0, 22, 2)), pdp=_DESK_PDP,
        single_range_m=(2.0, 3.0), two_range_m=(2.0, 3.0), trials=2000)
    return replace(cfg, **overrides) if overrides else cfg


def preset(name: str, **kwargs) -> ExperimentConfig:
    if name == "desk":
        return desk_preset(**kwargs)
    if name == "paper":
        return paper_preset(**kwargs)
    if name == "paper1448":
        return paper_preset(literal_band=True, **kwargs)
    raise ValueError(f"unknown preset {name!r} (expected desk, paper, paper1448)")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _pdp(text: str) -> tuple[tuple[float, float, float], ...]:
    """delay_ns:power_db:rician_k triples; delays stored in seconds."""
    taps = []
    for tap in text.split(","):
        d, p, k = tap.split(":")
        taps.append((float(d) * 1e-9, float(p), float(k)))
    return tuple(taps)


def _flag(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


# (section, key) -> (ExperimentConfig field, parser); see docs/formats.md
_INI_KEYS = {
    ("waveform", "preset"): ("preset", str),
    ("waveform", "scheme"): ("scheme", Scheme),
    ("waveform", "family"): ("family", ChirpFamily),
    ("waveform", "m"): ("m", int),
    ("waveform", "n"): ("n", int),
    ("waveform", "n_cp"): ("n_cp", int),
    ("waveform", "l"): ("length", int),
    ("waveform", "h"): ("h", int),
    ("waveform", "delta"): ("delta", int),
    ("waveform", "d"): ("d", float),
    ("waveform", "sample_rate_hz"): ("sample_rate", float),
    ("waveform", "carrier_hz"): ("f_c", float),
    ("sweep", "snr_db"): ("snr_db", _floats),
    ("sweep", "ebn0_db"): ("ebn0_db", _floats),
    ("sweep", "spacing_rmin"): ("spacing_rmin", _floats),
    ("sweep", "resolution_snr_db"): ("resolution_snr_db", float),
    ("montecarlo", "trials"): ("trials", int),
    ("montecarlo", "target_errors"): ("target_errors", int),
    ("montecarlo", "max_trials"): ("max_trials", int),
    ("montecarlo", "batch"): ("batch", int),
    ("montecarlo", "seed"): ("seed", int),
    ("montecarlo", "workers"): ("workers", int),
    ("channel", "fading"): ("fading", _flag),
    ("channel", "pdp"): ("pdp", _pdp),
    ("radar", "single_range_m"): ("single_range_m", _floats),
    ("radar", "two_range_m"): ("two_range_m", _floats),
    ("radar", "two_spacing_rmin"): ("two_spacing_rmin", _floats),
    ("radar", "single_coeff"): ("single_coeff", float),
    ("radar", "two_coeff"): ("two_coeff", float),
    ("output", "path"): ("out", str),
}


def load_config(path: str) -> ExperimentConfig:
    """Read a flat INI config; unset keys fall back to the preset, unknown
    sections and keys are rejected by name."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path) as fh:
        parser.read_file(fh)
    sections = {section for section, _ in _INI_KEYS}
    unknown = [f"section [{section}]" for section in parser.sections()
               if section not in sections]
    unknown += [f"key {key!r} in [{section}]" for section in parser.sections()
                if section in sections for key in parser[section]
                if (section, key) not in _INI_KEYS]
    if unknown:
        raise ValueError(f"{path}: unknown {', '.join(unknown)}")
    values = {field: conv(parser[section][key])
              for (section, key), (field, conv) in _INI_KEYS.items()
              if parser.has_option(section, key)}
    return replace(preset(values.get("preset", "desk")), **values)
