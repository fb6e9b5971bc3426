"""Experiment configuration: presets, INI-file loading, derived objects.

The built-in numerologies are the rows of :data:`PRESETS`, and
:func:`preset` builds any of them in one ``ExperimentConfig`` call.

Config files are flat INI text (``key = value`` under sections); every key
defaults from the chosen preset, and CLI flags are spellings of some keys.
See docs/formats.md for the schema.
"""
from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .chirps import ChirpFamily, ChirpSpec
from .indexing import check_batch_index_bits
from .modem import ModemConfig, Scheme
from .radar import min_resolution
from .util import SPEED_OF_LIGHT, noise_variance

EXPERIMENT_IDS = {"pmepr": 1, "bler": 2, "radar-rmse": 3, "resolution": 4}
# spacings (in r_min units) a resolution run sweeps when spacing_rmin is empty
RESOLUTION_SPACING_RMIN = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0)


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
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "family", ChirpFamily(self.family))
        for name, key in (("sample_rate", "sample_rate_hz"), ("f_c", "carrier_hz"), ("d", "d")):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} ([waveform] {key}) must be finite and positive, "
                                 f"got {getattr(self, name)}")
        if not 0 <= self.n_cp < self.n:
            raise ValueError(f"n_cp ([waveform] n_cp) must satisfy 0 <= n_cp < n = {self.n}, "
                             f"got {self.n_cp}")
        # every run needs the modem: build it once, here, so that a bad
        # waveform key fails now and not when a runner starts
        try:
            chirp = ChirpSpec(self.family, self.d) if self.scheme is Scheme.CSC_IM else None
            modem = ModemConfig(scheme=self.scheme, m=self.m, n=self.n, n_cp=self.n_cp,
                                length=self.length, h=self.h, delta=self.delta,
                                chirp=chirp)
            # every runner draws and unranks its codewords in int64
            check_batch_index_bits(modem.capacity.index_bits, self.m, self.length, self.delta)
        except ValueError as exc:
            raise ValueError(f"[waveform] {exc}") from None
        object.__setattr__(self, "_modem", modem)
        # every SNR a runner can read must give a usable noise variance, or a
        # run would overflow, or write NaN or zero rows, after its first points
        for name, snrs in (("snr_db", self.snr_db), ("ebn0_db", self.ebn0_snr_db()),
                           ("resolution_snr_db", (self.resolution_snr_db,))):
            for snr in snrs:
                try:
                    noise_variance(snr)
                except ValueError as exc:
                    raise ValueError(f"{name} ([sweep] {name}) must be finite with a normal "
                                     f"noise variance, got {getattr(self, name)}: {exc}") from None
        for name in ("trials", "batch", "max_trials", "target_errors", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed ([montecarlo] seed) must be at least 0, got {self.seed}")
        for name in ("single_range_m", "two_range_m", "two_spacing_rmin"):
            window = getattr(self, name)
            if len(window) != 2 or not 0 < window[0] <= window[1]:
                raise ValueError(f"{name} must be two values 0 < lo <= hi, got {window}")
        # a fading run draws every tap: check them now, not when run_bler starts
        if self.fading and not self.pdp:
            raise ValueError("fading ([channel] fading) needs a power-delay profile "
                             "([channel] pdp), got none")
        for delay, power_db, k_factor in self.pdp if self.fading else ():
            if not 0.0 <= delay < self.t_cp:
                raise ValueError(f"[channel] pdp tap delay {delay:.3e}s must lie in "
                                 f"[0, T_cp = {self.t_cp:.3e}s)")
            if not (np.isfinite(power_db) and 0.0 <= k_factor < np.inf):
                raise ValueError(f"[channel] pdp tap power {power_db} dB and Rician K "
                                 f"{k_factor} must be finite, with K >= 0")
        if not all(0 < factor < np.inf for factor in self.spacing_rmin):
            raise ValueError("spacing_rmin ([sweep] spacing_rmin) must be finite and positive, "
                             f"got {self.spacing_rmin}")
        for name in ("single_coeff", "two_coeff"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) != 0):
                raise ValueError(f"{name} ([radar] {name}) must be finite and nonzero, "
                                 f"got {getattr(self, name)}")
        # the farthest target the radar runners can draw must lie inside the CP
        spacing = max(self.two_spacing_rmin[1], *(self.spacing_rmin or RESOLUTION_SPACING_RMIN))
        for name, far in (("single_range_m", self.single_range_m[1]),
                          ("two_range_m", self.two_range_m[1]
                           + spacing * min_resolution(self.bandwidth_hz))):
            if 2.0 * far / SPEED_OF_LIGHT > self.t_cp:
                raise ValueError(f"{name} places a target at {far:.3f} m, beyond c*T_cp/2 = "
                                 f"{SPEED_OF_LIGHT * self.t_cp / 2.0:.3f} m")

    @property
    def t_s(self) -> float:
        return self.n / self.sample_rate

    @property
    def t_cp(self) -> float:
        return self.n_cp / self.sample_rate

    @property
    def bandwidth_hz(self) -> float:
        return self.d / self.t_s

    def ebn0_snr_db(self) -> tuple[float, ...]:
        """The SNR of each ``ebn0_db`` point, through the frame's bit count:
        Eb/N0 + 10 log10(bits / M)."""
        bits = self.modem_config().capacity.total
        return tuple(value + 10 * np.log10(bits / self.m) for value in self.ebn0_db)

    def modem_config(self) -> ModemConfig:
        """The config's ModemConfig, built once when the config is."""
        return self._modem

    def sha(self) -> str:
        """Hash of the repr of this config with ``workers`` = 1 and ``out`` =
        None (they do not change the rows), written field by field: no build."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        text = ", ".join(f"{k}={v!r}" for k, v in (values | {"workers": 1, "out": None}).items())
        return hashlib.sha1(f"{type(self).__qualname__}({text})".encode()).hexdigest()[:12]


_PRESET_BASE = dict(h=4, snr_db=tuple(range(0, 22, 2)), trials=2000,
                    pdp=((0.0, 0.0, 10.0), (10e-9, -10.0, 0.0), (20e-9, -20.0, 0.0)))
_PAPER = dict(_PRESET_BASE, m=1536, n=2048, n_cp=512, d=1382.0, sample_rate=10.56e9,
              f_c=64.8e9, single_range_m=(2.0, 3.0), two_range_m=(2.0, 3.0))
_PAPER_IS = {2: 84, 5: 252}

# name -> (ExperimentConfig fields, index separation per L when separated).
# The first row is small enough that every experiment finishes in minutes on
# a laptop, with the carrier-to-bandwidth ratio of the 802.11ay-style second
# row; the third takes that row's bin window -723..724 literally (M=1448).
PRESETS = {
    "desk": (dict(_PRESET_BASE, m=64, n=128, n_cp=32, d=48.0, sample_rate=1.44e9,
                  f_c=6.48e9), {2: 15, 5: 10}),
    "paper": (_PAPER, _PAPER_IS),
    "paper1448": (dict(_PAPER, m=1448), _PAPER_IS),
}


def preset(name: str, scheme: Scheme = Scheme.CSC_IM, length: int = 2,
           family: ChirpFamily = ChirpFamily.LINEAR, separated: bool = False,
           **overrides) -> ExperimentConfig:
    """The config of preset ``name``, built once with ``overrides`` applied.
    ``separated=True`` applies the preset's per-L index separation (0 for
    an L it does not list)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (expected {', '.join(PRESETS)})")
    fields, separation = PRESETS[name]
    delta = separation.get(length, 0) if separated else 0
    return ExperimentConfig(**{"preset": name, "scheme": scheme, "family": family,
                               "length": length, "delta": delta, **fields, **overrides})


desk_preset = partial(preset, "desk")
paper_preset = partial(preset, "paper")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _pdp(text: str) -> tuple[tuple[float, float, float], ...]:
    """delay_ns:power_db:rician_k triples; delays stored in seconds. Empty
    text is the empty profile."""
    taps = []
    for tap in text.split(",") if text.strip() else ():
        try:
            d, p, k = (float(value) for value in tap.split(":"))
        except ValueError:
            raise ValueError(f"tap {tap.strip()!r} is not delay_ns:power_db:rician_k") from None
        taps.append((d * 1e-9, p, k))
    return tuple(taps)


def _flag(text: str) -> bool:
    """configparser's boolean words, in any case; any other word fails."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError("[channel] fading takes 1, yes, true, on, 0, no, false "
                         "or off") from None


# (section, key) -> (ExperimentConfig field, parser, CLI flag or None): the
# one schema of the INI loader and the CLI; see docs/formats.md
CONFIG_KEYS = {
    ("waveform", "preset"): ("preset", str, "--preset"),
    ("waveform", "scheme"): ("scheme", str, "--scheme"),
    ("waveform", "family"): ("family", str, "--family"),
    ("waveform", "m"): ("m", int, None),
    ("waveform", "n"): ("n", int, None),
    ("waveform", "n_cp"): ("n_cp", int, None),
    ("waveform", "l"): ("length", int, "--L"),
    ("waveform", "h"): ("h", int, None),
    ("waveform", "delta"): ("delta", int, "--delta"),
    ("waveform", "d"): ("d", float, None),
    ("waveform", "sample_rate_hz"): ("sample_rate", float, None),
    ("waveform", "carrier_hz"): ("f_c", float, None),
    ("sweep", "snr_db"): ("snr_db", _floats, "--snrs"),
    ("sweep", "ebn0_db"): ("ebn0_db", _floats, None),
    ("sweep", "spacing_rmin"): ("spacing_rmin", _floats, None),
    ("sweep", "resolution_snr_db"): ("resolution_snr_db", float, None),
    ("montecarlo", "trials"): ("trials", int, "--trials"),
    ("montecarlo", "target_errors"): ("target_errors", int, None),
    ("montecarlo", "max_trials"): ("max_trials", int, None),
    ("montecarlo", "batch"): ("batch", int, None),
    ("montecarlo", "seed"): ("seed", int, "--seed"),
    ("montecarlo", "workers"): ("workers", int, "--workers"),
    ("channel", "fading"): ("fading", _flag, None),
    ("channel", "pdp"): ("pdp", _pdp, None),
    ("radar", "single_range_m"): ("single_range_m", _floats, None),
    ("radar", "two_range_m"): ("two_range_m", _floats, None),
    ("radar", "two_spacing_rmin"): ("two_spacing_rmin", _floats, None),
    ("radar", "single_coeff"): ("single_coeff", float, None),
    ("radar", "two_coeff"): ("two_coeff", float, None),
    ("output", "path"): ("out", str, "--out"),
}
_PARSERS = {field: parse for field, parse, _ in CONFIG_KEYS.values()}


def _read_ini(path: str) -> dict[str, str]:
    """{field: text} of an INI file; unknown sections and keys fail by name."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path) as fh:
        parser.read_file(fh)
    sections = {section for section, _ in CONFIG_KEYS}
    unknown = [f"section [{section}]" for section in parser.sections()
               if section not in sections]
    unknown += [f"key {key!r} in [{section}]" for section in parser.sections()
                if section in sections for key in parser[section]
                if (section, key) not in CONFIG_KEYS]
    if unknown:
        raise ValueError(f"{path}: unknown {', '.join(unknown)}")
    return {field: parser[section][key]
            for (section, key), (field, _, _) in CONFIG_KEYS.items()
            if parser.has_option(section, key)}


def load_config(path: str | None = None,
                cli: dict[str, str | None] | None = None) -> ExperimentConfig:
    """Build a config from an INI file and command-line values.

    ``cli`` maps config fields to the text given on the command line (None
    means not given). Both sources go through the parsers of
    :data:`CONFIG_KEYS`. Precedence: the preset named by the merged
    ``preset`` value (default ``desk``), then the INI keys, then the CLI.
    A BLER run sweeps ``ebn0_db`` when it is set, so setting it next to an
    ``snr_db`` list is rejected; the preset's own ``snr_db`` does not count.
    """
    text = _read_ini(path) if path else {}
    text.update((field, value) for field, value in (cli or {}).items() if value is not None)
    values = {}
    for field, value in text.items():
        try:
            values[field] = _PARSERS[field](value)
        except ValueError as exc:
            raise ValueError(f"{field} = {value!r}: {exc}") from None
    if values.get("snr_db") and values.get("ebn0_db"):
        raise ValueError("[sweep] snr_db (--snrs) and [sweep] ebn0_db are both set; "
                         "a run sweeps one of them")
    return preset(values.pop("preset", "desk"), **values)
