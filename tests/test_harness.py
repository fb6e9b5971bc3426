"""CLI surface, config loading, CSV format, reproducibility."""
import ast
import hashlib
import importlib
import inspect
import json
import pkgutil
import re
import shlex
import subprocess
import sys
import tracemalloc
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chirpim
import chirpim.modem
from chirpim.chirps import FRAME_BLOCK, PMEPR_OVERSAMPLE, ChirpFamily, measure_pmepr
from chirpim.cli import _RUNNERS, _build_config, _parse_args, main
from chirpim.config import CONFIG_KEYS, PRESETS, desk_preset, load_config, paper_preset, \
    preset
from chirpim.modem import ModemConfig, Scheme, atom_peaks, frame_from_symbols
from chirpim import runners
from chirpim.runners import PMEPR_THRESHOLDS, run_bler, run_pmepr_ccdf, run_radar_rmse, \
    run_resolution

from oracles import radar_batch_draws, walking_unrank


# ---------------------------------------------------------------------------
# CLI codec subcommands (decimal I/O)
# ---------------------------------------------------------------------------

def test_cli_count(capsys):
    assert main(["count", "--M", "10", "--L", "3", "--delta", "2"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_cli_unrank(capsys):
    assert main(["unrank", "--n", "1", "--M", "10", "--L", "3", "--delta", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0,4,7"


def test_cli_rank(capsys):
    assert main(["rank", "--indices", "0,4,7", "--M", "10", "--L", "3",
                 "--delta", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


# paper-scale (M=1536) rows captured from the earlier walking unranker
@pytest.mark.parametrize("length, delta, rank, indices", [
    ("2", "84", "1000000", "1135,1306"),
    ("2", "0", "999999", "937,1316"),
    ("5", "252", "12345678901", "52,316,600,866,1188"),
    ("5", "252", "23492213852", "100,400,700,1000,1300"),
])
def test_cli_unrank_rank_paper_scale(length, delta, rank, indices, capsys):
    code = ["--M", "1536", "--L", length, "--delta", delta]
    assert main(["unrank", "--n", rank, *code]) == 0
    assert capsys.readouterr().out.strip() == indices
    assert main(["rank", "--indices", indices, *code]) == 0
    assert capsys.readouterr().out.strip() == rank


def test_cli_delta_no_loss(capsys):
    assert main(["delta-no-loss", "--M", "64", "--L", "2"]) == 0
    assert capsys.readouterr().out.strip() == "15"


def test_cli_rejects_invalid_input(capsys):
    assert main(["unrank", "--n", "999", "--M", "10", "--L", "3", "--delta", "2"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    ("--trials", "trials must be at least 1"),
    ("--L", "need 1 <= L"),
    ("--workers", "workers must be at least 1"),
])
def test_cli_rejects_zero_values(flag, message, capsys):
    # a zero must reach the config, not fall back to the preset's value
    assert main(["pmepr", flag, "0"]) == 1
    assert message in capsys.readouterr().err


def test_cli_rejects_bad_values_by_name(capsys):
    assert main(["pmepr", "--scheme", "bogus"]) == 1
    assert "'bogus' is not a valid Scheme" in capsys.readouterr().err
    assert main(["pmepr", "--trials", "many"]) == 1
    assert "trials = 'many'" in capsys.readouterr().err
    # numpy's own refusal of a negative seed named no key
    assert main(["pmepr", "--seed", "-1"]) == 1
    assert "seed ([montecarlo] seed)" in capsys.readouterr().err


def test_cli_gcp_check(capsys):
    assert main(["gcp-check", "--D", "12", "--M", "24"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["gcp-check", "--D", "24", "--M", "24"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_crlb(capsys):
    assert main(["crlb", "--preset", "paper", "--snr", "30"]) == 0
    out = capsys.readouterr().out
    values = {line.split("=")[0]: float(line.split("=")[1])
              for line in out.strip().splitlines()}
    assert abs(values["r_min_m"] - 0.021) < 0.0005
    assert values["crlb_range_m"] < values["crlb_range_no_phase_m"]


@pytest.mark.parametrize("flag, value", [("--range-m", "nan"), ("--range-m", "inf"),
                                         ("--coeff", "nan"), ("--coeff", "inf")])
def test_cli_crlb_rejects_nonfinite_scene(flag, value, capsys):
    # used to exit 0 and print crlb_range_m=nan
    assert main(["crlb", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "must be finite" in captured.err


@pytest.mark.parametrize("snr", ["-3200", "3200", "nan"])
def test_cli_crlb_rejects_an_unusable_snr(snr, capsys):
    # -3200 dB used to end in an OverflowError traceback
    assert main(["crlb", f"--snr={snr}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "sigma2" in captured.err


def test_cli_experiment_roundtrip(tmp_path, capsys):
    out = tmp_path / "radar.csv"
    code = main(["radar-rmse", "--preset", "desk", "--L", "1", "--trials", "10",
                 "--snrs", "20", "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# chirpim radar-rmse preset=desk seed=7")
    assert lines[1].split(",")[0] == "snr_db"
    assert len(lines) == 3


@pytest.mark.parametrize("argv, axis", [
    (["radar-rmse", "--snrs", ""], "[sweep] snr_db (--snrs)"),
    (["bler", "--snrs", " "], "[sweep] snr_db (--snrs) and ebn0_db"),
])
def test_cli_rejects_empty_sweep(argv, axis, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert axis in capsys.readouterr().err
    assert not out.exists()


def readme_cli_lines() -> list[str]:
    """The ``chirpim ...`` lines of the README's CLI code block, comments cut."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("chirpim ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_examples_parse(line):
    # parse only: nothing runs, and a --config file need not exist
    args = _parse_args(shlex.split(line)[1:])
    if args.command in _RUNNERS and not args.config:
        _build_config(args)


def test_readme_python_examples_run():
    # the blocks run in order in one namespace, as a reader would paste them
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    head, *parts = text.split("```python\n")
    assert parts
    namespace = {"__name__": "readme"}
    line = head.count("\n") + 1  # padding keeps tracebacks on README lines
    for part in parts:
        exec(compile("\n" * line + part.split("```", 1)[0], "README.md", "exec"), namespace)
        line += part.count("\n") + 1


# ---------------------------------------------------------------------------
# Presets and config files
# ---------------------------------------------------------------------------

def test_cli_runs_from_config_file(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    out = tmp_path / "bler.csv"
    path.write_text(f"""
[waveform]
preset = desk
scheme = dft-s-ofdm-im

[sweep]
snr_db = -8

[montecarlo]
target_errors = 20
max_trials = 2048
batch = 512
seed = 5

[output]
path = {out}
""")
    assert main(["bler", "--config", str(path)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# chirpim bler preset=desk seed=5")
    assert len(lines) == 3


def test_desk_preset_numerology():
    cfg = desk_preset()
    assert (cfg.m, cfg.n, cfg.n_cp) == (64, 128, 32)
    assert np.isclose(cfg.t_s, 128 / 1.44e9)
    assert np.isclose(cfg.t_cp, cfg.t_s / 4)
    assert desk_preset(length=2, separated=True).delta == 15
    assert desk_preset(length=5, separated=True).delta == 10


def test_paper_preset_numerology():
    cfg = paper_preset()
    assert (cfg.m, cfg.n, cfg.n_cp) == (1536, 2048, 512)
    assert abs(cfg.t_s - 194e-9) < 1e-9
    assert abs(cfg.t_cp - 48.48e-9) < 0.1e-9
    assert cfg.f_c == 64.8e9
    assert paper_preset(length=2, separated=True).delta == 84
    assert paper_preset(length=5, separated=True).delta == 252
    literal = preset("paper1448")
    assert literal.m == 1448
    assert literal.modem_config().fdss.l_d == -723
    assert literal.modem_config().fdss.l_u == 724


# sha256 of preset(name, family=f).modem_config().fdss.g, and its lowest bin
PINNED_FDSS = {
    ("desk", "linear"): "0e8fb469f8a8cf34cf776d75dab78b8a0d870dacfae3dcccd3678295f4cf6f3e",
    ("desk", "sinusoidal"): "bc291a4ce85f912a52824ec7c3ab15026ab1ca7550fbc5f6f68747e9218cf202",
    ("paper", "linear"): "1b531815c0067a0a74e54e3e30f9024d0b73536fdeee2a6a16706bd0ded20efe",
    ("paper", "sinusoidal"): "1f115f41ab5fd2d6ec7feb06bac591f969296141a76c8e7139192d5b1314bfaf",
    ("paper1448", "linear"): "2ed942d7b2cc19bb91aeeee5c6437409127682282ff294441b8d08ba46e73eab",
    ("paper1448", "sinusoidal"): "978100d8cc071503ef8c2ea3bf6df1b5d749de1be2ba5f4af5035022e1502b36",
}
PINNED_FDSS_L_D = {"desk": -31, "paper": -767, "paper1448": -723}


@pytest.mark.parametrize("name, family", sorted(PINNED_FDSS))
def test_fdss_profiles_pinned(name, family):
    fdss = preset(name, family=family).modem_config().fdss
    assert hashlib.sha256(fdss.g.tobytes()).hexdigest() == PINNED_FDSS[name, family]
    assert fdss.l_d == PINNED_FDSS_L_D[name]


def test_preset_unknown_name():
    with pytest.raises(ValueError) as err:
        preset("bench")
    assert all(name in str(err.value) for name in PRESETS)


def test_config_file_overrides(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("""
[waveform]
preset = desk
scheme = dft-s-ofdm-im
l = 5
delta = 10

[sweep]
snr_db = -4, -2, 0

[montecarlo]
trials = 123
seed = 99

[radar]
single_range_m = 1.5, 2.0

[output]
path = out.csv
""")
    cfg = load_config(str(path))
    assert cfg.scheme is Scheme.DFT_S_OFDM_IM
    assert cfg.length == 5 and cfg.delta == 10
    assert cfg.snr_db == (-4.0, -2.0, 0.0)
    assert cfg.trials == 123 and cfg.seed == 99
    assert cfg.single_range_m == (1.5, 2.0)
    assert cfg.out == "out.csv"
    assert cfg.m == 64  # untouched desk value


@pytest.mark.parametrize("field", ["trials", "batch", "max_trials", "target_errors",
                                   "workers"])
def test_config_rejects_zero_counts(field):
    with pytest.raises(ValueError, match=field):
        desk_preset(**{field: 0})
    with pytest.raises(ValueError, match=field):
        replace(desk_preset(), **{field: -1})


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match=r"seed \(\[montecarlo\] seed\)"):
        desk_preset(seed=-1)
    assert desk_preset(seed=0).seed == 0


@pytest.mark.parametrize("text, named", [
    ("[waveform]\nschem = ofdm-im\n", "key 'schem' in [waveform]"),
    ("[montecarlo]\ntirals = 5\n", "key 'tirals' in [montecarlo]"),
    ("[waveform]\npreset = desk\n[bogus]\nseed = 3\n", "section [bogus]"),
])
def test_config_rejects_unknown_names(tmp_path, text, named):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    assert named in str(err.value)


def test_config_rejects_snr_and_ebn0_sweeps(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[sweep]\nebn0_db = 4, 6\n")
    cfg = load_config(str(path))  # the preset's snr_db does not count
    assert cfg.ebn0_db == (4.0, 6.0) and cfg.snr_db == preset("desk").snr_db
    assert run_bler(replace(cfg, max_trials=64, batch=64))[0]["axis_db"] == 4.0
    for ini, cli in (("snr_db = 0\nebn0_db = 4, 6\n", None),
                     ("ebn0_db = 4, 6\n", {"snr_db": "0, 2"})):
        path.write_text(f"[sweep]\n{ini}")
        with pytest.raises(ValueError, match=r"snr_db .* ebn0_db"):
            load_config(str(path), cli)
    path.write_text("[sweep]\nsnr_db = 0, 2\nebn0_db =\n")  # an empty list is not set
    assert load_config(str(path)).snr_db == (0.0, 2.0)


def cli_config(*argv):
    return _build_config(_parse_args(["pmepr", *argv]))


# one sample value per flagged field, as CLI text and as INI text
FLAG_SAMPLES = {
    "preset": ("paper", "paper"), "scheme": ("ofdm-im", "ofdm-im"),
    "family": ("sinusoidal", "sinusoidal"), "length": ("3", "3"),
    "delta": ("5", "5"), "snr_db": ("10,20", "10, 20"), "trials": ("77", "77"),
    "seed": ("9", "9"), "workers": ("2", "2"), "out": ("rows.csv", "rows.csv"),
}
FLAGGED = [(section, key, field, flag)
           for (section, key), (field, _, flag) in CONFIG_KEYS.items() if flag]


@pytest.mark.parametrize("section, key, field, flag", FLAGGED,
                         ids=[flag for *_, flag in FLAGGED])
def test_cli_flag_equals_ini_key(tmp_path, section, key, field, flag):
    cli_text, ini_text = FLAG_SAMPLES[field]
    path = tmp_path / "exp.ini"
    path.write_text(f"[{section}]\n{key} = {ini_text}\n")
    from_ini = load_config(str(path))
    assert cli_config(flag, cli_text) == from_ini
    assert from_ini != preset("desk")


@pytest.mark.parametrize("text", ["10 20", "10,20", "10, 20"])
def test_cli_snrs_spellings(text):
    assert cli_config("--snrs", text).snr_db == (10.0, 20.0)


def test_cli_snrs_negative_list(tmp_path, capsys):
    configs = [cli_config(*argv)
               for argv in (["--snrs", "-4,0,3"], ["--snrs=-4,0,3"], ["--snrs", "-4 0 3"])]
    assert configs[0].snr_db == (-4.0, 0.0, 3.0)
    assert configs[0] == configs[1] == configs[2]
    out = tmp_path / "rows.csv"
    assert main(["radar-rmse", "--L", "1", "--trials", "3", "--snrs", "-4,0",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_cli_preset_flag_beats_ini_preset(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[waveform]\npreset = desk\n[montecarlo]\ntrials = 5\n")
    cfg = cli_config("--config", str(path), "--preset", "paper")
    assert cfg.preset == "paper" and cfg.m == 1536
    assert cfg.trials == 5


def test_cli_flag_overrides_ini_key(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[waveform]\nl = 3\n[montecarlo]\ntrials = 5\nseed = 4\n")
    cfg = cli_config("--config", str(path), "--trials", "7")
    assert (cfg.trials, cfg.seed, cfg.length) == (7, 4, 3)
    assert cli_config() == preset("desk")


def test_enum_fields_coerced_by_value():
    cfg = desk_preset(scheme="dft-s-ofdm-im", family="sinusoidal")
    assert cfg.scheme is Scheme.DFT_S_OFDM_IM and cfg.family is ChirpFamily.SINUSOIDAL
    assert cfg.modem_config().scheme.spreads
    assert desk_preset(scheme="csc-im").sha() == desk_preset().sha()
    with pytest.raises(ValueError, match="'bogus' is not a valid Scheme"):
        desk_preset(scheme="bogus")
    with pytest.raises(ValueError, match="'chirpy' is not a valid ChirpFamily"):
        desk_preset(family="chirpy")


@pytest.mark.parametrize("overrides, named", [
    ({"single_range_m": (1.0, 5.0)}, "single_range_m"),   # c*T_cp/2 = 3.33 m
    ({"single_range_m": (2.0, 1.0)}, "single_range_m"),
    ({"single_range_m": (0.0, 1.0)}, "single_range_m"),
    ({"single_range_m": (1.0, 2.0, 3.0)}, "single_range_m"),
    ({"two_range_m": (1.0, 3.2)}, "two_range_m"),         # + 3 r_min spacing
    ({"two_range_m": (1.0, 2.3), "two_spacing_rmin": (1.5, 4.0)}, "two_range_m"),
    ({"two_range_m": (1.0, 2.3), "spacing_rmin": (0.5, 4.0)}, "two_range_m"),
    ({"two_spacing_rmin": (-1.0, 2.0)}, "two_spacing_rmin"),
])
def test_config_rejects_radar_windows(overrides, named):
    with pytest.raises(ValueError, match=named):
        desk_preset(**overrides)


@pytest.mark.parametrize("ini, flags, named", [
    ("", {"length": "0"}, "l = 0"),
    ("", {"length": "40"}, "l = 40"),
    ("", {"delta": "40"}, "delta = 40"),
    ("h = 3", {}, "h = 3"),
    ("m = 200", {}, "n = 128: must exceed m = 200"),
    ("d = 100", {}, "d = 100.0"),
])
def test_config_rejects_waveform_the_modem_refuses(tmp_path, ini, flags, named):
    # refused when the config is built, before any runner starts
    path = tmp_path / "exp.ini"
    path.write_text(f"[waveform]\n{ini}\n")
    with pytest.raises(ValueError, match=re.escape(f"[waveform] {named}")):
        load_config(str(path), flags)


@pytest.mark.parametrize("overrides, named", [
    ({"spacing_rmin": (1.0, 0.0)}, r"spacing_rmin \(\[sweep\] spacing_rmin\)"),
    ({"spacing_rmin": (1.0, -0.5)}, r"spacing_rmin \(\[sweep\] spacing_rmin\)"),
    ({"spacing_rmin": (1.0, float("inf"))}, r"spacing_rmin \(\[sweep\] spacing_rmin\)"),
    ({"single_coeff": 0.0}, r"single_coeff \(\[radar\] single_coeff\)"),
    ({"two_coeff": float("nan")}, r"two_coeff \(\[radar\] two_coeff\)"),
    ({"two_coeff": float("-inf")}, r"two_coeff \(\[radar\] two_coeff\)"),
])
def test_config_rejects_radar_fields_when_built(overrides, named):
    # each used to fail halfway through a sweep, or to write NaN bounds
    with pytest.raises(ValueError, match=named):
        desk_preset(**overrides)


@pytest.mark.parametrize("field, key", [("f_c", "carrier_hz"),
                                        ("sample_rate", "sample_rate_hz")])
def test_config_rejects_nonpositive_carrier_and_rate(field, key):
    # caught when built: later, f_c <= 0 stalls or breaks the radar delay search,
    # f_c = inf writes NaN radar rows and sample_rate = inf divides by zero
    for value in (0.0, -6.48e9, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=rf"{field} \(\[waveform\] {key}\)"):
            desk_preset(**{field: value})


@pytest.mark.parametrize("scheme", [Scheme.CSC_IM, Scheme.OFDM_IM])
def test_config_rejects_nonpositive_spread(scheme):
    # d sets the radar bandwidth of every scheme; d = 0 used to fail inside
    # min_resolution with a message that named neither field nor key; d = inf
    # made two OFDM-IM targets coincide halfway through a run
    for d in (0.0, -48.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"d \(\[waveform\] d\)"):
            desk_preset(scheme=scheme, d=d)


@pytest.mark.parametrize("overrides, named", [
    ({"pdp": ()}, r"\[channel\] fading.*\[channel\] pdp"),
    ({"pdp": ((-5e-9, 0.0, 0.0),)}, r"\[channel\] pdp tap delay"),
    ({"pdp": ((0.0, 0.0, 10.0), (50e-9, -10.0, 0.0))}, r"\[channel\] pdp tap delay"),
    ({"pdp": ((0.0, 0.0, 10.0), (22.3e-9, -10.0, 0.0))}, r"\[channel\] pdp tap delay"),
    ({"pdp": ((float("nan"), 0.0, 0.0),)}, r"\[channel\] pdp tap delay"),
    ({"pdp": ((0.0, float("inf"), 0.0),)}, r"\[channel\] pdp tap power .* Rician K"),
    ({"pdp": ((0.0, 0.0, -1.0),)}, r"\[channel\] pdp tap power .* Rician K"),
    ({"pdp": ((0.0, 0.0, float("nan")),)}, r"\[channel\] pdp tap power .* Rician K"),
])
def test_config_rejects_bad_channel_profile(overrides, named):
    # each used to build, then fail inside run_bler or return BLER 0.0
    with pytest.raises(ValueError, match=named):
        desk_preset(fading=True, **overrides)
    # without fading the profile is not used, so it is not checked
    assert desk_preset(fading=False, **overrides).pdp == overrides["pdp"]


def test_config_rejects_cyclic_prefix_of_a_symbol():
    # with T_cp >= T_s the radar search spans a whole symbol and aliases
    for n_cp in (128, 200, -1):
        with pytest.raises(ValueError, match=r"n_cp \(\[waveform\] n_cp\)"):
            desk_preset(n_cp=n_cp)
        with pytest.raises(ValueError, match="N_cp"):
            replace(desk_preset().modem_config(), n_cp=n_cp)
    assert desk_preset(n_cp=127).modem_config().n_cp == 127


def test_config_rejects_more_index_bits_than_the_runners_draw():
    # paper L = 8 has 69 index bits: it used to build, then every runner
    # stopped in its first draw with numpy's "high is out of bounds for int64"
    with pytest.raises(ValueError, match=re.escape(
            "[waveform] index_bits = 69 (M = 1536, L = 8, delta = 0) exceeds the 62-bit "
            "limit")):
        paper_preset(length=8)
    assert paper_preset(length=7).modem_config().capacity.index_bits == 61
    # the codec itself takes any size
    mcfg = ModemConfig(Scheme.OFDM_IM, 1536, 2048, 512, 8, 4)
    assert mcfg.capacity.index_bits == 69
    bits = np.random.default_rng(0).integers(0, 2, mcfg.capacity.total)
    word = chirpim.bits_to_word(bits, mcfg.m, mcfg.length, mcfg.h, mcfg.delta)
    assert np.array_equal(chirpim.word_to_bits(word), bits)


def test_runners_draw_refuses_more_index_bits_than_int64():
    # a bare ModemConfig skips the config's check: its first draw used to
    # stop with numpy's "high is out of bounds for int64"
    mcfg = ModemConfig(Scheme.OFDM_IM, 1536, 2048, 512, 8, 4)
    with pytest.raises(ValueError, match="^" + re.escape(
            "index_bits = 69 (M = 1536, L = 8, delta = 0) exceeds the 62-bit limit")):
        runners.random_words(mcfg, 4, np.random.default_rng(0))


@pytest.mark.parametrize("field, value", [
    ("snr_db", (0.0, float("nan"))), ("snr_db", (float("inf"),)),
    ("ebn0_db", (float("-inf"),)), ("resolution_snr_db", float("nan")),
    # finite, but sigma2 = 10^(-SNR/10) overflows (-3200 dB) or is subnormal
    # (+3200 dB); -3080 dB Eb/N0 is -3086.6 dB SNR on the desk frame
    ("snr_db", (20.0, -3200.0)), ("snr_db", (3200.0,)), ("ebn0_db", (-3080.0,)),
    ("resolution_snr_db", -3200.0), ("resolution_snr_db", 3200.0),
])
def test_config_rejects_nonfinite_snr(field, value):
    # a NaN SNR used to run to the end and write NaN rows; -3200 dB raised
    # OverflowError after the earlier points had run, +3200 dB wrote NaN
    with pytest.raises(ValueError, match=rf"{field} \(\[sweep\] {field}\) must be finite"):
        desk_preset(**{field: value})


def test_radar_windows_that_fit_build():
    for name in PRESETS:
        preset(name)
    cfg = desk_preset(single_range_m=(3.3, 3.3), two_range_m=(1.0, 2.9),
                      two_spacing_rmin=(1.0, 1.2), spacing_rmin=(0.5, 1.0))
    assert run_resolution(replace(cfg, trials=2))[1]["trials"] == 2
    assert run_radar_rmse(replace(cfg, trials=2, snr_db=(20.0,)), "single")[0]["trials"] == 2


def count_modem_builds(monkeypatch) -> list[str]:
    """From here on, a record of every ModemConfig built and every
    chirp_fdss call."""
    calls = []
    post_init, chirp_fdss = ModemConfig.__post_init__, chirpim.modem.chirp_fdss
    monkeypatch.setattr(ModemConfig, "__post_init__",
                        lambda self: calls.append("ModemConfig") or post_init(self))
    monkeypatch.setattr(chirpim.modem, "chirp_fdss",
                        lambda spec, m: calls.append("chirp_fdss") or chirp_fdss(spec, m))
    return calls


@pytest.mark.parametrize("build", [
    lambda ini: desk_preset(trials=16),
    lambda ini: paper_preset(Scheme.CSC_IM, length=2, family=ChirpFamily.SINUSOIDAL, trials=8),
    lambda ini: preset("paper1448", length=1, seed=3),
    lambda ini: load_config(str(ini), {"trials": "7"}),
], ids=["desk", "paper-sinusoidal", "paper1448", "load_config"])
def test_preset_and_load_config_build_once(build, tmp_path, monkeypatch):
    # every config build computes the FDSS profile (about 5 ms at paper
    # sinusoidal), so a preset with overrides must be built only once
    ini = tmp_path / "exp.ini"
    ini.write_text("[waveform]\npreset = paper\nfamily = sinusoidal\n")
    calls = count_modem_builds(monkeypatch)
    build(ini)
    assert calls == ["ModemConfig", "chirp_fdss"]


def test_fdss_profile_built_once_per_modem_config(monkeypatch):
    # the config builds the modem and its profile; the radar runs that read
    # it build neither again
    configs = [desk_preset(trials=2, seed=seed, snr_db=(20.0,), spacing_rmin=(2.0,))
               for seed in (1, 2)]
    calls = count_modem_builds(monkeypatch)
    for cfg in configs:
        run_radar_rmse(cfg, "single")
        run_resolution(cfg)
    assert calls == []


def bench_module(name: str, monkeypatch) -> types.ModuleType:
    """perfbench/<name>.py, executed from its text so that no bytecode cache
    is written under perfbench/; registered for the test's length only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, module.__name__, module)  # dataclasses look it up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_src_modules_use_every_name_they_import():
    # a deletion can leave an import behind; neither pyflakes nor ruff is a
    # dependency, so this reads the syntax tree. __init__.py re-exports, and
    # an import marked noqa: F401 says why it stays
    unused = []
    for path in sorted(Path(chirpim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__" \
                    and "noqa: F401" not in " ".join(lines[node.lineno - 1:node.end_lineno]):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def unreferenced_private_names(text: str) -> list[str]:
    """Private module-level functions, classes and constants (one leading
    underscore, not a dunder) that nothing in the module reads outside
    their own definition."""
    tree = ast.parse(text)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node
    orphans = []
    for name, definition in defined.items():
        if not name.startswith("_") or name.startswith("__"):
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if not any(isinstance(node, ast.Name) and node.id == name and id(node) not in inside
                   for node in ast.walk(tree)):
            orphans.append(name)
    return orphans


def test_src_modules_use_every_private_name_they_define():
    # a deletion can leave a private helper behind that nothing calls
    orphans = [f"{path.name} {name}"
               for path in sorted(Path(chirpim.__file__).parent.glob("*.py"))
               for name in unreferenced_private_names(path.read_text())]
    assert orphans == []
    assert unreferenced_private_names(
        "def _helper(n):\n    return _helper(n - 1)\n_LIMIT = 3\n"
        "def public():\n    return _LIMIT\n") == ["_helper"]


def public_callables():
    """(qualified name, callable) of every public function, class and
    public method that a module of chirpim defines."""
    for info in pkgutil.iter_modules(chirpim.__path__):
        module = importlib.import_module(f"chirpim.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield name, obj
            elif inspect.isclass(obj):
                yield name, obj
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{name}.{attr}", member


def test_only_the_bin_formulas_take_bins():
    # the band is default_band(M), worked out from M: only the formulas
    # that evaluate at any bins take them as a parameter
    takers = set()
    for name, obj in public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # a signature Python cannot read, e.g. an Enum's
            continue
        if {"k", "l_d"} & set(parameters):
            takers.add(name)
    assert takers == {"radar_cfr", "CommChannel.cfr", "linear_chirp_coeffs",
                      "sinusoidal_chirp_coeffs"}


def test_bench_hooks_resolve(monkeypatch):
    # the benchmark patches these names; a deleted one would break it
    for owner, attr, _ in bench_module("spans", monkeypatch).TARGETS:
        assert callable(getattr(owner, attr)), (owner, attr)


@pytest.mark.parametrize("workload", ["radar-two-desk", "radar-single-paper", "bler-paper",
                                      "pmepr-paper"])
def test_bench_chunk_passes_its_checks(workload, monkeypatch):
    # the bench wraps runner names and checks their arguments even untraced,
    # so a runner change that drops a wrapped name or changes a checked
    # signature fails the bench's run, and here; the pmepr-paper chunk runs
    # the atom path, which the bench's row checks see. Every batch draws its
    # words through random_words, which the bench counts: one word per frame
    # or trial (8 frames, 8 at each of 3 SNRs, 2 and 1 trials)
    spans = bench_module("spans", monkeypatch)
    wl = bench_module("workloads", monkeypatch).WORKLOADS[workload]
    cfg = wl.config(5, wl.smoke_chunk)
    checks = spans.Checks()
    with spans.Instrument(checks, trace=False):
        rows = wl.run(cfg)
    assert wl.check_rows(cfg, rows) == []
    assert checks.failed == 0, checks.problems
    assert checks.words == {"radar-two-desk": 2, "radar-single-paper": 1, "bler-paper": 24,
                            "pmepr-paper": 8}[workload]


def test_bench_bler_reference_rows(monkeypatch):
    # the bench refuses a bler-paper run whose first chunk at the default seed
    # differs from its stored rows; tier-1 does not collect the bench's tests
    run = bench_module("run", monkeypatch)
    wl = bench_module("workloads", monkeypatch).WORKLOADS["bler-paper"]
    rows = wl.run(wl.config(run.chunk_seed(run.DEFAULT_SEED, 0), wl.chunk))
    reference = run.HERE / "reference" / f"bler-paper-seed{run.DEFAULT_SEED}.json"
    assert rows == json.loads(reference.read_text())


def test_frame_from_symbols_calls_modem_synthesize(monkeypatch):
    calls = []
    original = chirpim.modem.synthesize
    monkeypatch.setattr(chirpim.modem, "synthesize",
                        lambda *args: calls.append(args) or original(*args))
    mcfg = desk_preset().modem_config()
    frame_from_symbols(np.ones(mcfg.m), mcfg)
    assert len(calls) == 1


def test_config_sha_ignores_workers_and_out():
    cfg = desk_preset()
    assert cfg.sha() == "f64f15ff0c05"
    assert replace(cfg, workers=2).sha() == cfg.sha()
    assert replace(cfg, out="rows.csv").sha() == cfg.sha()
    assert replace(cfg, seed=2).sha() != cfg.sha()


@pytest.mark.parametrize("name", list(PRESETS))
@pytest.mark.parametrize("overrides", [
    {}, {"workers": 2, "out": "rows.csv"}, {"scheme": "ofdm-im", "length": 1, "seed": 7},
    {"fading": True, "snr_db": (-3.5, 0.0), "spacing_rmin": (0.5, 2.0)},
    {"family": "sinusoidal", "two_coeff": 0.25, "single_range_m": (1.0, 1.5)},
], ids=["preset", "workers-out", "scheme", "sweeps", "radar"])
def test_config_sha_is_the_repr_of_the_reset_config(name, overrides, monkeypatch):
    # sha() hashes the repr of replace(cfg, workers=1, out=None) without
    # building that config, whose modem runs chirp_fdss
    cfg = preset(name, **overrides)
    calls = []
    monkeypatch.setattr(chirpim.modem, "chirp_fdss", lambda *args, **kw: calls.append(args))
    digest = cfg.sha()
    assert calls == []
    monkeypatch.undo()
    reset = repr(replace(cfg, workers=1, out=None)).encode()
    assert digest == hashlib.sha1(reset).hexdigest()[:12]


def test_runs_at_the_extreme_snrs_the_config_accepts():
    # -3080 dB is refused only as Eb/N0, after the bit-count conversion
    assert desk_preset(snr_db=(-3080.0,), resolution_snr_db=-3080.0).snr_db == (-3080.0,)
    # 2900 dB gives sigma2 = 1e-290, a normal float, but J = .../sigma2
    # overflows: the run used to write crlb_m = 0.0
    with pytest.raises(ValueError, match="sigma2 = 1e-290"):
        run_radar_rmse(desk_preset(length=1, snr_db=(2900.0,), trials=2), "single")
    # at -3070 dB (sigma2 = 1e307) the BLER point reads 1.0 against a bound
    # of 1.0: the equalizer's SNR underflows to 0, and 1/0 used to raise
    # after the 20 dB point had run. The radar run refuses the phase-unaware
    # bound, which overflows (it wrote inf).
    rows = run_bler(desk_preset(snr_db=(20.0, -3070.0), max_trials=8, batch=8))
    assert (rows[1]["bler"], rows[1]["union_bound"]) == (1.0, 1.0)
    with pytest.raises(ValueError, match="sigma2 = 1e[+]?307"):
        run_radar_rmse(desk_preset(length=1, snr_db=(-3070.0,), trials=2), "single")


@pytest.mark.parametrize("make, snrs", [
    (desk_preset, tuple(float(snr) for snr in range(-2900, -2909, -1))),
    (paper_preset, (-2880.0,)),
], ids=["desk", "paper"])
@pytest.mark.parametrize("scenario, length", [("single", 1), ("two", 2)])
def test_radar_rows_finite_at_the_lowest_snrs_that_run(make, snrs, scenario, length):
    # Im u_1 reaches about 1e157 at -2900 dB on the desk preset, so the lobe
    # pick's predicted Re z must not square it; these are the lowest SNRs
    # that run before the phase-unaware bound refuses one (desk -2908.5 dB)
    cfg = make(length=length, snr_db=snrs, trials=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_radar_rmse(cfg, scenario)
    assert len(rows) == len(snrs)
    assert all(np.isfinite(value) for row in rows for value in row.values()
               if isinstance(value, float))


def test_import_and_presets_leave_the_radar_caches_empty():
    # the search tables fill on first use, so setup pays nothing for them
    src = str(Path(chirpim.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import chirpim, chirpim.runners, chirpim.cli; "
            "from chirpim import config, radar; [config.preset(n) for n in config.PRESETS]; "
            "print(radar._plan.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0"]


def test_import_leaves_scipy_signal_unloaded():
    src = str(Path(chirpim.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import chirpim, chirpim.runners, chirpim.cli; "
            "print('scipy.signal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_config_pdp_parsing(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("""
[waveform]
preset = desk

[channel]
fading = true
pdp = 0:0:10, 10:-10:0, 20:-20:0
""")
    cfg = load_config(str(path))
    assert cfg.fading
    assert cfg.pdp == ((0.0, 0.0, 10.0), (10e-9, -10.0, 0.0), (20e-9, -20.0, 0.0))


def channel_ini(tmp_path, lines: str) -> str:
    path = tmp_path / "exp.ini"
    path.write_text(f"[waveform]\npreset = desk\n\n[channel]\n{lines}\n")
    return str(path)


@pytest.mark.parametrize("word, fading", [
    ("1", True), ("yes", True), ("TRUE", True), ("on", True), ("On", True),
    ("0", False), ("no", False), ("False", False), ("off", False), ("OFF", False),
])
def test_config_fading_takes_boolean_words(tmp_path, word, fading):
    # "on" used to read as false and run an AWGN BLER
    assert load_config(channel_ini(tmp_path, f"fading = {word}")).fading is fading


@pytest.mark.parametrize("word", ["maybe", "ture", "2", "enabled"])
def test_config_fading_rejects_other_words(tmp_path, word):
    with pytest.raises(ValueError, match=r"\[channel\] fading"):
        load_config(channel_ini(tmp_path, f"fading = {word}"))


def test_config_empty_pdp_is_no_taps(tmp_path):
    # an empty profile used to fail to unpack, even with fading off
    assert load_config(channel_ini(tmp_path, "fading = false\npdp =")).pdp == ()
    with pytest.raises(ValueError, match=r"\[channel\] fading.*\[channel\] pdp"):
        load_config(channel_ini(tmp_path, "fading = true\npdp ="))


@pytest.mark.parametrize("text", ["0:0", "0:0:10:1", "0:0:10, 10:-10", "a:0:0", "0:0:10,"])
def test_config_malformed_pdp_tap_names_the_form(tmp_path, text):
    with pytest.raises(ValueError, match="delay_ns:power_db:rician_k"):
        load_config(channel_ini(tmp_path, f"pdp = {text}"))


# ---------------------------------------------------------------------------
# Runner determinism and CSV
# ---------------------------------------------------------------------------

def test_csv_byte_identical_for_fixed_seed(tmp_path):
    cfg = desk_preset(length=1, trials=12, snr_db=(20.0,))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_radar_rmse(replace(cfg, out=str(a)), "single")
    run_radar_rmse(replace(cfg, out=str(b)), "single")
    assert a.read_bytes() == b.read_bytes()


def test_cli_csv_independent_of_workers_flag(tmp_path):
    paths = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert main(["radar-rmse", "--preset", "desk", "--L", "1", "--trials", "70",
                     "--snrs", "20", "--seed", "3", "--workers", workers,
                     "--out", str(out)]) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("experiment, scenario, overrides", [
    ("pmepr", {}, {"trials": 75, "batch": 32}),
    # the error-count stop must count a deterministic prefix of batches
    ("bler", {}, {"scheme": Scheme.DFT_S_OFDM_IM, "snr_db": (-8.0, -5.0),
                  "target_errors": 40, "batch": 128, "max_trials": 4096}),
    ("bler", {}, {"snr_db": (0.0, 6.0), "fading": True, "max_trials": 600, "batch": 256,
                  "target_errors": 100_000}),
    ("radar-rmse", {"scenario": "single"},
     {"length": 1, "trials": 130, "snr_db": (14.0,), "batch": 64}),
    ("radar-rmse", {"scenario": "two"},
     {"length": 2, "separated": True, "trials": 70, "snr_db": (20.0,)}),
    ("resolution", {}, {"length": 1, "trials": 70, "spacing_rmin": (0.5, 2.0)}),
], ids=["pmepr", "bler-errors", "bler-cap", "radar-single", "radar-two", "resolution"])
def test_every_runner_independent_of_workers(experiment, scenario, overrides, tmp_path):
    # each plan but bler-errors' ends in a short batch (75 = 2 * 32 + 11,
    # 600 = 2 * 256 + 88, 130 = 2 * 64 + 2, 70 = 64 + 6), which must read the
    # same stream in the pool
    cfg = desk_preset(**overrides)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _RUNNERS[experiment](replace(cfg, out=str(a)), **scenario)
    _RUNNERS[experiment](replace(cfg, workers=2, out=str(b)), **scenario)
    assert a.read_bytes() == b.read_bytes()


# experiment -> (CLI argv, INI text or "", sha256 of the whole CSV file:
# comment line, header, rows and line endings)
PINNED_CLI_CSV = {
    "pmepr": (["--family", "sinusoidal", "--L", "2", "--trials", "300", "--seed", "4"], "",
              "7b717638f4f634e0a18c7ca2bf5f3fb1514ad4f30b81776e1477ac78a37137dc"),
    "bler": (["--L", "2", "--snrs", "0,5", "--seed", "1"],
             "[montecarlo]\nmax_trials = 512\nbatch = 256\ntarget_errors = 50\n"
             "[channel]\nfading = true\n",
             "06e0b635dca6565aad817bfc1ce018b29918b05d6b6e4d7a96b70d6764919e45"),
    "radar-rmse": (["--scenario", "two", "--L", "2", "--delta", "15", "--snrs", "10,30",
                    "--trials", "64", "--seed", "2"], "",
                   "e7e0026b79010451c0912e752c1ecd989b9eda05e07f6626a745207dbec576ee"),
    "resolution": (["--L", "2", "--delta", "15", "--trials", "32", "--seed", "2"],
                   "[sweep]\nspacing_rmin = 0.5, 2\n",
                   "d623ddb3abad7dfd873b9bc8ca18064d75547ac9053c4c5227b98effdafcf5ed"),
}


@pytest.mark.parametrize("experiment", sorted(PINNED_CLI_CSV))
def test_cli_csv_bytes_pinned(experiment, tmp_path, capsys):
    argv, ini, digest = PINNED_CLI_CSV[experiment]
    out, config = tmp_path / "rows.csv", tmp_path / "run.ini"
    if ini:
        config.write_text(ini)
        argv = argv + ["--config", str(config)]
    assert main([experiment, "--preset", "desk", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def count_pools(monkeypatch) -> list[int]:
    """Record the worker count of every process pool the runners open."""
    pools = []

    class Counting(runners.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(runners, "ProcessPoolExecutor", Counting)
    return pools


@pytest.mark.parametrize("run, cfg", [
    # -10 and -6 dB stop on their errors after 16 and 32 frames, the others
    # run all 64
    (run_bler, desk_preset(snr_db=(-10.0, -6.0, -2.0, 2.0), batch=16, max_trials=64,
                           target_errors=10)),
    (run_resolution, desk_preset(trials=2, spacing_rmin=(0.5, 1.0, 2.0))),
], ids=["bler", "resolution"])
def test_one_pool_per_runner_call(run, cfg, monkeypatch):
    # a pool per sweep point cost a start-up and a shut-down each; the BLER
    # points that stop on their error count cancel their unstarted batches
    rows = run(cfg)
    pools = count_pools(monkeypatch)
    assert run(replace(cfg, workers=2)) == rows
    assert pools == [2]


def test_run_builds_modem_config_once(monkeypatch):
    # the modem is built once, with the config: the PMEPR and BLER runs and
    # their batches only read it
    pmepr = desk_preset(trials=40, batch=8)
    bler = desk_preset(snr_db=(0.0,), fading=True, batch=32, max_trials=64)
    calls = count_modem_builds(monkeypatch)
    run_pmepr_ccdf(pmepr)
    run_bler(bler)
    assert calls == []


def test_bler_runner_stops_on_error_count(tmp_path):
    cfg = desk_preset(scheme=Scheme.DFT_S_OFDM_IM, snr_db=(-10.0,),
                      target_errors=50, batch=256, max_trials=10_000)
    rows = run_bler(replace(cfg, out=str(tmp_path / "bler.csv")))
    assert rows[0]["errors"] >= 50
    assert rows[0]["trials"] <= 10_000
    assert rows[0]["ci_lo"] <= rows[0]["bler"] <= rows[0]["ci_hi"]
    header = (tmp_path / "bler.csv").read_text().splitlines()[1]
    assert header == "axis_db,snr_db,bler,union_bound,trials,errors,ci_lo,ci_hi"


def test_bler_point_pulls_no_batch_past_its_error_count(monkeypatch):
    # in process, batches run as the accumulator pulls them: the point stops
    # on the batch that brings its errors to target_errors, here the j-th
    # of the 64 batches max_trials allows
    cfg = desk_preset(scheme=Scheme.DFT_S_OFDM_IM, snr_db=(-8.0,), target_errors=40,
                      batch=16, max_trials=1024)
    errors = []

    def counting(*args):
        sums = bler_batch(*args)
        errors.append(sums["errors"])
        return sums

    bler_batch = runners._bler_batch
    monkeypatch.setattr(runners, "_bler_batch", counting)
    row, = run_bler(cfg)
    j = len(errors)
    assert 1 < j < cfg.max_trials // cfg.batch
    assert sum(errors[:-1]) < cfg.target_errors <= sum(errors) == row["errors"]
    assert row["trials"] == j * cfg.batch


# fading BLER rows: paper L=2 delta=84 at the bench SNRs, desk L=5 delta=10
# (174 of its 1800 frames leave the greedy detector stuck) and desk OFDM-IM,
# whose 0 dB point stops on its error count; every other point runs exactly
# max_trials frames, which no config here makes a multiple of its batch
_PINNED_BLER_CONFIGS = {
    "paper": lambda: paper_preset(Scheme.CSC_IM, length=2, separated=True, fading=True,
                                  snr_db=(-16.0, -14.0, -12.0), max_trials=200,
                                  batch=96, target_errors=1000, seed=8),
    "desk_l5": lambda: desk_preset(Scheme.CSC_IM, length=5, separated=True, fading=True,
                                   snr_db=(-6.0, 0.0, 6.0), max_trials=600, batch=256,
                                   target_errors=100_000, seed=8),
    "desk_ofdm": lambda: desk_preset(Scheme.OFDM_IM, length=2, fading=True,
                                     snr_db=(0.0, 6.0, 12.0), max_trials=600, batch=256,
                                     target_errors=20, seed=8),
}
PINNED_BLER_ROWS = {
    "paper": [
        (-16.0, -16.0, 0.1, 0.07090950193685153, 200, 20,
         0.06567044866909588, 0.1494058124327174),
        (-14.0, -14.0, 0.02, 0.00021172357435372824, 200, 4,
         0.0078044264163494685, 0.050287086905826436),
        (-12.0, -12.0, 0.0, 2.4684884802894658e-08, 200, 0,
         0.0, 0.018845326377266575),
    ],
    "desk_l5": [
        (-6.0, -6.0, 0.8183333333333334, 1.0, 600, 491,
         0.7854884512432293, 0.8471279324447146),
        (0.0, 0.0, 0.13666666666666666, 1.0, 600, 82,
         0.111483490917006, 0.16647267848628314),
        (6.0, 6.0, 0.0016666666666666668, 0.00012419532591367854, 600, 1,
         0.0002942682008495647, 0.009379560476138811),
    ],
    "desk_ofdm": [
        (0.0, 0.0, 0.046875, 3.885148966542573e-06, 512, 24,
         0.031699460685993844, 0.06879936106286864),
        (6.0, 6.0, 0.0033333333333333335, 0.0, 600, 2,
         0.0009145966868046472, 0.012071359653471395),
        (12.0, 12.0, 0.0, 0.0, 600, 0,
         0.0, 0.00636170101370071),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_BLER_ROWS))
def test_bler_rows_pinned(name):
    rows = run_bler(_PINNED_BLER_CONFIGS[name]())
    assert [tuple(row.values()) for row in rows] == PINNED_BLER_ROWS[name]


def test_bler_point_stops_at_max_trials():
    # max_trials is a hard cap: the last batch is cut short, where a point
    # used to run a whole batch past it (12 frames here, 768 for a cap of 600)
    rows = run_bler(desk_preset(snr_db=(20.0,), max_trials=10, batch=4, target_errors=1000))
    assert rows[0]["trials"] == 10
    for name, pinned in PINNED_BLER_ROWS.items():
        cfg = _PINNED_BLER_CONFIGS[name]()
        for *_, trials, errors, _, _ in pinned:
            assert trials <= cfg.max_trials
            assert errors >= cfg.target_errors or trials == cfg.max_trials, (name, trials)


def test_bler_ebn0_axis_conversion():
    cfg = desk_preset(scheme=Scheme.DFT_S_OFDM_IM, snr_db=(),
                      ebn0_db=(6.0,), target_errors=5, max_trials=512, batch=256)
    rows = run_bler(cfg)
    bits = cfg.modem_config().capacity.total
    assert np.isclose(rows[0]["snr_db"], 6.0 + 10 * np.log10(bits / 64))


def test_pmepr_rows_are_a_ccdf(tmp_path):
    cfg = desk_preset(trials=512)
    rows = run_pmepr_ccdf(replace(cfg, out=str(tmp_path / "pm.csv")))
    ccdf = [r["ccdf"] for r in rows]
    assert ccdf[0] == 1.0
    assert all(a >= b for a, b in zip(ccdf, ccdf[1:]))
    assert rows[0]["max_pmepr_db"] <= 10 * np.log10(2) + 1.5


# desk L=2, 300 frames in batches of 64 (the last one 44), seed 4: the
# maximum; the first threshold index where not every frame exceeds, and the
# exceedance counts from there until none does; a SHA-256 over the bytes of
# every _pmepr_batch value in batch order, which a last-bit change shows.
# The three spread schemes run the atom path of atom_peaks, which agrees
# with the IDFT to rounding: their counts are the IDFT path's, byte for byte
_PINNED_PMEPR_CONFIGS = {
    "csc-im-linear": (Scheme.CSC_IM, ChirpFamily.LINEAR),
    "csc-im-sinusoidal": (Scheme.CSC_IM, ChirpFamily.SINUSOIDAL),
    "dft-s-ofdm-im": (Scheme.DFT_S_OFDM_IM, ChirpFamily.LINEAR),
    "ofdm-im": (Scheme.OFDM_IM, ChirpFamily.LINEAR),
}
PINNED_PMEPR_ROWS = {
    "csc-im-linear": (3.740542007270418, 55, (299, 299, 299, 299, 299, 299, 295, 295, 288,
                                              265, 231, 211, 156, 124, 91, 74, 69, 56, 32, 1),
                      "ec3d453dca77d920f90ae6f74719afb0f424e833658fde26a80c1a33d4852f87"),
    "csc-im-sinusoidal": (3.025862277856391, 47, (299,) * 14,
                          "ac5f8d3a8ce806a949ef5af377896e08088cf1cbc47b259ad9f7ebc2340c1b2e"),
    "dft-s-ofdm-im": (17.14795780475695, 241, (),
                      "51e827ce1b230cc283482412a7da022a7f3c7d306acef13c106f9091418fe141"),
    "ofdm-im": (3.0102999566398134, 61, (),
                "ec78fba206683c09e0b4c3c3dff7731377acec86704f7103170561bb9a37fdeb"),
}


@pytest.mark.parametrize("name", sorted(PINNED_PMEPR_ROWS))
def test_pmepr_rows_pinned(name):
    scheme, family = _PINNED_PMEPR_CONFIGS[name]
    cfg = desk_preset(scheme, length=2, family=family, trials=300, batch=64, seed=4)
    max_db, first, counts, digest = PINNED_PMEPR_ROWS[name]
    counts = [300] * first + list(counts)
    counts += [0] * (len(PMEPR_THRESHOLDS) - len(counts))
    assert run_pmepr_ccdf(cfg) == [
        {"scheme": scheme.value, "pmepr_db": float(t), "ccdf": c / 300, "max_pmepr_db": max_db}
        for t, c in zip(PMEPR_THRESHOLDS, counts)]
    values = runners._batches(cfg, None, "pmepr", 0, cfg.trials, cfg.batch,
                              runners._pmepr_batch)
    assert hashlib.sha256(b"".join(v.tobytes() for v in values)).hexdigest() == digest


@pytest.mark.parametrize("name, scheme, length, atoms", [
    ("desk", Scheme.CSC_IM, 2, True), ("paper", Scheme.CSC_IM, 2, True),
    ("paper", Scheme.CSC_IM, 6, True), ("desk", Scheme.CSC_IM, 3, False),
    ("paper", Scheme.CSC_IM, 7, False), ("paper1448", Scheme.CSC_IM, 2, False),
    ("desk", Scheme.OFDM_IM, 2, False)], ids=[
    "desk-L2-atoms", "paper-L2-atoms", "paper-L6-atoms", "desk-L3-idft", "paper-L7-idft",
    "paper1448-idft", "desk-ofdm-im-idft"])
def test_pmepr_batch_matches_the_idft_oracle(name, scheme, length, atoms):
    # batches of 1, 32 and 75 (blocks of 16 and a short one), against
    # measure_pmepr of the whole batch's random_words and tx_bins: on the
    # atom path (desk up to L = 2, paper up to L = 6) every value is within
    # 1e-12 dB of it, finite, and at most the Cauchy-Schwarz ceiling
    # 10 log10 sum |w_k|^2 of p_av = M; on the IDFT path (L past the rule,
    # u = 181 > FRAME_BLOCK at M = 1448, OFDM-IM) it is the same bit for
    # bit. Either way the stream is left where random_words leaves it
    cfg = preset(name, scheme, length, ChirpFamily.SINUSOIDAL)
    mcfg = cfg.modem_config()
    for seed, batch in enumerate((1, 32, 75)):
        stream, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        values = runners._pmepr_batch(cfg, stream, batch)
        idx, psk = runners.random_words(mcfg, batch, rng)
        w = runners.tx_bins(runners.word_symbols(idx, psk, mcfg), mcfg)
        expect = np.atleast_1d(measure_pmepr(w, mcfg.n, p_av=float(mcfg.m)))
        assert values.shape == (batch,)
        assert (atom_peaks(idx, psk, mcfg) is not None) == atoms
        if atoms:
            assert np.max(np.abs(values - expect)) <= 1e-12
            assert np.all(np.isfinite(values))
            assert np.all(values <= 10 * np.log10(np.sum(np.abs(w) ** 2, axis=-1)))
        else:
            assert np.array_equal(values, expect)
        assert stream.bit_generator.state == rng.bit_generator.state


def test_pmepr_batch_memory_is_one_body_and_the_atom_table():
    # paper scale, batch 2048: the tracemalloc peak is one body, one term
    # and one |x| row, the atom table built in the call and the batch's
    # (B, L) draws (measured: 2.36 MB against 2.13 MB of body, term, |x| and
    # table), not a block of bodies, a (B, M) bins array or a whole batch of
    # symbols, spectra or oversampled grids
    cfg = paper_preset(family=ChirpFamily.SINUSOIDAL, length=2)
    mcfg, batch = cfg.modem_config(), 2048
    runners._pmepr_batch(cfg, np.random.default_rng(0), 1)  # fills the unranking table
    chirpim.modem._atom_table.cache_clear()
    tracemalloc.start()
    try:
        runners._pmepr_batch(cfg, np.random.default_rng(0), batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    p = PMEPR_OVERSAMPLE * mcfg.n
    body = p * (16 + 16 + 8)
    table = chirpim.modem._atom_table(mcfg).nbytes
    assert peak <= body + table + 2 ** 19, peak / 2 ** 20


def test_bler_batch_memory_is_the_noise_and_one_block():
    # paper CSC-IM L=2 with fading, batch 2048: the tracemalloc peak is the
    # (B, M) noise, the one real plane complex_noise draws at a time, and
    # one block's workspace (eight complex (FRAME_BLOCK, M) arrays), not a
    # whole batch of symbols, bins, CFRs or detector planes
    cfg = paper_preset(length=2, separated=True, fading=True)
    mcfg, batch = cfg.modem_config(), 2048
    runners._bler_batch(cfg, np.random.default_rng(0), 1, 0.05)  # fills the unranking table
    tracemalloc.start()
    try:
        runners._bler_batch(cfg, np.random.default_rng(0), batch, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise, plane = batch * mcfg.m * 16, batch * mcfg.m * 8
    workspace = FRAME_BLOCK * mcfg.m * 16 * 8
    assert peak <= noise + plane + workspace + 4 * 2 ** 20, peak / 2 ** 20


def test_resolution_runner_sharp_drop():
    cfg = desk_preset(length=1, trials=40, spacing_rmin=(0.5, 2.0))
    rows = run_resolution(cfg)
    assert rows[0]["rmse_mf_m"] > 5 * rows[1]["rmse_mf_m"]


@pytest.mark.parametrize("batch", [1, 5, 64])
@pytest.mark.parametrize("scenario, spacing_m", [("single", None), ("two", None),
                                                ("two", 0.02)])
def test_radar_trials_read_the_stream_in_batch_order(scenario, spacing_m, batch):
    # the oracle makes each generator call itself, in the documented order:
    # the batch's ranks, its PSK, its first ranges, any spacings, its noise;
    # the words are unranked by walking the counts, and nothing more is read
    cfg = desk_preset(length=2, separated=True)
    mcfg, sigma2 = cfg.modem_config(), 0.05
    rng, oracle = np.random.default_rng(9), np.random.default_rng(9)
    b, w, scene = runners.radar_trials(cfg, scenario, batch, sigma2, rng, spacing_m)
    ranks, psk, distances, noise = radar_batch_draws(cfg, scenario, batch, sigma2, oracle,
                                                     spacing_m)
    assert rng.random() == oracle.random()
    idx = np.array([walking_unrank(int(r), mcfg.m, mcfg.length, mcfg.delta) for r in ranks])
    assert w.flags.c_contiguous
    assert np.array_equal(w, runners.tx_bins(runners.word_symbols(idx, psk, mcfg), mcfg))
    coeff = cfg.single_coeff if scenario == "single" else cfg.two_coeff
    assert scene.targets.shape == (batch, 1 if scenario == "single" else 2, 2)
    assert np.array_equal(scene.distances, distances) and np.all(scene.coeffs == coeff)
    assert (scene.f_c, scene.t_s, scene.t_cp) == (cfg.f_c, cfg.t_s, cfg.t_cp)
    assert np.array_equal(b, runners.radar_cfr(scene, mcfg.k) * w + noise)


# SHA-256 of radar_trials' b, w and targets bytes, in that order, for one
# trial at seed 9 and sigma2 0.05 (CSC-IM with IS, L = 2): a one-trial batch
# reads the stream a trial has always read (its rank, its PSK, its range,
# any spacing not fixed, its noise), so these hold however a batch orders
# its draws
PINNED_ONE_TRIAL = {
    ("desk", "single", None):
        "c4a86d99078f97f707de29eaaef8ea7770529cede1cddbc6397a9e91dcc63080",
    ("desk", "two", None):
        "163e9319e3ce3b21df762b6b4b2804efa053cc960c3af50bf5572823a8d34f11",
    ("desk", "two", 0.02):
        "4f2c012fbee7ad2fa530868cf8cdad12e1d4bfd3dd53c5ab461fda2d5bdf194b",
    ("paper", "single", None):
        "7d438a6e36e4bcce33d89c2b9dec311e364c1e0947f71e7e0560445254bd7588",
    ("paper", "two", None):
        "dae9e6f2ed2261eea3cfb05b90941120d66a7296e335beeeb982dcd27864004e",
    ("paper", "two", 0.02):
        "c9af7cb126f9333b5f98d297470102be9dc9f6c315426a50c907ac40764aeb6c",
}


@pytest.mark.parametrize("preset_name, scenario, spacing_m", list(PINNED_ONE_TRIAL))
def test_one_trial_radar_batch_is_pinned(preset_name, scenario, spacing_m):
    cfg = preset(preset_name, length=2, separated=True)
    b, w, scene = runners.radar_trials(cfg, scenario, 1, 0.05, np.random.default_rng(9),
                                       spacing_m)
    digest = hashlib.sha256(b.tobytes() + w.tobytes() + scene.targets.tobytes()).hexdigest()
    assert digest == PINNED_ONE_TRIAL[preset_name, scenario, spacing_m]


@pytest.mark.parametrize("runner, args", [(run_radar_rmse, ("two",)), (run_resolution, ())])
def test_radar_runners_refuse_fewer_nonzero_bins_than_targets(runner, args):
    # an OFDM-IM frame at L = 1 has one nonzero bin: two targets used to end
    # in numpy's "Singular matrix"
    cfg = desk_preset(scheme="ofdm-im", length=1, trials=3, spacing_rmin=(2.0,))
    with pytest.raises(ValueError, match=r"^1 nonzero reference bin\(s\) \(row 0\) cannot "
                                         "resolve 2 targets"):
        runner(cfg, *args)


@pytest.mark.parametrize("argv", [["radar-rmse", "--scenario", "two"], ["resolution"]])
def test_cli_radar_refuses_fewer_nonzero_bins_than_targets(argv, capsys):
    assert main(argv + ["--scheme", "ofdm-im", "--L", "1", "--trials", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 1 nonzero reference bin(s)") and \
        "rank at most 2" in captured.err


def test_radar_runner_rejects_bad_scenario():
    with pytest.raises(ValueError):
        run_radar_rmse(desk_preset(), "three")


_CSV_HEADERS = {
    "pmepr": "scheme,pmepr_db,ccdf,max_pmepr_db",
    "bler": "axis_db,snr_db,bler,union_bound,trials,errors,ci_lo,ci_hi",
    "radar-rmse": "snr_db,scenario,rmse_mf_m,rmse_lmmse_m,crlb_m,crlb_expected_m,"
                  "crlb_nophase_m,trials",
    "resolution": "spacing_m,spacing_rmin,snr_db,rmse_mf_m,rmse_lmmse_m,crlb_m,"
                  "crlb_expected_m,crlb_nophase_m,trials",
}


@pytest.mark.parametrize("experiment", sorted(_CSV_HEADERS))
def test_csv_header_pinned(experiment, tmp_path):
    # the header is the row keys in order: a reordered key shows here
    out = tmp_path / "rows.csv"
    cfg = desk_preset(length=1, trials=2, snr_db=(20.0,), spacing_rmin=(2.0,),
                      batch=64, max_trials=64, out=str(out))
    _RUNNERS[experiment](cfg)
    lines = out.read_text().splitlines()
    assert lines[0].startswith(f"# chirpim {experiment} preset=desk seed=1 config=")
    assert lines[1] == _CSV_HEADERS[experiment]


def formats_columns(experiment: str) -> list[str]:
    """The columns of the table under ``### <experiment>`` in
    docs/formats.md, in order; a row may name several (``trials, errors``)."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    section = text.split(f"\n### {experiment}\n", 1)[1].split("\n#", 1)[0]
    cells = re.findall(r"^\| ([^|]+?) \|", section, flags=re.M)[2:]  # past header, rule
    return [name for cell in cells for name in cell.split(", ")]


@pytest.mark.parametrize("experiment", sorted(_CSV_HEADERS))
def test_formats_doc_lists_the_csv_columns(experiment):
    # a column added to a runner must be documented, in its place
    columns = formats_columns(experiment)
    if experiment == "resolution":  # its three, then radar-rmse's from rmse_mf_m on
        rmse = formats_columns("radar-rmse")
        columns += rmse[rmse.index("rmse_mf_m"):]
    assert columns == _CSV_HEADERS[experiment].split(",")


def test_bler_rejects_taps_beyond_cp():
    # refused when the config is built, before run_bler can start
    with pytest.raises(ValueError, match=r"\[channel\] pdp tap delay"):
        run_bler(desk_preset(snr_db=(0.0,), fading=True,
                             pdp=((0.0, 0.0, 10.0), (30e-9, -10.0, 0.0))))


def test_full_scale_smoke():
    # one loopback frame and one noiseless range estimate at M=1536
    from chirpim.channel import RadarScene, radar_cfr
    from chirpim.modem import encode, rx_frame, tx_bins, tx_frame
    from chirpim.radar import RadarObservation, estimate_multi_mf

    cfg = paper_preset(length=2, separated=True)
    mcfg = cfg.modem_config()
    assert mcfg.capacity.total == 24
    rng = np.random.default_rng(123)
    bits = rng.integers(0, 2, 24, dtype=np.uint8)
    frame = tx_frame(bits, mcfg)
    assert np.array_equal(rx_frame(frame, 1.0, 0.0, mcfg), bits)

    _, d = encode(bits, mcfg)
    w = tx_bins(d, mcfg)
    scene = RadarScene(targets=((2.5, -1.0),), f_c=cfg.f_c, t_s=cfg.t_s,
                       t_cp=cfg.t_cp)
    obs = RadarObservation(b=radar_cfr(scene, mcfg.k) * w, w=w, sigma2=1e-4,
                           f_c=cfg.f_c, t_s=cfg.t_s, t_cp=cfg.t_cp)
    est = estimate_multi_mf(obs, 1)
    assert abs(est.distances[0] - 2.5) < 1e-6
    assert abs(est.coeffs[0] + 1.0) < 1e-6


def test_more_chirps_cost_ebn0():
    # at a fixed Eb/N0, packing more chirps into the frame degrades BLER
    blers = {}
    for length in (2, 5):
        cfg = desk_preset(length=length, snr_db=(), ebn0_db=(2.0,),
                          target_errors=60, max_trials=20_000, batch=2048)
        blers[length] = run_bler(cfg)[0]["bler"]
    assert blers[5] > blers[2]
