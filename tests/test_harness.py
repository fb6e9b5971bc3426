"""CLI surface, config loading, CSV format, reproducibility."""
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chirpim
from chirpim.cli import main
from chirpim.config import desk_preset, load_config, paper_preset, preset
from chirpim.modem import Scheme
from chirpim.runners import run_bler, run_pmepr_ccdf, run_radar_rmse, run_resolution


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


def test_cli_experiment_roundtrip(tmp_path, capsys):
    out = tmp_path / "radar.csv"
    code = main(["radar-rmse", "--preset", "desk", "--L", "1", "--trials", "10",
                 "--snrs", "20", "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# chirpim radar-rmse preset=desk seed=7")
    assert lines[1].split(",")[0] == "snr_db"
    assert len(lines) == 3


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
    assert literal.chirp_spec().l_d == -723
    assert literal.chirp_spec().l_u == 724


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        preset("bench")


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


def test_config_sha_ignores_workers_and_out():
    cfg = desk_preset()
    assert cfg.sha() == "f64f15ff0c05"
    assert replace(cfg, workers=2).sha() == cfg.sha()
    assert replace(cfg, out="rows.csv").sha() == cfg.sha()
    assert replace(cfg, seed=2).sha() != cfg.sha()


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


# ---------------------------------------------------------------------------
# Runner determinism and CSV
# ---------------------------------------------------------------------------

def test_csv_byte_identical_for_fixed_seed(tmp_path):
    cfg = desk_preset(length=1, trials=12, snr_db=(20.0,))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_radar_rmse(cfg, "single", out=str(a))
    run_radar_rmse(cfg, "single", out=str(b))
    assert a.read_bytes() == b.read_bytes()


def test_csv_independent_of_worker_count(tmp_path, monkeypatch):
    cfg = desk_preset(length=1, trials=130, snr_db=(14.0,), batch=64)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_radar_rmse(cfg, "single", out=str(a))
    monkeypatch.setenv("CHIRPIM_WORKERS", "2")
    run_radar_rmse(cfg, "single", out=str(b))
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


def test_bler_stopping_rule_independent_of_workers(tmp_path, monkeypatch):
    # the error-count stop must count a deterministic prefix of batches
    cfg = desk_preset(scheme=Scheme.DFT_S_OFDM_IM, snr_db=(-8.0, -5.0),
                      target_errors=40, batch=128, max_trials=4096)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_bler(cfg, out=str(a))
    monkeypatch.setenv("CHIRPIM_WORKERS", "2")
    run_bler(cfg, out=str(b))
    assert a.read_bytes() == b.read_bytes()


def test_bler_runner_stops_on_error_count(tmp_path):
    cfg = desk_preset(scheme=Scheme.DFT_S_OFDM_IM, snr_db=(-10.0,),
                      target_errors=50, batch=256, max_trials=10_000)
    rows = run_bler(cfg, out=str(tmp_path / "bler.csv"))
    assert rows[0]["errors"] >= 50
    assert rows[0]["trials"] <= 10_000
    assert rows[0]["ci_lo"] <= rows[0]["bler"] <= rows[0]["ci_hi"]
    header = (tmp_path / "bler.csv").read_text().splitlines()[1]
    assert header == "axis_db,snr_db,bler,union_bound,trials,errors,ci_lo,ci_hi"


def test_bler_ebn0_axis_conversion():
    cfg = desk_preset(scheme=Scheme.DFT_S_OFDM_IM, snr_db=(),
                      ebn0_db=(6.0,), target_errors=5, max_trials=512, batch=256)
    rows = run_bler(cfg)
    bits = cfg.modem_config().capacity.total
    assert np.isclose(rows[0]["snr_db"], 6.0 + 10 * np.log10(bits / 64))


def test_pmepr_rows_are_a_ccdf(tmp_path):
    cfg = desk_preset(trials=512)
    rows = run_pmepr_ccdf(cfg, out=str(tmp_path / "pm.csv"))
    ccdf = [r["ccdf"] for r in rows]
    assert ccdf[0] == 1.0
    assert all(a >= b for a, b in zip(ccdf, ccdf[1:]))
    assert rows[0]["max_pmepr_db"] <= 10 * np.log10(2) + 1.5


def test_resolution_runner_sharp_drop():
    cfg = desk_preset(length=1, trials=40, spacing_rmin=(0.5, 2.0))
    rows = run_resolution(cfg)
    assert rows[0]["rmse_mf_m"] > 5 * rows[1]["rmse_mf_m"]


def test_radar_runner_rejects_bad_scenario():
    with pytest.raises(ValueError):
        run_radar_rmse(desk_preset(), "three")


def test_bler_rejects_taps_beyond_cp():
    cfg = desk_preset(snr_db=(0.0,), fading=True,
                      pdp=((0.0, 0.0, 10.0), (30e-9, -10.0, 0.0)))
    with pytest.raises(ValueError):
        run_bler(cfg)


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
    obs = RadarObservation(b=radar_cfr(scene, mcfg.k) * w, w=w, k=mcfg.k,
                           sigma2=1e-4, f_c=cfg.f_c, t_s=cfg.t_s, t_cp=cfg.t_cp)
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
