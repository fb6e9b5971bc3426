"""Matched-filter / LMMSE range estimation and the range bounds."""
import numpy as np
import pytest

from chirpim.channel import RadarScene, radar_cfr
from chirpim.chirps import ChirpFamily, ChirpSpec
from chirpim.modem import ModemConfig, Scheme, encode, tx_bins
from chirpim.config import desk_preset
from chirpim import radar
from chirpim.radar import (RadarObservation, _grid_metric, crlb_coeff,
                           crlb_range, crlb_range_no_phase, estimate_lmmse,
                           estimate_mf_lmmse, estimate_multi_mf, fim,
                           mf_objective, min_resolution)
from chirpim.runners import run_radar_rmse, run_resolution
from chirpim.util import SPEED_OF_LIGHT

T_S = 88.9e-9
F_C = 6.48e9
M, N, N_CP = 64, 128, 32
T_CP = N_CP * T_S / N


def modem(length=1, delta=0, scheme=Scheme.CSC_IM, d=48.0):
    chirp = ChirpSpec.centered(ChirpFamily.LINEAR, d, M, T_S) \
        if scheme is Scheme.CSC_IM else None
    return ModemConfig(scheme, M, N, N_CP, length, 4, delta=delta, t_s=T_S, chirp=chirp)


def observation(scene, cfg, sigma2, rng=None, word_rng=None):
    word_rng = word_rng or np.random.default_rng(0)
    bits = word_rng.integers(0, 2, cfg.capacity.total)
    _, d = encode(bits, cfg)
    w = tx_bins(d, cfg)
    b = radar_cfr(scene, cfg.k) * w
    if rng is not None and sigma2 > 0:
        b = b + (rng.standard_normal(M) + 1j * rng.standard_normal(M)) * np.sqrt(sigma2 / 2)
    return RadarObservation(b=b, w=w, k=cfg.k, sigma2=sigma2, f_c=F_C,
                            t_s=T_S, t_cp=T_CP)


def scene_of(*targets):
    return RadarScene(targets=tuple(targets), f_c=F_C, t_s=T_S, t_cp=T_CP)


# ---------------------------------------------------------------------------
# MF objective
# ---------------------------------------------------------------------------

def test_mf_objective_matched_recovers_coefficient():
    for alpha in (0.8, -0.55):
        scene = scene_of((1.7, alpha))
        obs = observation(scene, modem(), 0.0)
        metric, a_hat = mf_objective(scene.delays[0], obs)
        assert abs(a_hat - alpha) < 1e-10
        assert metric > 0


def test_mf_objective_zero_observation():
    scene = scene_of((1.7, 1.0))
    obs = observation(scene, modem(), 0.0)
    zero = RadarObservation(b=np.zeros(M, complex), w=obs.w, k=obs.k,
                            sigma2=0.0, f_c=F_C, t_s=T_S, t_cp=T_CP)
    assert mf_objective(1e-9, zero)[0] == 0.0


def test_mf_objective_mainlobe_dominates():
    scene = scene_of((1.7, 1.0))
    cfg = modem()
    obs = observation(scene, cfg, 0.0)
    tau0 = scene.delays[0]
    off = tau0 + 1.0 / (2 * cfg.chirp.bandwidth_hz)
    assert mf_objective(tau0, obs)[0] > mf_objective(off, obs)[0]


# ---------------------------------------------------------------------------
# Single-target estimation
# ---------------------------------------------------------------------------

def test_single_target_noiseless_precision():
    rng = np.random.default_rng(1)
    cfg = modem()
    bandwidth = cfg.chirp.bandwidth_hz
    for _ in range(10):
        tau0 = rng.uniform(0.3, 0.7) * T_CP
        scene = scene_of((tau0 * SPEED_OF_LIGHT / 2, 1.0))
        est = estimate_multi_mf(observation(scene, cfg, 0.0, word_rng=rng), 1)
        assert abs(est.delays[0] - tau0) < 1e-4 / bandwidth


def test_single_target_negative_coefficient_recovered():
    scene = scene_of((1.9, -1.0))
    est = estimate_multi_mf(observation(scene, modem(), 0.0), 1)
    assert est.coeffs[0] < 0
    assert abs(est.coeffs[0] + 1.0) < 1e-3


def test_single_target_high_snr_attains_range_bound():
    rng = np.random.default_rng(2)
    cfg = modem()
    sigma2 = 1e-4  # 40 dB
    err2, bound = [], []
    for _ in range(300):
        scene = scene_of((rng.uniform(1.0, 2.5), -1.0))
        obs = observation(scene, cfg, sigma2, rng=rng, word_rng=rng)
        est = estimate_multi_mf(obs, 1)
        err2.append((est.distances[0] - scene.distances[0]) ** 2)
        bound.append(crlb_range(scene, (cfg.k, obs.w), sigma2))
    gap_db = 10 * np.log10(np.mean(err2) / np.mean(bound))
    assert abs(gap_db) < 1.0


def test_rejects_zero_reference():
    scene = scene_of((1.0, 1.0))
    obs = RadarObservation(b=np.ones(M, complex), w=np.zeros(M, complex),
                           k=np.arange(-31, 33), sigma2=0.0, f_c=F_C,
                           t_s=T_S, t_cp=T_CP)
    with pytest.raises(ValueError):
        estimate_multi_mf(obs, 1)


# ---------------------------------------------------------------------------
# Multi-target estimation
# ---------------------------------------------------------------------------

def test_two_well_separated_targets_recovered():
    cfg = modem()
    r_min = min_resolution(cfg.chirp.bandwidth_hz)
    scene = scene_of((1.2, 0.9), (1.2 + 3 * r_min, -0.6))
    est = estimate_multi_mf(observation(scene, cfg, 0.0), 2)
    err = np.abs(est.distances - np.array(scene.distances))
    assert np.max(err) < r_min / 100
    assert est.coeffs[0] > 0 > est.coeffs[1]


def test_multi_with_one_target_reduces_to_single():
    # one target: a single delay search, no update pass; the coefficient is
    # the matched-filter coefficient at the found delay, a grid maximum
    scene = scene_of((1.8, -1.0))
    obs = observation(scene, modem(), 0.0)
    est = estimate_multi_mf(obs, 1)
    tau = est.delays[0]
    metric, coeff = mf_objective(tau, obs)
    assert np.isclose(est.coeffs[0], coeff, rtol=1e-12, atol=0.0)
    for off in (-est.final_step, est.final_step):
        assert mf_objective(tau + off, obs)[0] <= metric * (1 + 1e-9)


def test_second_update_pass_tightens_two_target_estimates(monkeypatch):
    rng = np.random.default_rng(3)
    cfg = modem(length=1)
    r_min = min_resolution(cfg.chirp.bandwidth_hz)
    rmse = {}
    for passes in (1, 2):
        monkeypatch.setattr(radar, "UPDATE_PASSES", passes)
        rng_t = np.random.default_rng(4)
        err2 = []
        for _ in range(40):
            d0 = rng_t.uniform(1.0, 2.0)
            dr = rng_t.uniform(1.5, 2.0) * r_min
            scene = scene_of((d0, -0.7), (d0 + dr, -0.7))
            obs = observation(scene, cfg, 0.0, word_rng=rng_t)
            est = estimate_multi_mf(obs, 2)
            err2.append(np.sum((est.distances - np.array(scene.distances)) ** 2))
        rmse[passes] = np.sqrt(np.mean(err2))
    assert rmse[2] <= rmse[1]


def test_multi_target_guard():
    scene = scene_of((1.8, -1.0))
    obs = observation(scene, modem(), 0.0)
    with pytest.raises(ValueError):
        estimate_multi_mf(obs, 0)
    with pytest.raises(ValueError):
        estimate_multi_mf(obs, 99)


# ---------------------------------------------------------------------------
# LMMSE estimation
# ---------------------------------------------------------------------------

def test_lmmse_equals_mf_for_unimodular_reference():
    # single active Dirichlet index: |w_k| = 1 for every bin
    cfg = modem(length=1, scheme=Scheme.DFT_S_OFDM_IM)
    scene = scene_of((2.1, -1.0))
    obs = observation(scene, cfg, 1e-4)
    assert np.allclose(np.abs(obs.w), 1.0)
    t_mf = estimate_multi_mf(obs, 1).delays[0]
    t_lm = estimate_lmmse(obs, 1).delays[0]
    assert abs(t_mf - t_lm) < 1e-12  # identical up to grid jitter, << 1e-6 s


def test_lmmse_huge_noise_floor_drives_coefficient_to_zero():
    scene = scene_of((2.1, -1.0))
    cfg = modem(length=1)
    base = observation(scene, cfg, 0.0)
    big = RadarObservation(b=base.b, w=base.w, k=base.k, sigma2=1e9,
                           f_c=F_C, t_s=T_S, t_cp=T_CP)
    est = estimate_lmmse(big, 1)
    assert abs(est.coeffs[0]) < 1e-6


def test_lmmse_nonunimodular_does_not_attain_bound():
    rng = np.random.default_rng(5)
    cfg = modem(length=2, delta=15)
    sigma2 = 1e-4
    r_min = min_resolution(cfg.chirp.bandwidth_hz)
    err2, bound = [], []
    for _ in range(60):
        d0 = rng.uniform(1.0, 2.3)
        dr = rng.uniform(1.5, 2.0) * r_min
        scene = scene_of((d0, -0.7071), (d0 + dr, -0.7071))
        obs = observation(scene, cfg, sigma2, rng=rng, word_rng=rng)
        est = estimate_lmmse(obs, 2)
        err2.append(np.sum((est.distances - np.array(scene.distances)) ** 2))
        bound.append(crlb_range(scene, (cfg.k, obs.w), sigma2))
    gap_db = 10 * np.log10(np.mean(err2) / np.mean(bound))
    assert gap_db > 1.0


# ---------------------------------------------------------------------------
# Grid evaluation (chirp-z) against explicit steering vectors
# ---------------------------------------------------------------------------

PAPER_T_S, PAPER_F_C = 2048 / 10.56e9, 64.8e9
PAPER_T_CP = 512 / 10.56e9


def grid_obs(k, t_s=T_S, f_c=F_C, t_cp=T_CP, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
    return RadarObservation(b=q, w=np.ones(len(k), complex), k=np.asarray(k),
                            sigma2=0.0, f_c=f_c, t_s=t_s, t_cp=t_cp)


def assert_grid_matches_steering(obs, lo, step, n):
    taus = lo + step * np.arange(n)
    inner = np.conj(obs.steering(taus)) @ obs.b
    for envelope, ref in ((True, np.abs(inner)), (False, np.abs(np.real(inner)))):
        got = _grid_metric(obs.b, lo, step, n, obs, envelope)
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(ref)


def coarse(obs, halfbin=0.5):
    span = int(obs.k.max() - obs.k.min() + 1)
    step = halfbin * obs.t_s / span
    return step, len(np.arange(0.0, obs.t_cp, step))


def test_grid_metric_desk_coarse_grid():
    obs = grid_obs(np.arange(-31, 33))
    assert_grid_matches_steering(obs, 0.0, *coarse(obs))


def test_grid_metric_paper_coarse_grid():
    obs = grid_obs(np.arange(-767, 769), PAPER_T_S, PAPER_F_C, PAPER_T_CP)
    step, n = coarse(obs)
    assert n == 768
    assert_grid_matches_steering(obs, 0.0, step, n)


@pytest.mark.parametrize("points", [65, 193])
def test_grid_metric_zoom_windows_clamped_at_edges(points):
    for obs in (grid_obs(np.arange(-31, 33), seed=1),
                grid_obs(np.arange(-767, 769), PAPER_T_S, PAPER_F_C, PAPER_T_CP, seed=2)):
        step, _ = coarse(obs)
        for lo, hi in ((0.0, step), (obs.t_cp - 0.3 * step, obs.t_cp),
                       (0.0, 1.2 / obs.f_c), (obs.t_cp - 0.6 / obs.f_c, obs.t_cp)):
            assert_grid_matches_steering(obs, lo, (hi - lo) / (points - 1), points)


def test_grid_metric_step_off_fft_bins():
    obs = grid_obs(np.arange(-31, 33), seed=3)
    assert_grid_matches_steering(obs, 0.0, *coarse(obs, halfbin=0.37))
    paper = grid_obs(np.arange(-767, 769), PAPER_T_S, PAPER_F_C, PAPER_T_CP, seed=4)
    assert_grid_matches_steering(paper, 0.0, *coarse(paper, halfbin=0.37))


@pytest.mark.parametrize("n", [1, 64, 65, 66])
def test_grid_metric_fft_length_boundaries(n):
    # span + n - 1 just below, at and just above a power of two
    obs = grid_obs(np.arange(-31, 33), seed=7)
    assert_grid_matches_steering(obs, 0.1 * T_CP, 0.3 * T_S / 64, n)


def test_grid_metric_noncontiguous_bins():
    rng = np.random.default_rng(5)
    k = np.sort(rng.choice(np.arange(-40, 60), size=37, replace=False))
    obs = grid_obs(k, seed=6)
    assert_grid_matches_steering(obs, 0.0, *coarse(obs))
    assert_grid_matches_steering(obs, 0.4 * T_CP, 1e-3 / F_C, 193)


# Rows of run_radar_rmse at the desk preset (16 trials, seed 1), from the
# delay search whose zoom windows are shifted inside [0, T_cp]: a change
# that moves any estimate, even in its last bits, shows here.
PINNED_RADAR_ROWS = {
    "single": [
        (0.0, 0.01801180808843388, 0.018832282346245056, 0.0003261844051157466, 0.00032531377854331763, 0.010146517333270783),
        (2.0, 0.009238942807042535, 0.01084232572517683, 0.00025751716059848646, 0.0002584059194417993, 0.008059665201936305),
        (4.0, 0.01044578180100878, 0.012975487892338324, 0.00020622152320017034, 0.00020525911783250933, 0.006402019632322784),
        (6.0, 0.007067210873258459, 0.011929987058672622, 0.0001654840080591812, 0.00016304311272896047, 0.0050853049532131505),
        (8.0, 0.005809556209202027, 0.007120129483261347, 0.00012964511694380995, 0.00012950974791794718, 0.004039401306520448),
        (10.0, 0.006534011932461783, 0.010067768974211196, 0.00010273407076699621, 0.0001028732494432497, 0.0032086105091513432),
        (12.0, 0.004083037564086137, 0.0077383088744070365, 8.163456703362234e-05, 8.171512663060718e-05, 0.0025486899216519646),
        (14.0, 0.0029373862238797825, 0.008182857448960431, 6.519757077386024e-05, 6.490863228676136e-05, 0.0020244963663253726),
        (16.0, 3.8396007059117386e-05, 0.005837341389792616, 5.2287395660121626e-05, 5.155875930271062e-05, 0.001608114624868955),
        (18.0, 3.976788523255559e-05, 0.0057595630579336, 4.105089006450583e-05, 4.0954578261496265e-05, 0.0012773708512064572),
        (20.0, 3.245310980564303e-05, 0.004970803824855553, 3.2628963909558705e-05, 3.2531377854331764e-05, 0.0010146517333270782),
    ],
    "two": [
        (0.0, 0.03628650149198875, 0.040799278578144936, 0.0006537605927834797, 0.0006506275570866353, 0.02029303466654156),
        (2.0, 0.02414072062539784, 0.030131868490781883, 0.0005222024855749649, 0.0005168118388835986, 0.016119330403872603),
        (4.0, 0.025240917409223983, 0.0253413583649002, 0.00041036818576976506, 0.0004105182356650186, 0.012804039264645566),
        (6.0, 0.018731447468044896, 0.026741644857334695, 0.00032670205969850076, 0.00032608622545792095, 0.010170609906426301),
        (8.0, 0.012322751177250102, 0.013873725717885173, 0.0002586322091282679, 0.00025901949583589435, 0.008078802613040894),
        (10.0, 0.009642080057538258, 0.016371834059391757, 0.00020720725862056726, 0.00020574649888649936, 0.006417221018302686),
        (12.0, 0.009187073458649803, 0.012905422611309711, 0.00016320887964107282, 0.00016343025326121435, 0.005097379843303929),
        (14.0, 0.007087633421642464, 0.011681414433451828, 0.0001304665646346622, 0.00012981726457352268, 0.004048992732650745),
        (16.0, 0.004991464495554901, 0.010441118455741204, 0.00010299231365180587, 0.00010311751860542124, 0.00321622924973791),
        (18.0, 0.0028938015742029275, 0.007646685046953063, 8.208425599929022e-05, 8.190915652299252e-05, 0.0025547417024129144),
        (20.0, 0.004068907009963186, 0.00868479192280001, 6.571866187613164e-05, 6.506275570866353e-05, 0.0020293034666541555),
    ],
}


@pytest.mark.parametrize("scenario", ["single", "two"])
def test_radar_rows_pinned(scenario):
    rows = run_radar_rmse(desk_preset(trials=16, seed=1), scenario=scenario)
    got = [(r["snr_db"], r["rmse_mf_m"], r["rmse_lmmse_m"], r["crlb_m"],
            r["crlb_expected_m"], r["crlb_nophase_m"]) for r in rows]
    assert got == PINNED_RADAR_ROWS[scenario]
    assert all(r["trials"] == 16 and r["scenario"] == scenario for r in rows)


# Rows of run_radar_rmse at the desk preset with 80 trials (a batch of
# RADAR_BATCH = 64 trials and one of 16) at 0/10/20 dB, and of
# run_resolution with 24 trials: the rows do not depend on how the trials
# are batched or on the worker count.
PINNED_RADAR_ROWS_80 = {
    "single": [
        (0.0, 0.016132015047778888, 0.016848625944019566, 0.00032564467073368885, 0.0003253137785433174, 0.010146517333270785),
        (10.0, 0.00560324337694903, 0.006588250322410979, 0.00010291784686042291, 0.00010287324944324964, 0.003208610509151345),
        (20.0, 3.53554610338934e-05, 0.0050150204130692076, 3.2632676508945883e-05, 3.253137785433175e-05, 0.001014651733327078),
    ],
    "two": [
        (0.0, 0.031942016414388236, 0.037405380526705966, 0.0006510131929294685, 0.0006506275570866348, 0.020293034666541566),
        (10.0, 0.010524751797426136, 0.016151196131319236, 0.00020581182755226532, 0.00020574649888649928, 0.006417221018302683),
        (20.0, 0.0036527925404299957, 0.008926324941464317, 6.516931512999886e-05, 6.50627557086635e-05, 0.0020293034666541555),
    ],
}
PINNED_RESOLUTION_ROWS_24 = [
    (0.5, 0.22652357913505497, 0.18245215793978883, 6.492400738616114e-05, 6.506275570866354e-05, 0.002029303466654155),
    (0.75, 0.15914526134100987, 0.1426465037099556, 6.536727275829171e-05, 6.506275570866354e-05, 0.002029303466654155),
    (1.0, 0.13270025006921493, 0.07232763908938376, 6.499204964723514e-05, 6.506275570866354e-05, 0.002029303466654155),
    (1.25, 0.0777726317768857, 0.00916445642269422, 6.513346201548676e-05, 6.506275570866354e-05, 0.002029303466654155),
    (1.5, 0.007074682149770187, 0.010341946077187946, 6.51900249050003e-05, 6.506275570866354e-05, 0.002029303466654155),
    (2.0, 0.002393859956938882, 0.008151974016903962, 6.505821627618897e-05, 6.506275570866354e-05, 0.002029303466654155),
    (3.0, 0.0023576405988396222, 0.009137284352249857, 6.47688929300375e-05, 6.506275570866354e-05, 0.002029303466654155),
]


def row_values(rows, axis):
    return [(r[axis], r["rmse_mf_m"], r["rmse_lmmse_m"], r["crlb_m"],
             r["crlb_expected_m"], r["crlb_nophase_m"]) for r in rows]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scenario", ["single", "two"])
def test_radar_rows_pinned_across_batches(scenario, workers):
    cfg = desk_preset(trials=80, seed=1, snr_db=(0.0, 10.0, 20.0), workers=workers)
    rows = run_radar_rmse(cfg, scenario=scenario)
    assert row_values(rows, "snr_db") == PINNED_RADAR_ROWS_80[scenario]
    assert all(r["trials"] == 80 for r in rows)


def test_resolution_rows_pinned():
    rows = run_resolution(desk_preset(trials=24, seed=1))
    assert row_values(rows, "spacing_rmin") == PINNED_RESOLUTION_ROWS_24
    assert all(r["trials"] == 24 for r in rows)


def stacked_observations(k, n_targets, seed):
    """Observations at f_c = 4.17 GHz whose first target lies 0.02 and
    0.05 ns from 0 (rows 0, 1), at 0.4 and 0.6 T_cp (rows 2, 3) and 0.02
    and 0.05 ns from T_cp (rows 4, 5)."""
    rng = np.random.default_rng(seed)
    f_c, sigma2 = 4.17e9, 1e-3
    rows = []
    for tau in (0.02e-9, 0.05e-9, 0.4 * T_CP, 0.6 * T_CP, T_CP - 0.02e-9, T_CP - 0.05e-9):
        w = np.exp(2j * np.pi * rng.uniform(size=len(k))) * rng.uniform(0.2, 1.5, len(k))
        ref = RadarObservation(b=w, w=w, k=k, sigma2=sigma2, f_c=f_c, t_s=T_S, t_cp=T_CP)
        spacing = 2.0 * T_S / len(k) * (1 if tau < T_CP / 2 else -1)
        b = sum(-0.7 * w * ref.steering(tau + s * spacing) for s in range(n_targets))
        rows.append((b + (rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k)))
                     * np.sqrt(sigma2 / 2), w))
    b, w = (np.stack(part) for part in zip(*rows))
    return RadarObservation(b=b, w=w, k=k, sigma2=sigma2, f_c=f_c, t_s=T_S, t_cp=T_CP)


@pytest.mark.parametrize("n_targets", [1, 2])
@pytest.mark.parametrize("k", [np.arange(-31, 33), np.arange(-31, 33)[np.arange(64) % 3 != 1]],
                         ids=["contiguous", "two-bins-in-three"])
def test_batched_rows_equal_single_observation_calls(k, n_targets):
    obs = stacked_observations(k, n_targets, seed=len(k) + n_targets)
    est_mf, est_lm = estimate_mf_lmmse(obs, n_targets)
    assert est_mf.delays.shape == est_lm.delays.shape == (len(obs.b), n_targets)
    for i, (b, w) in enumerate(zip(obs.b, obs.w)):
        one = RadarObservation(b=b, w=w, k=obs.k, sigma2=obs.sigma2, f_c=obs.f_c,
                               t_s=obs.t_s, t_cp=obs.t_cp)
        for batched, single in ((est_mf, estimate_multi_mf(one, n_targets)),
                                (est_lm, estimate_lmmse(one, n_targets))):
            assert np.array_equal(batched.delays[i], single.delays)
            assert np.array_equal(batched.coeffs[i], single.coeffs)
            assert batched.final_step == single.final_step


def test_search_windows_shifted_inside_cyclic_prefix(monkeypatch):
    # every grid of a search has one scalar step for all rows and lies in
    # [0, T_cp]; zoom windows at the edges keep their width by shifting
    obs = stacked_observations(np.arange(-31, 33), 1, seed=11)
    grids = []
    grid_metric = radar._grid_metric

    def recording(q, lo, step, n, obs_, envelope):
        grids.append((np.atleast_1d(lo), step, n))
        return grid_metric(q, lo, step, n, obs_, envelope)

    monkeypatch.setattr(radar, "_grid_metric", recording)
    est = estimate_multi_mf(obs, 1)
    monkeypatch.undo()
    assert np.array_equal(grids[0][0], [0.0])  # the coarse grid
    assert all(len(lo) == len(obs.b) for lo, _, _ in grids[1:])
    for lo, step, n in grids:
        assert np.ndim(step) == 0
        assert np.all(lo >= 0.0) and np.all(lo + (n - 1) * step <= T_CP)
    assert any(np.any(lo == 0.0) for lo, _, _ in grids[1:])
    assert any(np.any(np.isclose(lo + (n - 1) * step, T_CP, rtol=1e-12, atol=0.0))
               for lo, step, n in grids[1:])
    delays = est.delays[:, 0]
    assert np.all((delays >= 0.0) & (delays <= T_CP))
    assert abs(delays[0] - 0.02e-9) < 0.01e-9
    assert abs(delays[4] - (T_CP - 0.02e-9)) < 0.01e-9


def test_observation_shapes_checked():
    k = np.arange(-31, 33)
    with pytest.raises(ValueError):
        RadarObservation(b=np.ones((2, 64), complex), w=np.ones(64, complex), k=k,
                         sigma2=0.0, f_c=F_C, t_s=T_S, t_cp=T_CP)
    with pytest.raises(ValueError):
        RadarObservation(b=np.ones((1, 2, 64), complex), w=np.ones((1, 2, 64), complex),
                         k=k, sigma2=0.0, f_c=F_C, t_s=T_S, t_cp=T_CP)


@pytest.mark.parametrize("name", ["f_c", "t_s", "t_cp"])
@pytest.mark.parametrize("value", [0.0, -1e-9])
def test_observation_timing_checked(name, value):
    # a non-positive carrier would make the envelope zoom never finish
    context = {"f_c": F_C, "t_s": T_S, "t_cp": T_CP, name: value}
    with pytest.raises(ValueError, match=name):
        RadarObservation(b=np.ones(64, complex), w=np.ones(64, complex),
                         k=np.arange(-31, 33), sigma2=0.0, **context)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def test_fim_unimodular_plug_in():
    scene = scene_of((1.5, 1.0))
    k = np.arange(-31, 33)
    w = np.exp(1j * np.linspace(0, 5, len(k)))  # unimodular
    sigma2 = 0.01
    j = fim(scene, (k, w), sigma2)
    expect = 8 * np.pi ** 2 / sigma2 * np.sum((k / T_S + F_C) ** 2)
    assert np.isclose(j[0, 0], expect)
    assert np.isclose(j[1, 1], 2 / sigma2 * len(k))
    assert np.count_nonzero(j - np.diag(np.diag(j))) == 0


def test_fim_scales_with_coefficient_squared():
    k = np.arange(-31, 33)
    w = np.ones(len(k), complex)
    j1 = fim(scene_of((1.5, 0.5)), (k, w), 0.01)
    j2 = fim(scene_of((1.5, 1.0)), (k, w), 0.01)
    assert np.isclose(j2[0, 0], 4 * j1[0, 0])


def test_crlb_consistent_with_fim_inverse():
    scene = scene_of((1.5, -0.7), (2.0, 0.4))
    k = np.arange(-31, 33)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
    sigma2 = 0.02
    j = fim(scene, (k, w), sigma2)
    from_fim = SPEED_OF_LIGHT ** 2 / 4 * np.sum(1.0 / np.diag(j)[:2])
    direct = crlb_range(scene, (k, w), sigma2)
    assert abs(from_fim - direct) < 1e-12 * direct


def test_crlb_linear_in_noise_and_targets():
    scene1 = scene_of((1.5, 0.5))
    scene2 = scene_of((1.5, 0.5), (2.0, 0.5))
    k = np.arange(-31, 33)
    w = np.ones(len(k), complex)
    assert np.isclose(crlb_range(scene1, (k, w), 0.2), 2 * crlb_range(scene1, (k, w), 0.1))
    assert np.isclose(crlb_range(scene2, (k, w), 0.1), 2 * crlb_range(scene1, (k, w), 0.1))
    assert np.isclose(crlb_coeff(scene2, (k, w), 0.1), 2 * crlb_coeff(scene1, (k, w), 0.1))


def test_phase_aware_bound_far_below_phase_unaware():
    # full-scale numerology: carrier phase carries most of the information
    t_s, f_c = 2048 / 10.56e9, 64.8e9
    scene = RadarScene(targets=((2.5, -1.0),), f_c=f_c, t_s=t_s,
                       t_cp=512 / 10.56e9)
    k = np.arange(-767, 769)
    w = np.ones(len(k), complex)
    aware = crlb_range(scene, (k, w), 1e-3)
    unaware = crlb_range_no_phase(scene, len(k), 1e-3)
    assert aware < unaware * 1e-2


def test_min_resolution_values():
    t_s = 2048 / 10.56e9
    r = min_resolution(1382.0 / t_s)
    assert abs(r - 0.021) < 0.0005
    assert np.isclose(min_resolution(SPEED_OF_LIGHT / 2), 1.0)
    assert np.isclose(min_resolution(1e6), 2 * min_resolution(2e6))
    with pytest.raises(ValueError):
        min_resolution(0.0)
