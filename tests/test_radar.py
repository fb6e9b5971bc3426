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


def smooth_length(n):
    """The smallest 2^a 3^b 5^c >= n, by trial division of n, n + 1, ..."""
    for size in range(n, 2 * n + 1):
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size


def chirp_z_reference(x, phi, n):
    """The chirp-z transform with its chirp and kernel built on every call."""
    m = x.shape[-1]
    size = smooth_length(m + n - 1)
    chirp = np.exp(0.5j * phi * np.arange(1 - m, n, dtype=float) ** 2)
    conv = np.fft.ifft(np.fft.fft(x * chirp[m - 1::-1], size) *
                       np.fft.fft(np.conj(chirp), size))
    return conv[..., m - 1:m + n - 1] * chirp[m - 1:]


@pytest.mark.parametrize("m, n", [
    (1536, 768), (1536, 65), (1536, 193),  # paper coarse grid and zooms
    (1536, 512), (1536, 513), (1536, 514),  # m + n - 2 around 2048
    (64, 1), (64, 64), (64, 65), (64, 66),  # m + n - 2 around 128
])
def test_chirp_z_equals_uncached_formula(m, n):
    # two steps per (m, n), each called twice: the cached chirp and kernel
    # belong to their own step, and reuse gives the same bits
    rng = np.random.default_rng(m + n)
    x = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    for phi in (np.pi / m, 0.37 * np.pi / m, np.pi / m):
        assert np.array_equal(radar._chirp_z(x, phi, n), chirp_z_reference(x, phi, n))


def record_chirp_z(monkeypatch):
    calls = []
    chirp_z = radar._chirp_z

    def recording(x, phi, n):
        calls.append((x.copy(), phi, n, chirp_z(x, phi, n)))
        return calls[-1][-1]

    monkeypatch.setattr(radar, "_chirp_z", recording)
    return calls


def test_search_stages_equal_uncached_formula(monkeypatch):
    # every stage of two paper-scale searches: the coarse grid, the 65-point
    # envelope zooms (one step each) and the 193-point carrier stages
    paper = grid_obs(np.arange(-767, 769), PAPER_T_S, PAPER_F_C, PAPER_T_CP, seed=8)
    calls = record_chirp_z(monkeypatch)
    for _ in range(2):
        estimate_multi_mf(paper, 1)
    monkeypatch.undo()
    assert {(x.shape[-1], n) for x, _, n, _ in calls} == {(1536, 768), (1536, 65), (1536, 193)}
    assert len({phi for x, phi, n, _ in calls if (x.shape[-1], n) == (1536, 65)}) > 1
    for x, phi, n, got in calls:
        assert np.array_equal(got, chirp_z_reference(x, phi, n))


def test_grid_metric_noncontiguous_bins_equal_uncached_formula(monkeypatch):
    rng = np.random.default_rng(12)
    obs = grid_obs(np.sort(rng.choice(np.arange(-40, 60), size=37, replace=False)), seed=13)
    step, n = coarse(obs)
    grids = [(0.0, step, n), (0.0, 0.37 * step, n), (0.4 * T_CP, 1e-3 / F_C, 193),
             (np.array([0.1, 0.5]) * T_CP, 2e-3 / F_C, 193)]
    got = [_grid_metric(obs.b, lo, s, n_, obs, env) for lo, s, n_ in grids for env in (True, False)]
    monkeypatch.setattr(radar, "_chirp_z", chirp_z_reference)
    ref = [_grid_metric(obs.b, lo, s, n_, obs, env) for lo, s, n_ in grids for env in (True, False)]
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_second_search_on_same_geometry_only_hits_cache(monkeypatch):
    obs = stacked_observations(np.arange(-31, 33), 2, seed=14)
    estimate_mf_lmmse(obs, 2)
    before = radar._bluestein.cache_info()
    calls = record_chirp_z(monkeypatch)
    estimate_mf_lmmse(obs, 2)
    after = radar._bluestein.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert after.hits - before.hits == len(calls) > 0


def test_cached_chirp_and_kernel_are_read_only():
    size, chirp, kernel = radar._bluestein(64, np.pi / 64, 65)
    assert (size, chirp.shape, kernel.shape) == (128, (128,), (128,))
    for array in (chirp, kernel):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_smooth_length_is_minimal():
    assert [radar._smooth_length(n) for n in range(1, 5001)] == \
        [smooth_length(n) for n in range(1, 5001)]


@pytest.mark.parametrize("m, n, size", [
    (1536, 768, 2304), (1536, 65, 1600), (1536, 193, 1728),  # paper stages
    (1536, 514, 2160), (64, 66, 135), (64, 65, 128),  # m + n - 2 is 5-smooth
])
def test_bluestein_length_holds_the_linear_convolution(m, n, size):
    assert radar._bluestein(m, np.pi / m, n)[0] == size == smooth_length(m + n - 1)


@pytest.mark.parametrize("k", [
    np.arange(-767, 769),  # paper bins: 39 blocks of 40, the last one short
    np.arange(-31, 33),  # desk bins: span 64, blocks of 8
    np.arange(-31, 33)[np.arange(64) % 3 != 1],  # two bins in three
    np.sort(np.random.default_rng(15).choice(np.arange(-40, 60), size=37, replace=False)),
    np.array([7]),
], ids=["paper", "desk", "two-in-three", "scattered", "one-bin"])
def test_bin_rotation_equals_exp(k):
    t_s = PAPER_T_S
    for lo in (np.array([0.0]), np.array([0.37 * PAPER_T_CP]), np.array([PAPER_T_CP]),
               np.array([[0.0], [1e-12], [0.5 * PAPER_T_CP], [PAPER_T_CP]])):
        got = radar._bin_rotation(k, lo, t_s)
        ref = np.exp(2j * np.pi * k * lo / t_s)
        assert got.shape == ref.shape == lo.shape[:-1] + k.shape
        assert np.max(np.abs(got - ref)) <= 1e-12


def paper_observations(n_targets, rows, seed):
    """Paper-scale observations (M = 1536, f_c = 64.8 GHz) whose first
    target lies 2, 5 and 20 ps from 0 and from T_cp (the first two of each
    for two targets), so zoom windows shift to both edges; the other rows
    are spread over [0, T_cp]. A second target lies 3 bins' resolution
    further inside."""
    rng = np.random.default_rng(seed)
    k, sigma2 = np.arange(-767, 769), 1e-3
    near = (2e-12, 5e-12, 20e-12)[:3 if n_targets == 1 else 2]
    taus = list(near) + [PAPER_T_CP - e for e in near]
    taus += list(rng.uniform(0.05, 0.95, rows - len(taus)) * PAPER_T_CP)
    bs, ws = [], []
    for tau in taus:
        w = np.exp(2j * np.pi * rng.uniform(size=len(k))) * rng.uniform(0.2, 1.5, len(k))
        ref = RadarObservation(b=w, w=w, k=k, sigma2=sigma2, f_c=PAPER_F_C, t_s=PAPER_T_S,
                               t_cp=PAPER_T_CP)
        spacing = 3.0 * PAPER_T_S / len(k) * (1 if tau < PAPER_T_CP / 2 else -1)
        b = sum(-0.7 * w * ref.steering(tau + s * spacing) for s in range(n_targets))
        bs.append(b + (rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k)))
                  * np.sqrt(sigma2 / 2))
        ws.append(w)
    return RadarObservation(b=np.stack(bs), w=np.stack(ws), k=k, sigma2=sigma2,
                            f_c=PAPER_F_C, t_s=PAPER_T_S, t_cp=PAPER_T_CP)


# estimate_mf_lmmse on paper_observations(1, 24, 101) and (2, 8, 102), from
# the search with power-of-two Bluestein lengths and a full exp per
# rotation: the stage lengths and the rotation may change only bits that no
# argmax sees.
PINNED_PAPER_ESTIMATES = {
    1: {
        "final_step": 1.0465561771262002e-17,
        "mf_delays": [
            1.996714064777306e-12, 5.000612863297325e-12, 1.999852211045155e-11, 4.848285045212293e-08,
            4.847984657425553e-08, 4.846484803707466e-08, 4.359657013590221e-08,
            1.8108066214901477e-08, 3.667029795781649e-08, 2.822547421572526e-08,
            1.526767015724739e-08, 4.268864024293469e-08, 4.0358707837562543e-08,
            1.8313918002749755e-08, 4.48901390801613e-08, 1.22216696662489e-08, 3.757315363933327e-08,
            3.2136078073996556e-08, 2.2979610983043082e-08, 3.768482248687078e-09,
            4.146998393254649e-08, 2.7455480203320522e-08, 1.945587461038426e-08,
            1.7901144695365232e-08,
        ],
        "mf_coeffs": [
            -0.6988512268600482, -0.6996121052140308, -0.6997684880860635, -0.6995217824865309,
            -0.700495938965156, -0.7000454836130187, -0.6992986969472992, -0.6996114270560431,
            -0.7005172518785324, -0.7002871876018693, -0.7002429990038109, -0.7004056224164509,
            -0.6999014309211411, -0.6996975228113034, -0.6996078846361783, -0.7006383128323435,
            -0.6995800258593565, -0.7001804645208353, -0.6990335969386213, -0.6997292829117455,
            -0.7003729892482767, -0.6999001211234163, -0.6996811750565328, -0.6996052309475541,
        ],
        "lmmse_delays": [
            1.994558159052426e-12, 5.000979157959319e-12, 2.0003315337742784e-11,
            4.8482847595024564e-08, 4.8479852152399955e-08, 4.846484425900687e-08,
            4.3596566577611206e-08, 1.810806372314636e-08, 3.6670293405297113e-08,
            2.82254698706143e-08, 1.5267673516692718e-08, 4.268864003457487e-08, 4.035870963763917e-08,
            1.8313914715611947e-08, 4.489013758644021e-08, 1.2221662392683468e-08,
            3.757315130456158e-08, 3.213607598183561e-08, 2.297960874531569e-08,
            3.7684814647213605e-09, 4.146998228850188e-08, 2.745548070566749e-08,
            1.945587787468812e-08, 1.7901149937660265e-08,
        ],
        "lmmse_coeffs": [
            -0.6988504358441854, -0.6996115637700298, -0.6997666223457578, -0.6995207889314131,
            -0.7004935869827089, -0.7000441195243631, -0.6992974344818714, -0.6996105437910753,
            -0.7005155255688134, -0.7002855538700975, -0.7002418217450748, -0.7004051084819863,
            -0.6999007066185312, -0.6996963664139392, -0.6996072116813074, -0.7006347086876028,
            -0.6995791779586255, -0.7001797070463182, -0.6990327997899307, -0.6997287338250923,
            -0.7003723093722302, -0.6998995879428519, -0.6996800340939102, -0.6996031217021892,
        ],
    },
    2: {
        "final_step": 1.0465561771262002e-17,
        "mf_delays": [
            2.0005549259473593e-12, 3.807895858770358e-10, 4.999901205096879e-12,
            3.8378590094893034e-10, 4.8104061088176694e-08, 4.848285024281169e-08,
            4.810105997702326e-08, 4.847984802896862e-08, 9.405673710986823e-09, 9.78446148416767e-09,
            2.761390042117683e-08, 2.7992684866309038e-08, 3.799469869537296e-08,
            3.837348891749526e-08, 1.539559936904003e-08, 1.5774386209834466e-08,
        ],
        "mf_coeffs": [
            -0.6987095931600534, -0.6992939419633716, -0.7010744783981431, -0.6998961569998137,
            -0.6994225589567774, -0.7004264094261727, -0.7001080122654968, -0.7003915677388025,
            -0.7012966696833917, -0.7007604728792856, -0.6982529004753589, -0.699377397887876,
            -0.6999055939006056, -0.700843581969341, -0.7000802217575031, -0.7002915365475062,
        ],
        "lmmse_delays": [
            2.0023236058867023e-12, 3.8078882379385576e-10, 4.998247646337019e-12,
            3.837867496108486e-10, 4.8104060396498205e-08, 4.84828478880603e-08, 4.810105813413297e-08,
            4.847984277525661e-08, 9.405676026730222e-09, 9.784465073855356e-09,
            2.7613900115772714e-08, 2.7992683923457063e-08, 3.7994698601182905e-08,
            3.837348555804993e-08, 1.539559599912914e-08, 1.5774386470522094e-08,
        ],
        "lmmse_coeffs": [
            -0.6987101480653588, -0.6992961857071955, -0.701072098092684, -0.6998922445171846,
            -0.6994137016687203, -0.7004279739634967, -0.7001370009326439, -0.7003785617608338,
            -0.7012794539765359, -0.7007697422412902, -0.6982454201411774, -0.699379053755656,
            -0.6999186561175343, -0.7008421594934153, -0.7000792066229483, -0.7002926281558822,
        ],
    },
}


@pytest.mark.parametrize("n_targets, rows, seed", [(1, 24, 101), (2, 8, 102)])
def test_paper_estimates_pinned(n_targets, rows, seed):
    obs = paper_observations(n_targets, rows, seed)
    pinned = PINNED_PAPER_ESTIMATES[n_targets]
    for name, est in zip(("mf", "lmmse"), estimate_mf_lmmse(obs, n_targets)):
        assert est.delays.shape == (rows, n_targets)
        assert est.delays.ravel().tolist() == pinned[name + "_delays"]
        assert est.coeffs.ravel().tolist() == pinned[name + "_coeffs"]
        assert est.final_step == pinned["final_step"]


# Rows of run_radar_rmse at the desk preset (16 trials, seed 1), from the
# delay search whose zoom windows are shifted inside [0, T_cp]: a change
# that moves any estimate, even in its last bits, shows here.
PINNED_RADAR_ROWS = {
    "single": [
        (0.0, 0.01801180808843388, 0.018832282346245056, 0.00032618440511574654, 0.00032531377854331763, 0.010146517333270783),
        (2.0, 0.009238942807042535, 0.01084232572517683, 0.00025751716059848646, 0.0002584059194417993, 0.008059665201936305),
        (4.0, 0.01044578180100878, 0.012975487892338324, 0.00020622152320017034, 0.00020525911783250938, 0.006402019632322784),
        (6.0, 0.007067210873258459, 0.011929987058672622, 0.0001654840080591812, 0.00016304311272896047, 0.0050853049532131505),
        (8.0, 0.005809556209202027, 0.007120129483261347, 0.00012964511694380995, 0.00012950974791794718, 0.004039401306520448),
        (10.0, 0.006534011932461783, 0.010067768974211196, 0.00010273407076699621, 0.0001028732494432497, 0.0032086105091513432),
        (12.0, 0.004083037564086137, 0.0077383088744070365, 8.163456703362234e-05, 8.171512663060718e-05, 0.0025486899216519646),
        (14.0, 0.0029373862238797825, 0.008182857448960431, 6.519757077386024e-05, 6.490863228676136e-05, 0.0020244963663253726),
        (16.0, 3.8396007059117386e-05, 0.005837341389792616, 5.2287395660121626e-05, 5.155875930271063e-05, 0.001608114624868955),
        (18.0, 3.976788523255559e-05, 0.0057595630579336, 4.105089006450583e-05, 4.0954578261496265e-05, 0.0012773708512064572),
        (20.0, 3.245310980564303e-05, 0.004970803824855553, 3.26289639095587e-05, 3.2531377854331764e-05, 0.0010146517333270782),
    ],
    "two": [
        (0.0, 0.03628650149198875, 0.040799278578144936, 0.0006638301046868525, 0.0006605644304104349, 0.02029303466654156),
        (2.0, 0.02414072062539784, 0.030131868490781883, 0.0005304385536007022, 0.0005228676254404462, 0.016119330403872603),
        (4.0, 0.025240917409223983, 0.0253413583649002, 0.000416165462127539, 0.00041651725966142033, 0.012804039264645566),
        (6.0, 0.018731447468044896, 0.026741644857334695, 0.00033383848025089286, 0.00033042197063433496, 0.010170609906426301),
        (8.0, 0.012322751177250102, 0.013873725717885173, 0.000262026711239618, 0.00026230008961037346, 0.008078802613040894),
        (10.0, 0.009642080057538258, 0.016371834059391757, 0.00021014401713460065, 0.00020866556502389683, 0.006417221018302686),
        (12.0, 0.009187073458649803, 0.012905422611309711, 0.0001675265142258869, 0.00016602421869439226, 0.005097379843303929),
        (14.0, 0.007087633421642464, 0.011681414433451828, 0.00013269376635153195, 0.0001309435782197011, 0.004048992732650745),
        (16.0, 0.004991464495554901, 0.010441118455741204, 0.00010440312446937207, 0.00010445865842828612, 0.00321622924973791),
        (18.0, 0.0028938015742029275, 0.007646685046953063, 8.332463541024645e-05, 8.304577073308154e-05, 0.0025547417024129144),
        (20.0, 0.004068907009963186, 0.00868479192280001, 6.734045854563332e-05, 6.592066411646631e-05, 0.0020293034666541555),
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
        (0.0, 0.031942016414388236, 0.037405380526705966, 0.0006622362489822799, 0.0006590504006617623, 0.020293034666541566),
        (10.0, 0.010524751797426136, 0.016151196131319236, 0.00020907319058984157, 0.0002083130344422346, 0.006417221018302683),
        (20.0, 0.0036527925404299957, 0.008926324941464317, 6.622170806400161e-05, 6.59663822497448e-05, 0.0020293034666541555),
    ],
}
PINNED_RESOLUTION_ROWS_24 = [
    (0.5, 0.22652357913505497, 0.18245215793978883, 8.698915712108772e-05, 8.536143501777091e-05, 0.002029303466654155),
    (0.75, 0.15914526134100987, 0.1426465037099556, 6.931053170290352e-05, 6.864904734264655e-05, 0.002029303466654155),
    (1.0, 0.13270025006921493, 0.07232763908938376, 6.587154652057396e-05, 6.508235020957247e-05, 0.002029303466654155),
    (1.25, 0.0777726317768857, 0.00916445642269422, 6.607711131199478e-05, 6.59978865294494e-05, 0.002029303466654155),
    (1.5, 0.007074682149770187, 0.010341946077187946, 6.713751991135823e-05, 6.667728704511531e-05, 0.002029303466654155),
    (2.0, 0.002393859956938882, 0.008151974016903962, 6.53350651031976e-05, 6.512043377027377e-05, 0.002029303466654155),
    (3.0, 0.0023576405988396222, 0.009137284352249857, 6.492857576714266e-05, 6.519083048301603e-05, 0.002029303466654155),
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


@pytest.mark.parametrize("k", [
    np.arange(-31, 33) + 0.5,  # crashed inside the search on a float index
    np.arange(-31, 33).astype(float),
    np.arange(-31, 33).reshape(2, 32),
], ids=["half-bins", "integral-floats", "2-D"])
def test_observation_bins_must_be_integers(k):
    with pytest.raises(ValueError, match="k must be a 1-D array of integer"):
        RadarObservation(b=np.ones(64, complex), w=np.ones(64, complex), k=k,
                         sigma2=0.0, f_c=F_C, t_s=T_S, t_cp=T_CP)


def test_observation_bins_must_not_repeat():
    # the chirp-z scatter kept one copy of a repeated bin while steering and
    # mf_objective counted both, so the grid and the steering metrics differed
    k = np.arange(-31, 33)
    k[10] = 9
    with pytest.raises(ValueError, match="k must not repeat"):
        RadarObservation(b=np.ones(64, complex), w=np.ones(64, complex), k=k,
                         sigma2=0.0, f_c=F_C, t_s=T_S, t_cp=T_CP)
    RadarObservation(b=np.ones(64, complex), w=np.ones(64, complex),
                     k=np.arange(-31, 33)[::-1] + 40, sigma2=0.0, f_c=F_C, t_s=T_S,
                     t_cp=T_CP)  # distinct bins in any order


def test_observation_accepts_list_bins():
    # the search calls k.max(), so a list k must be stored as an array
    scene = scene_of((1.7, -0.8))
    obs = observation(scene, modem(), 1e-3, rng=np.random.default_rng(9))
    as_list = RadarObservation(b=obs.b, w=obs.w, k=obs.k.tolist(), sigma2=obs.sigma2,
                               f_c=obs.f_c, t_s=obs.t_s, t_cp=obs.t_cp)
    assert isinstance(as_list.k, np.ndarray)
    est, est_list = estimate_multi_mf(obs, 1), estimate_multi_mf(as_list, 1)
    assert np.array_equal(est.delays, est_list.delays)
    assert np.array_equal(est.coeffs, est_list.coeffs)
    assert est.final_step == est_list.final_step


@pytest.mark.parametrize("sigma2", [np.nan, -2.0, np.inf, -np.inf])
def test_observation_noise_variance_checked(sigma2):
    # NaN gave a NaN LMMSE coefficient, a negative value zeroed every LMMSE
    # bin and infinity drove the coefficient to 0, all without an error
    with pytest.raises(ValueError, match="sigma2"):
        RadarObservation(b=np.ones(64, complex), w=np.ones(64, complex), k=np.arange(-31, 33),
                         sigma2=sigma2, f_c=F_C, t_s=T_S, t_cp=T_CP)


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
    inverse = np.linalg.inv(fim(scene, (k, w), sigma2))
    from_fim = SPEED_OF_LIGHT ** 2 / 4 * np.trace(inverse[:2, :2])
    direct = crlb_range(scene, (k, w), sigma2)
    assert abs(from_fim - direct) < 1e-12 * direct
    direct = crlb_coeff(scene, (k, w), sigma2)
    assert abs(np.trace(inverse[2:, 2:]) - direct) < 1e-12 * direct


def test_crlb_linear_in_noise_and_targets():
    scene1 = scene_of((1.5, 0.5))
    scene2 = scene_of((1.5, 0.5), (2.0, 0.5))
    k = np.arange(-31, 33)
    w = np.ones(len(k), complex)
    assert np.isclose(crlb_range(scene1, (k, w), 0.2), 2 * crlb_range(scene1, (k, w), 0.1))
    # targets couple, so the joint bound is never below the one-target bounds
    for scene in (scene1, scene2):
        for bound in (crlb_range, crlb_coeff):
            joint = bound(scene, (k, w), 0.1)
            alone = sum(bound(scene_of(t), (k, w), 0.1) for t in scene.targets)
            assert joint >= alone if scene.n_targets > 1 else joint == alone


@pytest.mark.parametrize("alpha", [0.5, 1.0, -0.25])
def test_coeff_bound_does_not_depend_on_coefficient(alpha):
    # d mean / d alpha = w_k e^{-j2pi nu_k tau} holds no alpha, so neither
    # does the bound
    k = np.arange(-31, 33)
    rng = np.random.default_rng(7)
    w = rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
    sigma2 = 0.01
    expect = sigma2 / (2 * np.sum(np.abs(w) ** 2))
    assert np.isclose(crlb_coeff(scene_of((1.5, alpha)), (k, w), sigma2), expect,
                      rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("targets, pair", [
    (((1.5, 0.5), (1.5, -0.3)), "0 and 1"),
    (((1.2, 1.0), (1.9, 0.5), (1.9, 0.5)), "1 and 2"),
], ids=["two", "last-two-of-three"])
def test_bounds_refuse_coincident_targets(targets, pair):
    # two targets at one distance make the Fisher information singular
    scene = scene_of(*targets)
    k = np.arange(-31, 33)
    w = np.ones(len(k), complex)
    for bound in (crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match=f"targets {pair} coincide"):
            bound(scene, (k, w), 0.01)


@pytest.mark.parametrize("sigma2", [0.0, -0.1, np.nan, np.inf])
def test_bounds_need_positive_noise(sigma2):
    # the bounds invert fim, which needs a finite positive noise variance
    scene = scene_of((1.5, 0.5))
    k = np.arange(-31, 33)
    w = np.ones(len(k), complex)
    for bound in (fim, crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match="sigma2"):
            bound(scene, (k, w), sigma2)


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
