"""Matched-filter / LMMSE range estimation and the range bounds."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpim.channel import RadarScene, radar_cfr
from chirpim.chirps import ChirpFamily, ChirpSpec
from chirpim.modem import ModemConfig, Scheme, encode, tx_bins
from chirpim.config import desk_preset
from chirpim import radar
from chirpim.radar import (RadarObservation, _grid_metric, crlb_coeff,
                           crlb_range, crlb_range_no_phase, estimate_lmmse,
                           estimate_mf_lmmse, estimate_multi_mf, fim,
                           min_resolution)
from chirpim.runners import radar_trials, random_words, run_radar_rmse, run_resolution
from chirpim.util import SPEED_OF_LIGHT

from oracles import mf_objective

T_S = 88.9e-9
F_C = 6.48e9
M, N, N_CP = 64, 128, 32
T_CP = N_CP * T_S / N


def modem(length=1, delta=0, scheme=Scheme.CSC_IM, d=48.0):
    chirp = ChirpSpec.centered(ChirpFamily.LINEAR, d, M) if scheme is Scheme.CSC_IM else None
    return ModemConfig(scheme, M, N, N_CP, length, 4, delta=delta, chirp=chirp)


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
    off = tau0 + 1.0 / (2 * cfg.chirp.d / T_S)
    assert mf_objective(tau0, obs)[0] > mf_objective(off, obs)[0]


# ---------------------------------------------------------------------------
# Single-target estimation
# ---------------------------------------------------------------------------

def test_single_target_noiseless_precision():
    rng = np.random.default_rng(1)
    cfg = modem()
    bandwidth = cfg.chirp.d / T_S
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
    for bound in (crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match="reference bins are all zero"):
            bound(scene, (np.arange(-31, 33), np.zeros(M)), 0.1)


def test_lmmse_rejects_zero_reference_with_noise():
    # sigma2 > 0 keeps the LMMSE denominator w^H w + sigma2 nonzero, but the
    # LMMSE rows run in the same searches as the MF rows, which divide by w^H w
    obs = RadarObservation(b=np.ones(M, complex), w=np.zeros(M, complex),
                           k=np.arange(-31, 33), sigma2=0.1, f_c=F_C, t_s=T_S, t_cp=T_CP)
    with pytest.raises(ValueError, match="reference bins are all zero"):
        estimate_lmmse(obs, 1)


# ---------------------------------------------------------------------------
# Multi-target estimation
# ---------------------------------------------------------------------------

def test_two_well_separated_targets_recovered():
    cfg = modem()
    r_min = min_resolution(cfg.chirp.d / T_S)
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
    r_min = min_resolution(cfg.chirp.d / T_S)
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
    r_min = min_resolution(cfg.chirp.d / T_S)
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
    # c(tau)^H q = e^{j2pi (f_c tau + k_0 i step/T_s)} g_i, so |g| is the envelope
    taus = lo + step * np.arange(n)
    ref = np.conj(obs.steering(taus)) @ obs.b
    got = _grid_metric(obs.b, lo, step, n, obs)
    assert got.shape == (n,)
    rotation = np.exp(2j * np.pi * (obs.f_c * taus + obs.k.min() * np.arange(n) * step / obs.t_s))
    assert np.max(np.abs(rotation * got - ref)) <= 1e-9 * np.max(np.abs(ref))


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
    (1536, 768), (1536, 65), (1536, 193),  # paper coarse grid, zooms, odd length
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
    # every stage of two paper-scale searches: the coarse grid and the
    # 65-point envelope zooms (one step each); the lobe pick runs no grid
    paper = grid_obs(np.arange(-767, 769), PAPER_T_S, PAPER_F_C, PAPER_T_CP, seed=8)
    calls = record_chirp_z(monkeypatch)
    for _ in range(2):
        estimate_multi_mf(paper, 1)
    monkeypatch.undo()
    assert {(x.shape[-1], n) for x, _, n, _ in calls} == {(1536, 768), (1536, 65)}
    assert len({phi for x, phi, n, _ in calls if (x.shape[-1], n) == (1536, 65)}) > 1
    for x, phi, n, got in calls:
        assert np.array_equal(got, chirp_z_reference(x, phi, n))


def test_grid_metric_noncontiguous_bins_equal_uncached_formula(monkeypatch):
    rng = np.random.default_rng(12)
    obs = grid_obs(np.sort(rng.choice(np.arange(-40, 60), size=37, replace=False)), seed=13)
    step, n = coarse(obs)
    grids = [(0.0, step, n), (0.0, 0.37 * step, n), (0.4 * T_CP, 1e-3 / F_C, 193),
             (np.array([0.1, 0.5]) * T_CP, 2e-3 / F_C, 193)]
    got = [_grid_metric(obs.b, lo, s, n_, obs) for lo, s, n_ in grids]
    monkeypatch.setattr(radar, "_chirp_z", chirp_z_reference)
    ref = [_grid_metric(obs.b, lo, s, n_, obs) for lo, s, n_ in grids]
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


GEOMETRIES = {"desk": (T_S, F_C, T_CP), "paper": (PAPER_T_S, PAPER_F_C, PAPER_T_CP)}


@st.composite
def bin_sets(draw):
    """Distinct bins, contiguous or scattered, as int32 or int64."""
    lo, size = draw(st.integers(-40, 0)), draw(st.integers(8, 40))
    if draw(st.booleans()):
        k = np.arange(lo, lo + size)
    else:
        k = np.array(sorted(draw(st.sets(st.integers(lo, lo + 80), min_size=8,
                                         max_size=size))))
    return k.astype(draw(st.sampled_from([np.int32, np.int64])))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(bin_sets(), st.sampled_from(sorted(GEOMETRIES)),
                          st.integers(1, 2)), min_size=1, max_size=3),
       st.permutations(range(4)), st.integers(0, 2 ** 16))
def test_geometry_cache_does_not_leak_between_geometries(cases, order, seed):
    # the first case also runs as its other dtype and on the other geometry,
    # so entries that share bin values sit in the cache side by side
    k, name, targets = cases[0]
    other = k.astype(np.int64 if k.dtype == np.int32 else np.int32)
    swap = "paper" if name == "desk" else "desk"
    variants = [(k, name), (other, name), (k, swap), (other, swap)]
    cases = [(*variants[i], targets) for i in order] + cases[1:]
    rng = np.random.default_rng(seed)
    observations = []
    for k, name, targets in cases:
        t_s, f_c, t_cp = GEOMETRIES[name]
        w = np.exp(2j * np.pi * rng.uniform(size=(2, len(k))))
        ref = RadarObservation(b=w, w=w, k=k, sigma2=1e-3, f_c=f_c, t_s=t_s, t_cp=t_cp)
        b = sum(-0.7 * w * ref.steering(rng.uniform(0.1, 0.9, 2) * t_cp)
                for _ in range(targets))
        observations.append((replace(ref, b=b + 0.03 * rng.standard_normal(b.shape)), targets))
    # warm: every observation twice, interleaved with the others
    warm = [estimate_mf_lmmse(obs, targets) for obs, targets in observations * 2]
    for i, (obs, targets) in enumerate(observations):
        radar._geometry.cache_clear()
        cold = estimate_mf_lmmse(obs, targets)
        for est in (warm[i], warm[i + len(observations)]):
            for a, b in zip(est, cold):
                assert np.array_equal(a.delays, b.delays)
                assert np.array_equal(a.coeffs, b.coeffs)
                assert a.final_step == b.final_step
        for array in radar._geometry_of(obs):
            if isinstance(array, np.ndarray):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0


def test_smooth_length_is_minimal():
    assert [radar._smooth_length(n) for n in range(1, 5001)] == \
        [smooth_length(n) for n in range(1, 5001)]


@pytest.mark.parametrize("m, n, size", [
    (1536, 768, 2304), (1536, 65, 1600), (1536, 193, 1728),  # paper grids
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
    geometry = radar._geometry(k.tobytes(), k.dtype.str, PAPER_F_C, t_s)
    for lo in (np.array([0.0]), np.array([0.37 * PAPER_T_CP]), np.array([PAPER_T_CP]),
               np.array([[0.0], [1e-12], [0.5 * PAPER_T_CP], [PAPER_T_CP]])):
        got = radar._bin_rotation(geometry, lo)
        ref = np.exp(2j * np.pi * k * lo / t_s)
        assert got.shape == ref.shape == lo.shape[:-1] + k.shape
        assert np.max(np.abs(got - ref)) <= 1e-12


def paper_observations(n_targets, rows, seed, k=np.arange(-767, 769)):
    """Paper-scale observations (bins k, by default the M = 1536 paper bins;
    f_c = 64.8 GHz) whose first target lies 2, 5 and 20 ps from 0 and from
    T_cp (the first two of each for two targets), so zoom windows shift to
    both edges; the other rows are spread over [0, T_cp]. A second target
    lies 3 bins' resolution further inside."""
    rng = np.random.default_rng(seed)
    sigma2 = 1e-3
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
# the search that picks the carrier lobe by Newton steps from the lobe
# candidates; final_step is the last envelope step.
PINNED_PAPER_ESTIMATES = {
    1: {
        "final_step": 6.165167297979798e-14,
        "mf_delays": [
            1.996711330489946e-12, 5.000617423343799e-12, 1.9998520560406775e-11,
            4.8482850449392017e-08, 4.847984657206064e-08, 4.846484803405629e-08,
            4.35965701380717e-08, 1.8108066218231025e-08, 3.667029795801142e-08,
            2.8225474215312723e-08, 1.526767015497766e-08, 4.2688640240144856e-08,
            4.035870783235715e-08, 1.8313918002970523e-08, 4.489013908527818e-08,
            1.2221669661697591e-08, 3.7573153640718877e-08, 3.213607807345481e-08,
            2.297961098020519e-08, 3.768482250172011e-09, 4.1469983929335127e-08,
            2.745548020526537e-08, 1.945587460868697e-08, 1.7901144695976617e-08,
        ],
        "mf_coeffs": [
            -0.6988512268604815, -0.6996121052152366, -0.6997684880862032, -0.6995217824869631,
            -0.7004959389654363, -0.7000454836135478, -0.6992986969475725, -0.6996114270566872,
            -0.7005172518785346, -0.7002871876018791, -0.7002429990041106, -0.7004056224169032,
            -0.6999014309227187, -0.6996975228113061, -0.6996078846376984, -0.700638312833546,
            -0.699580025859468, -0.7001804645208523, -0.6990335969390891, -0.6997292829118734,
            -0.7003729892488763, -0.6999001211236362, -0.6996811750567, -0.6996052309475758,
        ],
        "lmmse_delays": [
            1.994559135360849e-12, 5.0009825727322616e-12, 2.0003317803069746e-11,
            4.848284760003293e-08, 4.8479852155759235e-08, 4.846484425617351e-08,
            4.359656657889175e-08, 1.810806372635831e-08, 3.667029340588666e-08,
            2.8225469872115628e-08, 1.5267673520447943e-08, 4.2688640038306897e-08,
            4.035870963945526e-08, 1.8313914715156998e-08, 4.4890137581455767e-08,
            1.2221662395281687e-08, 3.7573151301334095e-08, 3.213607597707746e-08,
            2.2979608740936663e-08, 3.768481460786204e-09, 4.146998229345082e-08,
            2.7455480705535972e-08, 1.9455877871689037e-08, 1.790114993687341e-08,
        ],
        "lmmse_coeffs": [
            -0.6988504360878823, -0.6996115636260877, -0.6997666209711745, -0.6995207905868391,
            -0.7004935848015477, -0.7000441182813695, -0.6992974350114308, -0.6996105447218579,
            -0.7005155258812383, -0.7002855546289434, -0.7002418202753944, -0.700405108570356,
            -0.6999007062365749, -0.699696366240441, -0.6996072108123998, -0.7006347108801827,
            -0.6995791770831009, -0.700179705889425, -0.699032798652216, -0.6997287334655503,
            -0.7003723103148634, -0.699899587950505, -0.6996800352296918, -0.6996031221807094,
        ],
    },
    2: {
        "final_step": 6.165167297979798e-14,
        "mf_delays": [
            2.0005545586176167e-12, 3.8078958943320873e-10, 4.999903872959504e-12,
            3.8378589870703095e-10, 4.810406108758863e-08, 4.848285024273666e-08,
            4.810105998004909e-08, 4.8479848033168095e-08, 9.405673707206727e-09,
            9.784461479540826e-09, 2.7613900421903064e-08, 2.799268486335541e-08,
            3.799469869166954e-08, 3.8373488921043635e-08, 1.539559936554078e-08,
            1.5774386205532942e-08,
        ],
        "mf_coeffs": [
            -0.6987095873659858, -0.6992939412162492, -0.7010744829125332, -0.6998961623667238,
            -0.6994225570830351, -0.7004264115029829, -0.7001080236519339, -0.7003915845225652,
            -0.7012966907811425, -0.7007604667318911, -0.6982529384212761, -0.699377392927781,
            -0.6999055788733123, -0.7008435177852659, -0.7000802196700014, -0.7002915376984832,
        ],
        "lmmse_delays": [
            2.0023284199752004e-12, 3.807888282946952e-10, 4.998244763173562e-12,
            3.837867448823954e-10, 4.810406039328258e-08, 4.8482847892389496e-08,
            4.810105813446343e-08, 4.847984277391479e-08, 9.405676030605793e-09,
            9.784465070311415e-09, 2.7613900119984337e-08, 2.7992683927814595e-08,
            3.7994698601374454e-08, 3.837348555844672e-08, 1.539559599398735e-08,
            1.5774386466416042e-08,
        ],
        "lmmse_coeffs": [
            -0.6987101392816163, -0.6992961934668069, -0.7010721072388677, -0.699892239036355,
            -0.6994136835847293, -0.7004279864800484, -0.7001370241102293, -0.7003785623793988,
            -0.7012794691096451, -0.7007697438054498, -0.6982454010555353, -0.6993790213100405,
            -0.6999186547235249, -0.7008421800535645, -0.7000792025922001, -0.7002926272024967,
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
# delay search that picks the carrier lobe by Newton steps: a change that
# moves any estimate, even in its last bits, shows here.
PINNED_RADAR_ROWS = {
    "single": [
        (0.0, 0.018011810056585968, 0.018832282638260013, 0.00032618440511574654, 0.00032531377854331763, 0.010146517333270783),
        (2.0, 0.009238943417354394, 0.010842325035365979, 0.00025751716059848646, 0.0002584059194417993, 0.008059665201936305),
        (4.0, 0.010445781700602976, 0.012975488468799727, 0.00020622152320017034, 0.00020525911783250938, 0.006402019632322784),
        (6.0, 0.0070672118797637865, 0.011929986950310566, 0.0001654840080591812, 0.00016304311272896047, 0.0050853049532131505),
        (8.0, 0.006480601946295019, 0.007120130822798117, 0.00012964511694380995, 0.00012950974791794718, 0.004039401306520448),
        (10.0, 0.006534010089146939, 0.010067769795203928, 0.00010273407076699621, 0.0001028732494432497, 0.0032086105091513432),
        (12.0, 0.004083038932537251, 0.007738310032508476, 8.163456703362234e-05, 8.171512663060718e-05, 0.0025486899216519646),
        (14.0, 0.0029373850273634785, 0.008182856364870442, 6.519757077386024e-05, 6.490863228676136e-05, 0.0020244963663253726),
        (16.0, 3.8394675637293365e-05, 0.005837341641439467, 5.2287395660121626e-05, 5.155875930271063e-05, 0.001608114624868955),
        (18.0, 3.976790262512049e-05, 0.005759562189738675, 4.105089006450583e-05, 4.0954578261496265e-05, 0.0012773708512064572),
        (20.0, 3.2455599761449096e-05, 0.004970802047820516, 3.26289639095587e-05, 3.2531377854331764e-05, 0.0010146517333270782),
    ],
    "two": [
        (0.0, 0.03628650162156564, 0.04079927843575762, 0.0006638301046868525, 0.0006605644304104349, 0.02029303466654156),
        (2.0, 0.024140720945723417, 0.030131869594015225, 0.0005304385536007022, 0.0005228676254404462, 0.016119330403872603),
        (4.0, 0.025240896412893662, 0.025341375029077906, 0.000416165462127539, 0.00041651725966142033, 0.012804039264645566),
        (6.0, 0.019366960394704324, 0.02674154192295105, 0.00033383848025089286, 0.00033042197063433496, 0.010170609906426301),
        (8.0, 0.012307857919148292, 0.013873724226067013, 0.000262026711239618, 0.00026230008961037346, 0.008078802613040894),
        (10.0, 0.009642079956952175, 0.016371836543511112, 0.00021014401713460065, 0.00020866556502389683, 0.006417221018302686),
        (12.0, 0.008720560952632624, 0.012905421075372079, 0.0001675265142258869, 0.00016602421869439226, 0.005097379843303929),
        (14.0, 0.006474133386852526, 0.012017697553603166, 0.00013269376635153195, 0.0001309435782197011, 0.004048992732650745),
        (16.0, 0.004991461633850324, 0.01044111734497486, 0.00010440312446937207, 0.00010445865842828612, 0.00321622924973791),
        (18.0, 0.002893800342835267, 0.007646685367470564, 8.332463541024645e-05, 8.304577073308154e-05, 0.0025547417024129144),
        (20.0, 0.004068908476245112, 0.00868479053926716, 6.734045854563332e-05, 6.592066411646631e-05, 0.0020293034666541555),
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
        (0.0, 0.016132015655956334, 0.01670344042982362, 0.00032564467073368885, 0.0003253137785433174, 0.010146517333270785),
        (10.0, 0.005603243677156378, 0.006196415812114617, 0.00010291784686042291, 0.00010287324944324964, 0.003208610509151345),
        (20.0, 3.5355212102535394e-05, 0.004842823990103685, 3.2632676508945883e-05, 3.253137785433175e-05, 0.001014651733327078),
    ],
    "two": [
        (0.0, 0.03194201439966637, 0.03733651596127278, 0.0006622362489822799, 0.0006590504006617623, 0.020293034666541566),
        (10.0, 0.010524763771998414, 0.016202059915210728, 0.00020907319058984157, 0.0002083130344422346, 0.006417221018302683),
        (20.0, 0.004083606394330664, 0.008926223336215912, 6.622170806400161e-05, 6.59663822497448e-05, 0.0020293034666541555),
    ],
}
PINNED_RESOLUTION_ROWS_24 = [
    (0.5, 0.22604202699453807, 0.18245216124685543, 8.698915712108772e-05, 8.536143501777091e-05, 0.002029303466654155),
    (0.75, 0.15874287704562967, 0.14264650339016793, 6.931053170290352e-05, 6.864904734264655e-05, 0.002029303466654155),
    (1.0, 0.13270025016219733, 0.07255657329064444, 6.587154652057396e-05, 6.508235020957247e-05, 0.002029303466654155),
    (1.25, 0.07777263297470596, 0.009164455317655286, 6.607711131199478e-05, 6.59978865294494e-05, 0.002029303466654155),
    (1.5, 0.007074681552063929, 0.010341946681364123, 6.713751991135823e-05, 6.667728704511531e-05, 0.002029303466654155),
    (2.0, 0.0023938609510312466, 0.008151972912482259, 6.53350651031976e-05, 6.512043377027377e-05, 0.002029303466654155),
    (3.0, 0.002357639638643548, 0.008827006727606859, 6.492857576714266e-05, 6.519083048301603e-05, 0.002029303466654155),
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


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_estimates_do_not_depend_on_the_stack_layout(layout):
    # desk two-target trials as the runner draws them: a Fortran-ordered or
    # element-strided copy of the (B, M) stacks gives bit-identical
    # estimates (np.vdot rounds a row by its stride unless it is copied)
    cfg = desk_preset(length=2, separated=True)
    b, w, _ = radar_trials(cfg, "two", 12, 0.05, np.random.default_rng(21))

    def relaid(x):
        if layout == "fortran":
            return np.asfortranarray(x)
        wide = np.zeros(x.shape + (2,), dtype=complex)
        wide[..., 0] = x
        return wide[..., 0]

    def estimates(b, w):
        obs = RadarObservation(b=b, w=w, k=cfg.modem_config().k, sigma2=0.05,
                               f_c=cfg.f_c, t_s=cfg.t_s, t_cp=cfg.t_cp)
        return estimate_mf_lmmse(obs, 2)

    assert not relaid(w).flags.c_contiguous
    for ref, other in zip(estimates(b, w), estimates(relaid(b), relaid(w))):
        assert np.array_equal(ref.delays, other.delays)
        assert np.array_equal(ref.coeffs, other.coeffs)
        assert ref.final_step == other.final_step


def lobe_window(tau_e, obs):
    """The lobe pick's window: +-CARRIER_HALFSPAN cycles around the
    envelope estimate tau_e, shifted inside [0, T_cp]; returns (lo, hi)."""
    half = radar.CARRIER_HALFSPAN / obs.f_c
    lo = np.clip(tau_e - half, 0.0, max(obs.t_cp - 2.0 * half, 0.0))
    return lo, lo + 2.0 * half


def record_searches(monkeypatch):
    """Record every envelope grid as (lo, step, n) and every delay search as
    (q, tau_e, lobe candidates, tau_hat), tau_e being the maximizer of the
    search's last envelope grid."""
    grids, searches, seen = [], [], {}
    grid_metric, lobe_moments = radar._grid_metric, radar._lobe_moments
    search_delay = radar._search_delay

    def grid(q, lo, step, n, obs_):
        g = grid_metric(q, lo, step, n, obs_)
        grids.append((np.atleast_1d(lo), step, n))
        seen["tau_e"] = lo + np.argmax(np.abs(g), axis=-1) * step
        return g

    def moments(q, tau, offsets, obs_):
        if len(offsets) > 1:
            seen["cands"] = tau[:, None] + offsets
        return lobe_moments(q, tau, offsets, obs_)

    def search(q, obs_):
        tau, step = search_delay(q, obs_)
        searches.append((q, seen["tau_e"], seen["cands"], tau))
        return tau, step

    monkeypatch.setattr(radar, "_grid_metric", grid)
    monkeypatch.setattr(radar, "_lobe_moments", moments)
    monkeypatch.setattr(radar, "_search_delay", search)
    return grids, searches


def test_search_windows_shifted_inside_cyclic_prefix(monkeypatch):
    # every grid of a search has one scalar step for all rows and lies in
    # [0, T_cp]; zoom windows and lobe windows at the edges keep their
    # width by shifting, and the lobe candidates lie inside them
    obs = stacked_observations(np.arange(-31, 33), 1, seed=11)
    grids, searches = record_searches(monkeypatch)
    est = estimate_multi_mf(obs, 1)
    monkeypatch.undo()
    assert np.array_equal(grids[0][0], [0.0])  # the coarse grid
    assert all(len(lo) == 2 * len(obs.b) for lo, _, _ in grids[1:])  # MF and LMMSE rows
    for lo, step, n in grids:
        assert np.ndim(step) == 0
        assert np.all(lo >= 0.0) and np.all(lo + (n - 1) * step <= T_CP)
    assert any(np.any(lo == 0.0) for lo, _, _ in grids[1:])
    assert any(np.any(np.isclose(lo + (n - 1) * step, T_CP, rtol=1e-12, atol=0.0))
               for lo, step, n in grids[1:])
    (_, tau_e, cands, tau), = searches
    lo, hi = lobe_window(tau_e, obs)
    assert np.any(lo == 0.0) and np.any(np.isclose(hi, T_CP, rtol=1e-12, atol=0.0))
    # the first two candidates always lie in the window, the third may not
    assert np.all((cands[:, :2] >= lo[:, None] - 1e-9 / obs.f_c) & (cands[:, :2] <= hi[:, None]))
    assert np.all((tau >= lo) & (tau <= hi))
    delays = est.delays[:, 0]
    assert np.all((delays >= 0.0) & (delays <= T_CP))
    assert abs(delays[0] - 0.02e-9) < 0.01e-9
    assert abs(delays[4] - (T_CP - 0.02e-9)) < 0.01e-9


@pytest.mark.parametrize("n_targets", [1, 2])
@pytest.mark.parametrize("bins", ["contiguous", "two-in-three"])
@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_lobe_pick_is_the_window_maximum(monkeypatch, scale, bins, n_targets):
    # every search of the estimator (MF and LMMSE rows, cancellation and
    # update passes) ends on a delay where |Re{c(tau)^H q}| is at least the
    # maximum of a dense explicit-steering grid over the lobe window
    if scale == "desk":
        k = np.arange(-31, 33)
        k = k if bins == "contiguous" else k[np.arange(len(k)) % 3 != 1]
        obs = stacked_observations(k, n_targets, seed=20 + n_targets)
    else:
        k = np.arange(-767, 769)
        k = k if bins == "contiguous" else k[np.arange(len(k)) % 3 != 1]
        obs = paper_observations(n_targets, 6 if n_targets == 1 else 5, seed=30 + n_targets, k=k)
    searches = record_searches(monkeypatch)[1]
    estimate_mf_lmmse(obs, n_targets)
    monkeypatch.undo()
    assert len(searches) == (1 if n_targets == 1 else 2 + 2 * radar.UPDATE_PASSES)
    shifted = set()
    for q, tau_e, _, tau in searches:
        lo, hi = lobe_window(tau_e, obs)
        shifted |= {"0"} if np.any(lo == 0.0) else set()
        shifted |= {"T_cp"} if np.any(np.isclose(hi, obs.t_cp, rtol=1e-12, atol=0.0)) else set()
        for row in range(len(q)):
            dense = np.conj(obs.steering(np.linspace(lo[row], hi[row], 601))) @ q[row]
            picked = np.conj(obs.steering(tau[row])) @ q[row]
            assert abs(picked.real) >= (1 - 1e-12) * np.max(np.abs(dense.real))
    assert shifted == {"0", "T_cp"}


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


@pytest.mark.parametrize("n_targets", [1, 2])
def test_stacked_bounds_equal_single_scene_calls(n_targets):
    # a Fortran-ordered stack of reference bins has strided rows; each
    # stacked row must still equal its own single-scene call bit for bit,
    # per frame and for the shared expectation-form bins
    cfg = modem(length=2)
    rng = np.random.default_rng(40 + n_targets)
    w = np.asfortranarray(tx_bins(random_words(cfg, 6, rng)[2], cfg))
    assert not w.flags.c_contiguous
    scenes = [scene_of(*((d, rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.2))
                         for d in np.sort(rng.uniform(1.0, 3.0, n_targets))))
              for _ in range(len(w))]
    for ref in (w, cfg.fdss.g):
        stacked = [bound(scenes, (cfg.k, ref), 0.01) for bound in (fim, crlb_range, crlb_coeff)]
        assert stacked[0].shape == (len(w), 2 * n_targets, 2 * n_targets)
        for i, scene in enumerate(scenes):
            row = ref[i] if ref.ndim == 2 else ref
            for bound, values in zip((fim, crlb_range, crlb_coeff), stacked):
                assert np.array_equal(values[i], bound(scene, (cfg.k, row), 0.01))
    no_phase = crlb_range_no_phase(scenes, cfg.m, 0.01)
    assert no_phase.shape == (len(scenes),)
    for i, scene in enumerate(scenes):
        assert np.array_equal(no_phase[i], crlb_range_no_phase(scene, cfg.m, 0.01))


def test_stacked_bounds_name_the_singular_row():
    k = np.arange(-31, 33)
    scenes = [scene_of((1.5, 0.5), (2.0, 0.5)), scene_of((1.7, 0.5), (1.7, -0.3))]
    for bound in (crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match=r"targets 0 and 1 coincide at 1.7 m \(row 1\)"):
            bound(scenes, (k, np.ones(len(k), complex)), 0.01)
        w = np.ones((2, len(k)), complex)
        w[1] = 0
        with pytest.raises(ValueError, match=r"reference bins are all zero \(row 1\)"):
            bound(scenes[:1] * 2, (k, w), 0.01)


@pytest.mark.parametrize("scenes, w, named", [
    ([], np.ones(64), "at least one scene"),
    ([scene_of((1.5, 0.5)), scene_of((1.5, 0.5), (2.0, 0.5))], np.ones(64), "counts \\[1, 2\\]"),
    ([scene_of((1.5, 0.5))] * 3, np.ones((2, 64)), "shape \\(2, 64\\) do not fit 3"),
    (scene_of((1.5, 0.5)), np.ones(63), "shape \\(63,\\)"),
], ids=["empty", "target-counts", "rows", "bins"])
def test_stacked_bounds_check_their_shapes(scenes, w, named):
    for bound in (fim, crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match=named):
            bound(scenes, (np.arange(-31, 33), w), 0.01)


@pytest.mark.parametrize("sigma2", [0.0, -0.1, np.nan, np.inf, 1e-290])
def test_bounds_need_positive_noise(sigma2):
    # the bounds invert fim, which needs a finite positive noise variance;
    # at 1e-290 (2900 dB) J overflows, and used to give a zero bound
    scene = scene_of((1.5, 0.5))
    k = np.arange(-31, 33)
    w = np.ones(len(k), complex)
    for bound in (fim, crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match="sigma2"):
            bound(scene, (k, w), sigma2)
    # the phase-unaware bound is linear in sigma2: finite at 1e-290, and it
    # used to return a negative or zero bound for sigma2 <= 0
    if not 0.0 < sigma2 < np.inf:
        with pytest.raises(ValueError, match="sigma2"):
            crlb_range_no_phase(scene, len(k), sigma2)


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
