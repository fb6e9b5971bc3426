"""Matched-filter / LMMSE range estimation and the range bounds."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpim.channel import RadarScene, radar_cfr
from chirpim.chirps import ChirpFamily, ChirpSpec
from chirpim.modem import ModemConfig, Scheme, encode, tx_bins, word_symbols
from chirpim.config import desk_preset, paper_preset
from chirpim import radar
from chirpim.radar import (RadarObservation, _grid_metric, crlb_coeff,
                           crlb_range, crlb_range_no_phase, estimate_lmmse,
                           estimate_mf_lmmse, estimate_multi_mf, fim,
                           min_resolution)
from chirpim.runners import radar_trials, random_words, run_radar_rmse, run_resolution
from chirpim.util import SPEED_OF_LIGHT, band

from oracles import lobe_moments, mf_objective, steering

T_S = 88.9e-9
F_C = 6.48e9
M, N, N_CP = 64, 128, 32
T_CP = N_CP * T_S / N


def modem(length=1, delta=0, scheme=Scheme.CSC_IM, d=48.0):
    chirp = ChirpSpec(ChirpFamily.LINEAR, d) if scheme is Scheme.CSC_IM else None
    return ModemConfig(scheme, M, N, N_CP, length, 4, delta=delta, chirp=chirp)


def observation(scene, cfg, sigma2, rng=None, word_rng=None):
    word_rng = word_rng or np.random.default_rng(0)
    bits = word_rng.integers(0, 2, cfg.capacity.total)
    _, d = encode(bits, cfg)
    w = tx_bins(d, cfg)
    b = radar_cfr(scene, cfg.k) * w
    if rng is not None and sigma2 > 0:
        b = b + (rng.standard_normal(M) + 1j * rng.standard_normal(M)) * np.sqrt(sigma2 / 2)
    return RadarObservation(b=b, w=w, sigma2=sigma2, f_c=F_C,
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
    zero = RadarObservation(b=np.zeros(M, complex), w=obs.w, sigma2=0.0, f_c=F_C, t_s=T_S,
                            t_cp=T_CP)
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
        bound.append(crlb_range(scene, obs.w, sigma2))
    gap_db = 10 * np.log10(np.mean(err2) / np.mean(bound))
    assert abs(gap_db) < 1.0


def test_rejects_zero_reference():
    scene = scene_of((1.0, 1.0))
    obs = RadarObservation(b=np.ones(M, complex), w=np.zeros(M, complex),
                           sigma2=0.0, f_c=F_C,
                           t_s=T_S, t_cp=T_CP)
    with pytest.raises(ValueError):
        estimate_multi_mf(obs, 1)
    for bound in (crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match="reference bins are all zero"):
            bound(scene, np.zeros(M), 0.1)


def test_lmmse_rejects_zero_reference_with_noise():
    # sigma2 > 0 keeps the LMMSE denominator w^H w + sigma2 nonzero, but the
    # LMMSE rows run in the same searches as the MF rows, which divide by w^H w
    obs = RadarObservation(b=np.ones(M, complex), w=np.zeros(M, complex),
                           sigma2=0.1, f_c=F_C, t_s=T_S, t_cp=T_CP)
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
    big = RadarObservation(b=base.b, w=base.w, sigma2=1e9,
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
        bound.append(crlb_range(scene, obs.w, sigma2))
    gap_db = 10 * np.log10(np.mean(err2) / np.mean(bound))
    assert gap_db > 1.0


# ---------------------------------------------------------------------------
# Grid evaluation (chirp-z) against explicit steering vectors
# ---------------------------------------------------------------------------

PAPER_T_S, PAPER_F_C = 2048 / 10.56e9, 64.8e9
PAPER_T_CP = 512 / 10.56e9


def grid_obs(m, t_s=T_S, f_c=F_C, t_cp=T_CP, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return RadarObservation(b=q, w=np.ones(m, complex), sigma2=0.0, f_c=f_c, t_s=t_s, t_cp=t_cp)


def plan_of(obs):
    """The search plan of the observation's bin window and timing."""
    return radar._plan(len(obs.k), obs.f_c, obs.t_s, obs.t_cp)


def grid_metric(obs, lo, step, n):
    """_grid_metric of obs.b on the grid of n delays step apart from lo."""
    return _grid_metric(obs.b, lo, radar._stage(len(obs.k), step, n, obs.t_s), plan_of(obs))


def assert_grid_matches_steering(obs, lo, step, n):
    # c(tau)^H q = e^{j2pi (f_c tau + k_0 i step/T_s)} g_i, so |g| is the envelope
    taus = lo + step * np.arange(n)
    ref = np.conj(steering(obs, taus)) @ obs.b
    got = grid_metric(obs, lo, step, n)
    assert got.shape == (n,)
    rotation = np.exp(2j * np.pi * (obs.f_c * taus + obs.k.min() * np.arange(n) * step / obs.t_s))
    assert np.max(np.abs(rotation * got - ref)) <= 1e-9 * np.max(np.abs(ref))


def coarse(obs, halfbin=0.5):
    step = halfbin * obs.t_s / len(obs.k)
    return step, len(np.arange(0.0, obs.t_cp, step))


def test_grid_metric_desk_coarse_grid():
    obs = grid_obs(64)
    assert_grid_matches_steering(obs, 0.0, *coarse(obs))


def test_grid_metric_paper_coarse_grid():
    obs = grid_obs(1536, PAPER_T_S, PAPER_F_C, PAPER_T_CP)
    step, n = coarse(obs)
    assert n == 768
    assert_grid_matches_steering(obs, 0.0, step, n)


@pytest.mark.parametrize("points", [65, 193])
def test_grid_metric_zoom_windows_clamped_at_edges(points):
    for obs in (grid_obs(64, seed=1),
                grid_obs(1536, PAPER_T_S, PAPER_F_C, PAPER_T_CP, seed=2)):
        step, _ = coarse(obs)
        for lo, hi in ((0.0, step), (obs.t_cp - 0.3 * step, obs.t_cp),
                       (0.0, 1.2 / obs.f_c), (obs.t_cp - 0.6 / obs.f_c, obs.t_cp)):
            assert_grid_matches_steering(obs, lo, (hi - lo) / (points - 1), points)


def test_grid_metric_step_off_fft_bins():
    obs = grid_obs(64, seed=3)
    assert_grid_matches_steering(obs, 0.0, *coarse(obs, halfbin=0.37))
    paper = grid_obs(1536, PAPER_T_S, PAPER_F_C, PAPER_T_CP, seed=4)
    assert_grid_matches_steering(paper, 0.0, *coarse(paper, halfbin=0.37))


@pytest.mark.parametrize("n", [1, 64, 65, 66])
def test_grid_metric_fft_length_boundaries(n):
    # span + n - 1 just below, at and just above a power of two
    obs = grid_obs(64, seed=7)
    assert_grid_matches_steering(obs, 0.1 * T_CP, 0.3 * T_S / 64, n)


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


def stage_phi(stage, t_s):
    """The chirp-z angle step of a stage, phi = 2pi step/T_s, as _stage forms it."""
    return 2.0 * np.pi * stage.step / t_s


@pytest.mark.parametrize("m, n", [
    (1536, 768), (1536, 65), (1536, 193),  # paper coarse grid, zooms, odd length
    (1536, 512), (1536, 513), (1536, 514),  # m + n - 2 around 2048
    (64, 1), (64, 64), (64, 65), (64, 66),  # m + n - 2 around 128
])
def test_chirp_z_equals_uncached_formula(m, n):
    # two stages per (m, n), the first one used twice: a stage's chirp and
    # kernel belong to its own step, and reuse gives the same bits
    rng = np.random.default_rng(m + n)
    x = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    half, off = (radar._stage(m, h * T_S / m, n, T_S) for h in (0.5, 0.185))
    for stage in (half, off, half):
        assert np.array_equal(radar._chirp_z(x, stage),
                              chirp_z_reference(x, stage_phi(stage, T_S), n))


def record_chirp_z(monkeypatch):
    calls = []
    chirp_z = radar._chirp_z

    def recording(x, stage):
        calls.append((x.copy(), stage, chirp_z(x, stage)))
        return calls[-1][-1]

    monkeypatch.setattr(radar, "_chirp_z", recording)
    return calls


def test_search_stages_equal_uncached_formula(monkeypatch):
    # every stage of two paper-scale searches: the coarse grid and the
    # 65-point envelope zooms (one step each); the lobe pick runs no grid
    paper = grid_obs(1536, PAPER_T_S, PAPER_F_C, PAPER_T_CP, seed=8)
    calls = record_chirp_z(monkeypatch)
    for _ in range(2):
        estimate_multi_mf(paper, 1)
    monkeypatch.undo()
    assert {(x.shape[-1], stage.n) for x, stage, _ in calls} == {(1536, 768), (1536, 65)}
    assert len({stage.step for x, stage, _ in calls if stage.n == 65}) > 1
    for x, stage, got in calls:
        assert np.array_equal(got, chirp_z_reference(x, stage_phi(stage, PAPER_T_S), stage.n))


def test_grid_metric_equals_uncached_formula(monkeypatch):
    # an off-centre window, one lo for all rows and one per row
    obs = grid_obs(37, seed=13)
    step, n = coarse(obs)
    grids = [(0.0, step, n), (0.0, 0.37 * step, n), (0.4 * T_CP, 1e-3 / F_C, 193),
             (np.array([0.1, 0.5]) * T_CP, 2e-3 / F_C, 193)]
    got = [grid_metric(obs, lo, s, n_) for lo, s, n_ in grids]
    monkeypatch.setattr(radar, "_chirp_z", lambda x, stage: chirp_z_reference(
        x, stage_phi(stage, obs.t_s), stage.n))
    ref = [grid_metric(obs, lo, s, n_) for lo, s, n_ in grids]
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_second_search_on_same_geometry_only_hits_cache(monkeypatch):
    # the estimator looks its plan up once per call, and every grid it
    # evaluates is one of the plan's stages
    obs = stacked_observations(64, 2, seed=14)
    estimate_mf_lmmse(obs, 2)
    before = radar._plan.cache_info()
    calls = record_chirp_z(monkeypatch)
    estimate_mf_lmmse(obs, 2)
    after = radar._plan.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert after.hits - before.hits == 1
    stages = plan_of(obs).stages
    assert len(calls) == len(stages) * (2 + 2 * radar.UPDATE_PASSES)
    assert all(any(stage is s for s in stages) for _, stage, _ in calls)


def array_fields(table):
    """The fields of a plan or stage whose annotation is an array."""
    return [name for name, kind in type(table).__annotations__.items() if "np.ndarray" in str(kind)]


def assert_plan_read_only(plan):
    # every field annotated as an array holds one, and no other field does
    tables = (plan, *plan.stages)
    arrays = [getattr(t, name) for t in tables for name in array_fields(t)]
    assert all(isinstance(array, np.ndarray) for array in arrays)
    assert len(arrays) == sum(isinstance(v, np.ndarray) for t in tables for v in t)
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_cached_chirp_and_kernel_are_read_only():
    plan = radar._plan(64, F_C, T_S, T_CP)
    zoom = plan.stages[1]
    assert (zoom.n, zoom.size, zoom.chirp.shape, zoom.kernel.shape) == (65, 128, (128,), (128,))
    assert_plan_read_only(plan)


GEOMETRIES = {"desk": (T_S, F_C, T_CP), "paper": (PAPER_T_S, PAPER_F_C, PAPER_T_CP)}


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(8, 40), st.sampled_from(sorted(GEOMETRIES)),
                          st.integers(1, 2)), min_size=1, max_size=3),
       st.permutations(range(4)), st.integers(0, 2 ** 16))
def test_geometry_cache_does_not_leak_between_geometries(cases, order, seed):
    # the first case also runs one bin wider, one bin narrower and on the
    # other geometry, so plans of overlapping bands sit in the cache side
    # by side
    m, name, targets = cases[0]
    swap = "paper" if name == "desk" else "desk"
    variants = [(m, name), (m + 1, name), (m - 1, name), (m, swap)]
    cases = [(*variants[i], targets) for i in order] + cases[1:]
    rng = np.random.default_rng(seed)
    observations = []
    for m, name, targets in cases:
        t_s, f_c, t_cp = GEOMETRIES[name]
        w = np.exp(2j * np.pi * rng.uniform(size=(2, m)))
        ref = RadarObservation(b=w, w=w, sigma2=1e-3, f_c=f_c, t_s=t_s, t_cp=t_cp)
        b = sum(-0.7 * w * steering(ref, rng.uniform(0.1, 0.9, 2) * t_cp)
                for _ in range(targets))
        observations.append((replace(ref, b=b + 0.03 * rng.standard_normal(b.shape)), targets))
    # warm: every observation twice, interleaved with the others
    warm = [estimate_mf_lmmse(obs, targets) for obs, targets in observations * 2]
    for i, (obs, targets) in enumerate(observations):
        radar._plan.cache_clear()
        cold = estimate_mf_lmmse(obs, targets)
        assert radar._plan.cache_info().currsize == 1
        for est in (warm[i], warm[i + len(observations)]):
            for a, b in zip(est, cold):
                assert np.array_equal(a.delays, b.delays)
                assert np.array_equal(a.coeffs, b.coeffs)
                assert a.final_step == b.final_step
        assert_plan_read_only(plan_of(obs))


def test_smooth_length_is_minimal():
    assert [radar._smooth_length(n) for n in range(1, 5001)] == \
        [smooth_length(n) for n in range(1, 5001)]


@pytest.mark.parametrize("m, n, size", [
    (1536, 768, 2304), (1536, 65, 1600), (1536, 193, 1728),  # paper grids
    (1536, 514, 2160), (64, 66, 135), (64, 65, 128),  # m + n - 2 is 5-smooth
])
def test_bluestein_length_holds_the_linear_convolution(m, n, size):
    assert radar._stage(m, 0.5 * T_S / m, n, T_S).size == size == smooth_length(m + n - 1)


@pytest.mark.parametrize("k", [
    np.arange(-767, 769),  # paper bins: 39 blocks of 40, the last one short
    np.arange(-31, 33),  # desk bins: M = 64, blocks of 8
    np.arange(-18, 19),  # M = 37: blocks of 7, the last one short
], ids=["paper", "desk", "odd"])
def test_bin_rotation_equals_exp(k):
    t_s = PAPER_T_S
    plan = radar._plan(len(k), PAPER_F_C, t_s, PAPER_T_CP)
    for lo in (np.array([0.0]), np.array([0.37 * PAPER_T_CP]), np.array([PAPER_T_CP]),
               np.array([[0.0], [1e-12], [0.5 * PAPER_T_CP], [PAPER_T_CP]])):
        got = radar._bin_rotation(plan, lo)
        ref = np.exp(2j * np.pi * k * lo / t_s)
        assert got.shape == ref.shape == lo.shape[:-1] + k.shape
        assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_rotation_is_the_conjugate_steering_vector(scale):
    # delays across [0, T_cp], both ends included, as one row, a stack of rows
    # and a (rows, R) array
    t_s, f_c, t_cp = GEOMETRIES[scale]
    m = 64 if scale == "desk" else 1536
    plan = radar._plan(m, f_c, t_s, t_cp)
    ref = RadarObservation(b=np.ones(m, complex), w=np.ones(m, complex), sigma2=0.0, f_c=f_c,
                           t_s=t_s, t_cp=t_cp)
    taus = np.concatenate(([0.0, t_cp], np.random.default_rng(3).uniform(0.0, t_cp, 40)))
    for tau in (taus[:1], taus, taus.reshape(-1, 2)):
        got = np.conj(radar._rotation(plan, tau))
        assert got.shape == tau.shape + (m,)
        assert np.max(np.abs(got - steering(ref, tau))) <= 1e-12


@pytest.mark.parametrize("rows", [1, 2, 128])
@pytest.mark.parametrize("lobes", [3, 1], ids=["J3", "J1"])
@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_lobe_moments_equal_elementwise_sums(scale, lobes, rows):
    # each s_n lies within 1e-12 of its scale sum_k |q_k| |k/T_s|^n: random
    # q cancels in the sum, so a tolerance on |s_n| itself would measure the
    # cancellation (at paper scale some rows lose 1e-12 of |s_n| that way)
    t_s, f_c, t_cp = GEOMETRIES[scale]
    m = 64 if scale == "desk" else 1536
    plan = radar._plan(m, f_c, t_s, t_cp)
    rng = np.random.default_rng(rows)
    q = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
    tau = rng.uniform(0.0, t_cp, rows)
    offsets = plan.lobe_offsets if lobes == 3 else np.zeros(1)
    got = radar._lobe_moments(q, tau, offsets, plan)
    ref = lobe_moments(q, tau, offsets, band(m), f_c, t_s)
    assert got.shape == ref.shape == (3, rows, lobes)
    scale_n = np.stack([np.abs(q) @ np.abs(band(m) / t_s) ** n for n in range(3)])
    assert np.all(np.abs(got - ref) <= 1e-12 * scale_n[..., None])


def test_lobe_moments_allocate_no_per_lobe_temporaries():
    # at paper scale with 128 rows the peak stays below three (rows, M)
    # complex arrays: products of shape (rows, J, M), J = 3, would need nine
    t_s, f_c, t_cp = GEOMETRIES["paper"]
    plan = radar._plan(1536, f_c, t_s, t_cp)
    rng = np.random.default_rng(5)
    q = rng.standard_normal((128, 1536)) + 1j * rng.standard_normal((128, 1536))
    tau = rng.uniform(0.0, t_cp, 128)
    tracemalloc.start()
    try:
        radar._lobe_moments(q, tau, plan.lobe_offsets, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * q.nbytes


def paper_observations(n_targets, rows, seed, m=1536):
    """Paper-scale observations (M = 1536 bins, f_c = 64.8 GHz) whose first
    target lies 2, 5 and 20 ps from 0 and from T_cp (the first two of each
    for two targets), so zoom windows shift to both edges; the other rows
    are spread over [0, T_cp]. A second target lies 3 bins' resolution
    further inside."""
    rng = np.random.default_rng(seed)
    sigma2 = 1e-3
    near = (2e-12, 5e-12, 20e-12)[:3 if n_targets == 1 else 2]
    taus = list(near) + [PAPER_T_CP - e for e in near]
    taus += list(rng.uniform(0.05, 0.95, rows - len(taus)) * PAPER_T_CP)
    bs, ws = [], []
    for tau in taus:
        w = np.exp(2j * np.pi * rng.uniform(size=m)) * rng.uniform(0.2, 1.5, m)
        ref = RadarObservation(b=w, w=w, sigma2=sigma2, f_c=PAPER_F_C, t_s=PAPER_T_S,
                               t_cp=PAPER_T_CP)
        spacing = 3.0 * PAPER_T_S / m * (1 if tau < PAPER_T_CP / 2 else -1)
        b = sum(-0.7 * w * steering(ref, tau + s * spacing) for s in range(n_targets))
        bs.append(b + (rng.standard_normal(m) + 1j * rng.standard_normal(m))
                  * np.sqrt(sigma2 / 2))
        ws.append(w)
    return RadarObservation(b=np.stack(bs), w=np.stack(ws), sigma2=sigma2,
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
            -0.6988512268604815, -0.6996121052152366, -0.6997684880862032, -0.699521782486963,
            -0.7004959389654363, -0.7000454836135478, -0.6992986969475725, -0.6996114270566872,
            -0.7005172518785346, -0.7002871876018791, -0.7002429990041106, -0.7004056224169032,
            -0.6999014309227188, -0.6996975228113061, -0.6996078846376984, -0.700638312833546,
            -0.6995800258594679, -0.7001804645208523, -0.6990335969390891, -0.6997292829118735,
            -0.7003729892488763, -0.6999001211236362, -0.6996811750566999, -0.6996052309475758,
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
            -0.7005155258812383, -0.7002855546289434, -0.7002418202753944, -0.7004051085703559,
            -0.6999007062365747, -0.699696366240441, -0.6996072108123998, -0.7006347108801827,
            -0.6995791770831008, -0.700179705889425, -0.699032798652216, -0.6997287334655503,
            -0.7003723103148632, -0.699899587950505, -0.6996800352296918, -0.6996031221807094,
        ],
    },
    2: {
        "final_step": 6.165167297979798e-14,
        "mf_delays": [
            2.0005545586176163e-12, 3.8078958943320873e-10, 4.999903872959503e-12,
            3.8378589870703095e-10, 4.810406108758863e-08, 4.848285024273666e-08,
            4.810105998004909e-08, 4.8479848033168095e-08, 9.405673707206727e-09,
            9.784461479540826e-09, 2.7613900421903064e-08, 2.799268486335541e-08,
            3.799469869166954e-08, 3.8373488921043635e-08, 1.539559936554078e-08,
            1.5774386205532942e-08,
        ],
        "mf_coeffs": [
            -0.6987095873659858, -0.6992939412162491, -0.7010744829125333, -0.6998961623667237,
            -0.6994225570830289, -0.7004264115029816, -0.7001080236519333, -0.700391584522564,
            -0.7012966907811451, -0.7007604667318902, -0.6982529384212761, -0.6993773929277817,
            -0.6999055788733108, -0.7008435177852744, -0.7000802196700009, -0.7002915376984847,
        ],
        "lmmse_delays": [
            2.002328419975201e-12, 3.807888282946952e-10, 4.998244763173562e-12,
            3.837867448823954e-10, 4.810406039328258e-08, 4.8482847892389496e-08,
            4.810105813446343e-08, 4.847984277391479e-08, 9.405676030605793e-09,
            9.784465070311415e-09, 2.7613900119984337e-08, 2.7992683927814595e-08,
            3.7994698601374454e-08, 3.837348555844672e-08, 1.539559599398735e-08,
            1.5774386466416042e-08,
        ],
        "lmmse_coeffs": [
            -0.6987101392816162, -0.6992961934668069, -0.7010721072388678, -0.699892239036355,
            -0.6994136835847331, -0.7004279864800393, -0.70013702411022, -0.7003785623793931,
            -0.701279469109645, -0.7007697438054504, -0.6982454010555369, -0.6993790213100435,
            -0.6999186547235202, -0.7008421800535717, -0.7000792025922015, -0.7002926272024967,
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


# Rows of run_radar_rmse at the desk preset (16 trials, seed 1, each batch's
# stream drawn whole), from the delay search that picks the carrier lobe by
# Newton steps and, for two targets, the joint lobe check: a change that
# moves any estimate, even in its last bits, shows here.
PINNED_RADAR_ROWS = {
    "single": [
        (0.0, 0.017127291576857342, 0.02090540938700791, 0.00032440686461972777, 0.00032531377854331763, 0.010146517333270783),
        (2.0, 0.008661868120855941, 0.011227530850628595, 0.0002590360125321427, 0.0002584059194417993, 0.008059665201936305),
        (4.0, 0.008289705210482369, 0.01203486322957569, 0.00020615788909753068, 0.00020525911783250938, 0.006402019632322784),
        (6.0, 0.005815238966713341, 0.008700474988823113, 0.00016269164371619075, 0.00016304311272896047, 0.0050853049532131505),
        (8.0, 0.006466846021732635, 0.008637382633616722, 0.00012956062283998166, 0.00012950974791794718, 0.004039401306520448),
        (10.0, 0.005778772595878339, 0.007110539406837049, 0.00010319470135524627, 0.0001028732494432497, 0.0032086105091513432),
        (12.0, 6.88416762179234e-05, 0.008173143894995067, 8.193360141578976e-05, 8.171512663060718e-05, 0.0025486899216519646),
        (14.0, 0.0028553609175388417, 0.005774239109112774, 6.541237129594106e-05, 6.490863228676136e-05, 0.0020244963663253726),
        (16.0, 5.66305826261116e-05, 0.0040830096245263224, 5.155022829587015e-05, 5.155875930271063e-05, 0.001608114624868955),
        (18.0, 4.107488962825303e-05, 0.006480242366263647, 4.0919556639008364e-05, 4.0954578261496265e-05, 0.0012773708512064572),
        (20.0, 2.6549399283777143e-05, 0.0028798823608872414, 3.228807268628197e-05, 3.2531377854331764e-05, 0.0010146517333270782),
    ],
    "two": [
        (0.0, 0.11778969516195818, 0.03474068784431647, 0.0006661848947765941, 0.0006593118685888138, 0.02029303466654156),
        (2.0, 0.025404402474660248, 0.027061538986018176, 0.0005283065629821135, 0.0005243372508888486, 0.016119330403872603),
        (4.0, 0.017307290794637407, 0.018475763440262687, 0.0004176854070786619, 0.0004161585267345108, 0.012804039264645566),
        (6.0, 0.018508096480982953, 0.018462033894896618, 0.0003293222008637834, 0.0003297111367747161, 0.010170609906426301),
        (8.0, 0.010394277054787354, 0.013530180555719737, 0.00026468158122640355, 0.0002623913356112205, 0.008078802613040894),
        (10.0, 0.008748736554393174, 0.011266914492789588, 0.00021132989858470508, 0.00020832330324107586, 0.006417221018302686),
        (12.0, 0.008642763537847514, 0.008632867080945216, 0.00016618742152474988, 0.00016559260458645026, 0.005097379843303929),
        (14.0, 0.005014255957923355, 0.006485360671412491, 0.00013324954497696438, 0.00013140517197219884, 0.004048992732650745),
        (16.0, 0.006468845034470348, 0.0057809088061433955, 0.00010456795497950275, 0.00010459381796673318, 0.00321622924973791),
        (18.0, 6.680097963358562e-05, 0.00015212293890142566, 8.308726830247186e-05, 8.312217482657503e-05, 0.0025547417024129144),
        (20.0, 6.462076793897816e-05, 0.00010935626343443301, 6.561962900023408e-05, 6.583951890742098e-05, 0.0020293034666541555),
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
# RADAR_BATCH = 64 trials and one of 16, each drawn whole) at 0/10/20 dB,
# and of run_resolution with 24 trials: the rows do not depend on the
# worker count.
PINNED_RADAR_ROWS_80 = {
    "single": [
        (0.0, 0.013883676079676166, 0.016856386294389875, 0.00032586351823586863, 0.0003253137785433174, 0.010146517333270785),
        (10.0, 0.005323622538914982, 0.007852803423447964, 0.00010320473613018243, 0.00010287324944324964, 0.003208610509151345),
        (20.0, 3.117596618893934e-05, 0.004283383658971317, 3.2602601403157537e-05, 3.253137785433175e-05, 0.001014651733327078),
    ],
    "two": [
        (0.0, 0.029904703639916163, 0.028752824963943793, 0.0006626627417961538, 0.0006588033674775515, 0.020293034666541566),
        (10.0, 0.010667348897569562, 0.011563114833949261, 0.00021067397500753186, 0.00020842314366801995, 0.006417221018302683),
        (20.0, 0.0012975865868838467, 0.0012872323250508228, 6.602766923757855e-05, 6.581364167618398e-05, 0.0020293034666541555),
    ],
}
PINNED_RESOLUTION_ROWS_24 = [
    (0.5, 0.23141479217823854, 0.16765722292065435, 8.540878102097476e-05, 8.536143501777091e-05, 0.002029303466654155),
    (0.75, 0.14255906395695647, 0.12661630814828245, 6.872628340024997e-05, 6.864904734264655e-05, 0.002029303466654155),
    (1.0, 0.11147581183320567, 0.050952537899881384, 6.499962766630239e-05, 6.508235020957247e-05, 0.002029303466654155),
    (1.25, 0.066086495400697, 0.0066603640231612015, 6.630205403165982e-05, 6.599788652944942e-05, 0.002029303466654155),
    (1.5, 8.182675225024407e-05, 0.000127138880159948, 6.67011245599655e-05, 6.667728704511531e-05, 0.002029303466654155),
    (2.0, 7.077695745615935e-05, 0.00015406416809419512, 6.567908565732874e-05, 6.512043377027377e-05, 0.002029303466654155),
    (3.0, 6.215216230390069e-05, 0.00013380940210749677, 6.510109875608373e-05, 6.519083048301603e-05, 0.002029303466654155),
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


def stacked_observations(m, n_targets, seed):
    """Observations at f_c = 4.17 GHz whose first target lies 0.02 and
    0.05 ns from 0 (rows 0, 1), at 0.4 and 0.6 T_cp (rows 2, 3) and 0.02
    and 0.05 ns from T_cp (rows 4, 5)."""
    rng = np.random.default_rng(seed)
    f_c, sigma2 = 4.17e9, 1e-3
    rows = []
    for tau in (0.02e-9, 0.05e-9, 0.4 * T_CP, 0.6 * T_CP, T_CP - 0.02e-9, T_CP - 0.05e-9):
        w = np.exp(2j * np.pi * rng.uniform(size=m)) * rng.uniform(0.2, 1.5, m)
        ref = RadarObservation(b=w, w=w, sigma2=sigma2, f_c=f_c, t_s=T_S, t_cp=T_CP)
        spacing = 2.0 * T_S / m * (1 if tau < T_CP / 2 else -1)
        b = sum(-0.7 * w * steering(ref, tau + s * spacing) for s in range(n_targets))
        rows.append((b + (rng.standard_normal(m) + 1j * rng.standard_normal(m))
                     * np.sqrt(sigma2 / 2), w))
    b, w = (np.stack(part) for part in zip(*rows))
    return RadarObservation(b=b, w=w, sigma2=sigma2, f_c=f_c, t_s=T_S, t_cp=T_CP)


def paper_trials(n_targets, batch, seed):
    """``batch`` paper-scale radar trials (M = 1536, CSC-IM with IS, L = 2)
    at 25 dB, drawn as the runner draws them."""
    cfg = paper_preset(length=2, separated=True)
    sigma2 = 10.0 ** -2.5
    b, w, _ = radar_trials(cfg, "single" if n_targets == 1 else "two", batch, sigma2,
                           np.random.default_rng(seed))
    return RadarObservation(b=b, w=w, sigma2=sigma2, f_c=cfg.f_c, t_s=cfg.t_s, t_cp=cfg.t_cp)


def record_lobe_moves(monkeypatch):
    """Count the rows each lobe check moves."""
    moves, check = [], radar._lobe_check

    def counting(q, w2, tau, *args):
        out = check(q, w2, tau, *args)
        moves.append(int(np.sum(np.any(out[0] != tau, axis=-1))))
        return out

    monkeypatch.setattr(radar, "_lobe_check", counting)
    return moves


@pytest.mark.parametrize("n_targets", [1, 2])
@pytest.mark.parametrize("m", [64, 37, 1536], ids=["contiguous", "odd", "paper"])
def test_batched_rows_equal_single_observation_calls(m, n_targets, monkeypatch):
    # a BLAS product may pick its kernel by shape: at paper scale every row
    # of a batch of 64 trials equals the row estimated in batches of 3 and
    # alone; at two targets the lobe check moves some of these rows
    if m == 1536:
        obs, sizes = paper_trials(n_targets, 64, seed=41), (3, 1)
    else:
        obs, sizes = stacked_observations(m, n_targets, seed=m + n_targets), (1,)
    moves = record_lobe_moves(monkeypatch)
    est_mf, est_lm = estimate_mf_lmmse(obs, n_targets)
    assert est_mf.delays.shape == est_lm.delays.shape == (len(obs.b), n_targets)
    for size in sizes:
        for lo in range(0, len(obs.b), size):
            rows = slice(lo, lo + size) if size > 1 else lo  # one observation: (M,)
            part = replace(obs, b=obs.b[rows], w=obs.w[rows])
            for batched, alone in zip((est_mf, est_lm), estimate_mf_lmmse(part, n_targets)):
                assert np.array_equal(batched.delays[rows], alone.delays)
                assert np.array_equal(batched.coeffs[rows], alone.coeffs)
                assert batched.final_step == alone.final_step
    if m == 1536 and n_targets == 2:
        assert moves[0] > 0


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
        obs = RadarObservation(b=b, w=w, sigma2=0.05,
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

    def grid(q, lo, stage, plan):
        g = grid_metric(q, lo, stage, plan)
        grids.append((np.atleast_1d(lo), stage.step, stage.n))
        seen["tau_e"] = lo + np.argmax(np.abs(g), axis=-1) * stage.step
        return g

    def moments(q, tau, offsets, plan):
        if len(offsets) > 1:
            seen["cands"] = tau[:, None] + offsets
        return lobe_moments(q, tau, offsets, plan)

    def search(q, plan):
        tau = search_delay(q, plan)
        searches.append((q, seen["tau_e"], seen["cands"], tau))
        return tau

    monkeypatch.setattr(radar, "_grid_metric", grid)
    monkeypatch.setattr(radar, "_lobe_moments", moments)
    monkeypatch.setattr(radar, "_search_delay", search)
    return grids, searches


def test_search_windows_shifted_inside_cyclic_prefix(monkeypatch):
    # every grid of a search has one scalar step for all rows and lies in
    # [0, T_cp]; zoom windows and lobe windows at the edges keep their
    # width by shifting, and the lobe candidates lie inside them
    obs = stacked_observations(64, 1, seed=11)
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
@pytest.mark.parametrize("bins", ["contiguous", "odd"])
@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_lobe_pick_is_the_window_maximum(monkeypatch, scale, bins, n_targets):
    # every search of the estimator (MF and LMMSE rows, cancellation and
    # update passes) ends on a delay where |Re{c(tau)^H q}| is at least the
    # maximum of a dense explicit-steering grid over the lobe window; the
    # band starts at k_0 = 1 - M/2 (k_0 = (1 - M)/2 for an odd M), so k_0
    # enters the lobe phase
    odd = bins == "odd"
    if scale == "desk":
        obs = stacked_observations(63 if odd else 64, n_targets, seed=20 + n_targets)
    else:
        obs = paper_observations(n_targets, 6 if n_targets == 1 else 5, seed=30 + n_targets,
                                 m=1535 if odd else 1536)
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
            dense = np.conj(steering(obs, np.linspace(lo[row], hi[row], 601))) @ q[row]
            picked = np.conj(steering(obs, tau[row])) @ q[row]
            assert abs(picked.real) >= (1 - 1e-12) * np.max(np.abs(dense.real))
    assert shifted == {"0", "T_cp"}


def lobe_check_case(shifts, scale=1.0):
    """Noiseless desk targets (one MF row, one LMMSE row with sigma2 =
    1e-3) and the lobe check of their delays handed over ``shifts`` carrier
    lobes off; returns the true delays and coefficients and the checked ones."""
    r, lobe = len(shifts), 0.5 / F_C
    rng = np.random.default_rng(r)
    w = np.exp(2j * np.pi * rng.uniform(size=M)) * rng.uniform(0.2, 1.5, M)
    ref = RadarObservation(b=w, w=w, sigma2=1e-3, f_c=F_C, t_s=T_S, t_cp=T_CP)
    tau, alpha = (0.3 + 0.1 * np.arange(r)) * T_CP, -0.7 + 0.2 * np.arange(r)
    b = scale * sum(a * w * steering(ref, t) for a, t in zip(alpha, tau))
    handed = np.tile(tau + np.array(shifts) * lobe, (2, 1))
    got = radar._lobe_check(np.tile(np.conj(w) * b, (2, 1)), np.tile(np.abs(w) ** 2, (2, 1)),
                            handed, np.zeros((2, r)), np.array([0.0, 1e-3]),
                            radar._plan(M, F_C, T_S, T_CP))
    return (tau, alpha), handed, got


@pytest.mark.parametrize("shifts", [(1, -1), (0, 1), (1, -1, 1)], ids=["opposite", "one", "three"])
def test_lobe_check_undoes_one_lobe_jumps(shifts):
    # both delays of the "opposite" case must move at once; three targets
    # take pairwise moves. The coefficients are refit jointly: least squares
    # on the MF row, shrunk by sigma2 on the LMMSE row
    (tau, alpha), _, (got_tau, got_alpha) = lobe_check_case(shifts)
    assert np.all(np.abs(got_tau - tau) < 1e-9 / F_C)
    assert np.allclose(got_alpha[0], alpha, rtol=1e-9, atol=0.0)
    assert np.all(np.abs(got_alpha[1]) < np.abs(alpha))
    assert np.allclose(got_alpha[1], alpha, rtol=1e-4, atol=0.0)


def test_lobe_check_moves_nothing_on_equal_scores():
    # b = 0 scores every shift 0: the unshifted delays are scored first and
    # only a strictly higher score moves a row
    _, handed, (got_tau, got_alpha) = lobe_check_case((1, -1), scale=0.0)
    assert np.array_equal(got_tau, handed)
    assert np.array_equal(got_alpha, np.zeros((2, 2)))


def test_observation_shapes_checked():
    with pytest.raises(ValueError):
        RadarObservation(b=np.ones((2, 64), complex), w=np.ones(64, complex), sigma2=0.0,
                         f_c=F_C, t_s=T_S, t_cp=T_CP)
    with pytest.raises(ValueError):
        RadarObservation(b=np.ones((1, 2, 64), complex), w=np.ones((1, 2, 64), complex),
                         sigma2=0.0, f_c=F_C, t_s=T_S, t_cp=T_CP)


@pytest.mark.parametrize("m", [0, 1])
def test_observation_refuses_fewer_than_two_bins(m):
    # the band of default_band(M) needs two bins
    with pytest.raises(ValueError, match=f"M = {m}: a band needs at least 2 bins"):
        RadarObservation(b=np.ones(m, complex), w=np.ones(m, complex),
                         sigma2=0.0, f_c=F_C, t_s=T_S, t_cp=T_CP)


def test_observation_bins_are_the_band_of_m():
    for m in (2, 37, 64, 1536):
        obs = RadarObservation(b=np.ones((3, m), complex), w=np.ones((3, m), complex),
                               sigma2=0.0, f_c=F_C, t_s=T_S, t_cp=T_CP)
        assert np.array_equal(obs.k, band(m))


@pytest.mark.parametrize("sigma2", [np.nan, -2.0, np.inf, -np.inf])
def test_observation_noise_variance_checked(sigma2):
    # NaN gave a NaN LMMSE coefficient, a negative value zeroed every LMMSE
    # bin and infinity drove the coefficient to 0, all without an error
    with pytest.raises(ValueError, match="sigma2"):
        RadarObservation(b=np.ones(64, complex), w=np.ones(64, complex), sigma2=sigma2,
                         f_c=F_C, t_s=T_S, t_cp=T_CP)


@pytest.mark.parametrize("name", ["f_c", "t_s", "t_cp"])
@pytest.mark.parametrize("value", [0.0, -1e-9])
def test_observation_timing_checked(name, value):
    # a non-positive carrier would make the envelope zoom never finish
    context = {"f_c": F_C, "t_s": T_S, "t_cp": T_CP, name: value}
    with pytest.raises(ValueError, match=name):
        RadarObservation(b=np.ones(64, complex), w=np.ones(64, complex),
                         sigma2=0.0, **context)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def test_fim_unimodular_plug_in():
    scene = scene_of((1.5, 1.0))
    k = np.arange(-31, 33)
    w = np.exp(1j * np.linspace(0, 5, len(k)))  # unimodular
    sigma2 = 0.01
    j = fim(scene, w, sigma2)
    expect = 8 * np.pi ** 2 / sigma2 * np.sum((k / T_S + F_C) ** 2)
    assert np.isclose(j[0, 0], expect)
    assert np.isclose(j[1, 1], 2 / sigma2 * len(k))
    assert np.count_nonzero(j - np.diag(np.diag(j))) == 0


def test_fim_scales_with_coefficient_squared():
    k = np.arange(-31, 33)
    w = np.ones(len(k), complex)
    j1 = fim(scene_of((1.5, 0.5)), w, 0.01)
    j2 = fim(scene_of((1.5, 1.0)), w, 0.01)
    assert np.isclose(j2[0, 0], 4 * j1[0, 0])


def test_crlb_consistent_with_fim_inverse():
    scene = scene_of((1.5, -0.7), (2.0, 0.4))
    k = np.arange(-31, 33)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
    sigma2 = 0.02
    inverse = np.linalg.inv(fim(scene, w, sigma2))
    from_fim = SPEED_OF_LIGHT ** 2 / 4 * np.trace(inverse[:2, :2])
    direct = crlb_range(scene, w, sigma2)
    assert abs(from_fim - direct) < 1e-12 * direct
    direct = crlb_coeff(scene, w, sigma2)
    assert abs(np.trace(inverse[2:, 2:]) - direct) < 1e-12 * direct


def test_crlb_linear_in_noise_and_targets():
    scene1 = scene_of((1.5, 0.5))
    scene2 = scene_of((1.5, 0.5), (2.0, 0.5))
    k = np.arange(-31, 33)
    w = np.ones(len(k), complex)
    assert np.isclose(crlb_range(scene1, w, 0.2), 2 * crlb_range(scene1, w, 0.1))
    # targets couple, so the joint bound is never below the one-target bounds
    for scene in (scene1, scene2):
        for bound in (crlb_range, crlb_coeff):
            joint = bound(scene, w, 0.1)
            alone = sum(bound(scene_of(t), w, 0.1) for t in scene.targets)
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
    assert np.isclose(crlb_coeff(scene_of((1.5, alpha)), w, sigma2), expect,
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
            bound(scene, w, 0.01)


@pytest.mark.parametrize("n_targets", [1, 2])
def test_stacked_bounds_equal_single_scene_calls(n_targets):
    # a Fortran-ordered stack of reference bins has strided rows; each
    # stacked row must still equal its own single-scene call bit for bit,
    # per frame and for the shared expectation-form bins
    cfg = modem(length=2)
    rng = np.random.default_rng(40 + n_targets)
    w = np.asfortranarray(tx_bins(word_symbols(*random_words(cfg, 6, rng), cfg), cfg))
    assert not w.flags.c_contiguous
    rows = [[(d, rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.2))
             for d in np.sort(rng.uniform(1.0, 3.0, n_targets))] for _ in range(len(w))]
    stack = scene_of(*rows)
    assert stack.targets.shape == (len(w), n_targets, 2)
    for ref in (w, cfg.fdss.g):
        stacked = [bound(stack, ref, 0.01) for bound in (fim, crlb_range, crlb_coeff)]
        assert stacked[0].shape == (len(w), 2 * n_targets, 2 * n_targets)
        for i, row in enumerate(rows):
            one = ref[i] if ref.ndim == 2 else ref
            for bound, values in zip((fim, crlb_range, crlb_coeff), stacked):
                assert np.array_equal(values[i], bound(scene_of(*row), one, 0.01))
    no_phase = crlb_range_no_phase(stack, cfg.m, 0.01)
    assert no_phase.shape == (len(rows),)
    for i, row in enumerate(rows):
        assert np.array_equal(no_phase[i], crlb_range_no_phase(scene_of(*row), cfg.m, 0.01))


def test_stacked_bounds_name_the_singular_row():
    k = np.arange(-31, 33)
    stack = scene_of([(1.5, 0.5), (2.0, 0.5)], [(1.7, 0.5), (1.7, -0.3)])
    for bound in (crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match=r"targets 0 and 1 coincide at 1.7 m \(row 1\)"):
            bound(stack, np.ones(len(k), complex), 0.01)
        w = np.ones((2, len(k)), complex)
        w[1] = 0
        with pytest.raises(ValueError, match=r"reference bins are all zero \(row 1\)"):
            bound(scene_of([(1.5, 0.5), (2.0, 0.5)], [(1.5, 0.5), (2.0, 0.5)]), w, 0.01)


def test_bounds_refuse_fewer_nonzero_bins_than_targets():
    # an OFDM-IM frame at L = 1 has one nonzero bin, and each bin adds rank
    # at most 2 to the 2R x 2R Fisher information: two targets make it
    # singular, which np.linalg.inv used to report as "Singular matrix"
    k = np.arange(-31, 33)
    w = np.zeros((2, len(k)), complex)
    w[:, [3, 40]] = 1.0
    w[1, 40] = 0.0  # row 1 keeps one nonzero bin
    two = [(1.5, 0.5), (2.0, 0.5)]
    for bound in (crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match=r"^1 nonzero reference bin\(s\) cannot resolve "
                                             "2 targets"):
            bound(scene_of(*two), w[1], 0.01)
        with pytest.raises(ValueError, match=r"^1 nonzero reference bin\(s\) \(row 1\)"):
            bound(scene_of(two, two), w, 0.01)
        assert np.isfinite(bound(scene_of(*two), w[0], 0.01))
        assert np.isfinite(bound(scene_of(two[0]), w[1], 0.01))


@pytest.mark.parametrize("scene, w, named", [
    (scene_of([(1.5, 0.5)], [(1.6, 0.5)], [(1.7, 0.5)]), np.ones((2, 64)),
     "shape \\(2, 64\\) do not fit 3"),
    (scene_of((1.5, 0.5)), np.ones(1), "M = 1: a band needs at least 2 bins"),
], ids=["rows", "one-bin"])
def test_stacked_bounds_check_their_shapes(scene, w, named):
    for bound in (fim, crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match=named):
            bound(scene, w, 0.01)


@pytest.mark.parametrize("sigma2", [0.0, -0.1, np.nan, np.inf, 1e-290])
def test_bounds_need_positive_noise(sigma2):
    # the bounds invert fim, which needs a finite positive noise variance;
    # at 1e-290 (2900 dB) J overflows, and used to give a zero bound
    scene = scene_of((1.5, 0.5))
    k = np.arange(-31, 33)
    w = np.ones(len(k), complex)
    for bound in (fim, crlb_range, crlb_coeff):
        with pytest.raises(ValueError, match="sigma2"):
            bound(scene, w, sigma2)
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
    aware = crlb_range(scene, w, 1e-3)
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
