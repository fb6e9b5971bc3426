"""Radar CFR, Rician multipath realization, AWGN statistics."""
import numpy as np
import pytest

from chirpim.channel import RadarScene, add_awgn, complex_noise, radar_cfr, rician_realize
from chirpim.util import SPEED_OF_LIGHT

K = np.arange(-16, 16)
T_S = 100e-9
T_CP = 25e-9
F_C = 6e9


def scene_of(*targets):
    return RadarScene(targets=tuple(targets), f_c=F_C, t_s=T_S, t_cp=T_CP)


def test_zero_delay_is_flat():
    sc = scene_of((1e-9 * SPEED_OF_LIGHT / 2, 1.0))  # tiny but positive
    h = radar_cfr(sc, K)
    ref = np.exp(-2j * np.pi * F_C * 1e-9) * np.exp(-2j * np.pi * K * 1e-9 / T_S)
    assert np.allclose(h, ref)
    assert np.allclose(np.abs(h), 1.0)


def test_single_target_pure_phase_ramp():
    tau = T_S / (2 * len(K))
    sc = scene_of((tau * SPEED_OF_LIGHT / 2, 1.0))
    h = radar_cfr(sc, K)
    assert np.allclose(np.abs(h), 1.0)
    slopes = np.angle(h[1:] / h[:-1])
    assert np.allclose(slopes, -2 * np.pi * tau / T_S)


def test_opposite_reflections_cancel():
    d = 1.0
    sc = RadarScene(targets=((d, 1.0), (d, -1.0)), f_c=F_C, t_s=T_S, t_cp=T_CP)
    assert np.max(np.abs(radar_cfr(sc, K))) < 1e-12


def test_cfr_linear_in_coefficients():
    h1 = radar_cfr(scene_of((1.0, 0.3)), K)
    h2 = radar_cfr(scene_of((2.0, -0.7)), K)
    both = radar_cfr(RadarScene(targets=((1.0, 0.3), (2.0, -0.7)),
                                f_c=F_C, t_s=T_S, t_cp=T_CP), K)
    assert np.allclose(both, h1 + h2)


def test_scene_validation():
    beyond = SPEED_OF_LIGHT * T_CP / 2 * 1.01
    with pytest.raises(ValueError):
        scene_of((beyond, 1.0))
    with pytest.raises(ValueError):
        scene_of((1.0, 0.0))
    with pytest.raises(ValueError):
        RadarScene(targets=((2.0, 1.0), (1.0, 1.0)), f_c=F_C, t_s=T_S, t_cp=T_CP)
    with pytest.raises(ValueError):
        scene_of((-1.0, 1.0))


@pytest.mark.parametrize("target", [(float("nan"), 1.0), (float("inf"), 1.0),
                                    (1.0, float("nan")), (1.0, float("inf")),
                                    (1.0, float("-inf"))])
def test_scene_rejects_nonfinite_targets(target):
    with pytest.raises(ValueError, match="must be finite"):
        scene_of(target)


# ---------------------------------------------------------------------------
# Rician realization
# ---------------------------------------------------------------------------

PDP = ((0.0, 0.0, 10.0), (10e-9, -10.0, 0.0), (20e-9, -20.0, 0.0))


def test_pure_los_tap_is_unimodular():
    rng = np.random.default_rng(0)
    ch = rician_realize(((0.0, 0.0, 1e12),), rng)
    assert np.allclose(np.abs(ch.cfr(K, T_S)), 1.0, atol=1e-5)


def test_mean_power_normalized():
    rng = np.random.default_rng(1)
    total = 0.0
    n = 100_000
    for _ in range(n):
        ch = rician_realize(PDP, rng)
        total += sum(abs(g) ** 2 for g in ch.gains)
    assert abs(total / n - 1.0) < 0.01


def test_rayleigh_tap_component_variance():
    rng = np.random.default_rng(2)
    n = 100_000
    p = 10 ** (-10 / 10) / (1 + 10 ** (-1) + 10 ** (-2))  # tap 2 mean power
    taps = np.array([rician_realize(PDP, rng).gains[1] for _ in range(n)])
    assert abs(np.var(taps.real) - p / 2) < 0.02 * p / 2 + 3e-4
    assert abs(np.var(taps.imag) - p / 2) < 0.02 * p / 2 + 3e-4
    assert abs(np.mean(taps)) < 4 / np.sqrt(n)


def test_batch_equals_single_realizations():
    # one batched call reads the stream as B single calls do: same gains,
    # same CFR rows, same stream position afterwards, bit for bit
    k = np.arange(-768, 768)
    one, many = np.random.default_rng(6), np.random.default_rng(6)
    singles = [rician_realize(PDP, one) for _ in range(9)]
    batch = rician_realize(PDP, many, batch=9)
    assert batch.gains.shape == (9, 3) and singles[0].gains.shape == (3,)
    assert np.array_equal(batch.gains, np.stack([ch.gains for ch in singles]))
    h = batch.cfr(k, T_S)
    assert h.shape == (9, len(k))
    assert np.array_equal(h, np.stack([ch.cfr(k, T_S) for ch in singles]))
    assert one.random() == many.random()


@pytest.mark.parametrize("pdp", [PDP, PDP[::-1]], ids=["los-first", "los-last"])
def test_cfr_adds_the_zero_delay_tap_as_its_gain(pdp):
    # e^0 = 1 exactly, so adding a delay-0 tap's gain alone equals adding
    # the gain times its phase ramp, bit for bit, wherever the tap sits
    k = np.arange(-768, 768)
    ch = rician_realize(pdp, np.random.default_rng(7), batch=9)
    ramps = [np.exp(-2j * np.pi * k * tau / T_S) for tau in ch.delays]
    expect = np.zeros((9, len(k)), dtype=complex)
    for g, ramp in zip(ch.gains.T, ramps):
        expect += g[:, None] * ramp
    assert ch.cfr(k, T_S).tobytes() == expect.tobytes()


def test_negative_k_factor_rejected():
    with pytest.raises(ValueError):
        rician_realize(((0.0, 0.0, -1.0),), np.random.default_rng(0))


def test_frequency_cfr_equals_circular_convolution():
    # integer-sample tap delays: applying the CFR on the bins must equal
    # circular convolution of the frame body with the taps
    rng = np.random.default_rng(5)
    n = 64
    t_sample = T_S / n
    pdp = ((0.0, 0.0, 0.0), (2 * t_sample, -3.0, 0.0), (5 * t_sample, -8.0, 0.0))
    ch = rician_realize(pdp, rng)
    k = np.arange(-n // 2 + 1, n // 2 + 1)
    x_bins = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    grid = np.zeros(n, dtype=complex)
    grid[k % n] = x_bins
    body = np.fft.ifft(grid) * n
    taps_t = np.zeros(n, dtype=complex)
    for tau, g in zip(ch.delays, ch.gains):
        taps_t[int(round(tau / t_sample))] += g
    time_path = np.convolve(np.tile(body, 2), taps_t)[n:2 * n]

    freq_path_bins = ch.cfr(k, T_S) * x_bins
    grid[k % n] = freq_path_bins
    freq_path = np.fft.ifft(grid) * n
    err = np.linalg.norm(time_path - freq_path) / np.linalg.norm(freq_path)
    assert err < 1e-9


# ---------------------------------------------------------------------------
# AWGN
# ---------------------------------------------------------------------------

def test_awgn_zero_variance_identity():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    assert np.array_equal(add_awgn(x, 0.0, rng), x)


def test_complex_noise_draws_real_parts_then_imaginary_parts():
    sigma2, shape = 0.37, (3, 5)
    noise = complex_noise(shape, sigma2, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    assert np.array_equal(noise.real, re * np.sqrt(sigma2 / 2))
    assert np.array_equal(noise.imag, im * np.sqrt(sigma2 / 2))
    # add_awgn adds the same draws
    assert np.array_equal(add_awgn(np.zeros(shape), sigma2, np.random.default_rng(8)), noise)


def test_awgn_empirical_variance():
    rng = np.random.default_rng(7)
    sigma2 = 0.37
    noise = add_awgn(np.zeros(1_000_000, dtype=complex), sigma2, rng)
    assert abs(np.var(noise) - sigma2) < 0.01 * sigma2
    assert abs(np.var(noise.real) - sigma2 / 2) < 0.01 * sigma2
    assert abs(np.var(noise.imag) - sigma2 / 2) < 0.01 * sigma2


@pytest.mark.parametrize("sigma2", [np.nan, np.inf])
def test_awgn_rejects_nonfinite_variance(sigma2):
    with pytest.raises(ValueError, match="sigma2"):
        add_awgn(np.zeros(4, dtype=complex), sigma2, np.random.default_rng(0))


def test_awgn_rejects_negative_variance():
    with pytest.raises(ValueError):
        add_awgn(np.zeros(4, dtype=complex), -0.1, np.random.default_rng(0))
