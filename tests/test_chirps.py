"""Chirp coefficients, DFT-s-OFDM synthesis, PMEPR/OCB, Golay pairs."""
import numpy as np
import pytest

from chirpim.chirps import (PMEPR_OVERSAMPLE, ChirpFamily, ChirpSpec, GcpCheck, apac,
                            chirp_fdss, distinct_cs_count, flat_fdss, fourier_coeffs,
                            gcp_from_chirps, is_gcp, linear_chirp_coeffs,
                            measure_pmepr, normalize_fdss, occupied_bandwidth,
                            sinusoidal_chirp_coeffs, synthesize)
from chirpim.config import PRESETS, desk_preset, paper_preset, preset
from chirpim.modem import ModemConfig, Scheme, frame_from_symbols, tx_bins, word_symbols
from chirpim.runners import random_words
from chirpim.util import band, default_band

from oracles import (fourier_coeffs_quadrature, linear_chirp_phase,
                     quadrature_panels, sinusoidal_chirp_phase, smallest_window_bins,
                     zero_padded_pmepr_db)


# ---------------------------------------------------------------------------
# Fourier coefficients vs the quadrature oracle
# ---------------------------------------------------------------------------

def assert_matches_quadrature(family, d, m, rel_tol, significant=1e-4):
    closed = fourier_coeffs(ChirpSpec(family, d), m)
    l_d, l_u = default_band(m)
    k = np.arange(l_d, l_u + 1)
    phase = linear_chirp_phase(d) if family is ChirpFamily.LINEAR \
        else sinusoidal_chirp_phase(d)
    panels = quadrature_panels(d, max(abs(l_d), l_u))
    ref = fourier_coeffs_quadrature(phase, k, panels)
    # oracle self-check: doubling the panel count must not move the result
    ref2 = fourier_coeffs_quadrature(phase, k[:: max(m // 8, 1)], 2 * panels)
    assert np.max(np.abs(ref[:: max(m // 8, 1)] - ref2)) < 1e-10
    mask = np.abs(ref) > significant
    assert mask.any()
    rel = np.abs(closed[mask] - ref[mask]) / np.abs(ref[mask])
    assert rel.max() < rel_tol, f"worst relative error {rel.max():.3e}"


def test_linear_coeffs_match_quadrature_small():
    assert_matches_quadrature(ChirpFamily.LINEAR, 12.0, 24, 1e-6)


def test_linear_coeffs_match_quadrature_mid():
    assert_matches_quadrature(ChirpFamily.LINEAR, 56.0, 64, 1e-6)


def test_sinusoidal_coeffs_match_quadrature():
    assert_matches_quadrature(ChirpFamily.SINUSOIDAL, 12.0, 24, 1e-6)
    assert_matches_quadrature(ChirpFamily.SINUSOIDAL, 56.0, 64, 1e-6)


def test_linear_center_bin_high_accuracy():
    # k = 0 at the full-scale deviation, against the quadrature oracle
    d = 1382.0
    ref = fourier_coeffs_quadrature(linear_chirp_phase(d), [0.0],
                                    quadrature_panels(d, 0))[0]
    closed = linear_chirp_coeffs(d, np.array([0]))[0]
    assert abs(closed - ref) / abs(ref) < 1e-8


def test_sinusoidal_center_bin_high_accuracy():
    from scipy.special import jv
    ref = fourier_coeffs_quadrature(sinusoidal_chirp_phase(12.0), [0.0],
                                    quadrature_panels(12.0, 0))[0]
    assert abs(sinusoidal_chirp_coeffs(12.0, np.array([0]))[0] - ref) < 1e-8
    assert np.isclose(ref, jv(0, 6.0), atol=1e-12)


def test_zero_deviation_is_pure_tone():
    l_d, l_u = default_band(8)
    k = np.arange(l_d, l_u + 1)
    for family in ChirpFamily:
        coeffs = fourier_coeffs(ChirpSpec(family, 0.0), 8)
        assert coeffs[k == 0] == 1.0
        assert np.all(coeffs[k != 0] == 0.0)


def test_sinusoidal_parity():
    k = np.arange(-9, 10)
    f = sinusoidal_chirp_coeffs(11.0, k)
    f_neg = sinusoidal_chirp_coeffs(11.0, -k)
    assert np.allclose(f_neg, (-1.0) ** k * f, atol=1e-14)


def test_linear_tail_decays():
    # decay past the band edge k = d/2; values frozen from the closed form
    # (quadrature-verified above): 0.1137 at +50 bins, 0.0948 at +60
    d = 1382.0
    edge = int(np.ceil(d / 2))
    f = np.abs(linear_chirp_coeffs(d, np.array([0, edge + 50, edge + 60])))
    assert f[1] / f[0] < 0.12
    assert f[2] / f[0] < 0.10


def test_spec_family_coerced_by_value():
    by_value = ChirpSpec("linear", 12.0)
    assert by_value.family is ChirpFamily.LINEAR
    assert np.array_equal(fourier_coeffs(by_value, 24),
                          fourier_coeffs(ChirpSpec(ChirpFamily.LINEAR, 12.0), 24))
    with pytest.raises(ValueError, match="'bogus' is not a valid ChirpFamily"):
        ChirpSpec("bogus", 12.0)


def test_spec_invariants():
    with pytest.raises(ValueError, match="d = 24.0"):
        chirp_fdss(ChirpSpec(ChirpFamily.LINEAR, 24.0), 24)  # M must exceed d
    with pytest.raises(ValueError, match="m = 2"):
        chirp_fdss(ChirpSpec(ChirpFamily.LINEAR, 1.0), 2)  # band 0..1 has no bin below DC
    # a NaN deviation passed both d < 0 and M <= d and built a NaN profile
    for d in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"d = {d}"):
            ChirpSpec(ChirpFamily.LINEAR, d)


# ---------------------------------------------------------------------------
# FDSS normalization
# ---------------------------------------------------------------------------

def test_normalize_all_ones_fixed_point():
    prof = normalize_fdss(np.ones(6, dtype=complex))
    assert np.allclose(prof.g, 1.0)


def test_normalize_single_spike():
    prof = normalize_fdss(np.array([2.0, 0, 0, 0], dtype=complex))
    assert np.allclose(prof.g, [2.0, 0, 0, 0])


def test_normalize_parseval():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    prof = normalize_fdss(raw)
    assert abs(np.sum(np.abs(prof.g) ** 2) - 33) < 1e-12 * 33
    bessel = chirp_fdss(ChirpSpec(ChirpFamily.SINUSOIDAL, 12.0), 24)
    assert abs(np.sum(np.abs(bessel.g) ** 2) - 24.0) < 1e-12 * 24


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize_fdss(np.zeros(8, dtype=complex))


@pytest.mark.parametrize("raw", [[1.0, np.nan, 0.0], [np.inf, 1.0],
                                 [1e200, 1e200], [1e154, 1e154]])
def test_normalize_rejects_a_nonfinite_power(raw):
    # finite coefficients whose power overflows are refused by the same
    # message, with no overflow warning first (the suite makes warnings
    # errors)
    with pytest.raises(ValueError, match="power"):
        normalize_fdss(np.array(raw, dtype=complex))


@pytest.mark.parametrize("make", [lambda: normalize_fdss(np.ones(1)), lambda: flat_fdss(1)],
                         ids=["normalize", "flat"])
def test_profile_refuses_fewer_than_two_bins(make):
    with pytest.raises(ValueError, match="M = 1: a band needs at least 2 bins"):
        make()


def test_profiles_compare_and_hash_by_identity():
    # g is an array, which has no truth value: the comparison must not
    # reach it
    spec = ChirpSpec(ChirpFamily.LINEAR, 12.0)
    a, b = chirp_fdss(spec, 24), chirp_fdss(spec, 24)
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
    assert np.array_equal(a.k, band(24))


# ---------------------------------------------------------------------------
# Synthesis (tx_bins mapping, the IDFT of synthesize, then the CP)
# ---------------------------------------------------------------------------

def modem(scheme, m, n, n_cp, family=ChirpFamily.SINUSOIDAL, d=12.0, length=1):
    chirp = ChirpSpec(family, d) if scheme is Scheme.CSC_IM else None
    return ModemConfig(scheme, m=m, n=n, n_cp=n_cp, length=length, h=4, chirp=chirp)


def test_single_chirp_constant_envelope():
    cfg = modem(Scheme.CSC_IM, 32, 64, 16)
    d = np.zeros(32, dtype=complex)
    d[0] = np.sqrt(32.0)
    mag_db = 20 * np.log10(np.abs(frame_from_symbols(d, cfg)[16:]))
    assert mag_db.max() - mag_db.min() < 0.5


def test_flat_profile_impulse_gives_dirichlet_peak():
    m, n = 16, 64
    d = np.zeros(m, dtype=complex)
    d[0] = np.sqrt(m)
    body = frame_from_symbols(d, modem(Scheme.DFT_S_OFDM_IM, m, n, 8))[8:]
    peak = np.argmax(np.abs(body))
    assert peak == 0
    # Dirichlet mainlobe is much higher than the mean level
    assert np.abs(body[0]) > 3 * np.mean(np.abs(body))


def test_circular_shift_property():
    m, n = 16, 64  # m divides n
    cfg = modem(Scheme.CSC_IM, m, n, 0, d=6.0)
    ref = frame_from_symbols(np.eye(m, dtype=complex)[0] * np.sqrt(m), cfg)
    for shift in (1, 5, 11):
        d = np.zeros(m, dtype=complex)
        d[shift] = np.sqrt(m)
        shifted = frame_from_symbols(d, cfg)
        expect = np.roll(ref, shift * n // m)
        err = np.linalg.norm(shifted - expect) / np.linalg.norm(ref)
        assert 20 * np.log10(err + 1e-300) < -40


def test_synthesize_linearity():
    rng = np.random.default_rng(7)
    cfg = modem(Scheme.CSC_IM, 16, 32, 8, family=ChirpFamily.LINEAR, d=10.0)
    d1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    d2 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    lhs = frame_from_symbols(d1 + d2, cfg)
    rhs = frame_from_symbols(d1, cfg) + frame_from_symbols(d2, cfg)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


def test_synthesize_rejects_small_idft():
    with pytest.raises(ValueError):
        modem(Scheme.DFT_S_OFDM_IM, 16, 16, 4)
    with pytest.raises(ValueError):
        synthesize(np.ones(16, dtype=complex), n=16)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_synthesize_equals_scaled_ifft_for_power_of_two_n(name):
    # every preset's N, and the 8N grid of measure_pmepr, is a power of two:
    # the unscaled IDFT equals ifft(grid) * N bit for bit
    mcfg = preset(name).modem_config()
    rng = np.random.default_rng(12)
    w = rng.standard_normal((3, mcfg.m)) + 1j * rng.standard_normal((3, mcfg.m))
    for n in (mcfg.n, PMEPR_OVERSAMPLE * mcfg.n):
        assert n & (n - 1) == 0
        grid = np.zeros((3, n), dtype=complex)
        grid[:, mcfg.k % n] = w
        assert np.array_equal(synthesize(w, n), np.fft.ifft(grid, axis=-1) * n)


def test_synthesize_non_power_of_two_n_is_the_plain_sum():
    # a non-power-of-two N matches the direct sum at rounding level
    k, n = np.arange(-11, 13), 90
    rng = np.random.default_rng(13)
    w = rng.standard_normal((2, len(k))) + 1j * rng.standard_normal((2, len(k)))
    expect = w @ np.exp(2j * np.pi * np.outer(k, np.arange(n)) / n)
    assert np.max(np.abs(synthesize(w, n) - expect)) <= 1e-12


def test_cyclic_prefix_property():
    rng = np.random.default_rng(9)
    d = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    for scheme in Scheme:
        frame = frame_from_symbols(d, modem(scheme, 16, 32, 8))
        assert np.allclose(frame[:8], frame[-8:])


def test_synthesize_places_bins_mod_n():
    # the body is the plain-sum IDFT of the tx_bins values on bins k
    cfg = modem(Scheme.CSC_IM, 16, 32, 8)
    d = np.random.default_rng(3).standard_normal(16) + 0j
    w = tx_bins(d, cfg)
    t = np.arange(32)
    expect = np.exp(2j * np.pi * np.outer(t, cfg.k) / 32) @ w
    assert np.allclose(frame_from_symbols(d, cfg)[8:], expect, atol=1e-12)


# ---------------------------------------------------------------------------
# PMEPR
# ---------------------------------------------------------------------------

def chirp_bins(family, d, m, n, length, n_frames, seed):
    """Transmit bins of random index-modulated chirp frames, their modem
    config, and the nominal mean power."""
    rng = np.random.default_rng(seed)
    cfg = modem(Scheme.CSC_IM, m, n, n // 4, family=family, d=d, length=length)
    e_s = m / length
    data = np.zeros((n_frames, m), dtype=complex)
    idx = np.argsort(rng.random((n_frames, m)), axis=1)[:, :length]
    h = rng.integers(0, 4, (n_frames, length))
    np.put_along_axis(data, idx, np.sqrt(e_s) * np.exp(2j * np.pi * h / 4), axis=1)
    return tx_bins(data, cfg), cfg, float(m)


def chirp_pmepr(family, d, m, n, length, n_frames, seed):
    w, cfg, p_av = chirp_bins(family, d, m, n, length, n_frames, seed)
    return measure_pmepr(w, cfg.n, p_av=p_av)


def test_pmepr_single_chirp_near_zero_db():
    assert np.max(chirp_pmepr(ChirpFamily.SINUSOIDAL, 12.0, 32, 64, 1, 8, 3)) <= 0.5


def test_pmepr_two_chirps_bounded():
    assert np.max(chirp_pmepr(ChirpFamily.SINUSOIDAL, 12.0, 32, 64, 2, 400, 4)) <= 3.0 + 0.1


def test_pmepr_five_chirps_bounded():
    values = chirp_pmepr(ChirpFamily.SINUSOIDAL, 12.0, 32, 64, 5, 400, 5)
    assert np.max(values) <= 10 * np.log10(5) + 0.1


def test_pmepr_superposition_bound_wide_margin():
    # unimodular symbols, M >= 2D: bound 10 log10 L + 0.6 dB
    for d, m, length, seed in ((6.0, 16, 2, 10), (12.0, 32, 4, 11),
                               (24.0, 64, 5, 12), (20.0, 48, 3, 13)):
        values = chirp_pmepr(ChirpFamily.SINUSOIDAL, d, m, 2 * m, length, 300, seed)
        assert np.max(values) <= 10 * np.log10(length) + 0.6


def test_pmepr_blocks_equal_single_frames():
    # 75 frames run as blocks of 32, 32 and 11: every value equals the
    # frame measured alone, with and without a power reference
    w, cfg, p_av = chirp_bins(ChirpFamily.SINUSOIDAL, 12.0, 32, 64, 2, 75, 7)
    for ref in (p_av, None):
        values = measure_pmepr(w, cfg.n, p_av=ref)
        assert values.shape == (75,)
        alone = [measure_pmepr(row, cfg.n, p_av=ref) for row in w]
        assert all(isinstance(v, float) for v in alone)
        assert np.array_equal(values, alone)


@pytest.mark.parametrize("p_av", [0.0, -1.0, float("nan"), [32.0, float("nan")]])
def test_pmepr_refuses_a_mean_power_not_positive(p_av):
    w, cfg, _ = chirp_bins(ChirpFamily.SINUSOIDAL, 12.0, 32, 64, 2, 2, 7)
    with pytest.raises(ValueError, match="p_av must be positive"):
        measure_pmepr(w, cfg.n, p_av=np.array(p_av))


@pytest.mark.parametrize("make", [desk_preset, paper_preset], ids=["desk", "paper"])
def test_pmepr_equals_zero_padded_oracle(make):
    # the 8x IDFT of the bins against the spectrum of the synthesized body
    # zero-padded to 8N: the same peak up to rounding
    mcfg = make(family=ChirpFamily.SINUSOIDAL, length=2).modem_config()
    d = word_symbols(*random_words(mcfg, 40, np.random.default_rng(8)), mcfg)
    frames = frame_from_symbols(d, mcfg)
    for p_av in (float(mcfg.m), None):
        values = measure_pmepr(tx_bins(d, mcfg), mcfg.n, p_av=p_av)
        oracle = zero_padded_pmepr_db(frames, mcfg.n, mcfg.n_cp, 8, p_av)
        assert np.max(np.abs(values - oracle)) <= 1e-12


def test_pmepr_guards():
    _, cfg, _ = chirp_bins(ChirpFamily.SINUSOIDAL, 12.0, 32, 64, 1, 1, 6)
    with pytest.raises(ValueError):
        measure_pmepr(np.zeros(32, dtype=complex), cfg.n)


# ---------------------------------------------------------------------------
# Occupied bandwidth
# ---------------------------------------------------------------------------

def test_ocb_sinusoidal_d12():
    prof = chirp_fdss(ChirpSpec(ChirpFamily.SINUSOIDAL, 12.0), 24)
    assert occupied_bandwidth(prof, 0.99) == 15


def test_ocb_flat():
    assert occupied_bandwidth(flat_fdss(100), 0.99) == 99
    assert occupied_bandwidth(flat_fdss(24), 0.99) == 24


def test_ocb_full_band_limit():
    prof = chirp_fdss(ChirpSpec(ChirpFamily.SINUSOIDAL, 12.0), 24)
    assert occupied_bandwidth(prof, 1 - 1e-12) == 24
    # the summed energy falls short of fraction * total by rounding
    wide = chirp_fdss(ChirpSpec(ChirpFamily.SINUSOIDAL, 48.0), 64)
    assert occupied_bandwidth(wide, 1 - 2 ** -53) == 64


DESK_SINUSOIDAL = desk_preset(family=ChirpFamily.SINUSOIDAL).modem_config().fdss


def test_ocb_is_the_smallest_window_not_the_greedy_one():
    # growing one bin at a time toward the larger neighbour took 56 bins
    assert occupied_bandwidth(DESK_SINUSOIDAL, 0.99) == 52


@pytest.mark.parametrize("family", list(ChirpFamily))
@pytest.mark.parametrize("m", [24, 64, 100, 256])
@pytest.mark.parametrize("share", [0.25, 0.5, 0.75])
def test_ocb_equals_the_brute_force_window(family, m, share):
    prof = chirp_fdss(ChirpSpec(family, share * m), m)
    for fraction in (0.9, 0.99, 0.999):
        assert occupied_bandwidth(prof, fraction) == \
            smallest_window_bins(np.abs(prof.g) ** 2, prof.k, fraction)


def test_ocb_fraction_domain():
    with pytest.raises(ValueError):
        occupied_bandwidth(flat_fdss(8), 1.0)


# ---------------------------------------------------------------------------
# APAC and Golay pairs
# ---------------------------------------------------------------------------

def test_apac_hand_values():
    a = np.array([1.0, 1.0])
    assert apac(a, 0) == 2
    assert apac(a, 1) == 1
    assert apac(a, 2) == 0
    golay = np.array([1.0, 1.0, 1.0, -1.0])
    assert apac(golay, 2) == 0


def test_apac_conjugate_symmetry():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    for lag in range(-8, 9):
        assert np.isclose(apac(a, -lag), np.conj(apac(a, lag)))


def test_is_gcp_canonical_pair():
    check = is_gcp(np.array([1.0, 1.0]), np.array([1.0, -1.0]), 0.0)
    assert check.is_pair and check.max_violation == 0.0


def test_is_gcp_length_mismatch():
    with pytest.raises(ValueError):
        is_gcp(np.ones(4), np.ones(5), 0.1)


def test_is_gcp_edge_pairs():
    with pytest.raises(ValueError, match="zero power"):
        is_gcp(np.zeros(4), np.zeros(4), 0.1)
    # one sample has no nonzero lag to violate
    assert is_gcp(np.array([1.0]), np.array([1j]), 0.0) == GcpCheck(True, 0.0)


def fig4_pair(d, x_p=1.0, x_r=1.0, shifts=(0, 1)):
    k = np.arange(-11, 13)
    coeffs = sinusoidal_chirp_coeffs(d, k)
    return gcp_from_chirps(coeffs, shifts[0], shifts[1], x_p, x_r)


def test_gcp_from_chirps_well_formed():
    a, b = fig4_pair(12.0)
    assert is_gcp(a, b, 1e-2).is_pair


def test_gcp_from_chirps_heavy_truncation_fails():
    a, b = fig4_pair(24.0)
    assert not is_gcp(a, b, 1e-2).is_pair


def test_gcp_from_chirps_any_unimodular_pair():
    a, b = fig4_pair(12.0, x_p=1.0, x_r=1j, shifts=(3, 7))
    assert is_gcp(a, b, 1e-2).is_pair


def test_gcp_power_sum_constant_on_unit_circle():
    a, b = fig4_pair(12.0)
    z = np.exp(2j * np.pi * np.linspace(0, 1, 997, endpoint=False))
    powers = np.arange(len(a))
    pa = np.abs(z[:, None] ** powers @ a) ** 2
    pb = np.abs(z[:, None] ** powers @ b) ** 2
    total = pa + pb
    assert np.max(np.abs(total - 4.0)) < 4.0 * 2e-2


def test_gcp_guards():
    k = np.arange(-11, 13)
    coeffs = sinusoidal_chirp_coeffs(12.0, k)
    with pytest.raises(ValueError):
        gcp_from_chirps(coeffs, 2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        gcp_from_chirps(coeffs, 0, 1, 2.0, 1.0)


def test_distinct_cs_count():
    assert distinct_cs_count(10, 4) == 45 * 16 == 720
