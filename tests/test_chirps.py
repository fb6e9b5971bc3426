"""Chirp coefficients, DFT-s-OFDM synthesis, PMEPR/OCB, Golay pairs."""
import numpy as np
import pytest

from chirpim.chirps import (ChirpFamily, ChirpSpec, apac, chirp_fdss,
                            distinct_cs_count, flat_fdss, fourier_coeffs,
                            gcp_from_chirps, is_gcp, linear_chirp_coeffs,
                            measure_pmepr, normalize_fdss, occupied_bandwidth,
                            sinusoidal_chirp_coeffs, synthesize)

from oracles import (fourier_coeffs_quadrature, linear_chirp_phase,
                     quadrature_panels, sinusoidal_chirp_phase)


def spec(family, d, m, t_s=1.0):
    return ChirpSpec.centered(family, d, m, t_s)


# ---------------------------------------------------------------------------
# Fourier coefficients vs the quadrature oracle
# ---------------------------------------------------------------------------

def assert_matches_quadrature(family, d, m, rel_tol, significant=1e-4):
    sp = spec(family, d, m)
    closed = fourier_coeffs(sp)
    phase = linear_chirp_phase(d) if family is ChirpFamily.LINEAR \
        else sinusoidal_chirp_phase(d)
    panels = quadrature_panels(d, max(abs(sp.l_d), sp.l_u))
    ref = fourier_coeffs_quadrature(phase, sp.k, panels)
    # oracle self-check: doubling the panel count must not move the result
    ref2 = fourier_coeffs_quadrature(phase, sp.k[:: max(m // 8, 1)], 2 * panels)
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
    lin = spec(ChirpFamily.LINEAR, 0.0, 8)
    sin = spec(ChirpFamily.SINUSOIDAL, 0.0, 8)
    for coeffs in (fourier_coeffs(lin), fourier_coeffs(sin)):
        assert coeffs[lin.k == 0] == 1.0
        assert np.all(coeffs[lin.k != 0] == 0.0)


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


def test_spec_invariants():
    with pytest.raises(ValueError):
        ChirpSpec(ChirpFamily.LINEAR, 24.0, -11, 12, 1.0)  # M must exceed d
    with pytest.raises(ValueError):
        ChirpSpec(ChirpFamily.LINEAR, 4.0, 3, 12, 1.0)  # l_d must be negative
    with pytest.raises(ValueError):
        ChirpSpec(ChirpFamily.LINEAR, -1.0, -8, 8, 1.0)


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
    bessel = chirp_fdss(spec(ChirpFamily.SINUSOIDAL, 12.0, 24))
    assert abs(np.sum(np.abs(bessel.g) ** 2) - 24.0) < 1e-12 * 24


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize_fdss(np.zeros(8, dtype=complex))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_single_chirp_constant_envelope():
    sp = spec(ChirpFamily.SINUSOIDAL, 12.0, 32)
    d = np.zeros(32, dtype=complex)
    d[0] = np.sqrt(32.0)
    frame = synthesize(d, chirp_fdss(sp), n=64, n_cp=16)
    mag_db = 20 * np.log10(np.abs(frame.body))
    assert mag_db.max() - mag_db.min() < 0.5


def test_flat_profile_impulse_gives_dirichlet_peak():
    m, n = 16, 64
    d = np.zeros(m, dtype=complex)
    d[0] = np.sqrt(m)
    frame = synthesize(d, flat_fdss(m), n=n, n_cp=8)
    peak = np.argmax(np.abs(frame.body))
    assert peak == 0
    # Dirichlet mainlobe is much higher than the mean level
    assert np.abs(frame.body[0]) > 3 * np.mean(np.abs(frame.body))


def test_circular_shift_property():
    m, n = 16, 64  # m divides n
    sp = spec(ChirpFamily.SINUSOIDAL, 6.0, m)
    prof = chirp_fdss(sp)
    ref = synthesize(np.eye(m, dtype=complex)[0] * np.sqrt(m), prof, n, 0).body
    for shift in (1, 5, 11):
        d = np.zeros(m, dtype=complex)
        d[shift] = np.sqrt(m)
        shifted = synthesize(d, prof, n, 0).body
        expect = np.roll(ref, shift * n // m)
        err = np.linalg.norm(shifted - expect) / np.linalg.norm(ref)
        assert 20 * np.log10(err + 1e-300) < -40


def test_synthesize_linearity():
    rng = np.random.default_rng(7)
    prof = chirp_fdss(spec(ChirpFamily.LINEAR, 10.0, 16))
    d1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    d2 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    lhs = synthesize(d1 + d2, prof, 32, 8).samples
    rhs = synthesize(d1, prof, 32, 8).samples + synthesize(d2, prof, 32, 8).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


def test_synthesize_rejects_small_idft():
    with pytest.raises(ValueError):
        synthesize(np.ones(16, dtype=complex), flat_fdss(16), n=16, n_cp=4)


def test_cyclic_prefix_property():
    rng = np.random.default_rng(9)
    d = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    frame = synthesize(d, flat_fdss(16), n=32, n_cp=8)
    assert np.allclose(frame.samples[:8], frame.body[-8:])


# ---------------------------------------------------------------------------
# PMEPR
# ---------------------------------------------------------------------------

def chirp_frames(family, d, m, n, length, n_frames, seed):
    """Random index-modulated chirp frames plus the nominal mean power."""
    rng = np.random.default_rng(seed)
    prof = chirp_fdss(spec(family, d, m))
    e_s = m / length
    data = np.zeros((n_frames, m), dtype=complex)
    idx = np.argsort(rng.random((n_frames, m)), axis=1)[:, :length]
    h = rng.integers(0, 4, (n_frames, length))
    np.put_along_axis(data, idx, np.sqrt(e_s) * np.exp(2j * np.pi * h / 4), axis=1)
    return synthesize(data, prof, n, n // 4), float(m)


def test_pmepr_single_chirp_near_zero_db():
    frame, p_av = chirp_frames(ChirpFamily.SINUSOIDAL, 12.0, 32, 64, 1, 8, 3)
    assert np.max(measure_pmepr(frame, 8, p_av=p_av)) <= 0.5


def test_pmepr_two_chirps_bounded():
    frame, p_av = chirp_frames(ChirpFamily.SINUSOIDAL, 12.0, 32, 64, 2, 400, 4)
    assert np.max(measure_pmepr(frame, 8, p_av=p_av)) <= 3.0 + 0.1


def test_pmepr_five_chirps_bounded():
    frame, p_av = chirp_frames(ChirpFamily.SINUSOIDAL, 12.0, 32, 64, 5, 400, 5)
    assert np.max(measure_pmepr(frame, 8, p_av=p_av)) <= 10 * np.log10(5) + 0.1


def test_pmepr_superposition_bound_wide_margin():
    # unimodular symbols, M >= 2D: bound 10 log10 L + 0.6 dB
    for d, m, length, seed in ((6.0, 16, 2, 10), (12.0, 32, 4, 11),
                               (24.0, 64, 5, 12), (20.0, 48, 3, 13)):
        frame, p_av = chirp_frames(ChirpFamily.SINUSOIDAL, d, m, 2 * m, length, 300, seed)
        assert np.max(measure_pmepr(frame, 8, p_av=p_av)) <= 10 * np.log10(length) + 0.6


def test_pmepr_guards():
    frame, _ = chirp_frames(ChirpFamily.SINUSOIDAL, 12.0, 32, 64, 1, 1, 6)
    with pytest.raises(ValueError):
        measure_pmepr(frame, oversample=2)
    zero = synthesize(np.zeros(16, dtype=complex) + 0j, flat_fdss(16), 32, 8)
    with pytest.raises(ValueError):
        measure_pmepr(zero, 8)


# ---------------------------------------------------------------------------
# Occupied bandwidth
# ---------------------------------------------------------------------------

def test_ocb_sinusoidal_d12():
    prof = chirp_fdss(spec(ChirpFamily.SINUSOIDAL, 12.0, 24))
    assert occupied_bandwidth(prof, 0.99) == 15


def test_ocb_flat():
    assert occupied_bandwidth(flat_fdss(100), 0.99) == 99
    assert occupied_bandwidth(flat_fdss(24), 0.99) == 24


def test_ocb_full_band_limit():
    prof = chirp_fdss(spec(ChirpFamily.SINUSOIDAL, 12.0, 24))
    assert occupied_bandwidth(prof, 1 - 1e-12) == 24


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


def fig4_pair(d, x_p=1.0, x_r=1.0, shifts=(0, 1)):
    k = np.arange(-11, 13)
    coeffs = sinusoidal_chirp_coeffs(d, k)
    return gcp_from_chirps(coeffs, shifts[0], shifts[1], x_p, x_r, l_d=-11)


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
