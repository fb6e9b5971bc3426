"""Encoder, LMMSE equalizer, batched ML detector, union bound, full tx/rx chains."""
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from chirpim.channel import rician_realize
from chirpim.chirps import ChirpFamily, ChirpSpec, chirp_fdss, flat_fdss, measure_pmepr, \
    synthesize
from chirpim.config import PRESETS, desk_preset, preset
from chirpim import indexing, modem
from chirpim.indexing import IndexWord, rank_to_indices
from chirpim.modem import (ModemConfig, Scheme, detect_words_batch, encode,
                           equalize_lmmse, extract_bins, frame_from_symbols,
                           post_equalization_snr, rx_frame, tx_bins, tx_frame,
                           union_bound_bler, word_symbols)
from chirpim.runners import random_words

from oracles import (exhaustive_ml, greedy_ml, ofdm_im_metric_table,
                     psk_metric_table)

T_S = 88.9e-9


def make_cfg(scheme=Scheme.CSC_IM, m=64, n=128, n_cp=32, length=2, h=4,
             delta=0, d=48.0, family=ChirpFamily.LINEAR):
    chirp = ChirpSpec(family, d) if scheme is Scheme.CSC_IM else None
    return ModemConfig(scheme, m, n, n_cp, length, h, delta=delta, chirp=chirp)


def random_bits(cfg, rng):
    return rng.integers(0, 2, cfg.capacity.total, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

def test_encode_zero_bits_places_first_sequence():
    cfg = ModemConfig(Scheme.DFT_S_OFDM_IM, 10, 16, 4, 3, 4, delta=2)
    word, d = encode(np.zeros(cfg.capacity.total, np.uint8), cfg)
    assert word.indices == (0, 4, 7)
    active = np.flatnonzero(d)
    assert tuple(active) == (0, 4, 7)
    assert np.allclose(d[active], np.sqrt(10 / 3))


def test_encode_unit_mean_power():
    rng = np.random.default_rng(0)
    for cfg in (make_cfg(length=2), make_cfg(length=5, delta=10),
                make_cfg(Scheme.OFDM_IM, length=3)):
        for _ in range(20):
            _, d = encode(random_bits(cfg, rng), cfg)
            assert np.isclose(np.sum(np.abs(d) ** 2), cfg.m)


def test_encode_rejects_wrong_length():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        encode(np.zeros(cfg.capacity.total + 1, np.uint8), cfg)


def test_modem_config_validation():
    with pytest.raises(ValueError):
        make_cfg(m=64, n=64)  # N must exceed M
    with pytest.raises(ValueError):
        make_cfg(length=33)  # L > M/2
    with pytest.raises(ValueError):
        make_cfg(h=3)
    with pytest.raises(ValueError):
        ModemConfig(Scheme.CSC_IM, 64, 128, 32, 2, 4, chirp=None)
    with pytest.raises(ValueError):
        make_cfg(length=2, delta=32)  # no valid sequence at all


def test_modem_config_scheme_coerced_by_value():
    cfg = ModemConfig("ofdm-im", 16, 32, 8, 2, 4)
    assert cfg.scheme is Scheme.OFDM_IM and not cfg.scheme.spreads
    with pytest.raises(ValueError, match="'csc' is not a valid Scheme"):
        ModemConfig("csc", 16, 32, 8, 2, 4)


# ---------------------------------------------------------------------------
# LMMSE equalizer
# ---------------------------------------------------------------------------

def test_equalizer_inverts_noiseless_awgn():
    rng = np.random.default_rng(1)
    cfg = make_cfg()
    _, d = encode(random_bits(cfg, rng), cfg)
    y = equalize_lmmse(tx_bins(d, cfg), 1.0, cfg.fdss, 0.0)
    assert np.max(np.abs(y - d)) < 1e-10
    assert post_equalization_snr(cfg.fdss, 0.0) == np.inf


def test_equalizer_flat_profile_closed_form():
    # all-ones profile at sigma2=1: alpha = 1/4, snr_post = 1
    fdss = flat_fdss(16)
    assert np.isclose(post_equalization_snr(fdss, 1.0), 1.0)
    assert np.isclose(post_equalization_snr(fdss, 1.0, h_c=np.ones(16)), 1.0)


def test_equalizer_snr_matches_monte_carlo_sinr():
    # iid full-data transmission through the chirp-shaped chain
    rng = np.random.default_rng(3)
    fdss = chirp_fdss(ChirpSpec(ChirpFamily.LINEAR, 56.0), 64)
    sigma2, m, trials = 0.1, 64, 3000
    num = 0.0
    pow_y = 0.0
    for _ in range(trials):
        d = np.exp(2j * np.pi * rng.integers(0, 4, m) / 4)
        s = np.fft.fft(d) / np.sqrt(m)
        b = fdss.g * s[fdss.k % m]
        b = b + (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * np.sqrt(sigma2 / 2)
        y = equalize_lmmse(b, 1.0, fdss, sigma2)
        num += np.sum(y * np.conj(d))
        pow_y += np.sum(np.abs(y) ** 2)
    gain2 = np.abs(num / (trials * m)) ** 2
    snr_mc = gain2 / (pow_y / (trials * m) - gain2)
    snr_an = post_equalization_snr(fdss, sigma2)
    assert abs(10 * np.log10(snr_mc / snr_an)) < 0.3


def test_equalizer_snr_monotone_in_noise():
    fdss = chirp_fdss(ChirpSpec(ChirpFamily.LINEAR, 48.0), 64)
    snrs = [post_equalization_snr(fdss, s2) for s2 in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)]
    assert all(a > b for a, b in zip(snrs, snrs[1:]))


def test_equalizer_rejects_negative_noise():
    with pytest.raises(ValueError):
        equalize_lmmse(np.ones(16, complex), 1.0, flat_fdss(16), -1e-3)


@pytest.mark.parametrize("sigma2", [np.nan, np.inf])
def test_equalizer_rejects_nonfinite_noise(sigma2):
    with pytest.raises(ValueError, match="sigma2"):
        equalize_lmmse(np.ones(16, complex), 1.0, flat_fdss(16), sigma2)


@pytest.mark.parametrize("scheme", [Scheme.CSC_IM, Scheme.OFDM_IM])
@pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
def test_detector_rejects_invalid_noise(scheme, sigma2):
    # a NaN variance used to pass the equalizer and give arbitrary picks
    cfg = make_cfg(scheme, delta=3)
    with pytest.raises(ValueError, match="sigma2"):
        detect_words_batch(np.ones((2, 64), complex), 1.0, sigma2, cfg)


# ---------------------------------------------------------------------------
# Bin mapping: the band rotation against the index forms it replaced
# ---------------------------------------------------------------------------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def pmepr_index_form(w, k, n, p_av):
    """The oversampled PMEPR with the bins scattered at k % 8N and every
    sample squared before the peak is taken."""
    grid = np.zeros(w.shape[:-1] + (8 * n,), dtype=complex)
    grid[..., k % (8 * n)] = w
    peak = np.max(np.abs(np.fft.ifft(grid, axis=-1, norm="forward")) ** 2, axis=-1)
    if p_av is None:
        p_av = np.sum(np.abs(w) ** 2, axis=-1)
    return 10.0 * np.log10(peak / p_av)


def equalize_roll_form(b, h_c, fdss, sigma2):
    c = np.broadcast_to(np.asarray(h_c, dtype=complex) * fdss.g, b.shape)
    denom = np.abs(c) ** 2 + sigma2
    w = np.divide(np.conj(c), denom, out=np.zeros_like(c), where=denom > 0)
    return np.fft.ifft(np.roll(w * b, fdss.l_d, axis=-1), axis=-1) * np.sqrt(fdss.m)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_bin_mapping_equals_index_forms_bit_for_bit(name, scheme):
    # every kernel that moves the band l_d..l_d+M-1 to or from positions
    # k mod N (the transmit bins, the receiver's bins, the equalizer's IDFT
    # input, the synthesis and PMEPR grids) equals the gather, scatter or
    # np.roll it replaced, bit for bit, for one frame and for a batch
    cfg = preset(name, scheme=scheme)
    mcfg = cfg.modem_config()
    m, n, k, fdss = mcfg.m, mcfg.n, mcfg.k, mcfg.fdss
    rng = np.random.default_rng(24)
    d = word_symbols(*random_words(mcfg, 5, rng), mcfg)
    h_c = rician_realize(cfg.pdp, rng, batch=5).cfr(k, cfg.t_s)
    h_c[:, ::7] = 0  # zero bins: the sigma2 = 0 equalizer leaves them at 0
    noise = rng.standard_normal(d.shape) + 1j * rng.standard_normal(d.shape)
    for rows in (slice(None), 0):
        w = tx_bins(d[rows], mcfg)
        spread = fdss.g * (np.fft.fft(d[rows], axis=-1) / np.sqrt(m))[..., k % m]
        assert same_bits(w, spread if scheme.spreads else d[rows])
        assert w.flags.c_contiguous
        frame = frame_from_symbols(d[rows], mcfg)
        assert same_bits(extract_bins(frame, mcfg),
                         np.fft.fft(frame[..., mcfg.n_cp:], axis=-1)[..., k % n] / n)
        grid = np.zeros(w.shape[:-1] + (n,), dtype=complex)
        grid[..., k % n] = w
        assert same_bits(synthesize(w, n), np.fft.ifft(grid, axis=-1, norm="forward"))
        for p_av in (float(m), None):
            assert same_bits(measure_pmepr(w, n, p_av=p_av),
                             pmepr_index_form(w, k, n, p_av))
        for sigma2 in (0.3, 0.0):
            b = h_c[rows] * w + sigma2 * noise[rows]
            for channel in (h_c[rows], 1.0):
                assert same_bits(equalize_lmmse(b, channel, fdss, sigma2),
                                 equalize_roll_form(b, channel, fdss, sigma2))


@pytest.mark.parametrize("m, n, n_pmepr, named", [
    (16, 16, 2, "N=16 must exceed M=16"),  # the PMEPR grid is 8N = 16 points
    (1, 8, 8, "M = 1: a band needs at least 2 bins"),
], ids=["n-not-above-m", "one-bin"])
def test_synthesis_and_pmepr_refuse_a_grid_that_cannot_hold_the_band(m, n, n_pmepr, named):
    # the bins are those of default_band(M), placed by one rotation on a
    # grid that must exceed M: N points for the synthesis, 8N for the PMEPR
    w = np.ones(m, dtype=complex)
    with pytest.raises(ValueError, match=named):
        synthesize(w, n)
    with pytest.raises(ValueError, match=named):
        measure_pmepr(w, n_pmepr)


# ---------------------------------------------------------------------------
# Detector
# ---------------------------------------------------------------------------

def detect_y(y, cfg):
    """Detect symbol estimates y (shape (..., M)) through the spread receiver:
    in noiseless AWGN the equalizer returns y from tx_bins(y) up to rounding,
    so the (B, L) result is the detector's pick on y itself."""
    b = tx_bins(np.atleast_2d(y), cfg)
    return detect_words_batch(b, 1.0, 0.0, cfg), equalize_lmmse(b, 1.0, cfg.fdss, 0.0)


def test_detect_noiseless_loopback():
    rng = np.random.default_rng(4)
    cfg = make_cfg(length=2)
    words, d = zip(*(encode(random_bits(cfg, rng), cfg) for _ in range(1000)))
    det_i, det_z = detect_words_batch(tx_bins(np.stack(d), cfg), 1.0, 0.0, cfg)
    assert det_i.tolist() == [list(w.indices) for w in words]
    assert det_z.tolist() == [list(w.psk) for w in words]


def test_detect_bpsk_signs():
    cfg = ModemConfig(Scheme.DFT_S_OFDM_IM, 16, 32, 8, 1, 2)
    y = np.zeros(16, dtype=complex)
    y[5] = 1.0
    (det_i, det_z), _ = detect_y(y, cfg)
    assert det_i.tolist() == [[5]] and det_z.tolist() == [[0]]
    (det_i, det_z), _ = detect_y(-y, cfg)
    assert det_i.tolist() == [[5]] and det_z.tolist() == [[1]]


def test_detect_equals_exhaustive_search():
    rng = np.random.default_rng(5)
    for m, length, h in ((10, 2, 4), (12, 3, 2), (8, 3, 4)):
        cfg = ModemConfig(Scheme.DFT_S_OFDM_IM, m, 2 * m, 4, length, h)
        y = rng.standard_normal((100, m)) + 1j * rng.standard_normal((100, m))
        (det_i, det_z), y_eq = detect_y(y, cfg)
        for row in range(100):
            idx, psk, _ = exhaustive_ml(y_eq[row], m, length, h)
            assert tuple(det_i[row]) == idx and tuple(det_z[row]) == psk


def test_detect_is_noiseless_loopback():
    rng = np.random.default_rng(6)
    cfg = make_cfg(length=2, delta=15)
    words, d = zip(*(encode(random_bits(cfg, rng), cfg) for _ in range(1000)))
    det_i, det_z = detect_words_batch(tx_bins(np.stack(d), cfg), 1.0, 0.0, cfg)
    assert det_i.tolist() == [list(w.indices) for w in words]
    assert det_z.tolist() == [list(w.psk) for w in words]


def test_detect_is_skips_conflicting_bin():
    # second-strongest bin violates the separation; third-strongest wins
    cfg = ModemConfig(Scheme.DFT_S_OFDM_IM, 16, 32, 8, 2, 2, delta=3)
    y = np.zeros(16, dtype=complex)
    y[5] = 3.0
    y[7] = 2.0   # cyclic distance 2 < delta+1
    y[10] = 1.0  # feasible
    (det_i, _), _ = detect_y(y, cfg)
    assert det_i.tolist() == [[5, 10]]


def test_detect_is_feasible_and_never_beats_exhaustive():
    # M=12, L=3, delta=1: two picks mask at most 6 bins, so no row gets stuck
    rng = np.random.default_rng(7)
    m, length, h, delta = 12, 3, 2, 1
    cfg = ModemConfig(Scheme.DFT_S_OFDM_IM, m, 2 * m, 4, length, h, delta=delta)
    y = rng.standard_normal((200, m)) + 1j * rng.standard_normal((200, m))
    (det_i, det_z), y_eq = detect_y(y, cfg)
    for row in range(200):
        IndexWord(tuple(det_i[row]), tuple(det_z[row]), m, h, delta)  # separation holds
        greedy = sum(np.real(y_eq[row, i] * np.exp(-2j * np.pi * z / h))
                     for i, z in zip(det_i[row], det_z[row]))
        _, _, best = exhaustive_ml(y_eq[row], m, length, h, delta=delta)
        assert greedy <= best + 1e-12


def test_detector_ignores_inactive_bin_permutation():
    rng = np.random.default_rng(8)
    cfg = make_cfg(length=2)
    word, d = encode(random_bits(cfg, rng), cfg)
    y = d + 0.01 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    inactive = [i for i in range(64) if i not in word.indices]
    perm = y.copy()
    perm[inactive] = y[list(np.roll(inactive, 7))]
    (base, _), _ = detect_y(y, cfg)
    (again, _), _ = detect_y(perm, cfg)
    assert base.tolist() == again.tolist() == [list(word.indices)]


@pytest.mark.parametrize("h", [2, 4, 8, 16])
def test_metric_planes_equal_the_tensor_form_bit_for_bit(h):
    # the detector reads its metrics one (B, M) plane per phase; each plane
    # equals that phase's plane of the (B, M, H) tensor it replaced (the form
    # y.real c - y.imag s would not: at H = 8 it differs in about 15% of values)
    rng = np.random.default_rng(25)
    b, h_c = (rng.standard_normal((2, 40, 64)) + 1j * rng.standard_normal((2, 40, 64)))
    cfg = make_cfg(Scheme.OFDM_IM, h=h)
    phases = np.exp(-2j * np.pi * np.arange(h) / h)
    psk = np.real(b[..., None] * phases)
    ofdm = 2.0 * np.sqrt(cfg.e_s) * np.real((b * np.conj(h_c))[..., None] * phases) \
        - cfg.e_s * (np.abs(h_c) ** 2)[..., None]
    # the planes share one buffer, so each is copied as it comes
    for planes, tensor in ((modem._psk_planes(b, h), psk),
                           (modem._ofdm_im_metrics(b, h_c, cfg), ofdm)):
        assert same_bits(np.stack([plane.copy() for plane in planes], axis=-1), tensor)


@pytest.mark.parametrize("scheme", [Scheme.CSC_IM, Scheme.OFDM_IM])
@pytest.mark.parametrize("m, length, delta, signal, stuck_share, h", [
    # two picks mask at most 10 of 12 bins
    pytest.param(12, 3, 2, True, (0.0, 0.0), 4, id="12-3-2-True-stuck_share0"),
    # pure noise: about 55% of rows stuck
    pytest.param(64, 5, 10, False, (0.4, 0.7), 4, id="64-5-10-False-stuck_share1"),
    # delta = 0: the picks mask only themselves
    pytest.param(12, 3, 0, True, (0.0, 0.0), 4, id="12-3-0-True-stuck_share2"),
    pytest.param(64, 16, 0, False, (0.0, 0.0), 4, id="64-16-0-False-stuck_share3"),
    pytest.param(12, 3, 2, True, (0.0, 0.0), 2, id="12-3-2-True-h2"),
    # pure noise at H = 8: about half the rows stuck
    pytest.param(64, 5, 10, False, (0.4, 0.7), 8, id="64-5-10-False-h8"),
    pytest.param(64, 16, 0, False, (0.0, 0.0), 2, id="64-16-0-False-h2"),
    # the first pick's window (indices wrap round) masks 11 of 12 bins,
    # so the second pick is the one bin left, never a stuck row
    pytest.param(12, 2, 5, False, (0.0, 0.0), 8, id="12-2-5-False-wrap-h8"),
])
def test_detect_words_batch_equals_greedy_oracle(scheme, m, length, delta, signal,
                                                 stuck_share, h):
    rng = np.random.default_rng(16)
    cfg = make_cfg(scheme, m=m, n=2 * m, n_cp=m // 2, length=length, h=h,
                   delta=delta, d=0.75 * m)
    rows, sigma2 = 400, 0.5
    b = (rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))) * 0.5
    h_c = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
    if signal:
        d = np.stack([encode(random_bits(cfg, rng), cfg)[1] for _ in range(rows)])
        b = b + h_c * tx_bins(d, cfg)
    det_i, det_z = detect_words_batch(b, h_c, sigma2, cfg)
    if scheme.spreads:
        y = equalize_lmmse(b, h_c, cfg.fdss, sigma2)
        tables = [psk_metric_table(y[r], cfg.h) for r in range(rows)]
    else:
        tables = [ofdm_im_metric_table(b[r], h_c[r], cfg.e_s, cfg.h) for r in range(rows)]
    stuck = 0
    for row, table in enumerate(tables):
        idx, psk, was_stuck = greedy_ml(table, length, delta)
        assert tuple(det_i[row]) == idx and tuple(det_z[row]) == psk, row
        stuck += was_stuck
    assert stuck_share[0] <= stuck / rows <= stuck_share[1]


@pytest.mark.parametrize("delta", [0, 3])
def test_detect_words_batch_phase_ties_go_to_lowest_phase(monkeypatch, delta):
    # small-integer metrics tie between phases in most bins and between
    # bins in most rows; each bin keeps the lowest of its tied phases
    rng = np.random.default_rng(17)
    cfg = make_cfg(Scheme.OFDM_IM, length=3, h=4, delta=delta)
    table = rng.integers(0, 3, size=(200, 64, 4)).astype(float)
    # the detector reads the metrics as an iterator of H planes (rows, M)
    monkeypatch.setattr(modem, "_ofdm_im_metrics",
                        lambda b, h_c, cfg_: iter(np.moveaxis(table, -1, 0)))
    det_i, det_z = detect_words_batch(np.zeros((200, 64), complex), 1.0, 0.5, cfg)
    for row in range(200):
        idx, psk, _ = greedy_ml(table[row].tolist(), cfg.length, delta)
        assert tuple(det_i[row]) == idx and tuple(det_z[row]) == psk, row
    assert np.any(det_z > 0)


def test_detect_words_batch_matches_single_path():
    # every row is detected on its own: a batch equals its rows one at a time
    rng = np.random.default_rng(9)
    for length, delta in ((2, 0), (2, 15), (5, 10)):
        cfg = make_cfg(length=length, delta=delta)
        _, d = encode(random_bits(cfg, rng), cfg)
        w = tx_bins(d, cfg)
        b = np.stack([w + 1.5 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
                      for _ in range(50)])
        bi, bz = detect_words_batch(b, 1.0, 2.25, cfg)
        for row in range(50):
            ri, rz = detect_words_batch(b[row], 1.0, 2.25, cfg)
            assert ri.tolist() == [bi[row].tolist()] and rz.tolist() == [bz[row].tolist()]


# ---------------------------------------------------------------------------
# Union bound
# ---------------------------------------------------------------------------

def test_union_bound_degenerate_full_occupancy():
    # H=1 and L=M: both terms vanish
    fake = SimpleNamespace(m=8, length=8, h=1, e_s=1.0)
    assert union_bound_bler(fake, 0.5) == 0.0


def test_union_bound_vanishes_without_noise():
    cfg = make_cfg()
    assert union_bound_bler(cfg, 0.0) == 0.0
    assert union_bound_bler(cfg, 1e-9) < 1e-12


def test_union_bound_clipped_and_monotone():
    cfg = make_cfg()
    values = [union_bound_bler(cfg, n0) for n0 in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Full chains
# ---------------------------------------------------------------------------

def test_tx_rx_loopback_all_schemes():
    rng = np.random.default_rng(10)
    configs = [make_cfg(Scheme.CSC_IM, length=2),
               make_cfg(Scheme.CSC_IM, length=2, delta=15),
               make_cfg(Scheme.DFT_S_OFDM_IM, length=2),
               make_cfg(Scheme.OFDM_IM, length=2)]
    for cfg in configs:
        for _ in range(200):
            bits = random_bits(cfg, rng)
            frame = tx_frame(bits, cfg)
            assert np.array_equal(rx_frame(frame, 1.0, 0.0, cfg), bits)


def test_loopback_across_frame_sizes():
    # zero errors at zero noise for every scheme over a spread of M, L, delta
    rng = np.random.default_rng(15)
    from chirpim.indexing import delta_no_loss
    for m in (8, 16, 32, 128):
        for length in (1, 2, 5):
            if length > m // 2:
                continue
            deltas = {0}
            if length >= 2:
                deltas.add(delta_no_loss(m, length))
            for delta in deltas:
                for scheme in (Scheme.CSC_IM, Scheme.DFT_S_OFDM_IM, Scheme.OFDM_IM):
                    cfg = make_cfg(scheme, m=m, n=2 * m, n_cp=m // 2,
                                   length=length, delta=delta, d=0.75 * m)
                    for _ in range(20):
                        bits = random_bits(cfg, rng)
                        frame = tx_frame(bits, cfg)
                        assert np.array_equal(rx_frame(frame, 1.0, 0.0, cfg), bits), \
                            (scheme, m, length, delta)


def test_tx_rx_loopback_through_fading_known_cfr():
    rng = np.random.default_rng(11)
    pdp = ((0.0, 0.0, 10.0), (10e-9, -10.0, 0.0), (20e-9, -20.0, 0.0))
    for scheme in (Scheme.CSC_IM, Scheme.DFT_S_OFDM_IM, Scheme.OFDM_IM):
        cfg = make_cfg(scheme, length=2)
        for _ in range(50):
            bits = random_bits(cfg, rng)
            _, d = encode(bits, cfg)
            h_c = rician_realize(pdp, rng).cfr(cfg.k, T_S)
            b = h_c * tx_bins(d, cfg)
            det_i, _ = detect_words_batch(b, h_c, 0.0, cfg)
            assert tuple(det_i[0]) == tuple(np.flatnonzero(d))


def test_csc_frame_pmepr_within_superposition_bound():
    rng = np.random.default_rng(12)
    cfg = make_cfg(length=2, family=ChirpFamily.SINUSOIDAL)
    d = np.stack([encode(random_bits(cfg, rng), cfg)[1] for _ in range(400)])
    worst = np.max(measure_pmepr(tx_bins(d, cfg), cfg.n, p_av=float(cfg.m)))
    assert worst <= 10 * np.log10(2) + 0.6


def test_dft_s_ofdm_pmepr_exceeds_csc_by_3db():
    rng = np.random.default_rng(13)
    out = {}
    for scheme in (Scheme.CSC_IM, Scheme.DFT_S_OFDM_IM):
        cfg = make_cfg(scheme, length=2, family=ChirpFamily.SINUSOIDAL)
        d = np.stack([encode(random_bits(cfg, rng), cfg)[1] for _ in range(5000)])
        values = np.sort(measure_pmepr(tx_bins(d, cfg), cfg.n, p_av=float(cfg.m)))
        out[scheme] = values[int(len(values) * (1 - 1e-3))]  # ~1e-3 CCDF point
    assert out[Scheme.DFT_S_OFDM_IM] > out[Scheme.CSC_IM] + 3.0


def test_extract_bins_inverts_synthesis():
    rng = np.random.default_rng(14)
    for scheme in (Scheme.CSC_IM, Scheme.OFDM_IM):
        cfg = make_cfg(scheme)
        _, d = encode(random_bits(cfg, rng), cfg)
        frame = frame_from_symbols(d, cfg)
        assert np.max(np.abs(extract_bins(frame, cfg) - tx_bins(d, cfg))) < 1e-10


def test_extract_bins_rejects_wrong_frame_length():
    # a frame without its prefix, or with extra samples, used to give wrong bins
    cfg = make_cfg()
    frames = frame_from_symbols(np.ones((3, cfg.m)), cfg)
    assert frames.shape == (3, cfg.n_cp + cfg.n)
    for bad in (frames[:, cfg.n_cp:], frames[:, :-1], np.pad(frames, ((0, 0), (0, 1)))):
        with pytest.raises(ValueError, match="N_cp \\+ N = 160"):
            extract_bins(bad, cfg)


@pytest.mark.parametrize("stack", [2, 1], ids=["two-frames", "batch-of-one"])
def test_rx_frame_refuses_a_stack_of_frames(stack):
    # a (B, N_cp + N) stack used to decode every row and return row 0's bits
    cfg = make_cfg()
    bits = random_bits(cfg, np.random.default_rng(15))
    frames = np.stack([tx_frame(bits, cfg), tx_frame(1 - bits, cfg)][:stack])
    with pytest.raises(ValueError, match=f"got shape \\({stack}, 160\\)"):
        rx_frame(frames, 1.0, 0.0, cfg)


def test_fading_bler_orderings():
    # paired channel/noise draws: separation trims the codebook and lowers
    # BLER; OFDM-IM cannot exploit the frequency selectivity and is worst
    pdp = ((0.0, 0.0, 10.0), (10e-9, -10.0, 0.0), (20e-9, -20.0, 0.0))
    sigma2 = 1.0  # 0 dB

    def run(scheme, delta):
        cfg = make_cfg(scheme, length=2, delta=delta)
        rng = np.random.default_rng(99)
        p1 = cfg.capacity.index_bits
        errs = 0
        trials = 4000
        for lo in range(0, trials, 500):
            nb = min(500, trials - lo)
            ranks = rng.integers(1, (1 << p1) + 1, nb)
            idx = np.array([rank_to_indices(int(r), 64, 2, delta) for r in ranks])
            psk = rng.integers(0, 4, (nb, 2))
            d = np.zeros((nb, 64), complex)
            np.put_along_axis(d, idx, np.sqrt(32.0) * np.exp(2j * np.pi * psk / 4), axis=1)
            w = tx_bins(d, cfg)
            h_c = np.stack([rician_realize(pdp, rng).cfr(cfg.k, T_S)
                            for _ in range(nb)])
            noise = (rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)) \
                * np.sqrt(sigma2 / 2)
            di, dz = detect_words_batch(h_c * w + noise, h_c, sigma2, cfg)
            errs += int(np.any((di != idx) | (dz != psk), axis=1).sum())
        return errs / trials

    bler_is = run(Scheme.CSC_IM, 15)
    bler_no = run(Scheme.CSC_IM, 0)
    bler_ofdm = run(Scheme.OFDM_IM, 0)
    assert bler_is <= bler_no
    assert bler_no < bler_ofdm


def test_rx_folds_out_of_codebook_rank():
    cfg = ModemConfig(Scheme.DFT_S_OFDM_IM, 10, 16, 4, 3, 2)
    word = IndexWord(indices=(7, 8, 9), psk=(0, 1, 0), m=10, h=2, delta=0)
    frame = frame_from_symbols(word_symbols(word.indices, word.psk, cfg), cfg)
    bits = rx_frame(frame, 1.0, 0.0, cfg)
    assert len(bits) == cfg.capacity.total
    # rank 120 folds to (120-1) mod 64 = 55 -> 110111, then the PSK bits 010
    assert list(bits) == [1, 1, 0, 1, 1, 1, 0, 1, 0]


def test_rx_frame_ranks_the_word_once(monkeypatch):
    # IndexWord keeps the rank it computes to validate itself
    calls = []
    original = indexing.indices_to_rank

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(indexing, "indices_to_rank", counting)
    cfg = make_cfg(length=2, delta=15)
    bits = random_bits(cfg, np.random.default_rng(8))
    word, d = encode(bits, cfg)
    calls.clear()
    assert np.array_equal(rx_frame(frame_from_symbols(d, cfg), 1.0, 0.0, cfg), bits)
    assert len(calls) == 1
    assert word.rank == original(word.indices, cfg.m, cfg.length, cfg.delta)


# rx_frame bits for eight pure-noise desk L=5 delta=10 frames (seed 2024,
# sigma2 = 1), captured from the per-frame greedy receiver this one replaced;
# True marks the frames where the greedy search ran out of bins
STUCK_FRAME_BITS = (
    (False, "00001011011000101101100"), (True, "00101011111000010000000"),
    (False, "01000011110010100100111"), (True, "11111000000001010011001"),
    (False, "00001111101011110100110"), (True, "11010111101010101100011"),
    (True, "01000101000011010110110"), (False, "00010010100100110010011"),
)


def test_rx_frame_pinned_on_stuck_frames():
    cfg = desk_preset(length=5, separated=True).modem_config()
    rng = np.random.default_rng(2024)
    size = cfg.n + cfg.n_cp
    for stuck, expected in STUCK_FRAME_BITS:
        samples = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)
        bits = rx_frame(samples, 1.0, 1.0, cfg)
        assert "".join(str(int(v)) for v in bits) == expected
        det_i, _ = detect_words_batch(extract_bins(samples, cfg), 1.0, 1.0, cfg)
        gaps = np.diff(det_i[0], append=det_i[0, 0] + cfg.m) - 1
        assert (gaps.min() < cfg.delta) == stuck  # fallback words break the separation


def test_word_symbols_matches_manual_construction():
    cfg = make_cfg(length=2, delta=15)
    word = IndexWord(indices=(3, 40), psk=(1, 2), m=64, h=4, delta=15)
    d = word_symbols(word.indices, word.psk, cfg)
    assert np.isclose(d[3], np.sqrt(32.0) * 1j)
    assert np.isclose(d[40], -np.sqrt(32.0))
    assert np.count_nonzero(d) == 2


def test_word_symbols_batch_equals_rows():
    cfg = make_cfg(length=5, delta=10)
    rng = np.random.default_rng(4)
    idx = np.array([rank_to_indices(int(r), cfg.m, cfg.length, cfg.delta)
                    for r in rng.integers(1, 1 << cfg.capacity.index_bits, size=6)])
    psk = rng.integers(0, cfg.h, size=idx.shape)
    d = word_symbols(idx, psk, cfg)
    assert d.shape == (6, cfg.m)
    for row, i, z in zip(d, idx, psk):
        assert np.array_equal(row, word_symbols(tuple(i), tuple(z), cfg))


def test_modem_config_pickles_with_cached_properties(monkeypatch):
    # what a worker receives: the copy carries the FDSS profile and the
    # capacity built with the original, and builds neither again
    configs = (make_cfg(length=2, delta=15), make_cfg(Scheme.OFDM_IM, length=3))

    def refuse(*args):
        raise AssertionError("a pickled ModemConfig rebuilt its profile or capacity")

    for name in ("chirp_fdss", "flat_fdss", "bit_capacity"):
        monkeypatch.setattr(modem, name, refuse)
    for cfg in configs:
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and copy.capacity == cfg.capacity
        assert np.array_equal(copy.fdss.g, cfg.fdss.g) and copy.fdss.l_d == cfg.fdss.l_d
