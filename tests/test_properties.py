"""Property-based checks of the index codec, the noiseless tx/rx chain, the
oversampled PMEPR and its atom sum, the band rotation, the radar Fisher
information, stacked radar scenes, the BLER batch and the BLER interval."""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import chirpim.modem
from chirpim import runners
from chirpim.channel import RadarScene, radar_cfr
from chirpim.chirps import FRAME_BLOCK, PMEPR_OVERSAMPLE, ChirpFamily, ChirpSpec, \
    band_slices, measure_pmepr
from chirpim.config import desk_preset
from chirpim.indexing import (BATCH_INDEX_BITS, IndexWord, bit_capacity, bits_to_word,
                              index_count, indices_to_rank, rank_to_indices,
                              ranks_to_indices, word_to_bits)
from chirpim.modem import ATOM_MIN_GRID, ModemConfig, Scheme, atom_peaks, \
    frame_from_symbols, rx_frame, tx_bins, tx_frame, word_symbols
from chirpim.radar import crlb_coeff, crlb_range, crlb_range_no_phase, fim
from chirpim.runners import _wilson
from chirpim.util import SPEED_OF_LIGHT, band

from oracles import fim_jacobian_gram, one_pass_bler_batch, zero_padded_pmepr_db

T_S = 88.9e-9
PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def codes(draw, max_m=40):
    """(M, L, delta, H) with at least one separation-valid index sequence:
    the count is nonzero exactly when M >= L (delta + 1)."""
    m = draw(st.integers(2, max_m))
    length = draw(st.integers(1, m // 2))
    delta = draw(st.integers(0, m // length - 1))
    h = draw(st.sampled_from([1, 2, 4, 8]))
    return m, length, delta, h


@PROPERTY
@given(codes(max_m=2048), st.data())
def test_rank_unrank_bijection(code, data):
    m, length, delta, _ = code
    rank = data.draw(st.integers(1, index_count(length, delta, m)))
    indices = rank_to_indices(rank, m, length, delta)
    IndexWord(indices, (0,) * length, m, 1, delta)  # increasing, gaps >= delta
    assert indices_to_rank(indices, m, length, delta) == rank


@st.composite
def batch_codes(draw):
    """(M, L, delta, count) with at least two index sequences and at most
    BATCH_INDEX_BITS index bits, L up to 8."""
    m = draw(st.integers(2, 2048))
    length = draw(st.integers(1, min(m // 2, 8)))
    delta = draw(st.integers(0, m // length - 1))
    count = index_count(length, delta, m)
    assume(count >= 2 and count.bit_length() - 1 <= BATCH_INDEX_BITS)
    return m, length, delta, count


@PROPERTY
@given(batch_codes(), st.lists(st.integers(0, 2 ** BATCH_INDEX_BITS - 1), max_size=40))
@example((1572, 7, 0, index_count(7, 0, 1572)), [2 ** BATCH_INDEX_BITS - 1])  # 62 bits
@example((1536, 2, 84, index_count(2, 84, 1536)), [0, 11])  # the paper's separation
def test_ranks_to_indices_equals_rank_to_indices(code, draws):
    # row by row, over ranks in 1..min(count, 2**62) (what a runner can
    # draw) with the first and the last rank always in; rank 0 and
    # count + 1 are refused with the scalar path's message
    m, length, delta, count = code
    top = min(count, 2 ** BATCH_INDEX_BITS)
    ranks = [1, *(1 + n % top for n in draws), count]
    rows = ranks_to_indices(np.array(ranks), m, length, delta)
    assert rows.dtype == np.int64 and rows.shape == (len(ranks), length)
    assert [tuple(row) for row in rows.tolist()] == \
        [rank_to_indices(rank, m, length, delta) for rank in ranks]
    for bad in (0, count + 1):
        message = rf"^rank {bad} outside 1\.\.{count}$"
        with pytest.raises(ValueError, match=message):
            rank_to_indices(bad, m, length, delta)
        with pytest.raises(ValueError, match=message):
            ranks_to_indices([1, bad], m, length, delta)


@PROPERTY
@given(codes(), st.data())
def test_bits_word_round_trip(code, data):
    m, length, delta, h = code
    total = bit_capacity(m, length, h, delta).total
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=total, max_size=total)),
                    dtype=np.uint8)
    word = bits_to_word(bits, m, length, h, delta)
    assert np.array_equal(word_to_bits(word), bits)


@st.composite
def modems(draw):
    scheme = draw(st.sampled_from(list(Scheme)))
    m = draw(st.sampled_from([8, 12, 16, 32, 64]))
    length = draw(st.integers(1, m // 2))
    delta = draw(st.integers(0, m // length - 1))
    if index_count(length, delta, m) < 2:
        delta = 0
    chirp = None
    if scheme is Scheme.CSC_IM:
        family = draw(st.sampled_from(list(ChirpFamily)))
        d = draw(st.floats(0.5, 0.9)) * m
        chirp = ChirpSpec(family, d)
    h = draw(st.sampled_from([1, 2, 4, 8]))
    return ModemConfig(scheme, m, 2 * m, m // 2, length, h, delta=delta, chirp=chirp)


@PROPERTY
@given(modems(), st.data())
def test_noiseless_loopback(cfg, data):
    total = cfg.capacity.total
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=total, max_size=total)),
                    dtype=np.uint8)
    assert np.array_equal(rx_frame(tx_frame(bits, cfg), 1.0, 0.0, cfg), bits)


@PROPERTY
@given(st.data())
def test_pmepr_from_bins_equals_zero_padded_oracle(data):
    # N is even: for odd N = M + 1 the oracle's split at N//2 puts the top
    # bin (N-1)/2 on the negative side, where the bins are not
    scheme = data.draw(st.sampled_from(list(Scheme)))
    m = data.draw(st.integers(4, 48))
    n = 2 * data.draw(st.integers(m // 2 + 1, 2 * m))
    chirp = ChirpSpec(data.draw(st.sampled_from(list(ChirpFamily))),
                      0.75 * m) if scheme is Scheme.CSC_IM else None
    cfg = ModemConfig(scheme, m, n, data.draw(st.integers(0, n - 1)), 1, 4, chirp=chirp)
    p_av = data.draw(st.one_of(st.none(), st.floats(0.5, 2.0).map(lambda x: x * m)))
    batch = data.draw(st.integers(1, 3 * FRAME_BLOCK + 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    d = rng.standard_normal((batch, m)) + 1j * rng.standard_normal((batch, m))
    values = measure_pmepr(tx_bins(d, cfg), n, p_av=p_av)
    oracle = zero_padded_pmepr_db(frame_from_symbols(d, cfg), n, cfg.n_cp,
                                  PMEPR_OVERSAMPLE, p_av)
    assert np.max(np.abs(values - oracle)) <= 1e-12


@PROPERTY
@given(st.sampled_from(list(Scheme)), st.sampled_from(list(ChirpFamily)),
       st.sampled_from((24, 32, 40, 48, 15, 25, 33)), st.sampled_from((64, 128, 256)),
       st.integers(1, 4), st.integers(1, 2 * FRAME_BLOCK + 3), st.integers(0, 2 ** 32 - 1))
def test_pmepr_batch_atoms_agree_with_the_idft(scheme, family, m, n, length, batch, seed):
    # u = M / gcd(M, 8N) is 1 (M = 32), 3 (24, 48), 5 (40), 15, or above
    # FRAME_BLOCK (25, 33), and 2**L * ATOM_MIN_GRID <= 8N holds up to
    # L = 1, 2 and 3 at N = 64, 128 and 256: the atom path agrees with
    # measure_pmepr of the batch's bins to 1e-12 dB, and OFDM-IM, u above
    # FRAME_BLOCK and L past the rule take the IDFT path bit for bit; the
    # stream is left where random_words leaves it
    chirp = ChirpSpec(family, 0.75 * m) if scheme is Scheme.CSC_IM else None
    mcfg = ModemConfig(scheme, m, n, n // 4, length, 4, chirp=chirp)
    cfg = SimpleNamespace(modem_config=lambda: mcfg)  # all that _pmepr_batch reads
    stream, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    values = runners._pmepr_batch(cfg, stream, batch)
    idx, psk = runners.random_words(mcfg, batch, rng)
    w = tx_bins(word_symbols(idx, psk, mcfg), mcfg)
    expect = measure_pmepr(w, n, p_av=float(m))
    p = PMEPR_OVERSAMPLE * n
    atoms = scheme.spreads and m // np.gcd(m, p) <= FRAME_BLOCK and ATOM_MIN_GRID << length <= p
    assert (atom_peaks(idx, psk, mcfg) is not None) == atoms
    if atoms:
        assert np.max(np.abs(values - expect)) <= 1e-12
    else:
        assert np.array_equal(values, np.atleast_1d(expect))
    assert stream.bit_generator.state == rng.bit_generator.state


@PROPERTY
@given(st.integers(2, 64).flatmap(lambda m: st.tuples(st.just(m), st.integers(m, 4 * m))))
@example((16, 16))   # n = M: a pure rotation, as in tx_bins
@example((2, 32))    # l_d = 0, no wrap: the second pair is empty
def test_band_slices_are_the_rotation_to_k_mod_n(case):
    # copying through the two slice pairs gathers from, and scatters to,
    # exactly the positions k mod N of the bins k = l_d..l_u of default_band(M)
    m, n = case
    k = band(m)
    grid, w = np.arange(1, n + 1), np.arange(1, m + 1)
    gathered = np.zeros(m, dtype=int)
    scattered = np.zeros(n, dtype=int)
    for bins, pos in band_slices(m, n):
        gathered[bins] = grid[pos]
        scattered[pos] = w[bins]
    assert np.array_equal(gathered, grid[k % n])
    expect = np.zeros(n, dtype=int)
    expect[k % n] = w
    assert np.array_equal(scattered, expect)


@st.composite
def radar_scenes(draw, stack=False):
    """(scene, k, w): 1 to 3 targets with real coefficients, spaced 0.5 to
    3 r_min apart, on the 64 desk bins k of default_band(64), with random
    complex reference bins, zero outside a random subset of 8 or more bins
    or nowhere. With ``stack``, a stack of 1 to 5 such scenes with one
    target count, and reference bins of shape (B, M), C- or
    Fortran-ordered, or shared (M,)."""
    f_c, t_s, t_cp = 6.48e9, T_S, 32 * T_S / 128
    k = band(64)
    off = np.zeros(len(k), dtype=bool)
    if draw(st.booleans()):
        off[:] = True
        off[list(draw(st.sets(st.integers(0, len(k) - 1), min_size=8, max_size=63)))] = False
    r_min = 0.5 * SPEED_OF_LIGHT * t_s / 64
    r = draw(st.integers(1, 3))
    sign = st.sampled_from([-1.0, 1.0])

    def targets():
        dist = [draw(st.floats(1.0, 1.5))]
        for _ in range(r - 1):
            dist.append(dist[-1] + draw(st.floats(0.5, 3.0)) * r_min)
        return list(zip(dist, [draw(sign) * draw(st.floats(0.05, 1.5)) for _ in range(r)]))

    rows = [targets() for _ in range(draw(st.integers(1, 5)) if stack else 1)]
    shape = (len(rows), len(k)) if stack and draw(st.booleans()) else (len(k),)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w[..., off] = 0
    if w.ndim == 2 and draw(st.booleans()):
        w = np.asfortranarray(w)
    scene = RadarScene(targets=rows if stack else rows[0], f_c=f_c, t_s=t_s, t_cp=t_cp)
    return scene, k, w


@PROPERTY
@given(radar_scenes(), st.floats(1e-4, 1.0))
def test_fim_equals_jacobian_gram(case, sigma2):
    scene, k, w = case
    j = fim(scene, w, sigma2)
    oracle = fim_jacobian_gram(k, w, scene.delays, scene.coeffs, scene.f_c, scene.t_s,
                               sigma2)
    scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
    assert np.all(np.abs(j - oracle) <= 1e-12 * scale)
    assert np.all(np.abs(j - j.T) <= 1e-14 * scale)  # symmetric up to rounding
    # the joint bound is never below the one built from J's diagonal alone
    r = scene.n_targets
    diagonal = SPEED_OF_LIGHT ** 2 / 4 * np.sum(1.0 / np.diag(j)[:r])
    assert crlb_range(scene, w, sigma2) >= diagonal * (1 - 1e-12)


@PROPERTY
@given(radar_scenes(stack=True), st.floats(1e-4, 1.0))
def test_stacked_scene_rows_equal_single_scene_calls(case, sigma2):
    # a stack is B scenes in one object: every row of the CFR, the Fisher
    # information and each bound is its own scene's call, bit for bit
    stack, k, w = case
    cfr = radar_cfr(stack, k)
    stacked = {bound: bound(stack, w, sigma2) for bound in (fim, crlb_range, crlb_coeff)}
    no_phase = crlb_range_no_phase(stack, len(k), sigma2)
    for i, targets in enumerate(stack.targets):
        one = RadarScene(targets=targets, f_c=stack.f_c, t_s=stack.t_s, t_cp=stack.t_cp)
        assert np.array_equal(cfr[i], radar_cfr(one, k))
        for bound, values in stacked.items():
            assert np.array_equal(values[i], bound(one, w[i] if w.ndim == 2 else w, sigma2))
        assert np.array_equal(no_phase[i], crlb_range_no_phase(one, len(k), sigma2))


@PROPERTY
@given(st.sampled_from(list(Scheme)), st.booleans(), st.sampled_from((1, 15, 16, 17, 33, 50)),
       st.sampled_from(((1, False), (2, False), (2, True), (5, True))),
       st.sampled_from((0.01, 0.3, 3.0)), st.integers(0, 2 ** 32 - 1))
def test_bler_batch_in_blocks_equals_one_pass(scheme, fading, batch, code, sigma2, seed):
    # batches that straddle FRAME_BLOCK: the runner's block-by-block pass
    # detects the one-pass oracle's word in every frame, counts the same
    # errors and leaves the stream where the oracle leaves it (desk L=5
    # delta=10 has stuck rows)
    length, separated = code
    cfg = desk_preset(scheme=scheme, length=length, separated=separated, fading=fading)
    blocks = []

    def detect(*args):
        blocks.append(chirpim.modem.detect_words_batch(*args))
        return blocks[-1]

    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runners, "detect_words_batch", detect)
        sums = runners._bler_batch(cfg, rng, batch, sigma2)
    det_i, det_z, errors = one_pass_bler_batch(cfg, oracle, batch, sigma2)
    assert [len(i) for i, _ in blocks] == [min(FRAME_BLOCK, batch - lo)
                                           for lo in range(0, batch, FRAME_BLOCK)]
    assert np.array_equal(np.concatenate([i for i, _ in blocks]), det_i)
    assert np.array_equal(np.concatenate([z for _, z in blocks]), det_z)
    assert sums == {"trials": batch, "errors": errors}
    assert rng.bit_generator.state == oracle.bit_generator.state


@PROPERTY
@given(st.integers(1, 10 ** 7).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
@example((0, 12))  # unclamped, the Wilson bounds fall a hair past 0 and 1
@example((12, 12))
def test_wilson_interval_holds_the_ratio(case):
    errors, trials = case
    lo, hi = _wilson(errors, trials)
    assert 0.0 <= lo <= errors / trials <= hi <= 1.0
