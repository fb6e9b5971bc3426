"""Property-based checks of the index codec, the noiseless tx/rx chain, the
oversampled PMEPR, the band rotation, the radar Fisher information and the
BLER interval."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chirpim.channel import RadarScene
from chirpim.chirps import PMEPR_BLOCK, PMEPR_OVERSAMPLE, ChirpFamily, ChirpSpec, \
    band_slices, measure_pmepr
from chirpim.indexing import (IndexWord, bit_capacity, bits_to_word, index_count,
                              indices_to_rank, rank_to_indices, word_to_bits)
from chirpim.modem import ModemConfig, Scheme, frame_from_symbols, rx_frame, \
    tx_bins, tx_frame
from chirpim.radar import crlb_range, fim
from chirpim.runners import _wilson
from chirpim.util import SPEED_OF_LIGHT

from oracles import fim_jacobian_gram, zero_padded_pmepr_db

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
        chirp = ChirpSpec.centered(family, d, m)
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
    chirp = ChirpSpec.centered(data.draw(st.sampled_from(list(ChirpFamily))),
                               0.75 * m, m) if scheme is Scheme.CSC_IM else None
    cfg = ModemConfig(scheme, m, n, data.draw(st.integers(0, n - 1)), 1, 4, chirp=chirp)
    p_av = data.draw(st.one_of(st.none(), st.floats(0.5, 2.0).map(lambda x: x * m)))
    batch = data.draw(st.integers(1, 3 * PMEPR_BLOCK + 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    d = rng.standard_normal((batch, m)) + 1j * rng.standard_normal((batch, m))
    values = measure_pmepr(tx_bins(d, cfg), cfg.k, n, p_av=p_av)
    oracle = zero_padded_pmepr_db(frame_from_symbols(d, cfg), n, cfg.n_cp,
                                  PMEPR_OVERSAMPLE, p_av)
    assert np.max(np.abs(values - oracle)) <= 1e-12


@PROPERTY
@given(st.integers(1, 64).flatmap(lambda m: st.tuples(
    st.integers(-3 * m, 3 * m), st.just(m), st.integers(m, 4 * m))))
@example((-8, 16, 16))   # n = M: a pure rotation, as in tx_bins
@example((0, 16, 32))    # no wrap: the second pair is empty
def test_band_slices_are_the_rotation_to_k_mod_n(case):
    # copying through the two slice pairs gathers from, and scatters to,
    # exactly the positions k mod N of the bins k = l_d..l_d+M-1
    l_d, m, n = case
    k = np.arange(l_d, l_d + m)
    grid, w = np.arange(1, n + 1), np.arange(1, m + 1)
    gathered = np.zeros(m, dtype=int)
    scattered = np.zeros(n, dtype=int)
    for bins, pos in band_slices(l_d, m, n):
        gathered[bins] = grid[pos]
        scattered[pos] = w[bins]
    assert np.array_equal(gathered, grid[k % n])
    expect = np.zeros(n, dtype=int)
    expect[k % n] = w
    assert np.array_equal(scattered, expect)


@st.composite
def radar_scenes(draw):
    """(scene, k, w): 1 to 3 targets with real coefficients, spaced 0.5 to
    3 r_min apart, on 64 contiguous desk bins or a random subset of them,
    with random complex reference bins."""
    f_c, t_s, t_cp = 6.48e9, T_S, 32 * T_S / 128
    k = np.arange(-31, 33)
    if draw(st.booleans()):
        k = np.array(sorted(draw(st.sets(st.sampled_from(k.tolist()), min_size=8,
                                         max_size=63))))
    r_min = 0.5 * SPEED_OF_LIGHT * t_s / 64
    r = draw(st.integers(1, 3))
    dist = [draw(st.floats(1.0, 1.5))]
    for _ in range(r - 1):
        dist.append(dist[-1] + draw(st.floats(0.5, 3.0)) * r_min)
    sign = st.sampled_from([-1.0, 1.0])
    coeffs = [draw(sign) * draw(st.floats(0.05, 1.5)) for _ in range(r)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
    scene = RadarScene(targets=tuple(zip(dist, coeffs)), f_c=f_c, t_s=t_s, t_cp=t_cp)
    return scene, k, w


@PROPERTY
@given(radar_scenes(), st.floats(1e-4, 1.0))
def test_fim_equals_jacobian_gram(case, sigma2):
    scene, k, w = case
    j = fim(scene, (k, w), sigma2)
    oracle = fim_jacobian_gram(k, w, scene.delays, scene.coeffs, scene.f_c, scene.t_s,
                               sigma2)
    scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
    assert np.all(np.abs(j - oracle) <= 1e-12 * scale)
    assert np.all(np.abs(j - j.T) <= 1e-14 * scale)  # symmetric up to rounding
    # the joint bound is never below the one built from J's diagonal alone
    r = scene.n_targets
    diagonal = SPEED_OF_LIGHT ** 2 / 4 * np.sum(1.0 / np.diag(j)[:r])
    assert crlb_range(scene, (k, w), sigma2) >= diagonal * (1 - 1e-12)


@PROPERTY
@given(st.integers(1, 10 ** 7).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
@example((0, 12))  # unclamped, the Wilson bounds fall a hair past 0 and 1
@example((12, 12))
def test_wilson_interval_holds_the_ratio(case):
    errors, trials = case
    lo, hi = _wilson(errors, trials)
    assert 0.0 <= lo <= errors / trials <= hi <= 1.0
