"""Property-based checks of the index codec and the noiseless tx/rx chain."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpim.chirps import ChirpFamily, ChirpSpec
from chirpim.indexing import (IndexWord, bit_capacity, bits_to_word, index_count,
                              indices_to_rank, rank_to_indices, word_to_bits)
from chirpim.modem import ModemConfig, Scheme, rx_frame, tx_frame

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
@given(codes(), st.data())
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
        chirp = ChirpSpec.centered(family, d, m, T_S)
    h = draw(st.sampled_from([1, 2, 4, 8]))
    return ModemConfig(scheme, m, 2 * m, m // 2, length, h, delta=delta, t_s=T_S,
                       chirp=chirp)


@PROPERTY
@given(modems(), st.data())
def test_noiseless_loopback(cfg, data):
    total = cfg.capacity.total
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=total, max_size=total)),
                    dtype=np.uint8)
    assert np.array_equal(rx_frame(tx_frame(bits, cfg), 1.0, 0.0, cfg), bits)
