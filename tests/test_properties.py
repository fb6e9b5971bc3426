"""Property-based checks of the index codec, the noiseless tx/rx chain and
the radar Fisher information."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpim.channel import RadarScene
from chirpim.chirps import ChirpFamily, ChirpSpec
from chirpim.indexing import (IndexWord, bit_capacity, bits_to_word, index_count,
                              indices_to_rank, rank_to_indices, word_to_bits)
from chirpim.modem import ModemConfig, Scheme, rx_frame, tx_frame
from chirpim.radar import crlb_range, fim
from chirpim.util import SPEED_OF_LIGHT

from oracles import fim_jacobian_gram

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
