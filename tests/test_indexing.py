"""Separation-constrained counting, ranking bijections, bit conversions."""
from math import comb

import numpy as np
import pytest

from chirpim.indexing import (IndexWord, bit_capacity, bits_to_word,
                              compositions_count, delta_no_loss, gaps_to_rank,
                              index_count, indices_to_rank, rank_to_gaps,
                              rank_to_indices, word_to_bits)

from oracles import enumerate_gap_vectors, enumerate_index_sequences, walking_unrank

# Reference enumeration for M=10, L=3: every hand-checked (rank, indices) row.
TABLE_M10_L3 = {
    0: {1: (0, 8, 9), 2: (0, 7, 9), 3: (0, 6, 9), 4: (0, 5, 9), 5: (0, 4, 9),
        6: (0, 3, 9), 7: (0, 2, 9), 8: (0, 1, 9), 9: (0, 7, 8), 10: (0, 6, 8),
        50: (1, 6, 7), 120: (7, 8, 9)},
    1: {1: (0, 6, 8), 2: (0, 5, 8), 3: (0, 4, 8), 4: (0, 3, 8), 5: (0, 2, 8),
        6: (0, 5, 7), 7: (0, 4, 7), 8: (0, 3, 7), 9: (0, 2, 7), 10: (0, 4, 6),
        50: (5, 7, 9)},
    2: {1: (0, 4, 7), 2: (0, 3, 7), 3: (0, 3, 6), 4: (1, 5, 8), 5: (1, 4, 8),
        6: (1, 4, 7), 7: (2, 6, 9), 8: (2, 5, 9), 9: (2, 5, 8), 10: (3, 6, 9)},
}


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def test_compositions_count_basics():
    assert compositions_count(1, 0, 7) == 1
    assert compositions_count(3, 2, 5) == 0
    assert compositions_count(3, 1, 7) == comb(6, 2) == 15


def test_compositions_count_matches_enumeration():
    for total in range(0, 11):
        for parts in range(1, 5):
            for delta in range(0, 4):
                expect = len(enumerate_gap_vectors(total, parts, delta))
                assert compositions_count(parts, delta, total) == expect


def test_index_count_reference_cardinalities():
    assert index_count(3, 0, 10) == 120 == comb(10, 3)
    assert index_count(3, 1, 10) == 50
    assert index_count(3, 2, 10) == 10


def test_index_count_matches_enumeration():
    for m in range(4, 15):
        for length in range(2, 6):
            if length > m:
                continue
            for delta in range(0, 5):
                expect = len(enumerate_index_sequences(m, length, delta))
                assert index_count(length, delta, m) == expect, (m, length, delta)


def test_index_count_single_index_convention():
    assert index_count(1, 0, 10) == 10
    assert index_count(1, 3, 10) == 10
    assert index_count(1, 10, 10) == 0  # wrap gap m-1 below the separation


def test_index_count_infeasible():
    assert index_count(3, 4, 10) == 0


# ---------------------------------------------------------------------------
# delta_no_loss
# ---------------------------------------------------------------------------

def test_delta_no_loss_powers_of_two():
    for m in (8, 16, 32, 64, 128, 256):
        assert delta_no_loss(m, 2) == m // 4 - 1


def test_delta_no_loss_reference_values():
    assert delta_no_loss(931, 3) == 90
    assert delta_no_loss(954, 4) == 48
    assert delta_no_loss(1012, 5) == 31
    assert delta_no_loss(1536, 2) == 84


def test_delta_no_loss_power_of_two_plus_one():
    for m in (17, 33, 65, 129):
        assert delta_no_loss(m, 2) == 0


# ---------------------------------------------------------------------------
# Gap ranking
# ---------------------------------------------------------------------------

def test_rank_to_gaps_covers_all_compositions():
    total, parts, delta = 7, 3, 1
    count = compositions_count(parts, delta, total)
    assert count == 15
    seen = set()
    for rank in range(1, count + 1):
        gaps = rank_to_gaps(rank, total, parts, delta)
        assert sum(gaps) == total and all(g >= delta for g in gaps)
        assert gaps_to_rank(gaps, total, parts, delta) == rank
        seen.add(gaps)
    assert len(seen) == count


def test_gap_roundtrip_exhaustive():
    for total in range(0, 13):
        for parts in range(1, 5):
            for delta in range(0, 4):
                count = compositions_count(parts, delta, total)
                ranks = [gaps_to_rank(g, total, parts, delta)
                         for g in enumerate_gap_vectors(total, parts, delta)]
                assert sorted(ranks) == list(range(1, count + 1))


def test_rank_to_gaps_single_part():
    assert rank_to_gaps(1, 5, 1, 0) == (5,)
    assert gaps_to_rank((5,), 5, 1, 0) == 1
    with pytest.raises(ValueError):
        rank_to_gaps(2, 5, 1, 0)


def test_rank_to_gaps_range_check():
    with pytest.raises(ValueError):
        rank_to_gaps(16, 7, 3, 1)
    with pytest.raises(ValueError):
        rank_to_gaps(0, 7, 3, 1)


# ---------------------------------------------------------------------------
# Index ranking
# ---------------------------------------------------------------------------

def test_rank_to_indices_reproduces_reference_rows():
    for delta, rows in TABLE_M10_L3.items():
        for rank, indices in rows.items():
            assert rank_to_indices(rank, 10, 3, delta) == indices
            assert indices_to_rank(indices, 10, 3, delta) == rank


def test_roundtrip_all_ranks_m10():
    for delta in (0, 1, 2):
        count = index_count(3, delta, 10)
        seen = set()
        for rank in range(1, count + 1):
            idx = rank_to_indices(rank, 10, 3, delta)
            assert indices_to_rank(idx, 10, 3, delta) == rank
            seen.add(idx)
        assert len(seen) == count
        assert seen == set(enumerate_index_sequences(10, 3, delta))


def test_rank_is_bijection_on_enumeration():
    for m, length, delta in ((12, 4, 0), (12, 4, 1), (14, 3, 2), (11, 2, 3)):
        seqs = enumerate_index_sequences(m, length, delta)
        ranks = [indices_to_rank(s, m, length, delta) for s in seqs]
        assert sorted(ranks) == list(range(1, len(seqs) + 1))
        for s, r in zip(seqs, ranks):
            assert rank_to_indices(r, m, length, delta) == s


def test_random_valid_ranks_yield_valid_words():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(6, 40))
        length = int(rng.integers(2, min(5, m // 2) + 1))
        delta = int(rng.integers(0, max(1, m // length - 1)))
        count = index_count(length, delta, m)
        if count < 1:
            continue
        rank = int(rng.integers(1, count + 1))
        idx = rank_to_indices(rank, m, length, delta)
        # constructor re-validates ordering, ranges, and every cyclic gap
        IndexWord(indices=idx, psk=(0,) * length, m=m, h=2, delta=delta)


def test_rank_to_indices_equals_walking_reference():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(2, 400))
        length = int(rng.integers(1, min(6, m // 2) + 1))
        delta = int(rng.integers(0, m // length))
        count = index_count(length, delta, m)
        for rank in (1, count, int(rng.integers(1, count + 1))):
            assert rank_to_indices(rank, m, length, delta) == \
                walking_unrank(rank, m, length, delta), (m, length, delta, rank)


def test_rank_range_errors():
    with pytest.raises(ValueError):
        rank_to_indices(11, 10, 3, 2)
    with pytest.raises(ValueError):
        rank_to_indices(0, 10, 3, 2)


def test_indices_to_rank_names_violated_gap():
    with pytest.raises(ValueError, match="s_2"):
        indices_to_rank((0, 4, 5), 10, 3, 2)
    with pytest.raises(ValueError, match="s_3"):
        indices_to_rank((0, 4, 9), 10, 3, 2)
    with pytest.raises(ValueError, match="increasing"):
        indices_to_rank((4, 4, 7), 10, 3, 0)


def test_single_index_roundtrip():
    for delta in (0, 2, 5):
        for rank in range(1, 11):
            idx = rank_to_indices(rank, 10, 1, delta)
            assert idx == (rank - 1,)
            assert indices_to_rank(idx, 10, 1, delta) == rank


# rank -> indices at paper scale (M=1536), captured from the earlier
# unranking that walked the counts one position at a time: the first and
# last ranks plus eight drawn with random.Random(2026)
PAPER_SCALE_ROWS = {
    (2, 84): {
        1: (0, 1451), 1049856: (1450, 1535), 215246: (159, 868), 249813: (186, 834),
        468262: (372, 470), 503179: (405, 632), 670008: (579, 756), 882094: (872, 1388),
        925044: (951, 1098), 1029502: (1249, 1387)},
    (2, 0): {
        1: (0, 1535), 1178880: (1534, 1535), 5316: (3, 822), 24094: (15, 362),
        169290: (114, 795), 205630: (140, 1076), 232232: (159, 808), 602387: (461, 754),
        942995: (848, 1093), 1028206: (986, 1235)},
    (5, 252): {
        1: (0, 524, 777, 1030, 1283),
        71618426880: (523, 776, 1029, 1282, 1535),
        10051918166: (43, 322, 576, 1030, 1318),
        19144592516: (82, 434, 734, 1048, 1357),
        39909359553: (171, 520, 808, 1078, 1441),
        45867626258: (196, 490, 770, 1144, 1400),
        48324880829: (207, 487, 778, 1038, 1469),
        51236027661: (219, 567, 874, 1130, 1418),
        52442515585: (224, 501, 784, 1104, 1365),
        54997639905: (235, 526, 783, 1121, 1396)},
}


@pytest.mark.parametrize("length, delta", list(PAPER_SCALE_ROWS))
def test_rank_to_indices_pinned_at_paper_scale(length, delta):
    rows = PAPER_SCALE_ROWS[length, delta]
    assert max(rows) == index_count(length, delta, 1536)
    for rank, indices in rows.items():
        assert rank_to_indices(rank, 1536, length, delta) == indices
        assert indices_to_rank(indices, 1536, length, delta) == rank


def test_full_scale_uses_exact_integers():
    count = index_count(5, 252, 1536)
    assert count > 2 ** 36  # far beyond float precision
    rank = count  # the last sequence
    idx = rank_to_indices(rank, 1536, 5, 252)
    assert indices_to_rank(idx, 1536, 5, 252) == rank


# ---------------------------------------------------------------------------
# Bit capacity and codec
# ---------------------------------------------------------------------------

def test_bit_capacity_reference_values():
    assert bit_capacity(1536, 1, 4, 0).total == 12
    assert bit_capacity(1536, 2, 4, 0).total == 24
    assert bit_capacity(1536, 5, 4, 0).total == 56
    assert bit_capacity(1536, 2, 4, 84).total == 24
    assert bit_capacity(1536, 5, 4, 252).total == 46


def test_bit_capacity_rejects_bad_h():
    with pytest.raises(ValueError):
        bit_capacity(16, 2, 3, 0)


def test_bits_to_word_all_zero():
    word = bits_to_word(np.zeros(bit_capacity(10, 3, 4, 2).total, np.uint8),
                        10, 3, 4, 2)
    assert word.indices == (0, 4, 7)
    assert word.psk == (0, 0, 0)


def test_codec_roundtrip_exhaustive():
    m, length, h, delta = 10, 3, 2, 1
    total = bit_capacity(m, length, h, delta).total
    assert total == 5 + 3
    for value in range(1 << total):
        bits = np.array([(value >> (total - 1 - i)) & 1 for i in range(total)],
                        dtype=np.uint8)
        word = bits_to_word(bits, m, length, h, delta)
        assert np.array_equal(word_to_bits(word), bits)


def test_codec_roundtrip_randomized():
    rng = np.random.default_rng(21)
    m, length, h, delta = 64, 5, 4, 0
    total = bit_capacity(m, length, h, delta).total
    for _ in range(10_000):
        bits = rng.integers(0, 2, total, dtype=np.uint8)
        word = bits_to_word(bits, m, length, h, delta)
        assert np.array_equal(word_to_bits(word), bits)


def test_codec_length_check():
    with pytest.raises(ValueError):
        bits_to_word(np.zeros(4, np.uint8), 10, 3, 4, 2)


def test_word_to_bits_rejects_out_of_codebook_rank():
    # count=120 at delta=0 but only 2^6=64 ranks are addressable
    word = IndexWord(indices=(7, 8, 9), psk=(0, 0, 0), m=10, h=2, delta=0)
    assert word.rank == 120
    with pytest.raises(ValueError):
        word_to_bits(word)


def test_index_word_validation():
    with pytest.raises(ValueError):
        IndexWord(indices=(0, 4, 5), psk=(0, 0, 0), m=10, h=4, delta=2)
    with pytest.raises(ValueError):
        IndexWord(indices=(0, 4, 7), psk=(0, 0, 4), m=10, h=4, delta=2)
    with pytest.raises(ValueError):
        IndexWord(indices=(0, 4, 7), psk=(0, 0), m=10, h=4, delta=2)
