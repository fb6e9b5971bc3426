"""Bit <-> index mapping under a cyclic minimum-separation constraint.

A frame activates L of M circular positions. Writing s_q for the number of
unused positions between cyclically adjacent active indices (s_L wraps
around), the separation constraint requires s_q >= delta for every q. The
functions here count the constrained index sequences, rank/unrank them with
an exact bijection, and convert information bits to and from (indices, PSK
integers). Counts and ranks use Python integers throughout, so full-scale
configurations (thousands of positions) do not overflow.

Ranking never walks the positions one by one. With
F_p(t) = compositions_count(p, delta, t), non-decreasing in t, two closed
forms give every cumulative count the bijection needs:

* compositions of t into p parts whose last part is <= x:
  F_p(t) - F_p(t - x - 1 + delta);
* index sequences whose first index is < i_0:
  min(i_0, delta) F_L(M - L)
  + [i_0 > delta] (F_{L+1}(M - L + delta) - F_{L+1}(M - L + 2 delta - i_0)).

Unranking finds each position by binary search over these counts. The first
index searches a table of the M prefix counts, built once per (M, L, delta)
per process; the gaps search the composition counts directly. A word costs
O(L log M) binomials for its gaps, and none for its first index, rather than
O(L M). :func:`ranks_to_indices` unranks a batch with the same searches, one
``np.searchsorted`` per level over int64 tables of the counts, which fit up
to :data:`BATCH_INDEX_BITS` index bits.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate
from math import comb
from typing import NamedTuple

import numpy as np


# (M, L, delta) configurations whose first-index prefix table is kept.
PREFIX_CACHE_SIZE = 16
# The most index bits a batch can draw and unrank in int64: a rank goes up to
# 2**index_bits and every count stays below 2**(index_bits + 1) <= 2**63.
BATCH_INDEX_BITS = 62


def check_batch_index_bits(index_bits: int, m: int, length: int, delta: int) -> None:
    """Refuse a codebook of more than :data:`BATCH_INDEX_BITS` index bits,
    whose ranks the runners cannot draw in int64, naming M, L and delta."""
    if index_bits > BATCH_INDEX_BITS:
        raise ValueError(f"index_bits = {index_bits} (M = {m}, L = {length}, delta = {delta}) "
                         f"exceeds the {BATCH_INDEX_BITS}-bit limit of the runners' int64 "
                         "rank draws")


def compositions_count(parts: int, delta: int, total: int) -> int:
    """Number of compositions of ``total`` into ``parts`` parts, each >= delta.

    Substituting s_q' = s_q - delta reduces to weak compositions:
    C(total - parts*delta + parts - 1, parts - 1) when total >= parts*delta,
    else 0 (negative totals included).
    """
    if parts < 1 or delta < 0:
        raise ValueError("need parts >= 1, delta >= 0")
    if total < parts * delta:
        return 0
    return comb(total - parts * delta + parts - 1, parts - 1)


def index_count(length: int, delta: int, m: int) -> int:
    """Number of strictly increasing index sequences of given ``length`` in
    [0, m) whose cyclic gaps are all >= delta.

    Closed form (m/length) * C(m - length*delta - 1, length - 1) for
    m >= length*(delta+1), else 0. For length == 1 the count is m (every
    single index is valid as long as its wrap-around gap m-1 >= delta).
    """
    if length < 1 or delta < 0 or m < 1:
        raise ValueError("need length >= 1, delta >= 0, m >= 1")
    if length == 1:
        return m if m >= delta + 1 else 0
    if m < length * (delta + 1):
        return 0
    total = m * comb(m - length * delta - 1, length - 1)
    assert total % length == 0
    return total // length


def delta_no_loss(m: int, length: int) -> int:
    """Largest separation delta that keeps floor(log2(count)) at the
    unconstrained value floor(log2(C(m, length)))."""
    if length < 2 or m < 2 * length:
        raise ValueError("need length >= 2 and m >= 2*length")
    target = comb(m, length).bit_length() - 1
    lo, hi = 0, m // length  # count is 0 beyond m/length - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        count = index_count(length, mid, m)
        if count > 0 and count.bit_length() - 1 == target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def rank_to_gaps(rank: int, total: int, parts: int, delta: int) -> tuple[int, ...]:
    """Gap vector (s_1..s_parts) of the given 1-based rank.

    Ranks order the compositions by the last part first. F_P(total) -
    F_P(total - x - 1 + delta) of them have a last part <= x, so the last gap
    is the smallest x where that reaches the rank, found by binary search for
    the largest t = total - x - 1 + delta with F_P(t) <= F_P(total) - rank.
    The remainder recurses on the leading parts; the first gap takes the rest.
    """
    count = compositions_count(parts, delta, total)
    if not 1 <= rank <= count:
        raise ValueError(f"rank {rank} outside 1..{count}")
    gaps: list[int] = []
    while parts > 1:
        full = compositions_count(parts, delta, total)
        lo = parts * delta  # F_P(lo - 1) = 0, so t >= lo - 1
        t = lo - 1 + bisect_right(range(lo, total), full - rank,
                                  key=partial(compositions_count, parts, delta))
        rank -= full - compositions_count(parts, delta, t + 1)
        gaps.append(total - 1 + delta - t)
        total -= gaps[-1]
        parts -= 1
    return (total, *reversed(gaps))


def gaps_to_rank(gaps, total: int, parts: int, delta: int) -> int:
    """Inverse of :func:`rank_to_gaps`: one count difference per level,
    F_P(remaining) - F_P(remaining - last + delta)."""
    gaps = tuple(int(g) for g in gaps)
    if len(gaps) != parts:
        raise ValueError(f"expected {parts} gaps, got {len(gaps)}")
    if sum(gaps) != total:
        raise ValueError(f"gaps sum to {sum(gaps)}, expected {total}")
    if any(g < delta for g in gaps):
        raise ValueError(f"gap below the separation {delta}: {gaps}")
    rank = 1
    for level in range(parts, 1, -1):
        last = gaps[level - 1]
        rank += compositions_count(level, delta, total) - \
            compositions_count(level, delta, total - last + delta)
        total -= last
    return rank


def _first_index_prefix(i0: int, m: int, length: int, delta: int) -> int:
    """Number of valid sequences whose first index is below ``i0`` (the
    hockey-stick closed form in the module docstring)."""
    prefix = min(i0, delta) * compositions_count(length, delta, m - length)
    if i0 > delta:
        prefix += compositions_count(length + 1, delta, m - length + delta) - \
            compositions_count(length + 1, delta, m - length + 2 * delta - i0)
    return prefix


@lru_cache(maxsize=PREFIX_CACHE_SIZE)
def _first_index_prefixes(m: int, length: int, delta: int) -> tuple[int, ...]:
    """The prefix counts of first indices 0..m-1, built once per
    configuration per process."""
    return tuple(_first_index_prefix(a, m, length, delta) for a in range(m))


@lru_cache(maxsize=PREFIX_CACHE_SIZE)
def _count_tables(m: int, length: int, delta: int) -> tuple[np.ndarray, ...]:
    """The int64 tables of :func:`ranks_to_indices`, built once per
    configuration per process: the first-index prefix counts, then
    F_P(t) for t = 0..m - L - (L - P) delta, the largest total gap level P
    sees, for P = L..2. Each is built as Python ints, so a count past int64
    raises OverflowError here; every one fits when the count is below 2**63
    (F_P at that total is at most F_L(m - L)). Read-only."""
    top = m - length
    tables = [_first_index_prefixes(m, length, delta)]
    tables += [[compositions_count(parts, delta, t)
                for t in range(top - (length - parts) * delta + 1)]
               for parts in range(length, 1, -1)]
    tables = tuple(np.array(table, dtype=np.int64) for table in tables)
    for table in tables:
        table.flags.writeable = False
    return tables


def rank_to_indices(rank: int, m: int, length: int, delta: int) -> tuple[int, ...]:
    """Index sequence of the given 1-based rank.

    The first index i_0 is the last one whose prefix count
    min(i_0, delta) F_L(m - L) + [i_0 > delta] (F_{L+1}(m - L + delta) -
    F_{L+1}(m - L + 2 delta - i_0)) is below the rank, found by binary search
    in the configuration's table of the m prefix counts.
    The rest of the rank unranks into gaps summing to m - L - max(0, i_0 - delta)
    (the wrap-around gap absorbs the slack beyond delta), and
    i_l = i_0 + sum_{j<=l} (1 + s_j).
    """
    count = index_count(length, delta, m)
    if not 1 <= rank <= count:
        raise ValueError(f"rank {rank} outside 1..{count}")
    prefixes = _first_index_prefixes(m, length, delta)
    i0 = bisect_left(prefixes, rank) - 1
    gaps = rank_to_gaps(rank - prefixes[i0], m - length - max(0, i0 - delta),
                        length, delta)
    return tuple(accumulate((1 + g for g in gaps[:-1]), initial=i0))


def ranks_to_indices(ranks, m: int, length: int, delta: int) -> np.ndarray:
    """Index rows of the 1-based ``ranks`` (shape (B,)), shape (B, L) int64:
    row b is ``rank_to_indices(ranks[b], m, length, delta)``.

    The same search as :func:`rank_to_indices`, one ``np.searchsorted`` per
    level over the configuration's int64 count tables (:func:`_count_tables`).
    F_P(t) = 0 for t < P delta, so the last gap's search needs no lower
    bound: t = searchsorted(F_P, F_P(total) - rank, "right") - 1. The counts
    must stay below 2**63, which holds up to :data:`BATCH_INDEX_BITS` index
    bits; a larger configuration raises OverflowError when its tables are
    built.
    """
    count = index_count(length, delta, m)
    ranks = np.asarray(ranks)
    if len(ranks) and not 1 <= ranks.min() <= ranks.max() <= count:
        bad = ranks[(ranks < 1) | (ranks > count)]
        raise ValueError(f"rank {int(bad[0])} outside 1..{count}")
    ranks = ranks.astype(np.int64, copy=False)
    prefixes, *levels = _count_tables(m, length, delta)
    # column 0 holds i_0, then column l the step 1 + s_l from i_{l-1} to i_l
    idx = np.empty((len(ranks), length), dtype=np.int64)
    i0 = idx[:, 0]
    i0[:] = np.searchsorted(prefixes, ranks) - 1
    rank = ranks - prefixes[i0]
    total = m - length - np.maximum(i0 - delta, 0)
    for parts, table in zip(range(length, 1, -1), levels):
        full = table[total]
        t = np.searchsorted(table, full - rank, "right") - 1
        rank -= full - table[t + 1]
        gap = total - 1 + delta - t
        total -= gap
        if parts < length:  # the wrap-around gap s_L places no index
            idx[:, parts] = gap + 1
    if length > 1:
        idx[:, 1] = total + 1
    return np.cumsum(idx, axis=1, out=idx)


def indices_to_rank(indices, m: int, length: int, delta: int) -> int:
    """Inverse of :func:`rank_to_indices`. Raises naming the violated gap
    when the sequence does not satisfy the separation constraint."""
    idx = tuple(int(i) for i in indices)
    if len(idx) != length:
        raise ValueError(f"expected {length} indices, got {len(idx)}")
    if any(not 0 <= i < m for i in idx):
        raise ValueError(f"indices outside [0, {m}): {idx}")
    if any(idx[q] <= idx[q - 1] for q in range(1, length)):
        raise ValueError(f"indices must be strictly increasing: {idx}")
    gaps = [idx[q] - idx[q - 1] - 1 for q in range(1, length)]
    gaps.append(m - 1 - idx[-1] + idx[0])
    for q, g in enumerate(gaps, start=1):
        if g < delta:
            raise ValueError(f"cyclic gap s_{q}={g} violates separation {delta}")
    slack = max(0, idx[0] - delta)
    gaps[-1] -= slack
    return _first_index_prefix(idx[0], m, length, delta) + \
        gaps_to_rank(gaps, m - length - slack, length, delta)


@dataclass(frozen=True)
class IndexWord:
    """One frame's selection: active indices, PSK integers, and the
    configuration (m positions, h-ary phases, separation delta)."""

    indices: tuple[int, ...]
    psk: tuple[int, ...]
    m: int
    h: int
    delta: int = 0
    # the 1-based rank of ``indices``, computed once by __post_init__
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        length = len(self.indices)
        if len(self.psk) != length:
            raise ValueError("indices and psk must have equal length")
        if any(not 0 <= z < self.h for z in self.psk):
            raise ValueError(f"psk values outside [0, {self.h})")
        # ranking re-validates ordering, range, and every cyclic gap
        object.__setattr__(self, "rank",
                           indices_to_rank(self.indices, self.m, length, self.delta))

    @property
    def length(self) -> int:
        return len(self.indices)


class BitCapacity(NamedTuple):
    """Bits carried by one frame."""

    index_bits: int
    psk_bits: int
    total: int


def bit_capacity(m: int, length: int, h: int, delta: int = 0) -> BitCapacity:
    """Information bits per frame: floor(log2(index count)) on the index
    selection plus length*log2(h) on the PSK symbols."""
    if h < 1 or h & (h - 1):
        raise ValueError(f"h={h} must be a power of two")
    count = index_count(length, delta, m)
    if count < 1:
        raise ValueError(f"no valid index sequence for m={m}, length={length}, delta={delta}")
    index_bits, psk_bits = count.bit_length() - 1, length * (h.bit_length() - 1)
    return BitCapacity(index_bits, psk_bits, index_bits + psk_bits)


def bits_to_word(bits, m: int, length: int, h: int, delta: int = 0) -> IndexWord:
    """Map information bits to an :class:`IndexWord`.

    The leading index bits convert to a 1-based rank (value + 1) and unrank
    into indices; the remaining bits split into log2(h)-sized groups, one
    PSK integer per active index, natural binary order. MSB first throughout.
    """
    cap = bit_capacity(m, length, h, delta)
    bits = np.asarray(bits).ravel()
    if len(bits) != cap.total:
        raise ValueError(f"expected {cap.total} bits, got {len(bits)}")
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    width = cap.psk_bits // length
    psk = tuple((value >> (width * (length - 1 - i))) & ((1 << width) - 1)
                for i in range(length))
    indices = rank_to_indices((value >> cap.psk_bits) + 1, m, length, delta)
    return IndexWord(indices=indices, psk=psk, m=m, h=h, delta=delta)


def pack_bits(value: int, psk, cap: BitCapacity) -> np.ndarray:
    """MSB-first bits of an index value (rank - 1, below 2**cap.index_bits)
    followed by each PSK integer in its share of ``cap.psk_bits``: the
    inverse of :func:`bits_to_word`'s split."""
    width = cap.psk_bits // len(psk)
    for z in psk:
        value = (value << width) | int(z)
    return np.array([(value >> i) & 1 for i in reversed(range(cap.total))], dtype=np.uint8)


def word_to_bits(word: IndexWord) -> np.ndarray:
    """Inverse of :func:`bits_to_word`. The word's rank must fit in the
    index-bit budget (ranks above 2**index_bits are never emitted by the
    encoder)."""
    cap = bit_capacity(word.m, word.length, word.h, word.delta)
    rank = word.rank
    if rank - 1 >> cap.index_bits:
        raise ValueError(f"rank {rank} is outside the {cap.index_bits}-bit codebook")
    return pack_bits(rank - 1, word.psk, cap)
