"""Independent reference implementations the tests check the library against.

Everything here is deliberately brute force or first principles: Fourier
coefficients by composite Gauss-Legendre quadrature of the chirp phase,
index sets by filtering all combinations, unranking by walking the counts
one position at a time, ML detection by enumerating every
hypothesis, the greedy separation-aware detector as a plain Python loop,
the radar Fisher information as the Gram matrix of the mean's Jacobian.
None of it shares code with the library paths under test.
"""
from __future__ import annotations

from itertools import combinations, product
from math import comb

import numpy as np


def linear_chirp_phase(d: float):
    """Phase of the linear chirp: integral of 2*pi*f(u) for the instantaneous
    frequency f(u) = (d/2)(2u - 1) over one unit period, zero-mean quadratic."""
    return lambda u: np.pi * d * (u - 0.5) ** 2


def sinusoidal_chirp_phase(d: float):
    """Phase of the sinusoidal chirp: integral of 2*pi*(d/2)cos(2*pi*u)."""
    return lambda u: (d / 2.0) * np.sin(2 * np.pi * u)


def fourier_coeffs_quadrature(phase, k, panels: int, order: int = 6,
                              chunk: int = 64) -> np.ndarray:
    """f_k = int_0^1 e^{j phase(u)} e^{-j 2 pi k u} du by composite
    Gauss-Legendre quadrature with ``panels`` panels of ``order`` nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = np.diff(edges) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    u = (centers[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    base = wts * np.exp(1j * phase(u))
    k = np.atleast_1d(np.asarray(k, dtype=float))
    out = np.empty(len(k), dtype=complex)
    for lo in range(0, len(k), chunk):
        kk = k[lo:lo + chunk]
        out[lo:lo + chunk] = np.exp(-2j * np.pi * np.outer(kk, u)) @ base
    return out


def quadrature_panels(d: float, k_max: float, per_cycle: int = 8) -> int:
    """Enough panels that every integrand oscillation is well resolved."""
    return int(per_cycle * (d / 2.0 + abs(k_max) + 8))


def cyclic_gaps(indices, m: int) -> list[int]:
    idx = list(indices)
    gaps = [idx[q] - idx[q - 1] - 1 for q in range(1, len(idx))]
    gaps.append(m - 1 - idx[-1] + idx[0])
    return gaps


def enumerate_index_sequences(m: int, length: int, delta: int) -> list[tuple[int, ...]]:
    """All strictly increasing index tuples whose cyclic gaps are >= delta."""
    out = []
    for combo in combinations(range(m), length):
        if all(g >= delta for g in cyclic_gaps(combo, m)):
            out.append(combo)
    return out


def enumerate_gap_vectors(total: int, parts: int, delta: int) -> list[tuple[int, ...]]:
    """All compositions of ``total`` into ``parts`` parts each >= delta."""
    if parts == 1:
        return [(total,)] if total >= delta else []
    out = []
    for first in range(delta, total - delta * (parts - 1) + 1):
        for rest in enumerate_gap_vectors(total - first, parts - 1, delta):
            out.append((first,) + rest)
    return out


def _compositions(parts: int, delta: int, total: int) -> int:
    slack = total - parts * delta
    return comb(slack + parts - 1, parts - 1) if slack >= 0 else 0


def walking_unrank(rank: int, m: int, length: int, delta: int) -> tuple[int, ...]:
    """The library's rank order, walked one position at a time: the first
    index i_0 = 0, 1, ... by the size of each i_0 block, then the gaps from
    the last one back, each x = delta, delta + 1, ... by the compositions of
    the leading gaps it leaves."""
    i0 = 0
    while rank > (block := _compositions(length, delta, m - length + min(0, delta - i0))):
        rank -= block
        i0 += 1
    total = m - length - max(0, i0 - delta)
    gaps = []
    for parts in range(length, 1, -1):
        x = delta
        while rank > (count := _compositions(parts - 1, delta, total - x)):
            rank -= count
            x += 1
        gaps.append(x)
        total -= x
    gaps = [total] + gaps[::-1]
    indices = [i0]
    for g in gaps[:-1]:
        indices.append(indices[-1] + 1 + g)
    return tuple(indices)


def exhaustive_ml(y: np.ndarray, m: int, length: int, h: int,
                  delta: int = 0) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Argmax of sum_l Re(y_{i_l} e^{-j 2 pi z_l / H}) over every valid
    hypothesis (optionally separation-constrained). First maximum wins,
    scanning hypotheses in lexicographic order."""
    best = (-np.inf, None, None)
    for combo in combinations(range(m), length):
        if delta and not all(g >= delta for g in cyclic_gaps(combo, m)):
            continue
        for zs in product(range(h), repeat=length):
            metric = sum(np.real(y[i] * np.exp(-2j * np.pi * z / h))
                         for i, z in zip(combo, zs))
            if metric > best[0]:
                best = (metric, combo, zs)
    return best[1], best[2], best[0]


def psk_metric_table(y, h: int) -> list[list[float]]:
    """Per-bin table Re(y_l e^{-j 2 pi z / H}) for the spread schemes."""
    return [[float(np.real(v * np.exp(-2j * np.pi * z / h))) for z in range(h)] for v in y]


def ofdm_im_metric_table(b, h_c, e_s: float, h: int) -> list[list[float]]:
    """Per-subcarrier table 2 sqrt(E_s) Re(b_l conj(H_l) e^{-j 2 pi z / H})
    - E_s |H_l|^2: the part of -||b - diag(H) d||^2 that bin l contributes."""
    return [[2.0 * np.sqrt(e_s) * float(np.real(bl * np.conj(hl) * np.exp(-2j * np.pi * z / h)))
             - e_s * abs(hl) ** 2 for z in range(h)] for bl, hl in zip(b, h_c)]


def greedy_ml(table, length: int, delta: int):
    """Plain-loop greedy detector on an (M, H) metric table.

    Each bin keeps its best phase (first maximum). Bins are visited by
    decreasing value, lowest bin first on ties, and a bin is taken unless it
    lies within cyclic distance ``delta`` of an earlier pick. If fewer than
    ``length`` bins get taken, the ``length`` best bins are returned with
    no separation. Returns (indices ascending, psk, stuck).
    """
    m = len(table)
    best = []
    for row in table:
        z_best = 0
        for z in range(1, len(row)):
            if row[z] > row[z_best]:
                z_best = z
        best.append((row[z_best], z_best))
    ranked = sorted(range(m), key=lambda l: (-best[l][0], l))
    picks: list[int] = []
    for cand in ranked:
        if len(picks) == length:
            break
        if all(min(abs(cand - p), m - abs(cand - p)) > delta for p in picks):
            picks.append(cand)
    stuck = len(picks) < length
    if stuck:
        picks = ranked[:length]
    picks.sort()
    return tuple(picks), tuple(best[l][1] for l in picks), stuck


def fim_jacobian_gram(k, w, delays, coeffs, f_c: float, t_s: float,
                      sigma2: float) -> np.ndarray:
    """(2/sigma2) Re{D^H D} for the Jacobian D of the noiseless radar bins
    mu_k = w_k sum_s alpha_s e^{-j2pi (f_c + k/t_s) tau_s} with respect to
    [tau_1..tau_R, alpha_1..alpha_R]: one column per parameter, written out
    target by target."""
    nu = f_c + np.asarray(k, dtype=float) / t_s
    w = np.asarray(w, dtype=complex)
    ramps = [w * np.exp(-2j * np.pi * nu * tau) for tau in delays]
    d = np.stack([-2j * np.pi * nu * alpha * ramp for alpha, ramp in zip(coeffs, ramps)]
                 + ramps, axis=1)
    return 2.0 / sigma2 * np.real(d.conj().T @ d)
