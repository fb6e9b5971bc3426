"""Periodic chirp waveforms synthesized through DFT-spread OFDM.

A chirp family is described by its dimensionless frequency-deviation
parameter D (peak instantaneous deviation D/(2*T_s) Hz around the carrier)
and a Fourier-bin window L_d..L_u. The Fourier coefficients of one symbol
period act as a frequency-domain spectral-shaping (FDSS) filter inside a
DFT-s-OFDM transmitter: the M-point DFT of the modulation symbols is
multiplied bin-by-bin by the (normalized) coefficients and placed on the
IDFT grid, which turns each modulation symbol into a circularly-shifted
copy of the base chirp. :func:`synthesize` returns the frame body only;
the modem adds the cyclic prefix. Nothing here holds a clock: frequencies
are in units of 1/T_s, and the experiment config holds T_s.

Also provided: PMEPR and occupied-bandwidth measurement, aperiodic
autocorrelation, and the construction of Golay complementary pairs from
two circularly-shifted chirps.

Only the linear and sinusoidal families are built in. Other periodic phase
shapes can reuse the whole pipeline by passing their own Fourier
coefficients to :func:`normalize_fdss`; nothing downstream of the profile
depends on the family.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import NamedTuple

import numpy as np
from scipy.special import fresnel, jv

from .util import default_band


class ChirpFamily(str, Enum):
    LINEAR = "linear"
    SINUSOIDAL = "sinusoidal"


@dataclass(frozen=True)
class ChirpSpec:
    """One periodic chirp family, in units of the symbol duration T_s.

    ``d`` is the dimensionless deviation (instantaneous frequency swings
    over +-d/(2*T_s) Hz); ``l_d < 0 < l_u`` bound the retained Fourier bins.
    The retained bin count M = l_u - l_d + 1 must exceed d, otherwise the
    truncated series no longer resembles the chirp. ``family`` may be given
    by value ("linear"); a value that names no family raises ValueError.
    """

    family: ChirpFamily
    d: float
    l_d: int
    l_u: int

    def __post_init__(self):
        object.__setattr__(self, "family", ChirpFamily(self.family))
        if self.d < 0:
            raise ValueError(f"d = {self.d}: deviation must be >= 0")
        if not (self.l_d < 0 < self.l_u):
            raise ValueError("need l_d < 0 < l_u")
        if self.m <= self.d:
            raise ValueError(f"d = {self.d}: must be below the bin count m = {self.m}")

    @property
    def m(self) -> int:
        return self.l_u - self.l_d + 1

    @property
    def k(self) -> np.ndarray:
        """Retained Fourier bin indices l_d..l_u."""
        return np.arange(self.l_d, self.l_u + 1)

    @classmethod
    def centered(cls, family: ChirpFamily, d: float, m: int) -> "ChirpSpec":
        """Spec with the default symmetric-around-DC window of ``m`` bins."""
        l_d, l_u = default_band(m)
        return cls(family, d, l_d, l_u)


def linear_chirp_coeffs(d: float, k: np.ndarray) -> np.ndarray:
    """Fourier coefficients of a period of a linear chirp on bins ``k``.

    The phase is the integral of the instantaneous frequency
    f(t) = d/(2*t_s) * (2*t/t_s - 1), i.e. phi(t) = pi*d*(t/t_s - 1/2)^2.
    Completing the square in the Fourier integral gives

        f_k = gamma_k * (C(a_k) + C(b_k) + j*S(a_k) + j*S(b_k))

    with a_k = (d + 2k)/sqrt(2d), b_k = (d - 2k)/sqrt(2d),
    gamma_k = exp(-j*pi*k - j*pi*k^2/d)/sqrt(2d), and C, S the Fresnel
    integrals in the normalized convention (integrand cos/sin(pi t^2 / 2)).

    d = 0 is a pure tone: returns the unit impulse at k = 0.
    """
    k = np.asarray(k, dtype=float)
    if d < 0:
        raise ValueError("deviation d must be >= 0")
    if d == 0:
        return (k == 0).astype(complex)
    a = (d + 2 * k) / np.sqrt(2 * d)
    b = (d - 2 * k) / np.sqrt(2 * d)
    sa, ca = fresnel(a)
    sb, cb = fresnel(b)
    gamma = np.exp(-1j * np.pi * k - 1j * np.pi * k * k / d) / np.sqrt(2 * d)
    return gamma * (ca + cb + 1j * sa + 1j * sb)


def sinusoidal_chirp_coeffs(d: float, k: np.ndarray) -> np.ndarray:
    """Fourier coefficients of a period of a sinusoidal chirp on bins ``k``.

    The instantaneous frequency f(t) = d/(2*t_s) * cos(2*pi*t/t_s)
    integrates to phi(t) = (d/2) * sin(2*pi*t/t_s), whose Fourier series
    is the Jacobi-Anger expansion: f_k = J_k(d/2), the Bessel function of
    the first kind of order k. Real-valued.
    """
    k = np.asarray(k)
    if d < 0:
        raise ValueError("deviation d must be >= 0")
    if d == 0:
        return (k == 0).astype(complex)
    return jv(k, d / 2.0).astype(complex)


def fourier_coeffs(spec: ChirpSpec) -> np.ndarray:
    """Raw (unnormalized) chirp Fourier coefficients over l_d..l_u."""
    if spec.family is ChirpFamily.LINEAR:
        return linear_chirp_coeffs(spec.d, spec.k)
    return sinusoidal_chirp_coeffs(spec.d, spec.k)


@dataclass(frozen=True)
class FdssProfile:
    """Spectral-shaping coefficients over the bin window l_d..l_d+M-1.

    ``g`` is normalized so that sum |g_k|^2 = M (unit mean bin power).
    """

    g: np.ndarray
    l_d: int

    @property
    def m(self) -> int:
        return len(self.g)

    @property
    def l_u(self) -> int:
        return self.l_d + self.m - 1

    @property
    def k(self) -> np.ndarray:
        return np.arange(self.l_d, self.l_u + 1)


def normalize_fdss(raw: np.ndarray, l_d: int | None = None) -> FdssProfile:
    """Scale raw coefficients so the truncated window carries power M.

    g_k = sqrt(M) * raw_k / sqrt(sum |raw_k|^2). The window defaults to the
    symmetric band around DC.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim != 1:
        raise ValueError("raw coefficients must be a 1-D vector")
    power = np.sum(np.abs(raw) ** 2)
    if power == 0:
        raise ValueError("cannot normalize an all-zero coefficient vector")
    m = len(raw)
    if l_d is None:
        l_d = default_band(m)[0]
    g = np.sqrt(m) * raw / np.sqrt(power)
    return FdssProfile(g=g, l_d=l_d)


def chirp_fdss(spec: ChirpSpec) -> FdssProfile:
    """Normalized FDSS profile of a chirp family."""
    return normalize_fdss(fourier_coeffs(spec), spec.l_d)


def flat_fdss(m: int, l_d: int | None = None) -> FdssProfile:
    """All-ones profile (plain DFT-s-OFDM, no shaping)."""
    return normalize_fdss(np.ones(m, dtype=complex), l_d)


def band_slices(l_d: int, m: int, n: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """Where the M bins k = l_d..l_d+M-1 sit on an N-point cyclic grid
    (N >= M), at positions k mod N: two (bin slice, grid slice) pairs.

    Bins [0, a) lie at grid positions [l_d mod N, l_d mod N + a) and bins
    [a, M) wrap round to [0, M - a). Copying through the two pairs is the
    rotation that a gather from, or a scatter to, ``k % n`` does, without
    an index array; the second pair is empty when the window does not wrap.
    """
    start = l_d % n
    a = min(m, n - start)
    return (slice(0, a), slice(start, start + a)), (slice(a, m), slice(0, m - a))


def synthesize(w: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """OFDM synthesis of frequency-domain symbols ``w`` (shape (..., M)).

    Bin value w_i is placed at IDFT position k_i mod N (negative bins wrap)
    and a plain-sum N-point IDFT gives the frame body, of shape (..., N).
    Body sample n is

        x[n] = sum_i w_i e^{j2pi k_i n/N}.

    ``k`` must be the ascending bin window k[0]..k[0]+M-1 (an FDSS
    profile's ``k``); other bin lists raise ValueError. The bins come from
    :func:`chirpim.modem.tx_bins`, every scheme's one bin mapping (DFT
    spreading times the FDSS profile, or the identity);
    :func:`chirpim.modem.frame_from_symbols` adds the cyclic prefix.
    """
    w = np.asarray(w, dtype=complex)
    grid = np.zeros(w.shape[:-1] + (n,), dtype=complex)
    return _plain_idft(grid, w, _window_slices(k, w.shape[-1], n))


def _window_slices(k: np.ndarray, m: int, n: int):
    """:func:`band_slices` of bins ``k`` on an N-point grid, once ``k`` is
    checked to be the window of the M bins of w and N to exceed M."""
    k = np.asarray(k)
    if k.shape != (m,):
        raise ValueError(f"w has {m} bins, k has shape {k.shape}")
    if n <= m:
        raise ValueError(f"IDFT size N={n} must exceed M={m}")
    if np.any(np.diff(k) != 1):
        raise ValueError(f"k must be the ascending bin window k[0]..k[0]+M-1, got {k}")
    return band_slices(int(k[0]), m, n)


def _plain_idft(grid: np.ndarray, w: np.ndarray, window) -> np.ndarray:
    """Place bins ``w`` on ``grid`` (shape (..., N), zero elsewhere) through
    the ``window`` of :func:`_window_slices` and return the plain-sum
    N-point IDFT of the grid.

    The IDFT of :func:`synthesize` and of :func:`measure_pmepr`. The
    unscaled ("forward"-normalized) inverse transform is the plain sum; for
    a power-of-two N it equals ``ifft(grid) * N`` bit for bit.
    """
    for bins, pos in window:
        grid[..., pos] = w[..., bins]
    return np.fft.ifft(grid, axis=-1, norm="forward")


# measure_pmepr takes the peak on the PMEPR_OVERSAMPLE * N-point IDFT, one
# transform per PMEPR_BLOCK frames: 32 paper-scale frames hold about 8 MB of
# 8x oversampled body at once
PMEPR_OVERSAMPLE = 8
PMEPR_BLOCK = 32


def measure_pmepr(w: np.ndarray, k: np.ndarray, n: int, *, p_av: float | None = None):
    """Peak-to-mean envelope power ratio, in dB, of the frame body carrying
    bins ``w`` (shape (..., M)) on bin indices ``k`` of an N-point IDFT.

    The peak is taken on the 8N-point (:data:`PMEPR_OVERSAMPLE`) plain-sum
    IDFT of the bins, the one :func:`synthesize` takes, which captures
    inter-sample peaks; ``k`` must be the ascending bin window
    k[0]..k[0]+M-1, as there. ``p_av`` is the mean-power reference, by
    default each frame's own mean power sum_k |w_k|^2 (Parseval for the
    plain-sum IDFT); pass sum |g_k|^2 = M for the bins of
    :func:`chirpim.modem.tx_bins` to reference the ensemble power instead.
    Frames run :data:`PMEPR_BLOCK` at a time through one 8N-point grid and
    one |x| buffer allocated per call, so memory beyond ``w`` is one
    32-frame workspace (the grid, its IDFT and |x|) whatever the batch;
    every frame's value is the same as when it is measured alone. Each
    frame's peak magnitude is squared once: rounding is monotone, so
    fl(max |x|)^2 equals max fl(|x|^2) bit for bit.

    Returns a scalar, or an array matching the batch axes of ``w``.
    """
    rows = np.reshape(w, (-1, np.shape(w)[-1]))
    window = _window_slices(k, rows.shape[-1], PMEPR_OVERSAMPLE * n)
    peak = np.empty(len(rows))
    size = min(PMEPR_BLOCK, len(rows))
    # every block writes its bins at the same positions, so the rest of
    # the grid stays zero from one block to the next
    grid = np.zeros((size, PMEPR_OVERSAMPLE * n), dtype=complex)
    magnitude = np.empty(grid.shape)
    for lo in range(0, len(rows), PMEPR_BLOCK):
        block = rows[lo:lo + PMEPR_BLOCK]
        x = magnitude[:len(block)]
        np.abs(_plain_idft(grid[:len(block)], block, window), out=x)
        x.max(axis=-1, out=peak[lo:lo + len(block)])
    np.square(peak, out=peak)
    batch = np.shape(w)[:-1]
    if p_av is None:
        # a contiguous copy: a strided row's sum rounds differently
        p_av = np.sum(np.abs(np.ascontiguousarray(rows)) ** 2, axis=-1).reshape(batch)
    if np.any(np.asarray(p_av) <= 0):
        raise ValueError("frame has zero power")
    out = 10.0 * np.log10(peak.reshape(batch) / p_av)
    return out if out.ndim else float(out)


def occupied_bandwidth(fdss: FdssProfile, fraction: float) -> int:
    """Bin count of the smallest contiguous window around the energy
    centroid holding at least ``fraction`` of the profile power.

    The window starts at the bin nearest the centroid and grows one bin at
    a time toward whichever side contributes more energy (ties go to the
    side closer to the centroid). OCB in Hz is the returned count / t_s.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    energy = np.abs(fdss.g) ** 2
    total = energy.sum()
    k = fdss.k
    centroid = float(np.sum(k * energy) / total)
    lo = hi = int(np.argmin(np.abs(k - centroid)))
    acc = energy[lo]
    # rounding can leave acc short of fraction * total with every bin taken
    while acc < fraction * total and hi - lo + 1 < len(k):
        left = energy[lo - 1] if lo > 0 else -1.0
        right = energy[hi + 1] if hi < len(k) - 1 else -1.0
        if left > right:
            take_left = True
        elif right > left:
            take_left = False
        else:
            take_left = centroid - k[lo - 1] <= k[hi + 1] - centroid
        if take_left:
            lo -= 1
            acc += energy[lo]
        else:
            hi += 1
            acc += energy[hi]
    return hi - lo + 1


def apac(a: np.ndarray, lag: int) -> complex:
    """Aperiodic autocorrelation sum_i a_i^* a_{i+lag}; zero outside +-(M-1)."""
    a = np.asarray(a, dtype=complex)
    m = len(a)
    if lag >= m or lag <= -m:
        return 0.0 + 0.0j
    if lag >= 0:
        return complex(np.sum(np.conj(a[: m - lag]) * a[lag:]))
    return complex(np.conj(apac(a, -lag)))


class GcpCheck(NamedTuple):
    is_pair: bool
    max_violation: float  # worst |apac(a,l)+apac(b,l)| / (apac(a,0)+apac(b,0)), l != 0


def is_gcp(a: np.ndarray, b: np.ndarray, tol: float) -> GcpCheck:
    """Test whether (a, b) is a Golay complementary pair.

    True when the aperiodic autocorrelations of a and b sum to (near) zero
    at every nonzero lag: max_{l != 0} |apac(a,l) + apac(b,l)| <= tol *
    (apac(a,0) + apac(b,0)).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("sequences must be 1-D and of equal length")
    zero_lag = (apac(a, 0) + apac(b, 0)).real
    worst = max(abs(apac(a, lag) + apac(b, lag)) for lag in range(1, len(a)))
    ratio = worst / zero_lag
    return GcpCheck(is_pair=bool(ratio <= tol), max_violation=float(ratio))


def gcp_from_chirps(fdss_raw: np.ndarray, shift_p: int, shift_r: int,
                    x_p: complex, x_r: complex,
                    l_d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Golay pair from two circular shifts of one band-limited chirp.

    With f_k the chirp coefficients over the window and unit-magnitude
    symbols x_p, x_r on shifts shift_p != shift_r (in units of t_s/M):

        a_k = x_p f_k e^{-j2pi k shift_p/M} + x_r f_k e^{-j2pi k shift_r/M}
        b_k = x_p f_k e^{-j2pi k shift_p/M} - x_r f_k e^{-j2pi k shift_r/M}

    The sum |x(t)|^2 + |y(t)|^2 of the two synthesized signals is the
    constant 4, so (a, b) is a GCP up to the window truncation error.
    """
    f = np.asarray(fdss_raw, dtype=complex)
    m = len(f)
    if shift_p == shift_r:
        raise ValueError("shifts must differ (the same chirp twice is not complementary)")
    if not (np.isclose(abs(x_p), 1.0) and np.isclose(abs(x_r), 1.0)):
        raise ValueError("x_p and x_r must be unit magnitude")
    if l_d is None:
        l_d = default_band(m)[0]
    k = np.arange(l_d, l_d + m)
    term_p = x_p * f * np.exp(-2j * np.pi * k * shift_p / m)
    term_r = x_r * f * np.exp(-2j * np.pi * k * shift_r / m)
    return term_p + term_r, term_p - term_r


def distinct_cs_count(m: int, h: int) -> int:
    """Number of distinct complementary sequences the two-chirp construction
    yields from m shifts and an h-ary phase alphabet: C(m,2) * h^2."""
    return comb(m, 2) * h * h
