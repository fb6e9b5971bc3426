"""Periodic chirp waveforms synthesized through DFT-spread OFDM.

A chirp family is described by its dimensionless frequency-deviation
parameter D (peak instantaneous deviation D/(2*T_s) Hz around the carrier)
and a Fourier-bin window L_d..L_u. The Fourier coefficients of one symbol
period act as a frequency-domain spectral-shaping (FDSS) filter inside a
DFT-s-OFDM transmitter: the M-point DFT of the modulation symbols is
multiplied bin-by-bin by the (normalized) coefficients and placed on the
IDFT grid, which turns each modulation symbol into a circularly-shifted
copy of the base chirp.

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
    """One periodic chirp family over a symbol of duration ``t_s`` seconds.

    ``d`` is the dimensionless deviation (instantaneous frequency swings
    over +-d/(2*t_s) Hz); ``l_d < 0 < l_u`` bound the retained Fourier bins.
    The retained bin count M = l_u - l_d + 1 must exceed d, otherwise the
    truncated series no longer resembles the chirp.
    """

    family: ChirpFamily
    d: float
    l_d: int
    l_u: int
    t_s: float

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("deviation d must be >= 0")
        if not (self.l_d < 0 < self.l_u):
            raise ValueError("need l_d < 0 < l_u")
        if self.m <= self.d:
            raise ValueError(f"bin count M={self.m} must exceed d={self.d}")
        if self.t_s <= 0:
            raise ValueError("t_s must be positive")

    @property
    def m(self) -> int:
        return self.l_u - self.l_d + 1

    @property
    def k(self) -> np.ndarray:
        """Retained Fourier bin indices l_d..l_u."""
        return np.arange(self.l_d, self.l_u + 1)

    @property
    def bandwidth_hz(self) -> float:
        """Swept bandwidth d/t_s Hz (twice the peak deviation)."""
        return self.d / self.t_s

    @classmethod
    def centered(cls, family: ChirpFamily, d: float, m: int, t_s: float) -> "ChirpSpec":
        """Spec with the default symmetric-around-DC window of ``m`` bins."""
        l_d, l_u = default_band(m)
        return cls(family, d, l_d, l_u, t_s)


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

    ``g`` is normalized so that sum |g_k|^2 = M (unit mean bin power);
    ``raw`` keeps the coefficients the profile was built from.
    """

    g: np.ndarray
    raw: np.ndarray
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
    return FdssProfile(g=g, raw=raw, l_d=l_d)


def chirp_fdss(spec: ChirpSpec) -> FdssProfile:
    """Normalized FDSS profile of a chirp family."""
    return normalize_fdss(fourier_coeffs(spec), spec.l_d)


def flat_fdss(m: int, l_d: int | None = None) -> FdssProfile:
    """All-ones profile (plain DFT-s-OFDM, no shaping)."""
    return normalize_fdss(np.ones(m, dtype=complex), l_d)


@dataclass(frozen=True)
class FrameSignal:
    """Time-domain frame: N-sample body with an N_cp-sample cyclic prefix.

    ``samples`` may carry leading batch axes; the last axis has length
    N + N_cp with the prefix first.
    """

    samples: np.ndarray
    n: int
    n_cp: int
    sample_rate: float

    @property
    def body(self) -> np.ndarray:
        return self.samples[..., self.n_cp:]


def synthesize(d: np.ndarray, fdss: FdssProfile, n: int, n_cp: int,
               t_s: float = 1.0) -> FrameSignal:
    """DFT-s-OFDM synthesis of modulation symbols ``d`` (shape (..., M)).

    Pipeline: normalized M-point DFT of d, per-bin multiply by g, placement
    of bin k at IDFT position k mod N, plain-sum N-point IDFT, cyclic-prefix
    prepend. Body sample n is

        x[n] = sum_k g_k * (1/sqrt(M)) sum_m d_m e^{-j2pi k m/M} * e^{j2pi k n/N}.

    Bin indices k run over the profile window; negative k wrap mod M on the
    DFT side and mod N on the IDFT side.
    """
    d = np.asarray(d, dtype=complex)
    m = fdss.m
    if d.shape[-1] != m:
        raise ValueError(f"d has {d.shape[-1]} symbols, profile expects {m}")
    if n <= m:
        raise ValueError(f"IDFT size N={n} must exceed M={m}")
    if not 0 <= n_cp < n:
        raise ValueError("need 0 <= N_cp < N")
    k = fdss.k
    s = np.fft.fft(d, axis=-1) / np.sqrt(m)
    shaped = fdss.g * s[..., k % m]
    grid = np.zeros(d.shape[:-1] + (n,), dtype=complex)
    grid[..., k % n] = shaped
    body = np.fft.ifft(grid, axis=-1) * n
    samples = np.concatenate([body[..., n - n_cp:], body], axis=-1)
    return FrameSignal(samples=samples, n=n, n_cp=n_cp, sample_rate=n / t_s)


def measure_pmepr(frame: FrameSignal, oversample: int = 8,
                  p_av: float | None = None):
    """Peak-to-mean envelope power ratio of the frame body, in dB.

    The body spectrum is zero-padded by ``oversample`` before returning to
    time, so inter-sample peaks are captured. ``p_av`` is the mean-power
    reference; by default the body's own time-averaged power is used. Pass
    the average power of the whole transmission (for frames built by
    :func:`synthesize` that is sum |g_k|^2 = M) to reference the peak
    against the ensemble power instead of the per-frame power.

    Returns a scalar, or an array matching the frame's batch axes.
    """
    if oversample < 4:
        raise ValueError("oversample must be >= 4")
    body = frame.body
    n = frame.n
    spec = np.fft.fft(body, axis=-1)
    half = n // 2
    padded = np.zeros(body.shape[:-1] + (n * oversample,), dtype=complex)
    padded[..., :half] = spec[..., :half]
    padded[..., -(n - half):] = spec[..., half:]
    x = np.fft.ifft(padded, axis=-1) * oversample
    power = np.abs(x) ** 2
    if p_av is None:
        p_av = power.mean(axis=-1)
    if np.any(np.asarray(p_av) <= 0):
        raise ValueError("frame has zero power")
    out = 10.0 * np.log10(power.max(axis=-1) / p_av)
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
    while acc < fraction * total:
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
