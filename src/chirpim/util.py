"""Small shared helpers: constants, Gaussian tail, the bin band of M,
noise variance of an SNR and its check.

:func:`default_band` is the one place that decides which bins a waveform
of M bins occupies; every layer reads its bins from there (or from
:func:`band`). Only the formulas that evaluate at any bins (the radar and
channel responses, the chirp coefficients) take bins as a parameter."""
from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import erfc

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def qfunc(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def default_band(m: int) -> tuple[int, int]:
    """Symmetric-around-DC bin range (lowest, highest) spanning ``m`` bins.

    For even ``m`` the extra bin goes to the positive side, so the span is
    ``-(m//2 - 1) .. m//2``; odd ``m`` is symmetric.
    """
    if m < 2:
        raise ValueError(f"M = {m}: a band needs at least 2 bins")
    hi = m // 2
    return hi - m + 1, hi


def band(m: int) -> np.ndarray:
    """The ``m`` bins of :func:`default_band`, ascending."""
    l_d, l_u = default_band(m)
    return np.arange(l_d, l_u + 1)


def check_noise_variance(sigma2) -> None:
    """Raise unless the noise variance ``sigma2`` is finite and >= 0 (0 is
    the noiseless case)."""
    if not 0.0 <= sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")


def noise_variance(snr_db: float) -> float:
    """sigma2 = 10^(-snr_db/10), the noise variance at ``snr_db`` against a
    unit signal power. Raises unless sigma2 is a finite, normal, positive
    float: the SNR must be finite and at most about +-3076 dB."""
    try:
        sigma2 = 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not sys.float_info.min <= sigma2 < math.inf:
        raise ValueError(f"an SNR of {snr_db} dB gives sigma2 = 10^(-SNR/10) = {sigma2}, "
                         "not a finite, normal, positive float")
    return sigma2
