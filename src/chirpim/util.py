"""Small shared helpers: constants, Gaussian tail, default bin band, the
bin-window check, noise variance of an SNR and its check."""
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
        raise ValueError("band needs at least 2 bins")
    hi = m // 2
    return hi - m + 1, hi


def check_bin_window(k: np.ndarray) -> None:
    """Raise unless the bins ``k`` are the ascending window k[0]..k[0]+M-1,
    M >= 1, the only bin set that the synthesis and the radar search take."""
    if not len(k) or np.any(np.diff(k) != 1):
        raise ValueError(f"k must be the ascending bin window k[0]..k[0]+M-1, got {k}")


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
