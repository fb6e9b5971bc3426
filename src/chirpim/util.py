"""Small shared helpers: constants, Gaussian tail, default bin band,
noise-variance check."""
from __future__ import annotations

import math

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


def check_noise_variance(sigma2) -> None:
    """Raise unless the noise variance ``sigma2`` is finite and >= 0 (0 is
    the noiseless case)."""
    if not 0.0 <= sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")
