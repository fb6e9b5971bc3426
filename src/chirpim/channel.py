"""Channel models: monostatic radar CFR, Rician multipath, AWGN.

The radar return is modeled directly in the frequency domain: each target
at distance d contributes a real reflection coefficient, a carrier phase
e^{-j2pi f_c tau} tied to its round-trip delay tau = 2d/c, and a per-bin
phase ramp e^{-j2pi k tau/T_s}. Path delays must stay inside the cyclic
prefix, which caps the unambiguous range at c*T_cp/2.

The communication link fades through Rician multipath taps. One call of
:func:`rician_realize` draws a whole batch of realizations, and
:meth:`CommChannel.cfr` renders them on the bins as one (B, M) response;
a single realization is a batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import SPEED_OF_LIGHT, check_noise_variance


@dataclass(frozen=True)
class RadarScene:
    """Targets as (distance_m, reflection_coeff) sorted by distance."""

    targets: tuple[tuple[float, float], ...]
    f_c: float
    t_s: float
    t_cp: float

    def __post_init__(self):
        if not self.targets:
            raise ValueError("scene needs at least one target")
        dists = [d for d, _ in self.targets]
        if not all(0 < d < np.inf for d in dists):
            raise ValueError(f"target distances must be finite and positive, got {dists}")
        if sorted(dists) != dists:
            raise ValueError("targets must be sorted by distance")
        if not all(np.isfinite(a) and a != 0 for _, a in self.targets):
            raise ValueError("reflection coefficients must be finite and nonzero, "
                             f"got {list(self.coeffs)}")
        if max(self.delays) > self.t_cp:
            raise ValueError(
                f"round-trip delay {max(self.delays):.3e}s exceeds the CP {self.t_cp:.3e}s "
                f"(unambiguous range {self.max_range:.3f} m)")

    @property
    def delays(self) -> tuple[float, ...]:
        return tuple(2.0 * d / SPEED_OF_LIGHT for d, _ in self.targets)

    @property
    def coeffs(self) -> tuple[float, ...]:
        return tuple(a for _, a in self.targets)

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(d for d, _ in self.targets)

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def max_range(self) -> float:
        return SPEED_OF_LIGHT * self.t_cp / 2.0


def radar_cfr(scene: RadarScene, k: np.ndarray) -> np.ndarray:
    """Frequency response on bins ``k``:
    H_k = sum_s alpha_s e^{-j2pi f_c tau_s} e^{-j2pi k tau_s / T_s}."""
    k = np.asarray(k)
    h = np.zeros(k.shape, dtype=complex)
    for tau, alpha in zip(scene.delays, scene.coeffs):
        h += alpha * np.exp(-2j * np.pi * scene.f_c * tau) * \
            np.exp(-2j * np.pi * k * tau / scene.t_s)
    return h


@dataclass(frozen=True, eq=False)
class CommChannel:
    """Realized multipath taps: complex gains at (possibly fractional) delays.

    ``gains`` has shape (T,) for one realization or (B, T) for a batch of B,
    one column per tap of ``delays``.
    """

    delays: tuple[float, ...]
    gains: np.ndarray

    def cfr(self, k: np.ndarray, t_s: float) -> np.ndarray:
        """CFR on bins ``k``: taps rendered exactly in frequency,
        H_k = sum_t g_t e^{-j2pi k tau_t / t_s}, of shape k.shape for one
        realization or (B,) + k.shape for a batch. Each tap's phase ramp is
        computed once for the whole batch; taps are added in delay order."""
        k = np.asarray(k)
        gains = np.asarray(self.gains)
        h = np.zeros(gains.shape[:-1] + k.shape, dtype=complex)
        for tau, g in zip(self.delays, np.moveaxis(gains, -1, 0)):
            h += g.reshape(g.shape + (1,) * k.ndim) * np.exp(-2j * np.pi * k * tau / t_s)
        return h


def rician_realize(pdp, rng: np.random.Generator, *,
                   batch: int | None = None) -> CommChannel:
    """Draw one channel realization, or ``batch`` of them, from a
    power-delay profile.

    ``pdp`` lists taps as (delay_seconds, mean_power_db, rician_k). Mean
    linear powers are normalized to sum to 1. Each tap is
    sqrt(P) * (sqrt(K/(K+1)) e^{j theta} + sqrt(1/(K+1)) CN(0,1)); K = 0 is
    Rayleigh, and the LOS phase theta is uniform on [0, 2pi).

    The stream is read per realization, per tap: theta, then the real and
    imaginary normals. So a batch of B consumes exactly what B single calls
    would and equals them bit for bit; a single call is a batch of one
    whose gains have shape (T,) instead of (1, T).
    """
    pdp = tuple((float(d), float(p), float(kf)) for d, p, kf in pdp)
    if any(kf < 0 for _, _, kf in pdp):
        raise ValueError("Rician K factors must be >= 0")
    powers = np.array([10.0 ** (p / 10.0) for _, p, _ in pdp])
    powers = powers / powers.sum()
    kf = np.array([kf for _, _, kf in pdp])
    rows, taps = 1 if batch is None else batch, len(pdp)
    uniform, normal = rng.uniform, rng.standard_normal
    draws = np.array([(uniform(0, 2 * np.pi), normal(), normal())
                      for _ in range(rows * taps)]).reshape(rows, taps, 3)
    theta, re, im = draws[..., 0], draws[..., 1], draws[..., 2]
    los = np.sqrt(kf / (kf + 1.0)) * np.exp(1j * theta)
    scatter = np.sqrt(1.0 / (kf + 1.0)) * (re + 1j * im) / np.sqrt(2.0)
    gains = np.sqrt(powers) * (los + scatter)
    return CommChannel(delays=tuple(d for d, _, _ in pdp),
                       gains=gains if batch is not None else gains[0])


def complex_noise(shape, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian noise of variance ``sigma2`` per entry.

    Every real part is drawn, then every imaginary part, and each is scaled
    by sqrt(sigma2/2); the parts are written in place, so no complex
    temporaries are made.
    """
    scale = np.sqrt(sigma2 / 2.0)
    noise = np.empty(shape, dtype=complex)
    noise.real = rng.standard_normal(shape) * scale
    noise.imag = rng.standard_normal(shape) * scale
    return noise


def add_awgn(x: np.ndarray, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular complex Gaussian noise of variance ``sigma2`` per sample."""
    check_noise_variance(sigma2)
    x = np.asarray(x, dtype=complex)
    if sigma2 == 0:
        return x.copy()
    return x + complex_noise(x.shape, sigma2, rng)
