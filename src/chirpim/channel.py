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


@dataclass(frozen=True, eq=False)
class RadarScene:
    """Targets as (distance_m, reflection_coeff) rows sorted by distance,
    shape (R, 2) for one scene or (B, R, 2) for a stack of B scenes with one
    target count: a read-only float copy. A refusal names a stack's row."""

    targets: np.ndarray
    f_c: float
    t_s: float
    t_cp: float

    def __post_init__(self):
        try:
            targets = np.array(self.targets, dtype=float)
        except ValueError as exc:  # ragged
            raise ValueError("targets must be rows of two values, as many rows in every scene "
                             f"of a stack: {exc}") from None
        if targets.ndim not in (2, 3) or targets.shape[-1] != 2 or targets.size == 0:
            raise ValueError("targets must have shape (R, 2) for one scene or (B, R, 2) for a "
                             f"stack, with R and B at least 1, got shape {targets.shape}")
        targets.flags.writeable = False
        object.__setattr__(self, "targets", targets)
        d, a = self.distances, self.coeffs
        ok = (0 < d) & (d < np.inf) & np.isfinite(a) & (a != 0) & (self.delays <= self.t_cp)
        if ok.all() and not (d[..., 1:] < d[..., :-1]).any():
            return  # every rule holds; the loop below names the first that fails
        for bad, rule in (
                (~((0 < d) & (d < np.inf)), "target distances must be finite and positive"),
                (d[..., 1:] < d[..., :-1], "targets must be sorted by distance"),
                (~(np.isfinite(a) & (a != 0)), "reflection coefficients must be finite and "
                 "nonzero"),
                (self.delays > self.t_cp, f"round-trip delays must stay within the CP "
                 f"{self.t_cp:.3e}s (unambiguous range {self.max_range:.3f} m)")):
            if bad.any():
                where = tuple(np.argwhere(bad)[0][:-1])  # the scene's row of a stack
                row = f" (row {where[0]})" if where else ""
                raise ValueError(f"{rule}, got {targets[where].tolist()}{row}")

    @property
    def delays(self) -> np.ndarray:
        return 2.0 * self.distances / SPEED_OF_LIGHT

    @property
    def coeffs(self) -> np.ndarray:
        return self.targets[..., 1]

    @property
    def distances(self) -> np.ndarray:
        return self.targets[..., 0]

    @property
    def n_targets(self) -> int:
        return self.targets.shape[-2]

    @property
    def max_range(self) -> float:
        return SPEED_OF_LIGHT * self.t_cp / 2.0


def radar_cfr(scene: RadarScene, k: np.ndarray) -> np.ndarray:
    """Frequency response on bins ``k``:
    H_k = sum_s alpha_s e^{-j2pi f_c tau_s} e^{-j2pi k tau_s / T_s}, shape
    (M,) for one scene or (B, M) for a stack, one target at a time."""
    k = np.asarray(k)
    tau, alpha = scene.delays[..., None], scene.coeffs[..., None]  # (.., R, 1)
    h = np.zeros(tau.shape[:-2] + k.shape, dtype=complex)
    for s in range(scene.n_targets):
        h += alpha[..., s, :] * np.exp(-2j * np.pi * scene.f_c * tau[..., s, :]) * \
            np.exp(-2j * np.pi * k * tau[..., s, :] / scene.t_s)
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
        computed once for the whole batch; taps are added in the order of
        ``delays``. A tap at delay 0 (the LOS tap of every preset) adds its
        gain alone: its ramp is e^0 = 1 exactly, and a finite gain times
        1 + 0j is the gain itself."""
        k = np.asarray(k)
        gains = np.asarray(self.gains)
        h = np.zeros(gains.shape[:-1] + k.shape, dtype=complex)
        for tau, g in zip(self.delays, np.moveaxis(gains, -1, 0)):
            g = g.reshape(g.shape + (1,) * k.ndim)
            h += g if tau == 0 else g * np.exp(-2j * np.pi * k * tau / t_s)
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
