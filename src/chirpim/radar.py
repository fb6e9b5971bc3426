"""Range and reflection-coefficient estimation from frequency-domain returns.

The receiver knows the transmitted bins w (diagonal W) and observes
b = W T a + n, where column s of T is the delay steering vector

    c(tau_s) = e^{-j2pi f_c tau_s} [e^{-j2pi l_d tau_s/T_s}, ...,
                                    e^{-j2pi l_u tau_s/T_s}]^T.

Matched-filter estimation maximizes |Re{c(tau)^H W^H b}| over the CP span
and divides out w^H w for the coefficient. Multiple targets are handled by
successive cancellation plus re-estimation passes. An LMMSE variant first
deconvolves the waveform (h~_k = w_k^* b_k / (|w_k|^2 + sigma2)) and runs
the same delay search on the channel estimate.

The search is three-phase. The carrier phase factors out of
|c(tau)^H W^H b| as a pure rotation, so a coarse grid plus zooming on the
*envelope* localizes the delay to far below a carrier cycle; the final
phase-of-carrier stages maximize the full Re{...} metric, whose lobes
repeat every 1/(2 f_c), at a resolution fine enough that grid quantization
stays negligible against the range CRLB even at 40 dB SNR.

Every stage samples sum_k q_k e^{j2pi k tau/T_s} on a uniform grid
tau = lo + i step, which is a chirp-z transform of q. Each grid is
therefore one Bluestein FFT convolution of length about M + P, not a P x M
steering matrix; the grid points and the argmax rule are those of the
explicit evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import RadarScene
from .chirps import FdssProfile
from .util import SPEED_OF_LIGHT


@dataclass(frozen=True)
class RadarObservation:
    """Received bins b, reference bins w on bin indices k, noise variance,
    and the timing/carrier context of the frame."""

    b: np.ndarray
    w: np.ndarray
    k: np.ndarray
    sigma2: float
    f_c: float
    t_s: float
    t_cp: float

    def __post_init__(self):
        if not (len(self.b) == len(self.w) == len(self.k)):
            raise ValueError("b, w, k must be aligned")

    def steering(self, tau) -> np.ndarray:
        """c(tau); tau may be scalar or a grid (returns (..., M))."""
        tau = np.asarray(tau, dtype=float)
        return np.exp(-2j * np.pi * self.f_c * tau)[..., None] * \
            np.exp(-2j * np.pi * np.multiply.outer(tau, self.k) / self.t_s)


@dataclass(frozen=True)
class TargetEstimate:
    delay: float
    coeff: float

    @property
    def distance(self) -> float:
        return self.delay * SPEED_OF_LIGHT / 2.0


@dataclass(frozen=True)
class EstimateSet:
    """Per-target estimates sorted by delay, plus the search resolution."""

    targets: tuple[TargetEstimate, ...]
    grid_step: float
    final_step: float

    @property
    def delays(self) -> np.ndarray:
        return np.array([t.delay for t in self.targets])

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([t.coeff for t in self.targets])

    @property
    def distances(self) -> np.ndarray:
        return np.array([t.distance for t in self.targets])


@dataclass(frozen=True)
class SearchConfig:
    """Delay-search resolution knobs.

    The coarse step is 1/(2B) with B the bin-span bandwidth M/T_s. Envelope
    zoom stages shrink the step by ``env_zoom`` until it is below
    1/(env_margin * f_c); the carrier stages then sample the full metric
    across +-carrier_halfspan cycles and zoom twice more.
    """

    coarse_halfbin: float = 0.5
    env_points: int = 65
    env_margin: float = 16.0
    carrier_halfspan: float = 0.6
    carrier_points: int = 193
    carrier_zoom: int = 16
    carrier_stages: int = 2
    max_targets: int = 16
    update_passes: int = 2


def mf_objective(tau: float, obs: RadarObservation) -> tuple[float, float]:
    """Matched-filter metric |Re{c(tau)^H W^H b}| and the coefficient
    estimate Re{c(tau)^H W^H b} / (w^H w) at a single delay."""
    inner = np.sum(np.conj(obs.steering(float(tau))) * np.conj(obs.w) * obs.b)
    re = float(np.real(inner))
    return abs(re), re / float(np.real(np.vdot(obs.w, obs.w)))


def _chirp_z(x: np.ndarray, phi: float, n: int) -> np.ndarray:
    """y_i = sum_m x_m e^{j phi m i} for i = 0..n-1.

    Bluestein's identity m i = (m^2 + i^2 - (i - m)^2) / 2 turns the sum
    into a convolution with the chirp c_d = e^{j phi d^2 / 2}, done as one
    zero-padded FFT product (Rabiner, Schafer & Rader 1969).
    """
    m = len(x)
    size = 1 << (m + n - 2).bit_length()
    chirp = np.exp(0.5j * phi * np.arange(1 - m, n, dtype=float) ** 2)
    conv = np.fft.ifft(np.fft.fft(x * chirp[m - 1::-1], size) *
                       np.fft.fft(np.conj(chirp), size))
    return conv[m - 1:m + n - 1] * chirp[m - 1:]


def _grid_metric(q: np.ndarray, lo: float, step: float, n: int,
                 obs: RadarObservation, envelope: bool) -> np.ndarray:
    """|c(tau)^H q| on tau = lo + i step (i < n), or |Re{.}| when
    envelope=False.

    c(tau)^H q = e^{j2pi f_c tau} sum_k q_k e^{j2pi k tau/T_s}; the carrier
    rotation drops out of the envelope. With k = k_0 + m the sum is
    e^{j2pi k_0 tau/T_s} times a chirp-z transform over m of
    q_k e^{j2pi k lo/T_s}, so no steering matrix is built.
    """
    k0 = int(obs.k.min())
    x = np.zeros(int(obs.k.max()) - k0 + 1, dtype=complex)
    x[obs.k - k0] = q * np.exp(2j * np.pi * obs.k * lo / obs.t_s)
    inner = _chirp_z(x, 2.0 * np.pi * step / obs.t_s, n)
    if envelope:
        return np.abs(inner)
    i = np.arange(n)
    phase = obs.f_c * (lo + i * step) + k0 * i * step / obs.t_s
    return np.abs(np.real(np.exp(2j * np.pi * phase) * inner))


def _window(q: np.ndarray, lo: float, hi: float, points: int,
            obs: RadarObservation, envelope: bool) -> tuple[float, float]:
    """Grid maximizer over np.linspace(lo, hi, points), and the grid step."""
    step = (hi - lo) / (points - 1)
    metric = _grid_metric(q, lo, step, points, obs, envelope)
    return float(np.linspace(lo, hi, points)[np.argmax(metric)]), step


def _search_delay(q: np.ndarray, obs: RadarObservation,
                  search: SearchConfig) -> tuple[float, float, float]:
    """Three-phase delay search of the generic metric vector q
    (q = conj(w) * b for the MF, q = h~ for the LMMSE variant).

    Returns (tau_hat, coarse_step, final_step).
    """
    span = int(obs.k.max() - obs.k.min() + 1)
    coarse_step = search.coarse_halfbin * obs.t_s / span
    taus = np.arange(0.0, obs.t_cp, coarse_step)
    metric = _grid_metric(q, 0.0, coarse_step, len(taus), obs, envelope=True)
    best = float(taus[np.argmax(metric)])

    # envelope zoom until the step is well inside a carrier half-cycle
    step = coarse_step
    target = 1.0 / (search.env_margin * obs.f_c)
    while step > target:
        best, step = _window(q, max(best - step, 0.0), min(best + step, obs.t_cp),
                             search.env_points, obs, envelope=True)

    # full metric across the carrier lobes nearest the envelope peak
    half = search.carrier_halfspan / obs.f_c
    best, step = _window(q, max(best - half, 0.0), min(best + half, obs.t_cp),
                         search.carrier_points, obs, envelope=False)
    for _ in range(search.carrier_stages):
        best, step = _window(q, max(best - step, 0.0), min(best + step, obs.t_cp),
                             search.carrier_points, obs, envelope=False)
    return best, coarse_step, step


def _single(q: np.ndarray, obs: RadarObservation, search: SearchConfig,
            coeff_denom: float) -> tuple[TargetEstimate, float, float]:
    tau, coarse, final = _search_delay(q, obs, search)
    inner = np.sum(np.conj(obs.steering(tau)) * q)
    coeff = float(np.real(inner)) / coeff_denom
    return TargetEstimate(delay=tau, coeff=coeff), coarse, final


def estimate_single_mf(obs: RadarObservation,
                       search: SearchConfig | None = None) -> EstimateSet:
    """One-target matched-filter estimate: coarse grid over [0, T_cp),
    envelope zoom, carrier-phase refinement."""
    search = search or SearchConfig()
    w2 = float(np.real(np.vdot(obs.w, obs.w)))
    if w2 == 0:
        raise ValueError("reference bins are all zero")
    est, coarse, final = _single(np.conj(obs.w) * obs.b, obs, search, w2)
    return EstimateSet(targets=(est,), grid_step=coarse, final_step=final)


def _cancel_and_update(obs: RadarObservation, n_targets: int, search: SearchConfig,
                       estimate_one) -> EstimateSet:
    """Successive cancellation, then fixed re-estimation passes where each
    target is re-sought on the observation minus all other reconstructions."""
    if not 1 <= n_targets <= search.max_targets:
        raise ValueError(f"target count {n_targets} outside 1..{search.max_targets}")

    def reconstruct(est: TargetEstimate) -> np.ndarray:
        return est.coeff * obs.w * obs.steering(est.delay)

    residual = obs.b.copy()
    ests: list[TargetEstimate] = []
    coarse = final = 0.0
    for _ in range(n_targets):
        est, coarse, final = estimate_one(residual, search)
        ests.append(est)
        residual = residual - reconstruct(est)
    for _ in range(search.update_passes if n_targets > 1 else 0):
        for s in range(n_targets):
            others = sum((reconstruct(ests[j]) for j in range(n_targets) if j != s),
                         np.zeros_like(obs.b))
            ests[s], coarse, final = estimate_one(obs.b - others, search)
    ests.sort(key=lambda e: e.delay)
    return EstimateSet(targets=tuple(ests), grid_step=coarse, final_step=final)


def estimate_multi_mf(obs: RadarObservation, n_targets: int,
                      search: SearchConfig | None = None) -> EstimateSet:
    """Matched-filter estimation of ``n_targets`` targets via successive
    cancellation plus re-estimation passes (reduces to the single-target
    search when n_targets = 1)."""
    search = search or SearchConfig()
    w2 = float(np.real(np.vdot(obs.w, obs.w)))
    if w2 == 0:
        raise ValueError("reference bins are all zero")

    def one(b_cur, cfg):
        return _single(np.conj(obs.w) * b_cur, obs, cfg, w2)

    return _cancel_and_update(obs, n_targets, search, one)


def estimate_lmmse(obs: RadarObservation, n_targets: int = 1,
                   search: SearchConfig | None = None) -> EstimateSet:
    """Range estimation on the LMMSE channel estimate.

    Per bin h~_k = w_k^* b_k / (|w_k|^2 + sigma2); the delay search runs on
    h~ (waveform deconvolved), and the coefficient uses the matched-filter
    inner product with the regularized denominator w^H w + sigma2.
    """
    search = search or SearchConfig()
    w2 = np.abs(obs.w) ** 2
    denom_w = float(w2.sum() + obs.sigma2)
    if denom_w == 0:
        raise ValueError("reference bins are all zero and sigma2 = 0")
    per_bin = w2 + obs.sigma2

    def one(b_cur, cfg):
        h_est = np.divide(np.conj(obs.w) * b_cur, per_bin,
                          out=np.zeros_like(b_cur), where=per_bin > 0)
        tau, coarse, final = _search_delay(h_est, obs, cfg)
        inner = np.sum(np.conj(obs.steering(tau)) * np.conj(obs.w) * b_cur)
        return TargetEstimate(delay=tau, coeff=float(np.real(inner)) / denom_w), coarse, final

    return _cancel_and_update(obs, n_targets, search, one)


def _weights(w_or_fdss) -> tuple[np.ndarray, np.ndarray]:
    """(bin indices, |w_k|^2) from either raw bins + explicit k or a profile."""
    if isinstance(w_or_fdss, FdssProfile):
        return w_or_fdss.k, np.abs(w_or_fdss.g) ** 2
    k, w = w_or_fdss
    return np.asarray(k), np.abs(np.asarray(w)) ** 2


def fim(scene: RadarScene, w_or_fdss, sigma2: float) -> np.ndarray:
    """Fisher information for [tau_1..tau_R, alpha_1..alpha_R].

    Diagonal: (8 pi^2 alpha_s^2 / sigma2) sum_k |w_k|^2 (k/T_s + f_c)^2 for
    the delay block and (2 alpha_s^2 / sigma2) sum_k |w_k|^2 for the
    coefficient block; cross terms vanish. Pass an :class:`FdssProfile` to
    evaluate the expectation form (|w_k|^2 -> |g_k|^2) or ``(k, w)`` for a
    specific frame.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    k, w2 = _weights(w_or_fdss)
    alphas = np.asarray(scene.coeffs, dtype=float)
    r = len(alphas)
    freq2 = np.sum(w2 * (k / scene.t_s + scene.f_c) ** 2)
    j = np.zeros((2 * r, 2 * r))
    j[np.arange(r), np.arange(r)] = 8.0 * np.pi ** 2 * alphas ** 2 / sigma2 * freq2
    j[np.arange(r, 2 * r), np.arange(r, 2 * r)] = 2.0 * alphas ** 2 / sigma2 * np.sum(w2)
    return j


def crlb_range(scene: RadarScene, w_or_fdss, sigma2: float) -> float:
    """Lower bound on E sum_s |d_s - d_hat_s|^2 in meters^2:
    sigma2 c^2 / (32 pi^2 sum_k |w_k|^2 (k/T_s + f_c)^2) * sum_s 1/alpha_s^2."""
    k, w2 = _weights(w_or_fdss)
    freq2 = np.sum(w2 * (k / scene.t_s + scene.f_c) ** 2)
    inv_a2 = np.sum(1.0 / np.asarray(scene.coeffs, dtype=float) ** 2)
    return float(sigma2 * SPEED_OF_LIGHT ** 2 / (32.0 * np.pi ** 2 * freq2) * inv_a2)


def crlb_coeff(scene: RadarScene, w_or_fdss, sigma2: float) -> float:
    """Lower bound on E sum_s |alpha_s - alpha_hat_s|^2:
    sigma2 / (2 sum_k |w_k|^2) * sum_s 1/alpha_s^2."""
    _, w2 = _weights(w_or_fdss)
    inv_a2 = np.sum(1.0 / np.asarray(scene.coeffs, dtype=float) ** 2)
    return float(sigma2 / (2.0 * np.sum(w2)) * inv_a2)


def crlb_range_no_phase(scene: RadarScene, m: int, sigma2: float) -> float:
    """Range bound when the carrier phase is treated as unknown rather than
    range-dependent (unimodular bins):
    3 sigma2 c^2 T_s^2 / (8 pi^2 M (M^2 - 1)) * sum_s 1/alpha_s^2.

    Equals :func:`crlb_range` with f_c -> 0 and |w_k| = 1 on m symmetric
    bins, via sum k^2 = M (M^2 - 1) / 12.
    """
    inv_a2 = np.sum(1.0 / np.asarray(scene.coeffs, dtype=float) ** 2)
    return float(3.0 * sigma2 * SPEED_OF_LIGHT ** 2 * scene.t_s ** 2 /
                 (8.0 * np.pi ** 2 * m * (m ** 2 - 1)) * inv_a2)


def min_resolution(bandwidth_hz: float) -> float:
    """Two-target range resolution 0.5 c / B in meters."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return 0.5 * SPEED_OF_LIGHT / bandwidth_hz
