"""Range and reflection-coefficient estimation from frequency-domain returns.

The receiver knows the transmitted bins w (diagonal W) and observes
b = W T a + n, where column s of T is the delay steering vector

    c(tau_s) = e^{-j2pi f_c tau_s} [e^{-j2pi l_d tau_s/T_s}, ...,
                                    e^{-j2pi l_u tau_s/T_s}]^T.

Matched-filter estimation (:func:`estimate_multi_mf`, which is also the
single-target estimator) maximizes |Re{c(tau)^H W^H b}| over the CP span
and divides out w^H w for the coefficient. More than one target is handled
by successive cancellation plus re-estimation passes. An LMMSE variant
(:func:`estimate_lmmse`) first deconvolves the waveform
(h~_k = w_k^* b_k / (|w_k|^2 + sigma2)) and runs the same delay search on
the channel estimate.

The search is three-phase. The carrier phase factors out of
|c(tau)^H W^H b| as a pure rotation, so a coarse grid plus zooming on the
*envelope* localizes the delay to far below a carrier cycle; the final
phase-of-carrier stages maximize the full Re{...} metric, whose lobes
repeat every 1/(2 f_c), at a resolution fine enough that grid quantization
stays negligible against the range CRLB even at 40 dB SNR.

Every stage samples sum_k q_k e^{j2pi k tau/T_s} on a uniform grid
tau = lo + i step, a chirp-z transform of q rotated by e^{j2pi k lo/T_s}
(:func:`_bin_rotation`), so each grid is one 5-smooth Bluestein FFT
convolution (:func:`_chirp_z`), not a P x M steering matrix, with the grid
points and argmax rule of the explicit evaluation. The grid sizes are the
module constants below; each stage's chirp and kernel depend only on the
search geometry, so they are built once per process.

The search runs on stacked rows: q has shape (rows, M). Each zoom window
is centred on its row's best delay and shifted, not clamped, to lie inside
[0, T_cp], so all rows share each stage's step and chirp kernel, and a
stage is one batched FFT over the rows. An observation holds one frame
(b, w of shape (M,)) or a stack of B frames ((B, M)).
:func:`estimate_mf_lmmse` puts the MF and the LMMSE rows of a stack into
the same searches, so each cancellation step is one search call;
:func:`estimate_multi_mf` and :func:`estimate_lmmse` run the same core on
their rows alone, one frame being a batch of one. A row's estimate is
bit-for-bit the same whatever else is in its batch.

The bounds read one matrix, :func:`fim`: the Fisher information of all
delays and coefficients jointly, cross terms between targets included
(Stoica & Nehorai, IEEE TASSP 1989). :func:`crlb_range` and
:func:`crlb_coeff` are traces of blocks of its inverse.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .channel import RadarScene
from .chirps import FdssProfile
from .util import SPEED_OF_LIGHT, check_noise_variance


@dataclass(frozen=True)
class RadarObservation:
    """Received bins b, reference bins w on bin indices k, noise variance,
    and the timing/carrier context of the frame. b and w are one
    observation of shape (M,) or a stack of them of shape (B, M); k holds
    M distinct integers."""

    b: np.ndarray
    w: np.ndarray
    k: np.ndarray
    sigma2: float
    f_c: float
    t_s: float
    t_cp: float

    def __post_init__(self):
        k = np.asarray(self.k)
        object.__setattr__(self, "k", k)
        if k.ndim != 1 or not np.issubdtype(k.dtype, np.integer):
            raise ValueError("k must be a 1-D array of integer bin indices, "
                             f"got shape {k.shape} of {k.dtype}")
        if not np.all(np.diff(np.sort(k))):
            raise ValueError("k must not repeat a bin index")
        shape = np.shape(self.b)
        if shape != np.shape(self.w) or len(shape) not in (1, 2) or \
                shape[-1] != len(self.k):
            raise ValueError("b, w must be aligned with k, of shape (M,) or (B, M)")
        for name in ("f_c", "t_s", "t_cp"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        check_noise_variance(self.sigma2)

    def steering(self, tau) -> np.ndarray:
        """c(tau); tau may be scalar or a grid (returns (..., M))."""
        tau = np.asarray(tau, dtype=float)
        return np.exp(-2j * np.pi * self.f_c * tau)[..., None] * \
            np.exp(-2j * np.pi * np.multiply.outer(tau, self.k) / self.t_s)


@dataclass(frozen=True)
class EstimateSet:
    """Delays and coefficients sorted by delay, shape (R,) for one
    observation or (B, R) for a stack, plus the last search step, which is
    the same for every row."""

    delays: np.ndarray
    coeffs: np.ndarray
    final_step: float

    @property
    def distances(self) -> np.ndarray:
        return self.delays * SPEED_OF_LIGHT / 2.0


# Delay-search resolution. The coarse step is COARSE_HALFBIN / B with B the
# bin-span bandwidth M/T_s. Envelope zooms sample ENV_POINTS points across
# +-1 step until the step is below 1/(ENV_MARGIN f_c); the carrier stages
# then sample the full metric on CARRIER_POINTS points across
# +-CARRIER_HALFSPAN cycles and zoom CARRIER_STAGES more times.
COARSE_HALFBIN = 0.5
ENV_POINTS = 65
ENV_MARGIN = 16.0
CARRIER_HALFSPAN = 0.6
CARRIER_POINTS = 193
CARRIER_STAGES = 2
# Successive cancellation handles up to MAX_TARGETS targets, then runs
# UPDATE_PASSES re-estimation passes when there is more than one.
MAX_TARGETS = 16
UPDATE_PASSES = 2
# Bluestein chirps and kernels kept per process: a search geometry uses
# about six (coarse grid, envelope zooms, carrier window and zooms).
BLUESTEIN_CACHE_SIZE = 32


def mf_objective(tau: float, obs: RadarObservation) -> tuple[float, float]:
    """Matched-filter metric |Re{c(tau)^H W^H b}| and the coefficient
    estimate Re{c(tau)^H W^H b} / (w^H w) at a single delay."""
    inner = np.sum(np.conj(obs.steering(float(tau))) * np.conj(obs.w) * obs.b)
    re = float(np.real(inner))
    return abs(re), re / float(np.real(np.vdot(obs.w, obs.w)))


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, n >= 1."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


@lru_cache(maxsize=BLUESTEIN_CACHE_SIZE)
def _bluestein(m: int, phi: float, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """FFT size, chirp c_d = e^{j phi d^2 / 2} for d = 1-m..n-1 and kernel
    FFT(conj(c)) of an m-in, n-out chirp-z transform, read-only. The size
    is the smallest 5-smooth length that holds the m + n - 1 point linear
    convolution."""
    size = _smooth_length(m + n - 1)
    chirp = np.exp(0.5j * phi * np.arange(1 - m, n, dtype=float) ** 2)
    kernel = np.fft.fft(np.conj(chirp), size)
    chirp.flags.writeable = kernel.flags.writeable = False
    return size, chirp, kernel


def _chirp_z(x: np.ndarray, phi: float, n: int) -> np.ndarray:
    """y_i = sum_m x_m e^{j phi m i} for i = 0..n-1, along the last axis.

    Bluestein's identity m i = (m^2 + i^2 - (i - m)^2) / 2 turns the sum
    into a convolution with the chirp c_d = e^{j phi d^2 / 2}, done as one
    zero-padded FFT product (Bluestein 1970; Rabiner, Schafer & Rader
    1969). Its length, chirp and kernel FFT depend only on (m, phi, n), so
    :func:`_bluestein` builds them once per process for every row of x and
    every later call with the same search geometry.
    """
    m = x.shape[-1]
    size, chirp, kernel = _bluestein(m, phi, n)
    conv = np.fft.ifft(np.fft.fft(x * chirp[m - 1::-1], size) * kernel)
    return conv[..., m - 1:m + n - 1] * chirp[m - 1:]


def _bin_rotation(k: np.ndarray, lo: np.ndarray, t_s: float) -> np.ndarray:
    """e^{j2pi k lo/T_s} for the bins k, shape (M,), and lo of shape (1,) or
    (rows, 1); returns (M,) or (rows, M).

    With theta = 2pi lo/T_s and each bin offset k - k_0 = B a + b in blocks
    of B, about the square root of the bin span, the rotation is the
    product of two short per-row tables, e^{j theta (k_0 + B a)} and
    e^{j theta b}, so only about 2 sqrt(span) exps run per row.
    """
    k0 = int(k.min())
    span = int(k.max()) - k0 + 1
    block = isqrt(span - 1) + 1
    blocks = -(-span // block)
    offsets = np.concatenate((k0 + block * np.arange(blocks), np.arange(block)))
    tables = np.exp(2j * np.pi * lo / t_s * offsets)
    table = tables[..., :blocks, None] * tables[..., None, blocks:]
    return np.take(table.reshape(lo.shape[:-1] + (-1,)), k - k0, axis=-1)


def _grid_metric(q: np.ndarray, lo, step: float, n: int,
                 obs: RadarObservation, envelope: bool) -> np.ndarray:
    """|c(tau)^H q| on tau = lo + i step (i < n), or |Re{.}| when
    envelope=False, for q of shape (M,) or (rows, M) with lo a scalar or
    one per row; returns (n,) or (rows, n).

    c(tau)^H q = e^{j2pi f_c tau} sum_k q_k e^{j2pi k tau/T_s}; the carrier
    rotation drops out of the envelope. With k = k_0 + m the sum is
    e^{j2pi k_0 tau/T_s} times a chirp-z transform over m of
    q_k e^{j2pi k lo/T_s} (:func:`_bin_rotation`), so no steering matrix
    is built.
    """
    lo = np.asarray(lo)[..., None]
    k0 = int(obs.k.min())
    span = int(obs.k.max()) - k0 + 1
    x = q * _bin_rotation(obs.k, lo, obs.t_s)
    if span != len(obs.k) or np.any(np.diff(obs.k) != 1):
        spread = np.zeros(x.shape[:-1] + (span,), dtype=complex)
        spread[..., obs.k - k0] = x
        x = spread
    inner = _chirp_z(x, 2.0 * np.pi * step / obs.t_s, n)
    if envelope:
        return np.abs(inner)
    i = np.arange(n)
    phase = obs.f_c * (lo + i * step) + k0 * i * step / obs.t_s
    return np.abs(np.real(np.exp(2j * np.pi * phase) * inner))


def _window(q: np.ndarray, best: np.ndarray, half: float, points: int,
            obs: RadarObservation, envelope: bool) -> tuple[np.ndarray, float]:
    """Per-row grid maximizer over ``points`` points spanning 2 half,
    centred on the row's ``best`` and shifted to lie inside [0, T_cp];
    returns the new best delays and the grid step."""
    step = 2.0 * half / (points - 1)
    lo = np.clip(best - half, 0.0, max(obs.t_cp - 2.0 * half, 0.0))
    i = np.argmax(_grid_metric(q, lo, step, points, obs, envelope), axis=-1)
    return lo + i * step, step


def _search_delay(q: np.ndarray, obs: RadarObservation) -> tuple[np.ndarray, float]:
    """Three-phase delay search of the metric rows q, shape (rows, M)
    (q = conj(w) * b for the MF, q = h~ for the LMMSE variant). Returns
    tau_hat, one per row, and the final step, which every row shares."""
    span = int(obs.k.max() - obs.k.min() + 1)
    step = COARSE_HALFBIN * obs.t_s / span
    metric = _grid_metric(q, 0.0, step, int(np.ceil(obs.t_cp / step)), obs, envelope=True)
    best = np.argmax(metric, axis=-1) * step
    # envelope zoom until the step is well inside a carrier half-cycle
    while step > 1.0 / (ENV_MARGIN * obs.f_c):
        best, step = _window(q, best, step, ENV_POINTS, obs, envelope=True)
    # full metric across the carrier lobes nearest the envelope peak
    best, step = _window(q, best, CARRIER_HALFSPAN / obs.f_c, CARRIER_POINTS, obs,
                         envelope=False)
    for _ in range(CARRIER_STAGES):
        best, step = _window(q, best, step, CARRIER_POINTS, obs, envelope=False)
    return best, step


def _estimate_rows(obs: RadarObservation, n_targets: int, mf: bool,
                   lmmse: bool) -> list[EstimateSet]:
    """The estimator core: one MF row (when ``mf``) and one LMMSE row (when
    ``lmmse``) per observation row, all in the same searches.

    Successive cancellation, then UPDATE_PASSES re-estimation passes where
    each target is re-sought on the observation minus all other
    reconstructions. Each estimator keeps its own residuals, q and
    coefficient formula, in the single-observation float operation order:
    MF q = conj(w) * b_cur and coefficient Re{c^H q} / (w^H w); LMMSE
    q = h~ and coefficient Re{c^H W^H b_cur} / (w^H w + sigma2). Returns
    the (B, R) EstimateSet of each estimator asked for, MF first.
    """
    if not 1 <= n_targets <= MAX_TARGETS:
        raise ValueError(f"target count {n_targets} outside 1..{MAX_TARGETS}")
    b, w = np.atleast_2d(obs.b), np.atleast_2d(obs.w)
    w2 = np.abs(w) ** 2
    per_bin = w2 + obs.sigma2
    denoms = []
    if mf:
        denoms += [float(np.real(np.vdot(row, row))) for row in w]
        if 0 in denoms:
            raise ValueError("reference bins are all zero")
    if lmmse:
        lm_denoms = [float(row.sum() + obs.sigma2) for row in w2]
        if 0 in lm_denoms:
            raise ValueError("reference bins are all zero and sigma2 = 0")
        denoms += lm_denoms
    denom = np.array(denoms)
    b_all, w_all = (np.tile(x, (mf + lmmse, 1)) for x in (b, w))
    rows = len(b_all)
    mf_rows = slice(0, len(b) * mf)  # the MF rows come first
    lm_rows = slice(mf_rows.stop, rows)
    delays = np.zeros((rows, n_targets))
    coeffs = np.zeros((rows, n_targets))
    recon = np.zeros((n_targets, rows, b.shape[-1]), dtype=complex)

    def one(s: int, b_cur: np.ndarray) -> float:
        q = np.conj(w_all) * b_cur
        if lmmse:
            q[lm_rows] = np.divide(q[lm_rows], per_bin, out=np.zeros_like(per_bin, complex),
                                   where=per_bin > 0)
        tau, final = _search_delay(q, obs)
        steer = obs.steering(tau)
        inner = np.empty(rows, dtype=complex)
        inner[mf_rows] = np.sum(np.conj(steer[mf_rows]) * q[mf_rows], axis=-1)
        inner[lm_rows] = np.sum(np.conj(steer[lm_rows]) * np.conj(w_all[lm_rows])
                                * b_cur[lm_rows], axis=-1)
        delays[:, s] = tau
        coeffs[:, s] = np.real(inner) / denom
        recon[s] = coeffs[:, s, None] * w_all * steer
        return final

    residual = b_all
    for s in range(n_targets):
        final = one(s, residual)
        residual = residual - recon[s]
    for _ in range(UPDATE_PASSES if n_targets > 1 else 0):
        for s in range(n_targets):
            others = sum((recon[j] for j in range(n_targets) if j != s), np.zeros_like(b_all))
            final = one(s, b_all - others)
    order = np.argsort(delays, axis=-1, kind="stable")
    delays = np.take_along_axis(delays, order, axis=-1)
    coeffs = np.take_along_axis(coeffs, order, axis=-1)
    return [EstimateSet(delays[part], coeffs[part], final)
            for part in (mf_rows, lm_rows) if part.stop > part.start]


def _shaped(est: EstimateSet, obs: RadarObservation) -> EstimateSet:
    """``est`` as computed for stacked rows, or its row 0 as a single
    observation's EstimateSet when obs.b is one observation."""
    if np.ndim(obs.b) == 2:
        return est
    return EstimateSet(est.delays[0], est.coeffs[0], est.final_step)


def estimate_mf_lmmse(obs: RadarObservation,
                      n_targets: int) -> tuple[EstimateSet, EstimateSet]:
    """:func:`estimate_multi_mf` and :func:`estimate_lmmse` of the same
    observations in one pass: the MF and the LMMSE rows share each delay
    search, and every row equals what the two calls return for it."""
    mf, lm = _estimate_rows(obs, n_targets, mf=True, lmmse=True)
    return _shaped(mf, obs), _shaped(lm, obs)


def estimate_multi_mf(obs: RadarObservation, n_targets: int) -> EstimateSet:
    """Matched-filter estimation of ``n_targets`` targets: the delay search
    on q = conj(w) * b, the coefficient Re{c(tau)^H q} / (w^H w), successive
    cancellation plus re-estimation passes when n_targets > 1. One
    observation gives (R,) delays; stacked observations (B, M) give (B, R)."""
    return _shaped(_estimate_rows(obs, n_targets, mf=True, lmmse=False)[0], obs)


def estimate_lmmse(obs: RadarObservation, n_targets: int = 1) -> EstimateSet:
    """Range estimation on the LMMSE channel estimate.

    Per bin h~_k = w_k^* b_k / (|w_k|^2 + sigma2); the delay search runs on
    h~ (waveform deconvolved), and the coefficient uses the matched-filter
    inner product with the regularized denominator w^H w + sigma2. Shapes
    as for :func:`estimate_multi_mf`.
    """
    return _shaped(_estimate_rows(obs, n_targets, mf=False, lmmse=True)[0], obs)


def fim(scene: RadarScene, w_or_fdss, sigma2: float) -> np.ndarray:
    """Fisher information J of [tau_1..tau_R, alpha_1..alpha_R] for the mean
    w_k sum_s alpha_s e^{-j2pi nu_k tau_s}, nu_k = f_c + k/T_s. From the sums
    s_n(dt) = sum_k |w_k|^2 nu_k^n e^{j2pi nu_k dt} at dt = tau_s - tau_t:
    J_tau,tau = (8 pi^2/sigma2) alpha_s alpha_t Re s_2, J_tau,alpha =
    J_alpha,tau^T = -(4 pi/sigma2) alpha_s Im s_1 and J_alpha,alpha =
    (2/sigma2) Re s_0. ``w_or_fdss`` is ``(k, w)`` for one frame or an
    :class:`FdssProfile` for the expectation form (|w_k|^2 -> |g_k|^2)."""
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")
    k, w = (w_or_fdss.k, w_or_fdss.g) if isinstance(w_or_fdss, FdssProfile) else w_or_fdss
    nu = scene.f_c + np.asarray(k) / scene.t_s
    w2 = np.abs(np.asarray(w)) ** 2
    tau, alpha = np.asarray(scene.delays), np.asarray(scene.coeffs, dtype=float)
    r = len(tau)
    phase = 2.0 * np.pi * np.subtract.outer(tau, tau)[..., None] * nu
    cos = np.cos(phase)  # Re s_n = cos @ (|w|^2 nu^n), Im s_n = sin @ (|w|^2 nu^n)
    j = np.empty((2 * r, 2 * r))
    j[:r, :r] = alpha[:, None] * alpha * (8.0 * np.pi ** 2 * (cos @ (w2 * nu * nu)))
    j[:r, r:] = -4.0 * np.pi * alpha[:, None] * (np.sin(phase) @ (w2 * nu))
    j[r:, :r] = j[:r, r:].T
    j[r:, r:] = 2.0 * (cos @ w2)
    return j / sigma2


def _fim_inverse(scene: RadarScene, w_or_fdss, sigma2: float) -> np.ndarray:
    """J^{-1}; targets at one distance make J singular and are refused."""
    d = scene.distances
    for s in range(len(d) - 1):
        if d[s] == d[s + 1]:
            raise ValueError(f"targets {s} and {s + 1} coincide at {d[s]} m: "
                             "the Fisher information is singular")
    return np.linalg.inv(fim(scene, w_or_fdss, sigma2))


def crlb_range(scene: RadarScene, w_or_fdss, sigma2: float) -> float:
    """Lower bound on E sum_s |d_s - d_hat_s|^2 in meters^2: c^2/4 times the
    trace of the tau block of J^{-1} (:func:`fim`)."""
    r = scene.n_targets
    inverse = _fim_inverse(scene, w_or_fdss, sigma2)
    return float(SPEED_OF_LIGHT ** 2 / 4.0 * inverse[:r, :r].trace())


def crlb_coeff(scene: RadarScene, w_or_fdss, sigma2: float) -> float:
    """Lower bound on E sum_s |alpha_s - alpha_hat_s|^2: the trace of the
    alpha block of J^{-1}; sigma2 / (2 sum_k |w_k|^2) for one target."""
    r = scene.n_targets
    return float(_fim_inverse(scene, w_or_fdss, sigma2)[r:, r:].trace())


def crlb_range_no_phase(scene: RadarScene, m: int, sigma2: float) -> float:
    """Range bound when the carrier phase is treated as unknown rather than
    range-dependent (unimodular bins), without cross terms between targets:
    3 sigma2 c^2 T_s^2 / (8 pi^2 M (M^2 - 1)) * sum_s 1/alpha_s^2. For one
    target, :func:`crlb_range` with f_c -> 0 and |w_k| = 1 on m symmetric
    bins, via sum k^2 = M (M^2 - 1) / 12."""
    inv_a2 = np.sum(1.0 / np.asarray(scene.coeffs, dtype=float) ** 2)
    return float(3.0 * sigma2 * SPEED_OF_LIGHT ** 2 * scene.t_s ** 2 /
                 (8.0 * np.pi ** 2 * m * (m ** 2 - 1)) * inv_a2)


def min_resolution(bandwidth_hz: float) -> float:
    """Two-target range resolution 0.5 c / B in meters."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return 0.5 * SPEED_OF_LIGHT / bandwidth_hz
