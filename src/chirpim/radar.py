"""Range and reflection-coefficient estimation from frequency-domain returns.

The receiver knows the transmitted bins w (diagonal W) on the M bins
l_d..l_u of :func:`chirpim.util.default_band`, worked out from M, and
observes b = W T a + n, where column s of T is the delay steering vector

    c(tau_s) = e^{-j2pi f_c tau_s} [e^{-j2pi l_d tau_s/T_s}, ...,
                                    e^{-j2pi l_u tau_s/T_s}]^T.

Matched-filter estimation maximizes |Re{c(tau)^H W^H b}| over the CP span
and divides out w^H w for the coefficient. More than one target is handled
by successive cancellation plus re-estimation passes, then a joint check
of the carrier lobes (:func:`_lobe_check`): re-estimating one target at a
time can settle with the delays one lobe off, often in opposite
directions (RELAX; Li & Stoica, IEEE TSP 1996), so shifts of all delays
together are scored by their joint least-squares fit. The LMMSE variant
first deconvolves the waveform (h~_k = w_k^* b_k / (|w_k|^2 + sigma2)) and
runs the same delay search on the channel estimate. One core,
:func:`estimate_mf_lmmse`, returns both; :func:`estimate_multi_mf` and
:func:`estimate_lmmse` are its two halves.

The search has two parts. The carrier phase factors out of
|c(tau)^H W^H b|, so a coarse grid plus zooms on this *envelope* localize
the delay to far below a carrier cycle. Each grid is one 5-smooth
Bluestein FFT convolution (:func:`_chirp_z`), with the points and argmax
rule of the explicit evaluation. The full metric Re{...} has lobes every
1/(2 f_c): the carrier phase at the envelope peak places them, one Newton
step from each candidate picks one (:func:`_lobe_moments`), and
NEWTON_STEPS refine it. Everything the search reads of the bins
k_0..k_0+M-1 and of f_c, T_s and T_cp is one read-only plan, keyed on M,
f_c, T_s and T_cp, built on first use and kept per process
(:func:`_plan`, PLAN_CACHE_SIZE of them): the exponents
of the bin rotation, the (M, 9) moment table (the rotations of the three
lobe candidates' offsets times the powers 0, 1, 2 of the bin frequencies
k/T_s, so each Newton step's sums are one matrix product) and the stages,
the coarse grid and each envelope zoom with its step, point count, FFT
size, chirp and kernel. At paper scale a plan's arrays hold 398 KB
(``nbytes``), 221 KB of them the moment table. Rotations by exactly 1 (a
grid at lo = 0, a Newton step at offset 0) are skipped, which changes no
bit. No c(tau) is built one exp per bin: its conjugate is the plan's bin
rotation times one carrier exp per delay (:func:`_rotation`, about
2 sqrt(M) exps per delay), which the lobe moments, the lobe check and each
target's coefficient and reconstruction read.

The search runs on stacked rows: q has shape (rows, M). Each window is
shifted, not clamped, to lie inside [0, T_cp], so all rows share each
stage's step and kernel. An observation holds one frame (b, w of shape
(M,)) or a stack of B frames ((B, M)). :func:`estimate_mf_lmmse` puts the
MF and the LMMSE rows of a stack into the same searches, and a row's
estimate is bit-for-bit the same whatever else is in its batch.

The bounds read one matrix, :func:`fim`: the Fisher information of all
delays and coefficients jointly, cross terms between targets included
(Stoica & Nehorai, IEEE TASSP 1989). :func:`crlb_range` and
:func:`crlb_coeff` are traces of blocks of its inverse. Like the
observations, the bounds take one scene or a stack: a
:class:`~chirpim.channel.RadarScene` of B scenes with one target count,
with reference bins w of shape (M,) or (B, M), gives B matrices and one
inverse of the (B, 2R, 2R) stack, and each row equals its single-scene
call bit for bit. The closed-form phase-unaware bound,
:func:`crlb_range_no_phase`, takes the same stacks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

import numpy as np

from .channel import RadarScene
from .util import SPEED_OF_LIGHT, band, check_noise_variance, default_band


@dataclass(frozen=True)
class RadarObservation:
    """Received bins b and reference bins w on the M bins of
    ``default_band(M)``, noise variance, and the timing/carrier context of
    the frame. b and w are one observation of shape (M,) or a stack of them
    of shape (B, M), M >= 2."""

    b: np.ndarray
    w: np.ndarray
    sigma2: float
    f_c: float
    t_s: float
    t_cp: float

    def __post_init__(self):
        shape = np.shape(self.b)
        if shape != np.shape(self.w) or len(shape) not in (1, 2):
            raise ValueError("b, w must be aligned, of shape (M,) or (B, M)")
        default_band(shape[-1])  # refuses M < 2, naming M
        for name in ("f_c", "t_s", "t_cp"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        check_noise_variance(self.sigma2)

    @property
    def k(self) -> np.ndarray:
        """The bin indices l_d..l_u of ``default_band(M)``."""
        return band(np.shape(self.b)[-1])


@dataclass(frozen=True)
class EstimateSet:
    """Delays and coefficients sorted by delay, shape (R,) for one
    observation or (B, R) for a stack, plus the last envelope step of the
    delay search, which is the same for every row."""

    delays: np.ndarray
    coeffs: np.ndarray
    final_step: float

    @property
    def distances(self) -> np.ndarray:
        return self.delays * SPEED_OF_LIGHT / 2.0


# Delay-search resolution. The coarse step is COARSE_HALFBIN / B with B the
# bin-span bandwidth M/T_s. Envelope zooms sample ENV_POINTS points across
# +-1 step until the step is below 1/(ENV_MARGIN f_c); the best carrier lobe
# within +-CARRIER_HALFSPAN cycles then takes NEWTON_STEPS more Newton steps.
COARSE_HALFBIN = 0.5
ENV_POINTS = 65
ENV_MARGIN = 16.0
CARRIER_HALFSPAN = 0.6
NEWTON_STEPS = 1
# Successive cancellation handles up to MAX_TARGETS targets, then runs
# UPDATE_PASSES re-estimation passes when there is more than one.
MAX_TARGETS = 16
UPDATE_PASSES = 2
# Search plans (M, f_c, T_s, T_cp) kept per process: a run searches
# one. At paper scale (M = 1536) a plan's arrays hold 398 KB (nbytes): the
# (M, 9) complex moment table (221 KB) and three stages' chirps and kernels.
PLAN_CACHE_SIZE = 8


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


class _Stage(NamedTuple):
    """One envelope grid of the search, read-only: ``n`` delays ``step``
    apart, an M-in, n-out chirp-z transform (:func:`_chirp_z`) of FFT
    length ``size`` with its ``chirp`` and ``kernel``."""

    step: float
    n: int
    size: int
    chirp: np.ndarray
    kernel: np.ndarray


def _stage(m: int, step: float, n: int, t_s: float) -> _Stage:
    """The grid of ``n`` delays ``step`` apart on M bins at symbol time T_s:
    with phi = 2pi step/T_s, the chirp c_d = e^{j phi d^2 / 2} for
    d = 1-M..n-1, the kernel FFT(conj(c)) and the smallest 5-smooth FFT
    size that holds the M + n - 1 point linear convolution."""
    size = _smooth_length(m + n - 1)
    phi = 2.0 * np.pi * step / t_s
    chirp = np.exp(0.5j * phi * np.arange(1 - m, n, dtype=float) ** 2)
    kernel = np.fft.fft(np.conj(chirp), size)
    chirp.flags.writeable = kernel.flags.writeable = False
    return _Stage(step, n, size, chirp, kernel)


def _chirp_z(x: np.ndarray, stage: _Stage) -> np.ndarray:
    """y_i = sum_m x_m e^{j phi m i} for the stage's phi and i = 0..n-1,
    along the last axis. Bluestein's identity m i = (m^2 + i^2 - (i - m)^2)
    / 2 turns the sum into a convolution with the stage's chirp, one
    zero-padded FFT product (Bluestein 1970; Rabiner, Schafer & Rader 1969)."""
    m = x.shape[-1]
    conv = np.fft.ifft(np.fft.fft(x * stage.chirp[m - 1::-1], stage.size) * stage.kernel)
    return conv[..., m - 1:m + stage.n - 1] * stage.chirp[m - 1:]


class _Plan(NamedTuple):
    """The search plan of one band, read-only. :func:`_bin_rotation` reads
    ``blocks`` and ``exponents`` (the block starts k_0 + B a, a < blocks,
    then 0..B-1), :func:`_lobe_moments` the ``moments`` table, shape
    (M, 9), whose column 3j + n holds e^{j2pi nu_k o_j} (k/T_s)^n for the
    lobe offsets o_j = j/(2 f_c), j = 0, 1, 2 (``lobe_offsets``), and
    :func:`_search_delay` the ``stages``. The rotation of o_0 = 0 is exactly
    1, so columns 0..2 are the bin frequencies' powers alone."""

    k0: int
    m: int
    f_c: float
    t_s: float
    t_cp: float
    blocks: int
    exponents: np.ndarray
    lobe_offsets: np.ndarray
    moments: np.ndarray | None = None
    stages: tuple[_Stage, ...] = ()


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(m: int, f_c: float, t_s: float, t_cp: float) -> _Plan:
    """The plan of the M bins k_0..k_0+M-1 of ``default_band(M)``, carrier
    f_c, symbol time T_s and cyclic prefix T_cp. Its stages are the coarse
    grid over [0, T_cp], then zooms of ENV_POINTS points across +-1 step of
    the grid before, down to a step below 1/(ENV_MARGIN f_c)."""
    k0 = default_band(m)[0]
    block = isqrt(m - 1) + 1
    blocks = -(-m // block)
    offsets = 0.5 / f_c * np.arange(3)
    plan = _Plan(k0=k0, m=m, f_c=f_c, t_s=t_s, t_cp=t_cp, blocks=blocks,
                 exponents=np.concatenate((k0 + block * np.arange(blocks), np.arange(block))),
                 lobe_offsets=offsets)
    stages, step = [], COARSE_HALFBIN * t_s / m
    n = int(np.ceil(t_cp / step))
    while True:
        stages.append(_stage(m, step, n, t_s))
        if step <= 1.0 / (ENV_MARGIN * f_c):
            break
        step, n = 2.0 * step / (ENV_POINTS - 1), ENV_POINTS
    lobes = _rotation(plan, offsets)
    freqs = np.arange(k0, k0 + m) / t_s
    moments = lobes.T[:, :, None] * freqs[:, None, None] ** np.arange(3)
    plan = plan._replace(moments=moments.reshape(m, 9), stages=tuple(stages))
    for value in plan:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plan


def _bin_rotation(plan: _Plan, lo: np.ndarray) -> np.ndarray:
    """e^{j2pi k lo/T_s} for the plan's bins k, shape (M,), and lo of shape
    (1,) or (rows, 1); returns (M,) or (rows, M). With theta = 2pi lo/T_s
    and each bin offset k - k_0 = B a + b in blocks of B ~ sqrt(M), it is
    the product of two short per-row tables, e^{j theta (k_0 + B a)} and
    e^{j theta b}, so only about 2 sqrt(M) exps run per row."""
    tables = np.exp(2j * np.pi * lo / plan.t_s * plan.exponents)
    table = tables[..., :plan.blocks, None] * tables[..., None, plan.blocks:]
    return table.reshape(lo.shape[:-1] + (-1,))[..., :plan.m]


def _rotation(plan: _Plan, tau: np.ndarray) -> np.ndarray:
    """e^{j2pi nu_k tau}, nu_k = f_c + k/T_s, the conjugate of c(tau), for
    delays tau of any shape; returns tau.shape + (M,). It is
    :func:`_bin_rotation` times one carrier exp per delay: about 2 sqrt(M)
    exps per delay, not M."""
    x = _bin_rotation(plan, tau[..., None])
    x *= np.exp(2j * np.pi * plan.f_c * tau)[..., None]
    return x


def _grid_metric(q: np.ndarray, lo, stage: _Stage, plan: _Plan) -> np.ndarray:
    """The sums g_i with c(tau)^H q = e^{j2pi (f_c tau + k_0 i step/T_s)} g_i
    on the stage's delays tau = lo + i step (i < n), so |g| is the envelope
    |c(tau)^H q|; q has shape (M,) or (rows, M), lo is a scalar or one per
    row, and g has shape (n,) or (rows, n). g is a chirp-z transform over
    k - k_0 of q_k e^{j2pi k lo/T_s} (:func:`_bin_rotation`; 1 where lo is
    0 on every row, as on the coarse grid): no steering matrix."""
    lo = np.asarray(lo)[..., None]
    return _chirp_z(q * _bin_rotation(plan, lo) if lo.any() else q, stage)


def _lobe_moments(q: np.ndarray, tau: np.ndarray, offsets: np.ndarray,
                  plan: _Plan) -> np.ndarray:
    """s_n = sum_k q_k (k/T_s)^n e^{j2pi nu_k t}, nu_k = f_c + k/T_s, for
    n = 0, 1, 2 at t = tau + offsets, with q of shape (rows, M), tau (rows,)
    and offsets (J,) either the plan's ``lobe_offsets`` or zeros(1);
    returns (3, rows, J). s_0 is c(t)^H q. The bin phases are a per-row
    rotation (:func:`_rotation`), and the sums are one product of the
    rotated rows with the plan's ``moments`` (its first three columns for
    zero offsets, which rotate nothing)."""
    x = _rotation(plan, tau)
    np.multiply(q, x, out=x)  # q first: swapped operands may round differently
    table = plan.moments if offsets.any() else plan.moments[:, :3]
    return np.moveaxis((x @ table).reshape(len(x), -1, 3), -1, 0)


def _newton(q: np.ndarray, tau: np.ndarray, offsets: np.ndarray,
            plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step from t = tau + offsets toward the nearest extremum of
    Re z, z = c(t)^H q, and the Re z it predicts there, shapes (rows, J).
    With u_n = sum_k q_k nu_k^n e^{j2pi nu_k t} from :func:`_lobe_moments`,
    (Re z)' = -2pi Im u_1 and (Re z)'' = -4pi^2 Re u_2."""
    s0, s1, s2 = _lobe_moments(q, tau, offsets, plan)
    u1 = plan.f_c * s0 + s1
    u2 = (plan.f_c * (plan.f_c * s0 + 2.0 * s1) + s2).real
    u2 = np.where(u2 != 0, u2, np.inf)  # q = 0: no step
    # (Im u_1)^2 / u_2 as a product: the square overflows near sigma2 = 1e290
    return -u1.imag / (2.0 * np.pi * u2), s0.real + u1.imag * (0.5 * u1.imag / u2)


def _search_delay(q: np.ndarray, plan: _Plan) -> np.ndarray:
    """Delay search of the metric rows q, shape (rows, M) (q = conj(w) * b
    for the MF, q = h~ for the LMMSE variant): tau_hat, one per row."""
    rows, best = np.arange(len(q)), None
    # the coarse grid from 0, then envelope zooms, each across +-1 old step
    # shifted inside [0, T_cp]
    for stage in plan.stages:
        lo = 0.0 if best is None else np.clip(best - half, 0.0, max(plan.t_cp - 2.0 * half, 0.0))
        inner = _grid_metric(q, lo, stage, plan)
        i = np.argmax(np.abs(inner), axis=-1)
        best, half = lo + i * stage.step, stage.step
    # lobe candidates tau_e - theta/(2pi f_c) + j/(2 f_c) in the window, where
    # theta = arg c(tau_e)^H q = 2pi (f_c tau_e + k_0 i step/T_s) + arg g_i
    half, lobe = CARRIER_HALFSPAN / plan.f_c, 0.5 / plan.f_c
    lo = np.clip(best - half, 0.0, max(plan.t_cp - 2.0 * half, 0.0))
    first = -(np.angle(inner[rows, i]) / (2.0 * np.pi) +
              plan.k0 * i * plan.stages[-1].step / plan.t_s) / plan.f_c
    first = first + np.ceil((lo - first) / lobe) * lobe
    shift, value = _newton(q, first, plan.lobe_offsets, plan)
    inside = first[:, None] + plan.lobe_offsets <= (lo + 2.0 * half)[:, None]
    pick = np.argmax(np.where(inside, np.abs(value), -1.0), axis=-1)
    best = first + pick * lobe + shift[rows, pick]
    for _ in range(NEWTON_STEPS):
        best = best + _newton(q, best, np.zeros(1), plan)[0][:, 0]
    return np.clip(best, lo, lo + 2.0 * half)


def _lobe_check(q: np.ndarray, w2: np.ndarray, tau: np.ndarray, coeffs: np.ndarray,
                ridge: np.ndarray, plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """The joint carrier-lobe check of R > 1 delays tau and coefficients,
    shape (rows, R), on the MF metric rows q = conj(w) * b with |w|^2 = w2:
    the delays and coefficients with the rows it moved replaced.

    Each delay may move by -1, 0 or +1 lobe, 1/(2 f_c); a shift that would
    leave [0, T_cp] is not tried. The shifts kept maximize h^T G^{-1} h,
    which minimizes the joint residual ||b - W C(t) alpha||^2 over real
    alpha, with h_s = Re c(t_s)^H q and G_st = Re sum_k |w_k|^2
    e^{j2pi nu_k (t_s - t_t)}. h at every shift is one
    :func:`_lobe_moments` call at tau - 1/(2 f_c) with the plan's lobe
    offsets, and G one call on w2 at +-(tau_s - tau_t) - 1/f_c, whose real
    part is even in the delay. Each row's best score starts at -inf, the
    unshifted delays are scored first, and a shift is kept only when it
    scores strictly higher than the best so far, so ties and NaN scores
    move nothing. R = 2 tries all 9 shift pairs; above that, moves of one
    pair of targets at a time repeat until none improves, which is not
    exhaustive. On a moved row each delay takes
    one :func:`_newton` step on q minus the other targets' least-squares
    reconstructions (alpha = G^{-1} h), clipped to [0, T_cp], and the
    coefficients are refit jointly at the shifted delays as
    (G + ridge I)^{-1} h: ridge 0 on MF rows and sigma2 on LMMSE rows,
    each estimator's coefficient formula for one target. Every row is
    evaluated and the moved ones are selected by mask, so no product sees a
    subset of the rows; when no row moved, the refit is skipped."""
    rows, r = tau.shape
    lobe, offsets = plan.lobe_offsets[1], plan.lobe_offsets
    t = tau[:, :, None] + offsets - lobe  # (rows, R, 3): shifts -1, 0, +1
    h = _lobe_moments(np.tile(q, (r, 1)), t[:, :, 0].T.ravel(), offsets, plan)[0].real
    h, inside = h.reshape(r, rows, 3).transpose(1, 0, 2), (t >= 0.0) & (t <= plan.t_cp)
    # g[i, p, d + 2] = G_st at tau_s - tau_t + d lobe, d = -2..2, pairs p = (s, t), s < t
    first, second = np.triu_indices(r, 1)
    dt = (tau[:, first] - tau[:, second]).T.ravel()
    g = _lobe_moments(np.tile(w2, (2 * len(first), 1)), np.concatenate((dt, -dt)) - 2.0 * lobe,
                      offsets, plan)[0].real.reshape(2, len(first), rows, 3)
    g = np.concatenate((g[0], g[1, ..., 1::-1]), axis=-1).transpose(1, 0, 2)
    diag = w2.sum(axis=-1)

    def fit(j: np.ndarray, ridge: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """h, alpha = (G + ridge I)^{-1} h at the shift indices j, shape
        (rows, C, R), and where they count: every shifted delay inside
        [0, T_cp] and G + ridge I invertible."""
        take = (lambda table: np.take_along_axis(table[:, None], j[..., None], axis=-1)[..., 0])
        hj, valid = take(h), take(inside).all(axis=-1)
        gram = np.empty(j.shape + (r,))
        gram[..., range(r), range(r)] = (diag + ridge)[:, None, None]
        gram[..., first, second] = gram[..., second, first] = np.take_along_axis(
            g[:, None], (j[..., first] - j[..., second] + 2)[..., None], axis=-1)[..., 0]
        # positive semidefinite with equal diagonal entries: scaled to a unit
        # diagonal, its determinant lies in [0, 1] and cannot overflow
        invertible = np.linalg.det(gram / (diag + ridge)[:, None, None, None]) > 0.0
        gram[~invertible] = np.eye(r)
        return hj, np.linalg.solve(gram, hj[..., None])[..., 0], valid & invertible

    def consider(cand: np.ndarray) -> bool:
        """Keep each row's best candidate shift if it scores strictly higher
        than the row's best; whether any row kept one."""
        nonlocal j, best
        hj, alpha, valid = fit(cand, np.zeros(rows))
        score = np.where(valid, np.sum(hj * alpha, axis=-1), -np.inf)
        pick = np.argmax(score, axis=-1)
        top = score[np.arange(rows), pick]
        keep = top > best
        j = np.where(keep[:, None, None], np.take_along_axis(cand, pick[:, None, None], 1), j)
        best = np.where(keep, top, best)
        return bool(keep.any())

    # the unshifted pair first, so that of equal scores it is the one picked
    shift_pairs = np.array([(1, 1), (0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
                            (2, 2)])
    j, best = np.ones((rows, 1, r), dtype=np.intp), np.full(rows, -np.inf)
    while True:
        improved = False
        for s, u in zip(first, second):
            cand = np.repeat(j, 9, axis=1)
            cand[..., s], cand[..., u] = shift_pairs.T
            improved = consider(cand) or improved
        if not improved or r == 2:
            break
    j = j[:, 0]
    moved = np.any(j != 1, axis=-1)
    if not moved.any():
        return tau, coeffs
    shifted = tau + (j - 1) * lobe
    alpha = fit(j[:, None], np.zeros(rows))[1][:, 0]
    # alpha_t |w|^2 c(t_t)
    parts = alpha[:, :, None] * w2[:, None] * np.conj(_rotation(plan, shifted))
    for s in range(r):
        others = parts[:, np.arange(r) != s].sum(axis=1)
        step = _newton(q - others, shifted[:, s], np.zeros(1), plan)[0][:, 0]
        shifted[:, s] = np.clip(shifted[:, s] + step, 0.0, plan.t_cp)
    refit = fit(j[:, None], ridge)[1][:, 0]
    return np.where(moved[:, None], shifted, tau), np.where(moved[:, None], refit, coeffs)


def estimate_mf_lmmse(obs: RadarObservation,
                      n_targets: int) -> tuple[EstimateSet, EstimateSet]:
    """The estimator core: the MF and the LMMSE estimates of ``n_targets``
    targets, one MF row and one LMMSE row per observation row, all in the
    same searches.

    Successive cancellation, then UPDATE_PASSES re-estimation passes where
    each target is re-sought on the observation minus all other
    reconstructions, then the joint lobe check (:func:`_lobe_check`) on
    every MF and LMMSE row, each row scoring its own delays on the MF
    metric. One target skips the passes and the check. Each estimator
    keeps its own residuals, q and
    coefficient formula, in the single-observation float operation order:
    MF q = conj(w) * b_cur and coefficient Re{c^H q} / (w^H w); LMMSE
    q = h~ and coefficient Re{c^H W^H b_cur} / (w^H w + sigma2). One
    observation gives (R,) delays; stacked observations (B, M) give (B, R).
    """
    if not 1 <= n_targets <= MAX_TARGETS:
        raise ValueError(f"target count {n_targets} outside 1..{MAX_TARGETS}")
    plan = _plan(np.shape(obs.b)[-1], obs.f_c, obs.t_s, obs.t_cp)
    # C-contiguous copies: np.vdot rounds a strided or Fortran-ordered row
    # differently, and a row's estimate must not depend on the stack's layout
    b = np.ascontiguousarray(np.atleast_2d(obs.b))
    w = np.ascontiguousarray(np.atleast_2d(obs.w))
    w2 = np.abs(w) ** 2
    per_bin = w2 + obs.sigma2
    positive = per_bin > 0
    mf_denoms = [float(np.real(np.vdot(row, row))) for row in w]
    if 0 in mf_denoms:
        raise ValueError("reference bins are all zero")
    denom = np.array(mf_denoms + [float(row.sum() + obs.sigma2) for row in w2])
    b_all, w_all = np.tile(b, (2, 1)), np.tile(w, (2, 1))
    rows = len(b_all)
    mf_rows, lm_rows = slice(0, len(b)), slice(len(b), rows)  # MF rows first
    delays = np.zeros((rows, n_targets))
    coeffs = np.zeros((rows, n_targets))
    recon = np.zeros((n_targets, rows, b.shape[-1]), dtype=complex)

    def one(s: int, b_cur: np.ndarray) -> None:
        q = np.conj(w_all) * b_cur
        q[lm_rows] = np.divide(q[lm_rows], per_bin, out=np.zeros_like(per_bin, complex),
                               where=positive)
        tau = _search_delay(q, plan)
        rotation = _rotation(plan, tau)  # conj(c(tau)), one per row
        inner = np.empty(rows, dtype=complex)
        inner[mf_rows] = np.sum(rotation[mf_rows] * q[mf_rows], axis=-1)
        # np.multiply, not *: numpy may swap * into a large temporary, which
        # rounds differently and would tie a row's bits to the batch size
        inner[lm_rows] = np.sum(np.multiply(rotation[lm_rows], np.conj(w_all[lm_rows]))
                                * b_cur[lm_rows], axis=-1)
        delays[:, s] = tau
        coeffs[:, s] = np.real(inner) / denom
        recon[s] = coeffs[:, s, None] * w_all * np.conj(rotation)

    residual = b_all
    for s in range(n_targets):
        one(s, residual)
        residual = residual - recon[s]
    for _ in range(UPDATE_PASSES if n_targets > 1 else 0):
        for s in range(n_targets):
            others = [recon[j] for j in range(n_targets) if j != s]
            one(s, b_all - sum(others[1:], others[0]))
    if n_targets > 1:
        ridge = np.repeat([0.0, obs.sigma2], len(b))
        delays, coeffs = _lobe_check(np.conj(w_all) * b_all, np.tile(w2, (2, 1)), delays,
                                     coeffs, ridge, plan)
    order = np.argsort(delays, axis=-1, kind="stable")
    shape = (2,) + np.shape(obs.b)[:-1] + (n_targets,)  # (MF/LMMSE, [B,] R)
    delays = np.take_along_axis(delays, order, axis=-1).reshape(shape)
    coeffs = np.take_along_axis(coeffs, order, axis=-1).reshape(shape)
    final = plan.stages[-1].step
    return EstimateSet(delays[0], coeffs[0], final), EstimateSet(delays[1], coeffs[1], final)


def estimate_multi_mf(obs: RadarObservation, n_targets: int) -> EstimateSet:
    """The matched-filter half of :func:`estimate_mf_lmmse`: the delay
    search on q = conj(w) * b and the coefficient Re{c(tau)^H q} / (w^H w)."""
    return estimate_mf_lmmse(obs, n_targets)[0]


def estimate_lmmse(obs: RadarObservation, n_targets: int = 1) -> EstimateSet:
    """The LMMSE half of :func:`estimate_mf_lmmse`: the delay search on the
    channel estimate h~_k = w_k^* b_k / (|w_k|^2 + sigma2) (waveform
    deconvolved) and the coefficient Re{c(tau)^H W^H b} / (w^H w + sigma2)."""
    return estimate_mf_lmmse(obs, n_targets)[1]


def _row(i: int, one: bool) -> str:
    return "" if one else f" (row {i})"


def fim(scene: RadarScene, w, sigma2: float) -> np.ndarray:
    """Fisher information J of [tau_1..tau_R, alpha_1..alpha_R] for the mean
    w_k sum_s alpha_s e^{-j2pi nu_k tau_s}, nu_k = f_c + k/T_s. From the sums
    s_n(dt) = sum_k |w_k|^2 nu_k^n e^{j2pi nu_k dt} at dt = tau_s - tau_t:
    J_tau,tau = (8 pi^2/sigma2) alpha_s alpha_t Re s_2, J_tau,alpha =
    J_alpha,tau^T = -(4 pi/sigma2) alpha_s Im s_1 and J_alpha,alpha =
    (2/sigma2) Re s_0. ``w`` holds reference bins on the M bins k of
    ``default_band(M)``, or is ``fdss.g`` for the expectation form.

    One scene (targets (R, 2)) gives J of shape (2R, 2R), a stack of B
    scenes ((B, R, 2)) gives (B, 2R, 2R); w has shape (M,) (shared) or
    (B, M). One scene is a batch of one, so every row equals its
    single-scene call bit for bit. Each sum is a matrix product with a
    contiguous (B, M) copy of its weight rows: the product's last bits
    depend on the layout of a row."""
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")
    one = scene.targets.ndim == 2
    tau, alpha = np.atleast_2d(scene.delays), np.atleast_2d(scene.coeffs)
    (n, r), w = tau.shape, np.asarray(w)
    if w.ndim not in (1, 2) or w.shape[:-1] not in ((), (n,)):
        raise ValueError(f"reference bins of shape {w.shape} do not fit {n} scene(s)")
    k = band(w.shape[-1])
    nu = scene.f_c + k / scene.t_s
    w2 = np.abs(w) ** 2
    if w2.ndim == 1:
        w2 = np.broadcast_to(w2, (n, len(k)))
    # dt = 0 on the diagonal, where cos is 1 and sin is 0 exactly: the trig
    # runs only off it
    cos = np.ones((n, r, r, len(k)))
    sin = np.zeros_like(cos)
    if r > 1:
        off = ~np.eye(r, dtype=bool)
        phase = 2.0 * np.pi * (tau[:, :, None] - tau[:, None, :])[:, off, None] * nu
        cos[:, off], sin[:, off] = np.cos(phase), np.sin(phase)

    def sums(table, weights):  # Re s_n = sums(cos, |w|^2 nu^n), Im s_n = sums(sin, ...)
        return (table @ np.ascontiguousarray(weights)[:, None, :, None])[..., 0]

    j = np.empty((n, 2 * r, 2 * r))
    j[:, :r, :r] = alpha[:, :, None] * alpha[:, None, :] * \
        (8.0 * np.pi ** 2 * sums(cos, w2 * nu * nu))
    j[:, :r, r:] = -4.0 * np.pi * alpha[:, :, None] * sums(sin, w2 * nu)
    j[:, r:, :r] = np.swapaxes(j[:, :r, r:], 1, 2)
    j[:, r:, r:] = 2.0 * sums(cos, w2)
    with np.errstate(over="ignore"):  # refused just below
        j = j / sigma2
    if not np.all(np.isfinite(j)):
        raise ValueError(f"the Fisher information overflows at sigma2 = {sigma2}: "
                         "the noise variance is too small for these bins")
    return j[0] if one else j


def _fim_inverse(scene: RadarScene, w, sigma2: float) -> tuple[np.ndarray, bool]:
    """J^{-1} of every scene, shape (B, 2R, 2R), from one inverse of the
    stack, and whether ``scene`` is one scene. A singular J is refused,
    naming a stack's row: coinciding targets, all-zero reference bins, or
    fewer nonzero bins than targets (each bin adds rank at most 2 to J)."""
    one, r = scene.targets.ndim == 2, scene.n_targets
    d = np.atleast_2d(scene.distances)
    coincide = d[:, 1:] == d[:, :-1]
    if coincide.any():
        i, s = np.argwhere(coincide)[0]
        raise ValueError(f"targets {s} and {s + 1} coincide at {d[i, s]} m{_row(i, one)}: "
                         "the Fisher information is singular")
    j = fim(scene, w, sigma2).reshape(len(d), 2 * r, 2 * r)
    zero = j[:, -1, -1] == 0  # (2/sigma2) sum_k |w_k|^2
    if zero.any():
        raise ValueError(f"reference bins are all zero{_row(np.argmax(zero), one)}")
    nonzero = np.atleast_1d(np.count_nonzero(w, axis=-1))
    if (few := nonzero < r).any():
        i = np.argmax(few)
        raise ValueError(f"{nonzero[i]} nonzero reference bin(s){_row(i, one)} cannot resolve "
                         f"{r} targets: each bin adds rank at most 2 to the {2 * r}x{2 * r} "
                         "Fisher information, which is singular")
    return np.linalg.inv(j), one


def _block_trace(inverse: np.ndarray, block: range, one: bool) -> float | np.ndarray:
    """The trace of each row's diagonal block, summed in target order."""
    trace = inverse[:, block[0], block[0]]
    for s in block[1:]:
        trace = trace + inverse[:, s, s]
    return float(trace[0]) if one else trace


def crlb_range(scene: RadarScene, w, sigma2: float) -> float | np.ndarray:
    """Lower bound on E sum_s |d_s - d_hat_s|^2 in meters^2: c^2/4 times the
    trace of the tau block of J^{-1} (:func:`fim`). A float for one scene,
    shape (B,) for a stack of B scenes, all from one inverse."""
    inverse, one = _fim_inverse(scene, w, sigma2)
    r = inverse.shape[-1] // 2
    return SPEED_OF_LIGHT ** 2 / 4.0 * _block_trace(inverse, range(r), one)


def crlb_coeff(scene: RadarScene, w, sigma2: float) -> float | np.ndarray:
    """Lower bound on E sum_s |alpha_s - alpha_hat_s|^2: the trace of the
    alpha block of J^{-1}; sigma2 / (2 sum_k |w_k|^2) for one target. A
    float for one scene, shape (B,) for a stack of B scenes."""
    inverse, one = _fim_inverse(scene, w, sigma2)
    r = inverse.shape[-1] // 2
    return _block_trace(inverse, range(r, 2 * r), one)


def crlb_range_no_phase(scene: RadarScene, m: int, sigma2: float) -> float | np.ndarray:
    """Range bound when the carrier phase is treated as unknown rather than
    range-dependent (unimodular bins), without cross terms between targets:
    3 sigma2 c^2 T_s^2 / (8 pi^2 M (M^2 - 1)) * sum_s 1/alpha_s^2. For one
    target, :func:`crlb_range` with f_c -> 0 and |w_k| = 1 on m symmetric
    bins, via sum k^2 = M (M^2 - 1) / 12. A float for one scene, shape (B,)
    for a stack of B scenes."""
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")
    inv_a2 = np.sum(1.0 / np.atleast_2d(scene.coeffs) ** 2, axis=-1)
    # T_s^2 is the float power (libm pow), which differs from an array's
    # x * x in the last bit for some T_s
    bound = 3.0 * sigma2 * SPEED_OF_LIGHT ** 2 * scene.t_s ** 2 / \
        (8.0 * np.pi ** 2 * m * (m ** 2 - 1)) * inv_a2
    if not np.all(np.isfinite(bound)):
        raise ValueError(f"the phase-unaware range bound overflows at sigma2 = {sigma2}")
    return float(bound[0]) if scene.targets.ndim == 2 else bound


def min_resolution(bandwidth_hz: float) -> float:
    """Two-target range resolution 0.5 c / B in meters."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return 0.5 * SPEED_OF_LIGHT / bandwidth_hz
