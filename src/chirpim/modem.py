"""Transmitter and receiver chains for index-modulated waveforms.

Three schemes share one frame structure (M modulation symbols, N-point
IDFT, cyclic prefix) and one transmitter: :func:`tx_bins` maps the symbols
to frequency bins, :func:`chirpim.chirps.synthesize` does the IDFT and
:func:`frame_from_symbols` prepends the prefix. A frame is a plain array
whose last axis holds the N_cp prefix samples, then the N body samples.
Only the bin mapping differs:

* ``CSC_IM``      - M-point DFT spreading shaped by a chirp FDSS profile;
                    each active index becomes a circularly-shifted chirp.
* ``DFT_S_OFDM_IM`` - DFT spreading with a flat profile (Dirichlet pulses).
* ``OFDM_IM``     - symbols mapped straight onto subcarriers, no spreading.

The spread schemes are received with a single-tap LMMSE frequency-domain
equalizer followed by an M-point IDFT; OFDM-IM folds the channel response
into per-subcarrier metrics instead. Either way one batched detector,
:func:`detect_words_batch`, picks L (bin, phase) pairs per frame under the
index-separation constraint, and :func:`rx_frame` is a batch of one.

Bins k = l_d..l_d+M-1 sit at positions k mod N of an N-point transform, a
rotation of the band. :func:`tx_bins`, :func:`extract_bins`,
:func:`equalize_lmmse` and the synthesis in :mod:`chirpim.chirps` all move
the band through the two slice pairs of :func:`chirpim.chirps.band_slices`,
with no index array.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import indexing
from .chirps import ChirpSpec, FdssProfile, band_slices, chirp_fdss, flat_fdss, synthesize
from .indexing import IndexWord, bit_capacity, bits_to_word, pack_bits
from .util import check_noise_variance, qfunc


class Scheme(str, Enum):
    CSC_IM = "csc-im"
    DFT_S_OFDM_IM = "dft-s-ofdm-im"
    OFDM_IM = "ofdm-im"

    @property
    def spreads(self) -> bool:
        return self is not Scheme.OFDM_IM


@dataclass(frozen=True)
class ModemConfig:
    """Waveform + codec parameters for one link.

    ``e_s = m/length`` is the per-active-index symbol energy, which keeps
    every frame at total power m regardless of how many indices are active.
    ``scheme`` may be given by value ("csc-im"); others raise ValueError.
    A config is complete when built: its FDSS profile ``fdss`` and its bit
    ``capacity`` are computed once, here, and travel with it (a pickled
    copy carries them, so a worker never rebuilds them).
    """

    scheme: Scheme
    m: int
    n: int
    n_cp: int
    length: int
    h: int
    delta: int = 0
    chirp: ChirpSpec | None = None
    fdss: FdssProfile = field(init=False, repr=False, compare=False)
    capacity: indexing.BitCapacity = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if self.n <= self.m:
            raise ValueError(f"n = {self.n}: must exceed m = {self.m}")
        if not 0 <= self.n_cp < self.n:
            raise ValueError(f"need 0 <= N_cp < N={self.n}, got N_cp={self.n_cp}")
        if not 1 <= self.length <= self.m // 2:
            raise ValueError(f"l = {self.length}: need 1 <= L <= m/2 = {self.m // 2}")
        if self.h < 1 or self.h & (self.h - 1):
            raise ValueError(f"h = {self.h}: must be a power of two")
        if self.scheme is Scheme.CSC_IM:
            if self.chirp is None:
                raise ValueError("CSC-IM needs a chirp spec")
            if self.chirp.m != self.m:
                raise ValueError(f"chirp window M={self.chirp.m} != config M={self.m}")
        if indexing.index_count(self.length, self.delta, self.m) < 2:
            raise ValueError(f"delta = {self.delta}: leaves fewer than 2 index sequences "
                             f"of l = {self.length} in m = {self.m}")
        object.__setattr__(self, "fdss", chirp_fdss(self.chirp)
                           if self.scheme is Scheme.CSC_IM else flat_fdss(self.m))
        object.__setattr__(self, "capacity",
                           bit_capacity(self.m, self.length, self.h, self.delta))

    @property
    def e_s(self) -> float:
        return self.m / self.length

    @property
    def k(self) -> np.ndarray:
        return self.fdss.k


def encode(bits, cfg: ModemConfig) -> tuple[IndexWord, np.ndarray]:
    """Information bits -> (index word, length-M modulation vector)."""
    word = bits_to_word(bits, cfg.m, cfg.length, cfg.h, cfg.delta)
    return word, word_symbols(word.indices, word.psk, cfg)


def word_symbols(indices, psk, cfg: ModemConfig) -> np.ndarray:
    """Sparse modulation vectors: sqrt(E_s) e^{j2pi z/H} on the active
    indices. Index and PSK arrays of shape (..., L) give shape (..., M)."""
    indices = np.asarray(indices)
    d = np.zeros(indices.shape[:-1] + (cfg.m,), dtype=complex)
    np.put_along_axis(d, indices, np.sqrt(cfg.e_s) *
                      np.exp(2j * np.pi * np.asarray(psk) / cfg.h), axis=-1)
    return d


def tx_bins(d: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Frequency-domain reference symbols w on bins k (shape (..., M)).

    Spread schemes: w_k = g_k * (normalized M-point DFT of d)_k. OFDM-IM
    maps symbol m straight onto bin k = l_d + m. This is the transmitter's
    only bin mapping; the radar reference and the frame both start here.
    DFT output k mod M feeds bin k, a rotation by l_d: two multiplies by
    g over the :func:`chirpim.chirps.band_slices` pairs write the rows
    straight into a C-contiguous result.
    """
    d = np.asarray(d, dtype=complex)
    if not cfg.scheme.spreads:
        return d.copy()
    s = np.fft.fft(d, axis=-1)
    s /= np.sqrt(cfg.m)
    w = np.empty_like(s)
    for bins, pos in band_slices(cfg.fdss.l_d, cfg.m, cfg.m):
        np.multiply(cfg.fdss.g[bins], s[..., pos], out=w[..., bins])
    return w


def frame_from_symbols(d: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Time-domain frame for modulation symbols ``d`` (batchable), of shape
    (..., N_cp + N): the bins of :func:`tx_bins`, the IDFT of
    :func:`synthesize`, and the last N_cp body samples prepended as the
    cyclic prefix. Every scheme takes this one path."""
    body = synthesize(tx_bins(d, cfg), cfg.k, cfg.n)
    return np.concatenate([body[..., cfg.n - cfg.n_cp:], body], axis=-1)


def tx_frame(bits, cfg: ModemConfig) -> np.ndarray:
    """Full transmitter: bits -> encode -> bin mapping -> IDFT + CP."""
    _, d = encode(bits, cfg)
    return frame_from_symbols(d, cfg)


def extract_bins(frame: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Receiver front end: drop the CP, N-point DFT, pick bins l_d..l_u.

    ``frame`` has shape (..., N_cp + N), prefix first; another length
    raises ValueError.
    """
    frame = np.asarray(frame)
    if frame.shape[-1] != cfg.n_cp + cfg.n:
        raise ValueError(f"frame has {frame.shape[-1]} samples, "
                         f"need N_cp + N = {cfg.n_cp + cfg.n}")
    spectrum = np.fft.fft(frame[..., cfg.n_cp:], axis=-1)
    b = np.empty(spectrum.shape[:-1] + (cfg.m,), dtype=complex)
    for bins, pos in band_slices(cfg.fdss.l_d, cfg.m, cfg.n):
        np.divide(spectrum[..., pos], cfg.n, out=b[..., bins])
    return b


def post_equalization_snr(fdss: FdssProfile, sigma2: float, h_c=None):
    """SNR of the modulation symbols behind the MMSE equalizer + IDFT.

    snr = 1 / (sqrt(1/alpha) - 1) with
    alpha = ((1/M) sum_k |c_k|^2 / (|c_k|^2 + sigma2))^2 and c_k = H_k g_k
    (c_k = g_k in AWGN). alpha -> 1 gives snr -> inf.
    """
    c2 = np.abs(fdss.g) ** 2 if h_c is None else np.abs(np.asarray(h_c) * fdss.g) ** 2
    denom = c2 + sigma2
    term = np.divide(c2, denom, out=np.zeros_like(c2), where=denom > 0)
    alpha = np.mean(term, axis=-1) ** 2
    with np.errstate(divide="ignore"):
        snr = np.where(alpha >= 1.0, np.inf, 1.0 / (1.0 / np.sqrt(alpha) - 1.0))
    return snr if np.ndim(snr) else float(snr)


def equalize_lmmse(b: np.ndarray, h_c, fdss: FdssProfile, sigma2: float) -> np.ndarray:
    """Single-tap LMMSE FDE followed by the M-point IDFT.

    Per bin: v_k = conj(H_k g_k) / (|H_k g_k|^2 + sigma2) * b_k, then v is
    placed at IDFT position k mod M and transformed back, recovering the
    modulation-symbol estimates y_l (exactly d in noiseless AWGN); their SNR
    is :func:`post_equalization_snr`. The products v_k are written straight
    into the IDFT input, rotated by l_d through
    :func:`chirpim.chirps.band_slices`. At sigma2 = 0 a bin with
    H_k g_k = 0 gets v_k = 0.
    """
    check_noise_variance(sigma2)
    b = np.asarray(b, dtype=complex)
    m = fdss.m
    # every step is elementwise, so c keeps the shape of h_c * g (one row
    # in AWGN) and broadcasts against b only in the product below
    c = np.asarray(h_c, dtype=complex) * fdss.g
    denom = np.abs(c)
    np.square(denom, out=denom)
    denom += sigma2
    np.conj(c, out=c)
    if sigma2 > 0:
        w = np.divide(c, denom, out=c)
    else:
        w = np.divide(c, denom, out=np.zeros_like(c), where=denom > 0)
    v = np.empty(b.shape, dtype=complex)
    for bins, pos in band_slices(fdss.l_d, m, m):
        np.multiply(w[..., bins], b[..., bins], out=v[..., pos])
    y = np.fft.ifft(v, axis=-1)
    y *= np.sqrt(m)
    return y


def _psk_planes(y: np.ndarray, h: int):
    """t_{l,z} = Re(y_l e^{-j2pi z/H}) for every bin l, one (..., M) plane
    per phase integer z, yielded in phase order. The planes share one
    buffer: each is overwritten when the next is made."""
    product = np.empty_like(y)
    for phase in np.exp(-2j * np.pi * np.arange(h) / h):
        yield np.multiply(y, phase, out=product).real


def _ofdm_im_metrics(b: np.ndarray, h_c, cfg: ModemConfig):
    """Per-subcarrier ML metrics with the channel response folded in, one
    (..., M) plane per phase integer, yielded in phase order.

    Choosing the active set that minimizes ||b - diag(H) d||^2 is the same
    as maximizing, per active bin, 2 sqrt(E_s) Re(b_l conj(H_l) e^{-j theta})
    - E_s |H_l|^2.
    """
    hc = np.broadcast_to(np.asarray(h_c, dtype=complex), b.shape)
    energy = cfg.e_s * np.abs(hc) ** 2
    for corr in _psk_planes(b * np.conj(hc), cfg.h):
        corr *= 2.0 * np.sqrt(cfg.e_s)
        corr -= energy
        yield corr


def _best_bins(values: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` largest entries of each row, ties going to the lowest bin."""
    return np.argsort(-values, axis=-1, kind="stable")[:, :count]


def detect_words_batch(b: np.ndarray, h_c, sigma2: float,
                       cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Detect a batch of frames from bins ``b`` of shape (B, M).

    Returns (indices, psk) int arrays of shape (B, L), indices ascending.
    Each bin keeps its best phase, the lowest on a tie; the H metric planes
    are visited one (B, M) plane at a time, never as one (B, M, H) tensor.
    The L picks are greedy: each is the best bin left after masking every
    bin within cyclic distance delta of the earlier picks, ties going to
    the lowest bin (with delta = 0 only the picks are masked, so the L best
    bins win). A pick masks its 2 delta + 1 window by writing -inf there on
    a copy of the best values. A row that runs out of bins (a stuck row:
    its pick reads -inf) falls back to the unconstrained pick, which then
    breaks the separation; only the stuck rows are sorted for it, the
    others never are.
    """
    check_noise_variance(sigma2)
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if cfg.scheme.spreads:
        planes = _psk_planes(equalize_lmmse(b, h_c, cfg.fdss, sigma2), cfg.h)
    else:
        planes = _ofdm_im_metrics(b, h_c, cfg)
    best_v = np.array(next(planes))
    best_z = np.zeros(best_v.shape, dtype=np.min_scalar_type(cfg.h - 1))
    better = np.empty(best_v.shape, dtype=bool)
    step = np.empty_like(best_z)
    for z, plane in enumerate(planes, start=1):  # a later phase wins only when strictly better
        np.greater(plane, best_v, out=better)
        # z exceeds every phase kept so far, so max(best_z, z * better)
        # sets z exactly where this plane is better
        np.maximum(best_z, np.multiply(better, best_z.dtype.type(z), out=step), out=best_z)
        np.maximum(best_v, plane, out=best_v)
    rows = np.arange(len(best_v))
    window = np.arange(-cfg.delta, cfg.delta + 1)
    left = best_v.copy()
    stuck = np.zeros(len(best_v), dtype=bool)
    top = np.empty((len(best_v), cfg.length), dtype=np.intp)
    for j in range(cfg.length):
        top[:, j] = np.argmax(left, axis=1)
        stuck |= left[rows, top[:, j]] == -np.inf
        left[rows[:, None], (top[:, j, None] + window) % cfg.m] = -np.inf
    if stuck.any():
        top[stuck] = _best_bins(best_v[stuck], cfg.length)
    top = np.sort(top, axis=-1)
    return top, np.take_along_axis(best_z, top, axis=-1).astype(np.intp)


def rx_frame(frame: np.ndarray, h_c, sigma2: float, cfg: ModemConfig) -> np.ndarray:
    """Full receiver: time-domain frame -> bins -> equalize/detect -> bits.

    One frame is a batch of one through :func:`detect_words_batch`. Detected
    ranks can exceed the encoder's 2**index_bits codebook (the detector
    searches every valid sequence); those fold back modulo the codebook
    size so the receiver always emits a bit estimate. A word that breaks
    the separation is a fallback pick (possible only for L >= 3 under heavy
    noise); its rank is read without the constraint before folding, and the
    frame is almost surely in error anyway. ``frame`` is one frame of shape
    (N_cp + N,); a stack of frames raises ValueError.
    """
    frame = np.asarray(frame)
    if frame.ndim != 1:
        raise ValueError(f"rx_frame takes one frame of shape (N_cp + N,), got shape {frame.shape}")
    idx, psk = detect_words_batch(extract_bins(frame, cfg), h_c, sigma2, cfg)
    idx, psk = idx[0], psk[0]
    gaps = np.diff(idx, append=idx[0] + cfg.m) - 1
    word = IndexWord(indices=tuple(int(i) for i in idx), psk=tuple(int(z) for z in psk),
                     m=cfg.m, h=cfg.h, delta=cfg.delta if gaps.min() >= cfg.delta else 0)
    cap = cfg.capacity
    return pack_bits((word.rank - 1) % (1 << cap.index_bits), word.psk, cap)


def union_bound_bler(cfg: ModemConfig, n0: float) -> float:
    """Union bound on the block-error probability at symbol-noise level n0.

    P <= (M-L) H (1 - (1 - Q(d_ind/sqrt(2 n0)))^L) + L (1 - (1 - P_psk)^L)
    with d_ind = sqrt(2 E_s), d_psk = 2 sqrt(E_s) sin(pi/H), and P_psk the
    H-PSK symbol-error term (2Q for H >= 4, Q for H = 2, 0 for H = 1).
    The result is clipped to [0, 1]. For the spread schemes n0 is the
    inverse of :func:`post_equalization_snr`.
    """
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    if n0 == 0:
        return 0.0
    e_s = cfg.e_s
    d_ind = np.sqrt(2.0 * e_s)
    q_ind = qfunc(d_ind / np.sqrt(2.0 * n0))
    if cfg.h >= 4:
        p_psk = 2.0 * qfunc(2.0 * np.sqrt(e_s) * np.sin(np.pi / cfg.h) / np.sqrt(2.0 * n0))
    elif cfg.h == 2:
        p_psk = qfunc(2.0 * np.sqrt(e_s) / np.sqrt(2.0 * n0))
    else:
        p_psk = 0.0
    bound = (cfg.m - cfg.length) * cfg.h * (1.0 - (1.0 - q_ind) ** cfg.length) \
        + cfg.length * (1.0 - (1.0 - p_psk) ** cfg.length)
    return float(min(max(bound, 0.0), 1.0))
