"""chirpim: index-modulated circularly-shifted chirp waveforms for joint
radar and communications."""

from .channel import CommChannel, RadarScene, add_awgn, radar_cfr, rician_realize
from .chirps import (ChirpFamily, ChirpSpec, FdssProfile, apac, chirp_fdss,
                     distinct_cs_count, flat_fdss, fourier_coeffs,
                     gcp_from_chirps, is_gcp, linear_chirp_coeffs,
                     measure_pmepr, normalize_fdss, occupied_bandwidth,
                     sinusoidal_chirp_coeffs, synthesize)
from .indexing import (BitCapacity, IndexWord, bit_capacity, bits_to_word,
                       compositions_count, delta_no_loss, gaps_to_rank,
                       index_count, indices_to_rank, rank_to_gaps,
                       rank_to_indices, ranks_to_indices, word_to_bits)
from .modem import (ModemConfig, Scheme, encode, equalize_lmmse,
                    post_equalization_snr, rx_frame, tx_bins, tx_frame,
                    union_bound_bler)
from .radar import (EstimateSet, RadarObservation, crlb_coeff, crlb_range,
                    crlb_range_no_phase, estimate_lmmse, estimate_mf_lmmse,
                    estimate_multi_mf, fim, min_resolution)
from .util import SPEED_OF_LIGHT

__version__ = "0.1.0"
