"""Spectrally efficient FDM (SEFDM) modem simulator.

Transmitter construction via interleaved OFDM branches, an iterative
interference-cancelling "stripe" decoder, an exhaustive maximum-likelihood
oracle, and a Monte Carlo BER harness.
"""

from .channel import NoiseSpec, add_awgn, interference_continuous, interference_discrete
from .core import (
    BPSK,
    QAM4,
    Alphabet,
    CapacityError,
    DimensionError,
    DomainError,
    RandomSource,
    SefdmConfig,
    bits_to_symbols,
    get_alphabet,
    symbols_to_bits,
)
from .detect import (
    StripeParams,
    gravity,
    ml_decode,
    slice_symbols,
    stripe_decode,
    stripe_decode_soft,
    truncate,
)
from .harness import (
    BerRecord,
    SweepSpec,
    ber_sweep,
    confidence_interval,
    db_penalty,
    run_block,
    theoretical_ber,
    theory_ebn0_db,
)
from .txmod import carrier_matrix, modulate_direct, modulate_interleaved

__all__ = [
    "Alphabet",
    "BPSK",
    "QAM4",
    "BerRecord",
    "CapacityError",
    "DimensionError",
    "DomainError",
    "NoiseSpec",
    "RandomSource",
    "SefdmConfig",
    "StripeParams",
    "SweepSpec",
    "add_awgn",
    "ber_sweep",
    "bits_to_symbols",
    "carrier_matrix",
    "confidence_interval",
    "db_penalty",
    "get_alphabet",
    "gravity",
    "interference_continuous",
    "interference_discrete",
    "ml_decode",
    "modulate_direct",
    "modulate_interleaved",
    "run_block",
    "slice_symbols",
    "stripe_decode",
    "stripe_decode_soft",
    "symbols_to_bits",
    "theoretical_ber",
    "theory_ebn0_db",
    "truncate",
]

__version__ = "0.1.0"
