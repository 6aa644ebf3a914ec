"""Monte Carlo BER measurement with binomial confidence intervals.

A sweep point is one (alpha, Eb/N0) pair. Each point owns a Philox stream
derived from the master seed and the point's grid index, so results are
bit-identical no matter how points are scheduled across workers.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .channel import NoiseSpec, add_awgn
from .core import (
    BPSK,
    QAM4,
    Alphabet,
    DomainError,
    RandomSource,
    SefdmConfig,
    _as_generator,
    _check_int,
    bits_to_symbols,
    get_alphabet,
    symbols_to_bits,
)
from .detect import (
    StripeParams,
    _matched_channel,
    _ofdm_channel,
    _stripe_batch,
    check_ml_guard,
    ml_decode,
    slice_symbols,
    stripe_decode,  # not called here, but bench/spans.py wraps each layer name
)
from .txmod import modulate_interleaved

DECODERS = ("stripe", "ml", "ofdm")

# Symbol periods simulated per RNG draw; fixed so results do not depend on
# how a point's loop is chunked.
_BATCH_PERIODS = 1024


def _check_decoder(decoder: str, cfg: SefdmConfig) -> None:
    """The decoder rules: a known name, alpha = 1 for ofdm, the ML guard for ml."""
    if decoder not in DECODERS:
        raise DomainError(f"unknown decoder {decoder!r}")
    if decoder == "ofdm" and cfg.alpha_num != cfg.alpha_den:
        raise DomainError(f"the ofdm decoder needs alpha = 1, got {cfg.alpha_num}/{cfg.alpha_den}")
    if decoder == "ml":
        check_ml_guard(cfg)


@dataclass(frozen=True)
class SweepSpec:
    """One BER experiment: a config template swept over alphas and Eb/N0 points.

    The stop rule per point is min_bit_errors accumulated or max_symbol_periods
    simulated, whichever comes first.
    """

    carriers: int
    samples: int
    alphas: tuple[tuple[int, int], ...]
    ebn0_db: tuple[float, ...]
    alphabet: str = "qam4"
    decoder: str = "stripe"
    iterations: int = StripeParams.iterations
    min_bit_errors: int = 100
    max_symbol_periods: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        # carriers, samples and the alpha parts are checked by SefdmConfig
        # below, iterations by StripeParams.
        for name in ("min_bit_errors", "max_symbol_periods", "seed"):
            _check_int(name, getattr(self, name))
        if self.min_bit_errors < 1 or self.max_symbol_periods < 1:
            raise ValueError("stop rule must be positive")
        if not self.alphas or not self.ebn0_db:
            raise ValueError("the alpha and Eb/N0 grids must not be empty")
        if len(set(self.alphas)) < len(self.alphas) or len(set(self.ebn0_db)) < len(self.ebn0_db):
            raise ValueError("the alpha and Eb/N0 grids must not repeat a point")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # StripeParams and NoiseSpec are built here for their input checks only.
        StripeParams(self.iterations)
        for b, c in self.alphas:
            cfg = self.config(b, c)
            _check_decoder(self.decoder, cfg)
            for ebn0 in self.ebn0_db:
                NoiseSpec.from_config(ebn0, cfg)

    def config(self, alpha_num: int, alpha_den: int) -> SefdmConfig:
        return SefdmConfig(
            self.carriers, self.samples, alpha_num, alpha_den, get_alphabet(self.alphabet)
        )


@dataclass(frozen=True)
class BerRecord:
    """Result of one sweep point."""

    alpha_num: int
    alpha_den: int
    carriers: int
    samples: int
    alphabet: str
    decoder: str
    iterations: int
    ebn0_db: float
    bits: int
    errors: int
    ber: float
    ci_low: float
    ci_high: float
    seed: int
    wall_time_s: float


def theoretical_ber(ebn0_db: float, alphabet: Alphabet) -> float:
    """Matched-filter OFDM reference, Q(sqrt(2*Eb/N0)) = math.erfc(sqrt(Eb/N0)) / 2.

    Holds for BPSK and for Gray-coded 4-QAM (per-bit error equal at equal
    Eb/N0); other alphabets are rejected.
    """
    if alphabet not in (BPSK, QAM4):
        raise DomainError(f"no closed-form reference for alphabet {alphabet.name!r}")
    if math.isinf(ebn0_db) and ebn0_db > 0:
        return 0.0
    try:
        rho = 10.0 ** (ebn0_db / 10.0)
    except OverflowError:  # past about 3082.5 dB; erfc has long since reached 0
        return 0.0
    return 0.5 * math.erfc(math.sqrt(rho))


def theory_ebn0_db(target_ber: float) -> float:
    """Eb/N0 (dB) at which the theoretical BER equals target_ber, from
    erfcinv(2p)**2 = Phi^-1(p)**2 / 2 with Phi^-1 = `statistics.NormalDist().inv_cdf`."""
    if not 0.0 < target_ber < 0.5:
        raise DomainError("target BER must be in (0, 0.5)")
    rho = statistics.NormalDist().inv_cdf(target_ber) ** 2 / 2
    return 10.0 * math.log10(rho)


def confidence_interval(errors: int, bits: int) -> tuple[float, float]:
    """95% binomial interval: normal approximation, rule of three at zero errors."""
    if bits < 1 or not 0 <= errors <= bits:
        raise DomainError("need bits >= 1 and 0 <= errors <= bits")
    if errors == 0:
        return 0.0, min(1.0, 3.0 / bits)
    p = errors / bits
    half = 1.96 * math.sqrt(p * (1.0 - p) / bits)
    return max(0.0, p - half), min(1.0, p + half)


def run_block(
    cfg: SefdmConfig,
    ebn0_db: float,
    decoder: str,
    rng,
    blocks: int = 1,
    params: StripeParams = StripeParams(),
):
    """Simulate `blocks` symbol periods; returns (bits sent, bit errors).

    Pipeline: random bits -> symbols -> interleaved modulation -> AWGN ->
    decode -> bits; deterministic given the rng stream. The stripe decoder
    and the OFDM baseline read a block only through its matched-filter
    outputs y, so for them the modulation, the AWGN and the matched filter
    are one step, which draws the same noise as add_awgn:
    detect._matched_channel for the stripe decoder and, at alpha = 1, the
    one-FFT detect._ofdm_channel, whose y the baseline slices. ML decodes the
    M samples. `params` sets the stripe decoder's iteration count. The
    decoder must pass the rules SweepSpec checks: a known name, alpha = 1 for
    ofdm, the ML guard for ml. `blocks` must be a positive integer.
    """
    _check_int("blocks", blocks)
    if blocks < 1:
        raise ValueError(f"blocks must be positive, got {blocks}")
    _check_decoder(decoder, cfg)
    gen = _as_generator(rng)
    bps = cfg.alphabet.bits_per_symbol
    bits = gen.integers(0, 2, size=(blocks, cfg.n_carriers * bps))
    symbols = bits_to_symbols(bits, cfg.alphabet)
    noise = NoiseSpec.from_config(ebn0_db, cfg)
    if decoder == "stripe":
        y = _matched_channel(symbols, cfg, noise.sigma2, gen)
        decoded = slice_symbols(_stripe_batch(y, cfg, params), cfg.alphabet)
    elif decoder == "ofdm":
        decoded = slice_symbols(_ofdm_channel(symbols, cfg, noise.sigma2, gen), cfg.alphabet)
    else:
        decoded = ml_decode(add_awgn(modulate_interleaved(symbols, cfg), noise, gen), cfg)
    decoded_bits = symbols_to_bits(decoded, cfg.alphabet)
    return bits.size, int((decoded_bits != bits).sum())


def _run_point(spec: SweepSpec, index: int) -> BerRecord:
    alpha_index, ebn0_index = divmod(index, len(spec.ebn0_db))
    alpha_num, alpha_den = spec.alphas[alpha_index]
    ebn0 = spec.ebn0_db[ebn0_index]
    cfg = spec.config(alpha_num, alpha_den)
    gen = RandomSource(spec.seed, index).generator()
    params = StripeParams(spec.iterations)

    start = time.perf_counter()
    bits_total = 0
    errors_total = 0
    periods_done = 0
    while periods_done < spec.max_symbol_periods and errors_total < spec.min_bit_errors:
        batch = min(_BATCH_PERIODS, spec.max_symbol_periods - periods_done)
        bits, errs = run_block(cfg, ebn0, spec.decoder, gen, blocks=batch, params=params)
        bits_total += bits
        errors_total += errs
        periods_done += batch
    wall = time.perf_counter() - start

    ber = errors_total / bits_total
    ci_low, ci_high = confidence_interval(errors_total, bits_total)
    return BerRecord(
        alpha_num=alpha_num,
        alpha_den=alpha_den,
        carriers=spec.carriers,
        samples=spec.samples,
        alphabet=cfg.alphabet.name,
        decoder=spec.decoder,
        iterations=spec.iterations,
        ebn0_db=ebn0,
        bits=bits_total,
        errors=errors_total,
        ber=ber,
        ci_low=ci_low,
        ci_high=ci_high,
        seed=spec.seed,
        wall_time_s=wall,
    )


def _usable_cores() -> int:
    """Cores this process may run on; all of them where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ber_sweep(spec: SweepSpec, workers: int = 1) -> list[BerRecord]:
    """Run every (alpha, Eb/N0) point of the sweep.

    Records come back in grid order (alphas in spec order, Eb/N0 in spec
    order) and are bit-identical for any worker count. The pool is capped at
    the grid's point count and the usable cores; with a cap of one the
    points run serially in this process. `workers` must be a positive integer.
    """
    _check_int("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    run = functools.partial(_run_point, spec)
    points = range(len(spec.alphas) * len(spec.ebn0_db))
    workers = min(workers, len(points), _usable_cores())
    if workers <= 1:
        return list(map(run, points))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, points))


def db_penalty(records: list[BerRecord], target_ber: float) -> float:
    """Horizontal gap (dB) between a measured BER curve and the theory curve.

    The measured Eb/N0 at target_ber is found by log-linear interpolation
    between the bracketing sweep points, finite Eb/N0 only: toward a +inf
    point the interpolation would give inf or nan. The theory value comes
    from theory_ebn0_db. Raises if the records span more than one curve,
    repeat an Eb/N0 point, or do not bracket the target.
    """
    curve = {(r.alpha_num, r.alpha_den, r.carriers, r.samples, r.alphabet, r.decoder, r.iterations)
             for r in records}
    if len(curve) > 1 or len({r.ebn0_db for r in records}) < len(records):
        raise ValueError("records must form one curve, with one record per Eb/N0 point")
    # By Eb/N0: no two are equal.
    pts = sorted((r.ebn0_db, r.ber) for r in records if r.ber > 0 and math.isfinite(r.ebn0_db))
    for (db0, ber0), (db1, ber1) in zip(pts, pts[1:]):
        if ber0 >= target_ber >= ber1 and ber0 > ber1:
            frac = (math.log10(target_ber) - math.log10(ber0)) / (
                math.log10(ber1) - math.log10(ber0)
            )
            measured_db = db0 + frac * (db1 - db0)
            return measured_db - theory_ebn0_db(target_ber)
    raise ValueError(f"measured curve does not bracket BER {target_ber}")
