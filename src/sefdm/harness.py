"""Monte Carlo BER measurement with binomial confidence intervals.

A sweep point is one (alpha, Eb/N0) pair. Each point owns a Philox stream
derived from the master seed and the point's grid index, and draws its
batches from it in its own order. A sweep runs its points in lockstep: at
each step every point still short of its stop rule draws its next batch,
and consecutive same-alpha batches of the step are decoded together as one
stack whose decoder state fits _STACK_STATE_BYTES (a larger batch is a stack
of its own). Every step after the channel works row by row, so a point's
results are bit-identical however its batches are stacked and however the
points are split across workers. A record's wall_time_s is its point's share, by
blocks, of the times of the stacks it was decoded in. A run's stacks share
one workspace, which holds the OFDM channel's buffers and the bit decisions
so that their pages stay mapped from stack to stack; every array taken from
it is written before it is read, so no stack sees another's data.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

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
    _sign_bits,
    _Workspace,
    bits_to_symbols,
    get_alphabet,
    symbols_to_bits,
)
from .detect import (
    StripeParams,
    _is_real,
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

# Symbol periods a point simulates per step of a sweep, drawn from its own
# stream; fixed so that its results do not depend on how its batches are
# stacked or its sweep is split across workers.
_BATCH_PERIODS = 1024

# Bytes of decoder state per stack: consecutive same-alpha batches of one
# step share one receiver call while their rows' state, 8 N bytes per row for
# a real alphabet and 16 N for a complex one, fits; a larger batch stands
# alone. Per-block stack times under glibc's default malloc at 64 / 128 /
# 256 / 512 KB of state (medians of 15, us), by N/M, alpha and alphabet:
# 16/16 5/6 QAM4 12.2 / 10.7 / 10.2 / 10.4; 16/16 4/5 QAM4 11.8 / 10.1 / 9.2 /
# 10.2; 16/256 5/6 QAM4 24.5 / 22.6 / 22.0 / 22.2; 64/64 1/2 BPSK 17.6 / 15.8 /
# 16.8 / 16.7. The bound is the BPSK knee: end to end, a 256 KB bound read
# x0.86-0.94 of it on the three N = M sweeps (BENCH_21.json).
_STACK_STATE_BYTES = 2**17


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

    This is the one-batch stack of ber_sweep's pipeline (_run_stack): a
    sweep's point counts what its batches would count here, one by one from
    its stream.

    Pipeline: random bits -> symbols -> interleaved modulation -> AWGN ->
    decode -> bits; deterministic given the rng stream. The stripe decoder
    and the OFDM baseline take their matched-filter outputs straight from
    the symbols and add_awgn's draws (see sefdm.detect); ML decodes the M
    samples. `params` sets the stripe decoder's iteration count. The
    decoder must pass the rules SweepSpec checks: a known name, alpha = 1 for
    ofdm, the ML guard for ml. `blocks` must be a positive integer.
    """
    _check_int("blocks", blocks)
    if blocks < 1:
        raise ValueError(f"blocks must be positive, got {blocks}")
    _check_decoder(decoder, cfg)
    noise = NoiseSpec.from_config(ebn0_db, cfg)
    batch = (noise, _as_generator(rng), blocks)
    (counts,) = _run_stack(cfg, decoder, params, [batch], _Workspace())
    return counts


def _stacked(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _run_stack(cfg: SefdmConfig, decoder: str, params: StripeParams, batches, ws: _Workspace):
    """Simulate one stack of batches of one configuration; returns each
    batch's (bits sent, bit errors).

    `batches` holds (NoiseSpec, generator, blocks) triples, each with its own
    generator. Each batch draws its bits, then its noise, from its generator
    as it would alone, and its channel sees only its own rows. Bit mapping,
    the receiver and the bit decisions then take the stacked rows in one
    call each; bit errors are counted per row and summed per batch. The OFDM
    channel's buffers, its y and the BPSK and QAM4 bit decisions come from
    `ws`; every other array of the stack is freed on return.
    """
    width = cfg.n_carriers * cfg.alphabet.bits_per_symbol
    starts = np.cumsum([0] + [blocks for _, _, blocks in batches[:-1]])
    parts = [(noise, gen, slice(start, start + blocks))
             for (noise, gen, blocks), start in zip(batches, starts)]

    def per_batch(channel, stack):
        return _stacked([channel(stack[rows], noise, gen) for noise, gen, rows in parts])

    def ofdm(stack):  # each batch writes its own rows of one reused y
        y = ws.take("y", stack.shape, complex)
        for noise, gen, rows in parts:
            _ofdm_channel(stack[rows], cfg, noise.sigma2, gen, y[rows], ws)
        return y

    bits = _stacked([gen.integers(0, 2, size=(blocks, width)) for _, gen, blocks in batches])
    # The symbols, the stripe decoder's y and the soft estimates are made as
    # call arguments, never bound to a name here: a Python callee owns its
    # arguments, so the symbols are freed once their channel returns, and y
    # once the stripe decoder has made its per-branch copies.
    symbols = lambda: bits_to_symbols(bits, cfg.alphabet)
    if decoder == "stripe":
        channel = lambda s, noise, gen: _matched_channel(s, cfg, noise.sigma2, gen)
        estimates = lambda: _stripe_batch(per_batch(channel, symbols()), cfg, params)
    elif decoder == "ofdm":
        estimates = lambda: ofdm(symbols())
    else:  # ML's hard symbols are its estimates
        samples = lambda: per_batch(add_awgn, modulate_interleaved(symbols(), cfg))
        estimates = lambda: ml_decode(samples(), cfg)
    if cfg.alphabet in (BPSK, QAM4):
        decided = _sign_bits(estimates(), cfg.alphabet, ws)
        wrong = np.not_equal(decided, bits, out=decided)
    else:
        wrong = symbols_to_bits(slice_symbols(estimates(), cfg.alphabet), cfg.alphabet) != bits
    errors = np.add.reduceat(np.count_nonzero(wrong, axis=1), starts)
    return [(blocks * width, int(errs)) for (_, _, blocks), errs in zip(batches, errors)]


@dataclass
class _Point:
    """A sweep point's stream, noise and running totals."""

    cfg: SefdmConfig
    noise: NoiseSpec
    gen: np.random.Generator
    periods: int = 0
    bits: int = 0
    errors: int = 0
    wall_time_s: float = 0.0


def _stacks(batches):
    """Consecutive same-configuration (point, blocks) batches, grouped into
    stacks whose decoder state fits _STACK_STATE_BYTES; a larger batch stands
    alone."""
    stack, size = [], 0
    for point, blocks in batches:
        row_bytes = (8 if _is_real(point.cfg.alphabet) else 16) * point.cfg.n_carriers
        if stack and (point.cfg != stack[0][0].cfg
                      or (size + blocks) * row_bytes > _STACK_STATE_BYTES):
            yield stack
            stack, size = [], 0
        stack.append((point, blocks))
        size += blocks
    if stack:
        yield stack


def _run_points(spec: SweepSpec, indices) -> list[BerRecord]:
    """Run the grid points `indices` in lockstep; records in their order.

    At each step every point short of its stop rule draws its next batch of
    at most _BATCH_PERIODS periods; the step's batches run stack by stack.
    A point's wall_time_s is its share, by blocks, of its stacks' times.
    """
    params = StripeParams(spec.iterations)
    cap = int(spec.max_symbol_periods)
    points = []
    for index in indices:
        alpha_index, ebn0_index = divmod(index, len(spec.ebn0_db))
        cfg = spec.config(*spec.alphas[alpha_index])
        noise = NoiseSpec.from_config(spec.ebn0_db[ebn0_index], cfg)
        points.append(_Point(cfg, noise, RandomSource(spec.seed, index).generator()))

    ws = _Workspace()
    active = points
    while active:
        step = [(p, min(_BATCH_PERIODS, cap - p.periods)) for p in active]
        for stack in _stacks(step):
            start = time.perf_counter()
            counts = _run_stack(stack[0][0].cfg, spec.decoder, params,
                                [(p.noise, p.gen, blocks) for p, blocks in stack], ws)
            share = (time.perf_counter() - start) / sum(blocks for _, blocks in stack)
            for (p, blocks), (bits, errors) in zip(stack, counts):
                p.periods += blocks
                p.bits += bits
                p.errors += errors
                p.wall_time_s += share * blocks
        active = [p for p in active if p.periods < cap and p.errors < spec.min_bit_errors]
    return [_record(spec, p) for p in points]


def _record(spec: SweepSpec, point: _Point) -> BerRecord:
    ci_low, ci_high = confidence_interval(point.errors, point.bits)
    return BerRecord(
        alpha_num=point.cfg.alpha_num,
        alpha_den=point.cfg.alpha_den,
        carriers=spec.carriers,
        samples=spec.samples,
        alphabet=point.cfg.alphabet.name,
        decoder=spec.decoder,
        iterations=spec.iterations,
        ebn0_db=point.noise.ebn0_db,
        bits=point.bits,
        errors=point.errors,
        ber=point.errors / point.bits,
        ci_low=ci_low,
        ci_high=ci_high,
        seed=spec.seed,
        wall_time_s=point.wall_time_s,
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
    points run serially in this process. With w workers the grid is split
    into w contiguous runs of points, each run in lockstep by one worker.
    `workers` must be a positive integer.
    """
    _check_int("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    count = len(spec.alphas) * len(spec.ebn0_db)
    workers = min(workers, count, _usable_cores())
    if workers <= 1:
        return _run_points(spec, range(count))
    runs = [range(count * i // workers, count * (i + 1) // workers) for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [record for run in pool.map(functools.partial(_run_points, spec), runs)
                for record in run]


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
