"""Monte Carlo harness: references, intervals, sweep determinism."""

import dataclasses
import importlib.util
import itertools
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sefdm import (
    BPSK,
    QAM4,
    Alphabet,
    CapacityError,
    DomainError,
    NoiseSpec,
    RandomSource,
    SefdmConfig,
    StripeParams,
    add_awgn,
    bits_to_symbols,
    confidence_interval,
    db_penalty,
    ml_decode,
    modulate_interleaved,
    run_block,
    slice_symbols,
    symbols_to_bits,
    theoretical_ber,
    theory_ebn0_db,
)
from sefdm import harness
from sefdm.core import _Workspace
from sefdm.detect import _is_real, _matched_channel, _ofdm_channel, _stripe_batch
from sefdm.harness import BerRecord, SweepSpec, ber_sweep
from strategies import ALPHAS, PAM4, PSK8, least_samples

# Every alphabet the decoders' tails decide: the two with closed forms, the
# real PAM4 and the complex 8-PSK.
_ALPHABETS = pytest.mark.parametrize(
    "alphabet", [BPSK, QAM4, PAM4, PSK8], ids=["bpsk", "qam4", "pam4", "8psk"])


def _two_batches(cfg, ebn0s):
    """Two 96-block batches at the two Eb/N0s, each with its own stream, and the streams' sources."""
    noises = [NoiseSpec.from_config(ebn0_db, cfg) for ebn0_db in ebn0s]
    sources = [RandomSource(64, i) for i in range(len(noises))]
    return [(noise, source.generator(), 96) for noise, source in zip(noises, sources)], sources


def _strip_wall(records):
    return [dataclasses.replace(r, wall_time_s=0.0) for r in records]


@st.composite
def _small_specs(draw):
    """Sweeps of at most four points over any decoder, up to two batches per point."""
    decoder = draw(st.sampled_from(harness.DECODERS))
    carriers = draw(st.integers(1, 6))
    if decoder == "ofdm":
        alphas = [(1, 1)]
    else:
        alphas = draw(st.lists(st.sampled_from(ALPHAS), min_size=1, max_size=2, unique=True))
    least = least_samples(carriers, alphas)
    return SweepSpec(
        carriers=carriers,
        samples=draw(st.integers(least, 2 * least)),
        alphas=tuple(alphas),
        ebn0_db=tuple(draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=2, unique=True))),
        alphabet=draw(st.sampled_from(["bpsk", "qam4"])),
        decoder=decoder,
        iterations=draw(st.integers(1, 5)),
        min_bit_errors=draw(st.integers(1, 200)),
        max_symbol_periods=draw(st.integers(1, 2048)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestTheoreticalBer:
    def test_zero_db(self):
        assert theoretical_ber(0.0, QAM4) == pytest.approx(0.07865, abs=1e-5)

    def test_eight_db(self):
        assert theoretical_ber(8.0, BPSK) == pytest.approx(1.909e-4, rel=1e-3)

    def test_infinite_ebn0(self):
        assert theoretical_ber(math.inf, BPSK) == 0.0

    def test_unsupported_alphabet(self):
        pam4 = Alphabet(
            "pam4", (3 + 0j, 1 + 0j, -1 + 0j, -3 + 0j),
            ((0, 0), (0, 1), (1, 1), (1, 0)),
        )
        with pytest.raises(DomainError):
            theoretical_ber(4.0, pam4)
        # The check is on the points, not the name.
        impostor = dataclasses.replace(pam4, name="qam4")
        with pytest.raises(DomainError):
            theoretical_ber(6.0, impostor)

    @pytest.mark.parametrize("ebn0_db", [math.nan, -math.inf, True, False, "6", None, 6 + 0j])
    def test_bad_ebn0_rejected(self, ebn0_db):
        # The Eb/N0 rule of NoiseSpec.from_config. NaN used to give nan, -inf
        # 0.5, and True read as 1 dB.
        with pytest.raises(DomainError, match="Eb/N0"):
            theoretical_ber(ebn0_db, QAM4)

    def test_inverse(self):
        for target in (1e-2, 1e-3, 1e-4):
            db = theory_ebn0_db(target)
            assert theoretical_ber(db, BPSK) == pytest.approx(target, rel=1e-9)

    @pytest.mark.parametrize("target", [0.0, 0.5, -1e-3, 0.7])
    def test_inverse_outside_its_domain(self, target):
        with pytest.raises(DomainError):
            theory_ebn0_db(target)

    def test_matches_scipy_erfc(self):
        special = pytest.importorskip("scipy.special")
        for db in np.linspace(-10.0, 20.0, 301).tolist():
            reference = 0.5 * special.erfc(math.sqrt(10.0 ** (db / 10.0)))
            assert theoretical_ber(db, QAM4) == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_inverse_matches_scipy_erfcinv(self):
        special = pytest.importorskip("scipy.special")
        for target in np.geomspace(1e-12, 0.4, 241).tolist():
            reference = 10.0 * math.log10(special.erfcinv(2.0 * target) ** 2)
            assert theory_ebn0_db(target) == pytest.approx(reference, rel=0.0, abs=1e-12)


class TestConfidenceInterval:
    def test_rule_of_three(self):
        assert confidence_interval(0, 10**6) == (0.0, 3e-6)

    def test_normal_approximation(self):
        lo, hi = confidence_interval(50, 1000)
        assert lo == pytest.approx(0.0365, abs=2e-4)
        assert hi == pytest.approx(0.0635, abs=2e-4)

    def test_all_errors_clamped(self):
        lo, hi = confidence_interval(100, 100)
        assert hi == 1.0 and 0.0 <= lo <= 1.0

    def test_invalid_counts(self):
        with pytest.raises(DomainError):
            confidence_interval(5, 0)
        with pytest.raises(DomainError):
            confidence_interval(11, 10)

    @pytest.mark.parametrize("errors, bits", [(True, 10), (1.5, 10), (1, 10.0), (0, True),
                                              (np.float64(2.0), 10)])
    def test_counts_that_are_not_integers(self, errors, bits):
        # (True, 10) and (1.5, 10) used to return intervals.
        with pytest.raises(ValueError, match="must be an integer"):
            confidence_interval(errors, bits)


class TestRunBlock:
    def test_noiseless_stripe_has_no_errors(self):
        cfg = SefdmConfig(12, 12, 5, 6, QAM4)
        bits, errors = run_block(cfg, math.inf, "stripe", RandomSource(60), blocks=50)
        assert bits == 50 * 24 and errors == 0

    def test_same_seed_same_count(self):
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        a = run_block(cfg, 4.0, "ofdm", RandomSource(61), blocks=500)
        b = run_block(cfg, 4.0, "ofdm", RandomSource(61), blocks=500)
        assert a == b

    def test_ofdm_baseline_matches_theory_at_zero_db(self):
        cfg = SefdmConfig(64, 64, 1, 1, QAM4)
        bits, errors = run_block(cfg, 0.0, "ofdm", RandomSource(62), blocks=7813)
        lo, hi = confidence_interval(errors, bits)
        assert lo <= theoretical_ber(0.0, QAM4) <= hi

    def test_unknown_decoder(self):
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        with pytest.raises(DomainError):
            run_block(cfg, 4.0, "mmse", RandomSource(0))

    def test_decoder_rules_checked(self):
        # Decoded as OFDM, N8/M8 alpha 1/2 QAM4 used to give 234 bit errors
        # in 1,600 bits with no noise.
        with pytest.raises(DomainError, match="alpha = 1"):
            run_block(SefdmConfig(8, 8, 1, 2, QAM4), math.inf, "ofdm", RandomSource(0), blocks=100)
        with pytest.raises(CapacityError):
            run_block(SefdmConfig(12, 12, 5, 6, QAM4), 4.0, "ml", RandomSource(0))

    @pytest.mark.parametrize("blocks", [0, -1, 2.5, True, np.float64(2.0)])
    def test_bad_block_count_rejected(self, blocks):
        # 0 used to return (0, 0); -1, 2.5 and True failed inside numpy.
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        with pytest.raises(ValueError, match="blocks"):
            run_block(cfg, 4.0, "ofdm", RandomSource(0), blocks=blocks)

    def test_iteration_count_reaches_decoder(self, monkeypatch):
        seen = []
        decode = harness._stripe_batch

        def spy(y, cfg, params):
            seen.append(params.iterations)
            return decode(y, cfg, params)

        monkeypatch.setattr(harness, "_stripe_batch", spy)
        cfg = SefdmConfig(8, 8, 1, 2, QAM4)
        run_block(cfg, 4.0, "stripe", RandomSource(63), blocks=4)
        run_block(cfg, 4.0, "stripe", RandomSource(63), blocks=4, params=StripeParams(3))
        spec = SweepSpec(
            carriers=8, samples=8, alphas=((1, 2),), ebn0_db=(4.0,), iterations=7,
            min_bit_errors=10**9, max_symbol_periods=4, seed=1,
        )
        ber_sweep(spec)
        assert seen == [20, 3, 7]

    @_ALPHABETS
    def test_ml_counts_are_the_labels_of_its_symbols(self, alphabet):
        # ML's tail decides its hard symbols by the slicer's rule: the counts
        # are those of symbols_to_bits(ml_decode(r)), from the same streams.
        cfg = SefdmConfig(4, 16, 3, 4, alphabet)
        batches, sources = _two_batches(cfg, (0.0, 6.0))
        counts = harness._run_stack(cfg, "ml", StripeParams(), batches, _Workspace())
        for (noise, _, blocks), source, (sent, errors) in zip(batches, sources, counts):
            gen = source.generator()
            bits = gen.integers(0, 2, size=(blocks, cfg.bits_per_block))
            r = add_awgn(modulate_interleaved(bits_to_symbols(bits, alphabet), cfg), noise, gen)
            decided = symbols_to_bits(ml_decode(r, cfg), alphabet)
            assert (sent, errors) == (bits.size, np.count_nonzero(decided != bits))
        assert counts[0][1] > counts[1][1] > 0

    @pytest.mark.parametrize("decoder, alpha", [("stripe", (3, 4)), ("ofdm", (1, 1))], ids=["stripe", "ofdm"])
    @_ALPHABETS
    def test_counts_are_the_labels_of_the_sliced_estimates(self, decoder, alpha, alphabet):
        # The stripe and OFDM tails decide their soft estimates, the stripe
        # decoder's or y itself: the counts are those of
        # symbols_to_bits(slice_symbols(...)) of them, from the same streams.
        cfg = SefdmConfig(4, 16, *alpha, alphabet)
        batches, sources = _two_batches(cfg, (0.0, 3.0))  # at 6 dB, OFDM BPSK errs in none of 384 bits
        counts = harness._run_stack(cfg, decoder, StripeParams(), batches, _Workspace())
        channel = _matched_channel if decoder == "stripe" else _ofdm_channel
        for (noise, _, blocks), source, (sent, errors) in zip(batches, sources, counts):
            gen = source.generator()
            bits = gen.integers(0, 2, size=(blocks, cfg.bits_per_block))
            symbols = bits_to_symbols(bits, alphabet)
            y = np.empty(symbols.shape, float if _is_real(alphabet) else complex)
            channel(symbols, cfg, noise.sigma2, gen, y, _Workspace())
            est = _stripe_batch(y, cfg, StripeParams()) if decoder == "stripe" else y
            decided = symbols_to_bits(slice_symbols(est, alphabet), alphabet)
            assert (sent, errors) == (bits.size, np.count_nonzero(decided != bits))
        assert counts[0][1] > counts[1][1] > 0

    def test_keeps_every_name_the_tracer_wraps(self):
        # The benchmark's tracer looks up each name of HARNESS_CALLS on the
        # harness module, so a layer call the harness stops importing breaks
        # a traced run. Read from bench/spans.py, never edited here.
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.HARNESS_CALLS
        assert [name for name in spans.HARNESS_CALLS if not hasattr(harness, name)] == []


class TestBerSweep:
    def _small_spec(self, **overrides):
        base = dict(
            carriers=8, samples=8, alphas=((1, 1), (1, 2)), ebn0_db=(2.0, 4.0),
            alphabet="qam4", decoder="stripe", min_bit_errors=50,
            max_symbol_periods=2000, seed=5,
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_noiseless_point_reports_zero(self):
        spec = self._small_spec(alphas=((1, 1),), ebn0_db=(math.inf,), max_symbol_periods=100)
        (record,) = ber_sweep(spec)
        assert record.ber == 0.0 and record.ci_low == 0.0
        assert record.ci_high == pytest.approx(3.0 / record.bits)

    def test_deterministic(self):
        spec = self._small_spec()
        assert _strip_wall(ber_sweep(spec)) == _strip_wall(ber_sweep(spec))

    def test_parallel_matches_serial(self):
        spec = self._small_spec()
        assert _strip_wall(ber_sweep(spec, workers=1)) == _strip_wall(ber_sweep(spec, workers=2))

    # Each example starts a process pool, so the count stays low.
    @settings(max_examples=8, deadline=None)
    @given(spec=_small_specs())
    def test_parallel_matches_serial_for_drawn_specs(self, spec):
        assert _strip_wall(ber_sweep(spec, workers=1)) == _strip_wall(ber_sweep(spec, workers=2))

    @pytest.mark.parametrize(
        "workers, cores, grid, pool",
        [(1000, 8, 3, 3), (1000, 2, 3, 2), (2, 8, 4, 2), (1000, 1, 3, None),
         (4, 8, 1, None), (1, 8, 4, None)],
    )
    def test_pool_is_capped_by_points_and_cores(self, monkeypatch, workers, cores, grid, pool):
        # A recording stand-in takes the pool's place, so no process starts.
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cores)))
        spec = self._small_spec(alphas=((1, 2),), ebn0_db=tuple(range(grid)), max_symbol_periods=8)
        records = ber_sweep(spec, workers=workers)
        assert started == ([] if pool is None else [pool])
        assert _strip_wall(records) == _strip_wall(ber_sweep(spec))

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, 1.5, "2", np.float64(2.0)])
    def test_bad_worker_count_rejected(self, workers):
        # 0, -3, True and 2.5 used to run; 1.5 and "2" failed inside the pool or min.
        with pytest.raises(ValueError, match="workers"):
            ber_sweep(self._small_spec(max_symbol_periods=8), workers=workers)

    def test_monotone_in_ebn0(self):
        spec = self._small_spec(
            alphas=((1, 1),), ebn0_db=(0.0, 4.0, 8.0), decoder="ofdm",
            min_bit_errors=10**9, max_symbol_periods=4000,
        )
        records = ber_sweep(spec)
        bers = [r.ber for r in records]
        assert bers[0] > bers[1] > bers[2]

    def test_ml_guard_checked_at_spec_construction(self):
        with pytest.raises(Exception):
            SweepSpec(
                carriers=12, samples=12, alphas=((5, 6),), ebn0_db=(4.0,),
                alphabet="qam4", decoder="ml",
            )

    @pytest.mark.parametrize("ebn0_db", [math.nan, -math.inf])
    def test_nan_and_minus_inf_ebn0_rejected(self, ebn0_db):
        with pytest.raises(DomainError):
            self._small_spec(ebn0_db=(4.0, ebn0_db))

    @pytest.mark.parametrize(
        "change",
        [
            {"alphas": ()}, {"ebn0_db": ()}, {"seed": -1},
            {"alphas": ((1, 2), (1, 2))}, {"ebn0_db": (4.0, 0.0, 4.0)}, {"ebn0_db": (0.0, -0.0)},
            # Integer fields take integers only: a bool or a float used to be
            # written to the CSV, or to fail mid-sweep.
            {"iterations": True}, {"iterations": 2.5}, {"max_symbol_periods": 2.5},
            {"min_bit_errors": 50.0}, {"seed": 5.0}, {"carriers": 8.0}, {"samples": False},
            {"alphas": ((1.0, 2),)},
            # Eb/N0 points are real numbers: True used to be written to the CSV.
            {"ebn0_db": (True,)}, {"ebn0_db": (4.0, False)}, {"ebn0_db": ("4",)},
            {"ebn0_db": (4 + 0j,)},
            {"min_bit_errors": 0}, {"max_symbol_periods": 0}, {"max_symbol_periods": -5},
        ],
        ids=["no-alpha", "no-ebn0", "negative-seed", "repeated-alpha", "repeated-ebn0", "signed-zero",
             "bool-iterations", "float-iterations", "float-periods", "float-errors", "float-seed",
             "float-carriers", "bool-samples", "float-alpha-part", "bool-ebn0", "bool-second-ebn0",
             "str-ebn0", "complex-ebn0", "zero-errors", "zero-periods", "negative-periods"],
    )
    def test_empty_grid_and_negative_seed_rejected(self, change):
        with pytest.raises(ValueError):
            self._small_spec(**change)

    def test_iterations_validated_at_spec_construction(self):
        with pytest.raises(ValueError):
            self._small_spec(iterations=0)

    def test_numpy_integers_accepted(self):
        spec = self._small_spec(
            carriers=np.int64(8), iterations=np.int32(3), max_symbol_periods=np.uint16(10),
            seed=np.int64(5), alphas=((np.int64(1), np.int64(2)),),
        )
        assert ber_sweep(spec, workers=1)[0].bits == 10 * 16

    def test_ofdm_decoder_needs_alpha_one(self):
        self._small_spec(alphas=((1, 1),), decoder="ofdm")
        with pytest.raises(DomainError):
            self._small_spec(alphas=((1, 1), (3, 4)), decoder="ofdm")

    def test_ci_coverage(self):
        # 95% intervals should contain the known truth in >= 90% of repeats
        cfg = SefdmConfig(16, 16, 1, 1, QAM4)
        truth = theoretical_ber(0.0, QAM4)
        hits = 0
        for rep in range(200):
            bits, errors = run_block(cfg, 0.0, "ofdm", RandomSource(1000 + rep), blocks=400)
            lo, hi = confidence_interval(errors, bits)
            hits += lo <= truth <= hi
        assert hits >= 180


def _reference_sweep(spec):
    """Each point alone through run_block, in _BATCH_PERIODS batches drawn
    from its own stream, under the sweep's stop rule: the records a sweep
    gives however it stacks its points' batches."""
    params = StripeParams(spec.iterations)
    records = []
    for index, (alpha, ebn0) in enumerate(itertools.product(spec.alphas, spec.ebn0_db)):
        cfg = spec.config(*alpha)
        gen = RandomSource(spec.seed, index).generator()
        periods = bits = errors = 0
        while periods < spec.max_symbol_periods and errors < spec.min_bit_errors:
            batch = min(harness._BATCH_PERIODS, spec.max_symbol_periods - periods)
            sent, wrong = run_block(cfg, ebn0, spec.decoder, gen, blocks=batch, params=params)
            periods, bits, errors = periods + batch, bits + sent, errors + wrong
        ci_low, ci_high = confidence_interval(errors, bits)
        records.append(BerRecord(
            alpha_num=alpha[0], alpha_den=alpha[1], carriers=spec.carriers,
            samples=spec.samples, alphabet=spec.alphabet, decoder=spec.decoder,
            iterations=spec.iterations, ebn0_db=ebn0, bits=bits, errors=errors,
            ber=errors / bits, ci_low=ci_low, ci_high=ci_high, seed=spec.seed, wall_time_s=0.0,
        ))
    return records


# The stripe gate configurations (03-06; 04 and 05 share N16/M16) and gate
# 02's OFDM baseline, as (carriers, samples, alphas, decoder).
_GATES = {
    "n16-m256": (16, 256, ((5, 6),), "stripe"),
    "n16-m16": (16, 16, ((5, 6), (4, 5)), "stripe"),
    "n64-m64-1/2": (64, 64, ((1, 2),), "stripe"),
    "n64-ofdm": (64, 64, ((1, 1),), "ofdm"),
}


class TestLockstep:
    """ber_sweep runs a sweep's points in lockstep and decodes the same-alpha
    batches of one step as stacks; its records must equal each point's run
    alone."""

    @staticmethod
    def _spec(gate, alphabet, **overrides):
        carriers, samples, alphas, decoder = _GATES[gate]
        base = dict(
            carriers=carriers, samples=samples, alphas=alphas, ebn0_db=(4.0, 6.0, 8.0),
            alphabet=alphabet, decoder=decoder, min_bit_errors=10**9, seed=11,
        )
        base.update(overrides)
        return SweepSpec(**base)

    # 1: stacks of one-row batches; 64: three points in one stack; 300: each
    # batch a stack of its own; 1100: a full batch, then a partial one.
    @pytest.mark.parametrize("cap", [1, 64, 300, 1100])
    @pytest.mark.parametrize("alphabet", ["bpsk", "qam4"])
    @pytest.mark.parametrize("gate", _GATES)
    def test_records_equal_each_point_alone(self, gate, alphabet, cap):
        spec = self._spec(gate, alphabet, max_symbol_periods=cap)
        assert _strip_wall(ber_sweep(spec, workers=1)) == _reference_sweep(spec)

    # Each case starts a process pool, so only a few run with two workers.
    @pytest.mark.parametrize("cap", [1, 64, 1100])
    def test_records_equal_each_point_alone_with_two_workers(self, cap):
        spec = self._spec("n16-m16", "qam4", max_symbol_periods=cap)
        assert _strip_wall(ber_sweep(spec, workers=2)) == _reference_sweep(spec)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_points_that_stop_at_different_steps(self, workers):
        # Gate 02's BPSK baseline meets 300 errors within one batch at 0 dB,
        # within two at 6 dB, and never at 12 dB, which stops on its cap.
        spec = self._spec("n64-ofdm", "bpsk", ebn0_db=(0.0, 6.0, 12.0),
                          min_bit_errors=300, max_symbol_periods=3000)
        records = _strip_wall(ber_sweep(spec, workers=workers))
        assert [r.bits // 64 for r in records] == [1024, 2048, 3000]
        assert records == _reference_sweep(spec)

    def test_short_batches_stack_and_drop_out(self, monkeypatch):
        # 40-period batches: several steps, two alphas, stacks of up to six
        # batches that lose their points as these meet the error target.
        monkeypatch.setattr(harness, "_BATCH_PERIODS", 40)
        spec = self._spec("n16-m16", "qam4", ebn0_db=(3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0),
                          min_bit_errors=100, max_symbol_periods=600)
        records = _strip_wall(ber_sweep(spec, workers=1))
        assert len({r.bits for r in records}) > 3
        assert records == _reference_sweep(spec)

    # Sweeps other than four 64-block QAM4 points per alpha, by gate and
    # decoder: stripe-critical's 256-block points, five to an alpha.
    _CALL_SWEEPS = {
        ("n16-m16", "stripe"): dict(alphas=((5, 6),), ebn0_db=(7.0, 8.0, 9.0, 10.0, 11.0),
                                    max_symbol_periods=256),
        ("n64-m64-1/2", "stripe"): dict(alphabet="bpsk", ebn0_db=(5.0, 6.0, 7.0, 8.0, 9.0),
                                        max_symbol_periods=256),
    }

    @pytest.mark.parametrize(
        "gate, decoder, calls",
        # Every tail decides QAM4 bits by the sign rule: no slice_symbols or
        # symbols_to_bits call.
        [("n16-m256", "stripe", {"bits_to_symbols": [256], "_stripe_batch": [256],
                                 "slice_symbols": [], "symbols_to_bits": []}),
         ("n16-m16", "ml", {"bits_to_symbols": [256, 256], "modulate_interleaved": [256, 256],
                            "add_awgn": [64] * 8, "ml_decode": [256, 256],
                            "symbols_to_bits": []}),
         # 16 N bytes of state per QAM4 row: 512 rows fit the bound, 768 do not.
         ("n16-m16", "stripe", {"bits_to_symbols": [512, 512, 256],
                                "_stripe_batch": [512, 512, 256]}),
         # 8 N bytes per BPSK row at N = 64: 256 rows fit, 512 do not.
         ("n64-m64-1/2", "stripe", {"_stripe_batch": [256] * 5})],
    )
    def test_one_call_per_stack(self, monkeypatch, gate, decoder, calls):
        # Four 64-block points per alpha form one 256-block stack; each
        # point's channel sees only its own rows. Larger points stack up to
        # the bound on the decoder's state. Looked up on the harness module
        # at call time, as bench/spans.py wraps them.
        rows = {name: [] for name in calls}
        for name in calls:
            def counted(x, *args, fn=getattr(harness, name), seen=rows[name]):
                seen.append(len(x))
                return fn(x, *args)

            monkeypatch.setattr(harness, name, counted)
        carriers, samples, alphas, _ = _GATES[gate]
        if decoder == "ml":
            carriers, samples = 4, 16
        sweep = dict(alphabet="qam4", ebn0_db=(4.0, 5.0, 6.0, 7.0), max_symbol_periods=64)
        sweep.update(self._CALL_SWEEPS.get((gate, decoder), {}))
        spec = self._spec(gate, carriers=carriers, samples=samples, decoder=decoder, **sweep)
        ber_sweep(spec, workers=1)
        assert rows == calls

    @pytest.mark.parametrize("alphabet", [BPSK, QAM4], ids=["bpsk", "qam4"])
    def test_ofdm_stack_allocates_only_its_bits_and_symbols(self, alphabet):
        # Once a workspace has served a stack, the next stack's channel,
        # decisions and error count use its buffers: the traced peak is the
        # sent bits and their symbols, and per-row counts. A (B, M) channel
        # temporary would add 512 KB here, a (B, N) bool array 64 KB.
        cfg = SefdmConfig(64, 64, 1, 1, alphabet)
        batches = [(NoiseSpec.from_config(4.0, cfg), RandomSource(12).generator(), 1024)]
        ws = _Workspace()
        harness._run_stack(cfg, "ofdm", StripeParams(), batches, ws)
        tracemalloc.start()
        try:
            harness._run_stack(cfg, "ofdm", StripeParams(), batches, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sent = 1024 * cfg.bits_per_block * np.dtype(np.int64).itemsize  # Generator.integers
        symbols = 1024 * cfg.n_carriers * np.dtype(complex).itemsize
        assert peak <= sent + symbols + 16 * 1024

    def test_stripe_stack_draws_into_the_workspace(self):
        # Once a workspace has served a stack, the next stack's channel draws
        # and projects its noise, and writes y, in its buffers: the traced
        # peak, the sent bits and the decoder's state, is too small to hold
        # the (B, M) draw buffer.
        cfg = SefdmConfig(16, 256, 5, 6, QAM4)
        batches = [(NoiseSpec.from_config(4.0, cfg), RandomSource(13).generator(), 256)]
        ws = _Workspace()
        harness._run_stack(cfg, "stripe", StripeParams(), batches, ws)
        tracemalloc.start()
        try:
            harness._run_stack(cfg, "stripe", StripeParams(), batches, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * cfg.n_samples * np.dtype(float).itemsize

    def test_wall_time_is_the_points_share_of_their_stack(self):
        # Four equal points share one stack: equal shares that add up to no
        # more than the sweep took.
        spec = self._spec("n16-m256", "qam4", ebn0_db=(4.0, 5.0, 6.0, 7.0), max_symbol_periods=64)
        start = time.perf_counter()
        records = ber_sweep(spec, workers=1)
        elapsed = time.perf_counter() - start
        (wall,) = {r.wall_time_s for r in records}
        assert 0.0 < 4 * wall <= elapsed


class TestDbPenalty:
    def _record(self, ebn0, ber):
        return BerRecord(
            alpha_num=1, alpha_den=1, carriers=8, samples=8, alphabet="qam4",
            decoder="ofdm", iterations=20, ebn0_db=ebn0, bits=10**6,
            errors=int(ber * 10**6), ber=ber, ci_low=ber, ci_high=ber,
            seed=0, wall_time_s=0.0,
        )

    def test_theory_curve_has_zero_penalty(self):
        records = [self._record(db, theoretical_ber(db, QAM4)) for db in (6.0, 7.0, 8.0)]
        assert db_penalty(records, 1e-3) == pytest.approx(0.0, abs=0.02)

    def test_shifted_curve_measures_shift(self):
        records = [self._record(db, theoretical_ber(db - 1.5, QAM4)) for db in (7.0, 8.0, 9.0, 10.0)]
        assert db_penalty(records, 1e-3) == pytest.approx(1.5, abs=0.05)

    def test_mixed_curves_raise(self):
        # Sorting two alphas' records together by Eb/N0 would interpolate
        # across curves.
        one = [self._record(db, theoretical_ber(db, QAM4)) for db in (6.0, 7.0, 8.0)]
        half = [dataclasses.replace(r, alpha_den=2, ber=2 * r.ber) for r in one]
        with pytest.raises(ValueError, match="one curve"):
            db_penalty(one + half, 1e-3)
        with pytest.raises(ValueError, match="one record per Eb/N0"):
            db_penalty(one + one[:1], 1e-3)

    def test_unbracketed_target_raises(self):
        records = [self._record(db, theoretical_ber(db, QAM4)) for db in (0.0, 1.0)]
        with pytest.raises(ValueError):
            db_penalty(records, 1e-6)

    @pytest.mark.parametrize(
        "points",
        [((12.0, 1e-3), (13.0, 5e-4), (math.inf, 1e-5)), ((13.0, 1e-4), (math.inf, 5e-5))],
        ids=["bracketed-toward-inf", "target-at-the-last-finite-point"],
    )
    def test_no_interpolation_toward_inf(self, points):
        # Interpolating toward a +inf point gave inf and nan; the finite
        # points alone do not bracket 1e-4.
        with pytest.raises(ValueError, match="does not bracket"):
            db_penalty([self._record(db, ber) for db, ber in points], 1e-4)
