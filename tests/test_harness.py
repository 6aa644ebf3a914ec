"""Monte Carlo harness: references, intervals, sweep determinism."""

import dataclasses
import math

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
    RandomSource,
    SefdmConfig,
    StripeParams,
    confidence_interval,
    db_penalty,
    run_block,
    theoretical_ber,
    theory_ebn0_db,
)
from sefdm import harness
from sefdm.harness import BerRecord, SweepSpec, ber_sweep
from strategies import ALPHAS, least_samples


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
