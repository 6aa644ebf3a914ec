"""AWGN calibration and inter-carrier interference diagnostics."""

import math

import numpy as np
import pytest

from sefdm import (
    QAM4,
    DomainError,
    NoiseSpec,
    RandomSource,
    SefdmConfig,
    add_awgn,
    interference_continuous,
    interference_discrete,
    run_block,
    theoretical_ber,
    confidence_interval,
)


class TestNoiseSpec:
    def test_sigma2_convention(self):
        cfg = SefdmConfig(64, 64, 1, 1, QAM4)
        spec = NoiseSpec.from_config(0.0, cfg)
        # Eb = M * Es / bits_per_symbol = 64 * 2 / 2
        assert spec.sigma2 == pytest.approx(64.0)

    def test_infinite_ebn0_is_exact(self):
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        spec = NoiseSpec.from_config(math.inf, cfg)
        u = np.arange(8) + 1j * np.arange(8)
        assert np.array_equal(add_awgn(u, spec, RandomSource(0)), u)

    @pytest.mark.parametrize("ebn0_db", [math.nan, -math.inf])
    def test_nan_and_minus_inf_rejected(self, ebn0_db):
        with pytest.raises(DomainError):
            NoiseSpec.from_config(ebn0_db, SefdmConfig(8, 8, 1, 1, QAM4))

    @pytest.mark.parametrize("ebn0_db", [True, False, np.bool_(True), "4.0", 4 + 0j, None])
    def test_bool_and_non_real_rejected(self, ebn0_db):
        with pytest.raises(DomainError):
            NoiseSpec.from_config(ebn0_db, SefdmConfig(8, 8, 1, 1, QAM4))

    @pytest.mark.parametrize("ebn0_db", [4, np.int64(4), np.float32(4.0), np.float64(4.0)])
    def test_numpy_and_integer_ebn0_accepted(self, ebn0_db):
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        assert NoiseSpec.from_config(ebn0_db, cfg).sigma2 == pytest.approx(
            NoiseSpec.from_config(4.0, cfg).sigma2
        )
        assert NoiseSpec.from_config(np.float64(math.inf), cfg).sigma2 == 0.0

    @pytest.mark.parametrize("ebn0_db", [3083.0, 4000.0, 1e308])
    def test_overflowing_ebn0_rejected_with_a_hint(self, ebn0_db):
        # 10 ** (ebn0_db / 10) overflows a float above about 3082.5 dB
        with pytest.raises(DomainError, match="use inf"):
            NoiseSpec.from_config(ebn0_db, SefdmConfig(8, 8, 1, 1, QAM4))

    @pytest.mark.parametrize("ebn0_db", [-3090.0, -4000.0, -1e308])
    def test_underflowing_ebn0_rejected(self, ebn0_db):
        # the linear Eb/N0 underflows, so sigma2 would be infinite
        with pytest.raises(DomainError):
            NoiseSpec.from_config(ebn0_db, SefdmConfig(8, 8, 1, 1, QAM4))

    @pytest.mark.parametrize("ebn0_db", [-300.0, -3.0, 0.0, 4.5, 13.0, 300.0, 3082.0])
    def test_in_range_sigma2_unchanged(self, ebn0_db):
        cfg = SefdmConfig(16, 256, 5, 6, QAM4)
        eb = 256 * QAM4.energy / QAM4.bits_per_symbol
        assert NoiseSpec.from_config(ebn0_db, cfg).sigma2 == eb / 10.0 ** (ebn0_db / 10.0)

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_sigma2_rejected(self, sigma2):
        with pytest.raises(DomainError):
            NoiseSpec(1.0, sigma2)

    def test_overflowing_ebn0_has_zero_theoretical_ber(self):
        assert theoretical_ber(4000.0, QAM4) == 0.0
        assert theoretical_ber(1e308, QAM4) == 0.0


def _state(gen):
    return repr(gen.bit_generator.state)


def _reference_awgn(u, spec, gen):
    """u + sqrt(sigma2 / 2) * (re + 1j * im), the real draws first."""
    re = gen.standard_normal(np.shape(u))
    im = gen.standard_normal(np.shape(u))
    return np.asarray(u, dtype=complex) + math.sqrt(spec.sigma2 / 2.0) * (re + 1j * im)


class TestAwgnStream:
    """add_awgn draws real normals of u's shape, then imaginary ones, and adds
    them scaled; it builds the same values as the plain complex expression
    and leaves the generator where that expression leaves it."""

    SPEC = NoiseSpec.from_config(3.0, SefdmConfig(16, 256, 5, 6, QAM4))

    @pytest.mark.parametrize("shape", [(1,), (256,), (3, 256), (2, 3, 16), (0, 16), (1024, 128)])
    def test_matches_the_complex_expression(self, shape):
        source = RandomSource(31, 2)
        signal = RandomSource(30).generator()
        u = signal.standard_normal(shape) + 1j * signal.standard_normal(shape)
        pristine = u.copy()
        gen, twin = source.generator(), source.generator()
        got = add_awgn(u, self.SPEC, gen)
        assert np.array_equal(got, _reference_awgn(u, self.SPEC, twin))
        assert _state(gen) == _state(twin)
        assert np.array_equal(u, pristine)

    def test_real_input(self):
        u = np.arange(12.0).reshape(3, 4)
        gen, twin = RandomSource(32).generator(), RandomSource(32).generator()
        got = add_awgn(u, self.SPEC, gen)
        assert got.dtype == complex
        assert np.array_equal(got, _reference_awgn(u, self.SPEC, twin))

    def test_zero_d_input_gives_a_complex_scalar(self):
        gen, twin = RandomSource(33).generator(), RandomSource(33).generator()
        got = add_awgn(1 - 2j, self.SPEC, gen)
        want = _reference_awgn(1 - 2j, self.SPEC, twin)
        assert isinstance(got, np.complex128) and got == want
        assert _state(gen) == _state(twin)

    def test_zero_d_input_without_noise_gives_a_complex_scalar(self):
        # The same type as with noise; it used to be a 0-d array.
        got = add_awgn(1 - 2j, NoiseSpec(math.inf, 0.0), RandomSource(35).generator())
        assert isinstance(got, np.complex128) and got == 1 - 2j

    def test_no_noise_is_a_copy_and_draws_nothing(self):
        gen = RandomSource(34).generator()
        before = _state(gen)
        u = np.arange(6) + 1j
        got = add_awgn(u, NoiseSpec(math.inf, 0.0), gen)
        assert np.array_equal(got, u) and got is not u
        got[0] = 99
        assert u[0] == 1j
        assert _state(gen) == before


class TestAwgn:
    def test_sample_variance(self):
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        spec = NoiseSpec.from_config(3.0, cfg)
        noise = add_awgn(np.zeros(1_000_000), spec, RandomSource(10))
        var = np.mean(np.abs(noise) ** 2)
        assert abs(var - spec.sigma2) <= 0.01 * spec.sigma2

    def test_lag_one_autocorrelation(self):
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        spec = NoiseSpec.from_config(0.0, cfg)
        noise = add_awgn(np.zeros(1_000_000), spec, RandomSource(11))
        corr = np.abs(np.mean(noise[1:] * np.conj(noise[:-1]))) / spec.sigma2
        assert corr < 0.01

    def test_deterministic_given_stream(self):
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        spec = NoiseSpec.from_config(5.0, cfg)
        u = np.ones(32, complex)
        assert np.array_equal(
            add_awgn(u, spec, RandomSource(7)), add_awgn(u, spec, RandomSource(7))
        )

    def test_calibration_pins_sigma2_convention(self):
        # alpha=1 4-QAM matched demod matches Q(sqrt(2 rho)) at 4 dB
        cfg = SefdmConfig(64, 64, 1, 1, QAM4)
        bits, errors = run_block(cfg, 4.0, "ofdm", RandomSource(12), blocks=8000)
        lo, hi = confidence_interval(errors, bits)
        assert lo <= theoretical_ber(4.0, QAM4) <= hi

    @pytest.mark.parametrize(
        "rng", [5, None, "junk", np.random.RandomState(0), np.random.Philox(0)],
        ids=["int", "none", "str", "random-state", "bit-generator"],
    )
    def test_rng_that_is_not_a_generator_rejected(self, rng):
        # run_block died with an AttributeError inside the draws, and add_awgn
        # without noise returned a copy whatever its rng.
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        for ebn0_db in (5.0, math.inf):
            with pytest.raises(DomainError, match="rng"):
                add_awgn(np.ones(8, complex), NoiseSpec.from_config(ebn0_db, cfg), rng)
            with pytest.raises(DomainError, match="rng"):
                run_block(cfg, ebn0_db, "ofdm", rng)


class TestInterference:
    def test_orthogonal_alpha_vanishes(self):
        assert interference_continuous(3, 1, 1.0) == pytest.approx(0.0)
        assert interference_discrete(3, 1, 1.0, 64) == pytest.approx(0.0)

    def test_half_alpha_adjacent(self):
        # sinc(1/2)/pi * exp(i pi/2) = (2/pi) * i
        val = interference_continuous(1, 0, 0.5)
        assert val == pytest.approx(2j / np.pi)

    def test_phase_conjugates_under_swap(self):
        fwd = interference_continuous(2, 1, 0.7)
        rev = interference_continuous(1, 2, 0.7)
        assert rev == pytest.approx(np.conj(fwd))

    def test_same_carrier_rejected(self):
        with pytest.raises(DomainError):
            interference_continuous(2, 2, 0.8)
        with pytest.raises(DomainError):
            interference_discrete(2, 2, 0.8, 16)

    @pytest.mark.parametrize("n_samples", [0, -4])
    def test_non_positive_sample_count_rejected(self, n_samples):
        with pytest.raises(DomainError):
            interference_discrete(1, 0, 0.8, n_samples)

    @pytest.mark.parametrize("n, m", [(1.0, 0), (True, 0), (1, False), (2, np.float64(1.0))])
    def test_carriers_must_be_integers(self, n, m):
        # True used to be read as carrier 1.
        with pytest.raises(ValueError, match="must be an integer"):
            interference_continuous(n, m, 0.5)
        with pytest.raises(ValueError, match="must be an integer"):
            interference_discrete(n, m, 0.5, 16)

    @pytest.mark.parametrize("n_samples", [2.5, 16.0, True])
    def test_sample_count_must_be_an_integer(self, n_samples):
        # 2.5 used to return a value.
        with pytest.raises(ValueError, match="must be an integer"):
            interference_discrete(1, 0, 0.5, n_samples)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, True, 0.5j, "0.5", None])
    def test_alpha_must_be_a_finite_real(self, alpha):
        # A NaN alpha used to give nan+nanj.
        with pytest.raises(DomainError, match="alpha"):
            interference_continuous(1, 0, alpha)
        with pytest.raises(DomainError, match="alpha"):
            interference_discrete(1, 0, alpha, 16)

    def test_single_sample_has_no_rotation(self):
        # M=1: rotation factor exp(0) = 1 and the sinc ratio is unity
        assert interference_discrete(1, 0, 0.7, 1) == pytest.approx(1.0 + 0j)

    def test_magnification_converges(self):
        # at (n-m)*alpha = 0.833..., M = 4096, the magnitude ratio is within 1e-3 of 1
        cont = interference_continuous(1, 0, 5 / 6)
        disc = interference_discrete(1, 0, 5 / 6, 4096)
        assert abs(abs(disc) / abs(cont) - 1.0) <= 1e-3

    def test_discrete_magnitude_exceeds_continuous(self):
        for m_samples in (16, 64, 256):
            for delta in range(1, 6):
                cont = interference_continuous(delta, 0, 5 / 6)
                disc = interference_discrete(delta, 0, 5 / 6, m_samples)
                assert abs(disc) >= abs(cont)

    def test_discrete_tends_to_continuous(self):
        cont = interference_continuous(1, 0, 0.75)
        errs = [
            abs(interference_discrete(1, 0, 0.75, m) - cont)
            for m in (16, 256, 4096, 65536)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-4
