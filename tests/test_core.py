"""Alphabets, bit mapping, config validation, random streams."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from sefdm import (
    BPSK,
    QAM4,
    Alphabet,
    DimensionError,
    DomainError,
    RandomSource,
    SefdmConfig,
    bits_to_symbols,
    get_alphabet,
    symbols_to_bits,
)
from strategies import PSK8, generic_twin


class TestAlphabet:
    def test_symbol_energy(self):
        assert BPSK.energy == 1.0
        assert QAM4.energy == 2.0

    def test_bits_per_symbol(self):
        assert BPSK.bits_per_symbol == 1
        assert QAM4.bits_per_symbol == 2

    def test_bounding_boxes(self):
        assert BPSK.bounding_box == (-1.0, 1.0, 0.0, 0.0)
        assert QAM4.bounding_box == (-1.0, 1.0, -1.0, 1.0)

    def test_qam4_points_in_unit_box(self):
        for p in QAM4.points:
            assert abs(p.real) <= 1 and abs(p.imag) <= 1

    def test_gray_adjacency(self):
        # points sharing a coordinate differ in exactly one label bit
        for i, j in itertools.combinations(range(4), 2):
            pi, pj = QAM4.points[i], QAM4.points[j]
            if pi.real == pj.real or pi.imag == pj.imag:
                flips = sum(a != b for a, b in zip(QAM4.labels[i], QAM4.labels[j]))
                assert flips == 1, (pi, pj)

    def test_get_alphabet(self):
        assert get_alphabet("bpsk") is BPSK
        assert get_alphabet("QAM4") is QAM4
        with pytest.raises(DomainError):
            get_alphabet("qam16")

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Alphabet("bad", (1 + 0j, -1 + 0j, 1j), ((0,), (1,), (0,)))

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            Alphabet("bad", (1 + 0j, 1 + 0j), ((0,), (1,)))

    def test_rejects_labels_that_are_not_bits(self):
        with pytest.raises(ValueError):
            Alphabet("bad", (1 + 0j, -1 + 0j), ((0,), (2,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)], ids=["nan", "inf", "nan-imag"])
    def test_rejects_points_that_are_not_finite(self, bad):
        # A NaN point made the energy nan, and slice_symbols([0.9, -5.0]) [nan, nan].
        with pytest.raises(ValueError, match="finite"):
            Alphabet("bad", (1 + 0j, complex(bad)), ((0,), (1,)))

    @pytest.mark.parametrize(
        "labels",
        [((0,),), ((0,), (1,), (1,)), ((0, 0), (1,)), ((1,), (1,))],
        ids=["too-few", "too-many", "too-long", "repeated"],
    )
    def test_rejects_labels_that_do_not_name_each_point_once(self, labels):
        with pytest.raises(ValueError):
            Alphabet("bad", (1 + 0j, -1 + 0j), labels)


class TestBitMapping:
    def test_bpsk_anchor(self):
        assert bits_to_symbols([0], BPSK)[0] == 1 + 0j
        assert symbols_to_bits([-1 + 0j], BPSK).tolist() == [1]

    def test_qam4_anchor(self):
        assert bits_to_symbols([0, 0], QAM4)[0] == 1 + 1j

    def test_qam4_two_symbols(self):
        bits = symbols_to_bits([1 + 1j, -1 - 1j], QAM4)
        assert bits.tolist() == [0, 0, 1, 1]

    def test_empty(self):
        assert symbols_to_bits(np.zeros(0, complex), QAM4).size == 0
        assert bits_to_symbols(np.zeros(0, int), QAM4).size == 0

    @pytest.mark.parametrize("alphabet", [BPSK, QAM4, PSK8])
    def test_round_trip_exhaustive_n2(self, alphabet):
        bps = alphabet.bits_per_symbol
        for bits in itertools.product((0, 1), repeat=2 * bps):
            syms = bits_to_symbols(list(bits), alphabet)
            assert symbols_to_bits(syms, alphabet).tolist() == list(bits)

    def test_round_trip_all_symbol_vectors_n4(self):
        for combo in itertools.product(QAM4.points, repeat=4):
            vec = np.asarray(combo)
            back = bits_to_symbols(symbols_to_bits(vec, QAM4), QAM4)
            assert np.array_equal(back, vec)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            bits_to_symbols([0, 1, 0], QAM4)

    @pytest.mark.parametrize(
        "bits", [[0, 2], [1, -1], [0.7, 1.2], [0.0, np.nan], [[0, 1], [1, 3]]],
        ids=["two", "minus-one", "fractions", "nan", "batch"],
    )
    def test_values_that_are_not_bits_rejected(self, bits):
        # [0, 2] used to map to 1-1j, [1, -1] and [0.7, 1.2] to -1+1j.
        with pytest.raises(DomainError):
            bits_to_symbols(bits, QAM4)

    @pytest.mark.parametrize("bits", [[False, True], [0.0, 1.0], np.array([0, 1], np.uint8)])
    def test_bits_of_any_type_with_values_0_and_1_accepted(self, bits):
        assert bits_to_symbols(bits, QAM4).tolist() == [-1 + 1j]

    def test_non_alphabet_symbol(self):
        with pytest.raises(DomainError):
            symbols_to_bits([0.5 + 0.5j], QAM4)
        with pytest.raises(DomainError):
            symbols_to_bits([[1 + 1j, -1 - 1j], [1 - 1j, 1 + 0j]], QAM4)
        # Entries that a bare sign rule would label, on both paths.
        nan = complex(np.nan, 0.0)
        cases = [(QAM4, 1 + 0j), (QAM4, 2 + 2j), (QAM4, 1 + 1.0000000000000002j), (QAM4, nan)]
        cases += [(BPSK, 1 + 1e-300j), (BPSK, 0j), (BPSK, nan), (BPSK, complex(1.0, np.nan))]
        for alphabet, bad in cases:
            for alph in (alphabet, generic_twin(alphabet)):
                with pytest.raises(DomainError):
                    symbols_to_bits([alphabet.points[0], bad], alph)
        # -1-0j is the point -1: an imaginary -0.0 equals 0.
        for alph in (BPSK, generic_twin(BPSK)):
            assert symbols_to_bits([complex(-1.0, -0.0)], alph).tolist() == [1]

    @pytest.mark.parametrize("alphabet", [BPSK, QAM4])
    def test_closed_form_labels_are_the_alphabets(self, alphabet):
        # The closed forms hold the labels a second time; pin them to the table.
        points = alphabet.points_array()
        bits = symbols_to_bits(points, alphabet)
        assert bits.dtype == np.intp
        assert bits.tolist() == [bit for label in alphabet.labels for bit in label]
        assert np.array_equal(bits, symbols_to_bits(points, generic_twin(alphabet)))
        for point, label in zip(alphabet.points, alphabet.labels):
            for alph in (alphabet, generic_twin(alphabet)):
                bits = symbols_to_bits(point, alph)  # 0-d: one label
                assert bits.dtype == np.intp and bits.tolist() == list(label)

    @settings(max_examples=100, deadline=None)
    @given(
        alphabet=st.sampled_from([BPSK, QAM4, PSK8]),
        batch=array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        symbols=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_any_batch_shape(self, alphabet, batch, symbols, seed):
        shape = batch + (symbols * alphabet.bits_per_symbol,)
        bits = np.random.default_rng(seed).integers(0, 2, size=shape)
        back = symbols_to_bits(bits_to_symbols(bits, alphabet), alphabet)
        assert back.shape == bits.shape and np.array_equal(back, bits)

    def test_labels_out_of_point_order(self):
        # Labels 11, 00, 10, 01: neither the points' order nor a Gray ring.
        labels = ((1, 1), (0, 0), (1, 0), (0, 1))
        alphabet = Alphabet("custom", (2 + 0j, 1j, -3 + 0j, -0.5j), labels)
        reference = dict(zip(labels, alphabet.points))
        bits = np.random.default_rng(4).integers(0, 2, size=(3, 40))
        expected = [[reference[tuple(pair)] for pair in row.reshape(-1, 2)] for row in bits]
        assert np.array_equal(bits_to_symbols(bits, alphabet), np.array(expected))
        assert np.array_equal(symbols_to_bits(bits_to_symbols(bits, alphabet), alphabet), bits)

    def test_batch_shape(self):
        gen = np.random.default_rng(3)
        bits = gen.integers(0, 2, size=(5, 8))
        syms = bits_to_symbols(bits, QAM4)
        assert syms.shape == (5, 4)
        assert np.array_equal(symbols_to_bits(syms, QAM4), bits)


class TestConfig:
    def test_alpha_and_padding(self):
        cfg = SefdmConfig(16, 16, 5, 6, QAM4)
        assert cfg.alpha == pytest.approx(5 / 6)
        assert cfg.n_padded == 18
        assert cfg.bits_per_block == 32

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            SefdmConfig(4, 4, 2, 4, QAM4)  # not reduced
        with pytest.raises(ValueError):
            SefdmConfig(4, 4, 3, 2, QAM4)  # b > c

    def test_rejects_m_below_n(self):
        with pytest.raises(ValueError):
            SefdmConfig(8, 4, 1, 1, QAM4)

    @pytest.mark.parametrize(
        "dims",
        [(4.0, 4, 1, 2), (4, True, 1, 2), (4, 4, 1.0, 2), (4, 4, 1, np.float64(2)), ("4", 4, 1, 2)],
        ids=["float-carriers", "bool-samples", "float-alpha-num", "numpy-float-alpha-den", "str"],
    )
    def test_rejects_non_integer_dimensions(self, dims):
        with pytest.raises(ValueError):
            SefdmConfig(*dims, QAM4)

    def test_accepts_numpy_integers(self):
        cfg = SefdmConfig(np.int64(4), np.int32(8), np.uint8(1), np.int16(2), QAM4)
        assert cfg == SefdmConfig(4, 8, 1, 2, QAM4)

    def test_rejects_branches_that_do_not_fit(self):
        # each branch spans ceil(8/6) * 5 = 10 bins, more than M = 8
        with pytest.raises(DimensionError):
            SefdmConfig(8, 8, 5, 6, QAM4)
        SefdmConfig(8, 10, 5, 6, QAM4)


class TestRandomSource:
    def test_same_seed_same_sequence(self):
        a = RandomSource(42, 3).generator().standard_normal(16)
        b = RandomSource(42, 3).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(42, 0).generator().standard_normal(16)
        b = RandomSource(42, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RandomSource(1).generator().standard_normal(16)
        b = RandomSource(2).generator().standard_normal(16)
        assert not np.array_equal(a, b)
