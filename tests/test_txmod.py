"""Transmitter paths: carrier matrix, direct and interleaved modulation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sefdm import (
    BPSK,
    QAM4,
    DimensionError,
    RandomSource,
    SefdmConfig,
    bits_to_symbols,
    carrier_matrix,
    modulate_direct,
    modulate_interleaved,
)
from sefdm import detect
from strategies import configs


def _random_symbols(cfg, gen):
    bits = gen.integers(0, 2, size=cfg.bits_per_block)
    return bits_to_symbols(bits, cfg.alphabet)


def brute_force_modulate(s, cfg):
    """Independent double-loop evaluation of the sampled signal sum."""
    n, m_samp = cfg.n_carriers, cfg.n_samples
    b, c = cfg.alpha_num, cfg.alpha_den
    u = np.zeros(m_samp, dtype=complex)
    for m in range(m_samp):
        for k in range(n):
            u[m] += s[k] * np.exp(2j * np.pi * k * m * b / (c * m_samp))
    return u


def _reference_interleaved(s, cfg):
    """The per-branch transmitter: for every one of the c branches a fresh
    zeroed spectrum, its unnormalised inverse DFT, and a multiply by carrier
    k's samples (the carrier matrix's expression, extended to c rows), summed
    into a zeroed output."""
    s = np.asarray(s, dtype=complex)
    flat = s.reshape(-1, cfg.n_carriers)
    m_samp = cfg.n_samples
    b, c = cfg.alpha_num, cfg.alpha_den
    n = np.arange(c)[:, None]
    m = np.arange(m_samp)[None, :]
    rows = np.exp(2j * np.pi * n * m * b / (c * m_samp))
    u = np.zeros((flat.shape[0], m_samp), dtype=complex)
    for k in range(c):
        carriers = flat[:, k::c]
        spectrum = np.zeros_like(u)
        spectrum[:, : carriers.shape[1] * b : b] = carriers
        u += np.fft.ifft(spectrum, axis=1, norm="forward") * rows[k]
    return u.reshape(s.shape[:-1] + (m_samp,))


class TestCarrierMatrix:
    def test_single_entry(self):
        cfg = SefdmConfig(1, 1, 1, 1, BPSK)
        assert carrier_matrix(cfg) == pytest.approx(np.array([[1.0]]))

    def test_alpha_one_is_idft_matrix(self):
        cfg = SefdmConfig(4, 4, 1, 1, BPSK)
        n, m = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        expected = np.exp(2j * np.pi * n * m / 4)
        assert carrier_matrix(cfg) == pytest.approx(expected)

    def test_half_alpha_entry(self):
        cfg = SefdmConfig(2, 2, 1, 2, BPSK)
        assert carrier_matrix(cfg)[1, 1] == pytest.approx(1j)

    def test_unit_modulus_and_first_row_col(self):
        cfg = SefdmConfig(6, 12, 2, 3, QAM4)
        mat = carrier_matrix(cfg)
        assert np.abs(mat) == pytest.approx(np.ones_like(mat, dtype=float))
        assert mat[0] == pytest.approx(np.ones(12))
        assert mat[:, 0] == pytest.approx(np.ones(6))


def _receiver_arrays(alphabet):
    """Getters of the receiver's cached arrays for cfg with `alphabet`."""
    def front(cfg):
        return detect._matched_filter(dataclasses.replace(cfg, alphabet=alphabet))

    getters = {
        f"{alphabet.name}-weights{k}": lambda cfg, k=k: front(cfg).weights[k] for k in range(3)
    }
    getters[f"{alphabet.name}-signal"] = lambda cfg: front(cfg).signal
    getters.update({
        f"{alphabet.name}-noise{i}": lambda cfg, i=i: front(cfg).noise[i] for i in range(2)
    })
    if alphabet == QAM4:
        getters.update({"matched": lambda cfg: front(cfg).matched,
                        "gram": lambda cfg: front(cfg).gram})
    return getters


_CACHED = {"carrier_matrix": carrier_matrix, **_receiver_arrays(QAM4), **_receiver_arrays(BPSK)}


class TestCachedArrays:
    @pytest.mark.parametrize("get", _CACHED.values(), ids=_CACHED.keys())
    def test_read_only(self, get):
        cfg = SefdmConfig(6, 12, 2, 3, QAM4)
        pristine = get(cfg).copy()
        array = get(cfg)
        with pytest.raises(ValueError):
            array *= 2
        assert np.array_equal(get(cfg), pristine)


class TestModulateDirect:
    def test_zero_in_zero_out(self):
        cfg = SefdmConfig(8, 10, 5, 6, QAM4)
        assert modulate_direct(np.zeros(8), cfg) == pytest.approx(np.zeros(10))

    def test_single_carrier_is_constant(self):
        cfg = SefdmConfig(1, 7, 2, 3, QAM4)
        u = modulate_direct([1 - 1j], cfg)
        assert u == pytest.approx(np.full(7, 1 - 1j))

    def test_against_brute_force(self):
        cfg = SefdmConfig(8, 10, 5, 6, QAM4)
        s = _random_symbols(cfg, RandomSource(1).generator())
        u = modulate_direct(s, cfg)
        oracle = brute_force_modulate(s, cfg)
        assert np.max(np.abs(u - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_dimension_mismatch(self):
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        with pytest.raises(DimensionError):
            modulate_direct(np.zeros(4), cfg)


class TestPartitionMerge:
    """The partition of the carriers into the c interleaved branch groups
    K = k::c, as the stripe decoder's branch weights hold it."""

    @staticmethod
    def _groups(cfg):
        # Branch k's weights zero the rows of its own carriers: row n for a
        # real alphabet, rows 2n and 2n+1 otherwise. Every other carrier's
        # Gram entries with K are non-zero, since gcd(b, c) = 1.
        groups = []
        for weights in detect._matched_filter(cfg).weights:
            rows = weights.reshape(cfg.n_carriers, -1)  # carrier n's rows side by side
            groups.append(np.flatnonzero(~rows.any(axis=1)).tolist())
        return groups

    def test_alpha_half(self):
        assert self._groups(SefdmConfig(4, 4, 1, 2, QAM4)) == [[0, 2], [1, 3]]

    def test_alpha_three_quarters(self):
        assert self._groups(SefdmConfig(4, 4, 3, 4, QAM4)) == [[0], [1], [2], [3]]

    def test_every_symbol_appears_once(self):
        # every carrier lies in exactly one branch group, the group of its
        # index mod c, whether the weights are complex or real
        for alphabet in (QAM4, BPSK):
            groups = self._groups(SefdmConfig(10, 12, 5, 6, alphabet))
            assert sorted(sum(groups, [])) == list(range(10))
            for k, carriers in enumerate(groups):
                assert all(n % 6 == k for n in carriers)


class TestModulateInterleaved:
    def test_alpha_one_reduces_to_idft(self):
        cfg = SefdmConfig(8, 16, 1, 1, QAM4)
        s = _random_symbols(cfg, RandomSource(3).generator())
        spectrum = np.zeros(16, complex)
        spectrum[:8] = s
        assert modulate_interleaved(s, cfg) == pytest.approx(np.fft.ifft(spectrum) * 16)

    def test_matches_direct(self):
        cfg = SefdmConfig(12, 12, 5, 6, QAM4)
        s = _random_symbols(cfg, RandomSource(4).generator())
        u_direct = modulate_direct(s, cfg)
        u_inter = modulate_interleaved(s, cfg)
        assert np.max(np.abs(u_inter - u_direct)) <= 1e-9 * np.max(np.abs(u_direct))

    def test_matches_direct_when_c_does_not_divide_m(self):
        # the decomposition needs no divisibility between c and M
        for n, m, b, c in [(16, 16, 5, 6), (16, 16, 4, 5), (4, 128, 3, 5)]:
            cfg = SefdmConfig(n, m, b, c, QAM4)
            s = _random_symbols(cfg, RandomSource(5).generator())
            u_direct = modulate_direct(s, cfg)
            u_inter = modulate_interleaved(s, cfg)
            assert np.max(np.abs(u_inter - u_direct)) <= 1e-9 * np.max(np.abs(u_direct))

    @settings(max_examples=100, deadline=None)
    @given(cfg=configs(), seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_for_any_config(self, cfg, seed):
        gen = RandomSource(seed).generator()
        s = bits_to_symbols(gen.integers(0, 2, size=(4, cfg.bits_per_block)), cfg.alphabet)
        u_direct = modulate_direct(s, cfg)
        u_inter = modulate_interleaved(s, cfg)
        assert np.max(np.abs(u_inter - u_direct)) <= 1e-9 * np.max(np.abs(u_direct))

    @settings(max_examples=100, deadline=None)
    @given(cfg=configs(), seed=st.integers(0, 2**32 - 1),
           batch=st.sampled_from([(), (5,), (2, 3), (0,)]))
    def test_bit_identical_to_the_per_branch_reference(self, cfg, seed, batch):
        # The reused spectrum, the skipped branches and branch 0's skipped
        # multiply change no bit of the output, for a vector, a batch, a nested batch
        # and an empty batch alike.
        gen = RandomSource(seed).generator()
        shape = batch + (cfg.n_carriers,)
        s = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        u = modulate_interleaved(s, cfg)
        assert u.shape == batch + (cfg.n_samples,)
        assert np.array_equal(u, _reference_interleaved(s, cfg))

    @pytest.mark.parametrize("n, m, b, c", [(4, 128, 3, 5), (1, 1, 1, 6), (1, 5, 1, 6), (2, 7, 5, 6)])
    def test_bit_identical_with_empty_branches(self, n, m, b, c):
        # N < c: branches N..c-1 carry no carrier and are skipped.
        cfg = SefdmConfig(n, m, b, c, QAM4)
        s = _random_symbols(cfg, RandomSource(10).generator())
        batch = np.stack([s, 2 * s, -1j * s])
        assert np.array_equal(modulate_interleaved(s, cfg), _reference_interleaved(s, cfg))
        assert np.array_equal(modulate_interleaved(batch, cfg), _reference_interleaved(batch, cfg))

    def test_input_is_not_modified(self):
        cfg = SefdmConfig(9, 15, 2, 3, QAM4)
        s = _random_symbols(cfg, RandomSource(11).generator())
        pristine = s.copy()
        modulate_interleaved(s, cfg)
        assert np.array_equal(s, pristine)

    def test_subsystems_sum_to_direct(self):
        # the signal is the sum of the c branch signals, each carrying one group
        cfg = SefdmConfig(12, 24, 5, 6, QAM4)
        s = _random_symbols(cfg, RandomSource(6).generator())
        carrier = np.arange(12)
        total = sum(modulate_interleaved(np.where(carrier % 6 == k, s, 0), cfg) for k in range(6))
        assert total == pytest.approx(modulate_direct(s, cfg))

    def test_subsystem_zero_and_rotation_identity(self):
        cfg = SefdmConfig(12, 12, 5, 6, QAM4)
        assert modulate_interleaved(np.zeros(12, complex), cfg) == pytest.approx(np.zeros(12))
        # carrier 0's samples are exactly 1, so branch 0 needs no multiply
        assert np.array_equal(carrier_matrix(cfg)[0], np.ones(12))

    def test_single_subsystem_input_is_additive(self):
        # branch k alone is plain OFDM on bins 0, b, 2b, ... times carrier k's
        # samples, row k of the carrier matrix
        for n, m, b, c in [(12, 12, 5, 6), (9, 15, 2, 3)]:
            cfg = SefdmConfig(n, m, b, c, QAM4)
            s = _random_symbols(cfg, RandomSource(7).generator())
            for k in range(c):
                s_k = np.zeros(n, complex)
                s_k[k::c] = s[k::c]  # subsystem k only
                spectrum = np.zeros(m, complex)
                spectrum[np.arange(len(s[k::c])) * b] = s[k::c]
                expected = np.fft.ifft(spectrum) * m * carrier_matrix(cfg)[k]
                assert modulate_interleaved(s_k, cfg) == pytest.approx(expected)

    def test_linearity(self):
        cfg = SefdmConfig(9, 15, 2, 3, QAM4)
        gen = RandomSource(8).generator()
        s1 = gen.standard_normal(9) + 1j * gen.standard_normal(9)
        s2 = gen.standard_normal(9) + 1j * gen.standard_normal(9)
        lhs = modulate_interleaved(2.5 * s1 + s2, cfg)
        rhs = 2.5 * modulate_interleaved(s1, cfg) + modulate_interleaved(s2, cfg)
        assert lhs == pytest.approx(rhs)

    def test_parseval_energy(self):
        # E[sum |U|^2] = N * M * Es over random symbol draws
        cfg = SefdmConfig(8, 12, 2, 3, QAM4)
        gen = RandomSource(9).generator()
        bits = gen.integers(0, 2, size=(10_000, cfg.bits_per_block))
        from sefdm import bits_to_symbols

        u = modulate_interleaved(bits_to_symbols(bits, QAM4), cfg)
        mean_energy = np.mean(np.sum(np.abs(u) ** 2, axis=1))
        expected = cfg.n_carriers * cfg.n_samples * QAM4.energy
        assert abs(mean_energy - expected) <= 0.02 * expected
