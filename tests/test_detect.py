"""Receivers: matched-filter front end, gravity/truncate/slice, stripe and ML decoding."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from sefdm import (
    BPSK,
    QAM4,
    Alphabet,
    CapacityError,
    DimensionError,
    DomainError,
    NoiseSpec,
    RandomSource,
    SefdmConfig,
    StripeParams,
    add_awgn,
    bits_to_symbols,
    gravity,
    ml_decode,
    modulate_direct,
    modulate_interleaved,
    run_block,
    slice_symbols,
    stripe_decode,
    stripe_decode_soft,
    symbols_to_bits,
    truncate,
)
from sefdm import detect
from sefdm.core import _sign_bits, _Workspace
from strategies import PSK8, configs, estimate_batches, generic_twin, slicer_inputs


# Alphabets without closed forms, for the generic paths: the real PAM4 and
# the complex 8-PSK (PSK8, shared with tests/test_core.py).
_PAM4 = Alphabet("pam4", (3 + 0j, 1 + 0j, -1 + 0j, -3 + 0j), ((0, 0), (0, 1), (1, 1), (1, 0)))
_H = math.sqrt(0.5)


def _random_symbols(cfg, seed):
    gen = RandomSource(seed).generator()
    return bits_to_symbols(gen.integers(0, 2, size=cfg.bits_per_block), cfg.alphabet)


def _reference_gravity(est, alphabet):
    """gravity with a trailing (..., P) point axis, complex differences and an
    np.where fix-up of exact hits: the formulation the decoder used before
    the point axis moved first. Kept as the reference it must agree with."""
    e = np.asarray(est, dtype=complex)
    points = alphabet.points_array()
    d2 = np.abs(e[..., None] - points) ** 2
    hit = d2 < detect._EXACT_HIT_SQ
    with np.errstate(divide="ignore"):
        w = 1.0 / d2
    # Exact hits would divide by ~0; replace their weight rows by an indicator.
    w = np.where(hit.any(axis=-1)[..., None], hit.astype(float), w)
    out = (w @ points) / w.sum(axis=-1)
    return complex(out) if np.isscalar(est) or e.ndim == 0 else out


def _reference_stripe_batch(r: np.ndarray, cfg: SefdmConfig, params: StripeParams) -> np.ndarray:
    """The stripe decoder in the M-sample time domain: c FFT/IFFT round trips
    per sweep, re-modulating every branch, in carrier order and complex
    arithmetic, annealed by _reference_gravity. Kept as the reference that the
    matched-filter decoder must agree with; (B, M) in, (B, N) soft out."""
    n_car, m_samp, c = cfg.n_carriers, cfg.n_samples, cfg.alpha_den
    if r.shape[-1] != m_samp:
        raise DimensionError(f"expected {m_samp} samples, got {r.shape[-1]}")
    n_blocks = r.shape[0]
    total_iter = params.iterations

    groups = [np.arange(k, n_car, c) for k in range(c)]
    layouts = [(syms // c * cfg.alpha_num, syms) for syms in groups]
    # Branch k's rotation is carrier k's samples, exp(2 pi i m k b / (c M)).
    m = np.arange(m_samp)
    rots = [np.exp(2j * np.pi * m * k * cfg.alpha_num / (c * m_samp)) for k in range(c)]
    re_lo, re_hi, im_lo, im_hi = cfg.alphabet.bounding_box

    s_hat = np.zeros((n_blocks, n_car), dtype=complex)
    branch = [np.zeros((n_blocks, m_samp), dtype=complex) for _ in range(c)]
    total = np.zeros((n_blocks, m_samp), dtype=complex)

    def remodulate(k: int) -> np.ndarray:
        bins, syms = layouts[k]
        spectrum = np.zeros((n_blocks, m_samp), dtype=complex)
        spectrum[:, bins] = s_hat[:, syms]
        return np.fft.ifft(spectrum, axis=1) * m_samp * rots[k]

    for j in range(1, total_iter + 1):
        for k in range(c):
            bins, syms = layouts[k]
            resid = r - (total - branch[k])
            spectrum = np.fft.fft(resid * np.conj(rots[k]), axis=1) / m_samp
            est = spectrum[:, bins]
            est = np.clip(est.real, re_lo, re_hi) + 1j * np.clip(est.imag, im_lo, im_hi)
            s_hat[:, syms] = est
            # The updated branch is visible to the remaining k within this sweep.
            new_branch = remodulate(k)
            total += new_branch - branch[k]
            branch[k] = new_branch
        s_hat = s_hat * (total_iter - j) / total_iter + (j / total_iter) * _reference_gravity(
            s_hat, cfg.alphabet
        )
        if j < total_iter:
            for k in range(c):
                new_branch = remodulate(k)
                total += new_branch - branch[k]
                branch[k] = new_branch
    return s_hat


def _allocating_stripe_batch(y: np.ndarray, cfg: SefdmConfig, params: StripeParams) -> np.ndarray:
    """detect._stripe_batch as first written in the matched-filter domain: a
    fresh array for every product, pull and padded copy, every branch written
    back through the state's own view, and annealing in the state's own
    dtype. Kept as the reference whose bytes the allocation-free decoder must
    reproduce."""
    total_iter = params.iterations
    lo, hi, _, _ = cfg.alphabet.bounding_box
    if detect._is_real(cfg.alphabet):
        front, generic = y.real, lambda s: gravity(s, cfg.alphabet).real
    else:
        front, generic = y, lambda s: gravity(s, cfg.alphabet)
    pull = {BPSK: detect._pull_bpsk, QAM4: detect._pull_qam4}.get(cfg.alphabet, generic)
    rows = len(y)
    if rows % detect._ROW_TILE:
        front = np.pad(front, ((0, -rows % detect._ROW_TILE), (0, 0)))
    s_hat = np.zeros(front.shape, front.dtype)
    s_float = s_hat.view(float)
    c = cfg.alpha_den
    sweep = [(np.ascontiguousarray(front[:, k::c]).view(float), s_hat[:, k::c], weights)
             for k, weights in enumerate(detect._matched_filter(cfg).weights)]
    for j in range(1, total_iter + 1):
        for y_k, s_k, weights in sweep:
            est = s_float @ weights
            est += y_k
            np.maximum(est, lo, out=est)
            np.minimum(est, hi, out=est)
            s_k[...] = est.view(s_hat.dtype)
        pulled = pull(s_hat)
        s_hat *= total_iter - j
        s_hat /= total_iter
        s_hat += (j / total_iter) * pulled
    return s_hat[:rows]


class TestDemodSubsystem:
    """One branch (subsystem) demodulated by the matched-filter front end."""

    @pytest.mark.parametrize("k", range(6))
    def test_round_trip(self, k):
        # G[K, K] = I, so a signal carrying branch k alone comes back exactly on K
        cfg = SefdmConfig(12, 12, 5, 6, QAM4)
        s = np.zeros(12, complex)
        s[k::6] = _random_symbols(cfg, k + 1)[k::6]
        y, _ = detect._matched_outputs(modulate_interleaved(s, cfg), cfg)
        assert y[0, k::6] == pytest.approx(s[k::6])

    def test_alpha_one_is_plain_ofdm(self):
        # y is the first N bins of the M-point DFT over M, for M = N and M > N
        gen = RandomSource(9).generator()
        for m_samp in (8, 20):
            cfg = SefdmConfig(8, m_samp, 1, 1, QAM4)
            r = gen.standard_normal((3, m_samp)) + 1j * gen.standard_normal((3, m_samp))
            y, _ = detect._matched_outputs(r, cfg)
            assert y == pytest.approx(np.fft.fft(r)[..., :8] / m_samp)


class TestGravity:
    def test_exact_point_returned(self):
        for p in QAM4.points:
            assert gravity(p, QAM4) == p

    def test_origin_is_symmetric_fixed_point(self):
        assert gravity(0j, QAM4) == pytest.approx(0j)

    def test_bpsk_weighted_centroid(self):
        assert gravity(0.5 + 0j, BPSK) == pytest.approx(0.8 + 0j)

    def test_maps_into_convex_hull(self):
        gen = RandomSource(30).generator()
        est = gen.uniform(-1, 1, 200) + 1j * gen.uniform(-1, 1, 200)
        pulled = gravity(est, QAM4)
        assert np.all(np.abs(pulled.real) <= 1 + 1e-12)
        assert np.all(np.abs(pulled.imag) <= 1 + 1e-12)

    def test_preserves_bpsk_decision(self):
        # slicing before or after gravity gives the same hard decision
        for x in np.linspace(-2, 2, 81):
            if x == 0:
                continue
            assert slice_symbols(gravity(x + 0j, BPSK), BPSK) == slice_symbols(x + 0j, BPSK)

    @settings(max_examples=200, deadline=None)
    @given(
        alphabet=st.sampled_from([BPSK, QAM4]),
        shape=st.sampled_from([None, (), (1, 1), (4, 16), (3, 64)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_reference(self, alphabet, shape, seed):
        # shape None is a Python scalar. About a third of the estimates sit
        # exactly on a point, and a sixth within 1e-13 of one.
        gen = np.random.default_rng(seed)
        size = () if shape is None else shape
        est = gen.uniform(-2, 2, size) + 1j * gen.uniform(-2, 2, size)
        near = alphabet.points_array()[gen.integers(0, len(alphabet.points), size)]
        kind = gen.integers(0, 6, size)
        est = np.where(kind < 2, near, np.where(kind == 2, near + 1e-13 * (1 - 1j), est))
        if shape is None:
            est = complex(est)
        pulled, reference = gravity(est, alphabet), _reference_gravity(est, alphabet)
        assert type(pulled) is type(reference)
        assert np.shape(pulled) == np.shape(reference) == size
        assert np.max(np.abs(np.asarray(pulled) - reference), initial=0.0) <= 1e-12
        hits = np.asarray(kind <= 2)
        assert np.array_equal(np.asarray(pulled)[hits], near[hits])

    def test_bpsk_pull_is_gravity_on_the_real_line(self):
        # The decoder's BPSK state is real; its pull 2x / (1 + x^2) must be
        # gravity toward +-1, exact points and near misses included.
        edges = [1.0, -1.0, 1 + 1e-13, 1 - 1e-13, -1 + 1e-13, -1 - 1e-13, 0.0, -0.0]
        wide = [0.5, -0.5, 1.5, -1.5, 3.0, -7.0, 1e3, -1e6, 1e-300]
        x = np.concatenate([edges, wide, RandomSource(31).generator().uniform(-4, 4, 500)])
        pulled = detect._pull_bpsk(x)
        assert pulled.dtype == float
        assert np.max(np.abs(pulled - _reference_gravity(x, BPSK))) <= 1e-15
        assert pulled[0] == 1.0 and pulled[1] == -1.0

    @settings(max_examples=300, deadline=None)
    @given(
        shape=array_shapes(min_dims=2, max_dims=2, max_side=5),
        seed=st.integers(0, 2**32 - 1),
        corner=st.sampled_from(QAM4.points),
        offset=st.sampled_from([0.0, 1e-13, 1e-8, 0.5, 1.0, 2.0]),
    )
    @example(shape=(1, 1), seed=0, corner=1 + 1j, offset=0.0)
    @example(shape=(1, 1), seed=0, corner=-1 - 1j, offset=1e-13)
    def test_qam4_pull_is_gravity_over_the_bounding_box(self, shape, seed, corner, offset):
        # The decoder's QAM4 pull in closed form must be gravity toward
        # +-1+-1j wherever truncation leaves an estimate. The first entry is
        # the corner moved toward the origin by `offset` of its length (a near
        # miss at 1e-13, the origin at 1, the opposite corner at 2), the last
        # the midpoint of a box edge, and the rest uniform over the box.
        gen = np.random.default_rng(seed)
        est = gen.uniform(-1, 1, shape) + 1j * gen.uniform(-1, 1, shape)
        est.flat[-1] = corner.real
        est.flat[0] = corner * (1 - offset)
        pulled = detect._pull_qam4(est)
        assert pulled.dtype == complex and pulled.shape == shape
        assert np.max(np.abs(pulled - _reference_gravity(est, QAM4))) <= 1e-12
        if offset == 0.0:
            assert pulled.flat[0] == corner

    def test_qam4_pull_fixes_each_point_exactly(self):
        points = np.tile(QAM4.points_array(), (3, 2))
        assert np.array_equal(detect._pull_qam4(points), points)


class TestTruncate:
    def test_clamps_to_box(self):
        assert truncate(1.3 - 0.4j, QAM4) == pytest.approx(1.0 - 0.4j)

    def test_idempotent_inside_box(self):
        assert truncate(0.3 + 0.2j, QAM4) == 0.3 + 0.2j

    def test_bpsk_box_has_no_imaginary_extent(self):
        assert truncate(0.7 + 0.3j, BPSK) == pytest.approx(0.7 + 0.0j)


class TestSlice:
    def test_nearest_quadrant(self):
        assert slice_symbols(0.2 + 0.9j, QAM4) == 1 + 1j

    def test_exact_point(self):
        for p in QAM4.points:
            assert slice_symbols(p, QAM4) == p

    def test_tie_breaks_to_first_point(self):
        assert slice_symbols(0j, QAM4) == QAM4.points[0]

    @pytest.mark.parametrize(
        "alphabet, est, expected",
        [
            # Re = +-0 with Im < 0: -1-1j precedes 1-1j. A per-axis sign gives 1-1j.
            (QAM4, complex(0.0, -0.5), -1 - 1j),
            (QAM4, complex(-0.0, -0.5), -1 - 1j),
            (QAM4, complex(0.0, 0.5), 1 + 1j),
            (QAM4, complex(-0.0, 0.5), 1 + 1j),
            # Im = +-0: the upper point comes first on either side.
            (QAM4, complex(0.5, 0.0), 1 + 1j),
            (QAM4, complex(0.5, -0.0), 1 + 1j),
            (QAM4, complex(-0.5, 0.0), -1 + 1j),
            (QAM4, complex(-0.5, -0.0), -1 + 1j),
            # On both axes, all four tie.
            (QAM4, complex(-0.0, -0.0), 1 + 1j),
            (QAM4, complex(0.0, -0.0), 1 + 1j),
            (QAM4, complex(-0.0, 0.0), 1 + 1j),
            (QAM4, 1 - 1j, 1 - 1j),
            (QAM4, -1 - 1j, -1 - 1j),
            (QAM4, -1 + 1j, -1 + 1j),
            (BPSK, complex(-0.0, 0.0), 1 + 0j),
            (BPSK, complex(-0.0, -0.7), 1 + 0j),
            (BPSK, complex(0.0, 0.7), 1 + 0j),
            (BPSK, complex(-0.5, -0.0), -1 + 0j),
            (BPSK, complex(-1.0, -0.0), -1 + 0j),
            (BPSK, 1 + 0j, 1 + 0j),
        ],
    )
    def test_ties_break_in_ring_order(self, alphabet, est, expected):
        # Bit for bit, signed zeros included; the generic slicer ties exactly here.
        for alph in (alphabet, generic_twin(alphabet)):
            out = slice_symbols(est, alph)
            assert np.array(out).tobytes() == np.array(expected).tobytes()
            out = slice_symbols([est], alph)
            assert out.tobytes() == np.array([expected]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(alphabet=st.sampled_from([BPSK, QAM4]), est=st.lists(slicer_inputs(), max_size=12))
    # Float distances tie here, exact ones do not.
    @example(alphabet=QAM4, est=[complex(-1e-300, 0.0)])
    def test_closed_forms_are_the_exact_nearest_point(self, alphabet, est):
        def exact(z):
            x, y = Fraction(z.real), Fraction(z.imag)
            d2 = [(x - Fraction(p.real)) ** 2 + (y - Fraction(p.imag)) ** 2 for p in alphabet.points]
            return alphabet.points[d2.index(min(d2))]  # the first of equal points

        out = slice_symbols(np.array(est, dtype=complex), alphabet)
        assert out.tobytes() == np.array([exact(z) for z in est], dtype=complex).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        alphabet=st.sampled_from([BPSK, QAM4]),
        est=st.lists(slicer_inputs(st.floats(1e-6, 1e3)), max_size=12),
    )
    def test_closed_forms_agree_with_the_generic_slicer(self, alphabet, est):
        # Parts of +-0 or of magnitude in [1e-6, 1e3]: float distances tie
        # exactly where exact ones do, and order the rest as exact ones do.
        e = np.array(est, dtype=complex)
        assert slice_symbols(e, alphabet).tobytes() == slice_symbols(e, generic_twin(alphabet)).tobytes()

    @pytest.mark.parametrize(
        "alphabet, est, expected",
        [
            (_PAM4, -1e200, -3 + 0j),
            (_PAM4, np.finfo(float).max, 3 + 0j),
            (_PAM4, complex(-np.finfo(float).max, np.finfo(float).max), -3 + 0j),
            (_PAM4, complex(1e-300, -1e300), 1 + 0j),
            (PSK8, complex(-np.finfo(float).max, -np.finfo(float).max), -_H - _H * 1j),
            (PSK8, complex(1e300, -1e-300), 1 + 0j),
            (PSK8, complex(-1e-300, 1e300), 1j),
        ],
    )
    def test_generic_slicer_on_huge_estimates(self, alphabet, est, expected):
        # Squared float distances overflowed from about 1e154, and e - p
        # rounds -1e200 - 3 and -1e200 + 3 together: -1e200 went to 3 + 0j.
        assert slice_symbols(est, alphabet) == expected
        assert slice_symbols([est, 0.9], alphabet).tolist() == [expected, 1 + 0j]

    def test_non_finite_estimates_rejected(self):
        # argmin over NaN distances would pick the first point
        for bad in (np.nan, np.inf, complex(0.0, np.nan), [1 + 1j, complex(-np.inf, 0.0)]):
            with pytest.raises(DomainError):
                slice_symbols(bad, QAM4)


def _exact_labels(est, alphabet):
    """The labels of the nearest points to a (B, N) batch of estimates in
    exact arithmetic, the first of equal points, as a (B, N * bits) bool array."""
    def label(z):
        x, y = Fraction(z.real), Fraction(z.imag)
        d2 = [(x - Fraction(p.real)) ** 2 + (y - Fraction(p.imag)) ** 2 for p in alphabet.points]
        return alphabet.labels[d2.index(min(d2))]

    return np.array([[bit for z in row for bit in label(z)] for row in est], dtype=bool)


class TestDecideBits:
    """core._sign_bits, the sign rule behind the slicer, symbols_to_bits and
    the harness's BPSK and QAM4 bit decisions: the labels of the exact
    nearest points, signed zeros and ties included, from buffers that earlier
    decisions have used."""

    CASES = [(BPSK, float), (BPSK, complex), (QAM4, complex)]  # stripe BPSK is real

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("alphabet, dtype", CASES, ids=["bpsk-real", "bpsk", "qam4"])
    def test_bits_of_the_sliced_symbols(self, alphabet, dtype, data):
        est = data.draw(estimate_batches(dtype))
        ws = _Workspace()
        _sign_bits(np.full_like(est, -1 - 1j if dtype is complex else -1.0), alphabet, ws)
        got = _sign_bits(est, alphabet, ws)
        want = _exact_labels(est, alphabet)
        assert got.dtype == bool and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(_sign_bits(est, alphabet), want)  # a workspace of its own

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    @pytest.mark.parametrize("alphabet, dtype", CASES, ids=["bpsk-real", "bpsk", "qam4"])
    def test_non_finite_estimates_rejected(self, alphabet, dtype, data, bad):
        # One non-finite part anywhere, even an imaginary part BPSK ignores.
        est = data.draw(estimate_batches(dtype))
        parts = est.view(float).reshape(est.size, -1)  # one row of parts per estimate
        parts[data.draw(st.integers(0, est.size - 1)), data.draw(st.integers(0, parts.shape[1] - 1))] = bad
        with pytest.raises(DomainError):
            slice_symbols(est, alphabet)
        with pytest.raises(DomainError):
            _sign_bits(est, alphabet, _Workspace())


class TestStripeDecode:
    def test_alpha_one_noiseless(self):
        cfg = SefdmConfig(8, 8, 1, 1, QAM4)
        s = _random_symbols(cfg, 40)
        assert np.array_equal(stripe_decode(modulate_interleaved(s, cfg), cfg), s)

    def test_sefdm_noiseless(self):
        cfg = SefdmConfig(12, 12, 5, 6, QAM4)
        gen = RandomSource(41).generator()
        bits = gen.integers(0, 2, size=(200, cfg.bits_per_block))
        s = bits_to_symbols(bits, QAM4)
        decoded = stripe_decode(modulate_interleaved(s, cfg), cfg)
        assert np.array_equal(decoded, s)

    def test_zero_input_yields_tiebreak_point(self):
        cfg = SefdmConfig(12, 12, 5, 6, QAM4)
        decoded = stripe_decode(np.zeros(12, complex), cfg)
        assert np.all(decoded == QAM4.points[0])

    def test_soft_estimates_converge_noiseless(self):
        cfg = SefdmConfig(12, 12, 5, 6, QAM4)
        s = _random_symbols(cfg, 42)
        soft = stripe_decode_soft(modulate_interleaved(s, cfg), cfg)
        assert soft == pytest.approx(s, abs=1e-6)

    def test_soft_keeps_natural_carrier_order(self):
        # c = 3 branches, each a stride k::3 of the carriers; block n carries
        # its one odd symbol on carrier n.
        cfg = SefdmConfig(8, 32, 2, 3, QAM4)
        s = np.full((8, 8), QAM4.points[0])
        s[np.arange(8), np.arange(8)] = QAM4.points[2]
        soft = stripe_decode_soft(modulate_interleaved(s, cfg), cfg)
        assert soft == pytest.approx(s, abs=1e-6)

    def test_soft_returns_every_block(self):
        cfg = SefdmConfig(12, 12, 5, 6, QAM4)
        gen = RandomSource(44).generator()
        s = bits_to_symbols(gen.integers(0, 2, size=(3, cfg.bits_per_block)), QAM4)
        r = add_awgn(modulate_interleaved(s, cfg), NoiseSpec.from_config(6.0, cfg), gen)
        soft = stripe_decode_soft(r, cfg)
        assert soft.shape == (3, 12)
        for block in range(3):
            assert soft[block] == pytest.approx(stripe_decode_soft(r[block], cfg), abs=1e-12)
        assert np.array_equal(slice_symbols(soft, QAM4), stripe_decode(r, cfg))

    def test_non_finite_samples_rejected(self):
        cfg = SefdmConfig(12, 12, 5, 6, QAM4)
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            r = modulate_interleaved(_random_symbols(cfg, 45), cfg)
            r[3] = bad
            with pytest.raises(DomainError):
                stripe_decode(r, cfg)
            with pytest.raises(DomainError):
                stripe_decode_soft(np.stack([r, r]), cfg)

    def test_iteration_count_validated(self):
        for bad in (0, True, 2.5, 20.0, "20"):
            with pytest.raises(ValueError):
                StripeParams(bad)
        assert StripeParams(np.int64(20)) == StripeParams()

    def test_runtime_scales_near_linearithmic(self):
        import time

        gen = RandomSource(43).generator()

        def run(m):
            cfg = SefdmConfig(16, m, 5, 6, QAM4)
            bits = gen.integers(0, 2, size=(64, cfg.bits_per_block))
            r = modulate_interleaved(bits_to_symbols(bits, QAM4), cfg)
            stripe_decode(r, cfg)  # warm caches
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                stripe_decode(r, cfg)
                best = min(best, time.perf_counter() - t0)
            return best

        assert run(512) <= 2.5 * run(256) + 0.02  # small additive slack for timer noise


class TestMlDecode:
    def test_noiseless_recovery(self):
        cfg = SefdmConfig(4, 8, 4, 5, QAM4)
        s = _random_symbols(cfg, 50)
        assert np.array_equal(ml_decode(modulate_direct(s, cfg), cfg), s)

    def test_against_independent_enumeration(self):
        cfg = SefdmConfig(2, 4, 1, 2, BPSK)
        gen = RandomSource(51).generator()
        spec = NoiseSpec.from_config(2.0, cfg)
        for _ in range(100):
            s = bits_to_symbols(gen.integers(0, 2, size=2), BPSK)
            r = add_awgn(modulate_direct(s, cfg), spec, gen)
            # brute-force oracle over the 4 candidates
            best, best_d = None, np.inf
            for combo in itertools.product(BPSK.points, repeat=2):
                d = np.sum(np.abs(r - modulate_direct(np.asarray(combo), cfg)) ** 2)
                if d < best_d:
                    best, best_d = combo, d
            assert np.array_equal(ml_decode(r, cfg), np.asarray(best))

    def test_capacity_guard(self):
        cfg = SefdmConfig(12, 12, 5, 6, QAM4)  # 4^12 = 2^24 > 2^20
        with pytest.raises(CapacityError):
            ml_decode(np.zeros(12, complex), cfg)

    def test_ml_residual_never_above_stripe(self):
        cfg = SefdmConfig(4, 20, 4, 5, QAM4)
        gen = RandomSource(52).generator()
        spec = NoiseSpec.from_config(5.0, cfg)
        for _ in range(50):
            s = bits_to_symbols(gen.integers(0, 2, size=8), QAM4)
            r = add_awgn(modulate_interleaved(s, cfg), spec, gen)
            d_ml = np.sum(np.abs(r - modulate_direct(ml_decode(r, cfg), cfg)) ** 2)
            d_st = np.sum(np.abs(r - modulate_direct(stripe_decode(r, cfg), cfg)) ** 2)
            assert d_ml <= d_st + 1e-9

    def test_non_finite_samples_rejected(self):
        cfg = SefdmConfig(4, 8, 4, 5, QAM4)
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            r = np.zeros((2, 8), complex)
            r[1, 5] = bad
            with pytest.raises(DomainError):
                ml_decode(r, cfg)

    def test_chunked_enumeration_decides_as_one_chunk(self, monkeypatch):
        cfg = SefdmConfig(6, 12, 4, 5, QAM4)  # 4^6 = 4096 candidates
        gen = RandomSource(53).generator()
        s = bits_to_symbols(gen.integers(0, 2, size=(64, cfg.bits_per_block)), QAM4)
        r = add_awgn(modulate_interleaved(s, cfg), NoiseSpec.from_config(3.0, cfg), gen)
        # An all-zero block ties every candidate s with -s, which lies 2 * 4^5
        # odometer steps away, in another chunk.
        r = np.concatenate([r, np.zeros((1, 12), complex)])
        assert detect._ml_chunk(len(r), 6) >= 4096
        one_chunk = ml_decode(r, cfg)
        monkeypatch.setattr(detect, "_ML_CHUNK_BYTES", 8 * (len(r) + 7 * 6 + 1) * 100)
        assert detect._ml_chunk(len(r), 6) == 100
        assert np.array_equal(ml_decode(r, cfg), one_chunk)

    def test_chunk_bounds_working_memory(self, monkeypatch):
        # N = 10 QAM4 passes the guard with 2^20 candidates; a harness batch
        # is 1024 blocks. One chunk's float64 metric block must fit the budget.
        assert detect._ml_chunk(1024, 10) * 1024 * 8 <= detect._ML_CHUNK_BYTES
        # Measured on a smaller case: 4^7 candidates x 256 blocks would need a
        # 32 MiB metric block in one piece.
        import tracemalloc

        # At few blocks the candidates' own arrays outweigh the metric block.
        budget = 2**20
        monkeypatch.setattr(detect, "_ML_CHUNK_BYTES", budget)
        cfg = SefdmConfig(7, 8, 4, 5, QAM4)
        ml_decode(np.ones((1, 8), complex), cfg)  # fill the matched-filter cache outside the measurement
        for blocks in (1, 4, 256):
            r = np.ones((blocks, 8), complex)
            tracemalloc.start()
            try:
                ml_decode(r, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * budget, blocks


class TestMatchedFilterDomain:
    """The matched-filter decoder against the time-domain reference above."""

    @settings(max_examples=80, deadline=None)
    @given(
        cfg=configs(),
        seed=st.integers(0, 2**32 - 1),
        ebn0_db=st.one_of(st.just(math.inf), st.floats(0.0, 15.0)),
    )
    # BPSK runs on N reals: gate 06's shape, an M that is not a multiple of c,
    # and c > N, so that branches 3 and 4 carry no carrier.
    @example(cfg=SefdmConfig(64, 64, 1, 2, BPSK), seed=60, ebn0_db=6.0)
    @example(cfg=SefdmConfig(64, 64, 1, 2, BPSK), seed=61, ebn0_db=math.inf)
    @example(cfg=SefdmConfig(10, 23, 3, 4, BPSK), seed=62, ebn0_db=3.0)
    @example(cfg=SefdmConfig(3, 4, 1, 5, BPSK), seed=63, ebn0_db=3.0)
    def test_stripe_agrees_with_time_domain_reference(self, cfg, seed, ebn0_db):
        gen = RandomSource(seed).generator()
        s = bits_to_symbols(gen.integers(0, 2, size=(8, cfg.bits_per_block)), cfg.alphabet)
        r = add_awgn(modulate_interleaved(s, cfg), NoiseSpec.from_config(ebn0_db, cfg), gen)
        reference = _reference_stripe_batch(r, cfg, StripeParams())
        soft = stripe_decode_soft(r, cfg)
        assert soft.dtype == complex
        assert np.max(np.abs(soft - reference)) <= 1e-9
        assert np.array_equal(stripe_decode(r, cfg), slice_symbols(reference, cfg.alphabet))
        if cfg.alphabet == BPSK:
            assert not soft.imag.any()

    @pytest.mark.parametrize("ebn0_db", [6.0, math.inf])
    def test_other_alphabets_take_the_generic_pull(self, ebn0_db):
        # BPSK and QAM4 have closed-form pulls; any other alphabet is pulled
        # by gravity, which must agree with the reference as well: the real
        # PAM4 on the decoder's N reals, and the complex 8-PSK.
        for alphabet in (_PAM4, PSK8):
            cfg = SefdmConfig(10, 12, 5, 6, alphabet)
            gen = RandomSource(64).generator()
            s = bits_to_symbols(gen.integers(0, 2, size=(8, cfg.bits_per_block)), alphabet)
            r = add_awgn(modulate_interleaved(s, cfg), NoiseSpec.from_config(ebn0_db, cfg), gen)
            reference = _reference_stripe_batch(r, cfg, StripeParams())
            soft = stripe_decode_soft(r, cfg)
            assert np.max(np.abs(soft - reference)) <= 1e-9
            assert np.array_equal(stripe_decode(r, cfg), slice_symbols(reference, alphabet))
            # A real alphabet runs on N reals, as BPSK does.
            assert soft.imag.any() == (alphabet is PSK8)

    def test_unequal_real_and_imaginary_ranges_are_rejected(self):
        # The truncation box is one range for real and imaginary parts alike.
        rect = Alphabet("rect", (3 + 1j, -3 + 1j, -3 - 1j, 3 - 1j), ((0, 0), (0, 1), (1, 1), (1, 0)))
        cfg = SefdmConfig(4, 4, 1, 2, rect)
        with pytest.raises(DomainError):
            stripe_decode(np.ones((2, 4), complex), cfg)

    @settings(max_examples=100, deadline=None)
    @given(cfg=configs(), seed=st.integers(0, 2**32 - 1))
    def test_metric_identity(self, cfg, seed):
        # ||r - s C||^2 = M (s G s^H - 2 Re(y . conj(s))) + ||r||^2, the
        # identity every receiver rests on, for any r and any symbol vector s.
        gen = RandomSource(seed).generator()
        m_samp = cfg.n_samples
        r = gen.standard_normal((5, m_samp)) + 1j * gen.standard_normal((5, m_samp))
        s = bits_to_symbols(gen.integers(0, 2, size=(5, cfg.bits_per_block)), cfg.alphabet)
        y, _ = detect._matched_outputs(r, cfg)
        gram = detect._matched_filter(cfg).gram
        distance = np.sum(np.abs(r - modulate_direct(s, cfg)) ** 2, axis=1)
        energy = np.einsum("bn,nm,bm->b", s, gram, s.conj()).real
        correlation = np.sum(y * s.conj(), axis=1).real
        metric = m_samp * (energy - 2 * correlation) + np.sum(np.abs(r) ** 2, axis=1)
        assert metric == pytest.approx(distance, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(cfg=configs())
    def test_branch_groups_are_orthonormal(self, cfg):
        gram = detect._matched_filter(cfg).gram
        for k in range(cfg.alpha_den):
            block = gram[k :: cfg.alpha_den, k :: cfg.alpha_den]
            assert np.max(np.abs(block - np.eye(len(block))), initial=0.0) <= 1e-12


class _NoDraws:
    """A generator stand-in that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"the channel used the generator's {name}")


class TestMatchedChannel:
    """detect._matched_channel: y = s G + (sigma n) C^H / M from the symbols,
    against the public chain of modulation, add_awgn and the matched filter."""

    @staticmethod
    def _chain(s, cfg, ebn0_db, gen):
        r = add_awgn(modulate_interleaved(s, cfg), NoiseSpec.from_config(ebn0_db, cfg), gen)
        y, _ = detect._matched_outputs(r, cfg)
        return y.real if cfg.alphabet == BPSK else y

    @settings(max_examples=60, deadline=None)
    @given(
        cfg=configs(),
        seed=st.integers(0, 2**32 - 1),
        ebn0_db=st.one_of(st.just(math.inf), st.floats(0.0, 15.0)),
    )
    # Gate 03's shape, gate 05's and gate 06's, each with both alphabets.
    @example(cfg=SefdmConfig(16, 256, 5, 6, QAM4), seed=70, ebn0_db=4.0)
    @example(cfg=SefdmConfig(16, 256, 5, 6, BPSK), seed=71, ebn0_db=4.0)
    @example(cfg=SefdmConfig(16, 16, 4, 5, QAM4), seed=72, ebn0_db=10.0)
    @example(cfg=SefdmConfig(16, 16, 4, 5, BPSK), seed=73, ebn0_db=10.0)
    @example(cfg=SefdmConfig(64, 64, 1, 2, QAM4), seed=74, ebn0_db=0.0)
    @example(cfg=SefdmConfig(64, 64, 1, 2, BPSK), seed=75, ebn0_db=0.0)
    def test_matches_the_sample_chain(self, cfg, seed, ebn0_db):
        # The same y, within rounding, from the same draws, after which both
        # generators are in the same state. A real alphabet gets Re y only.
        chain_gen, channel_gen = (RandomSource(seed).generator() for _ in range(2))
        s = bits_to_symbols(chain_gen.integers(0, 2, size=(32, cfg.bits_per_block)), cfg.alphabet)
        channel_gen.integers(0, 2, size=(32, cfg.bits_per_block))
        want = self._chain(s, cfg, ebn0_db, chain_gen)
        sigma2 = NoiseSpec.from_config(ebn0_db, cfg).sigma2
        got = detect._matched_channel(s, cfg, sigma2, channel_gen)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(channel_gen.random(4), chain_gen.random(4))  # the same next draws

    def test_no_draws_without_noise(self):
        for alphabet in (QAM4, BPSK):
            cfg = SefdmConfig(16, 16, 4, 5, alphabet)
            s = bits_to_symbols(RandomSource(76).generator().integers(0, 2, size=(8, cfg.bits_per_block)),
                                alphabet)
            y = detect._matched_channel(s, cfg, 0.0, _NoDraws())
            want = self._chain(s, cfg, math.inf, RandomSource(0))  # add_awgn checks its rng
            assert np.max(np.abs(y - want)) <= 1e-12

    @pytest.mark.parametrize("alphabet", [QAM4, BPSK])
    def test_noise_covariance_is_scaled_gram(self, alphabet):
        # Zero symbols leave the projected noise alone: its covariance is
        # E[y^H y] = sigma2 G / M with E[y^T y] = 0, and Re y has Re G sigma2 / 2M.
        cfg = SefdmConfig(16, 32, 4, 5, alphabet)
        blocks, sigma2 = 40_000, 3.0 * cfg.n_samples
        y = detect._matched_channel(np.zeros((blocks, cfg.n_carriers), complex), cfg, sigma2,
                                    RandomSource(77).generator())
        gram = detect._matched_filter(cfg).gram
        tolerance = 5 * (sigma2 / cfg.n_samples) / math.sqrt(blocks)
        if alphabet == BPSK:
            covariance = y.T @ y / blocks
            assert np.max(np.abs(covariance - gram.real * sigma2 / (2 * cfg.n_samples))) <= tolerance
        else:
            covariance = y.conj().T @ y / blocks
            assert np.max(np.abs(covariance - gram * sigma2 / cfg.n_samples)) <= tolerance
            assert np.max(np.abs(y.T @ y / blocks)) <= tolerance

    @pytest.mark.parametrize(
        "cfg, ebn0_db",
        [
            (SefdmConfig(16, 256, 5, 6, QAM4), 5.0),  # gate 03
            (SefdmConfig(16, 16, 5, 6, QAM4), 8.0),  # gate 04
            (SefdmConfig(16, 16, 4, 5, QAM4), 9.0),  # gate 05
            (SefdmConfig(64, 64, 1, 2, BPSK), 5.0),  # gate 06
        ],
        ids=["gate03", "gate04", "gate05", "gate06"],
    )
    def test_run_block_counts_as_the_public_chain(self, cfg, ebn0_db):
        # run_block decodes stripe batches from the channel; the public chain
        # with stripe_decode, on the same streams, counts the same errors.
        for seed, noise in ((78, ebn0_db), (79, math.inf)):
            gen = RandomSource(seed).generator()
            bits = gen.integers(0, 2, size=(300, cfg.bits_per_block))
            r = add_awgn(modulate_interleaved(bits_to_symbols(bits, cfg.alphabet), cfg),
                         NoiseSpec.from_config(noise, cfg), gen)
            errors = int((symbols_to_bits(stripe_decode(r, cfg), cfg.alphabet) != bits).sum())
            assert run_block(cfg, noise, "stripe", RandomSource(seed), blocks=300) == (bits.size, errors)
            assert noise == math.inf or errors > 0


class TestOfdmChannel:
    """detect._ofdm_channel: y = s + DFT(sigma n)[:N] / M at alpha = 1, against
    the public chain of modulation, add_awgn and the matched filter."""

    @staticmethod
    def _chain(s, cfg, ebn0_db, gen):
        r = add_awgn(modulate_interleaved(s, cfg), NoiseSpec.from_config(ebn0_db, cfg), gen)
        return detect._matched_outputs(r, cfg)[0]

    @settings(max_examples=60, deadline=None)
    @given(
        cfg=configs(alphas=[(1, 1)]),
        seed=st.integers(0, 2**32 - 1),
        ebn0_db=st.one_of(st.just(math.inf), st.floats(0.0, 15.0)),
    )
    # Gate 02's shape with both alphabets, and gate 07's alpha = 1, M > N.
    @example(cfg=SefdmConfig(64, 64, 1, 1, BPSK), seed=80, ebn0_db=0.0)
    @example(cfg=SefdmConfig(64, 64, 1, 1, QAM4), seed=81, ebn0_db=0.0)
    @example(cfg=SefdmConfig(4, 128, 1, 1, QAM4), seed=82, ebn0_db=8.0)
    def test_matches_the_sample_chain(self, cfg, seed, ebn0_db):
        # The same complex y, within rounding, from the same draws, after
        # which both generators are in the same state.
        chain_gen, channel_gen = (RandomSource(seed).generator() for _ in range(2))
        s = bits_to_symbols(chain_gen.integers(0, 2, size=(32, cfg.bits_per_block)), cfg.alphabet)
        channel_gen.integers(0, 2, size=(32, cfg.bits_per_block))
        want = self._chain(s, cfg, ebn0_db, chain_gen)
        sigma2 = NoiseSpec.from_config(ebn0_db, cfg).sigma2
        got = detect._ofdm_channel(s, cfg, sigma2, channel_gen)
        assert got.dtype == want.dtype == complex and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(channel_gen.random(4), chain_gen.random(4))  # the same next draws

    def test_no_draws_without_noise(self):
        for alphabet in (QAM4, BPSK):
            cfg = SefdmConfig(64, 64, 1, 1, alphabet)
            s = bits_to_symbols(RandomSource(83).generator().integers(0, 2, size=(8, cfg.bits_per_block)),
                                alphabet)
            y = detect._ofdm_channel(s, cfg, 0.0, _NoDraws())
            want = self._chain(s, cfg, math.inf, RandomSource(0))  # add_awgn checks its rng
            assert np.max(np.abs(y - want)) <= 1e-12
            assert np.array_equal(y, s) and not np.shares_memory(y, s)

    @pytest.mark.parametrize("alphabet", [QAM4, BPSK])
    def test_noise_covariance_is_scaled_identity(self, alphabet):
        # Zero symbols leave the noise alone: at alpha = 1, G = I, so its
        # covariance is E[y^H y] = sigma2 I / M with E[y^T y] = 0.
        cfg = SefdmConfig(16, 32, 1, 1, alphabet)
        blocks, sigma2 = 40_000, 3.0 * cfg.n_samples
        y = detect._ofdm_channel(np.zeros((blocks, cfg.n_carriers), complex), cfg, sigma2,
                                 RandomSource(84).generator())
        tolerance = 5 * (sigma2 / cfg.n_samples) / math.sqrt(blocks)
        covariance = y.conj().T @ y / blocks
        assert np.max(np.abs(covariance - np.eye(cfg.n_carriers) * sigma2 / cfg.n_samples)) <= tolerance
        assert np.max(np.abs(y.T @ y / blocks)) <= tolerance

    @pytest.mark.parametrize("alphabet", [BPSK, QAM4], ids=["gate02-bpsk", "gate02-qam4"])
    def test_run_block_counts_as_the_public_chain(self, alphabet):
        # run_block slices OFDM batches from the channel; the public chain,
        # sliced from the M samples' matched-filter outputs on the same
        # streams, counts the same errors.
        cfg = SefdmConfig(64, 64, 1, 1, alphabet)
        for seed, noise in ((85, 4.0), (86, math.inf)):
            gen = RandomSource(seed).generator()
            bits = gen.integers(0, 2, size=(300, cfg.bits_per_block))
            r = add_awgn(modulate_interleaved(bits_to_symbols(bits, alphabet), cfg),
                         NoiseSpec.from_config(noise, cfg), gen)
            decided = slice_symbols(detect._matched_outputs(r, cfg)[0], alphabet)
            errors = int((symbols_to_bits(decided, alphabet) != bits).sum())
            assert run_block(cfg, noise, "ofdm", RandomSource(seed), blocks=300) == (bits.size, errors)
            assert noise == math.inf or errors > 0


class TestAllocationFree:
    """_stripe_batch reuses its buffers across sweeps, clamps a real state
    straight into its stride and anneals on the float view; its output must
    equal the allocating reference above byte for byte."""

    @pytest.mark.parametrize("ebn0_db", [math.inf, 6.0])
    @pytest.mark.parametrize(
        "dims, alphabet",
        [((16, 256, 5, 6), QAM4), ((16, 16, 5, 6), QAM4), ((16, 16, 4, 5), QAM4),
         ((64, 64, 1, 2), BPSK), ((10, 12, 5, 6), _PAM4), ((10, 12, 5, 6), PSK8)],
        ids=["n16-m256-5/6", "n16-m16-5/6", "n16-m16-4/5", "n64-m64-1/2", "pam4", "psk8"],
    )
    def test_bytes_equal_the_allocating_loop(self, dims, alphabet, ebn0_db):
        # The four stripe gate configurations, and the generic pull on a real
        # and a complex alphabet; no rows, partial tiles, whole tiles, one
        # sweep and 20.
        cfg = SefdmConfig(*dims, alphabet)
        gen = RandomSource(90).generator()
        sigma2 = NoiseSpec.from_config(ebn0_db, cfg).sigma2
        for rows in (0, 1, 17, 256, 512):
            bits = gen.integers(0, 2, size=(rows, cfg.bits_per_block))
            y = detect._matched_channel(bits_to_symbols(bits, alphabet), cfg, sigma2, gen)
            for iterations in (1, 20):
                params = StripeParams(iterations)
                soft = detect._stripe_batch(y, cfg, params)
                reference = _allocating_stripe_batch(y, cfg, params)
                assert soft.dtype == reference.dtype and soft.shape == (rows, cfg.n_carriers)
                assert soft.tobytes() == reference.tobytes()


class TestRowIndependence:
    """The harness decodes the batches of several sweep points as one stack.
    That leaves each point's results unchanged only if every step after the
    channel works row by row: on a stacked batch each must give, bit for bit,
    the concatenation of its results on the parts. A one-row part is
    included because numpy may compute a one-row product by another BLAS
    path. Should this fail on some BLAS, stacks must not be formed there."""

    # Stack sizes of the harness: one-row batches, 64-row batches, a partial batch.
    PARTS = [(1, 63, 64, 128), (255, 1), (1, 1, 1), (76, 76, 76), (3, 5, 17, 231)]

    @staticmethod
    def _stacked_equals_parts(fn, stack, parts):
        bounds = np.cumsum((0,) + parts)
        whole = fn(stack)
        pieces = np.concatenate([fn(stack[a:b]) for a, b in zip(bounds, bounds[1:])])
        assert whole.dtype == pieces.dtype and whole.shape == pieces.shape
        assert whole.tobytes() == pieces.tobytes()

    # The stripe gate configurations, with both alphabets.
    @pytest.mark.parametrize("parts", PARTS)
    @pytest.mark.parametrize("alphabet", [BPSK, QAM4], ids=["bpsk", "qam4"])
    @pytest.mark.parametrize("dims", [(16, 256, 5, 6), (16, 16, 5, 6), (16, 16, 4, 5), (64, 64, 1, 2)],
                             ids=["n16-m256-5/6", "n16-m16-5/6", "n16-m16-4/5", "n64-m64-1/2"])
    def test_stripe_receiver(self, dims, alphabet, parts):
        cfg = SefdmConfig(*dims, alphabet)
        gen = RandomSource(87).generator()
        bits = gen.integers(0, 2, size=(sum(parts), cfg.bits_per_block))
        symbols = bits_to_symbols(bits, alphabet)
        y = detect._matched_channel(symbols, cfg, NoiseSpec.from_config(6.0, cfg).sigma2, gen)
        params = StripeParams()
        soft = detect._stripe_batch(y, cfg, params)
        decided = slice_symbols(soft, alphabet)
        self._stacked_equals_parts(lambda b: bits_to_symbols(b, alphabet), bits, parts)
        self._stacked_equals_parts(lambda x: detect._stripe_batch(x, cfg, params), y, parts)
        self._stacked_equals_parts(lambda x: slice_symbols(x, alphabet), soft, parts)
        self._stacked_equals_parts(lambda x: symbols_to_bits(x, alphabet), decided, parts)

    @pytest.mark.parametrize("parts", PARTS)
    @pytest.mark.parametrize("alphabet", [BPSK, QAM4], ids=["bpsk", "qam4"])
    def test_ofdm_slicer(self, alphabet, parts):
        cfg = SefdmConfig(64, 64, 1, 1, alphabet)
        gen = RandomSource(88).generator()
        symbols = bits_to_symbols(gen.integers(0, 2, size=(sum(parts), cfg.bits_per_block)), alphabet)
        y = detect._ofdm_channel(symbols, cfg, NoiseSpec.from_config(2.0, cfg).sigma2, gen)
        self._stacked_equals_parts(lambda x: slice_symbols(x, alphabet), y, parts)

    @pytest.mark.parametrize("parts", PARTS)
    @pytest.mark.parametrize("dims", [(4, 128, 1, 1), (4, 128, 3, 4), (4, 128, 3, 5)],
                             ids=["n4-m128-1/1", "n4-m128-3/4", "n4-m128-3/5"])
    def test_ml_receiver(self, dims, parts):
        # Gate 07's configurations: the transmitter and ML decode stacks too.
        cfg = SefdmConfig(*dims, QAM4)
        gen = RandomSource(89).generator()
        symbols = bits_to_symbols(gen.integers(0, 2, size=(sum(parts), cfg.bits_per_block)), QAM4)
        r = add_awgn(modulate_interleaved(symbols, cfg), NoiseSpec.from_config(4.0, cfg), gen)
        self._stacked_equals_parts(lambda s: modulate_interleaved(s, cfg), symbols, parts)
        self._stacked_equals_parts(lambda x: ml_decode(x, cfg), r, parts)


@pytest.mark.parametrize(
    "call",
    [
        lambda cfg: stripe_decode(5.0, cfg),
        lambda cfg: stripe_decode_soft(5.0, cfg),
        lambda cfg: ml_decode(5.0, cfg),
        lambda cfg: modulate_interleaved(1 + 1j, cfg),
        lambda cfg: modulate_direct(1 + 1j, cfg),
        lambda cfg: bits_to_symbols(1, BPSK),
    ],
    ids=["stripe_decode", "stripe_decode_soft", "ml_decode", "modulate_interleaved",
         "modulate_direct", "bits_to_symbols"],
)
def test_zero_d_input_is_a_dimension_error(call):
    # A scalar has no last axis to check; it used to raise IndexError.
    with pytest.raises(DimensionError):
        call(SefdmConfig(4, 8, 4, 5, QAM4))
