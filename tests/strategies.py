"""Hypothesis strategies and helpers shared by the property tests."""

import math

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sefdm import BPSK, QAM4, Alphabet, SefdmConfig

ALPHAS = [(b, c) for c in range(1, 7) for b in range(1, c + 1) if math.gcd(b, c) == 1]


def least_samples(n_car: int, alphas) -> int:
    """The least M >= N in which every alpha's branch spectrum, ceil(N/c)*b
    bins long, fits."""
    return max([n_car] + [math.ceil(n_car / c) * b for b, c in alphas])


# A complex alphabet without closed forms, with 3-bit Gray labels round the ring.
_H = math.sqrt(0.5)
PSK8 = Alphabet(
    "8psk",
    (1 + 0j, _H + _H * 1j, 1j, -_H + _H * 1j, -1 + 0j, -_H - _H * 1j, -1j, _H - _H * 1j),
    ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1), (1, 0, 0)),
)


@st.composite
def configs(draw, alphas=ALPHAS):
    """N up to 24, any alpha b/c of `alphas` (by default every one with
    c <= 6), BPSK or 4-QAM, and any M from the least the branches fit in up
    to 4x that, so M need not be a multiple of c."""
    n_car = draw(st.integers(1, 24))
    b, c = draw(st.sampled_from(alphas))
    least = least_samples(n_car, [(b, c)])
    n_samp = draw(st.integers(least, 4 * least))
    return SefdmConfig(n_car, n_samp, b, c, draw(st.sampled_from([BPSK, QAM4])))


# Signed zeros, the points' coordinates +-1 and their float neighbours.
_EDGES = [0.0, -0.0]
_EDGES += [float(x) for one in (1.0, -1.0) for x in (one, np.nextafter(one, 0), np.nextafter(one, 2 * one))]


def slicer_parts(magnitudes=st.floats(min_value=0.0, allow_infinity=False)):
    """Real slicer inputs: one of _EDGES, or a magnitude of either sign."""
    signed = magnitudes.flatmap(lambda m: st.sampled_from([m, -m]))
    return st.one_of(st.sampled_from(_EDGES), signed)


def slicer_inputs(magnitudes=st.floats(min_value=0.0, allow_infinity=False)):
    """Complex slicer inputs whose parts are slicer_parts; one draw in three
    lies on an axis, a signed zero in the other part."""
    part = slicer_parts(magnitudes)
    zero = st.sampled_from([0.0, -0.0])
    return st.one_of(
        st.builds(complex, part, part),
        st.builds(complex, part, zero),
        st.builds(complex, zero, part),
    )


def estimate_batches(dtype=complex):
    """(B, N) batches of soft estimates with B, N in 1..6: complex ones drawn
    as slicer_inputs, real ones as slicer_parts."""
    return arrays(dtype, array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=slicer_inputs() if dtype is complex else slicer_parts())


def generic_twin(alphabet: Alphabet) -> Alphabet:
    """The alphabet under another name: equal points and labels, but not equal
    to BPSK or QAM4, so slice_symbols and symbols_to_bits take their generic
    paths instead of the sign rule."""
    return Alphabet(alphabet.name + "-generic", alphabet.points, alphabet.labels)
