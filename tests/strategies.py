"""Hypothesis strategies shared by the property tests."""

import math

from hypothesis import strategies as st

from sefdm import BPSK, QAM4, SefdmConfig

ALPHAS = [(b, c) for c in range(1, 7) for b in range(1, c + 1) if math.gcd(b, c) == 1]


def least_samples(n_car: int, alphas) -> int:
    """The least M >= N in which every alpha's branch spectrum, ceil(N/c)*b
    bins long, fits."""
    return max([n_car] + [math.ceil(n_car / c) * b for b, c in alphas])


@st.composite
def configs(draw):
    """N up to 24, any alpha b/c with c <= 6, BPSK or 4-QAM, and any M from
    the least the branches fit in up to 4x that, so M need not be a multiple of c."""
    n_car = draw(st.integers(1, 24))
    b, c = draw(st.sampled_from(ALPHAS))
    least = least_samples(n_car, [(b, c)])
    n_samp = draw(st.integers(least, 4 * least))
    return SefdmConfig(n_car, n_samp, b, c, draw(st.sampled_from([BPSK, QAM4])))
