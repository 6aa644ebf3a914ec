"""Constellation alphabets, system configuration, bit mapping, seeded RNG
streams and reusable buffers."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Input length does not match the configured dimensions."""


class DomainError(ValueError):
    """Value outside the domain of the operation."""


class CapacityError(RuntimeError):
    """Requested search space exceeds the enumeration guard."""


def _check_int(name: str, value) -> None:
    """Accept Python and numpy integers; reject bool, floats and the rest."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Alphabet:
    """A finite complex constellation with Gray-coded bit labels.

    Points are kept unnormalized (4-QAM uses +/-1 +/- 1j) so that soft-estimate
    truncation can clamp components to the constellation bounding box.
    """

    name: str
    points: tuple[complex, ...]
    labels: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.points)
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("alphabet size must be a power of two")
        if not np.isfinite(np.asarray(self.points, dtype=complex)).all():
            raise ValueError("alphabet points must be finite")
        if len(set(self.points)) != n:
            raise ValueError("alphabet points must be distinct")
        bps = n.bit_length() - 1
        if len(self.labels) != n or any(len(l) != bps for l in self.labels):
            raise ValueError("need one label of log2(|points|) bits per point")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be distinct")
        if not {bit for label in self.labels for bit in label} <= {0, 1}:
            raise ValueError("labels must be made of bits 0 and 1")

    @property
    def bits_per_symbol(self) -> int:
        return len(self.points).bit_length() - 1

    @property
    def bounding_box(self) -> tuple[float, float, float, float]:
        """(re_min, re_max, im_min, im_max) over the constellation points."""
        re = [p.real for p in self.points]
        im = [p.imag for p in self.points]
        return (min(re), max(re), min(im), max(im))

    @property
    def energy(self) -> float:
        """Average symbol energy, mean |point|^2."""
        return float(np.mean([p.real**2 + p.imag**2 for p in self.points]))

    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex)


BPSK = Alphabet("bpsk", (1 + 0j, -1 + 0j), ((0,), (1,)))

# Gray ring: neighbours sharing a coordinate differ in exactly one bit.
QAM4 = Alphabet(
    "qam4",
    (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j),
    ((0, 0), (0, 1), (1, 1), (1, 0)),
)

_ALPHABETS = {"bpsk": BPSK, "qam4": QAM4}


def get_alphabet(name: str) -> Alphabet:
    try:
        return _ALPHABETS[name.lower()]
    except KeyError:
        raise DomainError(f"unknown alphabet {name!r}") from None


@dataclass(frozen=True)
class SefdmConfig:
    """System dimensions: N carriers, M samples per symbol period, alpha = b/c.

    alpha = 1 is plain OFDM. M >= N is required, and each interleaved branch's
    spectrum, ceil(N/c)*b bins long, must fit in M (DimensionError otherwise).
    M need not be a multiple of c: branch k is the M-point inverse DFT of its
    spectrum times carrier k's samples, a pointwise multiply that needs no
    integer bin shift. The four dimensions must be integers (ValueError
    otherwise; bool is not accepted).
    """

    n_carriers: int
    n_samples: int
    alpha_num: int
    alpha_den: int
    alphabet: Alphabet

    def __post_init__(self):
        for name in ("n_carriers", "n_samples", "alpha_num", "alpha_den"):
            _check_int(name, getattr(self, name))
        if self.n_carriers < 1 or self.n_samples < 1:
            raise ValueError("carrier and sample counts must be positive")
        b, c = self.alpha_num, self.alpha_den
        if b < 1 or c < 1 or b > c:
            raise ValueError(f"alpha = {b}/{c} must satisfy 1 <= b <= c")
        if math.gcd(b, c) != 1:
            raise ValueError(f"alpha = {b}/{c} must be in lowest terms")
        if self.n_samples < self.n_carriers:
            raise ValueError("need at least as many samples as carriers (M >= N)")
        length = self.n_padded * b // c
        if length > self.n_samples:
            raise DimensionError(
                f"branch spectrum length {length} exceeds sample count {self.n_samples}"
            )

    @property
    def alpha(self) -> float:
        return self.alpha_num / self.alpha_den

    @property
    def n_padded(self) -> int:
        """Carrier count zero-padded up to the next multiple of c."""
        c = self.alpha_den
        return c * math.ceil(self.n_carriers / c)

    @property
    def bits_per_block(self) -> int:
        return self.n_carriers * self.alphabet.bits_per_symbol


@dataclass(frozen=True)
class RandomSource:
    """A reproducible, splittable random stream.

    Identical (seed, stream) pairs yield identical sequences; distinct streams
    are statistically independent (Philox counter-based generator), so Monte
    Carlo points can run in parallel without coordination.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))


def _as_generator(rng) -> np.random.Generator:
    """A RandomSource's new generator, or a numpy Generator itself; DomainError otherwise."""
    if isinstance(rng, RandomSource):
        return rng.generator()
    if not isinstance(rng, np.random.Generator):
        raise DomainError(f"rng must be a RandomSource or a numpy Generator, got {rng!r}")
    return rng


class _Workspace:
    """Named buffers that successive calls reuse. `take` returns an array of
    the asked shape and dtype on the memory of the name's earlier takes,
    which it grows when the asked array is larger. What it holds is whatever
    the last user left, so a caller writes every element before reading it."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.dtype != dtype or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _decide_bits(est: np.ndarray, alphabet: Alphabet, ws: _Workspace | None = None) -> np.ndarray:
    """The labels of the nearest points to a (B, N) batch of estimates, as a
    (B, N * bits_per_symbol) bool array from `ws`: the one hard decision of
    every receiver. Estimates may be real. Raises DomainError for non-finite
    estimates.

    BPSK and QAM4 decide by signs, the nearest point in exact arithmetic. A
    BPSK bit is Re < 0; a QAM4 symbol's bits are (Im < 0, Re < 0), where a
    zero Re follows Im. So a tie goes to the earlier point: 1 before -1, and
    1+1j, -1+1j, -1-1j, 1-1j in ring order. Every other alphabet compares
    float distances, where argmin keeps the first minimum; these can tie
    through rounding where exact distances do not (for QAM4 they would take
    -1e-300 to 1+1j, where the nearest point is -1+1j), but do not overflow
    for any finite estimate."""
    ws = ws or _Workspace()
    floats = est.view(float)
    if not np.isfinite(floats, out=ws.take("mask", floats.shape, bool)).all():
        raise DomainError("estimates must be finite")
    bps = alphabet.bits_per_symbol
    bits = ws.take("decided", (len(est), est.shape[1] * bps), bool)
    if alphabet == BPSK:
        return np.less(est.real, 0, out=bits)
    if alphabet == QAM4:
        first, second = bits[:, 0::2], bits[:, 1::2]
        np.less(est.imag, 0, out=first)
        np.less(est.real, 0, out=second)
        np.copyto(second, first, where=np.equal(est.real, 0, out=ws.take("mask", est.shape, bool)))
        return bits
    points = alphabet.points_array()
    # |e - p|^2 less the common |e|^2, |p|^2 - 2 Re(e conj p): e - p would
    # round far points together (-1e200 - 3 == -1e200 + 3). Scaled by a power
    # of two that brings the parts of a large e below 1: exact, and finite
    # for every finite estimate.
    _, exponent = np.frexp(np.maximum(abs(est.real), abs(est.imag)))
    scale = np.ldexp(1.0, -np.maximum(exponent, 0))[..., None]
    re, im = est.real[..., None] * scale, est.imag[..., None] * scale
    metric = scale * (points.real**2 + points.imag**2)
    metric -= 2 * (re * points.real + im * points.imag)
    labels = np.asarray(alphabet.labels, dtype=bool)
    np.take(labels, metric.argmin(axis=-1), axis=0, out=bits.reshape(est.shape + (bps,)))
    return bits


def bits_to_symbols(bits, alphabet: Alphabet) -> np.ndarray:
    """Map a bit sequence to constellation symbols, bits_per_symbol bits each.

    Accepts any leading batch shape; the last axis must be a multiple of
    bits_per_symbol. Every entry must be 0 or 1 (bool accepted; DomainError
    otherwise). Inverse of symbols_to_bits.
    """
    bits = np.asarray(bits)
    # Compared by value before the integer cast, which would truncate 0.7 to 0.
    if not ((bits == 0) | (bits == 1)).all():
        raise DomainError("bits must be 0 or 1")
    bits = bits.astype(np.intp, copy=False)
    bps = alphabet.bits_per_symbol
    if bits.ndim == 0 or bits.shape[-1] % bps != 0:
        raise DimensionError(
            f"bits of shape {bits.shape}: the last axis must hold a multiple of {bps}"
        )
    # Explicit lengths: a -1 cannot be resolved when a batch axis is empty.
    groups = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // bps, bps))
    if alphabet == QAM4:
        # The Gray ring's point is (1 - 2 b1) + (1 - 2 b0) j, written straight
        # into the symbols' float view: a label index would be one more
        # integer array the size of the symbols' real parts.
        symbols = np.empty(groups.shape[:-1], complex)
        parts = symbols.view(float).reshape(groups.shape)
        np.copyto(parts, groups[..., ::-1])
        parts *= -2
        parts += 1
        return symbols
    # The labels are distinct bps-bit integers, so sorting the points by
    # label puts the point labelled v at position v.
    by_label = alphabet.points_array()[np.argsort(_label_values(np.asarray(alphabet.labels)))]
    return by_label[_label_values(groups)]


def _label_values(groups: np.ndarray) -> np.ndarray:
    """The integer that each bit group on the last axis spells, first bit most
    significant, by shift-and-add over the bit columns: numpy runs an integer
    matmul without BLAS, at several times the cost. A one-bit group is its
    own column, returned as a view."""
    values = groups[..., 0]
    for column in range(1, groups.shape[-1]):
        values = values << 1
        values |= groups[..., column]
    return values


def symbols_to_bits(symbols, alphabet: Alphabet) -> np.ndarray:
    """Map exact constellation symbols back to their bit labels.

    Raises DomainError for values that are not alphabet points; slice first
    (`detect.slice_symbols`), or decide straight to bits (`_decide_bits`).
    """
    symbols = np.asarray(symbols, dtype=complex)
    # One comparison per point; the points are distinct, so each symbol
    # matches at most one and the index sum picks it out.
    index = np.zeros(symbols.shape, dtype=np.intp)
    found = np.zeros(symbols.shape, dtype=bool)
    for i, point in enumerate(alphabet.points):
        match = symbols == point
        found |= match
        index += i * match
    if not found.all():
        raise DomainError("symbol vector contains values outside the alphabet")
    length = math.prod(symbols.shape[-1:]) * alphabet.bits_per_symbol
    return np.asarray(alphabet.labels, dtype=np.intp)[index].reshape(symbols.shape[:-1] + (length,))
