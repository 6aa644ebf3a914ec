"""Receivers: the matched-filter front end, the iterative stripe decoder, an
exhaustive maximum-likelihood oracle, and the hard slicer.

Every receiver works in the matched-filter domain. A received block r of M
samples enters it only through its N carrier correlations y = r C^H / M,
where C is the N x M carrier matrix, and through the N x N Gram matrix
G = C C^H / M, cached per configuration. Since
||r - s C||^2 = M (s G s^H - 2 Re(y . conj(s))) + ||r||^2, y is a sufficient
statistic for s, and no decoder touches the M samples after computing it.
At alpha = 1, y is the first N bins of the M-point DFT of r scaled by 1/M,
so the OFDM baseline is slice_symbols(y).

Who builds y: the public decoders take M samples r and compute y = r C^H / M
(`_matched_outputs`); the Monte Carlo harness does so for ML only. For the
stripe decoder and the OFDM baseline it computes y straight from the symbols
and add_awgn's own noise draws, which every channel takes from
`channel._noise_draws`. Both channels (`_matched_channel`, `_ofdm_channel`)
write a batch's y into the caller's `out`, the float Re y for a real
alphabet and complex y otherwise, and draw and project the noise in buffers
from a workspace that the harness's stacks reuse.

The stripe decoder treats the SEFDM signal as c interleaved OFDM systems.
Branch k carries the carrier group K = {k, k + c, k + 2c, ...}, whose carriers
sit on distinct integer DFT bins, so G[K, K] = I. Cancelling the estimates of
the other c-1 branches from r and demodulating branch k is then
s_K <- y_K - sum over n not in K of s_n G[n, K]: one sweep is a block
Gauss-Seidel pass over the c groups. The decoder keeps its state in carrier
order, where branch k is the stride k::c, and updates it in real arithmetic:
on the float view [Re s_0, Im s_0, Re s_1, ...] one branch update is a single
real matrix product with the (2N, 2|K|) real embedding of -G[:, K] (rows of K
zeroed), plus y_K, truncated to the bounding box [lo, hi], one range for real
and imaginary parts alike, and written back to s[:, k::c]. After every sweep
the estimates are annealed toward the constellation with an
inverse-square-distance "gravity" pull whose weight ramps linearly from 1/J
to 1 over the J sweeps; the final vector is sliced to hard symbols.

A real alphabet (BPSK, PAM) keeps every imaginary part at 0, so its state is
N reals: the weights are Re(-G[:, K]), the even rows and columns of the
embedding, and y_K is Re y[:, k::c]. A complex alphabet needs equal real and
imaginary ranges (DomainError otherwise). BPSK and QAM4 are pulled in closed
form (`_pull_bpsk`, `_pull_qam4`), every other alphabet by the public
`gravity`. The hard slicer is `core._decide_bits`, the one hard decision
for every alphabet, which the harness applies to every decoder's output.

The ML decoder minimises s G s^H - 2 Re(y . conj(s)) over every candidate
symbol vector, in one loop that builds, scores and drops one chunk of
bounded working memory at a time, each block keeping its best so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import _noise_draws
from .core import (
    BPSK,
    QAM4,
    Alphabet,
    CapacityError,
    DimensionError,
    DomainError,
    SefdmConfig,
    _check_int,
    _decide_bits,
    _Workspace,
    bits_to_symbols,
)
from .txmod import _read_only, carrier_matrix

# Squared-distance threshold under which a soft estimate counts as exactly on
# a constellation point (distance < 1e-12).
_EXACT_HIT_SQ = 1e-24

# Rows per tile of the stripe decoder's products. BLAS computes a product's
# rows in register tiles; a row of a partial tile, or of a one-row product
# (a matrix-vector call), may sum in another order and differ in its last
# bits. Padded to whole tiles, every row sums as in any other batch, so the
# decoder's rows do not depend on each other and batches may be stacked.
_ROW_TILE = 16

# Enumeration guard for the exhaustive decoder.
_ML_GUARD = 2**20

# Working memory of one ML chunk, in bytes; see _ml_chunk for what it counts.
_ML_CHUNK_BYTES = 2**25


@dataclass(frozen=True)
class StripeParams:
    """Iteration count for the stripe decoder; 20 is a reasonable default."""

    iterations: int = 20

    def __post_init__(self):
        _check_int("iterations", self.iterations)
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


def gravity(est, alphabet: Alphabet):
    """Inverse-square-distance weighted centroid of the constellation points.

    An estimate within 1e-12 of a point returns that point exactly. Accepts a
    scalar or an array of any shape.
    """
    e = np.asarray(est, dtype=complex)
    points = alphabet.points_array()
    d2 = np.abs(e[..., None] - points) ** 2
    hit = d2 < _EXACT_HIT_SQ
    with np.errstate(divide="ignore"):
        # Exact hits would divide by ~0; their rows take indicator weights.
        w = np.where(hit.any(axis=-1, keepdims=True), hit, 1.0 / d2)
    out = (w @ points) / w.sum(axis=-1)
    return complex(out) if np.isscalar(est) or e.ndim == 0 else out


def _pull_bpsk(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """gravity toward the BPSK points +-1 for real estimates: the weights
    1/(x-1)^2 and 1/(x+1)^2 give the centroid 2x / (1 + x^2), exact at +-1.
    Written into `out` where given."""
    out = np.multiply(x, x, out=out)
    out += 1
    np.divide(x, out, out=out)
    out *= 2
    return out


def _pull_qam4(s: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None):
    """gravity toward the QAM4 points +-1+-1j for a (B, N) batch of estimates
    in the bounding box. With u = Re s, v = Im s, q = u^2 + v^2 and r = q + 2,
    the squared distances are r - 2(+-u +- v), and the inverse-square weighted
    centroid is

        Re = 2u (r^2 - 4(u^2 - v^2)) / (r (q^2 + 4))
        Im = 2v (r^2 + 4(u^2 - v^2)) / (r (q^2 + 4)),

    where q^2 + 4 = r^2 - 4r + 8 >= 4, so nothing divides by zero, and each
    point maps exactly to itself. Written into `out` (complex, s's shape),
    with `work`, a (5, B, N) float array, as scratch, where given."""
    f = s.view(float)
    if work is None:
        work = np.empty((5,) + s.shape)
    num = np.multiply(f, f, out=work[:2].reshape(f.shape))
    u2, v2 = num[:, 0::2], num[:, 1::2]
    scale, r, diff = work[2:]
    np.add(u2, v2, out=scale)
    np.add(scale, 2, out=r)
    scale *= scale
    scale += 4
    scale *= r
    np.divide(2, scale, out=scale)
    np.subtract(u2, v2, out=diff)
    diff *= 4
    r *= r
    np.subtract(r, diff, out=u2)
    np.add(r, diff, out=v2)
    out = np.multiply(s, scale, out=out)
    out_float = out.view(float)
    out_float *= num
    return out


def _is_real(alphabet: Alphabet) -> bool:  # then the stripe state is N reals
    return not any(p.imag for p in alphabet.points)


def truncate(est, alphabet: Alphabet):
    """Clamp real and imaginary parts to the constellation bounding box."""
    re_lo, re_hi, im_lo, im_hi = alphabet.bounding_box
    e = np.asarray(est, dtype=complex)
    out = np.clip(e.real, re_lo, re_hi) + 1j * np.clip(e.imag, im_lo, im_hi)
    return complex(out) if np.isscalar(est) or e.ndim == 0 else out


def slice_symbols(est, alphabet: Alphabet):
    """Hard decision to the nearest constellation point: the points of the
    labels that `core._decide_bits` decides, which states the tie and
    overflow rules. Raises DomainError for non-finite estimates.
    """
    e = np.asarray(est, dtype=complex)
    bits = _decide_bits(np.ascontiguousarray(e).reshape(1, -1), alphabet)
    out = bits_to_symbols(bits, alphabet).reshape(e.shape)
    return complex(out) if np.isscalar(est) or e.ndim == 0 else out


class _MatchedFilter(NamedTuple):
    """Receiver front end of one configuration; see the module docstring."""

    matched: np.ndarray  # (M, N) C^H / M, so that y = r @ matched
    gram: np.ndarray  # (N, N) G = C C^H / M
    weights: tuple[np.ndarray, ...]  # branch k: (2N, 2|K|); real alphabet (N, |K|)
    signal: np.ndarray  # G, so that y = s @ signal without noise; real alphabet Re G
    noise: tuple[np.ndarray, np.ndarray]  # see _matched_channel


@lru_cache(maxsize=64)
def _matched_filter(cfg: SefdmConfig) -> _MatchedFilter:
    matrix = carrier_matrix(cfg)
    matched = _read_only(np.ascontiguousarray(matrix.conj().T) / cfg.n_samples)
    gram = _read_only(matrix @ matched)
    c = cfg.alpha_den
    # A real noise draw n maps to the float view of n @ matched through the
    # float view of matched, and to that of 1j n @ matched through the float
    # view of 1j matched: [-Im, Re] pairs.
    signal, noise, weights = gram, [matched.view(float), (1j * matched).view(float)], []
    for k in range(c):
        # G'[:, K]: rows of K zeroed, so that y_K - s @ G'[:, K] cancels every
        # other branch. With s = a + ib and -G' = P + iQ, the float view
        # [a_0, b_0, a_1, ...] times [[P, Q], [-Q, P]], interleaved, is the
        # interleaved -s @ G'[:, K].
        others = -gram[:, k::c]
        others[k::c] = 0
        embedded = np.empty((2 * cfg.n_carriers, 2 * others.shape[1]))
        embedded[0::2, 0::2] = others.real
        embedded[0::2, 1::2] = others.imag
        embedded[1::2, 0::2] = -others.imag
        embedded[1::2, 1::2] = others.real
        weights.append(embedded)
    if _is_real(cfg.alphabet):  # the real parts' rows and columns of the float views
        signal, noise = gram.real, [part[:, 0::2] for part in noise]
        weights = [w[0::2, 0::2] for w in weights]
    noise = tuple(_read_only(np.ascontiguousarray(part)) for part in noise)
    weights = tuple(_read_only(np.ascontiguousarray(w)) for w in weights)
    return _MatchedFilter(matched, gram, weights, _read_only(np.ascontiguousarray(signal)), noise)


def _matched_channel(symbols: np.ndarray, cfg: SefdmConfig, sigma2: float, gen,
                     out: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Matched-filter outputs of a (B, N) symbol batch sent through add_awgn,
    without the M samples: y = s G + (sigma n) C^H / M, into `out`.

    sigma n is add_awgn's noise on the (B, M) samples. Each draw is projected
    onto the float view of y by one real product with its (M, 2N) noise map,
    and the (B, 2N) sum is scaled by sqrt(sigma2 / 2). A real alphabet's
    Re y, all the stripe decoder reads, takes the (N, N) Re G and the Re
    columns of the maps.
    """
    front = _matched_filter(cfg)
    np.matmul(symbols.real if _is_real(cfg.alphabet) else symbols, front.signal, out=out)
    if sigma2 == 0.0:
        return out
    draws = _noise_draws(gen, sigma2, ws.take("draw", (len(symbols), cfg.n_samples)))
    products = ws.take("products", (2,) + out.view(float).shape)
    for draw, noise_map, product in zip(draws, front.noise, products):
        np.matmul(draw, noise_map, out=product)
    noise, imaginary = products
    noise += imaginary
    noise *= math.sqrt(sigma2 / 2.0)
    y_float = out.view(float)
    y_float += noise
    return out


def _ofdm_channel(symbols: np.ndarray, cfg: SefdmConfig, sigma2: float, gen,
                  out: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Matched-filter outputs of a (B, N) symbol batch at alpha = 1 sent
    through add_awgn, without the M samples: y = s + DFT(sigma n)[:N] / M,
    into `out`.

    At alpha = 1 the carriers are the first N bins of the M-point DFT, so
    G = I, and add_awgn's noise sigma n on the (B, M) samples enters y
    through one in-place FFT.
    """
    real = _is_real(cfg.alphabet)
    sent = symbols.real if real else symbols
    if sigma2 == 0.0:
        np.copyto(out, sent)
        return out
    shape = (len(symbols), cfg.n_samples)
    noise = ws.take("noise", shape, complex)
    draws = _noise_draws(gen, sigma2, ws.take("draw", shape))
    for part, draw in zip((noise.real, noise.imag), draws):
        np.copyto(part, draw)
    np.fft.fft(noise, out=noise)
    received = (noise.real if real else noise)[:, : cfg.n_carriers]
    np.multiply(received, math.sqrt(sigma2 / 2.0) / cfg.n_samples, out=out)
    out += sent
    return out


def _matched_outputs(r, cfg: SefdmConfig) -> tuple[np.ndarray, tuple[int, ...]]:
    """(B, N) matched-filter outputs of a length-M vector or (..., M) batch,
    and the batch shape.

    Received samples enter every receiver here; wrong lengths and non-finite
    samples are rejected.
    """
    r = np.asarray(r, dtype=complex)
    m_samp = cfg.n_samples
    if r.shape[-1:] != (m_samp,):
        raise DimensionError(f"expected {m_samp} samples on the last axis, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise DomainError("received samples must be finite")
    return r.reshape(-1, m_samp) @ _matched_filter(cfg).matched, r.shape[:-1]


def stripe_decode_soft(r, cfg: SefdmConfig, params: StripeParams = StripeParams()) -> np.ndarray:
    """Pre-slice soft symbol estimates after J stripe sweeps (diagnostics).

    Accepts a length-M vector or a (..., M) batch; returns (..., N).
    """
    y, batch = _matched_outputs(r, cfg)
    soft = _stripe_batch(y, cfg, params).astype(complex, copy=False)
    return soft.reshape(batch + (cfg.n_carriers,))


def stripe_decode(r, cfg: SefdmConfig, params: StripeParams = StripeParams()) -> np.ndarray:
    """Iterative interference-cancelling decoder; returns hard symbols.

    Accepts a length-M vector or a (..., M) batch; returns (..., N).
    """
    return slice_symbols(stripe_decode_soft(r, cfg, params), cfg.alphabet)


def _stripe_batch(y: np.ndarray, cfg: SefdmConfig, params: StripeParams) -> np.ndarray:
    """Run J sweeps over a (B, N) batch of matched-filter outputs; returns
    (B, N) soft estimates, real for a real alphabet and complex otherwise.
    A real alphabet reads Re y only, so y may be given as those floats. Only
    `gravity` allocates within a sweep; y is read once, into per-branch copies."""
    total_iter, alphabet = params.iterations, cfg.alphabet
    lo, hi, im_lo, im_hi = alphabet.bounding_box
    real = _is_real(alphabet)
    if not real and (lo, hi) != (im_lo, im_hi):
        raise DomainError(f"{alphabet.name!r}: stripe needs equal real and imaginary ranges")
    lo, hi = np.array(lo), np.array(hi)  # 0-d: a ufunc converts a Python float on every call
    front, rows, c = (y.real if real else y), len(y), cfg.alpha_den
    # Whole tiles, padded with zero rows: see _ROW_TILE.
    s_hat = np.zeros((rows + -rows % _ROW_TILE, cfg.n_carriers), front.dtype)
    s_float = s_hat.view(float)
    weights = _matched_filter(cfg).weights
    est = {w.shape[1]: np.empty((len(s_hat), w.shape[1])) for w in weights}
    sweep = []
    for k, w in enumerate(weights):
        # Contiguous per-branch y: a ufunc over contiguous arrays runs as one
        # flat loop, where a strided operand loops row by row.
        y_k = np.zeros_like(s_hat[:, k::c])
        y_k[:rows] = front[:, k::c]
        sweep.append((y_k.view(float), s_hat[:, k::c], w, est[w.shape[1]]))
    pulled = np.empty_like(s_hat)
    if alphabet == BPSK:
        pull = lambda: _pull_bpsk(s_hat, pulled)
    elif alphabet == QAM4:
        work = np.empty((5,) + s_hat.shape)
        pull = lambda: _pull_qam4(s_hat, pulled, work)
    else:  # `gravity` is looked up at call time, so that tracing can wrap it
        pull = lambda: gravity(s_hat, alphabet).real if real else gravity(s_hat, alphabet)
    # Annealing on the float view: a complex s * t, t real, computes a t - b 0
    # and a 0 + b t, the float products up to the sign of a zero, and numpy's
    # complex s /= J computes (a + b 0)(1/J), a product with 1/J, where a real
    # state divides by J. So these steps give the complex steps' bytes, as
    # tests/test_detect.py checks against the complex loop.
    shrink, by = (np.divide, total_iter) if real else (np.multiply, 1 / total_iter)
    for j in range(1, total_iter + 1):
        # The updated branch is visible to the remaining k within this sweep.
        for y_k, s_k, w, e in sweep:
            np.matmul(s_float, w, out=e)
            e += y_k
            # Truncation to the bounding box: every float of the state has range [lo, hi].
            # A real state is clamped straight into its stride.
            np.maximum(e, lo, out=e)
            np.minimum(e, hi, out=s_k if real else e)
            if not real:
                s_k[...] = e.view(complex)
        p = pull().view(float)
        s_float *= total_iter - j
        shrink(s_float, by, out=s_float)
        p *= j / total_iter
        s_float += p
    return s_hat[:rows]


def check_ml_guard(cfg: SefdmConfig) -> int:
    """The candidate count |alphabet|^N; CapacityError above the guard."""
    count = len(cfg.alphabet.points) ** cfg.n_carriers
    if count > _ML_GUARD:
        raise CapacityError(
            f"{len(cfg.alphabet.points)}^{cfg.n_carriers} = {count} candidates "
            f"exceeds the enumeration guard of {_ML_GUARD}"
        )
    return count


def _ml_chunk(blocks: int, n_car: int) -> int:
    """Candidates per chunk that keep one chunk within _ML_CHUNK_BYTES.

    A candidate takes, in 8-byte words: its metric column (B) and its 2N
    weights and one energy; while it is built, its N int64 odometer digits,
    its N complex symbols (2N) and their conjugates in the energies' einsum
    (2N). Not all of these are alive at once, so the sum bounds the peak."""
    return max(1, _ML_CHUNK_BYTES // (8 * (blocks + 7 * n_car + 1)))


def _ml_symbols(cfg: SefdmConfig, index: np.ndarray) -> np.ndarray:
    """Candidate symbol vectors at the given odometer positions over the
    constellation indices, first carrier most significant."""
    points = cfg.alphabet.points_array()
    size = len(points)
    powers = size ** np.arange(cfg.n_carriers - 1, -1, -1)
    return points[(index[:, None] // powers) % size]


def ml_decode(r, cfg: SefdmConfig) -> np.ndarray:
    """Exhaustive minimum-distance decoding over every candidate symbol vector.

    Guarded at |alphabet|^N <= 2^20 candidates; ties break toward the earliest
    candidate in odometer order over the constellation indices. Accepts a
    length-M vector or a (..., M) batch.
    """
    count = check_ml_guard(cfg)
    y, batch = _matched_outputs(r, cfg)
    x = y.view(float)
    gram = _matched_filter(cfg).gram
    chunk = _ml_chunk(len(y), cfg.n_carriers)
    rows = np.arange(len(y))
    best_metric = np.full(len(y), np.inf)
    best_index = np.zeros(len(y), dtype=np.int64)
    for start in range(0, count, chunk):
        s = _ml_symbols(cfg, np.arange(start, min(start + chunk, count)))
        # ||r - s C||^2 / M less the common ||r||^2 / M: the energies s G s^H
        # minus 2 Re(y . conj(s)) = x @ weights on the float views. Both are
        # fixed-order sums: a candidate's metric does not depend on its chunk.
        energies = np.einsum("kn,nm,km->k", s, gram, s.conj()).real
        weights = np.ascontiguousarray(2 * s.view(float).T)
        del s  # a chunk's budget: the metric block, the weights and the energies
        metric = x @ weights
        np.subtract(energies, metric, out=metric)
        arg = metric.argmin(axis=1)
        val = metric[rows, arg]
        del metric, weights  # one chunk at a time
        better = val < best_metric  # strict: earlier candidates win ties
        best_metric[better] = val[better]
        best_index[better] = start + arg[better]
    return _ml_symbols(cfg, best_index).reshape(batch + (cfg.n_carriers,))
