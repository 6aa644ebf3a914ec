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

The stripe decoder treats the SEFDM signal as c interleaved OFDM systems.
Branch k carries the carrier group K = {k, k + c, k + 2c, ...}, whose carriers
sit on distinct integer DFT bins, so G[K, K] = I. Cancelling the estimates of
the other c-1 branches from r and demodulating branch k is then
s_K <- y_K - sum over n not in K of s_n G[n, K]: one sweep is a block
Gauss-Seidel pass over the c groups. The decoder keeps its state in carrier
order, where branch k is the stride k::c, and updates it in real arithmetic:
on the float view [Re s_0, Im s_0, Re s_1, ...] one branch update is a single
real matrix product with the (2N, 2|K|) real embedding of -G[:, K] (rows of K
zeroed), plus y_K, written back through the complex view s[:, k::c]. Each
update is truncated to the bounding box [lo, hi], one range for real and
imaginary parts alike; after every sweep the whole estimate vector is
annealed in place toward the constellation with an inverse-square-distance
"gravity" pull whose weight ramps linearly from 1/J to 1 over the J sweeps.
The final vector is sliced to hard symbols.

A real alphabet (BPSK, PAM) keeps every imaginary part at 0, so its state is
N reals: the weights are Re(-G[:, K]), the even rows and columns of the
embedding, and y_K is Re y[:, k::c]. A complex alphabet needs equal real and
imaginary ranges (DomainError otherwise). Gravity toward BPSK's +-1 has the
closed form 2x / (1 + x^2), exact at +-1; toward QAM4's +-1+-1j it is closed
too (`_pull_qam4`). Each maps every point exactly to itself. The public
`gravity` remains the generic pull, used for every other alphabet.

The ML decoder minimises s G s^H - 2 Re(y . conj(s)) over every candidate
symbol vector, in chunks whose working memory is bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import BPSK, QAM4, Alphabet, CapacityError, DimensionError, DomainError, SefdmConfig
from .txmod import carrier_matrix

# Squared-distance threshold under which a soft estimate counts as exactly on
# a constellation point (distance < 1e-12).
_EXACT_HIT_SQ = 1e-24

# Enumeration guard for the exhaustive decoder.
_ML_GUARD = 2**20

# Working memory of one ML chunk, in bytes: the B x chunk float64 metric block
# plus the chunk's table of 2N weights and one energy per candidate.
_ML_CHUNK_BYTES = 2**25


@dataclass(frozen=True)
class StripeParams:
    """Iteration count for the stripe decoder; 20 is a reasonable default."""

    iterations: int = 20

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


def gravity(est, alphabet: Alphabet):
    """Inverse-square-distance weighted centroid of the constellation points.

    An estimate within 1e-12 of a point returns that point exactly. Accepts a
    scalar or an array of any shape.
    """
    e = np.asarray(est, dtype=complex)
    points = alphabet.points_array()
    flat = e.reshape(-1)
    # (P, L) squared distances, constellation points first, so that every
    # reduction over the points runs across whole rows.
    d2 = np.subtract.outer(points.real, flat.real)
    d2 *= d2
    dy = np.subtract.outer(points.imag, flat.imag)
    dy *= dy
    d2 += dy
    hit = d2 < _EXACT_HIT_SQ
    with np.errstate(divide="ignore"):
        w = np.divide(1.0, d2, out=d2)
    # Exact hits would divide by ~0; replace their weight columns by an indicator.
    w = np.where(hit.any(axis=0), hit, w)
    total = w.sum(axis=0)
    out = np.empty(flat.shape, dtype=complex)
    np.divide(points.real @ w, total, out=out.real)
    np.divide(points.imag @ w, total, out=out.imag)
    out = out.reshape(e.shape)
    return complex(out) if np.isscalar(est) or e.ndim == 0 else out


def _pull_bpsk(x: np.ndarray) -> np.ndarray:
    """gravity toward the BPSK points +-1 for real estimates: the weights
    1/(x-1)^2 and 1/(x+1)^2 give the centroid 2x / (1 + x^2)."""
    # In place: on a 1024-block batch, four fresh temporaries cost 5x the
    # arithmetic in first-touch page faults.
    out = x * x
    out += 1
    np.divide(x, out, out=out)
    out *= 2
    return out


def _pull_qam4(s: np.ndarray) -> np.ndarray:
    """gravity toward the QAM4 points +-1+-1j for estimates in the bounding
    box. With u = Re s, v = Im s, q = u^2 + v^2 and r = q + 2, the squared
    distances are r - 2(+-u +- v), and the inverse-square weighted centroid is

        Re = 2u (r^2 - 4(u^2 - v^2)) / (r (q^2 + 4))
        Im = 2v (r^2 + 4(u^2 - v^2)) / (r (q^2 + 4)),

    where q^2 + 4 = r^2 - 4r + 8 >= 4, so nothing divides by zero, and each
    point maps exactly to itself."""
    # No (P, B, N) distance workspace, and few ufunc calls: at 64 blocks a
    # batch is bound by per-call overhead.
    f = s.view(float)
    num = f * f
    u2, v2 = num[:, 0::2], num[:, 1::2]
    scale = u2 + v2
    r = scale + 2
    scale *= scale
    scale += 4
    scale *= r
    np.divide(2, scale, out=scale)
    diff = u2 - v2
    diff *= 4
    r *= r
    np.subtract(r, diff, out=u2)
    np.add(r, diff, out=v2)
    out = s * scale
    out_float = out.view(float)
    out_float *= num
    return out


_PULLS = {BPSK: _pull_bpsk, QAM4: _pull_qam4}  # closed forms; gravity for the rest


def _is_real(alphabet: Alphabet) -> bool:  # then the stripe state is N reals
    return not any(p.imag for p in alphabet.points)


def truncate(est, alphabet: Alphabet):
    """Clamp real and imaginary parts to the constellation bounding box."""
    re_lo, re_hi, im_lo, im_hi = alphabet.bounding_box
    e = np.asarray(est, dtype=complex)
    out = np.clip(e.real, re_lo, re_hi) + 1j * np.clip(e.imag, im_lo, im_hi)
    return complex(out) if np.isscalar(est) or e.ndim == 0 else out


def slice_symbols(est, alphabet: Alphabet):
    """Hard decision to the nearest constellation point.

    Ties break toward the lowest point index (argmin keeps the first minimum).
    """
    e = np.asarray(est, dtype=complex)
    points = alphabet.points_array()
    d2 = np.abs(e[..., None] - points) ** 2
    out = points[d2.argmin(axis=-1)]
    return complex(out) if np.isscalar(est) or e.ndim == 0 else out


class _MatchedFilter(NamedTuple):
    """Receiver front end of one configuration; see the module docstring."""

    matched: np.ndarray  # (M, N) C^H / M, so that y = r @ matched
    gram: np.ndarray  # (N, N) G = C C^H / M
    weights: tuple[np.ndarray, ...]  # branch k: (2N, 2|K|); real alphabet (N, |K|)


@lru_cache(maxsize=64)
def _matched_filter(cfg: SefdmConfig) -> _MatchedFilter:
    matrix = carrier_matrix(cfg)
    matched = np.ascontiguousarray(matrix.conj().T) / cfg.n_samples
    gram = matrix @ matched
    c, real = cfg.alpha_den, _is_real(cfg.alphabet)
    weights = []
    for k in range(c):
        # G'[:, K]: rows of K zeroed, so that y_K - s @ G'[:, K] cancels every
        # other branch. With s = a + ib and -G' = P + iQ, the float view
        # [a_0, b_0, a_1, ...] times [[P, Q], [-Q, P]], interleaved, is the
        # interleaved -s @ G'[:, K]; a real alphabet needs only P.
        others = -gram[:, k::c]
        others[k::c] = 0
        if real:
            weights.append(others.real.copy())
            continue
        embedded = np.empty((2 * cfg.n_carriers, 2 * others.shape[1]))
        embedded[0::2, 0::2] = others.real
        embedded[0::2, 1::2] = others.imag
        embedded[1::2, 0::2] = -others.imag
        embedded[1::2, 1::2] = others.real
        weights.append(embedded)
    return _MatchedFilter(matched, gram, tuple(weights))


def _matched_outputs(r, cfg: SefdmConfig) -> tuple[np.ndarray, tuple[int, ...]]:
    """(B, N) matched-filter outputs of a length-M vector or (..., M) batch,
    and the batch shape.

    Received samples enter every receiver here; wrong lengths and non-finite
    samples are rejected.
    """
    r = np.asarray(r, dtype=complex)
    m_samp = cfg.n_samples
    if r.shape[-1] != m_samp:
        raise DimensionError(f"expected {m_samp} samples, got {r.shape[-1]}")
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
    (B, N) soft estimates, real for a real alphabet and complex otherwise."""
    total_iter = params.iterations
    lo, hi, im_lo, im_hi = cfg.alphabet.bounding_box
    # `gravity` is looked up at call time, so that tracing can wrap it.
    if _is_real(cfg.alphabet):
        s_hat, front, generic = np.zeros(y.shape), y.real, lambda s: gravity(s, cfg.alphabet).real
    elif (lo, hi) == (im_lo, im_hi):
        s_hat, front, generic = np.zeros_like(y), y, lambda s: gravity(s, cfg.alphabet)
    else:
        raise DomainError(f"{cfg.alphabet.name!r}: stripe needs equal real and imaginary ranges")
    pull = _PULLS.get(cfg.alphabet, generic)
    lo, hi = np.array(lo), np.array(hi)  # 0-d: a ufunc converts a Python float on every call
    s_float = s_hat.view(float)
    c = cfg.alpha_den
    # Contiguous per-branch y: a ufunc over contiguous arrays runs as one
    # flat loop, where a strided operand loops row by row.
    sweep = [
        (np.ascontiguousarray(front[:, k::c]).view(float), s_hat[:, k::c], weights)
        for k, weights in enumerate(_matched_filter(cfg).weights)
    ]
    for j in range(1, total_iter + 1):
        # The updated branch is visible to the remaining k within this sweep.
        for y_k, s_k, weights in sweep:
            est = s_float @ weights
            est += y_k
            # Truncation to the bounding box: every float of the state has range [lo, hi].
            np.maximum(est, lo, out=est)
            np.minimum(est, hi, out=est)
            s_k[...] = est.view(s_hat.dtype)
        # Annealing in the state's own dtype: a complex /= T multiplies by
        # 1/T, where a float /= T divides, so the two would differ in bits.
        pulled = pull(s_hat)
        s_hat *= total_iter - j
        s_hat /= total_iter
        s_hat += (j / total_iter) * pulled
    return s_hat


def ml_capacity(cfg: SefdmConfig) -> int:
    return len(cfg.alphabet.points) ** cfg.n_carriers


def check_ml_guard(cfg: SefdmConfig) -> None:
    count = ml_capacity(cfg)
    if count > _ML_GUARD:
        raise CapacityError(
            f"{len(cfg.alphabet.points)}^{cfg.n_carriers} = {count} candidates "
            f"exceeds the enumeration guard of {_ML_GUARD}"
        )


def _ml_chunk(blocks: int, n_car: int) -> int:
    """Candidates per chunk that keep one chunk within _ML_CHUNK_BYTES."""
    return max(1, _ML_CHUNK_BYTES // (8 * (blocks + 2 * n_car + 1)))


def _ml_symbols(cfg: SefdmConfig, index: np.ndarray) -> np.ndarray:
    """Candidate symbol vectors at the given odometer positions over the
    constellation indices, first carrier most significant."""
    points = cfg.alphabet.points_array()
    size = len(points)
    powers = size ** np.arange(cfg.n_carriers - 1, -1, -1)
    return points[(index[:, None] // powers) % size]


def _ml_weights(cfg: SefdmConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(2N, K) weights and (K,) energies of candidates start..stop-1.

    With x = [Re y, Im y], x @ weights = 2 Re(y . conj(s)) and the energies
    are s G s^H, each computed by a fixed-order sum so that a candidate's
    metric does not depend on the chunk it falls in.
    """
    candidates = _ml_symbols(cfg, np.arange(start, stop))
    gram = _matched_filter(cfg).gram
    energies = np.einsum("kn,nm,km->k", candidates, gram, candidates.conj()).real
    weights = 2 * np.concatenate([candidates.real, candidates.imag], axis=1).T
    return np.ascontiguousarray(weights), energies


def ml_decode(r, cfg: SefdmConfig) -> np.ndarray:
    """Exhaustive minimum-distance decoding over every candidate symbol vector.

    Guarded at |alphabet|^N <= 2^20 candidates; ties break toward the earliest
    candidate in odometer order over the constellation indices. Accepts a
    length-M vector or a (..., M) batch.
    """
    check_ml_guard(cfg)
    y, batch = _matched_outputs(r, cfg)
    x = np.concatenate([y.real, y.imag], axis=1)
    count = ml_capacity(cfg)
    chunk = _ml_chunk(len(y), cfg.n_carriers)
    best_metric = np.full(len(y), np.inf)
    best_index = np.zeros(len(y), dtype=np.int64)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        val, arg = _ml_chunk_best(x, *_ml_weights(cfg, start, stop))
        better = val < best_metric  # strict: earlier candidates win ties
        best_metric[better] = val[better]
        best_index[better] = start + arg[better]
    return _ml_symbols(cfg, best_index).reshape(batch + (cfg.n_carriers,))


def _ml_chunk_best(x: np.ndarray, weights: np.ndarray, energies: np.ndarray):
    """(metric, position) of each block's best candidate within one chunk;
    the earliest wins ties. The B x chunk metric block is freed on return."""
    # ||r - s C||^2 / M up to the common ||r||^2 / M term.
    metric = x @ weights
    np.subtract(energies, metric, out=metric)
    arg = metric.argmin(axis=1)
    return metric[np.arange(len(x)), arg], arg
