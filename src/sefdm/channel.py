"""AWGN channel calibrated to Eb/N0, and inter-carrier interference analytics.

The interference formulas are diagnostics only; they quantify how a sampled
simulation exaggerates the leakage between non-orthogonal carriers and never
enter the modulation path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DomainError, SefdmConfig, _as_generator


@dataclass(frozen=True)
class NoiseSpec:
    """Total complex noise variance per sample for a given Eb/N0.

    Eb is the ensemble-average energy per bit, M*Es/bits_per_symbol (the
    cross-carrier terms vanish in expectation for every alpha), so the noise
    level is constant across blocks. ebn0_db = +inf is the exact no-noise
    sentinel (sigma2 = 0); a bool or non-real Eb/N0, NaN and -inf are
    rejected, and so is a finite Eb/N0 whose linear value overflows (above
    about 3082 dB) or whose sigma2 would. A sigma2 that is not finite and
    non-negative is rejected too.
    """

    ebn0_db: float
    sigma2: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise DomainError(
                f"noise variance at Eb/N0 = {self.ebn0_db} dB must be finite and "
                f"non-negative, got {self.sigma2}"
            )

    @classmethod
    def from_config(cls, ebn0_db: float, cfg: SefdmConfig) -> "NoiseSpec":
        if isinstance(ebn0_db, bool) or not isinstance(ebn0_db, numbers.Real):
            raise DomainError(f"Eb/N0 must be a real number, got {ebn0_db!r}")
        if math.isnan(ebn0_db) or ebn0_db == -math.inf:
            raise DomainError(f"Eb/N0 must be finite or +inf, got {ebn0_db}")
        if ebn0_db == math.inf:
            return cls(ebn0_db, 0.0)
        eb = cfg.n_samples * cfg.alphabet.energy / cfg.alphabet.bits_per_symbol
        try:
            sigma2 = eb / 10.0 ** (ebn0_db / 10.0)
        except OverflowError:
            raise DomainError(
                f"Eb/N0 = {ebn0_db} dB overflows a float; use inf for no noise"
            ) from None
        except ZeroDivisionError:  # 10 ** (ebn0_db / 10) underflowed to 0
            sigma2 = math.inf
        return cls(ebn0_db, sigma2)


def add_awgn(u, spec: NoiseSpec, rng) -> np.ndarray:
    """Add circularly symmetric complex Gaussian noise, variance sigma2 per sample.

    ``rng`` is a RandomSource or a numpy Generator (DomainError otherwise,
    at sigma2 = 0 too); the output is deterministic given the generator
    state. The draws are part of the contract (see `_noise_draws`): each
    part's normals are scaled by sqrt(sigma2 / 2) and added; at sigma2 = 0 a
    copy of ``u`` is returned. The input is not modified; a 0-d input gives
    a numpy complex scalar.
    """
    gen = _as_generator(rng)
    u = np.asarray(u, dtype=complex)
    out = u.copy()
    scale = math.sqrt(spec.sigma2 / 2.0)
    for part, draw in zip((out.real, out.imag), _noise_draws(gen, spec.sigma2, np.empty(u.shape))):
        draw *= scale
        part += draw
    return out if out.ndim else out[()]


def _noise_draws(gen: np.random.Generator, sigma2: float, out: np.ndarray):
    """The noise draws of every channel in the Monte Carlo loop, into the
    caller's float buffer `out`, shaped as the samples: yields `out` holding
    the real parts' standard normals, then holding the imaginary parts'; at
    sigma2 = 0 it draws and yields nothing. The caller uses each draw before
    asking for the next. A channel that replaces add_awgn draws through here,
    so that it draws the same normals in the same order."""
    if sigma2 == 0.0:
        return
    for _ in range(2):
        gen.standard_normal(out=out)
        yield out


def _sinc(x):
    """sin(pi*x)/x, with the continuous limit pi at x = 0."""
    return np.pi * np.sinc(x)


def interference_continuous(n: int, m: int, alpha: float) -> complex:
    """Leakage of a unit symbol on carrier n onto carrier m for the
    continuous-time signal."""
    if n == m:
        raise DomainError("interference is defined for distinct carriers only")
    x = (n - m) * alpha
    return complex((_sinc(x) / np.pi) * np.exp(1j * np.pi * x))


def interference_discrete(n: int, m: int, alpha: float, n_samples: int) -> complex:
    """Leakage of a unit symbol on carrier n onto carrier m when sampled M
    times per period.

    This is the exact leakage of the M-sample carrier matrix: the row inner
    product C[n] . conj(C[m]) / M of ``carrier_matrix``. It tends to
    interference_continuous as M grows, but only as 1/M: the phase is rotated
    by the factor (M-1)/M, which leaves a residual of pi*|n-m|*alpha/M, and to
    first order that residual is the relative deviation from the continuous
    weight. The magnitude is magnified by sin(pi x)/(M sin(pi x/M)), with
    x = (n-m)*alpha, and deviates from the continuous one only at second
    order, by (pi x/M)^2/6.
    """
    if n == m:
        raise DomainError("interference is defined for distinct carriers only")
    if n_samples < 1:
        raise DomainError("sample count must be positive")
    x = (n - m) * alpha
    magnified = _sinc(x) / _sinc(x / n_samples)
    return complex(magnified * np.exp(1j * np.pi * x * (n_samples - 1) / n_samples))
