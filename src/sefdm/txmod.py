"""SEFDM signal generation.

Two equivalent transmitter paths are provided:

* ``modulate_direct`` -- multiply the symbol vector by the N x M carrier
  matrix c_nm = exp(2*pi*i*n*m*b/(c*M)).
* ``modulate_interleaved`` -- decompose the system into c interleaved OFDM
  branches. Branch k carries carriers k, k + c, k + 2c, ... on bins
  0, b, 2b, ... of an M-point spectrum; its signal is the unnormalised
  inverse DFT of that spectrum times carrier k's own samples, row k of the
  carrier matrix. The loop builds every branch in one reused (B, M)
  spectrum, multiplies each inverse DFT in place and sums into the first;
  it skips branches that carry no carrier (N < c) and the multiply of
  branch 0, whose row is exactly 1.

The two paths agree to floating-point rounding for every configuration
SefdmConfig accepts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import DimensionError, SefdmConfig


def _read_only(array: np.ndarray) -> np.ndarray:
    """Cached arrays are shared by every caller; an in-place write raises."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def carrier_matrix(cfg: SefdmConfig) -> np.ndarray:
    """The N x M carrier matrix, indices from zero."""
    n = np.arange(cfg.n_carriers)[:, None]
    m = np.arange(cfg.n_samples)[None, :]
    b, c = cfg.alpha_num, cfg.alpha_den
    return _read_only(np.exp(2j * np.pi * n * m * b / (c * cfg.n_samples)))


def _check_symbols(s, cfg: SefdmConfig) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if s.shape[-1:] != (cfg.n_carriers,):
        raise DimensionError(
            f"expected {cfg.n_carriers} symbols on the last axis, got shape {s.shape}"
        )
    return s


def modulate_direct(s, cfg: SefdmConfig) -> np.ndarray:
    """U_m = sum_k S_k exp(2*pi*i*k*m*b/(c*M)), via the carrier matrix.

    Accepts a length-N vector or a (..., N) batch.
    """
    s = _check_symbols(s, cfg)
    return s @ carrier_matrix(cfg)


def modulate_interleaved(s, cfg: SefdmConfig) -> np.ndarray:
    """Sum of the c interleaved OFDM branches; equals modulate_direct to rounding.

    Accepts a length-N vector or a (..., N) batch.
    """
    s = _check_symbols(s, cfg)
    flat = s.reshape(-1, cfg.n_carriers)
    rows = carrier_matrix(cfg)
    b, c = cfg.alpha_num, cfg.alpha_den
    spectrum = np.zeros((flat.shape[0], cfg.n_samples), dtype=complex)
    # Branch k carries carriers k::c on bins 0, b, 2b, ...; branch 0 has the most.
    bins = spectrum[:, : cfg.n_padded // c * b : b]
    for k in range(min(c, cfg.n_carriers)):
        carriers = flat[:, k::c]
        bins[:, : carriers.shape[1]] = carriers
        bins[:, carriers.shape[1] :] = 0
        branch = np.fft.ifft(spectrum, axis=1, norm="forward")
        if k == 0:
            u = branch
        else:
            branch *= rows[k]
            u += branch
    return u.reshape(s.shape[:-1] + (cfg.n_samples,))
