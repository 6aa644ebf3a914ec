"""Correctness checks computed apart from the program under test.

Every check returns a list of problems; an empty list means the check
passed. Nothing here imports ``sefdm``: the references (the carrier product,
the exhaustive search, the BER bound) are computed from their definitions.

The statistical checks use Wilson score intervals at z = 5 rather than 95%
intervals: a run fixes its inputs from ``--seed``, so a 95% interval would
fail on about one seed in twenty per point of a correct program, and such an
operation could not be counted the same way on every seed. At z = 5 a correct
program fails well under once in a million points; a result off the bound by
more than the binomial spread still fails (see selfcheck.py).
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import product

import numpy as np

Z = 5.0

# Relative error allowed between modulate_interleaved and the direct product.
MODULATION_TOL = 1e-9


def q_bound(ebn0_db: float) -> float:
    """Genie-aided BER Q(sqrt(2 Eb/N0)) of BPSK and Gray 4-QAM."""
    return 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))


def wilson(errors: int, bits: int, z: float = Z) -> tuple[float, float]:
    """Wilson score interval for a binomial rate."""
    p = errors / bits
    denom = 1.0 + z * z / bits
    centre = (p + z * z / (2 * bits)) / denom
    half = z * math.sqrt(p * (1 - p) / bits + z * z / (4 * bits * bits)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def carrier_rows(n_carriers: int, n_samples: int, b: int, c: int) -> np.ndarray:
    """exp(2 pi i n m b / (c M)) for n < N, m < M."""
    n = np.arange(n_carriers)[:, None]
    m = np.arange(n_samples)[None, :]
    return np.exp(2j * np.pi * n * m * b / (c * n_samples))


def modulation_problems(symbols, signal, n_samples: int, b: int, c: int) -> list[str]:
    """``signal`` rows equal the direct carrier product of ``symbols`` rows."""
    symbols = np.asarray(symbols)
    direct = symbols @ carrier_rows(symbols.shape[-1], n_samples, b, c)
    err = float(np.max(np.abs(np.asarray(signal) - direct)) / np.max(np.abs(direct)))
    if not err <= MODULATION_TOL:
        return [f"modulation differs from the direct product by {err:.2e}"]
    return []


def ml_problems(received, decided, points, n_samples: int, b: int, c: int) -> list[str]:
    """``decided`` rows are the minimum-distance candidates of ``received`` rows."""
    received = np.asarray(received)
    n_carriers = np.asarray(decided).shape[-1]
    candidates = np.array(list(product(points, repeat=n_carriers)))
    signals = candidates @ carrier_rows(n_carriers, n_samples, b, c)
    dist = np.sum(np.abs(received[:, None, :] - signals[None]) ** 2, axis=2)
    best = candidates[dist.argmin(axis=1)]
    return [f"ML decision {got} is not the nearest candidate {want}"
            for got, want in zip(np.asarray(decided), best) if not np.array_equal(got, want)]


def point_problems(record, alpha, ebn0_db: float, bits_per_block: int, periods: int,
                   baseline: bool) -> list[str]:
    """One sweep point: its grid position, cap stop, counts and BER bound."""
    problems = []
    if ((record.alpha_num, record.alpha_den), record.ebn0_db) != (tuple(alpha), ebn0_db):
        return [f"record at {record.alpha_num}/{record.alpha_den}, {record.ebn0_db} dB "
                f"where the grid has {alpha[0]}/{alpha[1]}, {ebn0_db} dB"]
    if record.bits != periods * bits_per_block:
        problems.append(f"{record.bits} bits, expected {periods} periods of {bits_per_block}")
    if not 0 <= record.errors <= record.bits or record.ber != record.errors / record.bits:
        problems.append(f"inconsistent counts: {record.errors} errors, {record.bits} bits, "
                        f"ber {record.ber}")
        return problems
    lo, hi = wilson(record.errors, record.bits)
    bound = q_bound(ebn0_db)
    if hi < bound:
        problems.append(f"ber {record.ber:.3e} at {ebn0_db} dB is below the genie bound "
                        f"{bound:.3e} beyond its interval (upper {hi:.3e})")
    if baseline and lo > bound:
        problems.append(f"OFDM ber {record.ber:.3e} at {ebn0_db} dB is above Q(sqrt(2 Eb/N0)) "
                        f"= {bound:.3e} beyond its interval (lower {lo:.3e})")
    return problems


def falling_problems(records) -> list[tuple[int, str]]:
    """BER of one alpha's curve does not rise with Eb/N0 beyond the intervals.

    Returns (index, problem) for each point whose BER rose from its predecessor.
    """
    problems = []
    for i, (prev, nxt) in enumerate(zip(records, records[1:]), start=1):
        if wilson(nxt.errors, nxt.bits)[0] > wilson(prev.errors, prev.bits)[1]:
            problems.append((i, f"ber rises from {prev.ber:.3e} at {prev.ebn0_db} dB to "
                            f"{nxt.ber:.3e} at {nxt.ebn0_db} dB beyond the intervals"))
    return problems


def decode_problems(sent, decided) -> list[str]:
    """Noiseless decoding returns exactly the sent symbols."""
    wrong = int(np.count_nonzero(np.asarray(sent) != np.asarray(decided)))
    return [f"{wrong} of {np.asarray(sent).size} noiseless symbols decoded wrong"] if wrong else []


def csv_problems(read_back, records) -> list[str]:
    """The CSV read back equals the records, sorted by (alpha, Eb/N0)."""
    expected = sorted(records, key=lambda r: (r.alpha_num / r.alpha_den, r.ebn0_db))
    if read_back != expected:
        return ["CSV read back differs from the records in (alpha, Eb/N0) order"]
    return []


def svg_problems(path, curves: int) -> list[str]:
    """The plot parses as SVG and labels one curve per alpha."""
    import xml.etree.ElementTree as ET

    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"plot is not well-formed XML: {exc}"]
    labels = [t for t in root.iter("{http://www.w3.org/2000/svg}text") if "alpha=" in (t.text or "")]
    if not root.tag.endswith("svg") or len(labels) != curves:
        return [f"plot has {len(labels)} curve labels, expected {curves}"]
    return []


def same_results(a, b) -> bool:
    """Records equal in everything but their wall time."""
    strip = lambda recs: [replace(r, wall_time_s=0.0) for r in recs]
    return strip(a) == strip(b)
