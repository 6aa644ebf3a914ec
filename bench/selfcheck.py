"""Shows that every correctness check of the benchmark bites.

Run from the root of a source checkout:

    python3 bench/selfcheck.py

Each check is fed a correct result, which it must pass, and a corrupted one,
which it must fail. Exits 0 only if every check does both.
"""

from __future__ import annotations

import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from run import import_sefdm


def main() -> int:
    sefdm, _ = import_sefdm()
    from sefdm.cli import emit_csv, emit_plot, read_csv

    rng = np.random.default_rng(0)
    qam4 = np.asarray(sefdm.QAM4.points)
    cases = []

    # Modulation: the program's fast path against the direct carrier product.
    cfg = sefdm.SefdmConfig(16, 256, 5, 6, sefdm.QAM4)
    symbols = qam4[rng.integers(0, 4, (4, 16))]
    signal = sefdm.modulate_interleaved(symbols, cfg)
    bent = signal.copy()
    bent[2, 100] += 1e-6 * np.abs(signal).max()
    cases.append(("modulation sample", checks.modulation_problems(symbols, signal, 256, 5, 6),
                  checks.modulation_problems(symbols, bent, 256, 5, 6)))

    # ML decisions: one flipped decision.
    cfg = sefdm.SefdmConfig(4, 128, 3, 5, sefdm.QAM4)
    sent = qam4[rng.integers(0, 4, (8, 4))]
    received = sent @ checks.carrier_rows(4, 128, 3, 5)
    received = received + 0.5 * (rng.standard_normal(received.shape)
                                 + 1j * rng.standard_normal(received.shape))
    decided = sefdm.ml_decode(received, cfg)
    flipped = decided.copy()
    flipped[3, 1] = -flipped[3, 1]
    cases.append(("ML decision", checks.ml_problems(received, decided, qam4, 128, 3, 5),
                  checks.ml_problems(received, flipped, qam4, 128, 3, 5)))

    # Sweep points: a real OFDM sweep, then a BER below the bound, a BER above
    # it on the baseline, and a point that stopped short of its cap.
    spec = sefdm.SweepSpec(carriers=64, samples=64, alphas=((1, 1),), ebn0_db=(4.0, 8.0),
                           alphabet="qam4", decoder="ofdm", min_bit_errors=10**9,
                           max_symbol_periods=4096, seed=3)
    records = sefdm.ber_sweep(spec)
    good = records[1]
    below = replace(good, errors=good.errors // 4, ber=(good.errors // 4) / good.bits)
    above = replace(good, errors=good.errors * 4, ber=(good.errors * 4) / good.bits)
    short = replace(good, bits=good.bits - 128, ber=good.errors / (good.bits - 128))
    check = lambda r: checks.point_problems(r, (1, 1), 8.0, 128, 4096, baseline=True)
    cases.append(("BER not below the genie bound", check(good), check(below)))
    cases.append(("OFDM BER inside its interval around the bound", check(good), check(above)))
    cases.append(("point stops on its cap", check(good), check(short)))

    # A stripe curve whose BER rises with Eb/N0.
    risen = [records[1], replace(records[0], ebn0_db=records[1].ebn0_db + 1)]
    cases.append(("BER falls with Eb/N0", checks.falling_problems(records),
                  checks.falling_problems(risen)))

    # Noiseless decoding: one wrong symbol.
    wrong = sent.copy()
    wrong[5, 2] = -wrong[5, 2]
    cases.append(("noiseless decode", checks.decode_problems(sent, sent),
                  checks.decode_problems(sent, wrong)))

    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = Path(tmp) / "sweep.csv"
        emit_csv(records, path)
        back = read_csv(path)
        shuffled = back[::-1]
        cases.append(("CSV read back", checks.csv_problems(back, records),
                      checks.csv_problems(shuffled, records)))
        edited = [back[0], replace(back[1], errors=back[1].errors + 1)]
        cases.append(("CSV read back (one field)", checks.csv_problems(back, records),
                      checks.csv_problems(edited, records)))
        svg = Path(tmp) / "sweep.svg"
        emit_plot(records, svg)
        good_svg = checks.svg_problems(svg, 1)
        svg.write_text(svg.read_text()[: len(svg.read_text()) // 2])
        cases.append(("SVG plot", good_svg, checks.svg_problems(svg, 1)))

    timed = [replace(r, wall_time_s=random.random()) for r in records]
    recount = [records[0], replace(records[1], errors=records[1].errors + 1)]
    cases.append(("same records across rounds and workers",
                  [] if checks.same_results(records, timed) else ["differs"],
                  [] if checks.same_results(records, recount) else ["differs"]))

    ok = True
    for name, on_good, on_bad in cases:
        bites = not on_good and bool(on_bad)
        ok = ok and bites
        print(f"{'BITES' if bites else 'BROKEN'}  {name}: correct -> {on_good or 'pass'}; "
              f"corrupted -> {on_bad[0] if on_bad else 'pass'}")
    print("every check bites" if ok else "some check does not bite")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
