"""Golden decisions: short sweeps at every gate's configuration must count
exactly the errors stored in golden_decisions.csv.

The gates print penalties rounded to three decimals, so one point's error
count can move without changing them; this module compares every record
column except wall_time_s. The golden file was written once, by

    PYTHONPATH=src python tests/test_golden.py tests/golden_decisions.csv

and a speed-up of the chain must pass it unedited. If a numpy or BLAS
upgrade flips a near-tie and fails it, report that; do not re-seed or shrink
the sweeps.
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

from sefdm.cli import emit_csv, read_csv
from sefdm.harness import SweepSpec, ber_sweep

GOLDEN = Path(__file__).with_name("golden_decisions.csv")
_BLOCKS = 4096

# One sweep per gate configuration: stripe (gates 3-6), ML (gate 7), OFDM
# (gate 2), and the noiseless alpha = 4/5 floor of gate 5.
SWEEPS = {
    "stripe-n16-m256-5/6": SweepSpec(16, 256, ((5, 6),), (6.0, 8.0), "qam4", "stripe", seed=103),
    "stripe-n16-m16-5/6": SweepSpec(16, 16, ((5, 6),), (8.0, 10.0), "qam4", "stripe", seed=104),
    "stripe-n16-m16-4/5": SweepSpec(16, 16, ((4, 5),), (9.0, 11.0), "qam4", "stripe", seed=105),
    "stripe-n64-m64-1/2-bpsk": SweepSpec(64, 64, ((1, 2),), (5.0, 7.0), "bpsk", "stripe", seed=106),
    "ml-n4-m128": SweepSpec(4, 128, ((1, 1), (3, 4), (3, 5)), (8.0,), "qam4", "ml", seed=107),
    "ofdm-n64-bpsk": SweepSpec(64, 64, ((1, 1),), (0.0, 4.0), "bpsk", "ofdm", seed=102),
    "ofdm-n64-qam4": SweepSpec(64, 64, ((1, 1),), (0.0, 4.0), "qam4", "ofdm", seed=102),
    "stripe-n16-m16-4/5-noiseless": SweepSpec(
        16, 16, ((4, 5),), (math.inf,), "qam4", "stripe", seed=108
    ),
}


def _records(spec: SweepSpec):
    spec = dataclasses.replace(spec, min_bit_errors=10**9, max_symbol_periods=_BLOCKS)
    return ber_sweep(spec, workers=1)


def _key(record):
    return (record.decoder, record.alphabet, record.carriers, record.samples,
            record.alpha_num, record.alpha_den, record.ebn0_db, record.seed)


def _without_wall_time(record):
    return dataclasses.replace(record, wall_time_s=0.0)


@pytest.fixture(scope="module")
def golden():
    return {_key(r): _without_wall_time(r) for r in read_csv(GOLDEN)}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_matches_golden_records(name, golden):
    records = _records(SWEEPS[name])
    for record in records:
        assert _without_wall_time(record) == golden[_key(record)], name


def test_golden_file_covers_exactly_these_sweeps(golden):
    expected = {
        (spec.decoder, spec.alphabet, spec.carriers, spec.samples, b, c, ebn0, spec.seed)
        for spec in SWEEPS.values()
        for b, c in spec.alphas
        for ebn0 in spec.ebn0_db
    }
    assert set(golden) == expected


if __name__ == "__main__":
    emit_csv([r for spec in SWEEPS.values() for r in _records(spec)], sys.argv[1])
