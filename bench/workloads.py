"""The benchmark's workloads: acceptance-gate sweeps with every point capped.

Each workload is a tuple of sweeps, each given as ``SweepSpec`` keyword
arguments without the seed; ``--seed`` supplies it. ``min_bit_errors`` is set
out of reach, so every point stops on ``max_symbol_periods`` and a change that
moves the error rate does not change the amount of work. One pass over all of
a workload's sweeps is a round; every run attempts whole rounds.
"""

from __future__ import annotations

from dataclasses import replace

# Out of reach for every point below: points stop on their period cap.
NEVER = 10**9

# Symbol periods per point of the warm-up sweep that fills the per-config
# caches (carrier matrix, rotations, branch layouts, ML table) during set-up.
WARMUP_PERIODS = 64


def _sweep(carriers, samples, alphas, ebn0_db, alphabet, decoder, periods):
    return dict(
        carriers=carriers, samples=samples, alphas=alphas, ebn0_db=ebn0_db,
        alphabet=alphabet, decoder=decoder, iterations=20,
        min_bit_errors=NEVER, max_symbol_periods=periods,
    )


WORKLOADS = {
    # Gate 03: the stripe decoder's 354 FFT/IFFTs of 256 points per block
    # take ~96% of the time.
    "stripe-m256": (
        _sweep(16, 256, ((5, 6),), (5.0, 6.0, 7.0, 8.0), "qam4", "stripe", 64),
    ),
    # Gates 04-06: the same decoder on short FFTs, where per-sweep overhead
    # and gravity weigh more.
    "stripe-critical": (
        _sweep(16, 16, ((5, 6),), (7.0, 8.0, 9.0, 10.0, 11.0), "qam4", "stripe", 256),
        _sweep(16, 16, ((4, 5),), (8.0, 9.0, 10.0, 11.0, 12.0, 13.0), "qam4", "stripe", 256),
        _sweep(64, 64, ((1, 2),), (5.0, 6.0, 7.0, 8.0), "bpsk", "stripe", 256),
    ),
    # Gate 07: exhaustive decoding over 256 candidates; modulation and noise
    # on 128-sample blocks do most of the work.
    "ml-knee": (
        _sweep(4, 128, ((1, 1), (3, 4), (3, 5)), (8.0,), "qam4", "ml", 7 * 1024),
    ),
    # Gate 02 with half its caps (5e5 bits per point): one FFT and a slice, so
    # bit generation, mapping and noise dominate.
    "ofdm-baseline": (
        _sweep(64, 64, ((1, 1),), (0.0, 4.0, 8.0), "bpsk", "ofdm", 7813),
        _sweep(64, 64, ((1, 1),), (0.0, 4.0, 8.0), "qam4", "ofdm", 3907),
    ),
}


def build_specs(sefdm_harness, workload: str, seed: int):
    """The workload's SweepSpecs, seeded from ``seed``."""
    return [sefdm_harness.SweepSpec(**kw, seed=seed) for kw in WORKLOADS[workload]]


def warmup_specs(specs):
    """One capped point per alpha of each spec: enough to fill every cache."""
    return [
        replace(spec, ebn0_db=spec.ebn0_db[:1], max_symbol_periods=WARMUP_PERIODS)
        for spec in specs
    ]


def points(spec):
    """The sweep's grid in ber_sweep's record order: (alpha, Eb/N0) pairs."""
    return [(alpha, ebn0) for alpha in spec.alphas for ebn0 in spec.ebn0_db]
