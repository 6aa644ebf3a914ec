"""The FFT-based interleaved modulator matches the direct carrier-matrix product.

A compressed-multicarrier block with N carriers at fractional spacing b/c can be
built two ways: the O(N*M) matrix product, or as a sum of c ordinary OFDM
branches. Branch k is the unnormalised M-point inverse DFT of its carriers
k, k + c, ... placed on bins 0, b, 2b, ..., times carrier k's own samples.
This script draws random
configurations and prints the worst relative disagreement, which sits at
machine precision.
"""

import math

import numpy as np

from sefdm import QAM4, RandomSource, SefdmConfig, bits_to_symbols, modulate_direct, modulate_interleaved


def main():
    gen = RandomSource(2024).generator()
    alphas = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    worst = 0.0
    for trial in range(50):
        n = int(gen.integers(4, 65))
        b, c = alphas[gen.integers(0, len(alphas))]
        m = max(n, int(gen.integers(n, 4 * n + 1)))
        cfg = SefdmConfig(n, m, b, c, QAM4)
        s = bits_to_symbols(gen.integers(0, 2, size=2 * n), QAM4)
        err = np.max(np.abs(modulate_interleaved(s, cfg) - modulate_direct(s, cfg)))
        scale = np.max(np.abs(modulate_direct(s, cfg)))
        worst = max(worst, float(err / scale))
        if trial < 5:
            print(f"N={n:3d} M={m:3d} alpha={b}/{c}: relative error {err / scale:.2e}")
    print(f"\nworst over 50 random configurations: {worst:.2e}")


if __name__ == "__main__":
    main()
