"""Exhaustive maximum-likelihood decoding vs the iterative decoder.

On a small block the ML search over all |A|^N candidates is tractable and gives
the optimal error rate; this compares both decoders at a compression where
interference matters. Each decoder's run starts from the same seed, so both
decode the same noisy blocks.
"""

from sefdm import QAM4, RandomSource, SefdmConfig, run_block


def main():
    cfg = SefdmConfig(4, 20, 4, 5, QAM4)
    for decoder in ("ml", "stripe"):
        total, errors = run_block(cfg, 7.0, decoder, RandomSource(99), blocks=4000)
        print(f"{decoder:>7}: {errors:4d} bit errors / {total} bits  (BER {errors / total:.2e})")


if __name__ == "__main__":
    main()
