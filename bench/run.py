"""sefdm benchmark: simulated bits per second on acceptance-gate sweeps.

Run from the root of a source checkout:

    python3 bench/run.py --workload stripe-m256 --seed 1 --seconds 20 --trace 0

Each round runs every sweep of the workload as the CLI does (``SweepSpec`` ->
``ber_sweep`` -> ``emit_csv`` and ``emit_plot``) and checks every point
against references computed in ``checks.py``. ``--trace 0`` times rounds with
one worker and reports the end-to-end metrics; ``--trace 1`` cycles through
rounds with one worker, with two, and with spans around every layer call, and
reports per-layer metrics.

The end-to-end times are scaled to a fixed machine speed: a reference kernel
of numpy work that does not use sefdm is timed next to every set-up probe and
every timed round, and each time is multiplied by ``REF_KERNEL_S`` over the
kernel's time measured around it. The shared host's speed drifts by tens of
percent over minutes; the scaled times do not follow it, a slower program
still shows in full. The unscaled figures are printed above the result.

The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads: the one-worker
# figures then use one core, and two workers do not oversubscribe two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, patched
from workloads import WORKLOADS, build_specs, points, warmup_specs

OUT_DIR = Path(".bench_results")
SETUP_PROBES = 7
# Blocks per batch whose modulation and ML decisions are checked, drawn at random.
SAMPLED_BLOCKS = 16
# Symbol periods per noiseless check, split into blocks of M samples.
NOISELESS_SAMPLES = 16384
# Configurations (N, M, b, c) whose noiseless stripe decoding must be exact.
# At N = M = 16 the decoder has noiseless error floors, at 4/5 (test_05) and,
# rarer, at 5/6, so neither is checked.
NOISELESS_EXACT = {(16, 256, 5, 6), (64, 64, 1, 2)}
MB = 1024 * 1024
# The reference kernel's time, in seconds, at the machine speed the end-to-end
# metrics are scaled to: about its median on the 2-vCPU VM of the README.
REF_KERNEL_S = 0.1
# Spans of the layers sefdm.harness calls into; with harness.self_s their self
# times add up to the traced sweep time.
LAYERS = ("core.bits_to_symbols", "core.symbols_to_bits", "txmod.modulate_interleaved",
          "channel.add_awgn", "detect.stripe_decode", "detect.gravity",
          "detect.ml_decode", "detect.slice_symbols")


def import_sefdm():
    """Import sefdm from ./src of the checkout, never from an installed copy."""
    src = Path("src").resolve()
    if not (src / "sefdm" / "__init__.py").is_file():
        sys.exit("bench/run.py: no src/sefdm here; run it from the root of a sefdm checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import sefdm
    import sefdm.cli
    import_s = time.perf_counter() - start
    if not Path(sefdm.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench/run.py: imported sefdm from {sefdm.__file__}, not from {src}")
    return sefdm, import_s


def reference_kernel() -> float:
    """Fixed numpy work like the simulator's, without sefdm; its wall time.

    Large batched FFTs and random draws, then many calls on 16x16 arrays, whose
    cost is mostly interpreter and call overhead, as in the stripe decoder.
    """
    rng = np.random.default_rng(12345)
    big = rng.standard_normal((64, 256)) + 1j * rng.standard_normal((64, 256))
    small = big[:16, :16].copy()
    points = np.exp(0.5j * np.pi * np.arange(4))
    start = time.perf_counter()
    for _ in range(30):
        big = np.fft.ifft(np.fft.fft(big, axis=1) * 0.999, axis=1)
        rng.integers(0, 2, (1024, 64))
        rng.standard_normal((1024, 64))
    for _ in range(1500):
        small = np.fft.fft(small, axis=1) * 0.25
        nearest = np.abs(small[..., None] - points).argmin(axis=-1)
        small = small + 0.01 * points[nearest]
    return time.perf_counter() - start


def scaled(times, refs) -> list[float]:
    """Times scaled to REF_KERNEL_S; ``refs[i]`` and ``refs[i + 1]`` bracket ``times[i]``."""
    return [t * 2 * REF_KERNEL_S / (before + after) for t, before, after in zip(times, refs, refs[1:])]


def probe(workload: str, seed: int) -> None:
    """Set-up as a fresh interpreter pays it; prints one line when ready."""
    sefdm, import_s = import_sefdm()
    for spec in warmup_specs(build_specs(sefdm.harness, workload, seed)):
        sefdm.harness.ber_sweep(spec)
    print(json.dumps({"import_s": import_s}), flush=True)


def measure_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """Medians of the scaled and unscaled set-up times and of the import time
    over fresh interpreters."""
    setups, imports, refs = [], [], [reference_kernel()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            setups.append(time.perf_counter() - start)
            child.stdout.read()
            if child.wait(timeout=120) != 0 or not line:
                sys.exit(f"bench/run.py: set-up probe failed with code {child.returncode}")
        imports.append(json.loads(line)["import_s"])
        refs.append(reference_kernel())
    return (statistics.median(scaled(setups, refs)), statistics.median(setups),
            statistics.median(imports))


class Bench:
    def __init__(self, sefdm, workload: str, seed: int):
        self.sefdm = sefdm
        self.harness = sefdm.harness
        self.specs = build_specs(sefdm.harness, workload, seed)
        self.grids = [points(spec) for spec in self.specs]
        self.seed = seed
        self.stem = OUT_DIR / f"{workload}-seed{seed}"
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def bits_per_round(self) -> int:
        return sum(len(grid) * spec.max_symbol_periods * spec.config(*grid[0][0]).bits_per_block
                   for spec, grid in zip(self.specs, self.grids))

    @property
    def blocks_per_round(self) -> int:
        return sum(len(grid) * spec.max_symbol_periods for spec, grid in zip(self.specs, self.grids))

    def emit(self, records, index: int) -> None:
        cli = self.sefdm.cli
        cli.emit_csv(records, f"{self.stem}-sweep{index}.csv")
        cli.emit_plot(records, f"{self.stem}-sweep{index}.svg")

    def round(self, workers: int, sweep=None, emit=None) -> float:
        """One pass over the workload's sweeps; returns its wall time in seconds.

        Failed points are counted; the timed part is the sweeps and their output.
        """
        sweep = sweep or self.harness.ber_sweep
        emit = emit or self.emit
        results = []
        start = time.perf_counter()
        for index, spec in enumerate(self.specs):
            try:
                records = sweep(spec, workers)
                emit(records, index)
            except Exception:
                records = traceback.format_exc()
            results.append(records)
        elapsed = time.perf_counter() - start
        for index, records in enumerate(results):
            self.check_sweep(index, records)
        return elapsed

    def fail(self, index: int, point: int | None, problem: str) -> None:
        where = f"sweep {index}" + ("" if point is None else f" point {point}")
        self.problems.append(f"{where}: {problem}")

    def check_sweep(self, index: int, records, extra=None) -> None:
        """Checks one sweep's records and files; counts its points."""
        spec, grid = self.specs[index], self.grids[index]
        self.attempted += len(grid)
        if isinstance(records, str):
            self.failed += len(grid)
            self.fail(index, None, "raised\n" + records)
            return
        bad: dict[int, list[str]] = {}
        if len(records) != len(grid):
            bad[-1] = [f"{len(records)} records for {len(grid)} points"]
            records = []
        for point, (record, (alpha, ebn0)) in enumerate(zip(records, grid)):
            bad[point] = checks.point_problems(
                record, alpha, ebn0, spec.config(*alpha).bits_per_block,
                spec.max_symbol_periods, baseline=spec.decoder == "ofdm")
        if spec.decoder == "stripe":
            for alpha in spec.alphas:
                rows = [p for p, (a, _) in enumerate(grid) if a == alpha and p < len(records)]
                for i, problem in checks.falling_problems([records[p] for p in rows]):
                    bad[rows[i]].append(problem)
        if records:
            path = f"{self.stem}-sweep{index}"
            read_back = self.sefdm.cli.read_csv(path + ".csv")
            for problem in checks.csv_problems(read_back, records) + checks.svg_problems(
                    path + ".svg", len(spec.alphas)):
                bad[-1] = bad.get(-1, []) + [problem]
        if records and self.reference is not None and isinstance(self.reference[index], list):
            for point, (got, want) in enumerate(zip(records, self.reference[index])):
                if not checks.same_results([got], [want]):
                    bad[point].append("differs from the first round's record")
        for point, problem in (extra or {}).items():
            bad[point] = bad.get(point, []) + problem
        failed_points = set(range(len(grid))) if bad.get(-1) else {p for p, v in bad.items() if v}
        self.failed += len(failed_points)
        for point, found in bad.items():
            for problem in found:
                self.fail(index, None if point < 0 else point, problem)

    def check_round(self) -> None:
        """An untimed one-worker round that also checks samples of every batch."""
        harness, results = self.harness, []
        rng = np.random.default_rng([self.seed, len(self.specs)])

        def sampler(fn, samples):
            def sampled(given, cfg):
                out = fn(given, cfg)
                rows = np.sort(rng.choice(len(given), min(SAMPLED_BLOCKS, len(given)), replace=False))
                samples.append((cfg, given[rows], out[rows]))
                return out

            return sampled

        for index, spec in enumerate(self.specs):
            modulated, decided = [], []
            modulate = sampler(harness.modulate_interleaved, modulated)
            ml = sampler(harness.ml_decode, decided)

            try:
                with patched([(harness, "modulate_interleaved", modulate),
                              (harness, "ml_decode", ml)]):
                    records = harness.ber_sweep(spec)
                self.emit(records, index)
            except Exception:
                records = traceback.format_exc()
            self.check_sweep(index, records, self.sample_problems(index, modulated, decided))
            results.append(records)
        self.reference = results
        self.check_noiseless()

    def sample_problems(self, index: int, modulated, decided) -> dict[int, list[str]]:
        """Modulation and ML samples, attributed to points in batch order."""
        n_points = len(self.grids[index])
        bad: dict[int, list[str]] = {}
        for kind, samples in (("modulation", modulated), ("ml", decided)):
            if not samples:
                continue
            if len(samples) % n_points:
                bad[-1] = [f"{len(samples)} {kind} batches for {n_points} points"]
                continue
            per_point = len(samples) // n_points
            for i, (cfg, given, got) in enumerate(samples):
                dims = (cfg.n_samples, cfg.alpha_num, cfg.alpha_den)
                if kind == "modulation":
                    found = checks.modulation_problems(given, got, *dims)
                else:
                    found = checks.ml_problems(given, got, cfg.alphabet.points, *dims)
                if found:
                    bad.setdefault(i // per_point, []).extend(found)
        if len(decided) != (len(modulated) if self.specs[index].decoder == "ml" else 0):
            bad[-1] = bad.get(-1, []) + ["ML decoder calls do not match the batches"]
        return bad

    def check_noiseless(self) -> None:
        """Noiseless stripe batches decode exactly where the decoder is exact."""
        detect = self.sefdm.detect
        for index, spec in enumerate(self.specs):
            if spec.decoder != "stripe":
                continue
            for alpha in spec.alphas:
                if (spec.carriers, spec.samples, *alpha) not in NOISELESS_EXACT:
                    continue
                cfg = spec.config(*alpha)
                rng = np.random.default_rng([self.seed, index, *alpha])
                constellation = np.asarray(cfg.alphabet.points)
                sent = constellation[rng.integers(0, len(constellation),
                                            (NOISELESS_SAMPLES // cfg.n_samples, cfg.n_carriers))]
                received = sent @ checks.carrier_rows(cfg.n_carriers, cfg.n_samples, *alpha)
                try:
                    decoded = detect.stripe_decode(received, cfg, detect.StripeParams(spec.iterations))
                    found = checks.decode_problems(sent, decoded)
                except Exception:
                    found = ["raised\n" + traceback.format_exc()]
                for problem in found:
                    self.problems.append(f"noiseless {alpha[0]}/{alpha[1]}: {problem}")


def alternate(budget_s: float, steps) -> dict[str, list[float]]:
    """Run the named steps in turn until ``budget_s`` has passed; whole cycles only."""
    times: dict[str, list[float]] = {name: [] for name in steps}
    start = time.perf_counter()
    while not times[next(iter(steps))] or time.perf_counter() - start < budget_s:
        for name, step in steps.items():
            times[name].append(step())
    return times


def per_layer(bench: Bench, tracer: Tracer, rounds, traced_times, w1_times, w2_times, import_s):
    self_s, total_s, fft = tracer.totals(rounds)
    n = len(rounds)
    blocks = bench.blocks_per_round
    metrics = {"sefdm.import_s": (import_s, "s")}
    for name in LAYERS:
        metrics[name + "_s"] = (self_s[name] / n, "s")
    metrics["txmod.fft_points_per_block"] = (fft["txmod.modulate_interleaved"] / (n * blocks), "count")
    metrics["detect.fft_points_per_block"] = (
        (fft["detect.stripe_decode"] + fft["detect.ml_decode"]) / (n * blocks), "count")
    metrics["detect.peak_mb"] = (max(tracer.peak_bytes[k] for k in (
        "detect.stripe_decode", "detect.ml_decode", "detect.slice_symbols")) / MB, "MB")
    metrics["txmod.peak_mb"] = (tracer.peak_bytes["txmod.modulate_interleaved"] / MB, "MB")
    metrics["harness.self_s"] = (self_s["harness.ber_sweep"] / n, "s")
    metrics["harness.sweep_s"] = (total_s["harness.ber_sweep"] / n, "s")
    metrics["harness.blocks"] = (blocks, "count")
    metrics["harness.w2_speedup"] = (statistics.median(w1_times) / statistics.median(w2_times), "x")
    metrics["cli.emit_s"] = (self_s["cli.emit"] / n, "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_times) / statistics.median(w1_times) - 1.0), "%")
    return metrics


def report_sweeps(bench: Bench, tracer: Tracer, rounds) -> None:
    """Per-sweep (per-configuration) self times in ms per 1024 blocks."""
    for index, (spec, grid) in enumerate(zip(bench.specs, bench.grids)):
        self_s, _, _ = tracer.totals(rounds, index)
        per = 1024 * 1000 / (len(rounds) * len(grid) * spec.max_symbol_periods)
        layers = ", ".join(f"{name} {self_s[name] * per:.2f}" for name in LAYERS if self_s[name])
        alphas = " ".join(f"{b}/{c}" for b, c in spec.alphas)
        print(f"  sweep {index} N{spec.carriers}/M{spec.samples} {spec.alphabet} {spec.decoder} "
              f"alpha {alphas}: ms per 1024 blocks: {layers}, "
              f"harness.self {self_s['harness.ber_sweep'] * per:.2f}, "
              f"cli.emit {self_s['cli.emit'] * per:.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    sefdm, _ = import_sefdm()
    setup_s, raw_setup_s, import_s = measure_setup(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(sefdm, args.workload, args.seed)
    bench.check_round()
    bits = bench.bits_per_round

    if args.trace == 0:
        # Two workers on two shared cores time the host's scheduler more than
        # the program, so pool rounds are timed only in the traced run; here
        # one untimed pool round checks that its records equal the serial ones.
        bench.round(2)
        refs = [reference_kernel()]

        def w1_round() -> float:
            elapsed = bench.round(1)
            refs.append(reference_kernel())
            return elapsed

        times = alternate(args.seconds, {"w1": w1_round})
        metrics = {
            "setup_s": (setup_s, "s"),
            "sim_bits_per_s": (bits / statistics.median(scaled(times["w1"], refs)), "bit/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"unscaled: setup_s = {raw_setup_s:.6g} s, "
              f"sim_bits_per_s = {bits / statistics.median(times['w1']):.6g} bit/s; "
              f"reference kernel median {statistics.median(refs):.6g} s "
              f"(REF_KERNEL_S = {REF_KERNEL_S} s)")
    else:
        tracer = Tracer()
        traced_sweep = tracer.span("harness.ber_sweep", sefdm.harness.ber_sweep)

        def sweep(spec, workers):
            tracer.sweep = bench.specs.index(spec)
            return traced_sweep(spec, workers)

        emit = tracer.span("cli.emit", bench.emit)
        traced_rounds = []

        def traced_round() -> float:
            with tracer.install(sefdm.harness, sefdm.detect, np.fft):
                return bench.round(1, sweep, emit)

        # Allocation peaks come from a round of their own, round 0: tracemalloc
        # slows allocation, so that round is left out of the self times.
        tracer.memory = True
        tracemalloc.start()
        try:
            traced_round()
        finally:
            tracemalloc.stop()
            tracer.memory = False

        def timed_traced_round() -> float:
            tracer.round += 1
            traced_rounds.append(tracer.round)
            return traced_round()
        times = alternate(args.seconds, {"w1": lambda: bench.round(1),
                                         "w2": lambda: bench.round(2),
                                         "traced": timed_traced_round})
        metrics = per_layer(bench, tracer, traced_rounds, times["traced"], times["w1"],
                            times["w2"], import_s)
        tracer.write(f"{bench.stem}-trace.json")
        report_sweeps(bench, tracer, traced_rounds)
        accounted = sum(metrics[name + "_s"][0] for name in LAYERS) + metrics["harness.self_s"][0]
        print(f"layer self times + harness.self_s = {accounted:.6f} s per round; "
              f"traced sweep time harness.sweep_s = {metrics['harness.sweep_s'][0]:.6f} s")

    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {bits} bits per round")
    for name, values in times.items():
        print(f"  {name} rounds: {len(values)}, seconds " + " ".join(f"{v:.4f}" for v in values))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  points attempted {bench.attempted}, failed {bench.failed}")
    correct = not bench.problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
