"""In-memory spans around the calls ``sefdm.harness`` makes into each layer.

A span is ``[name, start, end, parent, round, sweep, fft_points]``, where
sweep indexes the workload's sweep it belongs to. Spans are kept in memory
and written out when the run ends. FFT calls open no span: the points
they transform are counted against the innermost open span. With ``memory``
set, each span also records the peak of traced allocations inside it, above
what was allocated when it opened.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, ROUND, SWEEP, FFT = range(7)

# Names sefdm.harness imports and calls, with the span name of their layer.
HARNESS_CALLS = {
    "bits_to_symbols": "core.bits_to_symbols",
    "symbols_to_bits": "core.symbols_to_bits",
    "modulate_interleaved": "txmod.modulate_interleaved",
    "add_awgn": "channel.add_awgn",
    "stripe_decode": "detect.stripe_decode",
    "ml_decode": "detect.ml_decode",
    "slice_symbols": "detect.slice_symbols",
}


@contextmanager
def patched(replacements):
    """Set each (object, attribute, value) for the duration of the block."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.round = 0
        self.sweep = 0
        self.memory = False
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._base: dict[int, int] = {}
        self._peak: dict[int, int] = {}

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def count_fft(self, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._stack:
                self.spans[self._stack[-1]][FFT] += out.size
            return out

        return counted

    def install(self, harness, detect, fft):
        """Patch the harness's layer calls, ``gravity`` and numpy's FFTs."""
        return patched(
            [(harness, attr, self.span(name, getattr(harness, attr)))
             for attr, name in HARNESS_CALLS.items()]
            + [(detect, "gravity", self.span("detect.gravity", detect.gravity)),
               (fft, "fft", self.count_fft(fft.fft)),
               (fft, "ifft", self.count_fft(fft.ifft))]
        )

    def _open(self, name: str) -> int:
        index = len(self.spans)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            for open_index in self._stack:
                self._peak[open_index] = max(self._peak[open_index], peak)
            tracemalloc.reset_peak()
            self._base[index] = self._peak[index] = current
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                           self.round, self.sweep, 0])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            for open_index in self._stack + [index]:
                self._peak[open_index] = max(self._peak[open_index], peak)
            name = self.spans[index][NAME]
            self.peak_bytes[name] = max(self.peak_bytes[name],
                                        self._peak.pop(index) - self._base.pop(index))

    def totals(self, rounds, sweep=None) -> tuple[dict, dict, dict]:
        """(self time, inclusive time, FFT points) per span name over ``rounds``,
        of one sweep if ``sweep`` is given."""
        rounds = set(rounds)
        self_s, total_s, fft = defaultdict(float), defaultdict(float), defaultdict(int)
        for span in self.spans:
            if span[ROUND] not in rounds or sweep not in (None, span[SWEEP]):
                continue
            duration = span[END] - span[START]
            self_s[span[NAME]] += duration
            total_s[span[NAME]] += duration
            fft[span[NAME]] += span[FFT]
            if span[PARENT] >= 0:
                self_s[self.spans[span[PARENT]][NAME]] -= duration
        return self_s, total_s, fft

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "round", "sweep", "fft_points"],
                       "spans": self.spans}, handle)
