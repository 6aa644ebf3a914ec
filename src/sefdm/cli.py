"""Command-line experiment runner: parse a sweep, run it, emit CSV and/or SVG.

Example (oversampled 4-QAM sweep):

    sefdm --carriers 16 --oversample 16 --alpha 5/6 --alphabet qam4 \\
          --decoder stripe --ebn0 0:12:2 --out results --format both
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
import typing
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .core import _ALPHABETS, CapacityError, get_alphabet
from .harness import DECODERS, BerRecord, SweepSpec, ber_sweep, theoretical_ber

CSV_HEADER = ",".join(f.name for f in fields(BerRecord))

_MAX_EBN0_POINTS = 10_000  # a longer --ebn0 grid is a typo, not a sweep


@dataclass(frozen=True)
class CliConfig:
    spec: SweepSpec
    out: str
    fmt: str


class UsageError(Exception):
    pass


def _parse_alpha(text: str) -> tuple[int, int]:
    try:
        num, den = text.split("/")
        b, c = int(num), int(den)
    except ValueError:
        raise UsageError(f"malformed alpha {text!r}; expected B/C") from None
    return b, c


def _parse_ebn0_range(text: str) -> tuple[float, ...]:
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise UsageError(f"malformed --ebn0 {text!r}; expected start:stop:step") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"--ebn0 {text!r} needs finite start, stop and step")
    if step <= 0 or stop < start:
        raise UsageError("--ebn0 requires step > 0 and stop >= start")
    span = (stop - start) / step + 1e-9  # inf if this overflows
    if span >= _MAX_EBN0_POINTS:
        raise UsageError(f"--ebn0 {text!r} has more than {_MAX_EBN0_POINTS} points")
    return tuple(round(start + i * step, 9) for i in range(math.floor(span) + 1))


def _parse_ebn0_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"malformed --ebn0-list {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    # An option left out is absent from the namespace, so SweepSpec's own
    # defaults apply; the sweep options' dests are SweepSpec's field names.
    parser = argparse.ArgumentParser(
        prog="sefdm", description="SEFDM Monte Carlo BER sweep runner",
        argument_default=argparse.SUPPRESS,
    )
    # Read any argument that begins with "-" and a digit, or "-." and a digit,
    # as a value, so that a grid below zero (--ebn0 -3:3:1, --ebn0-list -2,0)
    # needs no "=". argparse consults this pattern only while no option string
    # matches it; this parser's options all begin with "--" or are -h, so
    # _has_negative_number_optionals stays empty.
    parser._negative_number_matcher = re.compile(r"-\.?\d")
    parser.add_argument("--carriers", type=int, required=True, metavar="N")
    samples = parser.add_mutually_exclusive_group()
    samples.add_argument("--samples", type=int, metavar="M")
    samples.add_argument(
        "--oversample", type=int, metavar="F", help="samples per carrier, M = F*N"
    )
    parser.add_argument(
        "--alpha", action="append", required=True, metavar="B/C",
        help="compression ratio; repeat for one curve per alpha",
    )
    parser.add_argument("--alphabet", choices=tuple(_ALPHABETS))
    ebn0 = parser.add_mutually_exclusive_group(required=True)
    ebn0.add_argument("--ebn0", metavar="START:STOP:STEP", help="Eb/N0 grid in dB")
    ebn0.add_argument("--ebn0-list", metavar="V1,V2,...", help="explicit Eb/N0 points in dB")
    parser.add_argument("--decoder", choices=DECODERS)
    parser.add_argument("--iterations", type=int, metavar="J")
    parser.add_argument("--min-errors", type=int, dest="min_bit_errors", metavar="E")
    parser.add_argument("--max-periods", type=int, dest="max_symbol_periods", metavar="P")
    parser.add_argument("--seed", type=int, metavar="S")
    parser.add_argument("--out", default="sefdm_results", metavar="PATH")
    parser.add_argument("--format", choices=("csv", "svg", "both"), default="csv")
    return parser


def parse_args(argv) -> CliConfig:
    """Parse argv into a CliConfig; raises UsageError or SystemExit.

    Only the text and the files --out names are checked here: SweepSpec and
    SefdmConfig validate the values, and their ValueError becomes a UsageError.
    """
    # After the pops, `options` holds the sweep options given, and no others.
    options = vars(_build_parser().parse_args(argv))
    out, fmt = options.pop("out"), options.pop("format")
    for path in _output_paths(out, fmt).values():
        if not path.parent.is_dir():
            raise UsageError(f"--out {out!r}: {str(path.parent)!r} is not a directory")
        if path.is_dir():
            raise UsageError(f"--out {out!r}: {str(path)!r} is a directory")
    carriers = options.pop("carriers")
    samples = options.pop("samples", carriers)
    if "oversample" in options:  # --samples and --oversample exclude each other
        samples = options.pop("oversample") * carriers

    alphas = tuple(_parse_alpha(a) for a in options.pop("alpha"))
    ebn0 = (_parse_ebn0_range(options.pop("ebn0")) if "ebn0" in options
            else _parse_ebn0_list(options.pop("ebn0_list")))

    try:
        spec = SweepSpec(carriers, samples, alphas, ebn0, **options)
    except (ValueError, CapacityError) as exc:
        raise UsageError(str(exc)) from None
    return CliConfig(spec=spec, out=out, fmt=fmt)


def _output_paths(out: str, fmt: str) -> dict[str, Path]:
    """The file each format writes: --out itself for csv or svg; for both,
    --out without its last suffix, plus .csv and plus .svg."""
    path = Path(out)
    if not path.name:  # "", ".", "/": no file name to write to
        raise UsageError(f"--out {out!r} names no file")
    if fmt != "both":
        return {fmt: path}
    base = path.with_suffix("")
    return {"csv": base.with_suffix(".csv"), "svg": base.with_suffix(".svg")}


def _sorted_records(records: list[BerRecord]) -> list[BerRecord]:
    return sorted(records, key=lambda r: (r.alpha_num / r.alpha_den, r.ebn0_db))


def emit_csv(records: list[BerRecord], path) -> None:
    """Write records as UTF-8 CSV, one column per BerRecord field in field
    order, rows sorted by (alpha, Eb/N0). Floats are written as their repr."""
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(astuple(r) for r in _sorted_records(records))


def read_csv(path) -> list[BerRecord]:
    """Parse a CSV written by emit_csv back into records."""
    types = typing.get_type_hints(BerRecord)
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [
        BerRecord(**{name: types[name](text) for name, text in row.items()}) for row in rows
    ]


# --- SVG plotting (self-contained, no external resources) ---

_WIDTH, _HEIGHT = 720, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 20, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def emit_plot(records: list[BerRecord], path) -> None:
    """Render BER vs Eb/N0 (semilog-y) as a standalone SVG.

    One polyline per (decoder, alpha) curve plus the theoretical reference;
    zero-error points are left out of the polylines and marked with crosses
    on the lower axis. The Eb/N0 ticks span the finite points; +inf points sit
    at the right end of the axis, under a tick labelled inf.
    """
    if not records:
        raise ValueError("no records to plot")
    records = _sorted_records(records)
    x_vals = [r.ebn0_db for r in records]
    has_inf = math.inf in x_vals
    finite = [x for x in x_vals if math.isfinite(x)] or [0.0]
    x_min, x_max = min(finite), max(finite)
    if x_max == x_min:
        x_max = x_min + 1.0
    x_end = _WIDTH - _MARGIN_R
    x_right = x_end - (x_end - _MARGIN_L) / 8 if has_inf else x_end  # right of the finite span
    positive = [r.ber for r in records if r.ber > 0]
    alphabet = get_alphabet(records[0].alphabet)
    theory = [
        (db, theoretical_ber(db, alphabet))
        for db in _linspace(x_min, x_max, 97)
    ]
    positive += [t for _, t in theory if t > 0]
    y_floor = min(positive) if positive else 1e-6
    log_min = math.floor(math.log10(max(y_floor, 1e-12)))
    log_max = 0

    def sx(db: float) -> float:
        if db == math.inf:
            return x_end
        frac = (db - x_min) / (x_max - x_min)
        return _MARGIN_L + frac * (x_right - _MARGIN_L)

    def sy(ber: float) -> float:
        logv = min(max(math.log10(ber), log_min), log_max)
        frac = (logv - log_min) / (log_max - log_min)
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    # axes
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x_end}" y2="{y0}" stroke="black"/>'
    )
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{_MARGIN_T}" stroke="black"/>')
    ticks = [(sx(tick), f"{tick:g}") for tick in _linspace(x_min, x_max, 7)]
    if has_inf:
        ticks.append((x_end, "inf"))
    for px, label in ticks:
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 20}" font-size="11" text-anchor="middle">{label}</text>'
        )
    for decade in range(log_min, log_max + 1):
        py = sy(10.0**decade)
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end">1e{decade}</text>'
        )
    parts.append(
        f'<text x="{(_WIDTH + _MARGIN_L - _MARGIN_R) / 2:.0f}" y="{_HEIGHT - 12}" '
        f'font-size="13" text-anchor="middle">Eb/N0 (dB)</text>'
    )
    mid = (_HEIGHT - _MARGIN_B + _MARGIN_T) / 2
    parts.append(
        f'<text x="18" y="{mid:.0f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 {mid:.0f})">BER</text>'
    )

    # theory reference
    theory_pts = " ".join(f"{sx(db):.2f},{sy(t):.2f}" for db, t in theory if t > 0)
    if theory_pts:
        parts.append(
            f'<polyline points="{theory_pts}" fill="none" stroke="black" '
            f'stroke-dasharray="5,4" stroke-width="1.2"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 6}" y="{_MARGIN_T + 14}" font-size="11" '
            f'text-anchor="end">theory ({alphabet.name})</text>'
        )

    curves: dict[tuple[str, int, int], list[BerRecord]] = {}
    for r in records:
        curves.setdefault((r.decoder, r.alpha_num, r.alpha_den), []).append(r)
    for index, (key, pts) in enumerate(sorted(curves.items())):
        decoder, b, c = key
        color = _COLORS[index % len(_COLORS)]
        line = " ".join(f"{sx(r.ebn0_db):.2f},{sy(r.ber):.2f}" for r in pts if r.ber > 0)
        if line:
            parts.append(
                f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        for r in pts:
            if r.ber > 0:
                parts.append(
                    f'<circle cx="{sx(r.ebn0_db):.2f}" cy="{sy(r.ber):.2f}" r="3" fill="{color}"/>'
                )
            else:
                # zero-error point: cross on the lower edge, outside the polyline
                px, py = sx(r.ebn0_db), y0 - 6
                parts.append(
                    f'<path d="M {px - 4:.2f} {py - 4:.2f} L {px + 4:.2f} {py + 4:.2f} '
                    f'M {px - 4:.2f} {py + 4:.2f} L {px + 4:.2f} {py - 4:.2f}" '
                    f'stroke="{color}" stroke-width="1.6"/>'
                )
        parts.append(
            f'<text x="{_MARGIN_L + 8}" y="{_MARGIN_T + 14 + 14 * index}" font-size="11" '
            f'fill="{color}">{decoder} alpha={b}/{c}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"sefdm: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse has printed its usage error, or --help
        if not exc.code:
            raise
        return exc.code

    try:
        records = ber_sweep(config.spec)
    except Exception as exc:  # a failing point aborts the run
        print(f"sefdm: simulation failed: {exc}", file=sys.stderr)
        return 1

    emitters = {"csv": emit_csv, "svg": emit_plot}
    try:
        for fmt, path in _output_paths(config.out, config.fmt).items():
            emitters[fmt](records, path)
    except OSError as exc:
        print(f"sefdm: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
