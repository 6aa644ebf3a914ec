"""CLI parsing, CSV contract, SVG plot contract."""

import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import sefdm
from sefdm.cli import (
    CSV_HEADER,
    UsageError,
    _parse_ebn0_range,
    emit_csv,
    emit_plot,
    main,
    parse_args,
    read_csv,
)
from sefdm.harness import BerRecord, SweepSpec, ber_sweep


def _tiny_records(ebn0=(2.0, 4.0), decoder="stripe", alphas=((1, 2),)):
    spec = SweepSpec(
        carriers=8, samples=8, alphas=alphas, ebn0_db=ebn0, alphabet="qam4",
        decoder=decoder, min_bit_errors=20, max_symbol_periods=500, seed=3,
    )
    return ber_sweep(spec)


def _run_python(args, cwd, timeout=60):
    """Run a fresh interpreter that imports sefdm from this tree."""
    src = str(Path(sefdm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=timeout,
    )


def _assert_finite_coordinates(path):
    """Every number the SVG draws at parses as a finite float, and no tick reads nan."""
    text = path.read_text(encoding="utf-8")
    assert "nan" not in text
    for element in ET.fromstring(text).iter():
        for name, value in element.attrib.items():
            if name in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "points", "d"):
                numbers = [float(v) for v in re.split(r"[\s,]+", value) if v not in ("M", "L")]
                assert all(map(math.isfinite, numbers)), (element.tag, name, value)


def _accumulated_range(start, stop, step):
    """The grid as --ebn0 used to build it, by repeated addition."""
    points = []
    value = start
    while value <= stop + 1e-9:
        points.append(round(value, 9))
        value += step
    return tuple(points)


class TestParseArgs:
    def test_figure_style_run(self):
        cfg = parse_args(
            "--carriers 16 --oversample 16 --alpha 5/6 --alphabet qam4 "
            "--decoder stripe --ebn0 0:12:2".split()
        )
        assert cfg.spec.carriers == 16
        assert cfg.spec.samples == 256
        assert cfg.spec.alphas == ((5, 6),)
        assert cfg.spec.ebn0_db == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
        assert cfg.spec.decoder == "stripe"

    def test_repeatable_alpha_and_list(self):
        cfg = parse_args(
            "--carriers 8 --alpha 1/2 --alpha 3/4 --ebn0-list 1,2.5,4".split()
        )
        assert cfg.spec.alphas == ((1, 2), (3, 4))
        assert cfg.spec.ebn0_db == (1.0, 2.5, 4.0)

    def test_left_out_options_take_sweep_spec_defaults(self):
        cfg = parse_args("--carriers 16 --alpha 5/6 --ebn0-list 4".split())
        assert cfg.spec == SweepSpec(16, 16, ((5, 6),), (4.0,))

    def test_sweep_options_reach_their_fields(self):
        cfg = parse_args(
            "--carriers 4 --alpha 3/4 --ebn0-list 8 --alphabet bpsk --decoder ml "
            "--iterations 7 --min-errors 9 --max-periods 11 --seed 13".split()
        )
        assert cfg.spec == SweepSpec(
            4, 4, ((3, 4),), (8.0,), alphabet="bpsk", decoder="ml", iterations=7,
            min_bit_errors=9, max_symbol_periods=11, seed=13,
        )

    def test_default_samples_equal_carriers(self):
        cfg = parse_args("--carriers 16 --alpha 5/6 --ebn0-list 4".split())
        assert cfg.spec.samples == 16

    def test_malformed_alpha(self):
        with pytest.raises(UsageError):
            parse_args("--carriers 8 --alpha five/6 --ebn0-list 4".split())

    def test_non_reduced_alpha(self):
        with pytest.raises(UsageError):
            parse_args("--carriers 8 --alpha 2/4 --ebn0-list 4".split())

    def test_alpha_above_one(self):
        with pytest.raises(UsageError):
            parse_args("--carriers 8 --alpha 7/6 --ebn0-list 4".split())

    def test_samples_below_carriers(self):
        with pytest.raises(UsageError):
            parse_args("--carriers 16 --samples 8 --alpha 1/2 --ebn0-list 4".split())

    def test_ml_guard(self):
        # 4^12 = 2^24 candidates exceeds the 2^20 enumeration guard
        with pytest.raises(UsageError):
            parse_args(
                "--carriers 12 --alphabet qam4 --decoder ml --alpha 5/6 --ebn0-list 4".split()
            )

    def test_ml_within_guard_accepted(self):
        cfg = parse_args(
            "--carriers 4 --samples 128 --alphabet qam4 --decoder ml "
            "--alpha 3/4 --ebn0-list 8".split()
        )
        assert cfg.spec.decoder == "ml"

    def test_unknown_flag_exits(self):
        # an unknown flag, a flag where the Eb/N0 grid belongs, and a prefix
        # of both --ebn0 and --ebn0-list
        for args in ["--ebn0-list 4 --bogus 1", "--ebn0 --decoder ml", "--ebn -2,0"]:
            with pytest.raises(SystemExit) as exc:
                parse_args(f"--carriers 8 --alpha 1/2 {args}".split())
            assert exc.value.code == 2

    def test_samples_oversample_exclusive(self):
        with pytest.raises(SystemExit):
            parse_args(
                "--carriers 8 --samples 16 --oversample 2 --alpha 1/2 --ebn0-list 4".split()
            )

    def test_malformed_ebn0_range(self):
        with pytest.raises(UsageError):
            parse_args("--carriers 8 --alpha 1/2 --ebn0 4:2".split())

    def test_empty_ebn0_range(self):
        # An empty --ebn0 once fell through to the --ebn0-list parser and
        # raised AttributeError.
        with pytest.raises(UsageError):
            parse_args(["--carriers", "8", "--alpha", "1/2", "--ebn0", ""])

    def test_negative_ebn0_range_as_separate_argument(self):
        cfg = parse_args("--carriers 8 --alpha 1/2 --ebn0 -3:3:1".split())
        assert cfg.spec.ebn0_db == (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
        cfg = parse_args("--carriers 8 --alpha 1/2 --ebn0 -.5:1:0.5".split())
        assert cfg.spec.ebn0_db == (-0.5, 0.0, 0.5, 1.0)

    def test_negative_ebn0_list_as_separate_argument(self):
        cfg = parse_args("--carriers 8 --alpha 1/2 --ebn0-list -2,0".split())
        assert cfg.spec.ebn0_db == (-2.0, 0.0)

    @pytest.mark.parametrize("flag", ["--ebn0-l -2,0", "--ebn0-li=-2,0", "--ebn0- -2,0"])
    def test_abbreviated_negative_ebn0_list(self, flag):
        cfg = parse_args(f"--carriers 8 --alpha 1/2 {flag}".split())
        assert cfg.spec.ebn0_db == (-2.0, 0.0)

    @pytest.mark.parametrize("text", ["0:12:2", "0:1:0.1", "0:0.3:0.1", "-3:3:0.5", "5:5:1"])
    def test_ebn0_range_matches_accumulated_grid(self, text):
        start, stop, step = map(float, text.split(":"))
        assert _parse_ebn0_range(text) == _accumulated_range(start, stop, step)


class TestEmitCsv:
    def test_header_contract(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(_tiny_records(), path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == CSV_HEADER

    def test_deterministic_modulo_wall_time(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(_tiny_records(), p1)
        emit_csv(_tiny_records(), p2)
        rows1 = [l.rsplit(",", 1)[0] for l in p1.read_text().splitlines()]
        rows2 = [l.rsplit(",", 1)[0] for l in p2.read_text().splitlines()]
        assert rows1 == rows2

    def test_round_trip(self, tmp_path):
        import dataclasses

        records = _tiny_records()
        path = tmp_path / "rt.csv"
        emit_csv(records, path)
        back = read_csv(path)
        key = lambda r: (r.alpha_num / r.alpha_den, r.ebn0_db)
        a = sorted((dataclasses.replace(r, wall_time_s=0.0) for r in records), key=key)
        b = sorted((dataclasses.replace(r, wall_time_s=0.0) for r in back), key=key)
        assert a == b

    def test_noiseless_row(self, tmp_path):
        records = _tiny_records(ebn0=(math.inf,), alphas=((1, 1),))
        path = tmp_path / "zero.csv"
        emit_csv(records, path)
        row = path.read_text().splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert row[header.index("ber")] == "0.0"
        assert row[header.index("ci_low")] == "0.0"

    def test_golden_bytes(self, tmp_path):
        records = [
            BerRecord(5, 6, 16, 256, "qam4", "stripe", 20, 0.1, 32000, 3, 1e-05, -0.0, 1 / 3, 7, 1e-300),
            BerRecord(1, 2, 8, 8, "bpsk", "ml", 20, math.inf, 1024, 0, 0.0, 0.0, 0.0029296875, 0, 0.25),
        ]
        path = tmp_path / "golden.csv"
        emit_csv(records, path)
        assert path.read_bytes() == (
            b"alpha_num,alpha_den,carriers,samples,alphabet,decoder,iterations,"
            b"ebn0_db,bits,errors,ber,ci_low,ci_high,seed,wall_time_s\r\n"
            b"1,2,8,8,bpsk,ml,20,inf,1024,0,0.0,0.0,0.0029296875,0,0.25\r\n"
            b"5,6,16,256,qam4,stripe,20,0.1,32000,3,1e-05,-0.0,0.3333333333333333,7,1e-300\r\n"
        )
        assert read_csv(path) == records[::-1]

    def test_numpy_scalars_read_back(self, tmp_path):
        record = BerRecord(
            1, 2, 8, 8, "qam4", "stripe", 20, np.float64(0.1), 64, np.int64(3),
            np.float64(3 / 64), 0.0, 0.1, 1, 0.5,
        )
        path = tmp_path / "np.csv"
        emit_csv([record], path)
        assert read_csv(path) == [record]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "no.csv")


class TestEmitPlot:
    def test_valid_self_contained_svg(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(_tiny_records(), path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        text = path.read_text(encoding="utf-8")
        assert "href" not in text  # no external resources

    def test_theory_curve_present(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(_tiny_records(), path)
        assert "theory (qam4)" in path.read_text(encoding="utf-8")

    def test_zero_error_points_marked_not_joined(self, tmp_path):
        records = _tiny_records(ebn0=(math.inf,), alphas=((1, 1),))
        path = tmp_path / "plot.svg"
        emit_plot(records, path)
        text = path.read_text(encoding="utf-8")
        assert "<path d=" in text  # distinct marker for the zero-error point
        _assert_finite_coordinates(path)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "no.svg")
        assert not (tmp_path / "no.svg").exists()

    def test_infinite_ebn0_at_right_end_of_axis(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(_tiny_records(ebn0=(2.0, math.inf)), path)
        _assert_finite_coordinates(path)
        labels = [e.text for e in ET.parse(path).getroot().iter() if e.tag.endswith("text")]
        assert labels.count("inf") == 1 and "2" in labels


class TestMain:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            f"--carriers 8 --alpha 1/2 --ebn0-list 2,4 --decoder stripe "
            f"--min-errors 10 --max-periods 200 --seed 1 --out {out} --format both".split()
        )
        assert rc == 0
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "run.svg").exists()

    def test_negative_ebn0_grid(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(
            f"--carriers 8 --alpha 1/2 --ebn0 -3:3:1 --max-periods 8 --out {out}".split()
        )
        assert rc == 0
        assert [r.ebn0_db for r in read_csv(out)] == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]

    def test_out_in_missing_directory_fails_before_the_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sefdm.cli.ber_sweep", lambda spec: pytest.fail("sweep ran"))
        out = tmp_path / "missing" / "run.csv"
        assert main(f"--carriers 8 --alpha 1/2 --ebn0-list 4 --out {out}".split()) == 2
        assert not out.parent.exists()

    @pytest.mark.parametrize("fmt", ["csv", "svg", "both"])
    def test_empty_out_fails_before_the_sweep(self, fmt, monkeypatch, capsys):
        monkeypatch.setattr("sefdm.cli.ber_sweep", lambda spec: pytest.fail("sweep ran"))
        argv = f"--carriers 8 --alpha 1/2 --ebn0-list 4 --format {fmt}".split()
        assert main(argv + ["--out", ""]) == 2
        assert "names no file" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_out_naming_a_directory_fails_before_the_sweep(self, fmt, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sefdm.cli.ber_sweep", lambda spec: pytest.fail("sweep ran"))
        argv = f"--carriers 8 --alpha 1/2 --ebn0-list 4 --format {fmt} --out {tmp_path}"
        assert main(argv.split()) == 2
        assert "is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("taken", ["run.csv", "run.svg"])
    def test_both_checks_the_suffixed_paths(self, taken, tmp_path, monkeypatch, capsys):
        # --format both writes run.csv and run.svg; either one being a
        # directory is a usage error, and nothing is written.
        monkeypatch.setattr("sefdm.cli.ber_sweep", lambda spec: pytest.fail("sweep ran"))
        (tmp_path / taken).mkdir()
        argv = f"--carriers 8 --alpha 1/2 --ebn0-list 4 --format both --out {tmp_path / 'run'}"
        assert main(argv.split()) == 2
        assert repr(str(tmp_path / taken)) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken]

    def test_both_accepts_an_out_that_is_a_directory(self, tmp_path):
        # Only the suffixed paths are written, so --out d next to a directory d is fine.
        (tmp_path / "d").mkdir()
        argv = f"--carriers 8 --alpha 1/2 --ebn0-list 4 --max-periods 8 --format both --out {tmp_path / 'd'}"
        assert main(argv.split()) == 0
        assert (tmp_path / "d.csv").is_file() and (tmp_path / "d.svg").is_file()

    def test_unwritable_out_is_reported_without_traceback(self, tmp_path, monkeypatch, capsys):
        # --out becomes a directory while the sweep runs, after parse_args checked it.
        out = tmp_path / "run.csv"

        def sweep_then_take_out(spec):
            records = ber_sweep(spec)
            out.mkdir()
            return records

        monkeypatch.setattr("sefdm.cli.ber_sweep", sweep_then_take_out)
        rc = main(f"--carriers 8 --alpha 1/2 --ebn0-list 4 --max-periods 8 --out {out}".split())
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err

    def test_usage_error_exit_code(self, capsys):
        assert main("--carriers 8 --alpha 2/4 --ebn0-list 4".split()) == 2
        assert "error" in capsys.readouterr().err

    def test_argparse_error_exit_code(self, capsys):
        # argparse's own usage errors are returned like the others, not raised
        assert main("--carriers 8 --alpha 1/2 --ebn0 --decoder ml".split()) == 2
        assert main("--carriers 8 --alpha 1/2 --ebn0-list 4 --bogus 1".split()) == 2
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [
            "--alpha 1/2 --ebn0-list nan",
            "--alpha 1/2 --ebn0-list=-inf",
            "--alpha 1/2 --ebn0-list 4 --iterations 0",
            "--alpha 5/6 --samples 16 --ebn0-list 4 --decoder ofdm",
            "--alpha 5/6 --ebn0-list 4",
            "--alpha 1/2 --ebn0 0:1:nan",
            "--alpha 1/2 --ebn0 nan:1:1",
            "--alpha 1/2 --ebn0 0:inf:1",
            "--alpha 1/2 --ebn0-list 4 --seed -1",
            "--alpha 1/2 --ebn0-list 4 --carriers 0",
            "--alpha 1/2 --ebn0-list 4 --oversample 0",
            "--alpha 0/1 --ebn0-list 4",
            "--alpha 1/0 --ebn0-list 4",
            "--alpha 1/2 --ebn0-list -inf",
            "--alpha -1/2 --ebn0-list 4",
            "--alpha 1/2 --alpha 1/2 --ebn0-list 4",
            "--alpha 1/2 --ebn0-list 4,4.0",
            "--alpha 1/2 --ebn0 0:1e-9:1e-10",
            "--alpha 1/1 --decoder ofdm --ebn0-list 4000",
            "--alpha 1/2 --ebn0-list 4,1e308",
            "--alpha 1/2 --ebn0-list=-4000",
            "--alpha 1/2 --ebn0 0:4:0",
            "--alpha 1/2 --ebn0 0:4:-1",
            "--alpha 1/2 --ebn0 4:0:1",
            "--alpha 1/2 --ebn0-list 4,x",
            "--alpha 1/2 --ebn0-list 4,,6",
        ],
    )
    def test_bad_sweep_is_a_usage_error(self, args, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(f"--carriers 8 --max-periods 50 --out {out} {args}".split()) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1e17:2e17:1", "0:1e9:1e-3", "-1e308:1e308:1"])
    def test_overlong_ebn0_range_is_a_usage_error(self, grid, tmp_path):
        # In a subprocess with a timeout, so that a grid loop that never ends fails.
        result = _run_python(
            ["-m", "sefdm.cli", "--carriers", "8", "--alpha", "1/2", f"--ebn0={grid}",
             "--out", "run.csv"],
            cwd=tmp_path, timeout=10,
        )
        assert result.returncode == 2, result.stderr
        assert "error" in result.stderr
        assert not (tmp_path / "run.csv").exists()


def test_overflowing_ebn0_is_a_usage_error_without_traceback(tmp_path):
    # 10 ** (4000 / 10) overflows a float; the console script must still exit 2
    result = _run_python(
        ["-m", "sefdm.cli", "--carriers", "4", "--alpha", "1/1", "--decoder", "ofdm",
         "--ebn0-list", "4000", "--out", "run.csv"],
        cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "use inf" in result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "run.csv").exists()


def test_runs_without_scipy(tmp_path):
    """The package, its CLI and a sweep import nothing from scipy, and a
    one-worker sweep loads none of the process-pool machinery."""
    code = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import sefdm, sefdm.cli
from sefdm.harness import SweepSpec, ber_sweep, theoretical_ber, theory_ebn0_db
assert 0.0 < theoretical_ber(4.0, sefdm.QAM4) < 0.5
assert theory_ebn0_db(1e-3) > 0.0
(record,) = ber_sweep(SweepSpec(
    carriers=4, samples=4, alphas=((1, 2),), ebn0_db=(4.0,), max_symbol_periods=16,
))
assert record.bits == 16 * 8
assert sys.modules["scipy"] is None
assert not [name for name in sys.modules if name.startswith("scipy.")]
assert "multiprocessing" not in sys.modules
assert "concurrent.futures.process" not in sys.modules
"""
    result = _run_python(["-c", code], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
