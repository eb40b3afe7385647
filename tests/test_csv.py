"""The vectorized ``%.17g`` formatter against Python's own conversion.

Every case is seeded and fixed: powers of ten and their neighbours (where
the decimal exponent estimate is off by one and the 17-digit rounding can
carry into the next power), every fixed-notation exponent with its last
digit at each place, binade edges, subnormals, constructed exact ties,
signs, zeros, NaN, the infinities and random bit patterns, alone and as
fields within lines.  Text cells are read back with the ``csv`` module, the
traced memory of the trajectory and profile writers has a bound, and every
output file is written through :func:`edgrow._csv.atomic_writer`.
"""

import ast
import csv
import io
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from edgrow import _csv
from edgrow.cli import _write_trajectory_csv
from edgrow.dynamics import TrajectoryRecord
from edgrow.equilibrium import chemical_potential, equilibrium_profile, profile_to_csv
from edgrow.kernels import condensing_kernel


def formatted(values) -> list:
    return [row.tobytes().replace(b"\0", b"") for row in _csv.cells(np.asarray(values))]


def python(values) -> list:
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def neighbours(x: float, ulps: int) -> list:
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def test_powers_of_ten_and_binade_edges_match_python():
    values = []
    for e in range(-324, 309):
        values += neighbours(float(f"1e{e}"), 2)
    for e in range(-1074, 1024):
        values += neighbours(math.ldexp(1.0, e), 1)
    values += [99999999999999999.5, 9999999999999998.0, 1e16, 1e17, 0.5e-4, 1e-5, 1e17 - 16]
    values = np.array([v for v in values if math.isfinite(v)])
    cells = np.concatenate([values, -values])
    assert formatted(cells) == python(cells)


def test_subnormals_signs_and_specials_match_python():
    rng = np.random.default_rng(15)
    subnormal = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
    extremes = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
    cells = np.concatenate([subnormal, -subnormal, extremes, np.negative(extremes), specials])
    assert formatted(cells) == python(cells)


def test_random_bit_patterns_match_python():
    rng = np.random.default_rng(2024)
    cells = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    assert formatted(cells) == python(cells)


def exact_ties(rng) -> list:
    """``(x, E)`` for doubles whose 18th significant digit is a 5 followed by
    zeros, ``E`` being the decimal exponent of ``x``.

    ``x = m 2^(E-17)`` with ``m`` odd has ``x 10^(16-E) = m 5^(16-E) / 2``, a
    half-integer, and is in ``[10^E, 10^(E+1))`` when ``m 5^(16-E)`` is in
    ``[2 10^16, 2 10^17)``; such an ``m`` below ``2^53`` exists for
    ``E = -8 .. 15``.
    """
    ties = []
    for e in range(-8, 16):
        scale = 5 ** (16 - e)
        low, high = -(-2 * 10**16 // scale), min((2 * 10**17 - 1) // scale, 2**53 - 1)
        for m in rng.integers(low, high, size=40).tolist():
            m |= 1
            if low <= m <= high:
                ties.append((math.ldexp(m, e - 17), e))
    return ties


def digit_pattern(x: float) -> tuple:
    """``(E, last)``: the decimal exponent of ``"%.17g" % x`` and the place,
    1 to 17, of its last nonzero significant digit."""
    mantissa, exponent = ("%.16e" % abs(x)).split("e")  # the same 17 digits as %.17g
    return int(exponent), len(mantissa.replace(".", "").rstrip("0"))


def test_every_fixed_notation_exponent_and_last_digit_matches_python():
    # Cells in [10^-5, 10^17) with their last nonzero digit at each place:
    # below 1 the digits follow "0.000", from 10 up the dot moves between
    # them, and integer zeros before it must not read as trailing zeros.
    rng = np.random.default_rng(17)
    cases = {}
    for e in range(-5, 17):
        for last in range(1, 18):
            for _ in range(2000):
                digits = rng.integers(10 ** (last - 1), 10**last) // 10 * 10 + rng.integers(1, 10)
                x = float(f"{digits}e{e - last + 1}")
                if digit_pattern(x) == (e, last):
                    cases[e, last] = x
                    break
    # No double reads as one digit times 10^-5: the nearest to each has noise
    # in its 17th digit.
    assert sorted(cases) == [(e, last) for e in range(-5, 17) for last in range(1, 18) if (e, last) != (-5, 1)]
    cells = np.array(list(cases.values()))
    assert formatted(cells) == python(cells)
    assert formatted(-cells) == python(-cells)


def test_rounding_up_to_the_next_power_of_ten_matches_python():
    # The doubles around 9.99999999999999995 10^E: 17 digits of 15 nines and
    # two more just below it, and at it the next power of ten.
    for e in range(-5, 18):
        power = float(f"9.99999999999999995e{e}")
        cells = np.array(neighbours(power, 3))
        texts = python(cells)
        assert b"%.17g" % float(f"1e{e + 1}") in texts
        assert any(("%.16e" % x).startswith("9.99999999999999") for x in cells.tolist())
        assert formatted(cells) == texts
        assert formatted(-cells) == python(-cells)


def test_cells_written_into_a_slice_of_each_line_match_python():
    # Float fields sit between others in the line, one broadcast along the
    # line's second axis, over several blocks, each written in two halves;
    # the integer and text columns are converted block by block.
    rng = np.random.default_rng(5)
    samples, width = 3 * -(-_csv._BLOCK // 9) + 5, 8
    times = rng.random(samples) * 10.0 ** rng.integers(-6, 18, samples)
    values = rng.integers(0, 2**64, size=(samples, width), dtype=np.uint64).view(np.float64)
    values[:, ::2] = rng.random((samples, 4)) * 10.0 ** rng.integers(-6, 18, (samples, 4))
    labels = ["a,b" if i % 5 == 0 else "t%d" % i for i in range(samples)]
    fh = io.BytesIO()
    columns = (np.arange(samples)[:, None], times[:, None], np.array(b"x"), np.array(labels)[:, None], values)
    _csv.write_lines(fh, *columns)
    expected = b"".join(
        b"%d,%s,x,%s,%s\n" % (i, b"%.17g" % t, b'"a,b"' if label == "a,b" else label.encode(), b"%.17g" % v)
        for i, (t, label, row) in enumerate(zip(times.tolist(), labels, values.tolist()))
        for v in row
    )
    assert fh.getvalue() == expected


def test_exact_ties_take_the_fallback_and_round_half_even():
    pairs = exact_ties(np.random.default_rng(7))
    assert len(pairs) > 500
    for x, e in pairs:
        assert Fraction(10) ** e <= Fraction(x) < Fraction(10) ** (e + 1)
        assert (Fraction(x) * Fraction(10) ** (16 - e)).denominator == 2
    ties = [x for x, _ in pairs]
    _, _, exact = _csv.decimal(np.array(ties))
    assert not exact.any()
    assert formatted(ties) == python(ties)


def test_the_fallback_is_rare_on_ordinary_values():
    rng = np.random.default_rng(3)
    values = np.exp(rng.uniform(-700.0, 700.0, size=100_000))
    _, _, exact = _csv.decimal(values)
    assert exact.mean() > 0.999


def test_text_cells_are_utf8_and_quoted_where_csv_needs_it():
    text = ["ok", "error: K(1,0)", 'say "hi"', "line\nbreak", "crlf\r", "\u00e9t\u00e9", ""]
    fh = io.BytesIO()
    marks = np.array([b"", b"x"] * 3 + [b""])
    _csv.write_lines(fh, np.arange(len(text)) / 4.0, np.array(text), marks)
    raw = fh.getvalue()
    assert raw.startswith(b"0,ok,\n0.25,\"error: K(1,0)\",x\n")  # plain cells keep their bytes
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    assert [row[1] for row in rows] == text
    assert all(len(row) == 3 for row in rows)


def relaxation_record(samples: int = 2001) -> TrajectoryRecord:
    """A relaxation-shaped record of ``samples`` samples at N = 256."""
    sizes = np.arange(257)
    times = np.arange(samples) * 0.1
    decay = 0.3 + 0.4 * np.exp(-times / 20.0)
    states = np.exp(-np.outer(decay, sizes)) * (1.0 - np.exp(-decay))[:, None]
    zeros = np.zeros(samples)
    return TrajectoryRecord(times, states, 256, zeros, zeros, zeros, zeros, zeros)


def traced_peak(write) -> int:
    """The traced peak, in bytes, of the call ``write()``."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_writer_holds_a_few_blocks_of_memory(tmp_path):
    # numpy reports its buffers to tracemalloc.  A relaxation-shaped record
    # of 2001 samples at N = 256 (514 257 cells, 23 MB of CSV) is written
    # block by block.  The bound is the 0.57 MiB a 2048-cell block of the
    # 45-column layout took, with a margin; that layout took 2.2 MiB with
    # blocks of 8192 cells.
    traj = relaxation_record()
    _write_trajectory_csv(traj, tmp_path / "warm.csv")  # first-call tables outside the trace
    peak = traced_peak(lambda: _write_trajectory_csv(traj, tmp_path / "trajectory.csv"))
    assert (tmp_path / "trajectory.csv").stat().st_size > 20 * 2**20
    assert peak <= 0.6 * 2**20


def test_profile_writer_holds_a_few_blocks_of_memory(tmp_path):
    # A 10^6-row profile: its integer column is formatted block by block, as
    # its two float columns are.  The bound is the 0.51 MiB those float
    # columns alone took, with the trajectory test's margin, on top of the
    # 8-byte row numbers ``np.arange`` hands the writer; formatting the whole
    # integer column at once took 72 MiB.
    rows = 10**6 + 1
    cp = chemical_potential(condensing_kernel(3.0), rows - 1)
    profile = equilibrium_profile(cp, rho=0.5, k_max=rows - 1)
    profile_to_csv(profile, cp, tmp_path / "warm.csv")
    peak = traced_peak(lambda: profile_to_csv(profile, cp, tmp_path / "profile.csv"))
    lines = (tmp_path / "profile.csv").read_bytes().splitlines()
    assert len(lines) == rows + 1 and lines[-1].startswith(b"1000000,")
    assert peak <= 8 * rows + 0.6 * 2**20


def test_writer_that_fails_part_way_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "trajectory.csv"
    _write_trajectory_csv(relaxation_record(41), path)
    before = path.read_bytes()
    cells, calls = _csv.cells, []

    def fail_on_second_block(x, s=None):
        calls.append(len(x))
        if len(calls) == 2:
            raise MemoryError("second block")
        return cells(x, s)

    monkeypatch.setattr(_csv, "cells", fail_on_second_block)
    with pytest.raises(MemoryError):
        _write_trajectory_csv(relaxation_record(), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectory.csv"]


def _writes_a_file(node: ast.Call) -> bool:
    """Whether ``node`` is ``open(..., mode)`` with a mode that is not a
    literal read mode, ``os.replace``/``os.rename`` or ``.write_text``/``.write_bytes``."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        return any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt")) for m in modes)
    if isinstance(func, ast.Attribute):
        owner = func.value
        if isinstance(owner, ast.Name) and owner.id == "os" and func.attr in ("replace", "rename"):
            return True
        return func.attr in ("write_text", "write_bytes")
    return False


def test_only_csv_opens_files_for_writing():
    src = pathlib.Path(_csv.__file__).parent
    writers = {
        path.name
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _writes_a_file(node)
    }
    assert writers == {"_csv.py"}
