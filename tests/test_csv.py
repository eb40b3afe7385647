"""The vectorized ``%.17g`` formatter against Python's own conversion.

Every case is seeded and fixed: powers of ten and their neighbours (where
the decimal exponent estimate is off by one and the 17-digit rounding can
carry into the next power), binade edges, subnormals, constructed exact ties,
signs, zeros, NaN, the infinities and random bit patterns.  Text cells are
read back with the ``csv`` module.
"""

import csv
import io
import math
from fractions import Fraction

import numpy as np

from edgrow import _csv


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
