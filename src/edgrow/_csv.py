"""CSV lines whose float cells are exactly the bytes of ``"%.17g" % x``.

:func:`cells` finds the 17 correctly rounded digits of every cell with
numpy.  For finite ``x > 0``, ``E = floor(log10 x)`` and ``q = 16 - E``,
``x 10^q = p + r``: ``a = ldexp(x, k_q)`` is exact, ``10^q 2^-k_q = hi + lo``
holds 106 bits, ``p = a hi`` and ``r`` is Dekker's (1971) exact error of that
product plus ``a lo``.  As ``x 10^q >= 10^16 > 2^53``, ``p`` is an integer and
the digits are ``int(p) + floor(r)`` rounded by ``frac(r)``, with an error
below ``2^-46``; an integer part outside ``[10^16, 10^17)`` moves ``E`` by one.
Ties within ``2^-30`` of one half, cells unsettled after three passes,
``-0.0``, NaN and the infinities take Python's own conversion.  A cell is laid
out in a template of :data:`WIDTH` columns whose unused columns a per-layout
mask sets to NUL; :func:`write_lines` drops the NULs of a block in one pass.
"""

import functools

import numpy as np

WIDTH = 45  # "-", "0.", three zeros, 17 digits each with an optional ".", "e+ddd"
# The constant characters of the template, 1 where a cell's own character goes.
_TEMPLATE = np.frombuffer(b"\x010.000" + b"\x01." * 17 + b"e\x01\x01\x01\x01", np.uint8)
_TEN16, _TEN17 = 10**16, 10**17
_Q_LOW = -296  # tables cover q = 16 - E for E in [-328, 312], any double's E (-324..308) ± 4
_BLOCK = 2048  # float cells per block written


@functools.cache
def _tables() -> tuple:
    """``(k, hi, hi_big, hi_small, lo, quads, masks)``: the power table by
    ``q - _Q_LOW`` with ``hi`` split for Dekker's product, the 4-digit ASCII
    groups as ``uint32``, and the 0/1 column mask of each layout."""
    k, words = [], []
    for q in range(_Q_LOW, 345):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        s = 106 - num.bit_length() + den.bit_length()
        m = (num << s) // den if s >= 0 else num // (den << -s)
        if m.bit_length() > 106:
            m, s = m >> 1, s - 1
        k.append(105 - s)  # 10^q 2^-k_q = m 2^-105 = hi + lo
        hi = float(m >> 53) * 2.0**-52
        t = hi * 134217729.0  # 2^27 + 1
        hi_big = t - (t - hi)
        words.append((hi, hi_big, hi - hi_big, float(m & (2**53 - 1)) * 2.0**-105))
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)  # ASCII of 0000 .. 9999
    ascii_digits = np.frombuffer(b"0123456789", np.uint8)
    for place in range(4):
        quads[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    # Layout row form * 17 + last: forms 0..20 are fixed notation for E = form - 4,
    # 21 and 22 exponent notation with two and three exponent digits; ``last``
    # is the last nonzero digit.
    masks = np.zeros((23, 17, WIDTH), np.uint8)
    masks[..., 0] = 1
    for form in range(23):
        for last in range(17):
            row = masks[form, last]
            if form < 21:
                e = form - 4
                lim, dot = max(last, e), e
                if e < 0:
                    row[1 : 2 - e] = 1  # "0.", then -E - 1 zeros
            else:
                lim, dot = last, 0
                row[40:] = 1
                row[42] = form == 22
            row[6 : 7 + 2 * lim : 2] = 1
            if last > dot >= 0:
                row[7 + 2 * dot] = 1
    return (
        np.array(k, np.intc),
        *np.array(words).T.copy(),
        quads.view(np.uint32).ravel(),
        masks.reshape(-1, WIDTH),
    )


def _scaled(x: np.ndarray, e: np.ndarray) -> tuple:
    """Integer part and fraction of ``x 10^(16 - e)``."""
    k, hi, hi_big, hi_small, lo = _tables()[:5]
    j = 16 - _Q_LOW - e
    a = np.ldexp(x, k[j])
    h, hb, hs = hi[j], hi_big[j], hi_small[j]
    p = a * h
    t = a * 134217729.0
    ab = t - (t - a)
    a_s = a - ab
    r = ((ab * hb - p) + ab * hs + a_s * hb) + a_s * hs + a * lo[j]
    whole = np.floor(r)
    return p.astype(np.int64) + whole.astype(np.int64), r - whole


def decimal(x: np.ndarray) -> tuple:
    """``(d, e, exact)`` for positive finite ``x``: ``d`` is the 17-digit
    ``round(x 10^(16-e))`` in ``[10^16, 10^17)`` and ``e`` the decimal
    exponent of the rounded value.  Where ``exact`` is False, Python's
    conversion must decide instead and ``d`` is a placeholder."""
    e = np.floor(np.log10(x)).astype(np.int64)
    d = np.empty(x.shape, np.int64)
    exact = np.empty(x.shape, bool)
    sel = slice(None)
    for _ in range(3):
        whole, frac = _scaled(x[sel], e[sel])
        low, high = whole < _TEN16, whole >= _TEN17
        e[sel] += high.astype(np.int64) - low
        d[sel] = whole + (frac > 0.5)
        exact[sel] = np.abs(frac - 0.5) > 2.0**-30
        moved = low | high
        if not moved.any():
            break
        sel = np.flatnonzero(moved) if isinstance(sel, slice) else sel[moved]
    else:
        exact[sel] = False
    carry = d == _TEN17
    return np.where(carry | ~exact, _TEN16, d), e + carry, exact


def cells(x: np.ndarray) -> np.ndarray:
    """``(len(x), WIDTH)`` bytes whose row ``i``, NUL bytes removed, is
    ``"%.17g" % x[i]`` for the 1-D float array ``x``."""
    x = np.asarray(x, dtype=float)
    fast = np.isfinite(x) & (x != 0)
    d, e, exact = decimal(np.where(fast, np.abs(x), 1.0))
    quads, masks = _tables()[5:]
    top = d // 10**8  # the first nine digits
    lower = d - top * 10**8
    lead = top // 10**8
    words = np.empty((len(x), 5), np.uint32)
    words[:, 0] = quads.take(lead)
    for col, half in zip((1, 3), (top - lead * 10**8, lower)):
        high = half // 10**4  # ``//`` by a constant is much faster than ``%``
        words[:, col] = quads.take(high)
        words[:, col + 1] = quads.take(half - high * 10**4)
    digits = words.view(np.uint8)[:, 3:]
    last = 16 - np.argmax(digits[:, ::-1] != 48, axis=1)  # last nonzero digit
    form = np.where((e >= -4) & (e < 17), e + 4, 21 + (np.abs(e) >= 100))
    chars = masks.take(form * 17 + last, axis=0)
    chars *= _TEMPLATE
    chars[:, 0] *= (x < 0) * np.uint8(45)
    chars[:, 6:40:2] *= digits
    chars[:, 6] -= (x == 0) & ~np.signbit(x)  # +0.0 was computed as 1.0
    chars[:, 41] *= np.where(e < 0, 45, 43).astype(np.uint8)
    chars[:, 42:] *= quads.take(np.abs(e)).view(np.uint8).reshape(-1, 4)[:, 1:]
    fallback = np.flatnonzero(~(fast & exact) & ((x != 0) | np.signbit(x)))
    for i, v in zip(fallback, x[fallback].tolist()):
        text = b"%.17g" % v
        chars[i] = 0
        chars[i, : len(text)] = np.frombuffer(text, np.uint8)
    return chars


def write_lines(fh, *columns) -> None:
    """Write one CSV line per cell of the columns' broadcast shape, in C
    order, to the binary file ``fh``.

    Float columns are written as ``%.17g``, integer columns as ``%d``,
    bytes columns as they are (an empty one leaves the cell empty) and text
    columns as UTF-8, quoted as RFC 4180 asks where a cell holds a comma, a
    quote or a line break.  Lines are formatted and written in blocks of
    about 2048 float cells along the first axis.
    """
    columns = [c if c.dtype.kind == "f" else _bytes(c) for c in map(np.asarray, columns)]
    n = np.broadcast_shapes(*(c.shape for c in columns))[0]
    per_row = sum(int(np.prod(c.shape[1:])) for c in columns if c.dtype.kind == "f")
    step = -(-_BLOCK // max(per_row, 1))
    for start in range(0, n, step):
        block = [c[start : start + step] if c.ndim and len(c) == n else c for c in columns]
        floats = [c.ravel() for c in block if c.dtype.kind == "f"]
        chars = cells(np.concatenate(floats)) if floats else None
        fields, at = [], 0
        for c in block:
            if c.dtype.kind == "f":
                field = chars[at : at + c.size]
                at += c.size
                used = field.any(axis=0)
                field = (field if used.all() else field[:, used]).reshape(c.shape + (-1,))
            else:
                field = c.view(np.uint8).reshape(c.shape + (-1,))
            fields.append(field)
        shape = np.broadcast_shapes(*(field.shape[:-1] for field in fields))
        width = sum(field.shape[-1] + 1 for field in fields)
        buffer = bytearray(int(np.prod(shape)) * width)
        out = np.frombuffer(buffer, np.uint8).reshape(shape + (width,))
        at = 0
        for field in fields:
            out[..., at : at + field.shape[-1]] = field
            out[..., at + field.shape[-1]] = 44  # ','
            at += field.shape[-1] + 1
        out[..., -1] = 10  # '\n'
        fh.write(buffer.translate(None, b"\0"))


def _bytes(column: np.ndarray) -> np.ndarray:
    """A non-float column's cells as bytes: integers as ``%d``, bytes as they
    are, text as UTF-8, quoted where a cell holds a comma, a quote or a line
    break (RFC 4180)."""
    if column.dtype.kind != "U":
        return np.asarray(column.astype(bytes).tolist())
    cells = []
    for cell in column.ravel().tolist():
        if any(ch in cell for ch in ',"\r\n'):
            cell = '"' + cell.replace('"', '""') + '"'
        cells.append(cell.encode("utf-8"))
    return np.array(cells, dtype=bytes).reshape(column.shape)
