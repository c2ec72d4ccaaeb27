"""The CSV and JSON documents of a ``spectra.SpectrumTrace``, block by block.

Only ``cli``'s ``scan`` imports this module, and only a JSON document
imports :mod:`cavray.jsontext`, which writes its schema, species and cavity.

The trace writers round every value to 12 significant digits, written as
``"%.12g" % x`` in the CSV and as ``repr(float("%.12g" % x))`` in the
JSON, and ``_TokenFrame`` formats them in numpy, every column of an
8192-row block in one pass. The mantissa rint(|x| 10**(11 - e)) for
e = floor(log10|x|) holds %.12g's digits wherever the product's rounding
cannot carry it across a half; for e = -11..11 the power of ten is exact
and a half-integer product is settled by its exact rounding error. The
digits, the point, the trailing zeros, the prefix and the exponent come
from lookup tables, and repr's digits are the same for every normal
double (DBL_DIG = 15). Odd tokens go to Python's own ``%`` and ``repr``:
zero, |x| < 1e-289, near-halves outside e = -11..11, and tokens whose
log10 or rounding crosses a power of ten. ``_TokenFrame.fill`` states the
argument.
"""

from __future__ import annotations

import functools

import numpy as np

SCHEMA = "cavray.spectrum-trace/1"

# rows per block of the trace writers
_BLOCK = 8192
_JSON_SEPARATOR = b",\n    "


def pieces(trace, fmt: str):
    """The "csv" or "json" document of ``trace`` in pieces, so that none is
    held whole: the JSON as ``json.dumps(..., indent=2)`` writes it, and a
    newline. ``_TokenFrame`` writes the values, not the json module, whose
    indenting encoder runs in Python once per element. The signal column is
    ``signal_normalized`` for a trace scaled to a peak of 1, else ``signal``."""
    signal = "signal_normalized" if trace.normalized else "signal"
    if fmt == "csv":
        yield f"detuning_Hz,{signal}\n"
        frame = _TokenFrame(min(len(trace.detunings), _BLOCK), [b",", b"\n"], json=False)
        for start in range(0, len(trace.detunings), _BLOCK):
            detunings = trace.detunings[start:start + _BLOCK]
            frame.fill(detunings, trace.signals[start:start + _BLOCK])
            yield frame.text(len(detunings))
        return
    if fmt != "json":
        raise ValueError(f"a trace is written as csv or json, not {fmt!r}")
    from .jsontext import dumps

    # one frame for both arrays, which are of one length
    frame = _TokenFrame(min(len(trace.detunings), _BLOCK), [_JSON_SEPARATOR], json=True)
    yield (f'{{\n  "schema": {dumps(SCHEMA)},\n'
           f'  "species": {dumps(trace.species)},\n  "detuning_Hz": ')
    yield from _json_array(frame, trace.detunings)
    yield f',\n  "{signal}": '
    yield from _json_array(frame, trace.signals)
    cavity = {"finesse": trace.finesse, "free_spectral_range_Hz": trace.free_spectral_range,
              "linewidth_Hz": trace.free_spectral_range / trace.finesse}
    yield ',\n  "cavity": ' + dumps(cavity, "  ") + "\n}\n"


# 4-byte words of a value's token in its slot of a writer frame; the words
# of its separator follow
_TOKEN_WORDS = 8


class _TokenFrame:
    """A row-major uint32 frame of token slots, ``len(separators)`` columns
    to a row, and the scratch arrays that fill it, reused for every block of
    one writer call. A slot is ``_TOKEN_WORDS`` words for a value's token,
    NUL padded, then the words of its column's separator, so the slots of
    all rows and columns lie at one stride in row order; ``text`` drops the
    padding. Every array of ``fill`` is preallocated: a fresh 64 KiB
    temporary per step costs more in page faults than the step itself."""

    def __init__(self, rows: int, separators: list[bytes], json: bool):
        tails = np.zeros((len(separators), 4 * -(-max(map(len, separators)) // 4)), np.uint8)
        for tail, separator in zip(tails, separators):
            tail[:len(separator)] = list(separator)
        tails = tails.view(np.uint32)
        self.frame = np.zeros((rows, len(separators), _TOKEN_WORDS + tails.shape[1]),
                              np.uint32)
        self.frame[..., _TOKEN_WORDS:] = tails
        self.json = json
        self.tables = _token_tables(json)
        self.values = np.empty((rows, len(separators)))
        size = rows * len(separators)
        self.reals = np.empty((3, size))
        self.indices = np.empty((7, size), np.intp)
        self.flags = np.empty((2, size), bool)
        self.words = np.empty((2, size), np.uint64)
        self.word = np.empty(size, np.uint32)

    def text(self, rows: int) -> str:
        """The first ``rows`` rows of the frame, without their padding."""
        return self.frame[:rows].tobytes().translate(None, b"\0").decode("ascii")

    def fill(self, *columns: np.ndarray) -> int:
        """Write the first len(columns[0]) rows: the token of each value of
        ``columns``, one array of one length per separator column, into its
        row's slot of that column, ``"%.12g" % x``, or ``repr(float("%.12g"
        % x))`` in a JSON frame. The columns are stacked into one (rows, k)
        value buffer, so one pass formats all rows x k slots in row order.
        Returns how many tokens were odd.

        The 12 digits come from numpy: e = floor(log10|x|) and the mantissa
        m = rint(y), y = |x| * 10**(11 - e) in floating point, which rounds
        to even as %.12g does. The scale is within an ulp of 10**(11 - e)
        and the product adds half an ulp, so y is within 3.4e-4 of the exact
        product z < 1e12, and rint(y) rounds z correctly unless y's fraction
        is within 1e-3 of one half. For e = -11..11 the scale is exact and y
        is z rounded once, so only a half-integer y can round the wrong way;
        there the product's rounding error, computed exactly, says on which
        side of y the value z lies (none: a decimal tie). A token is odd,
        and written by Python's own ``%`` and ``repr``, when

        * y's fraction is within 1e-3 of one half and e is outside -11..11;
        * y < 1e11 or m >= 1e12: e was one too low or too high (log10
          rounded across a power of ten), or the rounding carried to 13
          digits; y can reach 1e11 from a too-high e only when the true
          mantissa is within 3.4e-3 of 1e12, which %.12g carries to the
          same digits;
        * |x| is zero or below 1e-289 (subnormals included), where the scale
          overflows.

        Every other m is z rounded to 12 digits, %.12g's digits. For a
        normal double they are also repr's: two decimals of at most 15
        significant digits never round to the same double (DBL_DIG = 15), so
        no shorter string reads back as float(s). Only the layout differs:
        %.12g is positional for -4 <= e < 12 and repr for -4 <= e < 16,
        where repr ends integers in ".0".

        The token is a sign and "0.000" prefix word pair, four digit words
        and a suffix word pair, looked up by its layout code: a digit word
        is one 3-digit group of m in a variant that drops trailing zeros
        and places the point, and the suffix is the exponent, ".0" or the
        zeros of a repr integer >= 1e12. The values must be finite.
        """
        rows = len(columns[0])
        for j, column in enumerate(columns):
            self.values[:rows, j] = column
        values = self.values[:rows].ravel()
        n = len(values)
        scale, last, classes, digits, prefix, offsets, exponent, integral = self.tables
        y, t, m = self.reals[:, :n]
        e, code, index, *groups = self.indices[:, :n]
        odd, flag = self.flags[:, :n]
        wide, extra = self.words[:, :n]
        word = self.word[:n]
        slots = self.frame[:rows].reshape(n, -1)[:, :_TOKEN_WORDS]
        ends = slots.view(np.uint64)
        # every index is in range: mode "clip" only spares the copy of
        # ``out`` that np.take makes under the default "raise"
        clip = "clip"

        np.abs(values, out=y)
        with np.errstate(divide="ignore"):
            np.log10(y, out=t)
        np.floor(t, out=t)
        t += 290.0
        np.clip(t, 0.0, 598.0, out=t)
        np.copyto(e, t, casting="unsafe")
        y *= np.take(scale, e, out=t, mode=clip)
        np.rint(y, out=m)
        np.less(y, 1e11, out=odd)
        odd |= np.greater_equal(m, 1e12, out=flag)
        np.subtract(y, m, out=t)
        ties = np.flatnonzero(np.greater(np.abs(t, out=t), 0.499, out=flag))
        if len(ties):
            inexact = (e[ties] < 279) | (e[ties] > 301)
            odd[ties[inexact]] = True
            ties = ties[~inexact]
            halves = ties[np.abs(y[ties] - m[ties]) == 0.5]
            if len(halves):
                # the product's rounding error, exact by Dekker's two-product:
                # each factor split into two 26-bit halves by Veltkamp's 2**27 + 1
                parts = []
                for factor in np.abs(values[halves]), scale[e[halves]]:
                    spread = 134217729.0 * factor
                    high = spread - (spread - factor)
                    parts += [high, factor - high]
                ah, al, bh, bl = parts
                product = y[halves]
                error = ((ah * bh - product) + ah * bl + al * bh) + al * bl
                m[halves] = np.where(error == 0.0, m[halves],
                                     product + np.copysign(0.5, error))
        np.copyto(m, 1e11, where=odd)
        # group j of m is floor(m / 10**(9 - 3j)) - 1000 floor(m / 10**(12 - 3j));
        # each floor is exact, the quotient's fraction being at most
        # 1 - 10**(3j - 9), far above its rounding error
        np.floor(np.divide(m, 1e9, out=t), out=t)
        np.copyto(groups[0], t, casting="unsafe")
        for group, power in zip(groups[1:], (1e6, 1e3, 1.0)):
            np.multiply(t, -1e3, out=y)
            np.floor(np.divide(m, power, out=t), out=t)
            np.copyto(group, np.add(y, t, out=y), casting="unsafe")
        np.take(last[0], groups[0], out=code, mode=clip)
        for j in 1, 2, 3:
            np.maximum(code, np.take(last[j], groups[j], out=index, mode=clip), out=code)
        code += np.take(classes, e, out=index, mode=clip)
        code += np.signbit(values, out=flag)
        ends[:, 0] = np.take(prefix, code, out=wide, mode=clip)
        for j, group in enumerate(groups):
            np.take(offsets[j], code, out=index, mode=clip)
            index += group
            slots[:, 2 + j] = np.take(digits, index, out=word, mode=clip)
        np.take(exponent, e, out=wide, mode=clip)
        if integral is not None:
            wide |= np.take(integral, code, out=extra, mode=clip)
        ends[:, 3] = wide
        odd = np.flatnonzero(odd)
        if len(odd):
            tokens = []
            for x in values[odd].tolist():
                token = b"%.12g" % x
                if self.json:
                    token = repr(float(token)).encode("ascii")
                tokens.append(token.ljust(4 * _TOKEN_WORDS, b"\0"))
            slots[odd] = np.frombuffer(b"".join(tokens), np.uint32).reshape(len(odd), -1)
        return len(odd)


@functools.cache
def _token_tables(json: bool) -> tuple:
    """Lookup tables of ``_TokenFrame.fill``, for ``repr`` tokens if ``json``,
    else for %.12g tokens; built once per process, in under 1 ms.

    A token's layout code is 24 c + 2 (n - 1) + sign, where n is its count
    of significant digits and c its exponent's class: 0 for e <= -5, e + 5
    for e = -4..15, 21 for e >= 16. %.12g writes e = -4..11 positionally,
    repr e = -4..15 and integers with ".0".
    """
    positional_to = 15 if json else 11
    exponents = np.arange(-290, 309)
    # rounding to 12 digits multiplies by 10**(11 - e); zero, subnormals and
    # |x| < 1e-289 (where that overflows) get 0, which marks them odd
    scale = 10.0 ** (11 - exponents)
    scale[0] = 0.0
    # last[j][g]: 2 (n - 1) for a 12-digit mantissa whose last nonzero digit
    # is in 3-digit group j, of value g; 0 where g is 0
    groups = np.arange(1000)
    kept = 3 - (groups % 10 == 0) - (groups % 100 == 0)
    last = np.where(groups > 0, 2 * (kept - 1 + 3 * np.arange(4)[:, None]), 0)
    classes = 24 * (np.minimum(np.maximum(exponents, -5), 16) + 5)
    # digit words of the 1000 groups in 16 variants 4 shown + dot: the first
    # `shown` digits, with a point after the first `dot` of them (0: none);
    # byte i of variant v is character source[v, i] of its group
    shown, dot = np.arange(16)[:, None] // 4, np.arange(16)[:, None] % 4
    byte = np.arange(4)
    source = byte - ((dot > 0) & (byte > dot))
    source = np.where((dot > 0) & (byte == dot), 3, np.where(source < shown, source, 4))
    characters = np.zeros((5, 1000), np.uint8)
    characters[:3] = groups // np.array([[100], [10], [1]]) % 10 + ord("0")
    characters[3] = ord(".")
    digits = np.empty((16, 1000, 4), np.uint8)
    for i in range(4):
        digits[:, :, i] = characters[source[:, i]]
    digits = digits.view(np.uint32).ravel()

    codes = np.arange(22 * 24)
    e = codes // 24 - 5
    count = codes // 2 % 12 + 1
    positional = (e >= -4) & (e <= positional_to)
    whole = positional & (e >= 0)
    length = np.where(whole, np.maximum(count, np.minimum(e, 11) + 1), count)
    point = np.where(whole & (count > e + 1), e + 1, (count > 1) & ~positional)
    starts = 3 * np.arange(4)[:, None]
    inside = point - starts
    offsets = 1000 * (4 * np.minimum(np.maximum(length - starts, 0), 3)
                      + np.where((inside >= 1) & (inside <= 3), inside, 0))
    # prefix texts by (leading zeros k of "0.0..." for e = -k, sign); the
    # ".0" and zeros that repr appends to integers, by e - 11
    texts = np.zeros((5, 2, 8), np.uint8)
    integers = np.zeros((5, 8), np.uint8)
    for k in range(5):
        text = b"0." + b"0" * (k - 1) if k else b""
        texts[k, 0, :len(text)] = list(text)
        texts[k, 1, :len(text) + 1] = list(b"-" + text)
        integers[k, :k + 2] = list(b"0" * k + b".0")
    zeros = np.where(positional & (e < 0), -e, 0)
    prefix = texts.view(np.uint64).ravel()[2 * zeros + codes % 2]
    # "e+16", "e-05", "e-100": a sign and at least two digits
    magnitude = np.abs(exponents)
    three = magnitude >= 100
    text = np.zeros((len(exponents), 8), np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(exponents < 0, ord("-"), ord("+"))
    text[:, 2] = np.where(three, magnitude // 100, magnitude // 10 % 10) + ord("0")
    text[:, 3] = np.where(three, magnitude // 10 % 10, magnitude % 10) + ord("0")
    text[:, 4] = np.where(three, magnitude % 10 + ord("0"), 0)
    text[(exponents >= -4) & (exponents <= positional_to)] = 0
    exponent = text.view(np.uint64).ravel()
    integral = None
    if json:
        endings = integers.view(np.uint64).ravel()[np.minimum(np.maximum(e - 11, 0), 4)]
        integral = np.where(whole & (point == 0), endings, np.uint64(0))
    return scale, last, classes, digits, prefix, offsets, exponent, integral


def _json_array(frame: _TokenFrame, values: np.ndarray):
    """Pieces, block by block, of a JSON array nested one level deep,
    indent 2, each value x written as ``repr(float("%.12g" % x))``:
    rounded to 12 significant digits, then as Python's float repr. ``frame``
    is a JSON frame of one column and at least min(len(values), 8192) rows."""
    if not len(values):
        yield "[]"
        return
    yield "[\n    "
    for start in range(0, len(values), _BLOCK):
        block = values[start:start + _BLOCK]
        frame.fill(block)
        text = frame.text(len(block))
        # the last value's separator gives way to the closing bracket
        yield (text if start + _BLOCK < len(values)
               else text[:-len(_JSON_SEPARATOR)] + "\n  ]")
