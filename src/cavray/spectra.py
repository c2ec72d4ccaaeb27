"""Doppler-broadened line shapes and simulated cavity scans.

The 90-degree scattering geometry observes a Doppler width sqrt(2) times
the absorption-spectroscopy width, because the projection of the thermal
velocity onto the difference of pump and collection wavevectors carries
that factor. ``observed_doppler_fwhm(gas, wavelength)`` is that width at
the gas's own temperature, and the scan, the spectral overlap and the
species ratio all take it from there. A cavity scan convolves each
species' observed Doppler Gaussian with the cavity Lorentzian; the
spectral overlap is the value of that convolution on resonance and
quantifies how much of the scattered spectrum the cavity accepts.

The cavity response is a comb of Lorentzians of half width hwhm spaced
by the free spectral range F: the high-finesse limit of the Airy
function, kept as the model. By Poisson summation (Ismail et al., Opt.
Express 24, 16366, 2016) the scan signal over all comb orders is the
Fourier series

    signal(nu) = sum_j s_j * pi * hwhm / F
                 * [1 + 2 sum_{k>=1} c_k(sigma_j) cos(2 pi k nu / F)],
    c_k(sigma) = exp(-2 pi^2 sigma^2 k^2 / F^2 - 2 pi hwhm k / F),

with s_j = weight * polarizability^2 and sigma_j the observed Doppler
sigma of species j. ``scan_spectrum`` drops the harmonics below 1e-17 of
the mean level, tabulates one period with an inverse FFT at 16 samples
per shortest harmonic wavelength and interpolates the grid from it with
an 8-point periodic Lagrange stencil. It has no truncation window in
frequency. It agrees with the directly evaluated series to 1e-11 of the
peak, and with a +-4000-order sum of Voigt profiles to 1e-7 of the peak,
which is the size of that sum's missing tail (both tested against the
oracles in ``validation``).

Valid up to roughly 100 mbar: pressure sidebands from scattering on
density waves appear above that and are not modeled, nor are collisional
broadening or narrowing.

The spectral overlap, ``spectral_overlap(observed_fwhm, cavity_linewidth)``,
is that convolution on resonance, pi * hwhm times a Voigt profile at zero
detuning, in closed form through the scaled complementary error function
erfcx, which ``_erfcx`` evaluates with the standard library. The module
needs numpy alone; ``import cavray`` loads it only when one of its names
is used.

The trace writers round every value to 12 significant digits, written as
``"%.12g" % x`` in the CSV and as ``repr(float("%.12g" % x))`` in the
JSON, and ``_TokenFrame`` formats them in numpy, 8192 values at a time.
The mantissa rint(|x| 10**(11 - e)) for e = floor(log10|x|) holds %.12g's
digits wherever the product's rounding cannot carry it across a half; for
e = -11..11 the power of ten is exact and a half-integer product is
settled by its exact rounding error. The digits, the point, the trailing
zeros, the prefix and the exponent come from lookup tables, and repr's
digits are the same for every normal double (DBL_DIG = 15). Odd tokens go
to Python's own ``%`` and ``repr``: zero, |x| < 1e-289, near-halves
outside e = -11..11, and tokens whose log10 or rounding crosses a power of
ten. ``_TokenFrame.fill`` states the argument.
"""

from __future__ import annotations

import functools
import io
import math

import numpy as np

from .constants import AVOGADRO, BOLTZMANN
from .gases import GasSpecies
from .optics import CavityParams

# 90-degree scattering geometry: |k_out - k_in| = sqrt(2) * k
OBSERVED_WIDTH_FACTOR = math.sqrt(2.0)

_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

TRACE_SCHEMA = "cavray.spectrum-trace/1"

# Largest detuning grid and one-period comb table scan_spectrum builds:
# 1e7 points hold 160 MB of detunings and signals, 2**24 table entries
# 128 MB plus the half-size complex spectrum they come from.
MAX_SCAN_POINTS = 10_000_000
MAX_COMB_TABLE = 2 ** 24

# harmonics below this fraction of the mean level a_0 are dropped
_HARMONIC_FLOOR = 1e-17
# table samples per wavelength of the highest harmonic kept
_TABLE_OVERSAMPLING = 16
# the 8 table nodes around each point's cell, as offsets from the cell start
_STENCIL = np.arange(-3, 5)
_STENCIL_SCALE = np.array([
    1.0 / math.prod(float(j - m) for m in _STENCIL if m != j) for j in _STENCIL
])[:, None]
# rows per block of the interpolation and of the trace writers
_BLOCK = 8192
_JSON_SEPARATOR = b",\n    "
# velocity pairs per block of doppler_fwhm_monte_carlo: 1 MiB of draws
_SAMPLE_BLOCK = 65_536


def _check_thermal_inputs(wavelength: float, temperature: float,
                          molar_mass: float) -> None:
    """Raise ``ValueError`` naming the first argument that is not a
    positive finite number (NaN included)."""
    for name, value in (("wavelength", wavelength), ("temperature", temperature),
                        ("molar mass", molar_mass)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def doppler_fwhm(wavelength: float, temperature: float, molar_mass: float) -> float:
    """Absorption-spectroscopy Doppler FWHM of a thermal gas, in Hz.

    (nu0/c) * sqrt(8 kB T ln2 / m) with nu0 = c/lambda and m the mass of a
    single particle (molar_mass in kg/mol).
    """
    _check_thermal_inputs(wavelength, temperature, molar_mass)
    particle_mass = molar_mass / AVOGADRO
    return (1.0 / wavelength) * math.sqrt(
        8.0 * BOLTZMANN * temperature * math.log(2.0) / particle_mass
    )


def doppler_fwhm_monte_carlo(wavelength: float, temperature: float,
                             molar_mass: float, n_samples: int = 1_000_000,
                             seed: int = 0) -> float:
    """Observed Doppler FWHM from sampled Maxwell-Boltzmann velocities.

    Draws thermal velocity components along the pump and collection axes,
    forms the frequency shift (v_out - v_in)/lambda of each scatterer and
    converts the sample spread to a FWHM. Validates the sqrt(2) geometry
    factor instead of assuming it. Deterministic for a fixed seed.

    The pairs are drawn ``_SAMPLE_BLOCK`` (65,536) rows at a time from one
    generator, the same stream a single (n_samples, 2) draw gives: each
    block is drawn with ``standard_normal`` into one (65,536, 2) buffer
    that every block reuses and scaled by sigma_v in place, which is the
    product ``normal(0, sigma_v)`` forms, so the draws are bit-identical to
    it. The shifts and their squares go into two more reused buffers. Each
    block's count, mean and sum of squared deviations is merged into the
    running ones by Chan's pairwise update. The peak allocation is about
    2 MiB whatever ``n_samples`` is, and the width is within 3e-16
    relative of ``np.std`` over the whole array (2.8e-16 at worst over 180
    seeds and four sizes; equal on seeds 0, 42 and 12345 at 1e6 samples).
    Raises ``ValueError`` for fewer than 2 samples or an input that is not
    positive and finite.
    """
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    _check_thermal_inputs(wavelength, temperature, molar_mass)
    particle_mass = molar_mass / AVOGADRO
    sigma_v = math.sqrt(BOLTZMANN * temperature / particle_mass)
    rng = np.random.default_rng(seed)
    size = min(_SAMPLE_BLOCK, n_samples)
    velocities, shifts, squared = np.empty((size, 2)), np.empty(size), np.empty(size)
    count, mean, squares = 0, 0.0, 0.0
    for start in range(0, n_samples, _SAMPLE_BLOCK):
        rows = min(_SAMPLE_BLOCK, n_samples - start)
        drawn = rng.standard_normal(out=velocities[:rows])
        drawn *= sigma_v
        shift = np.subtract(drawn[:, 0], drawn[:, 1], out=shifts[:rows])
        shift /= wavelength
        block_mean = float(shift.mean())
        shift -= block_mean
        # numpy's pairwise sum: np.dot would go to BLAS, whose last ulp
        # depends on its thread count
        block_squares = float(np.multiply(shift, shift, out=squared[:rows]).sum())
        delta = block_mean - mean
        total = count + rows
        mean += delta * rows / total
        squares += block_squares + delta * delta * count * rows / total
        count = total
    return _FWHM_PER_SIGMA * math.sqrt(squares / count)


def observed_doppler_fwhm(gas: GasSpecies, wavelength: float) -> float:
    """Doppler FWHM of ``gas`` at its temperature as the 90-degree geometry
    observes it, sqrt(2) times the absorption width, in Hz."""
    return OBSERVED_WIDTH_FACTOR * doppler_fwhm(wavelength, gas.temperature, gas.molar_mass)


# continued-fraction levels of _erfcx; 55 already reach rounding at x = 2
_ERFCX_DEPTH = 60


def _erfcx(x: float) -> float:
    """The scaled complementary error function exp(x^2) erfc(x), for x >= 0.

    exp(x^2) * erfc(x) below x = 2; from x = 2 on, where exp(x^2) erfc(x)
    loses digits and then overflows, the continued fraction

        1 / (sqrt(pi) (x + (1/2) / (x + 1 / (x + (3/2) / (x + ...)))))

    evaluated backward from a fixed depth. Within 1.1e-15 relative of
    ``scipy.special.erfcx`` over [0, 30] and log-spaced [1e-8, 1e8].
    """
    if x < 2.0:
        return math.exp(x * x) * math.erfc(x)
    tail = x
    for k in range(_ERFCX_DEPTH, 0, -1):
        tail = x + 0.5 * k / tail
    return 1.0 / (math.sqrt(math.pi) * tail)


def spectral_overlap(observed_fwhm: float, cavity_linewidth: float) -> float:
    """Fraction of the Doppler-broadened spectrum accepted by the cavity.

    Integral of the area-normalized observed Doppler Gaussian of FWHM
    ``observed_fwhm`` (sigma) against the peak-normalized cavity Lorentzian
    of FWHM ``cavity_linewidth`` (half width hwhm), in closed form:

        sqrt(pi/2) * (hwhm/sigma) * erfcx(hwhm / (sigma * sqrt(2)))

    Tends to 1 for a broad cavity and to (pi/2)*linewidth*g(0) for a
    narrow one. ``validation`` checks it against Gauss-Legendre quadrature.
    """
    if cavity_linewidth <= 0.0:
        raise ValueError(f"cavity linewidth must be positive, got {cavity_linewidth}")
    if observed_fwhm <= 0.0:
        raise ValueError(f"observed Doppler FWHM must be positive, got {observed_fwhm}")
    sigma = observed_fwhm / _FWHM_PER_SIGMA
    hwhm = cavity_linewidth / 2.0
    return math.sqrt(math.pi / 2.0) * hwhm / sigma * _erfcx(hwhm / (sigma * math.sqrt(2.0)))


class SpectrumTrace:
    """Sampled (detuning, signal) data from a simulated cavity scan."""

    def __init__(self, detunings, signals, species: str = "",
                 cavity: CavityParams | None = None):
        self.detunings = np.asarray(detunings, dtype=float)  # Hz
        self.signals = np.asarray(signals, dtype=float)      # dimensionless
        self.species = species
        self.cavity = cavity
        if self.detunings.shape != self.signals.shape:
            raise ValueError("detunings and signals must have equal length")
        if not (np.all(np.isfinite(self.detunings)) and np.all(np.isfinite(self.signals))):
            raise ValueError("detunings and signals must be finite")
        if np.any(self.signals < 0.0):
            raise ValueError("signals must be nonnegative")

    # -- serialization (CSV columns and JSON schema are versioned/stable) --

    def to_csv(self, stream: io.TextIOBase) -> None:
        stream.write("detuning_Hz,signal_normalized\n")
        frame = _TokenFrame(min(len(self.detunings), _BLOCK), [b",", b"\n"], json=False)
        for start in range(0, len(self.detunings), _BLOCK):
            detunings = self.detunings[start:start + _BLOCK]
            frame.fill(0, detunings)
            frame.fill(1, self.signals[start:start + _BLOCK])
            stream.write(frame.text(len(detunings)))

    @classmethod
    def from_csv(cls, stream: io.TextIOBase, species: str = "",
                 cavity: CavityParams | None = None) -> "SpectrumTrace":
        header = stream.readline().strip()
        if header != "detuning_Hz,signal_normalized":
            raise ValueError(f"unexpected CSV header: {header!r}")
        det, sig = [], []
        for line in stream:
            if not line.strip():
                continue
            x, y = line.split(",")
            det.append(float(x))
            sig.append(float(y))
        return cls(np.array(det), np.array(sig), species, cavity)

    def to_json(self, stream: io.TextIOBase | None = None) -> str | None:
        """The trace as ``json.dumps(payload, indent=2)`` would write it,
        returned, or written to ``stream`` one block of values at a time."""
        pieces = self._json_pieces()
        return "".join(pieces) if stream is None else stream.writelines(pieces)

    def _json_pieces(self):
        """Pieces of ``to_json``'s document.

        The two arrays hold each value rounded to 12 significant digits,
        as ``repr(float("%.12g" % x))``. ``_json_array`` writes them
        block-wise through ``_TokenFrame`` rather than by the json module,
        whose indenting encoder runs in Python once per element.
        """
        import json

        yield (f'{{\n  "schema": {json.dumps(TRACE_SCHEMA)},\n'
               f'  "species": {json.dumps(self.species)},\n  "detuning_Hz": ')
        yield from _json_array(self.detunings)
        yield ',\n  "signal_normalized": '
        yield from _json_array(self.signals)
        if self.cavity is not None:
            cavity = {
                "finesse": self.cavity.finesse,
                "free_spectral_range_Hz": self.cavity.free_spectral_range,
                "linewidth_Hz": self.cavity.linewidth,
            }
            yield ',\n  "cavity": ' + json.dumps(cavity, indent=2).replace("\n", "\n  ")
        yield "\n}"

    @classmethod
    def from_json(cls, text: str) -> "SpectrumTrace":
        import json

        payload = json.loads(text)
        if payload.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"unexpected trace schema: {payload.get('schema')!r}")
        return cls(np.array(payload["detuning_Hz"]),
                   np.array(payload["signal_normalized"]),
                   payload.get("species", ""))


# 4-byte words of a value's token in its slot of a writer frame; the words
# of its separator follow
_TOKEN_WORDS = 8


class _TokenFrame:
    """A row-major uint32 frame of token slots, ``len(separators)`` to a
    row, and the scratch arrays that fill it, reused for every block of one
    writer call. A slot is ``_TOKEN_WORDS`` words for a value's token, NUL
    padded, then the words of its column's separator; ``text`` drops the
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
        self.reals = np.empty((3, rows))
        self.indices = np.empty((7, rows), np.intp)
        self.flags = np.empty((2, rows), bool)
        self.words = np.empty((2, rows), np.uint64)
        self.word = np.empty(rows, np.uint32)

    def text(self, rows: int) -> str:
        """The first ``rows`` rows of the frame, without their padding."""
        return self.frame[:rows].tobytes().translate(None, b"\0").decode("ascii")

    def fill(self, column: int, values: np.ndarray) -> int:
        """Write the token of each of ``values`` into ``column``'s slots of
        the first len(values) rows: ``"%.12g" % x``, or ``repr(float("%.12g"
        % x))`` in a JSON frame. Returns how many were odd.

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
        zeros of a repr integer >= 1e12. ``values`` must be finite.
        """
        n = len(values)
        scale, last, classes, digits, prefix, offsets, exponent, integral = self.tables
        y, t, m = self.reals[:, :n]
        e, code, index, *groups = self.indices[:, :n]
        odd, flag = self.flags[:, :n]
        wide, extra = self.words[:, :n]
        word = self.word[:n]
        slots = self.frame[:n, column, :_TOKEN_WORDS]
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


def _json_array(values: np.ndarray):
    """Pieces, block by block, of a JSON array nested one level deep,
    indent 2, each value x written as ``repr(float("%.12g" % x))``:
    rounded to 12 significant digits, then as Python's float repr."""
    if not len(values):
        yield "[]"
        return
    yield "[\n    "
    frame = _TokenFrame(min(len(values), _BLOCK), [_JSON_SEPARATOR], json=True)
    for start in range(0, len(values), _BLOCK):
        block = values[start:start + _BLOCK]
        frame.fill(0, block)
        text = frame.text(len(block))
        # the last value's separator gives way to the closing bracket
        yield (text if start + _BLOCK < len(values)
               else text[:-len(_JSON_SEPARATOR)] + "\n  ]")


def _voigt_fwhm(gaussian_fwhm: float, lorentzian_fwhm: float) -> float:
    # Olivero-Longbothum approximation, accurate to 0.02%
    return (0.5346 * lorentzian_fwhm
            + math.sqrt(0.2166 * lorentzian_fwhm ** 2 + gaussian_fwhm ** 2))


def _comb_coefficients(lines: list[tuple[float, float]], fsr: float,
                       hwhm: float) -> np.ndarray:
    """Cosine coefficients a_0, a_1, ..., a_K of the scan signal.

    ``lines`` holds (strength, sigma) per species. K is the last harmonic
    at which 2 c_k of the narrowest line reaches the floor relative to
    a_0; it solves the quadratic 2 pi^2 (sigma/F)^2 k^2 + 2 pi (hwhm/F) k
    = log(2 / floor).
    """
    sigma = min(s for _, s in lines)
    quadratic = 2.0 * (math.pi * sigma / fsr) ** 2
    linear = 2.0 * math.pi * hwhm / fsr
    log_floor = math.log(2.0 / _HARMONIC_FLOOR)
    last = math.ceil(2.0 * log_floor / (
        linear + math.sqrt(linear ** 2 + 4.0 * quadratic * log_floor)))
    if _TABLE_OVERSAMPLING * (last + 1) > MAX_COMB_TABLE:
        raise ValueError(
            f"lines too narrow for the comb table: {last} harmonics of a "
            f"{fsr:.6g} Hz FSR exceed its {MAX_COMB_TABLE}-entry limit; "
            "lower the cavity finesse or raise gas.temperature"
        )
    k = np.arange(last + 1)
    coefficients = np.zeros(len(k))
    for strength, line_sigma in lines:
        coefficients += strength * np.exp(
            -2.0 * (math.pi * line_sigma * k / fsr) ** 2 - linear * k)
    coefficients *= math.pi * hwhm / fsr
    coefficients[1:] *= 2.0
    return coefficients


def _comb_table(coefficients: np.ndarray) -> np.ndarray:
    """One period of the series at M equally spaced phases, M a power of two.

    M >= 16 (K + 1), so the highest harmonic has 16 samples per period.
    """
    size = 1 << (_TABLE_OVERSAMPLING * len(coefficients) - 1).bit_length()
    spectrum = np.zeros(size // 2 + 1)
    spectrum[:len(coefficients)] = coefficients * (size / 2.0)
    spectrum[0] *= 2.0
    return np.fft.irfft(spectrum, n=size)


def _interpolate_periodic(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Periodic 8-point Lagrange interpolation of ``table`` at ``cells``.

    ``table[i]`` is the value at cell coordinate i, and ``cells`` lie in
    [0, len(table)]. Each point uses the nodes floor(x)-3 .. floor(x)+4.

    The weight of node j at t = x - floor(x) is prod_{m != j} (t - m) / (j - m),
    formed as (left_j * right_j) * scale_j from the running products
    left_j = (t - m_0) ... (t - m_{j-1}) and right_j = (t - m_7) ... (t - m_{j+1}),
    each multiplied one node at a time, and the 8 terms weight * node are
    summed by numpy's axis-0 sum, which adds them in node order except in a
    one-point block, where it adds them pairwise. Each multiply takes whole
    rows of a block, into buffers reused across blocks; ``np.cumprod`` along
    the stencil axis would run a loop of 7 per point.
    """
    size = len(table)
    out = np.empty_like(cells)
    rows = min(len(cells), _BLOCK)
    distances = np.empty((len(_STENCIL), rows))
    weights = np.empty((len(_STENCIL), rows))
    indices = np.empty((len(_STENCIL), rows), dtype=np.intp)
    for start in range(0, len(cells), _BLOCK):
        x = cells[start:start + _BLOCK]
        n = len(x)
        distance, weight, index = distances[:, :n], weights[:, :n], indices[:, :n]
        floor = np.floor(x)
        np.subtract(x - floor, _STENCIL[:, None], out=distance)
        np.copyto(weight[1], distance[0])
        for j in range(2, len(_STENCIL)):
            np.multiply(weight[j - 1], distance[j - 1], out=weight[j])
        right = distance[-1]
        for j in range(len(_STENCIL) - 2, 0, -1):
            weight[j] *= right
            right *= distance[j]
        np.copyto(weight[0], right)
        weight *= _STENCIL_SCALE
        # node j of the cell at floor(x) is table[(floor(x) + m_j) mod size]
        np.add(floor.astype(np.intp) % size, _STENCIL[:, None], out=index)
        nodes = np.take(table, index, mode="wrap", out=distance)
        weight *= nodes
        weight.sum(axis=0, out=out[start:start + n])
    return out


def scan_spectrum(cavity: CavityParams, species_weights: list[tuple[GasSpecies, float]],
                  scan_range: float, resolution: float, wavelength: float,
                  normalize: bool = False) -> SpectrumTrace:
    """Simulate a cavity scan over detunings [0, scan_range].

    Each species contributes FSR-periodic peaks shaped by the convolution
    of its observed Doppler Gaussian with the cavity Lorentzian, weighted
    by polarizability^2 times its relative density. Heights are left in
    those native units unless ``normalize`` scales the peak to 1. The sum
    over all comb orders is evaluated as its Fourier series (see the
    module docstring). Raises ``ValueError`` for a grid of more than
    ``MAX_SCAN_POINTS`` points or lines too narrow for a comb table of
    ``MAX_COMB_TABLE`` entries.
    """
    if not species_weights:
        raise ValueError("at least one species is required")
    if resolution <= 0.0 or scan_range <= 0.0:
        raise ValueError("scan range and resolution must be positive")
    if scan_range / resolution >= MAX_SCAN_POINTS:
        raise ValueError(
            f"scan.range {scan_range:.6g} Hz at scan.resolution {resolution:.6g} Hz "
            f"asks for more than {MAX_SCAN_POINTS} points"
        )
    widths = [observed_doppler_fwhm(gas, wavelength) for gas, _ in species_weights]
    narrowest = min(_voigt_fwhm(width, cavity.linewidth) for width in widths)
    if resolution >= narrowest / 5.0:
        raise ValueError(
            f"scan.resolution must be below feature/5, got {resolution:.6g} Hz: "
            f"too coarse for the narrowest feature, {narrowest:.6g} Hz"
        )

    lines = []
    for (gas, weight), width in zip(species_weights, widths):
        if weight < 0.0:
            raise ValueError(f"species weight must be nonnegative, got {weight}")
        lines.append((weight * gas.polarizability ** 2, width / _FWHM_PER_SIGMA))
    fsr = cavity.free_spectral_range
    table = _comb_table(_comb_coefficients(lines, fsr, cavity.linewidth / 2.0))
    detunings = np.arange(0.0, scan_range + resolution / 2.0, resolution)
    signals = _interpolate_periodic(table, np.mod(detunings, fsr) * (len(table) / fsr))
    # the comb is positive; interpolation ripple below zero is pure error
    np.maximum(signals, 0.0, out=signals)
    if normalize:
        # in place: the signals array is this call's own
        peak = float(signals.max(initial=0.0))
        if peak > 0.0:
            signals /= peak
    label = "+".join(gas.name for gas, _ in species_weights)
    return SpectrumTrace(detunings, signals, label, cavity)


def polarization_signal(angle, extinction: float = 0.0):
    """Dipole polarization response (1 - eps) * sin^2(angle) + eps.

    Zero (up to the extinction floor of imperfect linear polarization) for
    the pump polarized along the cavity axis, maximal perpendicular to it.
    """
    if not 0.0 <= extinction < 1.0:
        raise ValueError(f"extinction must be in [0, 1), got {extinction}")
    return (1.0 - extinction) * np.sin(angle) ** 2 + extinction


def species_ratio(species: list[GasSpecies], cavity: CavityParams,
                  wavelength: float) -> list[float]:
    """Relative scattered signals, first species as the unit reference.

    ratio_i = (alpha_i / alpha_ref)^2 * overlap_i / overlap_ref, combining
    the polarizability-squared cross-section scaling with each species'
    Doppler/cavity spectral overlap at its own temperature.
    """
    if not species:
        raise ValueError("species list must be nonempty")
    reference = species[0]
    overlaps = [spectral_overlap(observed_doppler_fwhm(gas, wavelength), cavity.linewidth)
                for gas in species]
    return [(gas.polarizability / reference.polarizability) ** 2 * value / overlaps[0]
            for gas, value in zip(species, overlaps)]
