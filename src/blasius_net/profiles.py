"""Solution profiles: parallel (eta, f, f', f'') columns plus their CSV form.

The CSV format is part of the tool's contract: header ``eta,f,fp,fpp``, one
row per abscissa, every number printed as ``%.17g`` would print it, so a
re-parsed file reproduces the in-memory profile exactly.  Optional
``# key = value`` comment lines sit above the header.  ``open_output`` is the
one writer behind every file the package writes, CSV or model.

``write_profile_csv`` prints those bytes without one ``%`` per value.  For
0 < |x| < 1e17 with decimal exponent q, the 17 digits are D = |x| * 10**k,
k = 16 - q, rounded to an integer, exact ties to even: ``%`` is Gay's
correctly rounded dtoa, which rounds ties to even.  |x| * 2**k is exact, and
for k <= 22 so is 5**k, so Dekker's split gives their product exactly as
p + e; p >= 2**53 is an even integer, so D = p + rint(e), and rint's ties go
to even as ``%``'s do.  For k > 22, 5**k is a double-double and e is off by
far less than 1e-9, so D is exact unless e lies within 1e-9 of a
half-integer.  Those values, zeros and |x| >= 1e17 go to ``%`` itself.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

__all__ = ["SolutionProfile", "format_float", "open_output", "write_profile_csv"]

CSV_HEADER = "eta,f,fp,fpp"
FLOAT_FORMAT = "%.17g"
# rows per block of report.evaluate_profile's jet and of oracles.rk4_blocks,
# so memory stays flat in the row count
CSV_BLOCK = 1024
# rows formatted per write; the formatter holds ~0.8 KB of scratch a row
_FORMAT_ROWS = 512
JOIN_TOL = 1e-12  # largest |eta difference| at which index_of matches a row

_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: halves whose products are exact
_TIE = 1e-9  # past k = 22, closer than this to a half-integer goes to %
# A value's text is picked by a mask from a row of 15 four-byte words,
#   " - 0" "000d" d1..d16 "   ." "000d" d1..d16 "  e-" "0NNN" ",   "
# (a word index past 9999 names a word of _WORDS): the sign; the "0" before
# the point of 1e-4 <= |x| < 1; d0..d16 once for the digits before the point;
# the point; up to three zeros and d0..d16 again for the digits after it;
# the exponent; the separator, "\n" after a row's last value.
_WORDS = b" - 0   .  e-,   \n   "


def format_float(value: float) -> str:
    """17 significant digits: enough to round-trip any IEEE double exactly."""
    return FLOAT_FORMAT % float(value)


@functools.cache
def _powers_of_five() -> np.ndarray:
    """Rows hi, lo, and hi's Veltkamp halves, of 5**k = hi + lo for k = 0..341 (q >= -325)."""
    powers = [5**k for k in range(342)]
    high = np.array([float(p) for p in powers])
    low = np.array([float(p - int(h)) for p, h in zip(powers, high)])  # 0.0 for k <= 22
    split = high * _SPLIT
    top = split - (split - high)
    return np.stack([high, low, top, high - top])


def _scaled(mag, k):
    """(D, miss, undecided): D = mag * 10**k rounded half to even, as int64.

    miss is -1 where mag * 10**k < 1e16 and +1 where it is at least 1e17.
    """
    a = np.ldexp(mag, k)
    high, low, top, bottom = np.take(_powers_of_five(), k, axis=1)
    p = a * high
    split = a * _SPLIT
    a_top = split - (split - a)
    a_bottom = a - a_top
    e = a_top * top - p  # Dekker: p + e == a * high exactly
    e += a_top * bottom
    e += a_bottom * top
    e += a_bottom * bottom
    e += a * low
    nearest = np.rint(e)
    undecided = (np.abs(e - nearest) > 0.5 - _TIE) & (k > 22)
    miss = (e >= 1e17 - p).astype(np.int32) - (e < 1e16 - p)
    return p.astype(np.int64) + nearest.astype(np.int64), miss, undecided


def _decimal(values):
    """(D, q, by_percent): |x| rounds to D * 10**(q - 16), 10**16 <= D < 10**17."""
    mag = np.abs(values)
    by_percent = (mag == 0.0) | (mag >= 1e17)
    mag[by_percent] = 1.0  # any value in range; % writes these
    q = np.minimum(np.floor(np.log10(mag)), 16).astype(np.int32)
    digits, miss, undecided = _scaled(mag, 16 - q)
    moved = np.flatnonzero(miss)  # log10 put mag in the neighbouring decade
    if moved.size:
        q[moved] += miss[moved]
        digits[moved], miss, undecided[moved] = _scaled(mag[moved], 16 - q[moved])
        by_percent[moved] |= miss != 0
    carry = digits == 10**17  # rounded up into the next decade, never past q = 16:
    digits[carry] = 10**16     # no double lies in [1e17 - 0.5, 1e17)
    q += carry
    return digits, q, by_percent | undecided


@functools.cache
def _text_tables():
    """The words, each group's last nonzero digit, each q's first mask row and the masks."""
    g = np.arange(10000)
    group_digits = g[:, None] // np.array([1000, 100, 10, 1]) % 10
    words = np.append(np.uint8(48) + group_digits.ravel().astype(np.uint8),
                      np.frombuffer(_WORDS, np.uint8)).view(np.uint32)
    # last_digit[j, g]: D's last nonzero digit, d0 counting as 0, when group j is g
    within = 3 - np.argmax(group_digits[:, ::-1] > 0, axis=1)
    last_digit = np.where(g > 0, within + np.arange(1, 17, 4)[:, None], 0).astype(np.uint8)
    # classes 0..20 print q = -4..16 positionally, 21 and 22 as "e-NN" and "e-NNN";
    # masks holds 17 rows per class, one per last nonzero digit
    qs = np.arange(-325, 17)
    class_row = np.where(qs < -4, 21 + (qs < -99), qs + 4) * 17
    c = np.arange(23)[:, None, None]
    q = np.where(c < 21, c - 4, -5)
    point = np.where(c < 21, np.maximum(q, -1), 0)  # the digit before the point; -1: "0."
    last = np.arange(17)[:, None]
    b = np.arange(60)  # byte 1, the sign, is set per value
    masks = (((b == 3) & (point == -1))                                 # "0" of "0."
             | ((b >= 7) & (b - 7 <= point))                            # d0..d[point]
             | ((b == 27) & (last > point))                             # the point
             | ((b >= 28) & (b < 28 + np.where(point == -1, -1 - q, 0)))  # zeros after "0."
             | ((b - 31 > point) & (b - 31 <= last))                    # d[point+1]..d[last]
             | ((c > 20) & np.isin(b, (50, 51, 54, 55))) | ((c == 22) & (b == 53))  # e-NNN
             | (b == 56))                                               # separator
    return words, last_digit, class_row, masks.reshape(-1, 60)


def _layout(digits, q, negative):
    """(text, mask): each value's row of 60 bytes and the mask of those it prints."""
    words, last_digit, class_row, masks = _text_tables()
    high, low = np.divmod(digits, 10**8)
    lead, high = np.divmod(high, 10**8)
    groups = (lead, *np.divmod(high, 10**4), *np.divmod(low, 10**4))
    text = np.empty((digits.size, 15), np.uint32)
    text[:, [0, 6, 12, 14]] = words[10000:10004]
    text[3::4, 14] = words[10004]
    for j, group in enumerate(groups):
        text[:, 1 + j] = text[:, 7 + j] = np.take(words, group)
    text[:, 13] = np.take(words, np.abs(q))
    last = np.maximum.reduce([np.take(*pair) for pair in zip(last_digit, groups[1:])])
    mask = np.take(masks, np.take(class_row, q + 325) + last, axis=0)
    mask[:, 1] = negative
    return text.view(np.uint8), mask


def _csv_text(rows: np.ndarray) -> str:
    """CSV lines of an (m, 4) float64 array, as FLOAT_FORMAT prints each value."""
    values = rows.ravel()
    digits, q, by_percent = _decimal(values)
    text, mask = _layout(digits, q, np.signbit(values))
    for i in np.flatnonzero(by_percent):
        exact = np.frombuffer(format_float(values[i]).encode(), np.uint8)
        text[i, :exact.size] = exact
        mask[i, :56] = np.arange(56) < exact.size
    return str(text[mask], "ascii")


def _column(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SolutionProfile:
    """Columns of a solved profile; eta strictly increasing.

    Physical boundary-layer profiles additionally have non-decreasing f and
    non-negative fp; that is a property of the solutions, checked in tests,
    not enforced here (trained approximations may violate it slightly).
    """

    eta: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray

    def __post_init__(self):
        eta = _column(self.eta, "eta")
        cols = {name: _column(getattr(self, name), name) for name in ("f", "fp", "fpp")}
        if not all(col.shape == eta.shape for col in cols.values()):
            raise ValueError("all profile columns must share eta's length")
        if eta.size < 1:
            raise ValueError("profile must contain at least one row")
        if np.any(eta[1:] <= eta[:-1]):  # np.diff would overflow on -max, max
            raise ValueError("eta must be strictly increasing")
        object.__setattr__(self, "eta", eta)
        for name, col in cols.items():
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return int(self.eta.size)

    def index_of(self, eta: float) -> int:
        """Index of the row whose abscissa matches eta within JOIN_TOL; raise if absent."""
        hits = np.nonzero(np.abs(self.eta - eta) <= JOIN_TOL)[0]
        if hits.size == 0:
            raise KeyError(f"no profile row at eta = {eta}")
        return int(hits[0])


@contextlib.contextmanager
def open_output(destination) -> Iterator[TextIO]:
    """A stream as is; a path as a ``.tmp`` sibling, renamed over it on clean exit, else unlinked."""
    if not isinstance(destination, (str, Path)):
        yield destination
        return
    path = Path(destination)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_profile_csv(blocks: Iterable[SolutionProfile], destination,
                      comments: dict | None = None) -> None:
    """Write consecutive blocks of a profile (at least one) as CSV through open_output.

    Blocks are written in order, _FORMAT_ROWS rows per write, so a stream of
    blocks made one at a time is never held whole; pass ``(profile,)`` for
    a whole profile.  Nothing is written before the first block is at hand.
    Optional comments become ``# key = value`` lines above the header.
    Each value has format_float's bytes: its 17 digits come exactly from
    |x| * 10**k, k <= 22, as p + e by Dekker's split, with rint's ties to even
    as ``%``'s; past k = 22 only near-ties are unsure, and they, zeros and
    |x| >= 1e17 are formatted by ``%`` itself (see the module docstring).
    """
    blocks = iter(blocks)
    first = next(blocks)
    with open_output(destination) as out:
        out.write("".join(f"# {key} = {value}\n" for key, value in (comments or {}).items())
                  + CSV_HEADER + "\n")
        for block in itertools.chain((first,), blocks):
            columns = (block.eta, block.f, block.fp, block.fpp)
            for start in range(0, len(block), _FORMAT_ROWS):
                rows = np.stack([column[start:start + _FORMAT_ROWS] for column in columns], 1)
                out.write(_csv_text(rows))
