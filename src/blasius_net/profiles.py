"""Solution profiles: parallel (eta, f, f', f'') columns plus their CSV form.

The CSV format is part of the tool's contract: header ``eta,f,fp,fpp``, one
row per abscissa, every number printed with 17 significant digits so a
re-parsed file reproduces the in-memory profile exactly.  Optional
``# key = value`` comment lines sit above the header.  ``open_output`` is the
one writer behind every file the package writes, CSV or model.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

__all__ = ["SolutionProfile", "format_float", "open_output", "write_profile_csv"]

CSV_HEADER = "eta,f,fp,fpp"
FLOAT_FORMAT = "%.17g"
CSV_ROW = ",".join([FLOAT_FORMAT] * 4) + "\n"  # format_float on each column, one % per row
# rows formatted per write, and evaluated per jet call by report.evaluate_profile,
# so memory stays flat in the row count
CSV_BLOCK = 1024
JOIN_TOL = 1e-12  # largest |eta difference| at which index_of matches a row


def format_float(value: float) -> str:
    """17 significant digits: enough to round-trip any IEEE double exactly."""
    return FLOAT_FORMAT % float(value)


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

    Blocks are written in order, CSV_BLOCK rows per write, so a stream of
    blocks made one at a time is never held whole; pass ``(profile,)`` for
    a whole profile.  Nothing is written before the first block is at hand.
    Optional comments become ``# key = value`` lines above the header.
    """
    blocks = iter(blocks)
    first = next(blocks)
    with open_output(destination) as out:
        out.write("".join(f"# {key} = {value}\n" for key, value in (comments or {}).items())
                  + CSV_HEADER + "\n")
        for block in itertools.chain((first,), blocks):
            columns = (block.eta, block.f, block.fp, block.fpp)
            for start in range(0, len(block), CSV_BLOCK):
                rows = [column[start:start + CSV_BLOCK].tolist() for column in columns]
                out.write("".join(map(CSV_ROW.__mod__, zip(*rows))))
