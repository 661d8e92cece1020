"""Solution profiles: parallel (eta, f, f', f'') columns plus their CSV form.

The CSV format is part of the tool's contract: header ``eta,f,fp,fpp``, one
row per abscissa, every number printed with 17 significant digits so a
re-parsed file reproduces the in-memory profile exactly.  Optional
``# key = value`` comment lines sit above the header.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["SolutionProfile", "format_float", "atomic_write_text", "write_profile_csv"]

CSV_HEADER = "eta,f,fp,fpp"
FLOAT_FORMAT = "%.17g"
CSV_ROW = ",".join([FLOAT_FORMAT] * 4)  # format_float on each column, one % per row
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

    def rows(self) -> Iterator[tuple[float, float, float, float]]:
        return zip(self.eta.tolist(), self.f.tolist(), self.fp.tolist(), self.fpp.tolist())

    def index_of(self, eta: float) -> int:
        """Index of the row whose abscissa matches eta within JOIN_TOL; raise if absent."""
        hits = np.nonzero(np.abs(self.eta - eta) <= JOIN_TOL)[0]
        if hits.size == 0:
            raise KeyError(f"no profile row at eta = {eta}")
        return int(hits[0])


def write_profile_csv(profile: SolutionProfile, destination, comments: dict | None = None) -> None:
    """Write the profile as CSV to a path or text file object.

    Path writes are atomic (temp file in the same directory, then rename).
    Optional comments become ``# key = value`` lines above the header.
    """
    lines = []
    for key, value in (comments or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(CSV_HEADER)
    lines.extend(map(CSV_ROW.__mod__, profile.rows()))
    text = "\n".join(lines) + "\n"
    if isinstance(destination, (str, Path)):
        atomic_write_text(destination, text)
    else:
        destination.write(text)


def atomic_write_text(path, text: str) -> None:
    """Write text to path through a ``<name>.tmp`` sibling and an atomic rename; failure unlinks it."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
