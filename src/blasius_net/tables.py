"""Bundled comparison tables: eta-indexed reference solutions with printed errors.

Each table pairs the solution column it was published with ("own_values")
against one or two reference columns from independent studies, along with the
relative errors exactly as printed there.  Printed errors keep their original
string form so "one unit in the last printed digit" stays well defined.

Fixtures are JSON files shipped with the package; the BLASIUS_NET_FIXTURES
environment variable points the loader at a different directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PrintedError",
    "ReferenceColumn",
    "ReferenceTable",
    "parse_printed_error",
    "fixtures_dir",
    "TABLE_IDS",
    "load_table",
]

FIXTURES_ENV_VAR = "BLASIUS_NET_FIXTURES"

QUANTITIES = ("f", "fp", "fpp")
TABLE_IDS = tuple(f"T{i}" for i in range(1, 9))


@dataclass(frozen=True)
class PrintedError:
    """A published relative error in its printed form.

    unit is one unit in the last printed digit of the mantissa, e.g.
    "4.70e-3" -> value 4.70e-3, unit 0.01e-3.
    """

    text: str
    value: float
    unit: float


def parse_printed_error(text: str) -> PrintedError:
    mantissa, _, exponent = text.partition("e")
    if not exponent:
        raise ValueError(f"printed error '{text}' lacks an exponent")
    decimals = len(mantissa.partition(".")[2])
    unit = 10.0 ** (int(exponent) - decimals)
    return PrintedError(text=text, value=float(text), unit=unit)


@dataclass(frozen=True)
class ReferenceColumn:
    """One reference study's values, plus the errors printed against it."""

    label: str
    values: np.ndarray
    printed_errors: tuple[PrintedError | None, ...]


@dataclass(frozen=True)
class ReferenceTable:
    table_id: str
    quantity: str
    etas: np.ndarray
    own_values: np.ndarray
    references: tuple[ReferenceColumn, ...]

    def __len__(self) -> int:
        return int(self.etas.size)

    def column(self, key: str | int) -> ReferenceColumn:
        """Select a reference column by label or position (negatives allowed)."""
        if isinstance(key, int):
            return self.references[key]
        for col in self.references:
            if col.label == key:
                return col
        labels = ", ".join(col.label for col in self.references)
        raise KeyError(f"table {self.table_id} has no column '{key}' (have: {labels})")

    def restrict(self, eta_max: float) -> "ReferenceTable":
        """Copy of the table keeping only rows with eta <= eta_max."""
        keep = self.etas <= eta_max
        if np.all(keep):
            return self
        refs = tuple(
            ReferenceColumn(
                label=col.label,
                values=col.values[keep],
                printed_errors=tuple(e for e, k in zip(col.printed_errors, keep) if k),
            )
            for col in self.references
        )
        return ReferenceTable(
            table_id=self.table_id,
            quantity=self.quantity,
            etas=self.etas[keep],
            own_values=self.own_values[keep],
            references=refs,
        )


def fixtures_dir() -> Path:
    override = os.environ.get(FIXTURES_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).parent / "fixtures"


def _normalize_table_id(table_id: str | int) -> str:
    if isinstance(table_id, int):
        return f"T{table_id}"
    tid = table_id.upper()
    return tid if tid.startswith("T") else f"T{tid}"


def load_table(table_id: str | int) -> ReferenceTable:
    """Load one bundled table ("T1".."T8", or the bare number)."""
    tid = _normalize_table_id(table_id)
    if tid not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    path = fixtures_dir() / f"table{tid[1:]}.json"
    if not path.exists():
        raise FileNotFoundError(f"fixture file {path} not found")
    data = json.loads(path.read_text())
    if data["quantity"] not in QUANTITIES:
        raise ValueError(f"{path}: bad quantity {data['quantity']!r}")
    labels = data["references"]
    rows = data["rows"]
    etas = np.array([row[0] for row in rows], dtype=np.float64)
    own = np.array([row[1] for row in rows], dtype=np.float64)
    refs = []
    for j, label in enumerate(labels):
        values = np.array([row[2][j] for row in rows], dtype=np.float64)
        printed = tuple(
            parse_printed_error(row[3][j]) if row[3][j] is not None else None for row in rows
        )
        values.flags.writeable = False
        refs.append(ReferenceColumn(label=label, values=values, printed_errors=printed))
    etas.flags.writeable = False
    own.flags.writeable = False
    return ReferenceTable(
        table_id=data["table_id"],
        quantity=data["quantity"],
        etas=etas,
        own_values=own,
        references=tuple(refs),
    )
