"""Bundled comparison tables: eta-indexed reference solutions with printed errors.

Each table pairs the solution column it was published with ("own_values")
against one or two reference columns from independent studies, along with the
relative errors exactly as printed there.  Printed errors keep their original
string form so "one unit in the last printed digit" stays well defined.

Fixtures are JSON files shipped with the package; the BLASIUS_NET_FIXTURES
environment variable points the loader at a different directory, whose files
are outside input: load_table checks their layout and raises
TableFormatError, naming the file and the row, for any fixture that breaks it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PrintedError",
    "TableFormatError",
    "ReferenceColumn",
    "ReferenceTable",
    "parse_printed_error",
    "fixtures_dir",
    "QUANTITY",
    "TABLE_IDS",
    "TABLE_MAX_BYTES",
    "load_table",
]

FIXTURES_ENV_VAR = "BLASIUS_NET_FIXTURES"

# the profile column each table tabulates
QUANTITY = {"T1": "f", "T2": "f", "T3": "fp", "T4": "fpp",
            "T5": "f", "T6": "f", "T7": "fp", "T8": "fpp"}
TABLE_IDS = tuple(QUANTITY)
# the largest bundled fixture takes ~1.9 KB; load_table reads no more than this
TABLE_MAX_BYTES = 64 * 1024


@dataclass(frozen=True)
class PrintedError:
    """A published relative error in its printed form.

    unit is one unit in the last printed digit of the mantissa, e.g.
    "4.70e-3" -> value 4.70e-3, unit 0.01e-3.
    """

    text: str
    value: float
    unit: float


class TableFormatError(ValueError):
    """A table fixture that does not hold the layout load_table documents."""


def parse_printed_error(text: str) -> PrintedError:
    mantissa, _, exponent = text.partition("e")
    if not exponent:
        raise ValueError(f"printed error '{text}' lacks an exponent")
    decimals = len(mantissa.partition(".")[2])
    try:
        value = float(text)
        unit = 10.0 ** (int(exponent) - decimals)
    except (ValueError, OverflowError):
        value = unit = math.nan
    if not (math.isfinite(value) and unit > 0.0):
        raise ValueError(f"printed error '{text}' is not a finite number in e-notation")
    return PrintedError(text=text, value=value, unit=unit)


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

    def column(self, key: str | int) -> ReferenceColumn:
        """Select a reference column by label or position (negatives allowed)."""
        if isinstance(key, int):
            return self.references[key]
        for col in self.references:
            if col.label == key:
                return col
        labels = ", ".join(col.label for col in self.references)
        raise ValueError(f"table {self.table_id} has no column '{key}' (have: {labels})")


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


def _number(value, where: str) -> float:
    # load_table parses JSON integers as floats, so true, null or a string is no float
    if not (isinstance(value, float) and math.isfinite(value)):
        raise TableFormatError(f"{where}: {value!r} is not a finite number")
    return value


def _printed(text, where: str) -> PrintedError | None:
    if text is None:
        return None
    if not isinstance(text, str):
        raise TableFormatError(f"{where}: printed error {text!r} is not a string")
    try:
        return parse_printed_error(text)
    except ValueError as exc:
        raise TableFormatError(f"{where}: {exc}") from None


def _frozen(values) -> np.ndarray:
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


def load_table(table_id: str | int) -> ReferenceTable:
    """Load one bundled table ("T1".."T8", or the bare number).

    The fixture is a JSON object with keys table_id (the id asked for),
    quantity (QUANTITY of that id), references (the column labels) and rows,
    each row [eta, own, [refs], [errors]] with one reference value and one
    printed error (a string, or null) per label, etas strictly increasing.
    A fixture that breaks this, or is longer than TABLE_MAX_BYTES, raises
    TableFormatError.
    """
    tid = _normalize_table_id(table_id)
    if tid not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    path = fixtures_dir() / f"table{tid[1:]}.json"
    if not path.exists():
        raise FileNotFoundError(f"fixture file {path} not found")
    with open(path, "rb") as stream:
        raw = stream.read(TABLE_MAX_BYTES + 1)
    if len(raw) > TABLE_MAX_BYTES:
        raise TableFormatError(f"{path}: longer than TABLE_MAX_BYTES = {TABLE_MAX_BYTES} bytes")
    try:
        # ValueError covers bytes that are not UTF-8 too; an integer parsed as a float
        # reads inf where float() of it would overflow, and meets no digit limit
        data = json.loads(raw.decode("utf-8"), parse_int=float)
    except ValueError as exc:
        raise TableFormatError(f"{path}: not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise TableFormatError(f"{path}: not a JSON object")
    for key in ("table_id", "quantity", "references", "rows"):
        if key not in data:
            raise TableFormatError(f"{path}: missing key {key!r}")
    if data["table_id"] != tid:
        raise TableFormatError(f"{path}: table_id {data['table_id']!r}, expected {tid!r}")
    if data["quantity"] != QUANTITY[tid]:
        raise TableFormatError(f"{path}: quantity {data['quantity']!r}, expected {QUANTITY[tid]!r}")
    labels = data["references"]
    if not (isinstance(labels, list) and labels and all(isinstance(x, str) for x in labels)):
        raise TableFormatError(f"{path}: references must be a non-empty list of labels")
    rows = data["rows"]
    if not (isinstance(rows, list) and rows):
        raise TableFormatError(f"{path}: rows must be a non-empty list")
    etas, own, values, printed = [], [], [], []
    for number, row in enumerate(rows):
        where = f"{path}: rows[{number}]"
        if not (isinstance(row, list) and len(row) == 4
                and all(isinstance(part, list) and len(part) == len(labels) for part in row[2:])):
            raise TableFormatError(f"{where}: expected [eta, own, [refs], [errors]] with "
                                   f"{len(labels)} entries per list, got {row!r}")
        eta = _number(row[0], where)
        if etas and eta <= etas[-1]:
            raise TableFormatError(f"{where}: eta {eta} does not exceed the previous {etas[-1]}")
        etas.append(eta)
        own.append(_number(row[1], where))
        values.append([_number(value, where) for value in row[2]])
        printed.append([_printed(text, where) for text in row[3]])
    refs = tuple(
        ReferenceColumn(label=label, values=_frozen([row[j] for row in values]),
                        printed_errors=tuple(row[j] for row in printed))
        for j, label in enumerate(labels)
    )
    return ReferenceTable(
        table_id=data["table_id"],
        quantity=data["quantity"],
        etas=_frozen(etas),
        own_values=_frozen(own),
        references=refs,
    )
