"""Unit tests for the bundled reference tables and printed-error parsing."""

import json
import re
import shutil

import numpy as np
import pytest

from blasius_net.report import relative_error
from blasius_net.tables import (
    FIXTURES_ENV_VAR,
    TABLE_IDS,
    TableFormatError,
    fixtures_dir,
    load_table,
    parse_printed_error,
)

EXPECTED_ROWS = {"T1": 12, "T2": 16, "T3": 16, "T4": 16, "T5": 28, "T6": 19, "T7": 19, "T8": 19}
EXPECTED_QUANTITY = {"T1": "f", "T2": "f", "T3": "fp", "T4": "fpp",
                     "T5": "f", "T6": "f", "T7": "fp", "T8": "fpp"}


def test_available_ids():
    assert TABLE_IDS == ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")


def test_table_shapes_and_quantities():
    for table_id in TABLE_IDS:
        table = load_table(table_id)
        assert table.table_id == table_id
        assert table.quantity == EXPECTED_QUANTITY[table_id]
        rows = EXPECTED_ROWS[table_id]
        assert len(table.etas) == rows
        assert len(table.own_values) == rows
        assert np.all(np.diff(table.etas) > 0)
        for column in table.references:
            assert len(column.values) == rows
            assert len(column.printed_errors) == rows


def test_load_accepts_int_and_bare_digit():
    assert load_table(2).table_id == "T2"
    assert load_table("2").table_id == "T2"
    assert load_table("T2").table_id == "T2"
    with pytest.raises(ValueError):
        load_table("T9")
    with pytest.raises(ValueError):
        load_table(0)


def test_spot_values_are_digit_exact():
    t2 = load_table("T2")
    i = int(np.nonzero(t2.etas == 7.0)[0][0])
    assert t2.own_values[i] == 5.279438
    assert t2.column("fixed_point").values[i] == 5.27924
    assert t2.column("block_method").values[i] == 5.27922958631
    assert t2.column("block_method").printed_errors[i].text == "3.94e-5"

    t4 = load_table("T4")
    assert t4.etas[0] == 0.0
    assert t4.own_values[0] == 0.3327300
    assert t4.column("block_method").values[0] == 0.332056697280

    t1 = load_table("T1")
    assert t1.etas[0] == 0.2
    assert t1.column("howarth").values[0] == 0.00664


def test_column_lookup():
    table = load_table("T2")
    assert table.column(0).label == "fixed_point"
    assert table.column(-1).label == "block_method"
    assert table.column("block_method").label == "block_method"
    with pytest.raises(KeyError):
        table.column("nope")
    with pytest.raises(IndexError):
        table.column(5)


def test_restrict_trims_rows():
    t5 = load_table("T5")
    trimmed = t5.restrict(6.0)
    assert trimmed.etas[-1] <= 6.0
    assert len(trimmed.etas) < len(t5.etas)
    assert len(trimmed.own_values) == len(trimmed.etas)
    for column in trimmed.references:
        assert len(column.values) == len(trimmed.etas)
    assert len(t5.restrict(1000.0).etas) == len(t5.etas)


def test_parse_printed_error_units():
    cases = {
        "2.01e-3": (2.01e-3, 1e-5),
        "3.75e-5": (3.75e-5, 1e-7),
        "2.1e-5": (2.1e-5, 1e-6),
        "4.e-7": (4e-7, 1e-7),
        "8.e-1": (0.8, 1e-1),
    }
    for text, (value, unit) in cases.items():
        parsed = parse_printed_error(text)
        assert parsed.text == text
        assert parsed.value == pytest.approx(value, rel=1e-12)
        assert parsed.unit == pytest.approx(unit, rel=1e-12)
    with pytest.raises(ValueError):
        parse_printed_error("abc")


def test_printed_errors_match_recomputation():
    # every printed mismatch column must be reproducible from the two value
    # columns it compares, to within one unit in its last printed digit
    checked = mismatched = 0
    for table_id in TABLE_IDS:
        table = load_table(table_id)
        for column in table.references:
            for own, ref, printed in zip(table.own_values, column.values, column.printed_errors):
                if printed is None:
                    continue
                checked += 1
                recomputed = relative_error(own, ref)
                if abs(recomputed - printed.value) > printed.unit:
                    mismatched += 1
    assert checked > 150
    assert mismatched <= 0.05 * checked


def test_fixture_dir_override(tmp_path, monkeypatch):
    copy = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir(), copy)
    monkeypatch.setenv(FIXTURES_ENV_VAR, str(copy))
    assert fixtures_dir() == copy
    assert load_table("T1").table_id == "T1"
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv(FIXTURES_ENV_VAR, str(empty))
    with pytest.raises(FileNotFoundError):
        load_table("T1")


def _drop_quantity(data):
    del data["quantity"]


def _other_table_id(data):
    data["table_id"] = "T7"


def _short_row(data):
    data["rows"][2][2] = data["rows"][2][2][:1]


def _three_part_row(data):
    data["rows"][2] = data["rows"][2][:3]


def _text_value(data):
    data["rows"][2][1] = "0.02"


def _nan_value(data):
    data["rows"][2][2][1] = float("nan")


def _bad_printed_error(data):
    data["rows"][2][3][0] = "4.70e-x"


def _etas_out_of_order(data):
    rows = data["rows"]
    rows[2], rows[3] = rows[3], rows[2]


@pytest.mark.parametrize("mangle, detail", [
    pytest.param(None, "not JSON", id="bad_json"),
    pytest.param(_drop_quantity, "missing key 'quantity'", id="missing_key"),
    pytest.param(_other_table_id, "table_id 'T7', expected 'T1'", id="other_table_id"),
    pytest.param(_short_row, r"rows\[2\]: expected \[eta, own, \[refs\], \[errors\]\] with 2 "
                 "entries", id="short_reference_list"),
    pytest.param(_three_part_row, r"rows\[2\]: expected \[eta, own", id="three_part_row"),
    pytest.param(_text_value, r"rows\[2\]: '0.02' is not a finite number", id="text_value"),
    pytest.param(_nan_value, r"rows\[2\]: nan is not a finite number", id="nan_value"),
    pytest.param(_bad_printed_error, r"rows\[2\]: printed error '4.70e-x' is not a finite number",
                 id="bad_printed_error"),
    pytest.param(_etas_out_of_order, r"rows\[3\]: eta 0.6 does not exceed the previous 0.8",
                 id="etas_out_of_order"),
])
def test_malformed_fixture_is_named(mangle, detail, tmp_path, monkeypatch):
    copy = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir(), copy)
    path = copy / "table1.json"
    if mangle is None:
        path.write_text(path.read_text()[:-20])
    else:
        data = json.loads(path.read_text())
        mangle(data)
        path.write_text(json.dumps(data))
    monkeypatch.setenv(FIXTURES_ENV_VAR, str(copy))
    with pytest.raises(TableFormatError, match=f"^{re.escape(str(path))}: {detail}"):
        load_table("T1")
    assert load_table("T2").table_id == "T2"
