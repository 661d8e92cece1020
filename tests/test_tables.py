"""Unit tests for the bundled reference tables and printed-error parsing."""

import io
import json
import os
import re
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blasius_net.cli import run_cli
from blasius_net.network import NetworkParams
from blasius_net.report import compare, relative_error
from blasius_net.tables import (
    FIXTURES_ENV_VAR,
    TABLE_IDS,
    TABLE_MAX_BYTES,
    TableFormatError,
    fixtures_dir,
    load_table,
    parse_printed_error,
)
from blasius_net.trial import TrialMode, TrialSpec

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
    with pytest.raises(ValueError, match="table T2 has no column 'nope'"):
        table.column("nope")
    with pytest.raises(IndexError):
        table.column(5)


def test_compare_keeps_the_rows_inside_the_domain():
    # T5 runs to eta = 100: a model on [0, L] is compared on exactly its rows with eta <= L
    t5 = load_table("T5")
    silent = NetworkParams(np.zeros(2), np.ones(2), np.ones(2))
    inside = compare(TrialSpec(TrialMode.PAPER, 6.0), silent, t5)
    assert [row.eta for row in inside] == [eta for eta in t5.etas.tolist() if eta <= 6.0]
    assert len(inside) < len(t5.etas)
    every = compare(TrialSpec(TrialMode.PENALTY, 100.0), silent, t5)
    assert [row.eta for row in every] == t5.etas.tolist()
    assert [row.reference for row in every] == t5.column(-1).values.tolist()


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


def _other_quantity(data):
    data["quantity"] = "fp"


def _overflowing_integer(data):
    # float() of this integer raises OverflowError
    data["rows"][2][2][1] = 10**400


def _integer_past_digit_limit(data):
    # Python's int parser refuses literals longer than 4300 digits
    data["rows"][2][1] = "LONG"
    return json.dumps(data).replace('"LONG"', "9" * 5000).encode()


def _latin1_label(data):
    data["references"][0] = "h\xf6warth"
    return json.dumps(data, ensure_ascii=False).encode("latin-1")


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
    pytest.param(_other_quantity, "quantity 'fp', expected 'f'", id="other_quantity"),
    pytest.param(_overflowing_integer, r"rows\[2\]: inf is not a finite number",
                 id="overflowing_integer"),
    pytest.param(_integer_past_digit_limit, r"rows\[2\]: inf is not a finite number",
                 id="integer_past_digit_limit"),
    pytest.param(_latin1_label, "not JSON: 'utf-8' codec can't decode", id="not_utf8"),
])
def test_malformed_fixture_is_named(mangle, detail, tmp_path, monkeypatch):
    copy = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir(), copy)
    path = copy / "table1.json"
    if mangle is None:
        path.write_text(path.read_text()[:-20])
    else:
        data = json.loads(path.read_text())
        text = mangle(data)
        path.write_bytes(json.dumps(data).encode() if text is None else text)
    monkeypatch.setenv(FIXTURES_ENV_VAR, str(copy))
    with pytest.raises(TableFormatError, match=f"^{re.escape(str(path))}: {detail}"):
        load_table("T1")
    assert load_table("T2").table_id == "T2"


MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "validate_model.txt"


def test_fixture_past_the_byte_cap_is_refused_unread(tmp_path, monkeypatch, capsys):
    copy = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir(), copy)
    path = copy / "table1.json"
    text = path.read_text()
    monkeypatch.setenv(FIXTURES_ENV_VAR, str(copy))
    # valid JSON padded with whitespace: at the cap it loads
    path.write_text(text + " " * (TABLE_MAX_BYTES - len(text)))
    assert load_table("T1").table_id == "T1"
    path.write_text(text + " " * (TABLE_MAX_BYTES + 1 - len(text)))
    message = f"{path}: longer than TABLE_MAX_BYTES = {TABLE_MAX_BYTES} bytes"

    def refuse(*args, **kwargs):
        raise AssertionError("the fixture was decoded")
    monkeypatch.setattr(json, "loads", refuse)
    with pytest.raises(TableFormatError, match=f"^{re.escape(message)}$"):
        load_table("T1")
    assert run_cli(["compare", "--model", str(MODEL), "--table", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
TABLE1 = (fixtures_dir() / "table1.json").read_text()


def _node_paths(node, path=()):
    """Key paths to every node of a parsed JSON document, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _node_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.floats()
    | st.integers(300, 5000).map(lambda digits: 10**digits),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)


def _dumps(data) -> str:
    # json.dumps, like int(), refuses integers past Python's digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(data)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="module")
def mangled_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mangled")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(list(_node_paths(json.loads(TABLE1)))), value=JSON_VALUES)
def test_mangled_fixture_fails_only_by_name(mangled_dir, path, value):
    data = json.loads(TABLE1)
    if path:
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        data = value
    (mangled_dir / "table1.json").write_text(_dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {FIXTURES_ENV_VAR: str(mangled_dir)}):
        try:
            table = load_table("T1")
        except TableFormatError:
            table = None
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(["compare", "--model", str(MODEL), "--table", "T1"])
    assert code in (0, 1)
    assert err.getvalue().count("error:") == (code == 1)
    assert "Traceback" not in err.getvalue()
    if table is not None and table.etas[0] >= 0.0:
        assert code == 0  # etas from the wall on are in the model's domain or skipped
