"""Unit tests for the plain-text model file format."""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blasius_net.cli import run_cli
from blasius_net.model_io import (
    MODEL_HEADER,
    MODEL_MAX_BYTES,
    ModelFormatError,
    ModelVersionError,
    load_model,
    save_model,
)
from blasius_net.network import NETWORK_MAX_HIDDEN, NetworkParams
from blasius_net.training import XorShift64Star, _draw_params, init_params
from blasius_net.trial import TrialMode, TrialSpec

from helpers import DOUBLES


@pytest.fixture
def saved(tmp_path):
    params = init_params(3, 5)
    spec = TrialSpec(TrialMode.PENALTY, 6.0)
    path = tmp_path / "model.txt"
    save_model(params, spec, path)
    return params, spec, path


def test_round_trip_is_bit_exact(saved):
    params, spec, path = saved
    loaded_params, loaded_spec = load_model(path)
    assert loaded_spec == spec
    assert np.array_equal(loaded_params.weights, params.weights)


def test_round_trip_paper_mode(tmp_path):
    params = NetworkParams(*_draw_params(XorShift64Star(9), 2, 1.5))
    spec = TrialSpec(TrialMode.PAPER, 6.0)
    path = tmp_path / "paper.txt"
    save_model(params, spec, path)
    loaded_params, loaded_spec = load_model(path)
    assert loaded_spec.mode is TrialMode.PAPER
    assert np.array_equal(loaded_params.weights, params.weights)
    # a paper-mode file whose domain does not end at the envelope's node is malformed
    bad = corrupt(tmp_path / "bad.txt", path, lambda L: L.__setitem__(2, "domain_end=8"))
    with pytest.raises(ModelFormatError, match="paper mode needs domain_end") as excinfo:
        load_model(bad)
    assert excinfo.value.line_number == 3


def test_file_layout(saved):
    _, _, path = saved
    lines = path.read_text().splitlines()
    assert len(lines) == 7
    assert lines[0] == MODEL_HEADER
    assert lines[1] == "mode=penalty"
    assert lines[2] == "domain_end=6"
    assert lines[3] == "hidden=5"
    for line, key in zip(lines[4:], "vuw"):
        assert line.startswith(key + "=")
        assert len(line.split("=", 1)[1].split(",")) == 5
    assert not list(path.parent.glob("*.tmp"))


def test_save_is_byte_deterministic(saved, tmp_path):
    params, spec, path = saved
    again = tmp_path / "again.txt"
    save_model(params, spec, again)
    assert again.read_bytes() == path.read_bytes()


def corrupt(path, saved_path, mutate):
    lines = saved_path.read_text().splitlines()
    mutate(lines)
    # a lone surrogate escape such as "\udcff" writes the raw byte 0xff
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    return path


def test_load_rejects_unknown_version(saved, tmp_path):
    _, _, path = saved
    bad = corrupt(tmp_path / "bad.txt", path, lambda L: L.__setitem__(0, "blasius-net-model v2"))
    with pytest.raises(ModelVersionError) as excinfo:
        load_model(bad)
    assert excinfo.value.line_number == 1


def test_load_rejects_foreign_file(saved, tmp_path):
    _, _, path = saved
    bad = corrupt(tmp_path / "bad.txt", path, lambda L: L.__setitem__(0, "hello"))
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(bad)
    assert excinfo.value.line_number == 1
    assert not isinstance(excinfo.value, ModelVersionError)


@pytest.mark.parametrize(
    "line_index,text,expected_line",
    [
        (1, "mode=weird", 2),
        (2, "domain_end=abc", 3),
        (2, "domain_end=-1", 3),
        (3, "hidden=abc", 4),
        (3, "hidden=0", 4),
        (3, "hidden=3", 5),  # three declared, five present
        (4, "w=1,2,3,4,5", 5),  # field out of order
        (4, "v=1,2,3,nan,5", 5),
        (5, "u=1,2,\udcff,4,5", 6),  # not UTF-8
    ],
)
def test_load_reports_offending_line(saved, tmp_path, line_index, text, expected_line):
    _, _, path = saved
    bad = corrupt(tmp_path / "bad.txt", path, lambda L: L.__setitem__(line_index, text))
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(bad)
    assert excinfo.value.line_number == expected_line


def test_load_names_hidden_past_the_cap(saved, tmp_path):
    _, _, path = saved
    bad = corrupt(tmp_path / "bad.txt", path,
                  lambda L: L.__setitem__(3, f"hidden={NETWORK_MAX_HIDDEN + 1}"))
    with pytest.raises(ModelFormatError, match=f"NETWORK_MAX_HIDDEN = {NETWORK_MAX_HIDDEN}, "
                                               f"got {NETWORK_MAX_HIDDEN + 1}") as excinfo:
        load_model(bad)
    assert excinfo.value.line_number == 4  # before the weight lines are parsed


def test_largest_model_loads_within_the_cap(tmp_path):
    # NETWORK_MAX_HIDDEN units whose every entry prints in 24 characters, the longest %.17g
    weights = np.full((3, NETWORK_MAX_HIDDEN), -1.2345678901234567e-100)
    spec = TrialSpec(TrialMode.PENALTY, 1.2345678901234567e100)
    path = tmp_path / "largest.txt"
    save_model(NetworkParams(*weights), spec, path)
    assert path.stat().st_size == 30086 < MODEL_MAX_BYTES
    params, loaded = load_model(path)
    assert loaded == spec
    assert params.weights.tobytes() == weights.tobytes()


def test_load_reads_no_more_than_the_cap(saved, tmp_path):
    _, _, path = saved
    text = path.read_bytes()
    # blank lines after the model are allowed, up to the cap
    at_cap = tmp_path / "at_cap.txt"
    at_cap.write_bytes(text + b"\n" * (MODEL_MAX_BYTES - len(text)))
    assert load_model(at_cap)[0].weights.tobytes() == load_model(path)[0].weights.tobytes()
    over = tmp_path / "over.txt"
    over.write_bytes(b"x" * (MODEL_MAX_BYTES + 1))
    message = f"line 1: model file longer than MODEL_MAX_BYTES = {MODEL_MAX_BYTES} bytes"
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(over)
    assert str(excinfo.value) == message
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert run_cli(["profile", "--model", str(over)]) == 1
    assert stderr.getvalue() == f"error: {message}\n"


def test_load_rejects_truncated_file(saved, tmp_path):
    _, _, path = saved
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(path.read_text().splitlines()[:6]) + "\n")
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(bad)


def test_load_rejects_trailing_content(saved, tmp_path):
    _, _, path = saved
    bad = tmp_path / "bad.txt"
    bad.write_text(path.read_text() + "extra\n")
    with pytest.raises(ModelFormatError, match="after the model"):
        load_model(bad)
    fine = tmp_path / "fine.txt"
    fine.write_text(path.read_text() + "\n\n")
    load_model(fine)


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(weights=st.integers(1, 6).flatmap(lambda h: st.lists(DOUBLES, min_size=3 * h,
                                                              max_size=3 * h)),
       spec=st.one_of(st.just(TrialSpec(TrialMode.PAPER, 6.0)),
                      st.builds(TrialSpec, st.just(TrialMode.PENALTY),
                                st.floats(0.0, exclude_min=True, allow_infinity=False))))
def test_save_load_keeps_weight_bytes_and_spec(tmp_path_factory, weights, spec):
    params = NetworkParams(*np.reshape(weights, (3, -1)))
    path = tmp_path_factory.getbasetemp() / "round_trip_model.txt"
    save_model(params, spec, path)
    loaded, loaded_spec = load_model(path)
    assert loaded.weights.tobytes() == params.weights.tobytes()
    assert loaded_spec == spec


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("edited") / "model.txt"
    save_model(init_params(3, 5), TrialSpec(TrialMode.PENALTY, 6.0), path)
    return path, path.read_bytes().splitlines(keepends=True)


@PROPERTY
@given(index=st.integers(0, 6), edit=st.sampled_from(["replace", "delete", "duplicate"]),
       content=st.one_of(st.text().map(str.encode), st.binary()))
def test_edited_model_file_loads_or_names_its_fault(model_file, index, edit, content):
    path, lines = model_file
    edited = list(lines)
    if edit == "replace":
        edited[index] = content + b"\n"
    elif edit == "delete":
        del edited[index]
    else:
        edited.insert(index, edited[index])
    path.write_bytes(b"".join(edited))
    try:
        load_model(path)
        failed = False
    except ModelFormatError:  # ModelVersionError included
        failed = True
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["profile", "--model", str(path), "--points", "3"])
    assert code == 1 if failed else code in (0, 1)
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
