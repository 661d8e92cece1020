"""Unit tests for solution profiles and their CSV round trip."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blasius_net.oracles import rk4_profile, shoot
from blasius_net.profiles import (
    CSV_BLOCK,
    CSV_HEADER,
    SolutionProfile,
    _decimal,
    format_float,
    write_profile_csv,
)

from helpers import DOUBLES, read_profile_csv


def small_profile():
    eta = np.array([0.0, 0.5, 1.0])
    return SolutionProfile(eta=eta, f=eta**2, fp=2 * eta, fpp=np.full(3, 2.0))


def test_profile_validation():
    eta = np.array([0.0, 1.0])
    ones = np.ones(2)
    with pytest.raises(ValueError):
        SolutionProfile(eta=eta, f=np.ones(3), fp=ones, fpp=ones)
    with pytest.raises(ValueError):
        SolutionProfile(eta=np.array([1.0, 0.5]), f=ones, fp=ones, fpp=ones)
    with pytest.raises(ValueError):
        SolutionProfile(eta=np.array([0.0, 0.0]), f=ones, fp=ones, fpp=ones)
    with pytest.raises(ValueError):
        SolutionProfile(eta=eta, f=np.array([0.0, np.nan]), fp=ones, fpp=ones)
    with pytest.raises(ValueError):
        SolutionProfile(eta=np.array([]), f=np.array([]), fp=np.array([]), fpp=np.array([]))
    # the widest increasing pair is accepted without an overflow warning
    widest = np.array([-np.finfo(float).max, np.finfo(float).max])
    assert len(SolutionProfile(eta=widest, f=ones, fp=ones, fpp=ones)) == 2


def test_profile_rows_and_lookup():
    profile = small_profile()
    assert len(profile) == 3
    columns = (profile.eta, profile.f, profile.fp, profile.fpp)
    assert [column[1] for column in columns] == [0.5, 0.25, 1.0, 2.0]
    assert profile.index_of(0.5) == 1
    assert profile.index_of(0.5 + 1e-13) == 1
    assert [column[profile.index_of(1.0)] for column in columns] == [1.0, 1.0, 2.0, 2.0]
    with pytest.raises(KeyError):
        profile.index_of(0.25)


def test_profile_columns_are_locked():
    profile = small_profile()
    with pytest.raises(ValueError):
        profile.f[0] = 9.0


def test_format_float_is_exact():
    assert format_float(1.0) == "1"
    assert float(format_float(0.1)) == 0.1
    rng = np.random.default_rng(67)
    for value in rng.uniform(-1e3, 1e3, 200):
        assert float(format_float(float(value))) == float(value)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(71)
    eta = np.sort(rng.uniform(0.0, 6.0, 20))
    eta[0] = 0.0
    profile = SolutionProfile(eta=eta, f=rng.normal(size=20), fp=rng.normal(size=20),
                              fpp=rng.normal(size=20))
    path = tmp_path / "profile.csv"
    write_profile_csv((profile,), path, comments={"sigma": "0.332"})
    back = read_profile_csv(path)
    assert np.array_equal(back.eta, profile.eta)
    assert np.array_equal(back.f, profile.f)
    assert np.array_equal(back.fp, profile.fp)
    assert np.array_equal(back.fpp, profile.fpp)
    text = path.read_text()
    assert text.startswith("# sigma = 0.332\n" + CSV_HEADER + "\n")
    assert not list(tmp_path.glob("*.tmp"))


def test_csv_rows_match_per_value_format_float():
    # signed zero, the smallest subnormal, a 17-digit integer and a repeating
    # fraction, each in every column
    special = [-0.0, 5e-324, 1.0 / 3.0, 1e17]
    profile = SolutionProfile(eta=special, f=special[::-1], fp=special[1:] + special[:1],
                              fpp=special[2:] + special[:2])
    buffer = io.StringIO()
    write_profile_csv((profile,), buffer)
    expected = [CSV_HEADER] + [",".join(format_float(x) for x in row) for row in
                               zip(special, special[::-1], special[1:] + special[:1],
                                   special[2:] + special[:2])]
    assert buffer.getvalue() == "\n".join(expected) + "\n"
    assert "-0," in buffer.getvalue() and "4.9406564584124654e-324" in buffer.getvalue()

    rng = np.random.default_rng(83)
    decades = np.array([float(f"1e{k}") for k in range(-30, 18)])
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    # the only exact ties past 10**22, 18 digits ending in 5: % decides them
    late_ties = np.array([n / 2**24 for n in range(3, 16, 2)] + [1 / 2**25, 3 / 2**25])
    assert _decimal(late_ties)[2].all()
    value_sets = [
        # exact ties of the 17th digit, n / 2**17 for odd n in [1, 10)
        (2 * rng.integers(2**16, 5 * 2**17, 5000) + 1) / 2.0**17,
        np.concatenate([late_ties, -late_ties]),
        np.concatenate([np.nextafter(decades, 0.0), decades, np.nextafter(decades, np.inf)]),
        np.array([5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0,
                  1e17, -1e17, 1.5e17, np.nextafter(1e17, 0.0), np.finfo(float).max]),
        bits[np.isfinite(bits)],
    ]
    oracle = rk4_profile(shoot(), 100.0)
    cases = [(oracle.eta, oracle.f, oracle.fp, oracle.fpp)]
    for values in value_sets:
        count = -(-values.size // 3)  # each value once in f, fp or fpp
        cases.append((np.arange(float(count)), *np.resize(values, (3, count))))
    for columns in cases:
        buffer = io.StringIO()
        write_profile_csv((SolutionProfile(*columns),), buffer)
        rows = zip(*(column.tolist() for column in columns))
        assert buffer.getvalue() == "".join(
            [CSV_HEADER + "\n"] + [",".join(map(format_float, row)) + "\n" for row in rows])


class WriteRecorder(io.StringIO):
    """A text stream that keeps each write call's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_csv_is_written_in_blocks():
    # memory stays flat in the row count: no single write holds more than a block
    count = 2 * CSV_BLOCK + 1
    rng = np.random.default_rng(73)
    eta = np.cumsum(rng.uniform(0.5, 1.5, count))
    columns = [eta] + [rng.normal(size=count) for _ in range(3)]
    stream = WriteRecorder()
    write_profile_csv((SolutionProfile(*columns),), stream, comments={"sigma": "0.332"})
    assert max(text.count("\n") for text in stream.writes[1:]) <= CSV_BLOCK
    assert stream.writes[0] == "# sigma = 0.332\n" + CSV_HEADER + "\n"
    expected = [",".join(format_float(x) for x in row) + "\n" for row in zip(*columns)]
    assert "".join(stream.writes[1:]) == "".join(expected)


def test_blocks_write_the_bytes_of_the_whole_profile():
    count = 3 * CSV_BLOCK + 5
    rng = np.random.default_rng(29)
    columns = [np.cumsum(rng.uniform(0.5, 1.5, count))] + [rng.normal(size=count)
                                                          for _ in range(3)]
    whole = io.StringIO()
    write_profile_csv((SolutionProfile(*columns),), whole, comments={"sigma": "0.332"})
    # blocks of uneven sizes, one of them longer than CSV_BLOCK
    cuts = [0, 1, CSV_BLOCK + 3, 2 * CSV_BLOCK, count]
    blocks = (SolutionProfile(*(column[start:stop] for column in columns))
              for start, stop in zip(cuts, cuts[1:]))
    stream = WriteRecorder()
    write_profile_csv(blocks, stream, comments={"sigma": "0.332"})
    assert stream.getvalue() == whole.getvalue()
    assert max(text.count("\n") for text in stream.writes[1:]) <= CSV_BLOCK


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(columns=st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(DOUBLES, min_size=n, max_size=n, unique=True).map(sorted),
    *[st.lists(DOUBLES, min_size=n, max_size=n)] * 3)))
def test_csv_keeps_every_column_bytes(columns):
    profile = SolutionProfile(*columns)
    buffer = io.StringIO()
    write_profile_csv((profile,), buffer)
    back = read_profile_csv(io.StringIO(buffer.getvalue()))
    for name in ("eta", "f", "fp", "fpp"):
        assert getattr(back, name).tobytes() == getattr(profile, name).tobytes()


def test_csv_stream_round_trip():
    profile = small_profile()
    buffer = io.StringIO()
    write_profile_csv((profile,), buffer)
    back = read_profile_csv(io.StringIO(buffer.getvalue()))
    assert np.array_equal(back.eta, profile.eta)


def test_csv_read_validation():
    with pytest.raises(ValueError, match="header"):
        read_profile_csv(io.StringIO("a,b,c,d\n0,0,0,0\n"))
    with pytest.raises(ValueError, match="4 columns"):
        read_profile_csv(io.StringIO(CSV_HEADER + "\n0,0,0\n"))
    with pytest.raises(ValueError, match="no data rows"):
        read_profile_csv(io.StringIO(CSV_HEADER + "\n"))
    with pytest.raises(ValueError, match="header"):
        read_profile_csv(io.StringIO("# only a comment\n"))
    # comments and blank lines anywhere are skipped
    text = "# a = 1\n\n" + CSV_HEADER + "\n# inline note\n0,1,2,3\n"
    profile = read_profile_csv(io.StringIO(text))
    assert [profile.eta.tolist(), profile.f.tolist(), profile.fp.tolist(),
            profile.fpp.tolist()] == [[0.0], [1.0], [2.0], [3.0]]
