"""Unit tests for solution profiles and their CSV round trip."""

import io

import numpy as np
import pytest

from blasius_net.profiles import CSV_HEADER, SolutionProfile, format_float, write_profile_csv

from helpers import read_profile_csv


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


def test_profile_rows_and_lookup():
    profile = small_profile()
    assert len(profile) == 3
    listed = list(profile.rows())
    assert listed[1] == (0.5, 0.25, 1.0, 2.0)
    assert profile.index_of(0.5) == 1
    assert profile.index_of(0.5 + 1e-13) == 1
    assert listed[profile.index_of(1.0)] == (1.0, 1.0, 2.0, 2.0)
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
    write_profile_csv(profile, path, comments={"sigma": "0.332"})
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
    write_profile_csv(profile, buffer)
    expected = [CSV_HEADER] + [",".join(format_float(x) for x in row) for row in
                               zip(special, special[::-1], special[1:] + special[:1],
                                   special[2:] + special[:2])]
    assert buffer.getvalue() == "\n".join(expected) + "\n"
    assert "-0," in buffer.getvalue() and "4.9406564584124654e-324" in buffer.getvalue()


def test_csv_stream_round_trip():
    profile = small_profile()
    buffer = io.StringIO()
    write_profile_csv(profile, buffer)
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
    assert list(profile.rows()) == [(0.0, 1.0, 2.0, 3.0)]
