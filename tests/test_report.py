"""Unit tests for profile evaluation and reference-table comparison."""

import numpy as np
import pytest

from blasius_net.network import NetworkParams
from blasius_net.oracles import rk4_profile, shoot
from blasius_net.profiles import SolutionProfile
from blasius_net.report import TableJoinError, compare, evaluate_profile, relative_error
from blasius_net.tables import ReferenceColumn, ReferenceTable, load_table
from blasius_net.trial import TrialMode, TrialSpec

PAPER = TrialSpec(TrialMode.PAPER, 6.0)


@pytest.fixture(scope="module")
def oracle_profile():
    return rk4_profile(shoot(), 10.0, step=1e-3)


def test_relative_error_definition():
    assert relative_error(1.05, 1.0) == pytest.approx(0.05, rel=1e-12)
    assert relative_error(0.95, 1.0) == pytest.approx(0.05, rel=1e-12)
    assert relative_error(-2.0, -1.0) == pytest.approx(1.0, rel=1e-12)
    # zero reference falls back to the absolute difference
    assert relative_error(0.25, 0.0) == 0.25
    assert relative_error(0.0, 0.0) == 0.0


def test_evaluate_profile_with_silent_network():
    params = NetworkParams(np.zeros(3), np.ones(3), np.ones(3))
    profile = evaluate_profile(PAPER, params, [0.0, 1.0, 2.0])
    assert np.array_equal(profile.eta, [0.0, 1.0, 2.0])
    assert np.allclose(profile.f, [0.0, 2.0, 12.0], rtol=1e-15)
    assert np.allclose(profile.fp, [0.0, 5.0, 16.0], rtol=1e-15)
    assert np.allclose(profile.fpp, [2.0, 8.0, 14.0], rtol=1e-15)


def test_evaluate_profile_rejects_outside_domain():
    params = NetworkParams(np.zeros(2), np.ones(2), np.ones(2))
    for etas in ([0.0, 6.5], [0.0, np.nan, 1.0], [-0.5, 1.0], [np.nan]):
        with pytest.raises(ValueError, match="outside the trial domain"):
            evaluate_profile(PAPER, params, etas)


def tiny_table(etas, own, refs):
    columns = tuple(
        ReferenceColumn(label=f"ref{i}", values=np.asarray(vals, dtype=float),
                        printed_errors=(None,) * len(etas))
        for i, vals in enumerate(refs)
    )
    return ReferenceTable(table_id="TX", quantity="f", etas=np.asarray(etas, dtype=float),
                          own_values=np.asarray(own, dtype=float), references=columns)


def flat_profile(etas, values):
    values = np.asarray(values, dtype=float)
    return SolutionProfile(eta=np.asarray(etas, dtype=float), f=values,
                           fp=np.zeros_like(values), fpp=np.zeros_like(values))


def test_compare_against_listed_column():
    table = tiny_table([0.0, 1.0], own=[0.0, 2.0], refs=[[0.0, 1.0], [0.5, 4.0]])
    profile = flat_profile([0.0, 0.5, 1.0], [0.0, 9.0, 2.0])
    rows = compare(profile, table)  # default: last reference column
    assert [row.eta for row in rows] == [0.0, 1.0]
    assert rows[0].ours == 0.0 and rows[0].reference == 0.5
    assert rows[0].rel_error == 1.0 and rows[0].absolute is False
    assert rows[1].rel_error == pytest.approx(0.5, rel=1e-12)

    by_first = compare(profile, table, reference=0)
    assert by_first[1].reference == 1.0
    assert by_first[1].rel_error == pytest.approx(1.0, rel=1e-12)
    assert by_first[0].absolute is True  # reference value is exactly zero
    by_label = compare(profile, table, reference="ref1")
    assert by_label[0].reference == 0.5


def test_compare_reports_missing_rows():
    table = tiny_table([0.0, 1.0, 2.0], own=[0.0, 1.0, 2.0], refs=[[0.0, 1.0, 2.0]])
    profile = flat_profile([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(TableJoinError) as excinfo:
        compare(profile, table)
    assert excinfo.value.table_id == "TX"
    assert excinfo.value.missing == [2.0]


def test_compare_uses_quantity_column(oracle_profile):
    # T3 tabulates the slope, so comparisons must read profile.fp
    rows = compare(oracle_profile, load_table("T3"), reference="block_method")
    assert max(row.rel_error for row in rows) <= 5e-6


def test_oracle_matches_classical_columns(oracle_profile):
    # the independent integrator must agree with transcribed classical data:
    # any digit slip in a fixture would show up here
    t1 = load_table("T1").column("howarth")
    worst = max(
        abs(oracle_profile.f[oracle_profile.index_of(float(eta))] - ref)
        for eta, ref in zip(load_table("T1").etas, t1.values)
    )
    assert worst <= 1e-5

    for table_id, label, tol in (
        ("T2", "block_method", 5e-6),
        ("T3", "block_method", 5e-6),
        ("T4", "block_method", 3e-5),
        ("T6", "diff_transform", 5e-6),
        ("T7", "diff_transform", 5e-6),
    ):
        table = load_table(table_id)
        column = getattr(oracle_profile, table.quantity)
        worst = max(
            relative_error(column[oracle_profile.index_of(float(eta))], float(ref))
            for eta, ref in zip(table.etas, table.column(label).values)
        )
        assert worst <= tol, f"{table_id}/{label}: {worst}"

    # far-field curvature is tiny, so compare absolutely there
    t8 = load_table("T8")
    worst = max(
        abs(oracle_profile.fpp[oracle_profile.index_of(float(eta))] - ref)
        for eta, ref in zip(t8.etas, t8.column("diff_transform").values)
    )
    assert worst <= 1e-6


def test_oracle_matches_far_field_rows():
    profile = rk4_profile(shoot(), 100.0, step=1e-3)
    t5 = load_table("T5")
    column = t5.column("pade_numerical")
    for eta, ref in zip(t5.etas, column.values):
        if eta >= 10.0:
            assert abs(profile.f[profile.index_of(float(eta))] - ref) <= 5e-5
