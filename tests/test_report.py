"""Unit tests for profile evaluation and reference-table comparison."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blasius_net.network import NetworkParams
from blasius_net.oracles import rk4_profile, shoot
from blasius_net.profiles import CSV_BLOCK
from blasius_net.report import compare, evaluate_profile, relative_error
from blasius_net.tables import load_table
from blasius_net.trial import TrialMode, TrialSpec

PAPER = TrialSpec(TrialMode.PAPER, 6.0)
SILENT = NetworkParams(np.zeros(3), np.ones(3), np.ones(3))  # v = 0: N vanishes


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
    profile = evaluate_profile(PAPER, SILENT, [0.0, 1.0, 2.0])
    assert np.array_equal(profile.eta, [0.0, 1.0, 2.0])
    assert np.allclose(profile.f, [0.0, 2.0, 12.0], rtol=1e-15)
    assert np.allclose(profile.fp, [0.0, 5.0, 16.0], rtol=1e-15)
    assert np.allclose(profile.fpp, [2.0, 8.0, 14.0], rtol=1e-15)


# prints whether evaluate_profile's blocks give the bytes of one whole-array
# forward, for each hidden count
BLOCKED_AGAINST_WHOLE = """
import sys
import numpy as np
from blasius_net.report import evaluate_profile
from blasius_net.training import init_params
from blasius_net.trial import TrialMode, TrialSpec, trial_jet
spec = TrialSpec(TrialMode.PENALTY, 6.0)
etas = np.linspace(0.0, 6.0, int(sys.argv[1]))
for hidden in map(int, sys.argv[2:]):
    params = init_params(0, hidden)
    profile = evaluate_profile(spec, params, etas)
    whole = trial_jet(spec, etas).forward(params.weights[None])[0]
    print(hidden, all(np.array_equal(getattr(profile, name), whole[:, k])
                      for k, name in enumerate(("f", "fp", "fpp"))))
"""


def test_blocked_profile_equals_one_whole_array_forward():
    # two full blocks and a tail of five rows; one BLAS thread, at which a
    # whole-array product's bytes do not depend on the host
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", BLOCKED_AGAINST_WHOLE, str(2 * CSV_BLOCK + 5),
                           "5", "40"], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "5 True\n40 True\n"


def test_evaluate_profile_rejects_outside_domain():
    params = NetworkParams(np.zeros(2), np.ones(2), np.ones(2))
    for etas in ([0.0, 6.5], [0.0, np.nan, 1.0], [-0.5, 1.0], [np.nan]):
        with pytest.raises(ValueError, match="outside the trial domain"):
            evaluate_profile(PAPER, params, etas)


def test_compare_against_listed_column():
    # a silent paper network is y = x^3 + x^2 exactly, so no oracle is needed
    table = load_table("T1")
    rows = compare(PAPER, SILENT, table)  # default: last reference column
    etas = table.etas[table.etas <= PAPER.domain_end]
    assert [row.eta for row in rows] == etas.tolist()
    assert [row.ours for row in rows] == pytest.approx(etas**3 + etas**2, rel=1e-15, abs=0)
    assert [row.reference for row in rows] == table.column(-1).values[:len(rows)].tolist()
    assert table.column(-1).label == "sinc_collocation"
    assert all(row.rel_error == relative_error(row.ours, row.reference) for row in rows)
    assert not any(row.absolute for row in rows)

    by_first = compare(PAPER, SILENT, table, reference=0)
    assert by_first == compare(PAPER, SILENT, table, reference="howarth")
    assert [row.reference for row in by_first] == table.column("howarth").values[:len(rows)].tolist()
    assert [row.ours for row in by_first] == [row.ours for row in rows]
    with pytest.raises(ValueError, match="no column 'bogus'"):
        compare(PAPER, SILENT, table, reference="bogus")


def test_compare_uses_quantity_column():
    # T3 tabulates the slope and T4 the curvature: ours must read fp and fpp
    for table_id, jet in (("T3", lambda eta: 3 * eta**2 + 2 * eta),
                          ("T4", lambda eta: 6 * eta + 2)):
        table = load_table(table_id)
        rows = compare(PAPER, SILENT, table)
        etas = table.etas[table.etas <= PAPER.domain_end]
        assert [row.eta for row in rows] == etas.tolist()
        assert [row.ours for row in rows] == pytest.approx(jet(etas), rel=1e-15, abs=0)
    # T3 tabulates f'(0) = 0 as exactly zero, so its first row is absolute
    first = compare(PAPER, SILENT, load_table("T3"))[0]
    assert first.absolute and first.rel_error == 0.0


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
