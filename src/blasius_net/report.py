"""Evaluating trained networks on eta grids and comparing against the tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkParams
from .profiles import SolutionProfile
from .tables import ReferenceTable
from .trial import TrialSpec, trial_jet

__all__ = ["ComparisonRow", "TableJoinError", "relative_error", "evaluate_profile", "compare"]


class TableJoinError(ValueError):
    """A table abscissa has no matching profile row."""

    def __init__(self, table_id: str, missing: list[float]):
        super().__init__(f"profile lacks rows for table {table_id} at eta = {missing}")
        self.table_id = table_id
        self.missing = missing


@dataclass(frozen=True)
class ComparisonRow:
    """One eta's comparison; absolute marks a zero reference (error is then |ours|)."""

    eta: float
    ours: float
    reference: float
    rel_error: float
    absolute: bool = False


def relative_error(ours: float, reference: float) -> float:
    """|ours - reference| / |reference|; falls back to |ours| for a zero reference.

    The convention matches how the bundled tables print their error columns:
    the reference study's value is the denominator.
    """
    if reference == 0.0:
        return abs(ours)
    return abs(ours - reference) / abs(reference)


def evaluate_profile(spec: TrialSpec, params: NetworkParams, etas) -> SolutionProfile:
    """Trial solution and its first two derivatives on the given abscissae.

    Pure evaluation: nothing about the grid or parameters is modified.  All
    abscissae must lie inside the trial domain and increase strictly.
    """
    etas = np.array(etas, dtype=np.float64)
    if etas.ndim != 1 or etas.size < 1:
        raise ValueError("etas must be a non-empty one-dimensional sequence")
    y = trial_jet(spec, etas).values(params)
    return SolutionProfile(eta=etas, f=y[:, 0], fp=y[:, 1], fpp=y[:, 2])


def compare(profile: SolutionProfile, table: ReferenceTable,
            reference: str | int = -1, join_tol: float = 1e-12) -> list[ComparisonRow]:
    """One ComparisonRow per table row, against the chosen reference column.

    The default column is the last (most refined) one.  Every table eta must
    match a profile eta within join_tol, or the join fails listing the
    missing abscissae.  The profile column is picked by the table's quantity.
    """
    column = table.column(reference)
    ours_col = getattr(profile, table.quantity)
    missing = []
    indices = []
    for eta in table.etas.tolist():
        hits = np.nonzero(np.abs(profile.eta - eta) <= join_tol)[0]
        if hits.size == 0:
            missing.append(eta)
        else:
            indices.append(int(hits[0]))
    if missing:
        raise TableJoinError(table.table_id, missing)
    rows = []
    for pos, (eta, ref) in enumerate(zip(table.etas.tolist(), column.values.tolist())):
        ours = float(ours_col[indices[pos]])
        rows.append(ComparisonRow(
            eta=eta,
            ours=ours,
            reference=ref,
            rel_error=relative_error(ours, ref),
            absolute=(ref == 0.0),
        ))
    return rows
