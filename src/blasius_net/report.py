"""Evaluating trained networks on eta grids and comparing against the tables.

compare is the one path from a model to compared rows: it evaluates the model
once at the table's own abscissae inside the trial domain, so each row pairs
the model's value with a reference value at exactly the same eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkParams
from .profiles import CSV_BLOCK, SolutionProfile
from .tables import ReferenceTable
from .trial import TrialSpec, trial_jet

__all__ = ["ComparisonRow", "relative_error", "evaluate_profile", "compare"]


@dataclass(frozen=True)
class ComparisonRow:
    """One eta's comparison against one reference value."""

    eta: float
    ours: float
    reference: float
    rel_error: float

    @property
    def absolute(self) -> bool:
        """A zero reference, against which rel_error is |ours| (see relative_error)."""
        return self.reference == 0.0


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
    abscissae must lie inside the trial domain and increase strictly.  One
    jet takes CSV_BLOCK rows at a time, so its memory stays flat in the row
    count, and the bytes are those of one whole-array jet on one BLAS
    thread; the whole-array products themselves round differently under two
    OpenBLAS threads (20001 rows, 40 hidden units).
    """
    etas = np.array(etas, dtype=np.float64)
    if etas.ndim != 1 or etas.size < 1:
        raise ValueError("etas must be a non-empty one-dimensional sequence")
    y = np.empty((etas.size, 3))
    for start in range(0, etas.size, CSV_BLOCK):
        block = slice(start, start + CSV_BLOCK)
        y[block] = trial_jet(spec, etas[block]).forward(params.weights[None])[0, :, :3]
    return SolutionProfile(eta=etas, f=y[:, 0], fp=y[:, 1], fpp=y[:, 2])


def compare(spec: TrialSpec, params: NetworkParams, table: ReferenceTable,
            reference: str | int = -1) -> list[ComparisonRow]:
    """One ComparisonRow per table row with eta <= spec.domain_end, in table order.

    The model is evaluated once, at exactly those abscissae; the rows past the
    domain are the table's tail and are left out.  The default reference column
    is the last (most refined) one; the model's value is the profile column
    named by the table's quantity.
    """
    column = table.column(reference)
    count = int(np.searchsorted(table.etas, spec.domain_end, side="right"))
    ours = getattr(evaluate_profile(spec, params, table.etas[:count]), table.quantity)
    return [ComparisonRow(eta, value, ref, relative_error(value, ref))
            for eta, value, ref in zip(table.etas.tolist(), ours.tolist(),
                                       column.values.tolist())]
