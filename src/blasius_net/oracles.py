"""Classical solutions of the flat-plate similarity equation, used as oracles.

Two independent routes to f''' + (1/2) f f'' = 0 with f(0) = f'(0) = 0 and
f'(inf) = 1:

* a wall power series whose integer coefficients A_k obey an exact recurrence,
  valid inside its finite convergence region near the wall;
* fixed-step classical RK4 integration of the initial-value problem, with
  the wall curvature sigma = f''(0) taken from one unit-curvature run by
  Toepfer's scaling: if f solves the equation, so does a f(a eta), with
  curvature a^3 and far slope a^2 times that of f.

The two agree to well below 1e-6 where both apply, which is what makes them
usable as cross-checks for the trained network.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .profiles import CSV_BLOCK, SolutionProfile

__all__ = [
    "SeriesNotConvergedError",
    "IntegrationError",
    "series_coefficients",
    "series_eval",
    "series_tail_estimate",
    "rk4_blocks",
    "rk4_profile",
    "shoot",
]

TAIL_TOLERANCE = 1e-9  # truncation gate: |last term| vs |partial sum|
RK4_MAX_STEPS = 10**6  # admits eta = 100 at the default step 1e-3, T5's last row
# past k = 180 every prefactor (-1)^k A_k / (2^k (3k+2)!) rounds to 0.0 as a
# double, so larger k cannot move a sum; it only costs big-integer work
SERIES_MAX_K = 180


class SeriesNotConvergedError(RuntimeError):
    """Partial sum rejected: the last term is too large relative to the sum."""


class IntegrationError(RuntimeError):
    """RK4 state stopped being finite."""


@functools.cache  # SERIES_MAX_K bounds the keys; a call that raises is not cached
def series_coefficients(k_max: int) -> tuple[int, ...]:
    """The integer wall-series coefficients A_0..A_k_max, by the exact recurrence.

    A_0 = A_1 = 1 and
        A_k = sum_{r=0}^{k-1} C(3k-1, 3r) A_r A_{k-r-1}.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if k_max > SERIES_MAX_K:
        raise ValueError(f"k_max {k_max} exceeds SERIES_MAX_K = {SERIES_MAX_K}: "
                         "past it every prefactor rounds to 0.0")
    a = [1, 1]
    for k in range(2, k_max + 1):
        a.append(sum(math.comb(3 * k - 1, 3 * r) * a[r] * a[k - r - 1] for r in range(k)))
    return tuple(a[: k_max + 1])


def _series_terms(sigma: float, eta: float, k_max: int) -> list[float]:
    if not (math.isfinite(sigma) and math.isfinite(eta) and eta >= 0.0):
        raise ValueError("sigma must be finite, and eta finite and non-negative")
    coefficients = series_coefficients(k_max)
    if eta == 0.0:  # every term is exactly 0; sigma ** (k + 1) alone may overflow
        return [0.0] * len(coefficients)
    terms = []
    for k, a_k in enumerate(coefficients):
        # int / int is correctly rounded: the exact rational prefactor as a double
        prefactor = (-1) ** k * a_k / (2**k * math.factorial(3 * k + 2))
        try:
            term = prefactor * sigma ** (k + 1) * eta ** (3 * k + 2)
        except OverflowError:  # float ** int raises where float * float gives inf
            term = math.inf
        if not math.isfinite(term):
            raise SeriesNotConvergedError(f"series term {k} overflows at eta = {eta}")
        terms.append(term)
    return terms


def series_eval(sigma: float, eta: float, k_max: int) -> float:
    """Partial sum f(eta) = sum_k (-1/2)^k A_k sigma^(k+1) eta^(3k+2) / (3k+2)!.

    Raises SeriesNotConvergedError when a term overflows or the final term
    exceeds 1e-9 of the partial sum in magnitude (the series has a finite
    convergence region; do not trust it far from the wall).
    """
    terms = _series_terms(sigma, eta, k_max)
    total = math.fsum(terms)
    tail = abs(terms[-1])
    if not math.isfinite(total) or tail > TAIL_TOLERANCE * abs(total):
        raise SeriesNotConvergedError(
            f"series tail {tail:.3e} exceeds {TAIL_TOLERANCE:.0e} of |sum| at eta = {eta}")
    return total


def series_tail_estimate(sigma: float, eta: float, k_max: int) -> float:
    """Magnitude of the k_max term: the truncation estimate behind series_eval's gate."""
    return abs(_series_terms(sigma, eta, k_max)[-1])


def rk4_blocks(sigma0: float, eta_max: float, step: float = 1e-3) -> Iterator[SolutionProfile]:
    """Integrate (f, f', f'') from (0, 0, sigma0) with fixed-step classical RK4, block by block.

    The rows are those of rk4_profile, yielded as consecutive SolutionProfile
    blocks of at most CSV_BLOCK rows, so a long grid is never held whole.
    The arguments are checked on the call, before any step; a block is
    yielded once all its rows are finite, so a run whose state stops being
    finite yields the blocks before that one, then raises IntegrationError.
    """
    sigma0 = float(sigma0)
    if not math.isfinite(sigma0) or sigma0 < 0.0:
        raise ValueError("sigma0 must be finite and non-negative")
    if not (math.isfinite(eta_max) and eta_max > 0.0):
        raise ValueError("eta_max must be finite and positive")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and positive")
    steps = eta_max / step  # inf when the quotient overflows
    if steps > RK4_MAX_STEPS:
        raise ValueError(f"eta_max / step asks for {steps:.6g} RK4 steps, "
                         f"over RK4_MAX_STEPS = {RK4_MAX_STEPS}")

    n_full = int(math.floor(steps + 1e-12))
    remainder = eta_max - n_full * step
    has_tail = remainder > 1e-12 * max(1.0, eta_max)
    return _rk4_run(sigma0, eta_max, step, n_full, remainder if has_tail else 0.0)


def _rk4_run(sigma0: float, eta_max: float, step: float, n_full: int,
             tail: float) -> Iterator[SolutionProfile]:
    # (first row, row count, step size) of each block: full steps from row 0,
    # the initial state, then one short step to eta_max itself if tail > 0
    blocks = [(row, min(CSV_BLOCK, n_full + 1 - row), step)
              for row in range(0, n_full + 1, CSV_BLOCK)]
    if tail:
        blocks.append((n_full + 1, 1, tail))
    f, g, h = 0.0, 0.0, sigma0
    for first, count, dt in blocks:
        half, sixth = 0.5 * dt, dt / 6.0
        fs, gs, hs = ([f], [g], [h]) if first == 0 else ([], [], [])
        for _ in range(count - len(fs)):
            # y' = (g, h, -f h / 2), classical four-stage step
            k1 = -0.5 * f * h
            f2, g2, h2 = f + half * g, g + half * h, h + half * k1
            k2 = -0.5 * f2 * h2
            f3, g3, h3 = f + half * g2, g + half * h2, h + half * k2
            k3 = -0.5 * f3 * h3
            f4, g4, h4 = f + dt * g3, g + dt * h3, h + dt * k3
            k4 = -0.5 * f4 * h4
            f, g, h = (f + sixth * (g + 2.0 * g2 + 2.0 * g3 + g4),
                       g + sixth * (h + 2.0 * h2 + 2.0 * h3 + h4),
                       h + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            fs.append(f)
            gs.append(g)
            hs.append(h)
        eta = np.arange(first, first + count) * step
        if first > n_full:  # the short last step ends at eta_max exactly
            eta[-1] = eta_max
        columns = [np.fromiter(values, np.float64, count) for values in (fs, gs, hs)]
        finite = np.isfinite(columns[0]) & np.isfinite(columns[1]) & np.isfinite(columns[2])
        if not finite.all():
            raise IntegrationError(f"state non-finite near eta = {eta[int(np.argmin(finite))]}")
        yield SolutionProfile(eta, *columns)


def rk4_profile(sigma0: float, eta_max: float, step: float = 1e-3) -> SolutionProfile:
    """Integrate (f, f', f'') from (0, 0, sigma0) with fixed-step classical RK4.

    Emits a row at every grid point i*step (plus eta_max itself when the step
    does not divide it exactly): the blocks of rk4_blocks joined.  More than
    RK4_MAX_STEPS steps raise ValueError before anything is allocated.
    """
    blocks = list(rk4_blocks(sigma0, eta_max, step))
    return SolutionProfile(*(np.concatenate([getattr(block, name) for block in blocks])
                             for name in ("eta", "f", "fp", "fpp")))


def _far_slope(sigma0: float, eta_far: float, step: float) -> float:
    """f'(eta_far) for the IVP started at curvature sigma0, one block of rows held at a time."""
    for block in rk4_blocks(sigma0, eta_far, step):
        pass
    return float(block.fp[-1])


@functools.cache  # sigma is a constant: the first call's run serves the whole process
def shoot() -> float:
    """Wall curvature sigma = f''(0) from one unit-curvature RK4 run to eta = 10, step 1e-3.

    With lambda = f'(10) of the run started at f''(0) = 1, the solution with
    far slope one is a f(a eta) for a = lambda^(-1/2), whose curvature is
    a^3 = lambda^(-3/2).  The run's far field has settled: |f''(10)| =
    1.9e-18, so a longer run gives the same sigma to the bit.  The run is
    made once per process; shoot.cache_clear() makes the next call run it.
    """
    return _far_slope(1.0, 10.0, 1e-3) ** -1.5
