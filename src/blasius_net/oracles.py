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

import math
from fractions import Fraction

import numpy as np

from .profiles import SolutionProfile

__all__ = [
    "SeriesNotConvergedError",
    "IntegrationError",
    "series_coefficients",
    "series_eval",
    "series_tail_estimate",
    "rk4_profile",
    "shoot",
]

TAIL_TOLERANCE = 1e-9  # truncation gate: |last term| vs |partial sum|
RK4_CHUNK = 1024  # RK4 steps buffered in lists, then stored and checked at once


class SeriesNotConvergedError(RuntimeError):
    """Partial sum rejected: the last term is too large relative to the sum."""


class IntegrationError(RuntimeError):
    """RK4 state stopped being finite, or its far field did not settle."""


def series_coefficients(k_max: int) -> tuple[int, ...]:
    """The integer wall-series coefficients A_0..A_k_max, by the exact recurrence.

    A_0 = A_1 = 1 and
        A_k = sum_{r=0}^{k-1} C(3k-1, 3r) A_r A_{k-r-1}.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
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
        # exact rational prefactor, converted to float once
        prefactor = float(Fraction((-1) ** k * a_k, 2**k * math.factorial(3 * k + 2)))
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


def rk4_profile(sigma0: float, eta_max: float, step: float = 1e-3) -> SolutionProfile:
    """Integrate (f, f', f'') from (0, 0, sigma0) with fixed-step classical RK4.

    Emits a row at every grid point i*step (plus eta_max itself when the step
    does not divide it exactly).
    """
    sigma0 = float(sigma0)
    if not math.isfinite(sigma0) or sigma0 < 0.0:
        raise ValueError("sigma0 must be finite and non-negative")
    if not (math.isfinite(eta_max) and eta_max > 0.0):
        raise ValueError("eta_max must be finite and positive")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and positive")

    n_full = int(math.floor(eta_max / step + 1e-12))
    remainder = eta_max - n_full * step
    has_tail = remainder > 1e-12 * max(1.0, eta_max)
    count = n_full + 1 + (1 if has_tail else 0)

    eta = np.arange(count) * step
    if has_tail:
        eta[-1] = eta_max
    f_col = np.empty(count)
    fp_col = np.empty(count)
    fpp_col = np.empty(count)
    f, g, h = 0.0, 0.0, sigma0
    f_col[0], fp_col[0], fpp_col[0] = f, g, h
    # rows [start, stop) advanced by one step size dt: full-step chunks, then the tail
    blocks = [(row, min(row + RK4_CHUNK, n_full + 1), step)
              for row in range(1, n_full + 1, RK4_CHUNK)]
    if has_tail:
        blocks.append((count - 1, count, remainder))
    for start, stop, dt in blocks:
        half, sixth = 0.5 * dt, dt / 6.0
        fs, gs, hs = [], [], []
        for _ in range(start, stop):
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
        f_col[start:stop] = fs
        fp_col[start:stop] = gs
        fpp_col[start:stop] = hs
        finite = (np.isfinite(f_col[start:stop]) & np.isfinite(fp_col[start:stop])
                  & np.isfinite(fpp_col[start:stop]))
        if not finite.all():
            bad_row = start + int(np.argmin(finite))
            raise IntegrationError(f"state non-finite near eta = {eta[bad_row]}")
    return SolutionProfile(eta=eta, f=f_col, fp=fp_col, fpp=fpp_col)


def _far_slope(sigma0: float, eta_far: float, step: float, tol: float) -> float:
    """f'(eta_far) for the IVP started at curvature sigma0, once |f''(eta_far)| <= tol."""
    profile = rk4_profile(sigma0, eta_far, step)
    curvature = abs(float(profile.fpp[-1]))
    if curvature > tol:
        raise IntegrationError(
            f"far field not settled: |f''({eta_far})| = {curvature:.3e} exceeds tol = {tol:g}")
    return float(profile.fp[-1])


def shoot(eta_far: float = 10.0, tol: float = 1e-10, step: float = 1e-3) -> float:
    """Wall curvature sigma = f''(0) from one unit-curvature RK4 run.

    With lambda = f'(eta_far) of the run started at f''(0) = 1, the solution
    with far slope one is a f(a eta) for a = lambda^(-1/2), whose curvature is
    a^3 = lambda^(-3/2).  tol bounds |f''(eta_far)| of that run: a far field
    that has not settled raises IntegrationError.
    """
    if not (math.isfinite(eta_far) and eta_far >= 8.0):  # NaN fails both
        raise ValueError("eta_far must be finite and at least 8 for a far-field slope to make sense")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and positive")
    return _far_slope(1.0, eta_far, step, tol) ** -1.5
