"""Shared numeric helpers for the test suite.

Finite differences are implemented here independently of the package's own
gradcheck module so that analytic derivatives get checked against a second,
separately written numerical scheme.  Likewise the ref_* functions are
scalar, per-point re-derivations of the network and trial-solution
derivatives (per-unit sums and an explicit Leibniz loop), kept as the
reference for the package's batched jet.  read_profile_csv parses the
profile CSVs that the package writes; no command reads them back.
"""

import io
import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from blasius_net.network import NetworkParams
from blasius_net.profiles import CSV_HEADER, SolutionProfile
from blasius_net.trial import envelope_terms, offset_terms

# wall curvature f''(0) of the Blasius profile: Boyd, "The Blasius function
# in the complex plane", Exp. Math. 1999
SIGMA_REF = 0.332057336215196

# finite doubles, with signed zeros, the smallest subnormals, the smallest
# normals and the largest magnitudes drawn often
EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
                sys.float_info.max, -sys.float_info.max]
DOUBLES = st.one_of(st.sampled_from(EDGE_DOUBLES), st.floats(allow_nan=False, allow_infinity=False))


def central_diff(fn, x, step=1e-5):
    """Second-order central difference of a scalar function of one variable."""
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


def random_params(rng, hidden, scale=1.0):
    """NetworkParams with entries drawn uniformly from [-scale, scale)."""
    return NetworkParams(
        rng.uniform(-scale, scale, hidden),
        rng.uniform(-scale, scale, hidden),
        rng.uniform(-scale, scale, hidden),
    )


def perturb(params, group, index, delta):
    """Copy of params with one entry shifted; group 0/1/2 = v/u/w."""
    weights = params.weights.copy()
    weights[group, index] += delta
    return NetworkParams(*weights)


def fd_param_entry(fn, params, group, index, step=1e-6):
    """Central difference of fn(params) with respect to one parameter entry."""
    up = fn(perturb(params, group, index, +step))
    down = fn(perturb(params, group, index, -step))
    return (up - down) / (2.0 * step)


def fd_param_triple(fn, params, step=1e-6):
    """Central-difference gradient of fn(params), one array per group."""
    h = params.hidden_count
    return tuple(
        np.array([fd_param_entry(fn, params, group, i, step) for i in range(h)])
        for group in range(3)
    )


def max_normalized_diff(analytic_triple, numeric_triple, floor=1e-6):
    """Worst per-component difference over the larger vector max-norm."""
    worst = 0.0
    for a, n in zip(analytic_triple, numeric_triple):
        a = np.asarray(a, dtype=float)
        n = np.asarray(n, dtype=float)
        scale = max(np.max(np.abs(a)), np.max(np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n))) / scale)
    return worst


def ref_sigmoid(z, order):
    """k-th derivative of the logistic sigmoid at the scalar z, k in 0..4."""
    s = 0.5 * (1.0 + math.tanh(0.5 * z))
    t = s * (1.0 - s)
    return (s, t, t * (1.0 - 2.0 * s), t * (1.0 - 6.0 * t),
            t * (1.0 - 2.0 * s) * (1.0 - 12.0 * t))[order]


def ref_input_derivative(params, x, order):
    """d^k N / dx^k at x as a per-unit sum of v w^k sigma^(k)(w x + u)."""
    return sum(v * w**order * ref_sigmoid(w * x + u, order)
               for v, u, w in zip(*params.weights.tolist()))


def ref_param_gradient(params, x, order):
    """(v, u, w) gradient of d^k N / dx^k at x, unit by unit."""
    d_v, d_u, d_w = [], [], []
    for v, u, w in zip(*params.weights.tolist()):
        sk = ref_sigmoid(w * x + u, order)
        sk1 = ref_sigmoid(w * x + u, order + 1)
        slope = order * w ** (order - 1) * sk if order else 0.0
        d_v.append(w**order * sk)
        d_u.append(v * w**order * sk1)
        d_w.append(v * (slope + w**order * x * sk1))
    return tuple(np.array(part) for part in (d_v, d_u, d_w))


_BINOM = ((1.0,), (1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 3.0, 3.0, 1.0))


def ref_trial_derivative(spec, params, x, order):
    """k-th derivative of A + F N at x by an explicit Leibniz loop, k in 0..3."""
    a = offset_terms(spec.mode, np.float64(x))
    f = envelope_terms(spec.mode, np.float64(x))
    total = float(a[order])
    for j, coeff in enumerate(_BINOM[order]):
        total += coeff * float(f[j]) * ref_input_derivative(params, x, order - j)
    return total


def ref_trial_param_gradient(spec, params, x, order):
    """(v, u, w) gradient of the k-th trial derivative at x, Leibniz term by term."""
    f = envelope_terms(spec.mode, np.float64(x))
    total = [np.zeros(params.hidden_count) for _ in range(3)]
    for j, coeff in enumerate(_BINOM[order]):
        for acc, part in zip(total, ref_param_gradient(params, x, order - j)):
            acc += coeff * float(f[j]) * part
    return tuple(total)


def read_profile_csv(source) -> SolutionProfile:
    """Parse a profile CSV written by write_profile_csv (comments skipped)."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    rows = []
    header_seen = False
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ValueError(f"line {line_no}: expected header '{CSV_HEADER}', got '{line}'")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"line {line_no}: expected 4 columns, got {len(parts)}")
        rows.append([float(p) for p in parts])
    if not header_seen:
        raise ValueError("missing CSV header")
    if not rows:
        raise ValueError("profile CSV contains no data rows")
    data = np.array(rows)
    return SolutionProfile(eta=data[:, 0], f=data[:, 1], fp=data[:, 2], fpp=data[:, 3])
