"""Brute-force symbolic enumerations of every truncated series in the package.

These oracles were written first, against the formulas alone, and are kept
deliberately independent of the package internals: sympy differentiates the
potential and the distribution exactly, terms are enumerated one (l, n) pair
at a time, and nothing is shared with the evaluators under test except the
input expressions. Agreement is expected at the 1e-12 relative level when the
evaluators are fed the same exact derivatives.

The oscillator's closed forms are kept here too, as the one-line NumPy
expressions they were first written as, so that a change to the package's
in-place evaluation is compared with something it does not call.

Two structurally different enumerations of the rank-4 correction series exist
on purpose: the velocity-variable form and the momentum-variable form (related
by pdot = m vdot, pddot = m vddot). Their mutual agreement pins down the
m-factor bookkeeping.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import sympy as sp

from phasechain.fields import PointwiseField, stencil_coefficients, stencil_halfwidth

X, V, VDOT, VDDOT = sp.symbols("x v vdot vddot", real=True)
PDOT, PDDOT = sp.symbols("pdot pddot", real=True)

RANK4 = (X, V, VDOT, VDDOT)


def potential_expr(terms) -> sp.Expr:
    """Build sum c * x**a * v**b from (a, b, c) triples (same source as the package type)."""
    return sp.Add(*[sp.Float(c) * X**a * V**b for a, b, c in terms])


def lambdify_field(expr: sp.Expr, symbols):
    """Vectorized numpy callable that always broadcasts to the coordinate shape."""
    fn = sp.lambdify(symbols, expr, "numpy")

    def call(*coords):
        out = np.asarray(fn(*coords), dtype=np.float64)
        shape = np.broadcast(*coords).shape
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    return call


def pointwise_from_expr(expr: sp.Expr, symbols) -> PointwiseField:
    """PointwiseField whose derivatives of any order are sympy-exact."""
    cache: dict = {}

    def exact(powers, *coords):
        fn = cache.get(powers)
        if fn is None:
            d = expr
            for s, k in zip(symbols, powers):
                if k:
                    d = sp.diff(d, s, k)
            fn = lambdify_field(d, symbols)
            cache[powers] = fn
        return fn(*coords)

    return PointwiseField(lambdify_field(expr, symbols), len(symbols), exact_partial=exact)


def _u_degree(u_expr: sp.Expr) -> int:
    p = sp.Poly(sp.expand(u_expr), X, V)
    return int(p.total_degree())


def moyal_series_velocity(u_expr: sp.Expr, w_expr: sp.Expr, m: float, hbar2: float):
    """Double sum over (l, n) in velocity variables:

    (1/m) sum_{l>=1} sum_{n=0}^{2l+1} (-1)^{n+l} (hbar2/2m)^{2l} / (n! (2l-n+1)!)
        * d^n_x d^{2l-n+1}_v U * d^n_vddot d^{2l-n+1}_vdot W
    """
    lmax = max((_u_degree(u_expr) - 1) // 2, 0)
    total = sp.Integer(0)
    for l in range(1, lmax + 1):
        for n in range(0, 2 * l + 2):
            du = sp.diff(u_expr, X, n, V, 2 * l + 1 - n)
            if du == 0:
                continue
            dw = sp.diff(w_expr, VDDOT, n, VDOT, 2 * l + 1 - n)
            coeff = (
                sp.Integer(-1) ** (n + l)
                * (sp.Float(hbar2) / (2 * sp.Float(m))) ** (2 * l)
                / (sp.factorial(n) * sp.factorial(2 * l - n + 1))
                / sp.Float(m)
            )
            total += coeff * du * dw
    return lambdify_field(total, RANK4)


def moyal_series_momentum(u_expr: sp.Expr, w_expr: sp.Expr, m: float, hbar2: float):
    """Same series enumerated in momentum variables, then mapped back.

    With W expressed as a function of (x, v, pdot, pddot) the per-term factor
    is (-1)^{n+l} (hbar2/2)^{2l} / (n! (2l-n+1)!) with no mass anywhere; all
    powers of m return on substituting pdot = m vdot, pddot = m vddot.
    """
    ms = sp.Float(m)
    w_p = w_expr.subs({VDOT: PDOT / ms, VDDOT: PDDOT / ms}, simultaneous=True)
    lmax = max((_u_degree(u_expr) - 1) // 2, 0)
    total = sp.Integer(0)
    for l in range(1, lmax + 1):
        for n in range(0, 2 * l + 2):
            du = sp.diff(u_expr, X, n, V, 2 * l + 1 - n)
            if du == 0:
                continue
            dw = sp.diff(w_p, PDDOT, n, PDOT, 2 * l + 1 - n)
            coeff = (
                sp.Integer(-1) ** (n + l)
                * (sp.Float(hbar2) / 2) ** (2 * l)
                / (sp.factorial(n) * sp.factorial(2 * l - n + 1))
            )
            total += coeff * du * dw
    total = total.subs({PDOT: ms * VDOT, PDDOT: ms * VDDOT}, simultaneous=True)
    return lambdify_field(total, RANK4)


def moyal_series_xonly(u1_expr: sp.Expr, w_expr: sp.Expr, m: float, hbar2: float):
    """Reduction of the double sum for a velocity-independent potential:

    (1/m) sum_{l>=1} (-1)^{l+1} (hbar2/2m)^{2l} / (2l+1)! * d^{2l+1}_x U1 * d^{2l+1}_vddot W
    """
    if sp.diff(u1_expr, V) != 0:
        raise ValueError("x-only series needs a velocity-independent potential")
    lmax = max((_u_degree(u1_expr) - 1) // 2, 0)
    total = sp.Integer(0)
    for l in range(1, lmax + 1):
        du = sp.diff(u1_expr, X, 2 * l + 1)
        if du == 0:
            continue
        coeff = (
            sp.Integer(-1) ** (l + 1)
            * (sp.Float(hbar2) / (2 * sp.Float(m))) ** (2 * l)
            / sp.factorial(2 * l + 1)
            / sp.Float(m)
        )
        total += coeff * du * sp.diff(w_expr, VDDOT, 2 * l + 1)
    return lambdify_field(total, RANK4)


def closure_coefficient(l: int, m: float, hbar2: float) -> sp.Expr:
    """(-1)^l (hbar2/2m)^{2l} / (m (2l+1)!), the weight of term l of the closure series."""
    return (
        sp.Integer(-1) ** l
        * (sp.Float(hbar2) / (2 * sp.Float(m))) ** (2 * l)
        / (sp.Float(m) * sp.factorial(2 * l + 1))
    )


def accel_closure_series(u_expr: sp.Expr, f_expr: sp.Expr, symbols, m: float, hbar2: float):
    """Mean acceleration closure on a member with a vddot axis (last symbol):

    sum_{l>=0} (-1)^l (hbar2/2m)^{2l} / (m (2l+1)!) * d^{2l+1}_x U * (1/f) d^{2l}_vddot f
    """
    lmax = max((_u_degree(u_expr) - 1) // 2, 0)
    total = sp.Integer(0)
    for l in range(0, lmax + 1):
        du = sp.diff(u_expr, X, 2 * l + 1)
        if du == 0:
            continue
        total += closure_coefficient(l, m, hbar2) * du * sp.diff(f_expr, symbols[-1], 2 * l) / f_expr
    return lambdify_field(total, symbols)


def velocity_closure_series(u1_expr: sp.Expr, f_expr: sp.Expr, m: float, hbar2: float):
    """Mean velocity closure of the fully reduced (x, v) member:

    sum_{l>=0} (-1)^{l+1} (hbar2/2m)^{2l} / (m (2l+1)!) * d^{2l+1}_x U1 * (1/f) d^{2l}_v f
    """
    if sp.diff(u1_expr, V) != 0:
        raise ValueError("velocity closure needs a velocity-independent potential")
    lmax = max((_u_degree(u1_expr) - 1) // 2, 0)
    total = sp.Integer(0)
    for l in range(0, lmax + 1):
        du = sp.diff(u1_expr, X, 2 * l + 1)
        if du == 0:
            continue
        total -= closure_coefficient(l, m, hbar2) * du * sp.diff(f_expr, V, 2 * l) / f_expr
    return lambdify_field(total, (X, V))


def w123_correction_series(u_expr: sp.Expr, w_expr: sp.Expr, m: float, hbar2: float):
    """Correction series of the (x, v, vdot) member equation:

    sum_{l>=0} (-1)^l (hbar2/2m)^{2l} / (m (2l+1)!) * d^{2l+1}_v U * d^{2l+1}_vdot W
    """
    lmax = max((_u_degree(u_expr) - 1) // 2, 0)
    total = sp.Integer(0)
    for l in range(0, lmax + 1):
        du = sp.diff(u_expr, V, 2 * l + 1)
        if du == 0:
            continue
        total += closure_coefficient(l, m, hbar2) * du * sp.diff(w_expr, VDOT, 2 * l + 1)
    return lambdify_field(total, (X, V, VDOT))


def pointwise_stencil_sum(func, powers, coords, scheme) -> np.ndarray:
    """The tensor-product stencil sum of PointwiseField.derivative, one offset at a time.

    This is the evaluator as first written: every offset gets freshly shifted
    coordinate arrays and a fresh weighted term. The package reuses its shift
    buffers and must still agree with this loop bit for bit. Only the stencil
    weights come from the package.
    """
    h = scheme.h
    active = [(k, p) for k, p in enumerate(powers) if p > 0]
    tables = [(k, stencil_coefficients(p, scheme.order), stencil_halfwidth(p, scheme.order)) for k, p in active]
    out = np.zeros(np.broadcast(*coords).shape, dtype=np.float64)
    scale = 1.0 / h ** sum(p for _, p in active)
    for offsets in np.ndindex(*[2 * w + 1 for _, _, w in tables]):
        weight = 1.0
        shifted = list(coords)
        for (k, coeffs, w), o in zip(tables, offsets):
            weight *= coeffs[o]
            if weight == 0.0:
                break
            shifted[k] = shifted[k] + (o - w) * h
        if weight == 0.0:
            continue
        out += weight * np.asarray(func(*shifted), dtype=np.float64)
    return out * scale


# ---------------------------------------------------------------------------
# the oscillator's closed forms as one-line expressions

def _on_arrays(expr):
    """expr(*coords, param) on coordinates of at least one dimension, shaped back to their broadcast.

    On a NumPy scalar, t ** 2 is a libm pow, which misrounds about one square
    in a thousand; on an array it is t * t. The package squares by multiplying
    at every shape, so the expressions are evaluated as arrays, and a 0-d
    result comes back as a NumPy scalar.
    """

    @functools.wraps(expr)
    def call(*args):
        *coords, param = args
        coords = [np.asarray(c, dtype=np.float64) for c in coords]
        value = np.asarray(expr(*(np.atleast_1d(c) for c in coords), param)).reshape(np.broadcast(*coords).shape)
        return value if value.ndim else value[()]

    return call


@_on_arrays
def gamma_oneline(x, v, vdot, vddot, w2):
    return (v**2 + w2 * x**2) + (w2 * v - vddot) ** 2 / w2**2 + (w2 * x + vdot) ** 2 / w2


@_on_arrays
def w1234_oneline(x, v, vdot, vddot, p):
    return np.exp(-(p.m / (p.hbar * p.omega)) * gamma_oneline(x, v, vdot, vddot, p.omega**2)) / (math.pi * p.hbar2) ** 2


@_on_arrays
def w123_oneline(x, v, vdot, p):
    w2 = p.omega**2
    amp = math.sqrt(p.m / (math.pi**3 * p.hbar**3 * p.omega**3))
    return amp * np.exp(-(p.m / (p.hbar * p.omega)) * (v**2 + w2 * x**2 + (w2 * x + vdot) ** 2 / w2))


@_on_arrays
def w124_oneline(x, v, vddot, p):
    w2 = p.omega**2
    amp = math.sqrt(p.m * p.omega / (math.pi**3 * p.hbar2**3))
    return amp * np.exp(-(p.m / (p.hbar * p.omega)) * (v**2 + w2 * x**2 + (vddot - w2 * v) ** 2 / w2**2))


@_on_arrays
def w12_oneline(x, v, p):
    return (p.m / (math.pi * p.hbar)) * np.exp(-(p.m / (p.hbar * p.omega)) * (v**2 + p.omega**2 * x**2))
