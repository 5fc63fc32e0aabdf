"""Polynomial potentials and the generalized Moyal evolution operator.

The evolution of a rank-4 quasi-probability field W(x, v, vdot, vddot) under a
potential U(x, v) splits into a first-order transport part and a double series
of higher Weyl corrections,

    [d_t + v d_x + vdot d_v + (vddot - (1/m) dU/dv) d_vdot + (1/m) dU/dx d_vddot] W
      = (1/m) sum_{l>=1} sum_{n=0}^{2l+1} (-1)^{n+l} (hbar2/2m)^{2l} / (n! (2l-n+1)!)
          * [d_x^n d_v^{2l-n+1} U] * [d_vddot^n d_vdot^{2l-n+1} W].

x-gradients of U pair with vddot-gradients of W, v-gradients of U with
vdot-gradients of W. The series terminates for polynomial potentials: only
derivatives up to the polynomial degree survive, so l runs to
floor((deg - 1)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    Array,
    KINEMATIC_ORDER,
    RealField,
    StencilScheme,
    ValidationError,
    _add_product,
    _evaluate,
    _GridView,
    _map_rows,
    _require_axes,
    stencil_halfwidth,
)

__all__ = [
    "PolynomialPotential",
    "MoyalTerm",
    "build_term_table",
    "closure_coefficients",
    "moyal_rhs",
    "transport_lhs",
    "moyal_residual",
    "moyal_residual_slabs",
]


def _canonical_terms(pairs):
    acc: dict[tuple[int, int], float] = {}
    for a, b, c in pairs:
        a = int(a)
        b = int(b)
        c = float(c)
        if a < 0 or b < 0:
            raise ValidationError(f"polynomial exponents must be >= 0, got ({a}, {b})")
        if not np.isfinite(c):
            raise ValidationError("polynomial coefficients must be finite")
        acc[(a, b)] = acc.get((a, b), 0.0) + c
    return tuple((a, b, c) for (a, b), c in sorted(acc.items()) if c != 0.0)


def _powers(x: Array, n: int) -> list:
    """[1, x, x x, x x x, ...] up to x^n, each power the product of the one before it and x.

    x x is bit for bit the np.square(x) that x**2 takes. A higher power rounds
    once per product, so it may differ from x**a (a libm pow, some fifty times
    slower) in the last bit.
    """
    out = [1.0, x]
    for _ in range(n - 1):
        out.append(out[-1] * x)
    return out


@dataclass(frozen=True)
class PolynomialPotential:
    """Finite sum  U(x, v) = sum_ab c_ab x^a v^b  with exact differentiation."""

    terms: tuple[tuple[int, int, float], ...]
    _derivatives: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical_terms(self.terms))

    @classmethod
    def from_text(cls, text: str) -> "PolynomialPotential":
        """Parse the line format '<a> <b> <coeff>'; '#' comments and blanks skipped."""
        terms = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValidationError(f"potential line {lineno}: expected 'a b coeff', got {raw!r}")
            try:
                a, b, c = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ValidationError(f"potential line {lineno}: {exc}") from exc
            terms.append((a, b, c))
        return cls(tuple(terms))

    def to_text(self) -> str:
        return "\n".join(f"{a} {b} {c!r}" for a, b, c in self.terms) + "\n"

    def coefficient(self, a: int, b: int) -> float:
        for ta, tb, c in self.terms:
            if (ta, tb) == (a, b):
                return c
        return 0.0

    @property
    def degree(self) -> int:
        return max((a + b for a, b, _ in self.terms), default=0)

    def degree_in(self, var: str) -> int:
        i = {"x": 0, "v": 1}[var]
        return max((t[i] for t in self.terms), default=0)

    @property
    def v_independent(self) -> bool:
        return all(b == 0 for _, b, _ in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def derivative(self, dx: int = 0, dv: int = 0) -> "PolynomialPotential":
        """Exact d^dx/dx^dx d^dv/dv^dv applied termwise (falling factorials), made once per (dx, dv)."""
        known = self._derivatives.get((dx, dv))
        if known is None:
            known = self._derivatives[(dx, dv)] = self._differentiate(dx, dv)
        return known

    def _differentiate(self, dx: int, dv: int) -> "PolynomialPotential":
        out = []
        for a, b, c in self.terms:
            if a < dx or b < dv:
                continue
            k = c
            for i in range(dx):
                k *= a - i
            for i in range(dv):
                k *= b - i
            out.append((a - dx, b - dv, k))
        return PolynomialPotential(tuple(out))

    def __call__(self, x, v=0.0):
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        xs, vs = _powers(x, self.degree_in("x")), _powers(v, self.degree_in("v"))
        out = np.zeros(np.broadcast(x, v).shape, dtype=np.float64)
        term = np.empty_like(out)
        for a, b, c in self.terms:
            # (c * x^a) * v^b, each factor skipped at a zero power (c * x^0 == c exactly)
            if a:
                np.multiply(xs[a], c, out=term)
                if b:
                    term *= vs[b]
            elif b:
                np.multiply(vs[b], c, out=term)
            else:
                out += c
                continue
            out += term
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MoyalTerm:
    """One series entry: coeff * (exact U-derivative) * d_vddot^n d_vdot^{2l-n+1} W."""

    l: int
    n: int
    coeff: float
    du: PolynomialPotential

    @property
    def vddot_power(self) -> int:
        return self.n

    @property
    def vdot_power(self) -> int:
        return 2 * self.l - self.n + 1


def _coefficient(l: int, n: int, params) -> float:
    """(1/m) (-1)^{n+l} (hbar2/2m)^{2l} / (n! (2l-n+1)!), the weight of series entry (l, n)."""
    ratio = params.hbar2 / (2.0 * params.m)
    return ((-1.0) ** (n + l)) * ratio ** (2 * l) / (
        math.factorial(n) * math.factorial(2 * l - n + 1) * params.m
    )


def build_term_table(u: PolynomialPotential, params) -> tuple[MoyalTerm, ...]:
    """Enumerate the non-vanishing corrections for a polynomial potential.

    Quadratic potentials give an empty table (the dynamics is purely
    transport). Terms are ordered by (l, n) and carry the velocity-form
    coefficient (1/m) (-1)^{n+l} (hbar2/2m)^{2l} / (n! (2l-n+1)!).
    """
    if not isinstance(u, PolynomialPotential):
        raise ValidationError(f"expected PolynomialPotential, got {type(u)!r}")
    lmax = max((u.degree - 1) // 2, 0)
    table = []
    for l in range(1, lmax + 1):
        for n in range(0, 2 * l + 2):
            du = u.derivative(dx=n, dv=2 * l - n + 1)
            if not du.is_zero:
                table.append(MoyalTerm(l, n, _coefficient(l, n, params), du))
    return tuple(table)


def closure_coefficients(u: PolynomialPotential, params, var: str) -> tuple[tuple[int, float, PolynomialPotential], ...]:
    """(l, coeff, d^{2l+1}U/dvar^{2l+1}) for the non-vanishing terms of a closure series.

    coeff = (-1)^l (hbar2/2m)^{2l} / (m (2l+1)!) is the n = 0 weight of the
    correction series, and l runs from 0 to floor((deg_var U - 1)/2). var 'x'
    gives the mean-flux closures, var 'v' the correction series of the
    (x, v, vdot) chain member.
    """
    if not isinstance(u, PolynomialPotential):
        raise ValidationError(f"expected PolynomialPotential, got {type(u)!r}")
    if var not in ("x", "v"):
        raise ValidationError(f"closure series run along 'x' or 'v', got {var!r}")
    terms = []
    for l in range(max((u.degree_in(var) - 1) // 2, 0) + 1):
        du = u.derivative(**{"d" + var: 2 * l + 1})
        if not du.is_zero:
            terms.append((l, _coefficient(l, 0, params), du))
    return tuple(terms)


def _transport(view, u: PolynomialPotential, params, dt_term) -> Array:
    """[d_t + v d_x + vdot d_v + (vddot - (1/m) dU/dv) d_vdot + (1/m) dU/dx d_vddot] W on a view."""
    x, v = view.coord("x"), view.coord("v")
    out = np.zeros(view.shape)
    if dt_term is not None:
        out += view.restrict(dt_term)
    _add_product(out, view.d(x=1), v)
    _add_product(out, view.d(v=1), view.coord("vdot"))
    _add_product(out, view.d(vdot=1), view.coord("vddot") - u.derivative(dv=1)(x, v) / params.m)
    _add_product(out, view.d(vddot=1), u.derivative(dx=1)(x, v) / params.m)
    return out


def _add_series(out: Array, view, table, sign: float) -> Array:
    """out + sign * (the correction series of the module docstring) on a view, from build_term_table, in out."""
    x, v = view.coord("x"), view.coord("v")
    for term in table:
        _add_product(out, view.d(vdot=term.vdot_power, vddot=term.vddot_power), sign * term.coeff * term.du(x, v))
    return out


def _residual(view, u: PolynomialPotential, params, table, dt_term) -> Array:
    return _add_series(_transport(view, u, params, dt_term), view, table, -1.0)


def moyal_rhs(w4, u: PolynomialPotential, params, scheme: StencilScheme, *, points=None):
    """Evaluate the correction series on a grid field or at arbitrary points.

    Parameters
    ----------
    w4 : RealField or PointwiseField
        Rank-4 distribution on (x, v, vdot, vddot). Pointwise mode requires
        `points`, a tuple of four coordinate arrays, and an explicit scheme.h.
    u : PolynomialPotential
    params : PhysParams-like (uses m, hbar2)
    scheme : StencilScheme for the W-derivatives (U-derivatives are exact).

    Returns
    -------
    RealField in grid mode, ndarray of values at `points` otherwise.
    """
    table = build_term_table(u, params)
    return _evaluate(w4, KINEMATIC_ORDER, scheme, points,
                     lambda view: _add_series(np.zeros(view.shape), view, table, 1.0))


def transport_lhs(w4, u: PolynomialPotential, params, scheme: StencilScheme, *,
                  points=None, dt_term=None):
    """First-order streaming part of the evolution operator applied to W.

    dt_term, when given, supplies d_t W on the same support (grid array or
    values at `points`); stationary fields omit it.
    """
    return _evaluate(w4, KINEMATIC_ORDER, scheme, points, lambda view: _transport(view, u, params, dt_term))


def moyal_residual_slabs(w4: RealField, u: PolynomialPotential, params, scheme: StencilScheme, *,
                         dt_term=None):
    """Yield (lo, hi, rows): the grid moyal_residual on x-rows [lo, hi), in order.

    Each block equals the same rows of the dense residual within the stencil
    rounding bound, so a caller can reduce the residual (its max, say) without
    a second dense field. The slab height is set from the field's row size,
    and the slabs are computed on the slab pool, a few ahead of the caller.
    The rows of a W read from a file are dropped from memory behind the caller.
    """
    _require_axes(w4, KINEMATIC_ORDER)
    table = build_term_table(u, params)

    def slab(lo, hi):
        return lo, hi, _residual(_GridView(w4, scheme, lo, hi), u, params, table, dt_term)

    yield from _map_rows(slab, w4.data, stencil_halfwidth(1, scheme.order))  # _transport's d/dx


def moyal_residual(w4, u: PolynomialPotential, params, scheme: StencilScheme, *,
                   points=None, dt_term=None):
    """Transport part minus correction series; zero for an exact solution."""
    table = build_term_table(u, params)
    return _evaluate(w4, KINEMATIC_ORDER, scheme, points,
                     lambda view: _residual(view, u, params, table, dt_term))
