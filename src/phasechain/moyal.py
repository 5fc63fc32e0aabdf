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

The same sum's l = 0 entries are the force terms of the left side, moved
right. So the module holds one table of entries from l = 0 and one operator:
[d_t + v d_x + vdot d_v + vddot d_vdot] W minus a choice of the table's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS
from .fields import (
    Array,
    KINEMATIC_ORDER,
    NumericError,
    RealField,
    StencilScheme,
    ValidationError,
    _add_product,
    _evaluate,
    _finite,
    _grid_slabs,
    _read_table,
    require_axes,
)

__all__ = list(_EXPORTS["moyal"])


def _canonical_terms(pairs):
    acc: dict[tuple[int, int], float] = {}
    for a, b, c in pairs:
        a = int(a)
        b = int(b)
        c = float(c)
        if a < 0 or b < 0:
            raise ValidationError(f"polynomial exponents must be >= 0, got ({a}, {b})")
        c = acc[(a, b)] = acc.get((a, b), 0.0) + c
        if not np.isfinite(c):  # a line's coefficient, or the sum of a repeated term's
            raise ValidationError("polynomial coefficients must be finite")
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
        return cls(_read_table(text, "potential", "'a b coeff'", (int, int, float)))

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
    try:
        coeff = ((-1.0) ** (n + l)) * ratio ** (2 * l) / (math.factorial(n) * math.factorial(2 * l - n + 1) * params.m)
    except OverflowError:
        coeff = math.inf
    if not math.isfinite(coeff):
        raise NumericError(f"the weight of series entry (l, n) = ({l}, {n}) overflows at hbar2/(2m) = {ratio:g}")
    return coeff


def _series_rows(u: PolynomialPotential, params) -> tuple[MoyalTerm, ...]:
    """Every non-vanishing series entry (l, n), ordered by (l, n) from l = 0: the force terms, then the corrections."""
    if not isinstance(u, PolynomialPotential):
        raise ValidationError(f"expected PolynomialPotential, got {type(u)!r}")
    rows = []
    for l in range(max((u.degree - 1) // 2, 0) + 1):
        for n in range(0, 2 * l + 2):
            du = u.derivative(dx=n, dv=2 * l - n + 1)
            if not du.is_zero:
                rows.append(MoyalTerm(l, n, _coefficient(l, n, params), du))
    return tuple(rows)


def build_term_table(u: PolynomialPotential, params) -> tuple[MoyalTerm, ...]:
    """Enumerate the non-vanishing corrections for a polynomial potential.

    Quadratic potentials give an empty table (the dynamics is purely
    transport). Terms are ordered by (l, n) and carry the velocity-form
    coefficient (1/m) (-1)^{n+l} (hbar2/2m)^{2l} / (n! (2l-n+1)!).
    """
    return tuple(row for row in _series_rows(u, params) if row.l)


def closure_coefficients(u: PolynomialPotential, params, var: str) -> tuple[tuple[int, float, PolynomialPotential], ...]:
    """(l, coeff, d^{2l+1}U/dvar^{2l+1}) for the non-vanishing terms of a closure series.

    coeff = (-1)^l (hbar2/2m)^{2l} / (m (2l+1)!), l from 0. var 'v' gives the
    series entries (l, 0), the correction series of the (x, v, vdot) chain
    member; var 'x' the entries (l, 2l+1) negated, the mean-flux closures.
    """
    if var not in ("x", "v"):
        raise ValidationError(f"closure series run along 'x' or 'v', got {var!r}")
    if var == "v":
        return tuple((row.l, row.coeff, row.du) for row in _series_rows(u, params) if row.n == 0)
    return tuple((row.l, -row.coeff, row.du) for row in _series_rows(u, params) if row.n == 2 * row.l + 1)


def _add_series(out: Array, view, rows, sign: float) -> Array:
    """out + sign * (the series of the module docstring, over rows of _series_rows) on a view, in out."""
    for term in rows:
        _add_product(out, view.d(vdot=term.vdot_power, vddot=term.vddot_power),
                     sign * term.coeff * view.potential(term.du))
    return out


def _continuity(view, fluxes, rows, dt_term) -> Array:
    """d_t f + sum_(a, b) b d_a f + sum_a d_a (flux_a f) - the series over rows (of _series_rows), on a view.

    (a, b) runs over the consecutive kinematic pairs of the view's axes and
    fluxes holds (axis, flux) pairs. On a view with vdot and vddot the (0, 0)
    row joins the pair, (vddot - (1/m) dU/dv) d_vdot f, so d_vdot f is taken once.
    """
    fold = bool(rows) and (rows[0].l, rows[0].n) == (0, 0) and {"vdot", "vddot"} <= set(view.names)
    out = np.zeros(view.shape)
    if dt_term is not None:
        out += view.restrict(dt_term)
    for a, b in zip(KINEMATIC_ORDER, KINEMATIC_ORDER[1:]):
        if a in view.names and b in view.names:
            d, coef = view.d(**{a: 1}), view.coord(b)
            if fold and b == "vddot":
                coef = coef - rows[0].coeff * view.potential(rows[0].du)
            _add_product(out, d, coef)
            del d  # else the next pair's derivative is made while this one is still held
    for axis, flux in fluxes:
        out += view.times(flux).d(**{axis: 1})
    return _add_series(out, view, rows[1:] if fold else rows, -1.0)


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
    force = tuple(row for row in _series_rows(u, params) if not row.l)
    return _evaluate(w4, KINEMATIC_ORDER, scheme, points, lambda view: _continuity(view, (), force, dt_term))


def moyal_residual_slabs(w4: RealField, u: PolynomialPotential, params, scheme: StencilScheme, *,
                         dt_term=None):
    """Yield (index, block): the grid moyal_residual on the tile w4.data[index], run-major.

    index is a pair of slices, x-rows and v-rows: a tile is a slab of whole
    x-rows, in x order, or, where one x-row is large, a run of v-rows of one
    x-row; the tiles of one run go down x before the next run starts. Each
    block equals the same points of the dense residual within the stencil
    rounding bound, so a caller can reduce the residual (its max, say) without
    a second dense field. The tiles are sized from the field's row size and
    computed on the slab pool, a few ahead of the caller. The rows of a W read
    from a file are dropped from memory behind the caller. Finite values may
    combine past the float range: a block with a non-finite value raises
    NumericError, and no floating-point warning is left to the caller.
    """
    require_axes(w4, KINEMATIC_ORDER)
    rows = _series_rows(u, params)
    yield from _grid_slabs(w4, scheme, _finite(lambda view: _continuity(view, (), rows, dt_term), lambda top: (
        NumericError(f"the residual is not finite (max|residual| = {top})"))))


def moyal_residual(w4, u: PolynomialPotential, params, scheme: StencilScheme, *,
                   points=None, dt_term=None):
    """Transport part minus correction series; zero for an exact solution."""
    rows = _series_rows(u, params)
    return _evaluate(w4, KINEMATIC_ORDER, scheme, points, lambda view: _continuity(view, (), rows, dt_term))
