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
from dataclasses import dataclass

import numpy as np

from .fields import (
    Array,
    KINEMATIC_ORDER,
    PointwiseField,
    RealField,
    StencilScheme,
    ValidationError,
    _stencil,
    _x_slabs,
)

__all__ = [
    "PolynomialPotential",
    "MoyalTerm",
    "build_term_table",
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


@dataclass(frozen=True)
class PolynomialPotential:
    """Finite sum  U(x, v) = sum_ab c_ab x^a v^b  with exact differentiation."""

    terms: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical_terms(self.terms))

    @classmethod
    def from_dict(cls, mapping) -> "PolynomialPotential":
        return cls(tuple((a, b, c) for (a, b), c in mapping.items()))

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
        """Exact d^dx/dx^dx d^dv/dv^dv applied termwise (falling factorials)."""
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
        out = np.zeros(np.broadcast(x, v).shape, dtype=np.float64)
        for a, b, c in self.terms:
            out += c * x**a * v**b
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


def build_term_table(u: PolynomialPotential, params) -> tuple[MoyalTerm, ...]:
    """Enumerate the non-vanishing corrections for a polynomial potential.

    Quadratic potentials give an empty table (the dynamics is purely
    transport). Terms are ordered by (l, n) and carry the velocity-form
    coefficient (1/m) (-1)^{n+l} (hbar2/2m)^{2l} / (n! (2l-n+1)!).
    """
    if not isinstance(u, PolynomialPotential):
        raise ValidationError(f"expected PolynomialPotential, got {type(u)!r}")
    lmax = max((u.degree - 1) // 2, 0)
    ratio = params.hbar2 / (2.0 * params.m)
    table = []
    for l in range(1, lmax + 1):
        for n in range(0, 2 * l + 2):
            du = u.derivative(dx=n, dv=2 * l - n + 1)
            if du.is_zero:
                continue
            coeff = ((-1.0) ** (n + l)) * ratio ** (2 * l) / (
                math.factorial(n) * math.factorial(2 * l - n + 1) * params.m
            )
            table.append(MoyalTerm(l, n, coeff, du))
    return tuple(table)


def _require_rank4(w4: RealField):
    names = tuple(a.name for a in w4.axes)
    if names != KINEMATIC_ORDER:
        raise ValidationError(f"rank-4 field must have axes {KINEMATIC_ORDER}, got {names}")


def _xv_mesh(w4: RealField):
    x = w4.axes[0].points()[:, None, None, None]
    v = w4.axes[1].points()[None, :, None, None]
    return x, v


def _add_product(out: Array, coef: Array, d: Array):
    """out += coef * d, multiplying the fresh derivative d in place instead of into a temporary."""
    np.multiply(d, coef, out=d)
    out += d


class _GridRows:
    """Transport part and correction series of a grid W, evaluated on x-rows [lo, hi).

    Only d_x couples rows; it reads its stencil-halfwidth neighbours straight
    from W, so a slab costs a few slab-sized temporaries. Coefficient arrays
    are built once on the whole (x, v) grid and sliced, and each derivative is
    multiplied by its coefficient in place. A slab equals the same rows of the
    zero-padded tap-sum evaluation within the stencil rounding bound (see
    fields._apply_stencil_along_axis), whatever the slab height.
    """

    def __init__(self, w4: RealField, u: PolynomialPotential, params, scheme: StencilScheme, dt_term=None):
        _require_rank4(w4)
        m = params.m
        x, v = _xv_mesh(w4)
        vddot = w4.axes[3].points()[None, None, None, :]
        self.w4, self.scheme = w4, scheme
        self.steps = [a.step for a in w4.axes]
        self.v = v
        self.vdot = w4.axes[2].points()[None, None, :, None]
        self.drift = vddot - u.derivative(dv=1)(x, v) / m
        self.force = u.derivative(dx=1)(x, v) / m
        self.dt = None if dt_term is None else np.broadcast_to(np.asarray(dt_term, dtype=np.float64),
                                                               w4.data.shape)
        self.series_terms = [(term, term.coeff * term.du(x, v)) for term in build_term_table(u, params)]

    def _d(self, data: Array, k: int, power: int, lo: int = 0, hi: int | None = None) -> Array:
        return _stencil(data, k, self.steps[k], power, self.scheme, lo, hi)

    def transport(self, lo: int, hi: int) -> Array:
        rows = self.w4.data[lo:hi]
        out = np.zeros(rows.shape)
        if self.dt is not None:
            out += self.dt[lo:hi]
        _add_product(out, self.v, self._d(self.w4.data, 0, 1, lo, hi))
        _add_product(out, self.vdot, self._d(rows, 1, 1))
        _add_product(out, self.drift[lo:hi], self._d(rows, 2, 1))
        _add_product(out, self.force[lo:hi], self._d(rows, 3, 1))
        return out

    def series(self, lo: int, hi: int) -> Array:
        rows = self.w4.data[lo:hi]
        out = np.zeros(rows.shape)
        for term, coeff in self.series_terms:
            dw = self._d(rows, 3, term.vddot_power) if term.vddot_power else rows
            if term.vdot_power:
                dw = self._d(dw, 2, term.vdot_power)
            _add_product(out, coeff[lo:hi], dw)
        return out

    def residual(self, lo: int, hi: int) -> Array:
        out = self.transport(lo, hi)
        out -= self.series(lo, hi)
        return out


def _fill(w4: RealField, rows_fn) -> RealField:
    """Dense field assembled from rows_fn(lo, hi) over the x-slabs of w4."""
    out = np.empty_like(w4.data)
    for lo, hi in _x_slabs(w4.data):
        out[lo:hi] = rows_fn(lo, hi)
    return RealField._trusted(w4.axes, out)


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
    if isinstance(w4, PointwiseField):
        if points is None:
            raise ValidationError("pointwise mode needs points=(x, v, vdot, vddot)")
        x, v = np.asarray(points[0]), np.asarray(points[1])
        out = np.zeros(np.broadcast(*points).shape, dtype=np.float64)
        for term in table:
            dw = w4.derivative((0, 0, term.vdot_power, term.vddot_power), points, scheme)
            out += term.coeff * term.du(x, v) * dw
        return out
    return _fill(w4, _GridRows(w4, u, params, scheme).series)


def transport_lhs(w4, u: PolynomialPotential, params, scheme: StencilScheme, *,
                  points=None, dt_term=None):
    """First-order streaming part of the evolution operator applied to W.

    dt_term, when given, supplies d_t W on the same support (grid array or
    values at `points`); stationary fields omit it.
    """
    if isinstance(w4, PointwiseField):
        if points is None:
            raise ValidationError("pointwise mode needs points=(x, v, vdot, vddot)")
        m = params.m
        du_dx = u.derivative(dx=1)
        du_dv = u.derivative(dv=1)
        x, v, vdot, vddot = (np.asarray(c, dtype=np.float64) for c in points)
        out = np.zeros(np.broadcast(*points).shape, dtype=np.float64)
        if dt_term is not None:
            out += np.asarray(dt_term, dtype=np.float64)
        out += v * w4.derivative((1, 0, 0, 0), points, scheme)
        out += vdot * w4.derivative((0, 1, 0, 0), points, scheme)
        out += (vddot - du_dv(x, v) / m) * w4.derivative((0, 0, 1, 0), points, scheme)
        out += (du_dx(x, v) / m) * w4.derivative((0, 0, 0, 1), points, scheme)
        return out
    return _fill(w4, _GridRows(w4, u, params, scheme, dt_term).transport)


def moyal_residual_slabs(w4: RealField, u: PolynomialPotential, params, scheme: StencilScheme, *,
                         dt_term=None):
    """Yield (lo, hi, rows): the grid moyal_residual on x-rows [lo, hi), in order.

    Each block equals the same rows of the dense residual within the stencil
    rounding bound, so a caller can reduce the residual (its max, say) without
    a second dense field. The slab height is set from the field's row size.
    """
    rows = _GridRows(w4, u, params, scheme, dt_term)
    for lo, hi in _x_slabs(w4.data):
        yield lo, hi, rows.residual(lo, hi)


def moyal_residual(w4, u: PolynomialPotential, params, scheme: StencilScheme, *,
                   points=None, dt_term=None):
    """Transport part minus correction series; zero for an exact solution."""
    if isinstance(w4, PointwiseField):
        lhs = transport_lhs(w4, u, params, scheme, points=points, dt_term=dt_term)
        return lhs - moyal_rhs(w4, u, params, scheme, points=points)
    return _fill(w4, _GridRows(w4, u, params, scheme, dt_term).residual)
