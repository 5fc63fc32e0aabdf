"""Closed-form harmonic-oscillator reference solution.

A damped-oscillator mode pair with quantum numbers (1, 2) admits closed forms
for the rank-2 wave function, the potential that makes it an exact solution,
and every joint quasi-probability built from it. Everything here is exact
(up to float evaluation) and serves as the oracle the numerical layers are
validated against.

The second-kind action constant hbar2 must satisfy hbar2 = hbar * omega^2 for
these forms to close; the constructor default enforces it.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .fields import Array, PointwiseField, ValidationError
from .moyal import PolynomialPotential

__all__ = list(_EXPORTS["oscillator"])

FLUX_KINDS = ("123-accel", "124-accel", "1234-accel", "124-vel", "12-vel")


@dataclass(frozen=True)
class PhysParams:
    """Mass, the two action constants, and the two mode frequencies.

    Omitted fields take the oscillator-consistent defaults omega2 = omega,
    hbar2 = hbar * omega^2, e12 = hbar2 * omega2 / 2.
    """

    m: float = 1.0
    hbar: float = 1.0
    omega: float = 1.0
    hbar2: float | None = None
    omega2: float | None = None
    e12: float | None = None

    def __post_init__(self):
        if self.omega2 is None:
            object.__setattr__(self, "omega2", float(self.omega))
        if self.hbar2 is None:  # inf is refused below
            object.__setattr__(self, "hbar2", _hbar_omega2(self.hbar, self.omega))
        if self.e12 is None:
            object.__setattr__(self, "e12", float(self.hbar2) * float(self.omega2) / 2.0)
        for name in ("m", "hbar", "omega", "hbar2", "omega2"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValidationError(f"{name} must be positive and finite, got {val}")
        if not np.isfinite(self.e12):
            raise ValidationError(f"e12 must be finite, got {self.e12}")

    @property
    def ho_consistent(self) -> bool:
        ref = _hbar_omega2(self.hbar, self.omega)
        return math.isfinite(ref) and abs(self.hbar2 - ref) <= 1e-12 * ref


def _hbar_omega2(hbar: float, omega: float) -> float:
    """hbar * omega^2, or inf where it overflows (float ** raises OverflowError where * gives inf)."""
    try:
        return float(hbar) * float(omega) ** 2
    except OverflowError:
        return math.inf


def _omega_guard(func):
    """func, refusing a float power's OverflowError as a ValidationError naming omega (and hbar2, given p)."""
    signature = inspect.signature(func)

    @functools.wraps(func)
    def guarded(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except OverflowError:
            bound = signature.bind(*args, **kwargs).arguments
            p = bound.get("p")
            names = f"omega = {p.omega:g} or hbar2 = {p.hbar2:g}" if p else f"omega = {bound['omega']:g}"
            raise ValidationError(f"{names} is too large: a float power overflows") from None
    return guarded


@_omega_guard
def _require_consistent(p: PhysParams):
    if not p.ho_consistent:
        raise ValidationError(
            f"oscillator closed forms need hbar2 = hbar*omega^2; got hbar2={p.hbar2}, "
            f"hbar*omega^2={p.hbar * p.omega**2}"
        )
    # raises OverflowError where omega^4 overflows; NumPy would square the exponent groups to inf instead
    p.omega**4


def psi12(x, v, t: float, p: PhysParams) -> Array:
    """Rank-2 mode wave function on extended configuration space (x, v).

    psi(x, v, t) = sqrt(m / (pi hbar))
                   * exp[-(1/(hbar omega)) (m v^2/2 + m omega^2 x^2/2)]
                   * exp[-i (m omega^2 x v / hbar2 + E t / hbar2)]
    """
    if not math.isfinite(p.omega * p.omega * p.m):  # where float ** below would raise OverflowError
        raise ValidationError(f"omega = {p.omega:g} is too large: m*omega^2 overflows")
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    amp = math.sqrt(p.m / (math.pi * p.hbar))
    gauss = np.exp(-(p.m * v**2 / 2.0 + p.m * p.omega**2 * x**2 / 2.0) / (p.hbar * p.omega))
    phase = np.exp(-1j * (p.m * p.omega**2 * x * v / p.hbar2 + p.e12 * t / p.hbar2))
    return amp * gauss * phase


@_omega_guard
def u12_polynomial(p: PhysParams) -> PolynomialPotential:
    """The exact rank-2 potential as a polynomial in (x, v).

    U(x, v) = E - hbar2^2/(2 hbar omega)
              + m omega^2 (1 + hbar2^2/(2 hbar^2 omega^4)) v^2
              - (1/2) m omega^4 x^2
    """
    c00 = p.e12 - p.hbar2**2 / (2.0 * p.hbar * p.omega)
    c02 = p.m * p.omega**2 * (1.0 + p.hbar2**2 / (2.0 * p.hbar**2 * p.omega**4))
    c20 = -0.5 * p.m * p.omega**4
    return PolynomialPotential(((0, 0, c00), (0, 2, c02), (2, 0, c20)))


@dataclass(frozen=True)
class GammaForm:
    """The positive quadratic form in the rank-4 Gaussian exponent, with its gradient."""

    value: Array
    d_x: Array
    d_v: Array
    d_vdot: Array
    d_vddot: Array


# The closed forms build each group of their exponent in one fresh array of the broadcast shape of
# that group's operands and finish it in place, with the written formula's operations in its order.
# Squares are products (np.square), never pow. Only the sum of the groups takes the full shape.

def _fresh(*operands) -> Array:
    return np.empty(np.broadcast(*operands).shape)


def _add(a: Array, b: Array) -> Array:
    """a + b, written into whichever of the fresh arrays a, b already has the sum's shape."""
    shape = np.broadcast(a, b).shape
    return np.add(a, b, out=a if a.shape == shape else b if b.shape == shape else None)


def _energy(x, v, w2) -> Array:
    """v^2 + w2 x^2."""
    out = np.square(x, out=_fresh(x, v))
    out *= w2
    out += np.square(v)
    return out


def _group(w2, a, combine, b, scale) -> Array:
    """combine(w2 a, b)^2 / scale, for combine np.add or np.subtract."""
    out = np.multiply(w2, a, out=_fresh(a, b))
    combine(out, b, out=out)
    np.square(out, out=out)
    out /= scale
    return out


def _gaussian(expo: Array, rate: float, amp: float) -> Array:
    """amp * exp(-rate * expo), in place on the fresh expo; a 0-d result as a NumPy scalar."""
    np.multiply(expo, -rate, out=expo)
    np.exp(expo, out=expo)
    expo *= amp
    return expo if expo.ndim else expo[()]


def _amplitude(numerator: float, denominator: float, what: str) -> float:
    """sqrt(numerator / denominator), a closed form's amplitude; a ValidationError naming `what` where it overflows.

    A denominator that underflows to 0 raises ZeroDivisionError, and a tiny
    nonzero one gives an infinite quotient: both are refused.
    """
    try:
        amp = math.sqrt(numerator / denominator)
    except ZeroDivisionError:
        amp = math.inf
    if not amp < math.inf:
        raise ValidationError(f"{what} is too small: the amplitude overflows")
    return amp


def _gamma_value(x, v, vdot, vddot, w2) -> Array:
    """(v^2 + w2 x^2) + (w2 v - vddot)^2 / w2^2 + (w2 x + vdot)^2 / w2, as a fresh array."""
    return _add(_add(_energy(x, v, w2), _group(w2, v, np.subtract, vddot, w2**2)),
                _group(w2, x, np.add, vdot, w2))


def _gamma_partial(k: int, x, v, vdot, vddot, w2):
    """The partial of gamma along axis k of (x, v, vdot, vddot)."""
    if k == 0:
        return 4.0 * w2 * x + 2.0 * vdot
    if k == 1:
        return 4.0 * v - 2.0 * vddot / w2
    if k == 2:
        return 2.0 * x + 2.0 * vdot / w2
    return -2.0 * v / w2 + 2.0 * vddot / w2**2


@_omega_guard
def gamma_form(x, v, vdot, vddot, omega: float) -> GammaForm:
    """gamma = (v^2 + w^2 x^2) + (w^2 v - vddot)^2 / w^4 + (w^2 x + vdot)^2 / w^2."""
    coords = tuple(np.asarray(c, dtype=np.float64) for c in (x, v, vdot, vddot))
    w2 = omega**2
    value = _gamma_value(*coords, w2)
    return GammaForm(value if value.ndim else value[()], *(_gamma_partial(k, *coords, w2) for k in range(4)))


def gamma_transport_residual(x, v, vdot, vddot, omega: float) -> Array:
    """Directional derivative of gamma along the oscillator characteristics.

    v gamma_x + vdot gamma_v + (vddot - 3 w^2 v) gamma_vdot - w^4 x gamma_vddot
    vanishes identically; evaluating it measures only rounding error.
    """
    g = gamma_form(x, v, vdot, vddot, omega)
    w2 = omega**2
    v = np.asarray(v, dtype=np.float64)
    vdot = np.asarray(vdot, dtype=np.float64)
    vddot = np.asarray(vddot, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return v * g.d_x + vdot * g.d_v + (vddot - 3.0 * w2 * v) * g.d_vdot - w2**2 * x * g.d_vddot


@_omega_guard
def w1234_analytic(x, v, vdot, vddot, p: PhysParams) -> Array:
    """Joint quasi-probability over (x, v, vdot, vddot); peak 1/pi^2 at the origin."""
    _require_consistent(p)
    try:
        peak = 1.0 / (math.pi * float(p.hbar2)) ** 2
    except ZeroDivisionError:  # (pi hbar2)^2 underflows to 0
        peak = math.inf
    if peak == math.inf:
        raise ValidationError(f"hbar2 = {p.hbar2:g} is too small: the peak 1/(pi hbar2)^2 overflows")
    value = _gamma_value(*(np.asarray(c, dtype=np.float64) for c in (x, v, vdot, vddot)), p.omega**2)
    # exp(-(s) value) / (pi hbar2)^2, each step in place on the fresh value array
    np.multiply(value, -(p.m / (p.hbar * p.omega)), out=value)
    np.exp(value, out=value)
    value /= (math.pi * p.hbar2) ** 2
    return value if value.ndim else value[()]


@_omega_guard
def w123_analytic(x, v, vdot, p: PhysParams) -> Array:
    """Marginal over vddot; peak pi^{-3/2} at the origin."""
    _require_consistent(p)
    x, v, vdot = (np.asarray(c, dtype=np.float64) for c in (x, v, vdot))
    w2 = p.omega**2
    expo = _add(_energy(x, v, w2), _group(w2, x, np.add, vdot, w2))
    amp = _amplitude(p.m, math.pi**3 * p.hbar**3 * p.omega**3,
                     f"hbar = {p.hbar:g} at omega = {p.omega:g}, in sqrt(m / (pi^3 hbar^3 omega^3)),")
    return _gaussian(expo, p.m / (p.hbar * p.omega), amp)


@_omega_guard
def w124_analytic(x, v, vddot, p: PhysParams) -> Array:
    """Marginal over vdot; same peak as the vddot marginal."""
    _require_consistent(p)
    x, v, vddot = (np.asarray(c, dtype=np.float64) for c in (x, v, vddot))
    w2 = p.omega**2
    # (w2 v - vddot)^2 is (vddot - w2 v)^2 bit for bit: a rounded difference only changes sign when swapped
    expo = _add(_energy(x, v, w2), _group(w2, v, np.subtract, vddot, w2**2))
    amp = _amplitude(p.m * p.omega, math.pi**3 * p.hbar2**3, f"hbar2 = {p.hbar2:g}, in sqrt(m omega / (pi^3 hbar2^3)),")
    return _gaussian(expo, p.m / (p.hbar * p.omega), amp)


@_omega_guard
def w12_analytic(x, v, p: PhysParams) -> Array:
    """Fully reduced density |psi|^2 = (m / pi hbar) exp[-(m/hbar omega)(v^2 + w^2 x^2)]."""
    x, v = (np.asarray(c, dtype=np.float64) for c in (x, v))
    return _gaussian(_energy(x, v, p.omega**2), p.m / (p.hbar * p.omega), p.m / (math.pi * p.hbar))


@_omega_guard
def mean_flux_analytic(which: str, x, v, p: PhysParams) -> Array:
    """Closed-form mean kinematic fluxes of the oscillator solution.

    '123-accel' -> omega^2 v, '124-accel' and '1234-accel' -> -omega^4 x,
    '124-vel' and '12-vel' -> -omega^2 x.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if which == "123-accel":
        return p.omega**2 * v
    if which in ("124-accel", "1234-accel"):
        return -(p.omega**4) * x
    if which in ("124-vel", "12-vel"):
        return -(p.omega**2) * x
    raise ValidationError(f"unknown flux kind {which!r}; expected one of {FLUX_KINDS}")


def radiation_power(x, v, u1: PolynomialPotential, p: PhysParams):
    """Instantaneous power N = v dU1/dx fed into the mode, and (1/m) dN/dx.

    The second value equals the mean acceleration flux of the vddot marginal
    for the oscillator potential, giving an independent route to it. u1 must
    not depend on v.
    """
    if not u1.v_independent:
        raise ValidationError("radiation power needs a velocity-independent potential U1(x)")
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = v * u1.derivative(dx=1)(x)
    dn_over_m = v * u1.derivative(dx=2)(x) / p.m
    return n, dn_over_m


# ---------------------------------------------------------------------------
# pointwise wrappers for residual evaluation off the grid

def w1234_field(p: PhysParams, exact_derivatives: bool = True) -> PointwiseField:
    """Rank-4 oscillator field; first partials optionally exact via the chain rule."""
    _require_consistent(p)
    scale = p.m / (p.hbar * p.omega)

    def func(x, v, vdot, vddot):
        return w1234_analytic(x, v, vdot, vddot, p)

    if not exact_derivatives:
        return PointwiseField(func, 4)

    def exact_partial(powers, x, v, vdot, vddot):
        if sorted(powers) != [0, 0, 0, 1]:
            return None
        value = w1234_analytic(x, v, vdot, vddot, p)  # first, so that it refuses an omega whose powers overflow
        return -scale * _gamma_partial(powers.index(1), x, v, vdot, vddot, p.omega**2) * value

    return PointwiseField(func, 4, exact_partial=exact_partial)


def w123_field(p: PhysParams) -> PointwiseField:
    """The (x, v, vdot) oscillator marginal w123_analytic as a rank-3 PointwiseField."""
    return PointwiseField(lambda x, v, vdot: w123_analytic(x, v, vdot, p), 3)


def w124_field(p: PhysParams) -> PointwiseField:
    """The (x, v, vddot) oscillator marginal w124_analytic as a rank-3 PointwiseField."""
    return PointwiseField(lambda x, v, vddot: w124_analytic(x, v, vddot, p), 3)


def w12_field(p: PhysParams) -> PointwiseField:
    """The (x, v) oscillator density w12_analytic as a rank-2 PointwiseField."""
    return PointwiseField(lambda x, v: w12_analytic(x, v, p), 2)
