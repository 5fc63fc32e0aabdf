"""Chain continuity equations, mean-flux closures, and dissipation diagnostics.

Each member of the reduction chain (x, v, vdot, vddot) -> (x, v) evolves by a
divergence-form continuity equation whose unresolved flux is the mean of the
next kinematic derivative. The closures are truncated series in the potential,

    <vddot> = (1/m) sum_{l>=0} (-1)^l (hbar2/2m)^{2l} / (2l+1)!
              * d^{2l+1}U/dx^{2l+1} * (1/f) d^{2l}f/dvddot^{2l},

    <vdot>_{12} = sum_{l>=0} (-1)^{l+1} (hbar2/2m)^{2l} / (m (2l+1)!)
              * d^{2l+1}U1/dx^{2l+1} * (1/f) d^{2l}f/dv^{2l},

terminating for polynomial potentials. Mean fluxes can also be extracted
directly from a rank-4 field as m-weighted moment ratios; both routes are
implemented and compared in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Array,
    NumericError,
    PointwiseField,
    RealField,
    StencilScheme,
    ValidationError,
    _max_abs,
    _stencil,
    _x_slabs,
    integrate_axis,
    partial_derivative,
    stencil_halfwidth,
)
from .moyal import PolynomialPotential

__all__ = [
    "FluxField",
    "DissipationReport",
    "mean_flux_from_w4",
    "vlasov_moyal_accel_flux",
    "vlasov_moyal_velocity_flux",
    "accel_flux_124_from_w4",
    "vlasov_residual",
    "divergence_series_gap",
    "dissipation_report",
]

DEFAULT_MASK_THRESHOLD = 1e-8

MOMENT_KINDS = {
    # kind -> (traced axis, axes to pre-reduce)
    "123-accel": ("vddot", ()),
    "124-vel": ("vdot", ()),
    "12-vel": ("vdot", ("vddot",)),
}

RESIDUAL_KINDS = ("chain4", "w123", "w124", "w12")


@dataclass(frozen=True)
class FluxField:
    """A mean-flux field with its support mask.

    values holds the flux where the defining density exceeds
    threshold * peak(density) and 0 elsewhere; mask marks the valid region.
    Masked points are excluded, never clamped.
    """

    kind: str
    values: RealField
    mask: Array
    threshold: float

    def __post_init__(self):
        if self.mask.shape != self.values.data.shape:
            raise ValidationError("flux mask shape does not match values")
        m = np.ascontiguousarray(self.mask, dtype=bool)
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    @property
    def masked_fraction(self) -> float:
        return 1.0 - float(self.mask.sum()) / self.mask.size


def _check_mask_threshold(threshold: float) -> float:
    """Return the threshold if it is finite and in [0, 1); raise ValidationError otherwise.

    Below 0 nothing is masked, and W may be negative, so moment ratios would
    divide by densities near or below zero; at 1 or above the mask is empty.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValidationError(f"mask threshold must be finite and in [0, 1), got {threshold!r}")
    return threshold


def _support_mask(density: Array, threshold: float) -> Array:
    return np.abs(density) >= threshold * _max_abs(density)


def _flux_field(kind: str, axes, num: Array, den: Array, threshold: float) -> FluxField:
    """Moment ratio num / den on the support mask of den, zero elsewhere."""
    mask = _support_mask(den, threshold)
    vals = np.zeros_like(den)
    np.divide(num, den, out=vals, where=mask)
    return FluxField(kind, RealField._trusted(axes, vals), mask, threshold)


def mean_flux_from_w4(w4: RealField, which: str, params, mask_threshold: float = DEFAULT_MASK_THRESHOLD) -> FluxField:
    """Moment-ratio flux extraction from a rank-4 (or reducible) field.

    The flux is the m-weighted first moment along the traced axis divided by
    the m-weighted zeroth moment, masked where the zeroth moment falls below
    mask_threshold times its peak. '12-vel' first reduces the vddot axis.
    Both moments are accumulated one x-slab at a time.
    """
    if which not in MOMENT_KINDS:
        raise ValidationError(f"unknown moment kind {which!r}; expected one of {sorted(MOMENT_KINDS)}")
    _check_mask_threshold(mask_threshold)
    traced, reduce_first = MOMENT_KINDS[which]
    field = w4
    present = {a.name for a in field.axes}
    for name in reduce_first:
        if name in present:
            field = integrate_axis(field, name, weight=params.m)
    k = field.axis_index(traced)
    coord = field.axes[k].points().reshape((-1,) + (1,) * (field.rank - 1 - k))
    scale = params.m * field.axes[k].step
    shape = field.data.shape[:k] + field.data.shape[k + 1 :]
    num, den = np.empty(shape), np.empty(shape)
    # slabs run along axis 0, so they need an axis 0 that is not reduced
    for lo, hi in _x_slabs(field.data) if k else [(0, field.data.shape[0])]:
        rows = field.data[lo:hi]
        num[lo:hi] = (rows * coord).sum(axis=k) * scale
        den[lo:hi] = rows.sum(axis=k) * scale
    return _flux_field(which, field.axes[:k] + field.axes[k + 1 :], num, den, mask_threshold)


def _series_lmax(u: PolynomialPotential, var: str) -> int:
    return max((u.degree_in(var) - 1) // 2, 0)


def _check_positive(f_data: Array, mask: Array, what: str):
    bad = mask & (f_data <= 0.0)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NumericError(f"{what}: density not strictly positive inside mask, first offender at index {idx}")


def _closure_series(f, u, params, scheme, axis_name, coeff_sign, points, mask_threshold, kind):
    """Shared body for the two closure series; differs only in signs and axes."""
    _check_mask_threshold(mask_threshold)
    m, hbar2 = params.m, params.hbar2
    ratio2 = (hbar2 / (2.0 * m)) ** 2
    lmax = _series_lmax(u, "x")
    if isinstance(f, PointwiseField):
        if points is None:
            raise ValidationError("pointwise mode needs evaluation points")
        coords = tuple(np.asarray(c, dtype=np.float64) for c in points)
        x, v = coords[0], (coords[1] if f.rank > 1 else 0.0)
        fvals = f.values(coords)
        if np.any(fvals <= 0.0):
            raise NumericError(f"{kind}: density not strictly positive at the evaluation points")
        out = np.zeros(np.broadcast(*coords).shape, dtype=np.float64)
        for l in range(lmax + 1):
            du = u.derivative(dx=2 * l + 1)
            if du.is_zero:
                continue
            c = coeff_sign(l) * ratio2**l / (m * math.factorial(2 * l + 1))
            if l == 0:
                out += c * du(x, v)
            else:
                powers = [0] * f.rank
                powers[-1] = 2 * l
                out += c * du(x, v) * f.derivative(tuple(powers), coords, scheme) / fvals
        return out
    k = f.axis_index(axis_name)
    mask = _support_mask(f.data, mask_threshold)
    _check_positive(f.data, mask, kind)
    xs = f.axes[0].points().reshape((-1,) + (1,) * (f.rank - 1))
    vi = f.axis_index("v") if any(a.name == "v" for a in f.axes) else None
    vs = 0.0 if vi is None else f.axes[vi].points().reshape((-1,) + (1,) * (f.rank - 1 - vi))
    out = np.zeros_like(f.data)
    for l in range(lmax + 1):
        du = u.derivative(dx=2 * l + 1)
        if du.is_zero:
            continue
        c = coeff_sign(l) * ratio2**l / (m * math.factorial(2 * l + 1))
        if l == 0:
            out += c * du(xs, vs)
        else:
            dfl = partial_derivative(f, axis_name, 2 * l, scheme).data
            term = np.zeros_like(out)
            np.divide(dfl, f.data, out=term, where=mask)
            out += c * du(xs, vs) * term
    out[~mask] = 0.0
    return FluxField(kind, RealField._trusted(f.axes, out), mask, mask_threshold)


def vlasov_moyal_accel_flux(f, u: PolynomialPotential, params, scheme: StencilScheme | None = None, *,
                            points=None, mask_threshold: float = DEFAULT_MASK_THRESHOLD):
    """Series closure for the mean vddot flux of a rank-4 or (x, v, vddot) field.

    In grid mode f's derivative axis is 'vddot' and the result is a FluxField
    on the same axes. In pointwise mode f's last coordinate is the vddot
    direction and flux values at `points` are returned.
    """
    if scheme is None:
        scheme = StencilScheme()
    if isinstance(f, RealField) and all(a.name != "vddot" for a in f.axes):
        raise ValidationError("acceleration closure needs a vddot axis")
    kind = "1234-accel" if f.rank == 4 else "124-accel"
    return _closure_series(f, u, params, scheme, "vddot", lambda l: (-1.0) ** l,
                           points, mask_threshold, kind)


def vlasov_moyal_velocity_flux(f12, u1: PolynomialPotential, params, scheme: StencilScheme | None = None, *,
                               points=None, mask_threshold: float = DEFAULT_MASK_THRESHOLD):
    """Series closure for the mean vdot flux of a reduced (x, v) density."""
    if not u1.v_independent:
        raise ValidationError("velocity closure needs a velocity-independent potential U1(x)")
    if scheme is None:
        scheme = StencilScheme()
    if isinstance(f12, RealField):
        names = tuple(a.name for a in f12.axes)
        if names != ("x", "v"):
            raise ValidationError(f"velocity closure needs axes ('x', 'v'), got {names}")
    return _closure_series(f12, u1, params, scheme, "v", lambda l: (-1.0) ** (l + 1),
                           points, mask_threshold, "12-vel")


def accel_flux_124_from_w4(w4: RealField, u: PolynomialPotential, params, scheme: StencilScheme | None = None,
                           mask_threshold: float = DEFAULT_MASK_THRESHOLD) -> FluxField:
    """Integral route to the (x, v, vddot) acceleration flux.

    Averages the rank-4 series closure over vdot:
    <vddot>_{124} = m Int <vddot>_{1234} w4 dvdot / (m Int w4 dvdot).
    The product <vddot>_{1234} w4 is assembled in series form directly, so no
    division by w4 occurs in the numerator. Both integrals are accumulated
    one x-slab at a time.
    """
    if scheme is None:
        scheme = StencilScheme()
    _check_mask_threshold(mask_threshold)
    names = tuple(a.name for a in w4.axes)
    if names != ("x", "v", "vdot", "vddot"):
        raise ValidationError(f"integral flux route needs the canonical rank-4 axes, got {names}")
    m, hbar2 = params.m, params.hbar2
    ratio2 = (hbar2 / (2.0 * m)) ** 2
    xs = w4.axes[0].points()[:, None, None, None]
    vs = w4.axes[1].points()[None, :, None, None]
    terms = []
    for l in range(_series_lmax(u, "x") + 1):
        du = u.derivative(dx=2 * l + 1)
        if du.is_zero:
            continue
        c = ((-1.0) ** l) * ratio2**l / (m * math.factorial(2 * l + 1))
        terms.append((l, c * du(xs, vs)))
    scale = m * w4.axes[2].step
    shape = w4.data.shape[:2] + w4.data.shape[3:]
    num, den = np.empty(shape), np.empty(shape)
    for lo, hi in _x_slabs(w4.data):
        rows = w4.data[lo:hi]
        product = np.zeros_like(rows)
        for l, coeff in terms:
            dfl = rows if l == 0 else _stencil(rows, 3, w4.axes[3].step, 2 * l, scheme)
            product += coeff[lo:hi] * dfl
        num[lo:hi] = product.sum(axis=2) * scale
        den[lo:hi] = rows.sum(axis=2) * scale
    return _flux_field("124-accel", w4.axes[:2] + w4.axes[3:], num, den, mask_threshold)


# ---------------------------------------------------------------------------
# continuity residuals

def _flux_values_grid(flux, field: RealField) -> Array:
    if isinstance(flux, FluxField):
        return flux.values.data
    if isinstance(flux, RealField):
        return flux.data
    if callable(flux):
        return np.asarray(flux(*field.mesh()), dtype=np.float64)
    return np.asarray(flux, dtype=np.float64)


def _flux_callable(flux):
    if callable(flux):
        return flux
    val = float(flux)
    return lambda *coords: np.full(np.broadcast(*coords).shape, val)


def _axis_coord(field: RealField, name: str) -> Array:
    k = field.axis_index(name)
    return field.axes[k].points().reshape((-1,) + (1,) * (field.rank - 1 - k))


def _expected_axes(kind: str) -> tuple[str, ...]:
    return {
        "chain4": ("x", "v", "vdot", "vddot"),
        "w123": ("x", "v", "vdot"),
        "w124": ("x", "v", "vddot"),
        "w12": ("x", "v"),
    }[kind]


def vlasov_residual(kind: str, f, fluxes, params, scheme: StencilScheme, u: PolynomialPotential | None = None, *,
                    points=None, dt_term=None):
    """Continuity residual of one chain member; zero for an exact solution.

    Parameters
    ----------
    kind : 'chain4', 'w123', 'w124', or 'w12'.
    f : RealField on the member's canonical axes, or PointwiseField with the
        same coordinate order (then `points` is required).
    fluxes : mapping from divergence axis name to the closing flux (FluxField,
        RealField, ndarray, scalar, or callable on the member's coordinates).
        chain4 needs {'vddot'}, w123 {'vdot'}, w124 {'v', 'vddot'}, w12 {'v'}.
    u : potential; required for 'w123', whose correction series
        sum_l (-1)^l (hbar2/2m)^{2l} / (m (2l+1)!) d_v^{2l+1}U d_vdot^{2l+1}W
        is subtracted from the transport side.
    dt_term : optional time-derivative samples for non-stationary fields.
    """
    if kind not in RESIDUAL_KINDS:
        raise ValidationError(f"unknown residual kind {kind!r}; expected one of {RESIDUAL_KINDS}")
    if kind == "w123" and u is None:
        raise ValidationError("'w123' residual needs the potential for its correction series")
    names = _expected_axes(kind)
    missing = [a for a in _required_flux_axes(kind) if a not in fluxes]
    if missing:
        raise ValidationError(f"{kind}: missing fluxes for axes {missing}")
    if isinstance(f, PointwiseField):
        if points is None:
            raise ValidationError("pointwise mode needs evaluation points")
        return _residual_pointwise(kind, f, fluxes, params, scheme, u, points, dt_term)
    got = tuple(a.name for a in f.axes)
    if got != names:
        raise ValidationError(f"{kind}: expected axes {names}, got {got}")
    out = np.zeros_like(f.data)
    if dt_term is not None:
        out += np.asarray(dt_term, dtype=np.float64)
    out += _axis_coord(f, "v") * partial_derivative(f, "x", 1, scheme).data
    if kind in ("chain4", "w123"):
        out += _axis_coord(f, "vdot") * partial_derivative(f, "v", 1, scheme).data
    if kind == "chain4":
        out += _axis_coord(f, "vddot") * partial_derivative(f, "vdot", 1, scheme).data
    for axis in _required_flux_axes(kind):
        g = f.with_data(f.data * _flux_values_grid(fluxes[axis], f))
        out += partial_derivative(g, axis, 1, scheme).data
    if kind == "w123":
        out -= _w123_series_grid(f, u, params, scheme)
    return RealField._trusted(f.axes, out)


def _required_flux_axes(kind: str) -> tuple[str, ...]:
    return {
        "chain4": ("vddot",),
        "w123": ("vdot",),
        "w124": ("v", "vddot"),
        "w12": ("v",),
    }[kind]


def _w123_series_grid(f: RealField, u: PolynomialPotential, params, scheme) -> Array:
    m, hbar2 = params.m, params.hbar2
    ratio2 = (hbar2 / (2.0 * m)) ** 2
    xs = _axis_coord(f, "x")
    vs = _axis_coord(f, "v")
    out = np.zeros_like(f.data)
    for l in range(_series_lmax(u, "v") + 1):
        du = u.derivative(dv=2 * l + 1)
        if du.is_zero:
            continue
        c = ((-1.0) ** l) * ratio2**l / (m * math.factorial(2 * l + 1))
        out += c * du(xs, vs) * partial_derivative(f, "vdot", 2 * l + 1, scheme).data
    return out


def _residual_pointwise(kind, f, fluxes, params, scheme, u, points, dt_term):
    names = _expected_axes(kind)
    if f.rank != len(names):
        raise ValidationError(f"{kind}: pointwise field rank {f.rank} != {len(names)}")
    coords = tuple(np.asarray(c, dtype=np.float64) for c in points)
    pos = {name: i for i, name in enumerate(names)}
    out = np.zeros(np.broadcast(*coords).shape, dtype=np.float64)
    if dt_term is not None:
        out += np.asarray(dt_term, dtype=np.float64)

    def d1(pf, axis_name):
        powers = [0] * len(names)
        powers[pos[axis_name]] = 1
        return pf.derivative(tuple(powers), coords, scheme)

    out += coords[pos["v"]] * d1(f, "x")
    if kind in ("chain4", "w123"):
        out += coords[pos["vdot"]] * d1(f, "v")
    if kind == "chain4":
        out += coords[pos["vddot"]] * d1(f, "vdot")
    for axis in _required_flux_axes(kind):
        flux_fn = _flux_callable(fluxes[axis])
        product = PointwiseField(lambda *c, _fn=flux_fn: f.func(*c) * _fn(*c), f.rank)
        out += d1(product, axis)
    if kind == "w123":
        m, hbar2 = params.m, params.hbar2
        ratio2 = (hbar2 / (2.0 * m)) ** 2
        x, v = coords[0], coords[1]
        for l in range(_series_lmax(u, "v") + 1):
            du = u.derivative(dv=2 * l + 1)
            if du.is_zero:
                continue
            c = ((-1.0) ** l) * ratio2**l / (m * math.factorial(2 * l + 1))
            powers = [0, 0, 2 * l + 1]
            out -= c * du(x, v) * f.derivative(tuple(powers), coords, scheme)
    return out


# ---------------------------------------------------------------------------
# closure equivalence and dissipation

def divergence_series_gap(u1: PolynomialPotential, f4: RealField, params, scheme: StencilScheme,
                          mask_threshold: float = DEFAULT_MASK_THRESHOLD) -> float:
    """Discrepancy between the divergence-form and series-form evolutions.

    Assembles the rank-4 continuity equation with the series closure flux and,
    independently, the transport-plus-correction-series form, using one shared
    discrete derivative (repeated first differences along vddot) so the two
    sides are algebraically identical. Returns max |difference| over the
    support mask, relative to the larger side. Requires a velocity-independent
    potential.
    """
    if not u1.v_independent:
        raise ValidationError("closure equivalence is defined for U1(x) only")
    _check_mask_threshold(mask_threshold)
    names = tuple(a.name for a in f4.axes)
    if names != ("x", "v", "vdot", "vddot"):
        raise ValidationError(f"expected canonical rank-4 axes, got {names}")
    m, hbar2 = params.m, params.hbar2
    ratio2 = (hbar2 / (2.0 * m)) ** 2
    lmax = _series_lmax(u1, "x")

    def d1(arr):
        return partial_derivative(f4.with_data(arr), "vddot", 1, scheme).data

    derivs = [f4.data]
    for _ in range(2 * lmax + 1):
        derivs.append(d1(derivs[-1]))
    xs = _axis_coord(f4, "x")
    transport = (
        _axis_coord(f4, "v") * partial_derivative(f4, "x", 1, scheme).data
        + _axis_coord(f4, "vdot") * partial_derivative(f4, "v", 1, scheme).data
        + _axis_coord(f4, "vddot") * partial_derivative(f4, "vdot", 1, scheme).data
    )
    coeff = [((-1.0) ** l) * ratio2**l / (m * math.factorial(2 * l + 1)) for l in range(lmax + 1)]
    dus = [u1.derivative(dx=2 * l + 1) for l in range(lmax + 1)]
    # side A: transport + d_vddot( sum_l c_l U^(2l+1) d^{2l} f )
    flux_times_f = np.zeros_like(f4.data)
    for l in range(lmax + 1):
        if not dus[l].is_zero:
            flux_times_f += coeff[l] * dus[l](xs) * derivs[2 * l]
    side_a = transport + d1(flux_times_f)
    # side B: transport + force term - correction series
    side_b = transport.copy()
    for l in range(lmax + 1):
        if not dus[l].is_zero:
            side_b += coeff[l] * dus[l](xs) * derivs[2 * l + 1]
    mask = _support_mask(f4.data, mask_threshold)
    scale = max(float(np.abs(side_a[mask]).max()), float(np.abs(side_b[mask]).max()), np.finfo(float).tiny)
    return float(np.abs((side_a - side_b)[mask]).max()) / scale


def _erode(mask: Array, axis: int, w: int) -> Array:
    out = mask.copy()
    n = mask.shape[axis]
    for off in range(1, w + 1):
        for sign in (1, -1):
            shifted = np.zeros_like(mask)
            dst = [slice(None)] * mask.ndim
            src = [slice(None)] * mask.ndim
            if sign > 0:
                dst[axis], src[axis] = slice(off, None), slice(None, n - off)
            else:
                dst[axis], src[axis] = slice(None, n - off), slice(off, None)
            shifted[tuple(dst)] = mask[tuple(src)]
            out &= shifted
    return out


@dataclass(frozen=True)
class DissipationReport:
    """Divergence sources of the reduced members and their entropy balances.

    q* fields are flux divergences; entropy residuals are pi-hat S + sum(Q),
    evaluated on valid masks (support of the density, eroded by the stencil
    halfwidth so no masked or zero-extended sample enters a derivative).
    """

    q2_12: RealField
    q2_124: RealField
    q4_124: RealField
    entropy_residual_12: Array
    entropy_residual_124: Array
    valid_12: Array
    valid_124: Array

    def max_abs_q(self) -> float:
        vals = [
            float(np.abs(self.q2_12.data[self.valid_12]).max()),
            float(np.abs(self.q2_124.data[self.valid_124]).max()),
            float(np.abs(self.q4_124.data[self.valid_124]).max()),
        ]
        return max(vals)

    def max_abs_entropy_residual(self) -> float:
        return max(
            float(np.abs(self.entropy_residual_12[self.valid_12]).max()),
            float(np.abs(self.entropy_residual_124[self.valid_124]).max()),
        )


def dissipation_report(w12: RealField, w124: RealField, fluxes, params, scheme: StencilScheme,
                       mask_threshold: float = DEFAULT_MASK_THRESHOLD) -> DissipationReport:
    """Q sources and entropy transport residuals for the (x,v) and (x,v,vddot) members.

    fluxes maps {'12-vel', '124-vel', '124-accel'} to field-likes on the
    respective member axes. The entropy S = ln W is formed on the support
    mask; stationary solutions satisfy pi-hat S = -sum Q, so the residuals
    measure closure violation.
    """
    for key in ("12-vel", "124-vel", "124-accel"):
        if key not in fluxes:
            raise ValidationError(f"dissipation report needs flux {key!r}")
    _check_mask_threshold(mask_threshold)
    w = stencil_halfwidth(1, scheme.order)
    vel12 = _flux_values_grid(fluxes["12-vel"], w12)
    vel124 = _flux_values_grid(fluxes["124-vel"], w124)
    acc124 = _flux_values_grid(fluxes["124-accel"], w124)

    q2_12 = partial_derivative(w12.with_data(np.broadcast_to(vel12, w12.data.shape).copy()), "v", 1, scheme)
    q2_124 = partial_derivative(w124.with_data(np.broadcast_to(vel124, w124.data.shape).copy()), "v", 1, scheme)
    q4_124 = partial_derivative(w124.with_data(np.broadcast_to(acc124, w124.data.shape).copy()), "vddot", 1, scheme)

    def entropy_residual(dens: RealField, terms, diff_axes):
        mask = _support_mask(dens.data, mask_threshold) & (dens.data > 0.0)
        s = np.zeros_like(dens.data)
        np.log(dens.data, out=s, where=mask)
        sf = dens.with_data(s)
        res = np.zeros_like(s)
        for coeff, axis in terms:
            res += coeff * partial_derivative(sf, axis, 1, scheme).data
        valid = mask.copy()
        for axis in diff_axes:
            valid &= _erode(mask, dens.axis_index(axis), w)
        return res, valid

    pi12, valid12 = entropy_residual(
        w12, ((_axis_coord(w12, "v"), "x"), (vel12, "v")), ("x", "v"))
    pi124, valid124 = entropy_residual(
        w124,
        ((_axis_coord(w124, "v"), "x"), (vel124, "v"), (acc124, "vddot")),
        ("x", "v", "vddot"))
    res12 = pi12 + q2_12.data
    res124 = pi124 + q2_124.data + q4_124.data
    return DissipationReport(q2_12, q2_124, q4_124, res12, res124, valid12, valid124)
