"""Chain continuity equations, mean-flux closures, and dissipation diagnostics.

Each member of the reduction chain (x, v, vdot, vddot) -> (x, v) evolves by a
divergence-form continuity equation whose unresolved flux is the mean of the
next kinematic derivative. The closures are truncated series in the potential,

    <vddot> = (1/m) sum_{l>=0} (-1)^l (hbar2/2m)^{2l} / (2l+1)!
              * d^{2l+1}U/dx^{2l+1} * (1/f) d^{2l}f/dvddot^{2l},

    <vdot>_{12} = sum_{l>=0} (-1)^{l+1} (hbar2/2m)^{2l} / (m (2l+1)!)
              * d^{2l+1}U1/dx^{2l+1} * (1/f) d^{2l}f/dv^{2l},

terminating for polynomial potentials; their weights are the entries
(l, 2l+1) of moyal's series table, negated, and the continuity residuals are
moyal's one continuity operator. Mean fluxes can also be extracted directly
from a rank-4 field as m-weighted moment ratios; both routes are implemented
and compared in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    DEFAULT_MASK_THRESHOLD,
    Array,
    KINEMATIC_ORDER,
    NumericError,
    PointwiseField,
    RealField,
    StencilScheme,
    ValidationError,
    _add_product,
    _axis_sums,
    _check_mask_threshold,
    _evaluate,
    _grid_slabs,
    _GridView,
    _max_abs,
    _over_slabs,
    _PointView,
    _require_axes,
    _stencil,
    integrate_axis,
    partial_derivative,
    stencil_halfwidth,
)
from .moyal import PolynomialPotential, _continuity, _series_rows, closure_coefficients

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

MOMENT_KINDS = {
    # kind -> (traced axis, axes to pre-reduce)
    "123-accel": ("vddot", ()),
    "124-vel": ("vdot", ()),
    "12-vel": ("vdot", ("vddot",)),
}

MEMBERS = {
    # residual kind -> (the member's axes, the axes whose mean flux closes its equation)
    "chain4": (KINEMATIC_ORDER, ("vddot",)),
    "w123": (("x", "v", "vdot"), ("vdot",)),
    "w124": (("x", "v", "vddot"), ("v", "vddot")),
    "w12": (("x", "v"), ("v",)),
}


@dataclass(frozen=True)
class FluxField:
    """A mean-flux field with its support mask and the density that defines both.

    values holds the flux where the density exceeds threshold * peak(density)
    and 0 elsewhere; mask marks the valid region. Masked points are excluded,
    never clamped. density is the member's density on the same axes: the
    moment ratio's denominator (the m-weighted marginal of the field it was
    taken from), or the closure's input density.
    """

    kind: str
    values: RealField
    mask: Array
    threshold: float
    density: RealField

    def __post_init__(self):
        if self.mask.shape != self.values.data.shape or self.density.axes != self.values.axes:
            raise ValidationError("flux mask or density does not match values")
        m = np.ascontiguousarray(self.mask, dtype=bool)
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    @property
    def masked_fraction(self) -> float:
        return 1.0 - float(self.mask.sum()) / self.mask.size


def _support_mask(density: Array, threshold: float) -> Array:
    return np.abs(density) >= threshold * _max_abs(density)


def _moment_ratio(kind: str, field: RealField, k: int, params, numerator, threshold: float) -> FluxField:
    """(m step sum_k numerator) / (m step sum_k field) on the support mask of the denominator, zero elsewhere.

    numerator(lo, hi) gives the numerator's integrand on the field's x-rows
    [lo, hi); both sums come from one _axis_sums. The denominator is the
    flux's density.
    """
    den, num = _axis_sums(field.data, k, params.m * field.axes[k].step, numerator)
    density = RealField(field.axes[:k] + field.axes[k + 1 :], den)
    mask = _support_mask(den, threshold)
    vals = np.zeros_like(den)
    np.divide(num, den, out=vals, where=mask)
    return FluxField(kind, RealField._trusted(density.axes, vals), mask, threshold, density)


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
    return _moment_ratio(which, field, k, params, lambda lo, hi: field.data[lo:hi] * coord, mask_threshold)


def _closure_series(view, terms, axis: str) -> Array:
    """The closure flux times f on a view: sum over terms (l, c, dU) of c dU d^{2l}f/d axis^{2l}."""
    x, v = view.coord("x"), view.coord("v")
    out = np.zeros(view.shape)
    for l, c, du in terms:
        if l:
            _add_product(out, view.d(**{axis: 2 * l}), c * du(x, v))
        else:  # the first term, if any (terms run from l = 0): f times its weight, written straight into out
            np.multiply(view.values(), c * du(x, v), out=out)
    return out


def _closure_flux(f, members, terms, axis, scheme, points, mask_threshold):
    """A closure series on a grid density (a FluxField) or at the points of a pointwise one (an array).

    members maps the density's rank to (flux kind, axes).
    """
    _check_mask_threshold(mask_threshold)
    if f.rank not in members:
        choices = " or ".join(str(axes) for _, axes in members.values())
        raise ValidationError(f"closure along {axis} needs axes {choices}, got rank {f.rank}")
    kind, axes = members[f.rank]
    scheme = StencilScheme() if scheme is None else scheme
    if isinstance(f, PointwiseField):
        view = _PointView(f, axes, points, scheme)
        density, mask = view.values(), True
    else:
        _require_axes(f, axes)
        density, mask = f.data, _support_mask(f.data, mask_threshold)
    bad = np.argwhere(mask & (density <= 0.0))
    if len(bad):
        raise NumericError(f"{kind}: density not strictly positive where the closure is evaluated, "
                           f"first offender at index {tuple(int(i) for i in bad[0])}")
    if isinstance(f, PointwiseField):
        return _closure_series(view, terms, axis) / density
    out = _over_slabs(f, scheme, lambda view: _closure_series(view, terms, axis))
    np.divide(out, density, out=out, where=mask)
    out[~mask] = 0.0
    return FluxField(kind, RealField._trusted(f.axes, out), mask, mask_threshold, f)


def vlasov_moyal_accel_flux(f, u: PolynomialPotential, params, scheme: StencilScheme | None = None, *,
                            points=None, mask_threshold: float = DEFAULT_MASK_THRESHOLD):
    """Series closure for the mean vddot flux of a rank-4 or (x, v, vddot) density.

    f is a RealField on (x, v, vdot, vddot) or (x, v, vddot), and the result
    is a FluxField on the same axes; or f is a PointwiseField of rank 4 or 3
    with those coordinates, and the flux values at `points` are returned.
    """
    members = {4: ("1234-accel", MEMBERS["chain4"][0]), 3: ("124-accel", MEMBERS["w124"][0])}
    return _closure_flux(f, members, closure_coefficients(u, params, "x"), "vddot", scheme, points, mask_threshold)


def vlasov_moyal_velocity_flux(f12, u1: PolynomialPotential, params, scheme: StencilScheme | None = None, *,
                               points=None, mask_threshold: float = DEFAULT_MASK_THRESHOLD):
    """Series closure for the mean vdot flux of an (x, v) density: a RealField, or a rank-2 PointwiseField.

    Its terms are -1 times those of the acceleration closure.
    """
    if not u1.v_independent:
        raise ValidationError("velocity closure needs a velocity-independent potential U1(x)")
    terms = tuple((l, -c, du) for l, c, du in closure_coefficients(u1, params, "x"))
    return _closure_flux(f12, {2: ("12-vel", MEMBERS["w12"][0])}, terms, "v", scheme, points, mask_threshold)


def accel_flux_124_from_w4(w4: RealField, u: PolynomialPotential, params, scheme: StencilScheme | None = None,
                           mask_threshold: float = DEFAULT_MASK_THRESHOLD) -> FluxField:
    """Integral route to the (x, v, vddot) acceleration flux.

    Averages the rank-4 series closure over vdot:
    <vddot>_{124} = m Int <vddot>_{1234} w4 dvdot / (m Int w4 dvdot).
    The numerator integrates the closure body, <vddot>_{1234} w4, so it never
    divides by w4. Both integrals are accumulated one x-slab at a time.
    """
    scheme = StencilScheme() if scheme is None else scheme
    _check_mask_threshold(mask_threshold)
    _require_axes(w4, KINEMATIC_ORDER)
    terms = closure_coefficients(u, params, "x")
    return _moment_ratio("124-accel", w4, 2, params,
                         lambda lo, hi: _closure_series(_GridView(w4, scheme, lo, hi), terms, "vddot"), mask_threshold)


# ---------------------------------------------------------------------------
# continuity residuals

def _flux_samples(flux):
    """The samples of a FluxField or RealField flux; arrays, scalars and callables pass through."""
    flux = flux.values if isinstance(flux, FluxField) else flux
    return flux.data if isinstance(flux, RealField) else flux


def _flux_values_grid(flux, field: RealField) -> Array:
    flux = _flux_samples(flux)
    return np.asarray(flux(*field.mesh()) if callable(flux) else flux, dtype=np.float64)


def vlasov_residual(kind: str, f, fluxes, params, scheme: StencilScheme, u: PolynomialPotential | None = None, *,
                    points=None, dt_term=None):
    """Continuity residual of one chain member; zero for an exact solution.

    Parameters
    ----------
    kind : 'chain4', 'w123', 'w124', or 'w12'.
    f : RealField on the member's canonical axes, or PointwiseField with the
        same coordinate order (then `points` is required).
    fluxes : mapping from divergence axis name to the closing flux (FluxField,
        RealField, ndarray, scalar, or callable on the member's coordinates;
        pointwise mode takes scalars and callables).
        chain4 needs {'vddot'}, w123 {'vdot'}, w124 {'v', 'vddot'}, w12 {'v'}.
    u : potential; required for 'w123', whose correction series, the series
        entries (l, 0), is subtracted from the transport side.
    dt_term : optional time-derivative samples for non-stationary fields.
    """
    if kind not in MEMBERS:
        raise ValidationError(f"unknown residual kind {kind!r}; expected one of {tuple(MEMBERS)}")
    if kind == "w123" and u is None:
        raise ValidationError("'w123' residual needs the potential for its correction series")
    axes, flux_axes = MEMBERS[kind]
    missing = [a for a in flux_axes if a not in fluxes]
    if missing:
        raise ValidationError(f"{kind}: missing fluxes for axes {missing}")
    closing = [(a, _flux_samples(fluxes[a])) for a in flux_axes]
    rows = tuple(row for row in _series_rows(u, params) if row.n == 0) if kind == "w123" else ()
    return _evaluate(f, axes, scheme, points, lambda view: _continuity(view, closing, rows, dt_term))


# ---------------------------------------------------------------------------
# closure equivalence and dissipation

def divergence_series_gap(u1: PolynomialPotential, f4: RealField, params, scheme: StencilScheme,
                          mask_threshold: float = DEFAULT_MASK_THRESHOLD) -> float:
    """Discrepancy between the divergence-form and series-form evolutions.

    Assembles the rank-4 continuity equation with the series closure flux and,
    independently, the transport-plus-correction-series form, using one shared
    discrete derivative (repeated first differences along vddot) so the two
    sides are algebraically identical. Returns max |difference| over the
    support mask, relative to the larger side, reduced one x-slab at a time.
    Requires a velocity-independent potential.
    """
    if not u1.v_independent:
        raise ValidationError("closure equivalence is defined for U1(x) only")
    _check_mask_threshold(mask_threshold)
    _require_axes(f4, KINEMATIC_ORDER)
    terms = closure_coefficients(u1, params, "x")
    cut = mask_threshold * _max_abs(f4.data)  # the support mask of _support_mask

    def body(view):
        derivs = [view.values()]
        for _ in range(2 * max((l for l, _, _ in terms), default=0) + 1):
            derivs.append(_stencil(derivs[-1], 3, f4.axes[3].step, 1, scheme))
        # side A: transport + d_vddot( sum_l c_l U^(2l+1) d^{2l} f )
        # side B: transport + force term - correction series
        side_a = _continuity(view, (), (), None)
        side_b = side_a.copy()
        flux_times_f = np.zeros(view.shape)
        for l, c, du in terms:
            coeff = c * du(view.coord("x"))
            flux_times_f += coeff * derivs[2 * l]
            side_b += coeff * derivs[2 * l + 1]
        side_a += _stencil(flux_times_f, 3, f4.axes[3].step, 1, scheme)
        mask = np.abs(derivs[0]) >= cut
        return [np.max(np.abs(s), where=mask, initial=0.0) for s in (side_a - side_b, side_a, side_b)]

    # np.max, unlike Python's max, keeps a NaN
    gap, a, b = np.max([maxima for _, _, maxima in _grid_slabs(f4, scheme, body)], axis=0)
    return float(gap) / max(float(a), float(b), np.finfo(float).tiny)


def _erode(mask: Array, axis: int, w: int) -> Array:
    """mask, False wherever a point within w steps along axis is False or off the grid (w <= the axis length)."""
    out = mask.copy()
    src, dst = np.moveaxis(mask, axis, 0), np.moveaxis(out, axis, 0)
    n = len(dst)
    for off in range(1, w + 1):
        dst[off:] &= src[: n - off]
        dst[: n - off] &= src[off:]
    dst[:w] = dst[n - w :] = False
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
        return _max_abs_valid((self.q2_12.data, self.valid_12), (self.q2_124.data, self.valid_124),
                              (self.q4_124.data, self.valid_124))

    def max_abs_entropy_residual(self) -> float:
        return _max_abs_valid((self.entropy_residual_12, self.valid_12),
                              (self.entropy_residual_124, self.valid_124))


def _max_abs_valid(*pairs) -> float:
    """max |data| over the valid points of each (data, valid) pair; NumericError if a valid mask is empty."""
    if not all(valid.any() for _, valid in pairs):
        raise NumericError("no valid points left after masking")
    return max(float(np.abs(data[valid]).max()) for data, valid in pairs)


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
        w12, ((w12.mesh()[w12.axis_index("v")], "x"), (vel12, "v")), ("x", "v"))
    pi124, valid124 = entropy_residual(
        w124,
        ((w124.mesh()[w124.axis_index("v")], "x"), (vel124, "v"), (acc124, "vddot")),
        ("x", "v", "vddot"))
    res12 = pi12 + q2_12.data
    res124 = pi124 + q2_124.data + q4_124.data
    return DissipationReport(q2_12, q2_124, q4_124, res12, res124, valid12, valid124)
