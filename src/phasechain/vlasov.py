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
and compared in the tests. A moment pass sums every numerator over one shared
denominator, and one helper builds each member's dissipation balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
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
    _assemble,
    _axes_of,
    _axis_index,
    _axis_sums,
    _evaluate,
    _finite,
    _grid_slabs,
    _PointView,
    _stencil,
    check_mask_threshold,
    integrate_axis,
    partial_derivative,
    require_axes,
    stencil_halfwidth,
)
from .moyal import PolynomialPotential, _continuity, _series_rows, closure_coefficients

__all__ = list(_EXPORTS["vlasov"])

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


def _support_mask(density: RealField, threshold: float) -> Array:
    """|density| >= threshold * density.peak and > 0, an x-row at a time in one buffer: no scan, no temporary."""
    cut, rows = max(threshold * density.peak, math.ulp(0.0)), density.data.reshape(len(density.data), -1)
    mask, buffer = np.empty(rows.shape, dtype=bool), np.empty(rows.shape[1])
    for row, out in zip(rows, mask):
        np.greater_equal(np.abs(row, out=buffer), cut, out=out)
    return mask.reshape(density.data.shape)


def _masked_ratio(kind: str, num: Array, density: RealField, mask: Array, threshold: float) -> FluxField:
    """num / density on mask and 0 elsewhere, as a FluxField (num is overwritten); NumericError unless it is finite."""
    with np.errstate(over="ignore"):
        np.divide(num, density.data, out=num, where=mask)
    num[~mask] = 0.0
    values = RealField._trusted(density.axes, num)
    if not math.isfinite(values.peak):
        raise NumericError(f"{kind}: the flux leaves the float range (max|flux| = {values.peak})")
    return FluxField(kind, values, mask, threshold, density)


def _moment_ratio(field, axis: str, params, threshold: float, scheme: StencilScheme, *numerators) -> list:
    """(m step sum numerator) / (m step sum field) along `axis` for each (kind, numerator), from one _axis_sums.

    field is a field or a stream (see integrate_axis), and each numerator a
    body on views of it, on the given scheme. The fluxes share the
    denominator as their density, and its support mask.
    """
    axes = _axes_of(field)
    k = _axis_index(axes, axis)
    den, *nums = _axis_sums(field, k, params.m * axes[k].step, scheme, *(num for _, num in numerators))
    density = RealField(axes[:k] + axes[k + 1 :], den)
    mask = _support_mask(density, threshold)
    return [_masked_ratio(kind, num, density, mask, threshold) for (kind, _), num in zip(numerators, nums)]


def _first_moment(axis: str):
    """The body of the first moment along an axis: the field times that axis' coordinate, on a view."""
    return lambda view: view.values() * view.coord(axis)


def mean_flux_from_w4(w4, which: str, params, mask_threshold: float = DEFAULT_MASK_THRESHOLD) -> FluxField:
    """Moment-ratio flux extraction from a rank-4 (or reducible) field, or a stream of its tiles.

    The flux is the m-weighted first moment along the traced axis divided by
    the m-weighted zeroth moment, masked where the zeroth moment falls below
    mask_threshold times its peak; a zero density is always masked. '12-vel'
    first reduces the vddot axis. Both moments are accumulated one tile at a
    time, on the calling thread. w4 may be a stream, an (axes, tiles) pair
    such as wigner.transform_rows returns, whose tiles are read once as they
    arrive: the flux is the same bits as the assembled field's. A flux that
    is not finite (over a tiny density, say) raises NumericError.
    """
    if which not in MOMENT_KINDS:
        raise ValidationError(f"unknown moment kind {which!r}; expected one of {sorted(MOMENT_KINDS)}")
    check_mask_threshold(mask_threshold)
    traced, reduce_first = MOMENT_KINDS[which]
    field = w4
    present = {a.name for a in _axes_of(field)}
    for name in reduce_first:
        if name in present:
            field = integrate_axis(field, name, weight=params.m)
    return _moment_ratio(field, traced, params, mask_threshold, StencilScheme(), (which, _first_moment(traced)))[0]


def _closure_series(view, terms, axis: str) -> Array:
    """The closure flux times f on a view: sum over terms (l, c, dU) of c dU d^{2l}f/d axis^{2l}."""
    out = np.zeros(view.shape)
    for l, c, du in terms:
        if l:
            _add_product(out, view.d(**{axis: 2 * l}), c * view.potential(du))
        else:  # the first term, if any (terms run from l = 0): f times its weight, written straight into out
            np.multiply(view.values(), c * view.potential(du), out=out)
    return out


def _closure_flux(f, members, terms, axis, scheme, points, mask_threshold):
    """A closure series on a grid density (a FluxField) or at the points of a pointwise one (an array).

    members maps the density's rank to (flux kind, axes).
    """
    check_mask_threshold(mask_threshold)
    if f.rank not in members:
        choices = " or ".join(str(axes) for _, axes in members.values())
        raise ValidationError(f"closure along {axis} needs axes {choices}, got rank {f.rank}")
    kind, axes = members[f.rank]
    scheme = StencilScheme() if scheme is None else scheme
    if isinstance(f, PointwiseField):
        view = _PointView(f, axes, points, scheme)
        density, mask = view.values(), True
    else:
        require_axes(f, axes)
        density, mask = f.data, _support_mask(f, mask_threshold)
    bad = np.argwhere(mask & (density <= 0.0))
    if len(bad):
        raise NumericError(f"{kind}: density not strictly positive where the closure is evaluated, "
                           f"first offender at index {tuple(int(i) for i in bad[0])}")
    if isinstance(f, PointwiseField):
        return _closure_series(view, terms, axis) / density
    body = _finite(lambda view: _closure_series(view, terms, axis))
    return _masked_ratio(kind, _assemble(f.data.shape, _grid_slabs(f, scheme, body)), f, mask, mask_threshold)


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


def _closure_moment(u: PolynomialPotential, params):
    """The integrand of the closure body <vddot>_{1234} w4 on a rank-4 view, for a vdot moment."""
    terms = closure_coefficients(u, params, "x")
    return lambda view: _closure_series(view, terms, "vddot")


def accel_flux_124_from_w4(w4, u: PolynomialPotential, params, scheme: StencilScheme | None = None,
                           mask_threshold: float = DEFAULT_MASK_THRESHOLD) -> FluxField:
    """Integral route to the (x, v, vddot) acceleration flux.

    Averages the rank-4 series closure over vdot:
    <vddot>_{124} = m Int <vddot>_{1234} w4 dvdot / (m Int w4 dvdot).
    The numerator integrates the closure body, <vddot>_{1234} w4, so it never
    divides by w4. Both integrals are accumulated one tile at a time, on
    the calling thread. w4 is a rank-4 field or a stream of its tiles, and
    the mask is made, as for mean_flux_from_w4.
    """
    check_mask_threshold(mask_threshold)
    require_axes(w4, KINEMATIC_ORDER)
    scheme = StencilScheme() if scheme is None else scheme
    return _moment_ratio(w4, "vdot", params, mask_threshold, scheme, ("124-accel", _closure_moment(u, params)))[0]


# ---------------------------------------------------------------------------
# continuity residuals

def _flux_samples(flux):
    """The samples of a FluxField or RealField flux; arrays, scalars and callables pass through."""
    flux = flux.values if isinstance(flux, FluxField) else flux
    return flux.data if isinstance(flux, RealField) else flux


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
    missing = [a for a in MEMBERS[kind][1] if a not in fluxes]
    if missing:
        raise ValidationError(f"{kind}: missing fluxes for axes {missing}")
    return _evaluate(f, MEMBERS[kind][0], scheme, points, _member_body(kind, fluxes, params, u, dt_term))


def _member_body(kind: str, fluxes, params, u, dt_term):
    """The body of a member's continuity residual on a view: its closing fluxes, and w123's correction series."""
    closing = [(a, _flux_samples(fluxes[a])) for a in MEMBERS[kind][1]]
    rows = tuple(row for row in _series_rows(u, params) if row.n == 0) if kind == "w123" else ()
    return lambda view: _continuity(view, closing, rows, dt_term)


def chain_residual_slabs(member: str, w4, u: PolynomialPotential, params, scheme: StencilScheme,
                         mask_threshold: float = DEFAULT_MASK_THRESHOLD):
    """The density and valid region of chain member 'w123', 'w124' or 'w12', and its residual tile by tile.

    w4 is a rank-4 RealField, or a stream of its tiles, an (axes, tiles)
    pair such as wigner.transform_rows returns: then the member comes from
    psi in one transform pass, with no W held. One moment pass over w4, on
    the calling thread, gives the member's density and closing fluxes:
    mean_flux_from_w4's for w123 and w12, and for w124 the velocity flux
    with accel_flux_124_from_w4's, over one shared denominator. The valid
    region is the fluxes' support mask, eroded by the stencil halfwidth
    along each flux axis in turn. Returns (density RealField, valid boolean
    array, tiles), where tiles yields (index, block) for each tile of the
    density, run-major as moyal_residual_slabs does: block is
    vlasov_residual's residual on density.data[index], a stencil loop on the
    slab pool, and a block with a non-finite value raises ValidationError.
    So a caller can reduce the residual (its max over the valid region, say)
    without holding it.
    """
    check_mask_threshold(mask_threshold)
    require_axes(w4, KINEMATIC_ORDER)
    if member == "w124":
        fluxes = _moment_ratio(w4, "vdot", params, mask_threshold, scheme, ("124-vel", _first_moment("vdot")),
                               ("124-accel", _closure_moment(u, params)))
    elif member in ("w123", "w12"):
        fluxes = [mean_flux_from_w4(w4, {"w123": "123-accel", "w12": "12-vel"}[member], params, mask_threshold)]
    else:
        raise ValidationError(f"unknown chain member {member!r}; expected 'w123', 'w124' or 'w12'")
    density, valid, flux_axes = fluxes[0].density, fluxes[0].mask, MEMBERS[member][1]
    for name in flux_axes:
        valid = _erode(valid, density.axis_index(name), stencil_halfwidth(1, scheme.order))
    body = _finite(_member_body(member, dict(zip(flux_axes, fluxes)), params, u, None))
    return density, valid, _grid_slabs(density, scheme, body)


def chain_residual(member: str, w4, u: PolynomialPotential, params, scheme: StencilScheme,
                   mask_threshold: float = DEFAULT_MASK_THRESHOLD):
    """Residual, density and valid region of chain member 'w123', 'w124' or 'w12', from one pass over a rank-4 W.

    chain_residual_slabs' residual, assembled: w4 is a rank-4 RealField or
    a stream of its tiles, and the residual is vlasov_residual's on the
    density. Returns (residual RealField, density RealField, valid boolean
    array).
    """
    density, valid, tiles = chain_residual_slabs(member, w4, u, params, scheme, mask_threshold)
    return RealField._trusted(density.axes, _assemble(density.data.shape, tiles)), density, valid


# ---------------------------------------------------------------------------
# closure equivalence and dissipation

def divergence_series_gap(u1: PolynomialPotential, f4: RealField, params, scheme: StencilScheme,
                          mask_threshold: float = DEFAULT_MASK_THRESHOLD) -> float:
    """Discrepancy between the divergence-form and series-form evolutions.

    Assembles the rank-4 continuity equation with the series closure flux and,
    independently, the transport-plus-correction-series form, using one shared
    discrete derivative (repeated first differences along vddot) so the two
    sides are algebraically identical. Returns max |difference| over the
    support mask (cut at mask_threshold * f4.peak, so no pass over f4 but
    the grid loop), relative to the larger side, reduced one tile at a time.
    Requires a velocity-independent potential.
    """
    if not u1.v_independent:
        raise ValidationError("closure equivalence is defined for U1(x) only")
    check_mask_threshold(mask_threshold)
    require_axes(f4, KINEMATIC_ORDER)
    terms = closure_coefficients(u1, params, "x")
    cut = mask_threshold * f4.peak  # _support_mask's cut

    def body(view):  # finite values may combine past the float range: the maxima's check below refuses them
        with np.errstate(over="ignore", invalid="ignore"):
            derivs = [view.values()]
            for _ in range(2 * max((l for l, _, _ in terms), default=0) + 1):
                derivs.append(_stencil(derivs[-1], 3, f4.axes[3].step, 1, scheme))
            # side A: transport + d_vddot( sum_l c_l U^(2l+1) d^{2l} f )
            # side B: transport + force term - correction series
            side_a = _continuity(view, (), (), None)
            side_b = side_a.copy()
            flux_times_f = np.zeros(view.shape)
            for l, c, du in terms:
                coeff = c * view.potential(du)
                flux_times_f += coeff * derivs[2 * l]
                side_b += coeff * derivs[2 * l + 1]
            side_a += _stencil(flux_times_f, 3, f4.axes[3].step, 1, scheme)
            mask = np.abs(derivs[0]) >= cut
            return [np.max(np.abs(s), where=mask, initial=0.0) for s in (side_a - side_b, side_a, side_b)]

    # np.max, unlike Python's max, keeps a NaN
    gap, a, b = (float(m) for m in np.max([maxima for _, maxima in _grid_slabs(f4, scheme, body)], axis=0))
    if not (math.isfinite(gap) and math.isfinite(a) and math.isfinite(b)):
        raise NumericError(f"the divergence and series forms leave the float range (max|gap| = {gap})")
    return gap / max(a, b, np.finfo(float).tiny)


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


def _member_balance(dens: RealField, fluxes, scheme: StencilScheme, mask_threshold: float):
    """A member's Q sources (d flux/d axis, for each axis: flux in fluxes), pi-hat S + sum(Q), and valid mask.

    S = ln dens on the support mask, and pi-hat S = v dS/dx + sum of flux dS/d axis.
    """
    mask = _support_mask(dens, mask_threshold) & (dens.data > 0.0)
    sf = dens.with_data(np.log(dens.data, out=np.zeros_like(dens.data), where=mask))
    terms, qs = [(dens.mesh()[dens.axis_index("v")], "x")], []
    for axis, flux in fluxes.items():
        flux = _flux_samples(flux)
        vals = np.asarray(flux(*dens.mesh()) if callable(flux) else flux, dtype=np.float64)
        qs.append(partial_derivative(dens.with_data(np.broadcast_to(vals, dens.data.shape).copy()), axis, 1, scheme))
        terms.append((vals, axis))
    res, valid = np.zeros_like(sf.data), mask.copy()
    for coeff, axis in terms:
        res += coeff * partial_derivative(sf, axis, 1, scheme).data
        valid &= _erode(mask, dens.axis_index(axis), stencil_halfwidth(1, scheme.order))
    for q in qs:
        res += q.data
    return qs, res, valid


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
    check_mask_threshold(mask_threshold)
    (q2_12,), res12, valid12 = _member_balance(w12, {"v": fluxes["12-vel"]}, scheme, mask_threshold)
    (q2_124, q4_124), res124, valid124 = _member_balance(
        w124, {"v": fluxes["124-vel"], "vddot": fluxes["124-accel"]}, scheme, mask_threshold)
    return DissipationReport(q2_12, q2_124, q4_124, res12, res124, valid12, valid124)
