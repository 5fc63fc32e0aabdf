"""Chain continuity residuals, flux closures, and dissipation diagnostics."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasechain import (
    FluxField,
    NumericError,
    PhysParams,
    PointwiseField,
    RealField,
    StencilScheme,
    ValidationError,
    accel_flux_124_from_w4,
    dissipation_report,
    divergence_series_gap,
    integrate_axis,
    make_axis,
    mean_flux_analytic,
    mean_flux_from_w4,
    moyal_residual,
    moyal_rhs,
    sample_real,
    transport_lhs,
    u12_polynomial,
    vlasov_moyal_accel_flux,
    vlasov_moyal_velocity_flux,
    vlasov_residual,
    w12_analytic,
    w123_analytic,
    w123_field,
    w124_analytic,
    w1234_analytic,
    w1234_field,
    w12_field,
)
import phasechain.fields as fields_mod
import phasechain.vlasov as vlasov_mod
from phasechain.fields import partial_derivative
from phasechain.moyal import PolynomialPotential, closure_coefficients
from phasechain.vlasov import _erode

P = PhysParams()
ORDER4 = StencilScheme(order=4)
FINE = StencilScheme(order=4, h=0.01)
U_HO = PolynomialPotential(((2, 0, 0.5 * P.m * P.omega**2),))


def rank4_grid(nxy=16, ntail=64):
    axes = (
        make_axis("x", -8.0, 8.0, nxy),
        make_axis("v", -8.0, 8.0, nxy),
        make_axis("vdot", -12.0, 12.0, ntail),
        make_axis("vddot", -12.0, 12.0, ntail),
    )
    return sample_real(lambda x, v, vd, vdd: w1234_analytic(x, v, vd, vdd, P), axes)


@pytest.fixture(scope="module")
def w4():
    return rank4_grid()


# --- moment-ratio fluxes -------------------------------------------------------

@pytest.mark.parametrize("threshold", [-1.0, -1e-300, 1.0, 1.5, math.inf, -math.inf, math.nan])
def test_mask_threshold_must_be_finite_and_below_one(threshold):
    small = rank4_grid(nxy=8, ntail=8)
    w124 = integrate_axis(small, "vdot", weight=P.m)
    w12 = integrate_axis(w124, "vddot", weight=P.m)
    calls = [
        lambda: mean_flux_from_w4(small, "123-accel", P, threshold),
        lambda: accel_flux_124_from_w4(small, U_HO, P, ORDER4, threshold),
        lambda: vlasov_moyal_accel_flux(small, U_HO, P, ORDER4, mask_threshold=threshold),
        lambda: vlasov_moyal_velocity_flux(w12, U_HO, P, ORDER4, mask_threshold=threshold),
        lambda: divergence_series_gap(U_HO, small, P, ORDER4, threshold),
        lambda: dissipation_report(w12, w124, {"12-vel": 0.0, "124-vel": 0.0, "124-accel": 0.0},
                                   P, ORDER4, threshold),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"mask threshold must be finite and in \[0, 1\)"):
            call()


def test_mask_threshold_zero_keeps_every_node(w4):
    assert mean_flux_from_w4(w4, "124-vel", P, 0.0).masked_fraction == 0.0


def test_moment_fluxes_match_closed_forms(w4):
    for kind in ("123-accel", "124-vel", "12-vel"):
        fl = mean_flux_from_w4(w4, kind, P)
        x = fl.values.axes[0].points().reshape((-1,) + (1,) * (fl.values.rank - 1))
        v = fl.values.axes[1].points().reshape((-1,) + (1,) * (fl.values.rank - 2))
        ref = mean_flux_analytic(kind, x, v, P)
        err = np.abs(fl.values.data - ref)[fl.mask].max()
        assert err < 1e-9, kind
        assert np.all(fl.values.data[~fl.mask] == 0.0)
        assert 0.0 < fl.masked_fraction < 1.0


def test_moment_flux_axes_and_kinds(w4):
    assert tuple(a.name for a in mean_flux_from_w4(w4, "123-accel", P).values.axes) == (
        "x", "v", "vdot")
    assert tuple(a.name for a in mean_flux_from_w4(w4, "12-vel", P).values.axes) == ("x", "v")
    with pytest.raises(ValidationError):
        mean_flux_from_w4(w4, "1234-accel", P)


def test_flux_field_validates_mask_shape(w4):
    fl = mean_flux_from_w4(w4, "12-vel", P)
    with pytest.raises(ValidationError):
        FluxField("12-vel", fl.values, fl.mask[:-1], fl.threshold)


# --- series closures -----------------------------------------------------------

def test_accel_closure_for_the_governing_potential(w4):
    # quadratic governing potential: the series stops at l = 0 and the flux is
    # the bare force term
    fl = vlasov_moyal_accel_flux(w4, u12_polynomial(P), P, ORDER4)
    assert fl.kind == "1234-accel"
    x = w4.axes[0].points()[:, None, None, None]
    assert np.abs(fl.values.data - mean_flux_analytic("1234-accel", x, 0.0, P))[fl.mask].max() < 1e-12
    rng = np.random.default_rng(31)
    pts = tuple(rng.uniform(-2, 2, size=50) for _ in range(4))
    field = PointwiseField(lambda *c: w1234_analytic(*c, P), 4)
    got = vlasov_moyal_accel_flux(field, u12_polynomial(P), P, StencilScheme(order=4, h=0.01),
                                  points=pts)
    assert np.allclose(got, -(P.omega**4) * pts[0], rtol=0, atol=1e-12)


def test_velocity_closure_and_validation():
    axes = (make_axis("x", -8.0, 8.0, 64), make_axis("v", -8.0, 8.0, 64))
    w12 = sample_real(lambda x, v: w12_analytic(x, v, P), axes)
    fl = vlasov_moyal_velocity_flux(w12, U_HO, P, ORDER4)
    x = axes[0].points()[:, None]
    assert np.abs(fl.values.data - (-(P.omega**2) * x))[fl.mask].max() < 1e-12
    with pytest.raises(ValidationError):
        vlasov_moyal_velocity_flux(w12, PolynomialPotential(((1, 1, 1.0),)), P, ORDER4)
    bad = sample_real(lambda x, v: w12_analytic(x, v, P),
                      (make_axis("v", -8.0, 8.0, 8), make_axis("x", -8.0, 8.0, 8)))
    with pytest.raises(ValidationError):
        vlasov_moyal_velocity_flux(bad, U_HO, P, ORDER4)


def test_velocity_closure_is_minus_the_acceleration_closure():
    u1 = PolynomialPotential(((2, 0, 0.5), (4, 0, 0.25), (6, 0, 0.01)))
    x, v = np.random.default_rng(5).uniform(-2.0, 2.0, size=(2, 200))
    f12 = PointwiseField(lambda x, v: w12_analytic(x, v, P), 2)
    # the same density with v moved to the vddot axis: both closures differentiate the same samples
    f124 = PointwiseField(lambda x, v, vdd: w12_analytic(x, vdd, P), 3)
    vel = vlasov_moyal_velocity_flux(f12, u1, P, FINE, points=(x, v))
    acc = vlasov_moyal_accel_flux(f124, u1, P, FINE, points=(x, np.zeros_like(x), v))
    assert np.array_equal(vel, -acc)


@pytest.mark.parametrize("closure, rank", [
    (vlasov_moyal_velocity_flux, 1),
    (vlasov_moyal_velocity_flux, 3),
    (vlasov_moyal_velocity_flux, 4),
    (vlasov_moyal_accel_flux, 1),
    (vlasov_moyal_accel_flux, 2),
], ids=lambda p: p.__name__ if callable(p) else f"rank{p}")
def test_pointwise_closures_reject_ranks_without_their_axes(closure, rank):
    # velocity closures act on (x, v), acceleration closures on (x, v, vdot, vddot) or (x, v, vddot)
    field = PointwiseField(lambda *c: np.exp(-sum(t**2 for t in c)), rank)
    pts = (np.linspace(-1.0, 1.0, 5),) * rank
    with pytest.raises(ValidationError, match="closure along .* needs axes"):
        closure(field, U_HO, P, FINE, points=pts)


def test_closure_rejects_nonpositive_density_inside_mask():
    axes = (make_axis("x", -8.0, 8.0, 32), make_axis("v", -8.0, 8.0, 32))
    data = sample_real(lambda x, v: w12_analytic(x, v, P), axes).data.copy()
    data[16, 16] = -data[16, 16]
    with pytest.raises(NumericError):
        vlasov_moyal_velocity_flux(RealField(axes, data), U_HO, P, ORDER4)


def test_accel_closure_needs_vddot_axis():
    axes = (make_axis("x", -8.0, 8.0, 8), make_axis("v", -8.0, 8.0, 8))
    w12 = sample_real(lambda x, v: w12_analytic(x, v, P), axes)
    with pytest.raises(ValidationError):
        vlasov_moyal_accel_flux(w12, u12_polynomial(P), P, ORDER4)


def test_integral_route_to_the_reduced_accel_flux(w4):
    fl = accel_flux_124_from_w4(w4, u12_polynomial(P), P, ORDER4)
    assert fl.kind == "124-accel"
    x = fl.values.axes[0].points()[:, None, None]
    assert np.abs(fl.values.data - (-(P.omega**4) * x))[fl.mask].max() < 1e-9
    with pytest.raises(ValidationError):
        accel_flux_124_from_w4(integrate_axis(w4, "vdot"), u12_polynomial(P), P, ORDER4)


def test_flux_moment_consistency_for_external_potential(w4):
    # the m-weighted vddot reduction of (closure flux * density) collapses to
    # the bare-force term times the reduced density: the l >= 1 corrections
    # integrate to zero along vddot for any velocity-independent potential
    u1 = PolynomialPotential(((4, 0, 0.25), (2, 0, 0.5)))
    fl = vlasov_moyal_accel_flux(w4, u1, P, ORDER4, mask_threshold=1e-12)
    product = RealField(w4.axes, fl.values.data * w4.data)
    lhs = integrate_axis(product, "vddot", weight=P.m)
    w123g = integrate_axis(w4, "vddot", weight=P.m)
    x = w4.axes[0].points()[:, None, None]
    rhs = u1.derivative(dx=1)(x) / P.m * w123g.data
    assert np.abs(lhs.data - rhs).max() <= 1e-8 * np.abs(rhs).max()


# --- continuity residuals ------------------------------------------------------

def test_residual_validation(w4):
    f123 = w123_field(P)
    with pytest.raises(ValidationError):
        vlasov_residual("w1234", f123, {}, P, ORDER4)
    with pytest.raises(ValidationError):
        vlasov_residual("w123", f123, {"vdot": 0.0}, P, ORDER4)  # u missing
    with pytest.raises(ValidationError):
        vlasov_residual("w123", f123, {}, P, ORDER4, u=u12_polynomial(P))  # flux missing
    with pytest.raises(ValidationError):
        vlasov_residual("w12", w4, {"v": 0.0}, P, ORDER4)  # wrong axes
    with pytest.raises(ValidationError):
        vlasov_residual("w124", w123_field(P), {"v": 0.0, "vddot": 0.0}, P,
                        StencilScheme(order=4, h=0.01))  # pointwise without points


RANK4_AXES = ("x", "v", "vdot", "vddot")
WRONG_COORDINATE_COUNTS = {
    "transport_lhs": (lambda pts: transport_lhs(w1234_field(P), U_HO, P, FINE, points=pts), RANK4_AXES),
    "moyal_rhs": (lambda pts: moyal_rhs(w1234_field(P), U_HO, P, FINE, points=pts), RANK4_AXES),
    "moyal_residual": (lambda pts: moyal_residual(w1234_field(P), U_HO, P, FINE, points=pts), RANK4_AXES),
    "vlasov_residual": (lambda pts: vlasov_residual("w12", w12_field(P), {"v": 0.0}, P, FINE, points=pts),
                        ("x", "v")),
    "accel_flux": (lambda pts: vlasov_moyal_accel_flux(w1234_field(P), U_HO, P, FINE, points=pts), RANK4_AXES),
    "velocity_flux": (lambda pts: vlasov_moyal_velocity_flux(w12_field(P), U_HO, P, FINE, points=pts),
                      ("x", "v")),
}


@pytest.mark.parametrize("name", list(WRONG_COORDINATE_COUNTS))
def test_wrong_number_of_coordinate_arrays_names_the_axes(name):
    call, axes = WRONG_COORDINATE_COUNTS[name]
    expected = rf"needs {len(axes)} coordinate arrays for axes {re.escape(str(axes))}, got 3"
    with pytest.raises(ValidationError, match=expected):
        call((np.zeros(4),) * 3)


def test_reduced_members_are_stationary():
    rng = np.random.default_rng(33)
    scheme = StencilScheme(order=4, h=0.01)
    w2 = P.omega**2
    pts3 = tuple(rng.uniform(-4, 4, size=400) for _ in range(3))
    res = vlasov_residual("w123", w123_field(P), {"vdot": lambda x, v, vd: w2 * v}, P,
                          scheme, u=u12_polynomial(P), points=pts3)
    assert np.abs(res).max() < 1e-8
    field124 = PointwiseField(lambda x, v, vdd: w124_analytic(x, v, vdd, P), 3)
    res = vlasov_residual(
        "w124", field124,
        {"v": lambda x, v, vdd: -w2 * x, "vddot": lambda x, v, vdd: -(w2**2) * x},
        P, scheme, points=pts3)
    assert np.abs(res).max() < 1e-8
    pts2 = pts3[:2]
    field12 = PointwiseField(lambda x, v: w12_analytic(x, v, P), 2)
    res = vlasov_residual("w12", field12, {"v": lambda x, v: -w2 * x}, P, scheme, points=pts2)
    assert np.abs(res).max() < 1e-8


def test_chain4_on_a_synthetic_stationary_solution():
    # constant closing flux g: the full chain flow is x -> v -> vdot -> vddot
    # -> g, with invariants vddot^2/2 - g vdot and g v - vdot vddot + vddot^3/(3g)
    g, s = 0.8, 4.0

    def f(x, v, vd, vdd):
        i1 = 0.5 * vdd**2 - g * vd
        i2 = g * v - vd * vdd + vdd**3 / (3.0 * g)
        return np.exp(-((i1 / s) ** 2) - ((i2 / s) ** 2))

    field = PointwiseField(f, 4)
    rng = np.random.default_rng(9)
    pts = tuple(rng.uniform(-2, 2, size=500) for _ in range(4))
    errs = []
    for h in (0.04, 0.02, 0.01):
        res = vlasov_residual("chain4", field, {"vddot": g}, P,
                              StencilScheme(order=4, h=h), points=pts)
        errs.append(float(np.abs(res).max()))
    assert errs[2] < 1e-7
    order = math.log2(errs[0] / errs[2]) / 2.0
    assert order > 3.5


AGREEMENT_CASES = {
    # case -> (axes of the density, its closed form)
    "chain4": (("x", "v", "vdot", "vddot"), w1234_analytic),
    "w123": (("x", "v", "vdot"), w123_analytic),
    "w124": (("x", "v", "vddot"), w124_analytic),
    "w12": (("x", "v"), w12_analytic),
    "accel-closure": (("x", "v", "vdot", "vddot"), w1234_analytic),
    "velocity-closure": (("x", "v"), w12_analytic),
}
COEF = st.floats(-1.0, 1.0, allow_nan=False)


def evaluate_case(case, f, coefs, scheme, points=None):
    a, b, c = coefs
    if case.endswith("closure"):
        # U1 up to x^6: the closure series runs to l = 2
        u1 = PolynomialPotential(((2, 0, 0.5), (4, 0, a), (5, 0, b), (6, 0, c)))
        closure = vlasov_moyal_accel_flux if case == "accel-closure" else vlasov_moyal_velocity_flux
        return closure(f, u1, P, scheme, points=points)
    fluxes = {
        "chain4": {"vddot": lambda x, v, vd, vdd: a * x + b * vdd + c},
        "w123": {"vdot": lambda x, v, vd: a * v + c * x},
        "w124": {"v": lambda x, v, vdd: a * x + c, "vddot": lambda x, v, vdd: b * x + c * vdd},
        "w12": {"v": lambda x, v: a * x + b * v + c},
    }[case]
    # the v^4 term keeps the l = 1 entry of the w123 correction series alive
    u = PolynomialPotential(u12_polynomial(P).terms + ((0, 4, 0.5), (1, 3, a), (2, 2, b)))
    return vlasov_residual(case, f, fluxes, P, scheme, u if case == "w123" else None, points=points)


@pytest.mark.parametrize("case", list(AGREEMENT_CASES))
@settings(max_examples=10)
@given(coefs=st.tuples(COEF, COEF, COEF))
@example(coefs=(0.3, -0.1, 0.0))
def test_grid_and_pointwise_residuals_agree_at_interior_nodes(case, coefs):
    names, density = AGREEMENT_CASES[case]
    axes = tuple(make_axis(n, -6.0, 6.0, 16) for n in names)
    scheme = StencilScheme(order=4, h=axes[0].step)
    got = evaluate_case(case, sample_real(lambda *c: density(*c, P), axes), coefs, scheme)
    # every other interior node, at least 3 nodes (the widest stencil's halfwidth here) from an edge
    inner = (slice(3, -3, 2),) * len(names)
    if isinstance(got, FluxField):
        keep = got.mask[inner].ravel()  # a closure is defined on its support mask only
        got = got.values
    else:
        keep = slice(None)
    grid = got.data[inner].ravel()[keep]
    pts = tuple(g[inner].ravel()[keep] for g in np.meshgrid(*[a.points() for a in axes], indexing="ij"))
    field = PointwiseField(lambda *c: density(*c, P), len(names))
    pointwise = evaluate_case(case, field, coefs, scheme, points=pts)
    assert np.abs(grid - pointwise).max() <= 1e-13 * np.abs(pointwise).max()


def test_flux_argument_forms_are_equivalent():
    axes = (make_axis("x", -8.0, 8.0, 32), make_axis("v", -8.0, 8.0, 32))
    w12 = sample_real(lambda x, v: w12_analytic(x, v, P), axes)
    vals = -(P.omega**2) * axes[0].points()[:, None] * np.ones((1, 32))
    as_callable = vlasov_residual("w12", w12, {"v": lambda x, v: -(P.omega**2) * x}, P, ORDER4)
    as_field = vlasov_residual("w12", w12, {"v": RealField(axes, vals)}, P, ORDER4)
    as_array = vlasov_residual("w12", w12, {"v": vals}, P, ORDER4)
    assert np.array_equal(as_callable.data, as_field.data)
    assert np.array_equal(as_callable.data, as_array.data)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_grid_flux_is_rejected(bad):
    axes = (make_axis("x", -8.0, 8.0, 16), make_axis("v", -8.0, 8.0, 16))
    w12 = sample_real(lambda x, v: w12_analytic(x, v, P), axes)
    vals = np.zeros(w12.data.shape)
    vals[3, 5] = bad
    for flux in (vals, lambda x, v: np.where((x > 0) & (v > 0), bad, 0.0)):
        with pytest.raises(ValidationError, match="non-finite"):
            vlasov_residual("w12", w12, {"v": flux}, P, ORDER4)


def test_dt_term_enters_additively():
    axes = (make_axis("x", -8.0, 8.0, 16), make_axis("v", -8.0, 8.0, 16))
    w12 = sample_real(lambda x, v: w12_analytic(x, v, P), axes)
    base = vlasov_residual("w12", w12, {"v": 0.0}, P, ORDER4)
    bump = np.full(w12.data.shape, 0.3)
    shifted = vlasov_residual("w12", w12, {"v": 0.0}, P, ORDER4, dt_term=bump)
    assert np.allclose(shifted.data, base.data + 0.3, rtol=0, atol=1e-15)


# --- closure equivalence and dissipation ----------------------------------------

@pytest.mark.parametrize("terms", [((2, 0, 0.5),), ((3, 0, 1.0),), ((4, 0, 0.25),)])
def test_divergence_and_series_forms_are_identical(w4, terms):
    gap = divergence_series_gap(PolynomialPotential(terms), w4, P, ORDER4)
    assert gap < 1e-10


def test_divergence_series_gap_validation(w4):
    with pytest.raises(ValidationError):
        divergence_series_gap(PolynomialPotential(((1, 1, 1.0),)), w4, P, ORDER4)
    with pytest.raises(ValidationError):
        divergence_series_gap(U_HO, integrate_axis(w4, "vddot"), P, ORDER4)


def whole_field_gap(u1, f4, params, scheme, threshold):
    """The closure-equivalence gap from whole-field derivatives: every repeated vddot difference at once."""
    terms = closure_coefficients(u1, params, "x")
    derivs = [f4.data]
    for _ in range(2 * max(l for l, _, _ in terms) + 1):
        derivs.append(partial_derivative(f4.with_data(derivs[-1]), "vddot", 1, scheme).data)
    xs = f4.mesh()[0]
    transport = vlasov_residual("chain4", f4, {"vddot": 0.0}, params, scheme).data
    flux_times_f, side_b = np.zeros_like(f4.data), transport.copy()
    for l, c, du in terms:
        coeff = c * du(xs)
        flux_times_f += coeff * derivs[2 * l]
        side_b += coeff * derivs[2 * l + 1]
    side_a = transport + partial_derivative(f4.with_data(flux_times_f), "vddot", 1, scheme).data
    mask = np.abs(f4.data) >= threshold * np.abs(f4.data).max()
    scale = max(np.abs(side_a[mask]).max(), np.abs(side_b[mask]).max())
    return float(np.abs(side_a - side_b)[mask].max() / scale)


def one_worker_slabs(monkeypatch, rows, row_bytes):
    monkeypatch.setattr(fields_mod, "_workers", lambda: 1)
    monkeypatch.setattr(fields_mod, "_SLAB_BYTES", rows * row_bytes)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_the_gap_is_reduced_slab_by_slab_as_the_whole_field_gives_it(monkeypatch, order):
    shape = (12, 6, 10, 14)
    axes = tuple(make_axis(n, -3.0, 3.0, k) for n, k in zip(("x", "v", "vdot", "vddot"), shape))
    f4 = RealField(axes, np.random.default_rng(order).standard_normal(shape))
    u1 = PolynomialPotential(((2, 0, 0.5), (4, 0, 0.01)))
    scheme = StencilScheme(order=order)
    want = whole_field_gap(u1, f4, P, scheme, 0.05)

    def refused(*args, **kwargs):
        raise AssertionError("the gap built a whole-field derivative")

    monkeypatch.setattr(vlasov_mod, "partial_derivative", refused)
    monkeypatch.setattr(RealField, "with_data", refused)
    one_worker_slabs(monkeypatch, 5, f4.data[0].nbytes)  # three slabs, the last one shorter
    got = divergence_series_gap(u1, f4, P, scheme, 0.05)
    assert 0.0 < want < 1e-12
    assert abs(got - want) <= 1e-13 * want


def test_the_gap_keeps_no_whole_field_temporary(monkeypatch):
    n = 24
    axes = tuple(make_axis(name, -3.0, 3.0, n) for name in ("x", "v", "vdot", "vddot"))
    f4 = RealField(axes, np.random.default_rng(2).standard_normal((n,) * 4))
    one_worker_slabs(monkeypatch, 1, f4.data[0].nbytes)
    tracemalloc.start()
    try:
        divergence_series_gap(PolynomialPotential(((2, 0, 0.5), (4, 0, 0.01))), f4, P, ORDER4)
        peak = tracemalloc.get_traced_memory()[1] / f4.data.nbytes
    finally:
        tracemalloc.stop()
    assert peak <= 0.5, f"traced peak {peak:.2f} W"


def erode_by_shifts(mask, axis, w):
    """mask and each of its shifts by -w..w along axis, False shifted in."""
    n = mask.shape[axis]
    pad = [(0, 0)] * mask.ndim
    pad[axis] = (w, w)
    padded = np.pad(mask, pad, constant_values=False)
    out = mask.copy()
    for off in range(-w, w + 1):
        out &= np.take(padded, range(w + off, w + off + n), axis=axis)
    return out


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("axis", range(4))
def test_erode_drops_every_node_near_a_hole_or_an_edge(axis, w):
    rng = np.random.default_rng(10 * axis + w)
    for density in (0.5, 0.9, 1.0):
        mask = rng.random(tuple(rng.integers(w, 9, size=4))) < density
        got = _erode(mask, axis, w)
        assert got.dtype == bool and np.array_equal(got, erode_by_shifts(mask, axis, w))
        assert not np.shares_memory(got, mask)


def test_dissipation_vanishes_for_the_oscillator():
    g2 = (make_axis("x", -8.0, 8.0, 64), make_axis("v", -8.0, 8.0, 64))
    w12 = sample_real(lambda x, v: w12_analytic(x, v, P), g2)
    g3 = tuple(make_axis(n, -8.0, 8.0, 48) for n in ("x", "v", "vddot"))
    w124 = sample_real(lambda x, v, vdd: w124_analytic(x, v, vdd, P), g3)
    w2 = P.omega**2
    vel12 = vlasov_moyal_velocity_flux(w12, U_HO, P, ORDER4)  # FluxField form
    rep = dissipation_report(
        w12, w124,
        {"12-vel": vel12,
         "124-vel": lambda x, v, vdd: -w2 * x,
         "124-accel": lambda x, v, vdd: -(w2**2) * x},
        P, ORDER4)
    # the closing fluxes do not vary along their divergence axes, so every
    # source term vanishes; the entropy is quadratic, so order-4 stencils are
    # exact on it
    assert rep.max_abs_q() < 1e-12
    assert rep.max_abs_entropy_residual() < 1e-10
    assert rep.valid_12.any() and rep.valid_124.any()
    with pytest.raises(ValidationError):
        dissipation_report(w12, w124, {"12-vel": vel12}, P, ORDER4)
