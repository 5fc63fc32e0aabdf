"""Chain continuity residuals, flux closures, and dissipation diagnostics."""

import math

import numpy as np
import pytest

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
    sample_real,
    u12_polynomial,
    vlasov_moyal_accel_flux,
    vlasov_moyal_velocity_flux,
    vlasov_residual,
    w12_analytic,
    w123_field,
    w124_analytic,
    w1234_analytic,
)
from phasechain.moyal import PolynomialPotential

P = PhysParams()
ORDER4 = StencilScheme(order=4)
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


def test_grid_and_pointwise_residuals_agree_at_interior_nodes():
    axes = tuple(make_axis(n, -6.0, 6.0, 16) for n in ("x", "v", "vdot", "vddot"))
    grid = sample_real(lambda x, v, vd, vdd: w1234_analytic(x, v, vd, vdd, P), axes)
    h = axes[0].step
    scheme = StencilScheme(order=4, h=h)
    flux = lambda x, v, vd, vdd: 0.3 * x - 0.1 * vdd
    grid_res = vlasov_residual("chain4", grid, {"vddot": flux}, P, scheme)
    field = PointwiseField(lambda x, v, vd, vdd: w1234_analytic(x, v, vd, vdd, P), 4)
    inner = axes[0].points()[3:-3]
    pts = tuple(c.ravel() for c in np.meshgrid(*([inner] * 4), indexing="ij"))
    pw_res = vlasov_residual("chain4", field, {"vddot": flux}, P, scheme, points=pts)
    sl = (slice(3, -3),) * 4
    assert np.allclose(grid_res.data[sl].ravel(), pw_res, rtol=1e-10, atol=1e-14)


def test_flux_argument_forms_are_equivalent():
    axes = (make_axis("x", -8.0, 8.0, 32), make_axis("v", -8.0, 8.0, 32))
    w12 = sample_real(lambda x, v: w12_analytic(x, v, P), axes)
    vals = -(P.omega**2) * axes[0].points()[:, None] * np.ones((1, 32))
    as_callable = vlasov_residual("w12", w12, {"v": lambda x, v: -(P.omega**2) * x}, P, ORDER4)
    as_field = vlasov_residual("w12", w12, {"v": RealField(axes, vals)}, P, ORDER4)
    as_array = vlasov_residual("w12", w12, {"v": vals}, P, ORDER4)
    assert np.array_equal(as_callable.data, as_field.data)
    assert np.array_equal(as_callable.data, as_array.data)


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
