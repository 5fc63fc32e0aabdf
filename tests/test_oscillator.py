"""Closed-form oscillator reference solution."""

import math
import re

import numpy as np
import pytest

from phasechain import (
    PhysParams,
    StencilScheme,
    ValidationError,
    gamma_form,
    gamma_transport_residual,
    integrate_axis,
    make_axis,
    mean_flux_analytic,
    psi12,
    radiation_power,
    sample_complex,
    u12_polynomial,
    w12_analytic,
    w123_analytic,
    w124_analytic,
    w1234_analytic,
    w1234_field,
    w123_field,
    w12_field,
)
from phasechain.moyal import PolynomialPotential

P = PhysParams()


def test_params_defaults_and_validation():
    p = PhysParams(m=2.0, hbar=0.5, omega=3.0)
    assert p.omega2 == 3.0
    assert p.hbar2 == 0.5 * 9.0
    assert p.e12 == pytest.approx(p.hbar2 * p.omega2 / 2.0)
    assert p.ho_consistent
    assert not PhysParams(hbar2=0.9).ho_consistent
    assert not PhysParams(omega=1e200, hbar2=1.0).ho_consistent  # hbar*omega^2 overflows; * would give inf <= inf
    assert np.isfinite(psi12(0.0, 0.0, 0.0, PhysParams(omega=1e100)))  # m*omega^2 = 1e200 fits
    with pytest.raises(ValidationError):
        PhysParams(m=-1.0)
    with pytest.raises(ValidationError):
        PhysParams(omega=0.0)


def test_psi_is_normalized_and_stationary():
    axes = (make_axis("x", -8.0, 8.0, 128), make_axis("v", -8.0, 8.0, 128))
    psi = sample_complex(lambda x, v: psi12(x, v, 0.0, P), axes)
    dens = psi.with_data(np.abs(psi.data) ** 2).data.real
    prob = float(dens.sum()) * axes[0].step * axes[1].step
    assert prob == pytest.approx(1.0, abs=1e-12)
    # the time dependence is a global phase exp(-i e12 t / hbar2)
    x, v, t = 0.7, -0.3, 1.9
    late = psi12(x, v, t, P)
    assert abs(late) == pytest.approx(abs(psi12(x, v, 0.0, P)), rel=1e-14)
    assert late * np.exp(1j * P.e12 * t / P.hbar2) == pytest.approx(psi12(x, v, 0.0, P), rel=1e-14)


def test_u12_coefficients_frozen():
    u = u12_polynomial(P)
    terms = {(a, b): c for a, b, c in u.terms}
    # the constant part cancels exactly at the consistent defaults
    assert terms.get((0, 0), 0.0) == pytest.approx(0.0, abs=1e-15)
    assert terms[(0, 2)] == pytest.approx(1.5)
    assert terms[(2, 0)] == pytest.approx(-0.5)
    # quadratic confinement in v wins over the inverted x direction near the origin
    assert u(0.0, 1.0) == pytest.approx(1.5)
    assert u(1.0, 0.0) == pytest.approx(-0.5)


def test_gamma_gradient_is_exact():
    rng = np.random.default_rng(3)
    x, v, vdot, vddot = rng.uniform(-3, 3, size=(4, 50))
    g = gamma_form(x, v, vdot, vddot, 1.3)
    h = 0.5  # central differences are exact on quadratics, any step works
    for i, d in enumerate((g.d_x, g.d_v, g.d_vdot, g.d_vddot)):
        coords = [x, v, vdot, vddot]
        hi = list(coords)
        lo = list(coords)
        hi[i] = coords[i] + h
        lo[i] = coords[i] - h
        fd = (gamma_form(*hi, 1.3).value - gamma_form(*lo, 1.3).value) / (2 * h)
        assert np.allclose(fd, d, rtol=1e-12, atol=1e-12)


def test_gamma_transport_residual_vanishes():
    rng = np.random.default_rng(4)
    x, v, vdot, vddot = rng.uniform(-5, 5, size=(4, 1000))
    res = gamma_transport_residual(x, v, vdot, vddot, 0.9)
    assert np.abs(res).max() < 1e-12


def test_joint_peak_value():
    assert w1234_analytic(0.0, 0.0, 0.0, 0.0, P) == pytest.approx(1.0 / math.pi**2, rel=1e-15)
    assert w123_analytic(0.0, 0.0, 0.0, P) == pytest.approx(math.pi**-1.5, rel=1e-15)
    assert w124_analytic(0.0, 0.0, 0.0, P) == pytest.approx(math.pi**-1.5, rel=1e-15)
    assert w12_analytic(0.0, 0.0, P) == pytest.approx(1.0 / math.pi, rel=1e-15)


@pytest.mark.parametrize("p", [P, PhysParams(m=1.7, hbar=0.8, omega=1.2)])
def test_marginal_tower_closed_forms(p):
    # trace the closed-form joint one axis at a time; every reduction over a
    # kinematic rate axis carries a factor m, matching the conjugate momenta
    step = 32.0 / 512
    s = -16.0 + step * np.arange(512)
    pts = [(0.0, 0.0), (0.4, -0.2), (-0.6, 0.5)]
    for x, v in pts:
        over_vddot = w1234_analytic(x, v, s[:, None], s[None, :], p).sum(axis=1) * (p.m * step)
        assert np.allclose(over_vddot, w123_analytic(x, v, s, p), rtol=0, atol=1e-12)
        over_vdot = w1234_analytic(x, v, s[:, None], s[None, :], p).sum(axis=0) * (p.m * step)
        assert np.allclose(over_vdot, w124_analytic(x, v, s, p), rtol=0, atol=1e-12)
        both = (w123_analytic(x, v, s, p) * (p.m * step)).sum()
        assert both == pytest.approx(w12_analytic(x, v, p), rel=1e-12)
        assert w12_analytic(x, v, p) == pytest.approx(abs(psi12(x, v, 0.0, p)) ** 2, rel=1e-14)


def test_mean_fluxes():
    x = np.array([0.5, -1.0])
    v = np.array([2.0, 0.25])
    p = PhysParams(omega=1.4)
    assert np.allclose(mean_flux_analytic("123-accel", x, v, p), p.omega**2 * v)
    assert np.allclose(mean_flux_analytic("124-accel", x, v, p), -(p.omega**4) * x)
    assert np.allclose(mean_flux_analytic("1234-accel", x, v, p), -(p.omega**4) * x)
    assert np.allclose(mean_flux_analytic("124-vel", x, v, p), -(p.omega**2) * x)
    assert np.allclose(mean_flux_analytic("12-vel", x, v, p), -(p.omega**2) * x)
    with pytest.raises(ValidationError):
        mean_flux_analytic("13-vel", x, v, p)


def test_radiation_power_route():
    u1 = PolynomialPotential(((2, 0, 0.5 * P.m * P.omega**2),))
    x = np.array([0.3, -0.8])
    v = np.array([1.0, 0.5])
    n, dn_over_m = radiation_power(x, v, u1, P)
    assert np.allclose(n, v * P.m * P.omega**2 * x)
    assert np.allclose(dn_over_m, mean_flux_analytic("123-accel", x, v, P))
    with pytest.raises(ValidationError):
        radiation_power(x, v, PolynomialPotential(((1, 1, 1.0),)), P)


def test_inconsistent_hbar2_is_rejected_by_closed_forms():
    p = PhysParams(hbar2=0.37)
    with pytest.raises(ValidationError):
        w1234_analytic(0.0, 0.0, 0.0, 0.0, p)
    with pytest.raises(ValidationError):
        w123_analytic(0.0, 0.0, 0.0, p)
    with pytest.raises(ValidationError):
        w1234_field(p)


CLOSED_FORMS = {
    "u12_polynomial": lambda p: u12_polynomial(p),
    "w1234_analytic": lambda p: w1234_analytic(0.1, 0.2, 0.3, 0.4, p),
    "w123_analytic": lambda p: w123_analytic(0.1, 0.2, 0.3, p),
    "w124_analytic": lambda p: w124_analytic(0.1, 0.2, 0.4, p),
    "w12_analytic": lambda p: w12_analytic(0.1, 0.2, p),
    "w1234_field": lambda p: w1234_field(p),
    "w1234_field.derivative": lambda p: w1234_field(p).derivative((0, 0, 0, 1), (0.1, 0.2, 0.3, 0.4), None),
    "w123_field.values": lambda p: w123_field(p).values((0.1, 0.2, 0.3)),
    "w12_field.values": lambda p: w12_field(p).values((0.1, 0.2)),
    "mean_flux_analytic": lambda p: mean_flux_analytic("12-vel", 0.1, 0.2, p),
    "gamma_form": lambda p: gamma_form(0.1, 0.2, 0.3, 0.4, p.omega),
    "gamma_transport_residual": lambda p: gamma_transport_residual(0.1, 0.2, 0.3, 0.4, p.omega),
}


@pytest.mark.parametrize("name, p", [
    *((name, PhysParams(omega=1e200, hbar2=1.0)) for name in CLOSED_FORMS),
    # at the default hbar2 = 1e200, omega^2 fits but omega^4 does not
    *((name, PhysParams(omega=1e100)) for name in ("u12_polynomial", "w1234_analytic", "w123_analytic",
                                                    "w124_analytic", "w1234_field.derivative",
                                                    "w123_field.values", "gamma_form")),
    # hbar^3 and hbar2^3 overflow, omega^2 fits
    *((name, PhysParams(hbar=1e150)) for name in ("w123_analytic", "w124_analytic")),
], ids=lambda arg: arg if isinstance(arg, str) else f"omega={arg.omega:g},hbar2={arg.hbar2:g}")
def test_a_float_power_that_overflows_is_a_validation_error_naming_omega(name, p):
    # float ** raises OverflowError where * gives inf; the closed forms name omega, and hbar2 where they take p
    names = f"omega = {p.omega:g}" + ("" if name.startswith("gamma") else f" or hbar2 = {p.hbar2:g}")
    with pytest.raises(ValidationError, match=f"^{re.escape(names)} is too large: a float power overflows$"):
        CLOSED_FORMS[name](p)


def test_a_joint_peak_that_overflows_is_a_validation_error_naming_hbar2():
    # (pi hbar2)^2 underflows to 0 at hbar2 = hbar omega^2 = 1e-300, so the peak 1/(pi hbar2)^2 overflows
    with pytest.raises(ValidationError, match=re.escape("hbar2 = 1e-300 is too small")):
        w1234_analytic(0.1, 0.1, 0.1, 0.1, PhysParams(hbar=1e-300))


@pytest.mark.parametrize("hbar", [1e-300, 1e-105])  # hbar^3 underflows to 0; a subnormal hbar^3 gives an inf ratio
def test_a_vddot_marginal_amplitude_that_overflows_is_a_validation_error_naming_hbar(hbar):
    with pytest.raises(ValidationError, match=re.escape(f"hbar = {hbar:g} at omega = 1")):
        w123_analytic(0.1, 0.1, 0.1, PhysParams(hbar=hbar))


@pytest.mark.parametrize("hbar", [1e-300, 1e-105])
def test_a_vdot_marginal_amplitude_that_overflows_is_a_validation_error_naming_hbar2(hbar):
    with pytest.raises(ValidationError, match=re.escape(f"hbar2 = {hbar:g}")):
        w124_analytic(0.1, 0.1, 0.1, PhysParams(hbar=hbar))


def test_pointwise_joint_exact_first_partials():
    rng = np.random.default_rng(11)
    pts = tuple(rng.uniform(-2, 2, size=40) for _ in range(4))
    exact = w1234_field(P, exact_derivatives=True)
    stenc = w1234_field(P, exact_derivatives=False)
    scheme = StencilScheme(order=4, h=0.01)
    for axis in range(4):
        powers = tuple(1 if i == axis else 0 for i in range(4))
        a = exact.derivative(powers, pts, scheme)
        b = stenc.derivative(powers, pts, scheme)
        assert np.allclose(a, b, rtol=0, atol=5e-8)
    # only single first partials carry an exact rule; higher ones need a step
    with pytest.raises(ValidationError):
        exact.derivative((2, 0, 0, 0), pts, StencilScheme(order=4))
    assert np.allclose(
        exact.derivative((0, 0, 0, 1), pts, StencilScheme(order=4)),
        stenc.derivative((0, 0, 0, 1), pts, scheme),
        rtol=0,
        atol=5e-8,
    )


def test_values_match_between_pointwise_and_closed_form():
    rng = np.random.default_rng(12)
    pts = tuple(rng.uniform(-3, 3, size=100) for _ in range(4))
    f = w1234_field(P)
    assert np.allclose(f.values(pts), w1234_analytic(*pts, P), rtol=0, atol=0)
