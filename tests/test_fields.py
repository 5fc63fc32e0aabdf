"""Grid containers and the finite-difference layer."""

import math
import re

import numpy as np
import pytest

from phasechain.fields import (
    AxisGrid,
    ComplexField,
    NumericError,
    PointwiseField,
    RealField,
    StencilScheme,
    ValidationError,
    integrate_axis,
    make_axis,
    max_abs,
    partial_derivative,
    sample_complex,
    sample_real,
    stencil_coefficients,
    stencil_halfwidth,
)


# --- axes ------------------------------------------------------------------

def test_axis_points_are_endpoint_exclusive():
    a = make_axis("x", -8.0, 8.0, 64)
    pts = a.points()
    assert a.step == 0.25
    assert pts[0] == -8.0
    assert pts[-1] == 8.0 - 0.25
    assert len(pts) == 64


@pytest.mark.parametrize(
    "name,lo,hi,n",
    [
        ("bogus", 0.0, 1.0, 8),
        ("x", 0.0, 1.0, 3),
        ("x", 0.0, 1.0, 7),
        ("x", 0.0, 1.0, 8.0),
        ("x", 0.0, 1.0, True),
        ("x", 1.0, 1.0, 8),
        ("x", 2.0, 1.0, 8),
        ("x", 0.0, math.inf, 8),
        ("x", math.nan, 1.0, 8),
        ("x", -1.7976931348623157e308, 1.7976931348623157e308, 4),  # the span overflows: the step is inf
        ("x", 0.0, 5e-324, 4),  # the step underflows to 0
    ],
)
def test_make_axis_rejects_bad_arguments(name, lo, hi, n):
    with pytest.raises(ValidationError):
        make_axis(name, lo, hi, n)


def test_nearest_index_snaps_and_breaks_ties_toward_minus_inf():
    a = make_axis("x", -8.0, 8.0, 64)  # step 0.25, nodes at -8.0, -7.75, ...
    assert a.nearest_index(-8.0) == 0
    assert a.nearest_index(0.0) == 32
    assert a.nearest_index(0.1) == 32
    assert a.nearest_index(0.2) == 33
    # exact midpoint between nodes 32 (0.0) and 33 (0.25)
    assert a.nearest_index(0.125) == 32
    assert a.nearest_index(-0.125) == 31
    # clamped outside the domain
    assert a.nearest_index(-999.0) == 0
    assert a.nearest_index(999.0) == 63


# --- containers ------------------------------------------------------------

def test_fields_are_immutable_and_shape_checked():
    a = make_axis("x", 0.0, 1.0, 8)
    f = RealField((a,), np.arange(8.0))
    with pytest.raises(ValueError):
        f.data[0] = 5.0
    g = f.with_data(f.data * 2)
    assert g.axes == f.axes
    assert g.data[3] == 2.0 * f.data[3]
    with pytest.raises(ValidationError):
        RealField((a,), np.arange(6.0))
    with pytest.raises(ValidationError):
        RealField((a,), np.array([np.nan] * 8))
    with pytest.raises(ValidationError):
        RealField((a, a), np.zeros((8, 8)))  # duplicate axis names


@pytest.mark.parametrize("axis", [AxisGrid("x", 8, 1.0, 0.0), AxisGrid("x", 7, 0.0, 1.0), AxisGrid("q", 8, 0.0, 1.0),
                                  AxisGrid("x", 8, 0.0, math.inf),
                                  AxisGrid("x", 4, -1.7976931348623157e308, 1.7976931348623157e308),
                                  AxisGrid("x", 4, 0.0, 5e-324)],
                         ids=["reversed bounds", "odd n", "unknown name", "infinite bound", "infinite step",
                              "zero step"])
def test_containers_refuse_axes_that_make_axis_refuses(axis):
    # on reversed bounds the step is negative, so a derivative or an integral comes out with the wrong sign
    axes = (axis, make_axis("v", 0.0, 1.0, 4))
    with pytest.raises(ValidationError):
        RealField(axes, np.zeros((axis.n, 4)))
    with pytest.raises(ValidationError):
        ComplexField(axes, np.zeros((axis.n, 4), dtype=complex))
    with pytest.raises(ValidationError):
        sample_real(lambda x, v: x + v, axes)
    with pytest.raises(ValidationError):
        sample_complex(lambda x, v: x + 1j * v, axes)


def test_complex_field_rank_limit():
    axes = tuple(make_axis(n, 0.0, 1.0, 4) for n in ("x", "v", "vdot"))
    with pytest.raises(ValidationError):
        ComplexField(axes, np.zeros((4, 4, 4), dtype=complex))


def test_sampling_broadcasts_over_the_tensor_grid():
    axes = (make_axis("x", 0.0, 2.0, 4), make_axis("v", 0.0, 4.0, 8))
    f = sample_real(lambda x, v: x + 10.0 * v, axes)
    assert f.data.shape == (4, 8)
    assert f.data[2, 3] == axes[0].points()[2] + 10.0 * axes[1].points()[3]
    g = sample_complex(lambda x, v: np.exp(1j * x) * v, axes)
    assert g.data.dtype == np.complex128
    # constant in one coordinate still fills the grid
    h = sample_real(lambda x, v: x, axes)
    assert h.data.shape == (4, 8)
    assert np.all(h.data[1] == axes[0].points()[1])


def test_axis_lookup():
    axes = (make_axis("x", 0.0, 1.0, 4), make_axis("vdot", 0.0, 1.0, 6))
    f = RealField(axes, np.zeros((4, 6)))
    assert f.axis_index("vdot") == 1
    assert f.axis("x").n == 4
    with pytest.raises(ValidationError):
        f.axis_index("vddot")


# --- stencils ----------------------------------------------------------------

def test_stencil_coefficients_classic_values():
    assert stencil_coefficients(1, 2) == (-0.5, 0.0, 0.5)
    assert stencil_coefficients(2, 2) == (1.0, -2.0, 1.0)
    c14 = stencil_coefficients(1, 4)
    assert np.allclose(c14, (1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12), rtol=0, atol=0)
    assert stencil_halfwidth(1, 4) == 2
    assert stencil_halfwidth(3, 2) == 2
    assert stencil_halfwidth(6, 6) == 5
    with pytest.raises(ValidationError):
        stencil_coefficients(7, 4)
    with pytest.raises(ValidationError):
        stencil_coefficients(1, 3)


@pytest.mark.parametrize("power,order", [(1, 2), (1, 4), (2, 4), (3, 2), (4, 4), (5, 2), (6, 2)])
def test_stencils_are_exact_on_polynomials(power, order):
    # the moment construction guarantees exactness through degree 2w >= power + order - 1
    w = stencil_halfwidth(power, order)
    rng = np.random.default_rng(power * 10 + order)
    coeffs = rng.uniform(-1, 1, size=2 * w + 1)
    poly = np.polynomial.Polynomial(coeffs)
    want = poly.deriv(power)(0.3)
    h = 0.37
    stencil = stencil_coefficients(power, order)
    got = sum(c * poly(0.3 + j * h) for j, c in zip(range(-w, w + 1), stencil)) / h**power
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_partial_derivative_matches_axis_step_and_converges():
    def gauss(x):
        return np.exp(-(x**2))

    def dgauss(x):
        return -2.0 * x * np.exp(-(x**2))

    errs = []
    for n in (128, 256):
        a = make_axis("x", -8.0, 8.0, n)
        f = sample_real(gauss, (a,))
        d = partial_derivative(f, "x", 1, StencilScheme(order=4))
        interior = slice(4, n - 4)
        errs.append(float(np.abs(d.data - dgauss(a.points()))[interior].max()))
    assert errs[1] < errs[0] / 12.0  # order four: halving h gains ~16x


def test_partial_derivative_zero_extension_at_boundary():
    a = make_axis("x", 0.0, 1.0, 8)
    f = RealField((a,), np.ones(8))
    d = partial_derivative(f, "x", 1, StencilScheme(order=2, h=1.0))
    # interior differences of a constant vanish; the edge sees the zero pad
    assert np.allclose(d.data[1:-1], 0.0)
    assert d.data[0] == 0.5
    assert d.data[-1] == -0.5


def test_max_abs_takes_any_array_like_and_refuses_an_empty_one():
    assert max_abs([1, -3]) == 3.0 and max_abs(((0.5,), (-0.25,))) == 0.5 and max_abs(-2.0) == 2.0
    assert math.copysign(1.0, max_abs([-0.0, 0.0, -0.0])) == 1.0  # a field of zeros has peak +0.0
    assert math.isnan(max_abs([1.0, np.nan]))  # a NaN is never hidden
    for empty in ([], np.empty(0), np.empty((3, 0))):
        with pytest.raises(ValidationError, match=re.escape(f"max_abs of an empty array (shape {np.shape(empty)})")):
            max_abs(empty)


def test_integrate_axis_weight_and_rank_exhaustion():
    axes = (make_axis("x", 0.0, 1.0, 10), make_axis("v", 0.0, 2.0, 4))
    f = sample_real(lambda x, v: np.ones_like(x) * np.ones_like(v), axes)
    g = integrate_axis(f, "v", weight=3.0)
    assert isinstance(g, RealField)
    assert g.rank == 1
    assert np.allclose(g.data, 3.0 * 2.0)
    total = integrate_axis(g, "x")
    assert isinstance(total, float)
    assert total == pytest.approx(6.0)


# the CLI runs under np.errstate(all="ignore"), so an overflow warns nowhere and only the result's check is left

def test_a_derivative_that_overflows_is_refused():
    f = RealField((make_axis("x", -1.0, 1.0, 8),), np.full(8, 1e308))
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite"):
        partial_derivative(f, "x", 2, StencilScheme(order=4))


@pytest.mark.parametrize("hi, h", [(1e-300, 1.25e-301), (1e200, 1.25e199)], ids=["underflow", "overflow"])
def test_a_step_power_out_of_range_is_a_numeric_error(hi, h):
    # h**2 underflows to 0 (a division by zero), or Python's float power raises OverflowError; no warning comes first
    f = RealField((make_axis("x", 0.0, hi, 8),), np.ones(8))
    with pytest.raises(NumericError, match=re.escape(f"stencil scale 1 / h**2 leaves the float range at h = {h!r}")):
        partial_derivative(f, "x", 2, StencilScheme(order=4))


def test_an_integral_that_overflows_is_refused():
    f = RealField((make_axis("x", -1.0, 1.0, 8),), np.full(8, 1e308))
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite"):
        integrate_axis(f, "x")


# --- pointwise fields --------------------------------------------------------

def test_pointwise_derivative_matches_analytic():
    f = PointwiseField(lambda x, v: np.exp(-(x**2) - 0.5 * v**2), 2)
    pts = (np.array([0.3, -0.7]), np.array([0.1, 0.4]))
    got = f.derivative((1, 1), pts, StencilScheme(order=4, h=0.01))
    x, v = pts
    want = (-2 * x) * (-v) * np.exp(-(x**2) - 0.5 * v**2)
    assert np.allclose(got, want, rtol=1e-7, atol=1e-10)


def test_pointwise_exact_rule_and_fallback():
    calls = []

    def exact(powers, x):
        calls.append(powers)
        if powers == (1,):
            return 2.0 * x
        return None  # anything else falls back to stencils

    f = PointwiseField(lambda x: x**2, 1, exact_partial=exact)
    pts = (np.array([1.0, 2.0]),)
    assert np.allclose(f.derivative((1,), pts, StencilScheme(order=2, h=0.1)), [2.0, 4.0])
    assert np.allclose(f.derivative((2,), pts, StencilScheme(order=2, h=0.1)), [2.0, 2.0])
    assert calls == [(1,), (2,)]


def test_pointwise_requires_explicit_step_and_valid_powers():
    f = PointwiseField(lambda x: x, 1)
    with pytest.raises(ValidationError):
        f.derivative((1,), (np.array([0.0]),), StencilScheme(order=4))  # h missing
    with pytest.raises(ValidationError):
        f.derivative((7,), (np.array([0.0]),), StencilScheme(order=4, h=0.1))
    with pytest.raises(ValidationError):
        f.derivative((1, 1), (np.array([0.0]),), StencilScheme(order=4, h=0.1))
    with pytest.raises(ValidationError):
        PointwiseField(lambda x: x, 5)
    # 1 / h**6 leaves the float range: h**6 underflows to 0, overflows, or is subnormal with an infinite inverse
    constant = PointwiseField(lambda x: np.ones_like(x), 1)
    for h in (1e-60, 1e60, 1e-52):
        with pytest.raises(NumericError, match=re.escape(f"h**6 leaves the float range at h = {h!r}")):
            constant.derivative((6,), (np.array([0.0]),), StencilScheme(order=4, h=h))


def test_scheme_validation():
    with pytest.raises(ValidationError):
        StencilScheme(order=3)
    with pytest.raises(ValidationError):
        StencilScheme(order=4, h=-0.1)
