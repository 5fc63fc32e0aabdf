"""Polynomial potentials and the correction-series evolution residual."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from phasechain import (
    PhysParams,
    PointwiseField,
    StencilScheme,
    ValidationError,
    build_term_table,
    closure_coefficients,
    make_axis,
    moyal_residual,
    moyal_rhs,
    sample_real,
    transport_lhs,
    u12_polynomial,
    w1234_analytic,
    w1234_field,
)
from phasechain.moyal import PolynomialPotential

P = PhysParams()
SCHEME = StencilScheme(order=4, h=0.01)


# --- potentials ---------------------------------------------------------------

def test_terms_are_canonicalized():
    u = PolynomialPotential(((0, 0, 1.0), (2, 0, 3.0), (0, 0, -1.0), (2, 0, 0.5)))
    assert u.terms == ((2, 0, 3.5),)
    assert PolynomialPotential(()).is_zero
    with pytest.raises(ValidationError):
        PolynomialPotential(((-1, 0, 1.0),))
    with pytest.raises(ValidationError):
        PolynomialPotential(((0, 0, float("nan")),))


def test_text_round_trip():
    u = PolynomialPotential(((2, 0, 0.1 + 0.2), (1, 3, -7.25)))
    again = PolynomialPotential.from_text(u.to_text())
    assert again.terms == u.terms  # repr formatting keeps every bit
    parsed = PolynomialPotential.from_text(
        """
        # confining part
        2 0 0.5

        0 2 1.5  # comment after values
        """
    )
    assert parsed.coefficient(2, 0) == 0.5
    assert parsed.coefficient(0, 2) == 1.5
    with pytest.raises(ValidationError):
        PolynomialPotential.from_text("2 0\n")
    with pytest.raises(ValidationError):
        PolynomialPotential.from_text("2 0 abc\n")


def test_potential_queries_and_derivatives():
    u = PolynomialPotential(((3, 2, 2.0), (1, 0, -1.0)))
    assert u.degree == 5
    assert u.degree_in("x") == 3
    assert u.degree_in("v") == 2
    assert not u.v_independent
    assert PolynomialPotential(((4, 0, 1.0),)).v_independent
    d = u.derivative(dx=2, dv=1)
    assert d.terms == ((1, 1, 24.0),)
    assert u.derivative(dx=4).is_zero
    assert u(2.0, 1.0) == pytest.approx(2.0 * 8.0 - 2.0)
    got = u(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert np.allclose(got, [0.0, 2.0 * 4.0 - 1.0])


TERM_SETS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.floats(-10.0, 10.0)), min_size=1, max_size=8)
# no coordinate near the underflow range, where a power's relative rounding is unbounded
NONZERO = st.floats(1e-3, 3.0)
COORDS = st.one_of(st.just(0.0), NONZERO, NONZERO.map(lambda t: -t))


def _power_sum(u, x, v):
    """(sum c * x**a * v**b, sum |c * x**a * v**b|) over u's terms in order, each power a NumPy pow."""
    x, v = np.asarray(x, dtype=np.float64), np.asarray(v, dtype=np.float64)
    total, size = np.zeros(np.broadcast(x, v).shape), np.zeros(np.broadcast(x, v).shape)
    for a, b, c in u.terms:
        term = c * x**a * v**b
        total += term
        size += np.abs(term)
    return total, size


@settings(max_examples=80)
@given(terms=TERM_SETS, x=st.lists(COORDS, min_size=1, max_size=12), v=st.lists(COORDS, min_size=1, max_size=12),
       mesh=st.booleans())
def test_potential_is_its_power_sum(terms, x, v, mesh):
    u = PolynomialPotential(tuple(terms))
    x, v = np.array(x), np.array(v)
    if mesh:
        x, v = x[:, None], v[None, :]
    else:
        x, v = x[: min(len(x), len(v))], v[: min(len(x), len(v))]
    got = u(x, v)
    want, size = _power_sum(u, x, v)
    assert got.shape == want.shape and got.dtype == np.float64
    if max(u.degree_in("x"), u.degree_in("v")) <= 2:
        # x x is the np.square that x**2 takes
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= 1e-15 * size)
    scalar = u(float(x.flat[0]), float(v.flat[0]))
    assert type(scalar) is float and type(u(np.float64(x.flat[0]), np.asarray(v.flat[0]))) is float
    assert np.float64(scalar).tobytes() == got.flat[0].tobytes()


@settings(max_examples=40)
@given(terms=TERM_SETS, dx=st.integers(0, 3), dv=st.integers(0, 3))
def test_a_derivative_is_made_once_and_is_the_termwise_rule(terms, dx, dv):
    u = PolynomialPotential(tuple(terms))
    d = u.derivative(dx=dx, dv=dv)
    assert u.derivative(dx=dx, dv=dv) is d
    falling = []
    for a, b, c in u.terms:
        if a >= dx and b >= dv:
            for k in [*range(a, a - dx, -1), *range(b, b - dv, -1)]:
                c *= k
            falling.append((a - dx, b - dv, c))
    assert d == PolynomialPotential(tuple(falling))
    # the same products in the same order
    assert u.derivative(dx=1).derivative(dv=dv) == u.derivative(dx=1, dv=dv)
    # the memo is no part of the value: equality, hash and repr see the terms alone
    fresh = PolynomialPotential(tuple(terms))
    assert fresh == u and hash(fresh) == hash(u) and repr(fresh) == repr(u)


# --- term table ---------------------------------------------------------------

def test_quadratic_potentials_have_no_corrections():
    assert build_term_table(u12_polynomial(P), P) == ()
    assert build_term_table(PolynomialPotential(((2, 0, 0.5), (0, 2, 1.5))), P) == ()
    with pytest.raises(ValidationError):
        build_term_table("x**4", P)


def test_quartic_x_table():
    table = build_term_table(PolynomialPotential(((4, 0, 1.0),)), P)
    assert len(table) == 1
    (t,) = table
    assert (t.l, t.n) == (1, 3)
    assert t.vddot_power == 3 and t.vdot_power == 0
    assert t.du.terms == ((1, 0, 24.0),)
    assert t.coeff == pytest.approx((P.hbar2 / (2 * P.m)) ** 2 / (6 * P.m))


def test_mixed_quartic_table_signs():
    table = build_term_table(PolynomialPotential(((2, 2, 1.0),)), P)
    assert [(t.l, t.n) for t in table] == [(1, 1), (1, 2)]
    first, second = table
    assert first.du.terms == ((1, 0, 4.0),)
    assert second.du.terms == ((0, 1, 4.0),)
    assert first.coeff == pytest.approx(0.125)
    assert second.coeff == pytest.approx(-0.125)
    # mass enters through both the ratio and the overall 1/m
    heavy = build_term_table(PolynomialPotential(((2, 2, 1.0),)), PhysParams(m=2.0))
    assert heavy[0].coeff == pytest.approx(0.125 / 8.0)


@pytest.mark.parametrize("params", [P, PhysParams(m=1.3, hbar=1.1, omega=0.9, hbar2=0.7)], ids=["unit", "scaled"])
def test_closure_coefficients_pin_the_oracle_formula_and_the_term_table(params):
    odd = ((1, 0.7), (3, -0.2), (5, 0.05), (7, 0.01))
    ux = PolynomialPotential(tuple((k, 0, c) for k, c in odd))
    got = closure_coefficients(ux, params, "x")
    assert [l for l, _, _ in got] == [0, 1, 2, 3]
    for l, coeff, du in got:
        want = float(oracles.closure_coefficient(l, params.m, params.hbar2))
        assert coeff == pytest.approx(want, rel=1e-15, abs=0.0)
        assert du == ux.derivative(dx=2 * l + 1)
    # along v the closure coefficients are the n = 0 entries of the correction series
    uv = PolynomialPotential(tuple((0, k, c) for k, c in odd))
    table = {(t.l, t.n): t for t in build_term_table(uv, params)}
    for l, coeff, du in closure_coefficients(uv, params, "v")[1:]:
        assert coeff == table[(l, 0)].coeff
        assert du == table[(l, 0)].du
    with pytest.raises(ValidationError):
        closure_coefficients(ux, params, "vdot")


# --- residuals ----------------------------------------------------------------

def test_stationary_solution_solves_its_equation():
    rng = np.random.default_rng(21)
    pts = tuple(rng.uniform(-4, 4, size=600) for _ in range(4))
    res = moyal_residual(w1234_field(P), u12_polynomial(P), P, SCHEME, points=pts)
    assert np.abs(res).max() < 1e-8


def test_wrong_potential_is_detected():
    rng = np.random.default_rng(22)
    pts = tuple(rng.uniform(-2, 2, size=600) for _ in range(4))
    bad = u12_polynomial(PhysParams(omega=2.0))
    res = moyal_residual(w1234_field(P), bad, P, SCHEME, points=pts)
    assert np.abs(res).max() > 1e-2 * w1234_analytic(0, 0, 0, 0, P)


def test_quadratic_series_is_identically_zero_on_grids():
    axes = tuple(make_axis(n, -6.0, 6.0, 16) for n in ("x", "v", "vdot", "vddot"))
    w4 = sample_real(lambda x, v, vd, vdd: w1234_analytic(x, v, vd, vdd, P), axes)
    rhs = moyal_rhs(w4, u12_polynomial(P), P, StencilScheme(order=4))
    assert np.all(rhs.data == 0.0)


GRID16 = tuple(make_axis(n, -6.0, 6.0, 16) for n in ("x", "v", "vdot", "vddot"))
W16 = sample_real(lambda x, v, vd, vdd: w1234_analytic(x, v, vd, vdd, P), GRID16)
# every other interior node, at least 3 nodes (the widest stencil's halfwidth here) from an edge
INNER = slice(3, -3, 2)
COEF = st.floats(-1.0, 1.0, allow_nan=False)


@pytest.mark.parametrize("operator", [transport_lhs, moyal_rhs, moyal_residual], ids=lambda f: f.__name__)
@settings(max_examples=10)
@given(a=COEF, b=COEF, c=COEF)
@example(a=0.0, b=0.0, c=0.25)
def test_grid_and_pointwise_modes_agree_at_interior_nodes(operator, a, b, c):
    # mixed x^2 v^2 and x v^3 terms keep several (l, n) entries of the series alive
    u = PolynomialPotential(u12_polynomial(P).terms + ((2, 2, a), (1, 3, b), (4, 0, c)))
    scheme = StencilScheme(order=4, h=GRID16[0].step)
    grid = operator(W16, u, P, scheme).data[(INNER,) * 4].ravel()
    pts = tuple(g.ravel() for g in np.meshgrid(*[ax.points()[INNER] for ax in GRID16], indexing="ij"))
    field = PointwiseField(lambda x, v, vd, vdd: w1234_analytic(x, v, vd, vdd, P), 4)
    pointwise = operator(field, u, P, scheme, points=pts)
    assert np.abs(grid - pointwise).max() <= 1e-13 * np.abs(pointwise).max()


def test_dt_term_shifts_transport():
    axes = tuple(make_axis(n, -6.0, 6.0, 8) for n in ("x", "v", "vdot", "vddot"))
    w4 = sample_real(lambda x, v, vd, vdd: w1234_analytic(x, v, vd, vdd, P), axes)
    scheme = StencilScheme(order=2)
    base = transport_lhs(w4, u12_polynomial(P), P, scheme)
    bump = np.full(w4.data.shape, 0.7)
    shifted = transport_lhs(w4, u12_polynomial(P), P, scheme, dt_term=bump)
    assert np.allclose(shifted.data, base.data + 0.7, rtol=0, atol=1e-15)


def test_mode_validation():
    u = u12_polynomial(P)
    field = w1234_field(P)
    with pytest.raises(ValidationError):
        moyal_rhs(field, u, P, SCHEME)  # pointwise mode needs points
    with pytest.raises(ValidationError):
        transport_lhs(field, u, P, SCHEME)
    axes = tuple(make_axis(n, -6.0, 6.0, 8) for n in ("x", "vdot", "v", "vddot"))
    w4 = sample_real(lambda x, vd, v, vdd: w1234_analytic(x, v, vd, vdd, P), axes)
    with pytest.raises(ValidationError):
        moyal_residual(w4, u, P, SCHEME)  # axes out of canonical order
