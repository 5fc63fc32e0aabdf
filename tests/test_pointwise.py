"""Pointwise evaluation stays bit-identical to its first, one-offset-at-a-time form."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    gamma_oneline,
    pointwise_stencil_sum,
    w12_oneline,
    w123_oneline,
    w124_oneline,
    w1234_oneline,
)
from phasechain import (
    PhysParams,
    PointwiseField,
    StencilScheme,
    gamma_form,
    w12_analytic,
    w123_analytic,
    w124_analytic,
    w1234_analytic,
    w1234_field,
)

COORD = st.floats(-3.0, 3.0, allow_nan=False)


def _smooth(*coords):
    """A rank-generic smooth field with cross terms, so every mixed partial is nonzero."""
    s = sum((k + 1) * 0.3 * c * c for k, c in enumerate(coords))
    return np.exp(-s) * (1.0 + coords[0] * coords[-1]) + np.sin(sum(coords))


@st.composite
def point_sets(draw, rank):
    """Either n points, or a broadcast grid whose k-th coordinate varies along axis k."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        return tuple(np.array(draw(st.lists(COORD, min_size=n, max_size=n))) for _ in range(rank))
    coords = []
    for k in range(rank):
        n = draw(st.integers(1, 3))
        shape = [1] * rank
        shape[k] = n
        coords.append(np.array(draw(st.lists(COORD, min_size=n, max_size=n))).reshape(shape))
    return tuple(coords)


@st.composite
def closed_form_points(draw, rank):
    """point_sets, Python floats, 0-d arrays, or check 1's mix: a 0-d first coordinate on a mesh of the rest."""
    kind = draw(st.sampled_from(("points", "floats", "0-d", "mixed")))
    if kind == "points":
        return draw(point_sets(rank))
    if kind == "floats":
        return tuple(draw(COORD) for _ in range(rank))
    if kind == "0-d":
        return tuple(np.array(draw(COORD)) for _ in range(rank))
    return (np.array(draw(COORD)), *draw(point_sets(rank - 1)))


@st.composite
def stencil_cases(draw):
    rank = draw(st.integers(1, 4))
    powers = tuple(draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank)))
    scheme = StencilScheme(order=draw(st.sampled_from((2, 4, 6))), h=draw(st.sampled_from((0.3, 0.04, 0.01))))
    return rank, powers, scheme, draw(point_sets(rank))


@settings(max_examples=30)
@given(stencil_cases())
def test_stencil_derivative_equals_the_per_offset_loop_bit_for_bit(case):
    rank, powers, scheme, coords = case
    got = PointwiseField(_smooth, rank).derivative(powers, coords, scheme)
    want = pointwise_stencil_sum(_smooth, powers, coords, scheme) if any(powers) else _smooth(*coords)
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


PARAMS = st.builds(PhysParams, m=st.sampled_from((1.0, 0.7, 2.5)), hbar=st.sampled_from((1.0, 0.3)),
                   omega=st.sampled_from((1.0, 1.7, 0.45)))


@settings(max_examples=20)
@given(p=PARAMS, coords=point_sets(4))
def test_w1234_is_the_exponential_of_the_gamma_form_bit_for_bit(p, coords):
    want = np.exp(-(p.m / (p.hbar * p.omega)) * gamma_form(*coords, p.omega).value) / (math.pi * p.hbar2) ** 2
    assert w1234_analytic(*coords, p).tobytes() == want.tobytes()


CLOSED_FORMS = {
    "gamma": (4, lambda x, v, vd, vdd, p: gamma_form(x, v, vd, vdd, p.omega).value,
              lambda x, v, vd, vdd, p: gamma_oneline(x, v, vd, vdd, p.omega**2)),
    "w1234": (4, w1234_analytic, w1234_oneline),
    "w123": (3, w123_analytic, w123_oneline),
    "w124": (3, w124_analytic, w124_oneline),
    "w12": (2, w12_analytic, w12_oneline),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@settings(max_examples=40)
@given(p=PARAMS, data=st.data())
def test_closed_forms_equal_their_one_line_expressions_bit_for_bit(name, p, data):
    rank, form, oneline = CLOSED_FORMS[name]
    coords = data.draw(closed_form_points(rank))
    got, want = form(*coords, p), oneline(*coords, p)
    shape = np.broadcast(*coords).shape
    assert type(got) is type(want) is (np.ndarray if shape else np.float64)
    assert np.shape(got) == shape and np.asarray(got).dtype == np.float64
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_w1234_on_a_broadcast_mesh_holds_at_most_two_full_arrays():
    # check 1's call: a 0-d x on a sparse (v, vdot, vddot) mesh; each group of gamma keeps its operands' shape
    n = 64
    mesh = np.meshgrid(*(np.linspace(-3.0, 3.0, n),) * 3, indexing="ij", sparse=True)
    p = PhysParams()
    w1234_analytic(np.float64(0.3), *mesh, p)
    tracemalloc.start()
    try:
        w = w1234_analytic(np.float64(0.3), *mesh, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.shape == (n, n, n)
    assert peak <= 2 * w.nbytes


@settings(max_examples=20)
@given(p=PARAMS, coords=point_sets(4), axis=st.integers(0, 3))
def test_w1234_exact_rule_equals_the_whole_gamma_form_formula_bit_for_bit(p, coords, axis):
    powers = tuple(int(k == axis) for k in range(4))
    scale = p.m / (p.hbar * p.omega)
    g = gamma_form(*coords, p.omega)
    grad = (g.d_x, g.d_v, g.d_vdot, g.d_vddot)[axis]
    want = -scale * grad * (np.exp(-scale * g.value) / (math.pi * p.hbar2) ** 2)
    got = w1234_field(p).derivative(powers, coords, StencilScheme(order=4, h=0.01))
    assert got.tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("powers", [(0, 1), (1, 0), (2, 3)])
def test_neither_the_returned_array_nor_the_coordinates_are_written(powers):
    x, v = np.linspace(-1.0, 1.0, 7), np.linspace(-2.0, 2.0, 7)
    x0, v0 = x.copy(), v.copy()
    kept = np.full(7, 3.0)
    scheme = StencilScheme(order=4, h=0.1)
    # the identity hands back the shifted buffer it was given; `kept` is an array the callable holds
    for func in (lambda x, v: v, lambda x, v: kept):
        got = PointwiseField(func, 2).derivative(powers, (x, v), scheme)
        assert got.tobytes() == pointwise_stencil_sum(func, powers, (x, v), scheme).tobytes()
        assert x.tobytes() == x0.tobytes() and v.tobytes() == v0.tobytes()
        assert np.all(kept == 3.0)
    d_v = PointwiseField(lambda x, v: v, 2).derivative((0, 1), (x, v), scheme)
    assert np.allclose(d_v, 1.0, rtol=0, atol=1e-12)
