"""Pointwise evaluation stays bit-identical to its first, one-offset-at-a-time form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pointwise_stencil_sum
from phasechain import PhysParams, PointwiseField, StencilScheme, gamma_form, w1234_analytic, w1234_field

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
