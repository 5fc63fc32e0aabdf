"""Shifted-autocorrelation transforms and their marginals."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasechain.fields as fields_mod
from phasechain import (
    ComplexField,
    NumericError,
    PhysParams,
    TransformPlan,
    ValidationError,
    integrate_axis,
    make_axis,
    marginal_to_2,
    psi12,
    sample_complex,
    transform_rows,
    w123_analytic,
    w124_analytic,
    w1234_analytic,
    wigner3,
    wigner4,
    wigner4_marginal_to_24,
    wigner4_marginal_to_3,
    wigner24,
)
from phasechain.fields import max_abs

P = PhysParams()
AXES = (make_axis("x", -8.0, 8.0, 64), make_axis("v", -8.0, 8.0, 64))


@pytest.fixture(scope="module")
def psi():
    return sample_complex(lambda x, v: psi12(x, v, 0.0, P), AXES)


@pytest.fixture(scope="module")
def w4(psi):
    return wigner4(psi, P)


def test_plan_geometry(psi):
    plan = TransformPlan.for_psi(psi, P)
    assert plan.s1.n == 64 and plan.s1.step == 0.5
    assert plan.s1.min == -16.0
    assert plan.vdot.n == 64
    assert plan.vdot.min == pytest.approx(-2.0 * math.pi)
    assert plan.vdot.step == pytest.approx(math.pi / 16.0)
    for dual, shift in ((plan.vddot, plan.s1), (plan.vdot, plan.s2)):
        assert P.m * dual.step * shift.n * shift.step == pytest.approx(2.0 * math.pi * P.hbar2)
    # heavier particle squeezes the dual range
    heavy = TransformPlan.for_psi(psi, PhysParams(m=4.0))
    assert heavy.vdot.step == pytest.approx(math.pi / 64.0)


def test_input_validation():
    bad_names = (make_axis("x", -8.0, 8.0, 64), make_axis("vdot", -8.0, 8.0, 64))
    f = ComplexField(bad_names, np.zeros((64, 64), dtype=complex))
    with pytest.raises(ValidationError):
        wigner4(f, P)
    odd = (make_axis("x", -8.0, 8.0, 48), make_axis("v", -8.0, 8.0, 48))
    g = ComplexField(odd, np.zeros((48, 48), dtype=complex))
    with pytest.raises(ValidationError):
        wigner3(g, P)


def test_transform_matches_closed_form(w4):
    mx, mv, mvd, mvdd = (a.points() for a in w4.axes)
    for i in (16, 32, 45):
        ref = w1234_analytic(
            mx[i], mv[:, None, None], mvd[None, :, None], mvdd[None, None, :], P
        )
        assert np.abs(w4.data[i] - ref).max() < 1e-9
    peak = w4.data[32, 32, 32, 32]
    assert peak == pytest.approx(1.0 / math.pi**2, abs=1e-9)


def test_single_transforms_match_closed_forms(psi):
    w3 = wigner3(psi, P)
    assert w3.data[32, 32, 32] == pytest.approx(math.pi**-1.5, abs=1e-9)
    mx, mv, mvd = (a.points() for a in w3.axes)
    ref = w123_analytic(mx[:, None, None], mv[None, :, None], mvd[None, None, :], P)
    assert np.abs(w3.data - ref).max() < 1e-9

    w24 = wigner24(psi, P)
    mx, mv, mvdd = (a.points() for a in w24.axes)
    ref = w124_analytic(mx[:, None, None], mv[None, :, None], mvdd[None, None, :], P)
    assert np.abs(w24.data - ref).max() < 1e-9


def test_marginal_tower(psi, w4):
    w3 = wigner4_marginal_to_3(w4, P)
    assert np.abs(w3.data - wigner3(psi, P).data).max() < 1e-10
    w24 = wigner4_marginal_to_24(w4, P)
    assert np.abs(w24.data - wigner24(psi, P).data).max() < 1e-10
    dens = marginal_to_2(w4, P)
    assert np.abs(dens.data - np.abs(psi.data) ** 2).max() < 1e-10
    prob = integrate_axis(integrate_axis(dens, "v"), "x")
    assert prob == pytest.approx(1.0, abs=1e-9)


def test_marginal_to_2_needs_position_axes():
    f = integrate_axis(
        sample_complex(lambda x, v: psi12(x, v, 0.0, P), AXES).with_data(
            np.abs(sample_complex(lambda x, v: psi12(x, v, 0.0, P), AXES).data) ** 2
        ),
        "x",
    )
    # f is now a real rank-1 field on v only
    with pytest.raises(ValidationError):
        marginal_to_2(f, P)


def test_linearity_and_global_phase(psi, w4):
    # scaling perturbs rounding inside the FFT, so far tail values (~1e-59)
    # only agree to an absolute floor set by the peak times machine epsilon
    alpha = 0.7 + 0.4j
    scaled = wigner4(psi.with_data(alpha * psi.data), P)
    assert np.allclose(scaled.data, abs(alpha) ** 2 * w4.data, rtol=1e-12, atol=1e-15)
    rotated = wigner4(psi.with_data(np.exp(1j * 1.234) * psi.data), P)
    assert np.allclose(rotated.data, w4.data, rtol=1e-12, atol=1e-15)


def test_translation_covariance_is_exact(psi):
    # zero the outer margin so a two-node roll moves exact zeros in,
    # then the padded autocorrelation windows are a pure permutation
    data = np.array(psi.data)
    data[:4, :] = 0.0
    data[-4:, :] = 0.0
    data[:, :4] = 0.0
    data[:, -4:] = 0.0
    base = wigner4(ComplexField(AXES, data), P)
    rolled = wigner4(ComplexField(AXES, np.roll(data, (2, 1), axis=(0, 1))), P)
    assert np.array_equal(rolled.data, np.roll(base.data, (2, 1), axis=(0, 1)))


@st.composite
def shifted_psis(draw):
    """(psi on a zero margin, x shift, v shift): random complex samples, shifts no wider than the margin."""
    nx, nv = draw(st.sampled_from([8, 16, 32])), draw(st.sampled_from([8, 16, 32]))
    sx, sv = draw(st.integers(-nx // 4, nx // 4)), draw(st.integers(-nv // 4, nv // 4))
    mx, mv = draw(st.integers(abs(sx), nx // 4)), draw(st.integers(abs(sv), nv // 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = np.zeros((nx, nv), dtype=complex)
    inner = (nx - 2 * mx, nv - 2 * mv)
    data[mx : nx - mx, mv : nv - mv] = rng.standard_normal(inner) + 1j * rng.standard_normal(inner)
    axes = (make_axis("x", -3.0, 3.0, nx), make_axis("v", -2.0, 2.0, nv))
    return ComplexField(axes, data), sx, sv


@settings(max_examples=20)
@given(shifted_psis())
def test_translation_covariance_on_generated_psi(case):
    # a whole-node shift of psi over its zero margin permutes the autocorrelation windows, so W
    # shifts with it exactly (np.array_equal: a zero may change sign)
    psi, sx, sv = case
    for transform in (wigner4, wigner3, wigner24):
        base = transform(psi, P)
        moved = transform(psi.with_data(np.roll(psi.data, (sx, sv), axis=(0, 1))), P)
        assert np.array_equal(moved.data, np.roll(base.data, (sx, sv), axis=(0, 1))), transform.__name__


def test_probability_survives_detuned_hbar2(psi):
    # the dual grids and the prefactor both track hbar2, so the reduction to
    # |psi|^2 cannot depend on it
    p = PhysParams(hbar2=2.0)
    dens = marginal_to_2(wigner4(psi, p), p)
    assert np.abs(dens.data - np.abs(psi.data) ** 2).max() < 1e-10


def test_transforms_are_deterministic(psi):
    a = wigner3(psi, P)
    b = wigner3(psi, P)
    assert np.array_equal(a.data, b.data)


# The transforms run on half the spectrum and the gather oracles below on all of it, so the two differ by the
# rounding of their FFTs: at most 1.95 eps x peak over this file's cases (wigner3 agrees bit for bit)
ROUNDING = 4 * np.finfo(float).eps


def assert_near_oracle(got, ref, name=""):
    assert got.shape == ref.shape, name
    assert max_abs(got - ref) <= ROUNDING * max_abs(ref), name


def gather_wigner4(psi, params):
    """The padded-gather rank-4 transform: one fancy-indexed kernel per x-row, shifted by quadrant stores.

    Kernel rows are centered shifts k' in ifftshift order, gathered from a copy
    of psi zero-padded by half an axis on every side; the spectrum is
    fft(ifft(kernel, k'), l') on (k', v, l'), moved to (v, vdot, vddot) and
    fftshifted by swapping halves.
    """
    plan = TransformPlan.for_psi(psi, params)
    ax, av = psi.axes
    nx, nv = ax.n, av.n
    hx, hv = nx // 2, nv // 2
    pref = (2.0 * ax.step) * (2.0 * av.step) / (2.0 * math.pi * plan.hbar2) ** 2
    padded = np.pad(psi.data, ((hx, hx), (hv, hv)))
    kq = (np.arange(nx) + hx) % nx
    rows_minus, rows_plus = (nx - kq)[:, None, None], kq[:, None, None]
    j, lp = np.arange(nv)[:, None], (np.arange(nv)[None, :] + hv) % nv
    colm, colp = j + nv - lp, j + lp
    halves = lambda h: ((slice(h, None), slice(None, h)), (slice(None, h), slice(h, None)))  # noqa: E731
    out = np.empty((nx, nv, nv, nx))
    max_imag = 0.0
    for i in range(nx):
        ker = np.conj(padded[rows_minus + i, colm]) * padded[rows_plus + i, colp]
        spec = np.fft.fft(np.fft.ifft(ker, axis=0, norm="forward"), axis=2)
        max_imag = max(max_imag, max_abs(spec.imag))
        re = np.moveaxis(spec.real, 0, 2)
        for src_r, dst_r in halves(hv):
            for src_q, dst_q in halves(hx):
                np.multiply(pref, re[:, src_r, src_q], out=out[i][:, dst_r, dst_q])
    return out, max_imag * pref


@pytest.mark.parametrize("shape", [(4, 8), (8, 4), (16, 32), (32, 16)])
def test_wigner4_is_within_rounding_of_the_gather_oracle(shape):
    axes = (make_axis("x", -3.0, 3.0, shape[0]), make_axis("v", -2.0, 2.0, shape[1]))
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    psi = ComplexField(axes, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    ref, residue = gather_wigner4(psi, P)
    assert residue <= 1e-10 * max_abs(ref)
    assert_near_oracle(wigner4(psi, P).data, ref)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("v_rows", [1, 3, 32], ids=["one-v-row", "3-of-32-v-rows", "whole-row"])
def test_any_kernel_chunk_gives_the_default_run_bit_for_bit(monkeypatch, workers, v_rows):
    # each v-row's FFT lines are transformed alone whatever the tile, and 3 leaves a short last tile
    axes = (make_axis("x", -3.0, 3.0, 16), make_axis("v", -2.0, 2.0, 32))
    rng = np.random.default_rng(1632)
    psi = ComplexField(axes, rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32)))
    # a v-row of W: 32 x 16 values for wigner4, 32 for wigner3 and 16 for wigner24
    cases = [(transform, v_row, transform(psi, P).data)
             for transform, v_row in ((wigner4, 32 * 16), (wigner3, 32), (wigner24, 16))]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    fields_mod._workers.cache_clear()
    try:
        for transform, v_row, ref in cases:
            monkeypatch.setattr(fields_mod, "_TILE_BYTES", v_rows * 8 * v_row)
            assert transform(psi, P).data.tobytes() == ref.tobytes(), transform.__name__
    finally:
        fields_mod._workers.cache_clear()


@pytest.mark.parametrize("v_rows", ["default", 1, 3], ids=["default", "one-v-row", "3-of-32-v-rows"])
def test_the_transform_tiles_equal_the_default_run_bit_for_bit(monkeypatch, v_rows):
    # transform_rows yields the grid loops' tiles of W's shape in order, each block W's points at its index; in
    # order the blocks are consecutive byte ranges of W, as write_rows writes them
    axes = (make_axis("x", -3.0, 3.0, 16), make_axis("v", -2.0, 2.0, 32))
    rng = np.random.default_rng(1632)
    psi = ComplexField(axes, rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32)))
    cases = ((("x", "v"), wigner4(psi, P).data), (("v",), wigner3(psi, P).data), (("x",), wigner24(psi, P).data))
    for shifts, ref in cases:
        if v_rows != "default":
            monkeypatch.setattr(fields_mod, "_TILE_BYTES", v_rows * 8 * math.prod(ref.shape[2:]))
        w_axes, tiles = transform_rows(psi, P, shifts)
        assert tuple(a.n for a in w_axes) == ref.shape
        got = [(index, block.copy()) for index, block in tiles]  # a block is valid until the next is asked for
        assert [index for index, _ in got] == [(slice(lo, hi), slice(v0, v1))
                                              for lo, hi, v0, v1 in fields_mod._grid_tiles(ref.shape)], shifts
        for index, block in got:
            assert np.array_equal(block, ref[index]), (shifts, index)
        assert b"".join(block.tobytes() for _, block in got) == ref.tobytes(), shifts


def test_wigner4_of_the_oscillator_is_within_rounding_of_the_gather_oracle(psi, w4):
    assert_near_oracle(w4.data, gather_wigner4(psi, P)[0])


def gather_single(psi, params, axis):
    """The whole-kernel single transform over the shift of psi's axis 1 (v, by fft, to vdot) or 0 (x, by n ifft,
    to vddot); returns W and its max |imaginary residue|.

    The kernel ker[other, j, l'] = conj(psi[j - l']) psi[j + l'] along the
    shifted axis, for centered shift index l', is gathered whole from a copy
    of psi zero-padded by half that axis, then ifftshifted, transformed and
    fftshifted along l'.
    """
    plan = TransformPlan.for_psi(psi, params)
    shifted, n = psi.axes[axis], psi.axes[axis].n
    pref = 2.0 * shifted.step / (2.0 * math.pi * plan.hbar2)
    padded = np.pad(np.moveaxis(psi.data, axis, 1), ((0, 0), (n // 2, n // 2)))
    j, lp = np.arange(n)[:, None], np.arange(n)[None, :]
    ker = np.fft.ifftshift(np.conj(padded[:, j + n - lp]) * padded[:, j + lp], axes=2)
    spec = np.fft.fft(ker, axis=2) if axis else np.fft.ifft(ker, axis=2) * n
    spec = np.moveaxis(np.fft.fftshift(spec, axes=2), 1, axis) * pref  # (x, v, dual)
    return np.ascontiguousarray(spec.real), max_abs(spec.imag)


@pytest.mark.parametrize("shape", [(4, 8), (8, 4), (16, 32), (32, 16)])
def test_single_transforms_are_within_rounding_of_the_gather_oracle(shape):
    # the streamed rows hold the untransformed shift at 0
    axes = (make_axis("x", -3.0, 3.0, shape[0]), make_axis("v", -2.0, 2.0, shape[1]))
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    psi = ComplexField(axes, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for transform, axis in ((wigner3, 1), (wigner24, 0)):
        ref, residue = gather_single(psi, P, axis)
        assert residue <= 1e-10 * max_abs(ref)
        assert_near_oracle(transform(psi, P).data, ref, transform.__name__)


def test_single_transforms_of_the_oscillator_are_within_rounding_of_the_gather_oracle(psi):
    assert_near_oracle(wigner3(psi, P).data, gather_single(psi, P, 1)[0], "wigner3")
    assert_near_oracle(wigner24(psi, P).data, gather_single(psi, P, 0)[0], "wigner24")
