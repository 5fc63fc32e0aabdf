"""Shifted-autocorrelation transforms and their marginals."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasechain.fields as fields_mod
import phasechain.wigner as wigner_mod
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
    w123_analytic,
    w124_analytic,
    w1234_analytic,
    wigner3,
    wigner4,
    wigner4_marginal_to_24,
    wigner4_marginal_to_3,
    wigner24,
)
from phasechain.fields import _max_abs

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
    base = wigner4(psi, P)
    moved = wigner4(psi.with_data(np.roll(psi.data, (sx, sv), axis=(0, 1))), P)
    assert np.array_equal(moved.data, np.roll(base.data, (sx, sv), axis=(0, 1)))


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
        max_imag = max(max_imag, _max_abs(spec.imag))
        re = np.moveaxis(spec.real, 0, 2)
        for src_r, dst_r in halves(hv):
            for src_q, dst_q in halves(hx):
                np.multiply(pref, re[:, src_r, src_q], out=out[i][:, dst_r, dst_q])
    return out, max_imag * pref


@pytest.mark.parametrize("shape", [(4, 8), (8, 4), (16, 32), (32, 16)])
def test_wigner4_equals_the_gather_oracle_bit_for_bit(shape):
    axes = (make_axis("x", -3.0, 3.0, shape[0]), make_axis("v", -2.0, 2.0, shape[1]))
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    psi = ComplexField(axes, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    ref, residue = gather_wigner4(psi, P)
    assert residue <= 1e-10 * _max_abs(ref)
    assert wigner4(psi, P).data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("v_rows", [1, 3, 32], ids=["one-v-row", "3-of-32-v-rows", "whole-row"])
def test_any_kernel_chunk_gives_the_gather_oracle_bit_for_bit(monkeypatch, workers, v_rows):
    # each v-row's FFT lines are transformed alone whatever the chunk, and 3 leaves a short last chunk
    axes = (make_axis("x", -3.0, 3.0, 16), make_axis("v", -2.0, 2.0, 32))
    rng = np.random.default_rng(1632)
    psi = ComplexField(axes, rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32)))
    monkeypatch.setattr(wigner_mod, "_KERNEL_BYTES", v_rows * 16 * 32 * 16)  # a v-row: 32 x 16 complex
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    fields_mod._workers.cache_clear()
    try:
        got = wigner4(psi, P).data
    finally:
        fields_mod._workers.cache_clear()
    assert got.tobytes() == gather_wigner4(psi, P)[0].tobytes()


def test_wigner4_of_the_oscillator_equals_the_gather_oracle_bit_for_bit(psi, w4):
    assert w4.data.tobytes() == gather_wigner4(psi, P)[0].tobytes()
