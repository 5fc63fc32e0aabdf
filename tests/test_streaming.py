"""Pad-free stencils and x-slab evaluation: bit-exact against dense references, bounded memory."""

import math

import numpy as np
import pytest

import phasechain.fields as fields_mod
from phasechain import (
    PhysParams,
    PolynomialPotential,
    RealField,
    StencilScheme,
    accel_flux_124_from_w4,
    make_axis,
    mean_flux_from_w4,
    moyal_residual,
    moyal_residual_slabs,
    moyal_rhs,
    read_field,
    stencil_coefficients,
    transport_lhs,
    write_field,
)
from phasechain.checks import _check_transform, _peak_rss_mb, _traced_peak_mb
from phasechain.cli import main
from phasechain.fields import _apply_stencil_along_axis, partial_derivative, stencil_halfwidth
from phasechain.moyal import build_term_table

P = PhysParams(m=1.3)
SHAPE = (14, 10, 12, 16)
MIXED_QUARTIC = PolynomialPotential(((0, 2, 1.5), (2, 0, -0.5), (4, 0, 0.01), (2, 2, 0.3), (1, 3, -0.2)))


def pad_oracle(data, axis, power, order, h):
    """The zero-padded stencil the kernel replaced: one padded copy, one temporary per tap."""
    w = stencil_halfwidth(power, order)
    pad = [(0, 0)] * data.ndim
    pad[axis] = (w, w)
    padded = np.pad(data, pad)
    n = data.shape[axis]
    out = np.zeros_like(data)
    sl = [slice(None)] * data.ndim
    for j, c in zip(range(-w, w + 1), stencil_coefficients(power, order)):
        if c == 0.0:
            continue
        sl[axis] = slice(w + j, w + j + n)
        out += c * padded[tuple(sl)]
    out /= h**power
    return out


def same_bits(a, b) -> bool:
    # np.array_equal treats -0.0 == 0.0; the bytes tell them apart
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def w4():
    axes = tuple(make_axis(name, -3.0, 3.0, n) for name, n in zip(("x", "v", "vdot", "vddot"), SHAPE))
    rng = np.random.default_rng(20260813)
    data = rng.standard_normal(SHAPE)
    data[0, 0, 0, 0], data[1, 2, 3, 4] = -0.0, 0.0
    return RealField(axes, data)


@pytest.fixture(scope="module")
def positive_w4(w4):
    # a bump plus noise: densities with a real support mask
    mesh = np.meshgrid(*[a.points() for a in w4.axes], indexing="ij", sparse=True)
    bump = np.exp(-sum(c * c for c in mesh))
    return w4.with_data(bump + 0.01 * w4.data)


@pytest.fixture(params=[1, 3, "n"])
def slab_rows(request, monkeypatch, w4):
    rows = SHAPE[0] if request.param == "n" else request.param
    monkeypatch.setattr(fields_mod, "_SLAB_BYTES", rows * w4.data[0].nbytes)
    return rows


# --- stencil kernel ----------------------------------------------------------

@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("power", range(1, 7))
@pytest.mark.parametrize("axis", ["x", "v", "vdot", "vddot"])
def test_partial_derivative_matches_pad_oracle_bit_for_bit(w4, axis, power, order):
    k = w4.axis_index(axis)
    h = w4.axes[k].step
    ref = pad_oracle(w4.data, k, power, order, h)
    assert same_bits(partial_derivative(w4, axis, power, StencilScheme(order=order)).data, ref)
    n = SHAPE[k]
    coeffs, w = stencil_coefficients(power, order), stencil_halfwidth(power, order)
    for lo, hi in ((0, 1), (0, 3), (2, 7), (n - 3, n), (n - 1, n), (0, n)):
        sl = [slice(None)] * 4
        sl[k] = slice(lo, hi)
        got = _apply_stencil_along_axis(w4.data, k, coeffs, w, h, power, lo, hi)
        assert same_bits(got, ref[tuple(sl)]), (lo, hi)


# --- moyal slabs -------------------------------------------------------------

def dense_moyal(w4, u, scheme, dt_term=None):
    """The dense grid transport, series and residual, evaluated as one block."""
    def d(data, k, power):
        return pad_oracle(data, k, power, scheme.order, scheme.h or w4.axes[k].step)

    x = w4.axes[0].points()[:, None, None, None]
    v = w4.axes[1].points()[None, :, None, None]
    vdot = w4.axes[2].points()[None, None, :, None]
    vddot = w4.axes[3].points()[None, None, None, :]
    lhs = np.zeros_like(w4.data)
    if dt_term is not None:
        lhs += dt_term
    lhs += v * d(w4.data, 0, 1)
    lhs += vdot * d(w4.data, 1, 1)
    lhs += (vddot - u.derivative(dv=1)(x, v) / P.m) * d(w4.data, 2, 1)
    lhs += (u.derivative(dx=1)(x, v) / P.m) * d(w4.data, 3, 1)
    rhs = np.zeros_like(w4.data)
    for term in build_term_table(u, P):
        dw = d(w4.data, 3, term.vddot_power) if term.vddot_power else w4.data
        if term.vdot_power:
            dw = d(dw, 2, term.vdot_power)
        rhs += (term.coeff * term.du(x, v)) * dw
    return lhs, rhs, lhs - rhs


@pytest.mark.parametrize("order", [2, 4, 6])
def test_residual_slabs_equal_dense_residual(w4, slab_rows, order):
    scheme = StencilScheme(order=order)
    lhs, rhs, res = dense_moyal(w4, MIXED_QUARTIC, scheme)
    assert len(build_term_table(MIXED_QUARTIC, P)) >= 3  # the series is live
    blocks = list(moyal_residual_slabs(w4, MIXED_QUARTIC, P, scheme))
    assert [(lo, hi) for lo, hi, _ in blocks] == [
        (lo, min(lo + slab_rows, SHAPE[0])) for lo in range(0, SHAPE[0], slab_rows)]
    for lo, hi, block in blocks:
        assert same_bits(block, res[lo:hi])
    assert same_bits(moyal_residual(w4, MIXED_QUARTIC, P, scheme).data, res)
    assert same_bits(transport_lhs(w4, MIXED_QUARTIC, P, scheme).data, lhs)
    assert same_bits(moyal_rhs(w4, MIXED_QUARTIC, P, scheme).data, rhs)


def test_residual_slabs_carry_the_time_derivative_and_step(w4, slab_rows):
    scheme = StencilScheme(order=4, h=0.3)
    dt = np.random.default_rng(1).standard_normal(SHAPE)
    lhs, _, res = dense_moyal(w4, MIXED_QUARTIC, scheme, dt_term=dt)
    got = np.concatenate([b for _, _, b in moyal_residual_slabs(w4, MIXED_QUARTIC, P, scheme, dt_term=dt)])
    assert same_bits(got, res)
    assert same_bits(transport_lhs(w4, MIXED_QUARTIC, P, scheme, dt_term=dt).data, lhs)


# --- flux moments ------------------------------------------------------------

def dense_ratio(num, den, threshold):
    mask = np.abs(den) >= threshold * float(np.abs(den).max())
    vals = np.zeros_like(den)
    np.divide(num, den, out=vals, where=mask)
    return vals, mask


@pytest.mark.parametrize("threshold", [1e-8, 0.3])
@pytest.mark.parametrize("kind", ["123-accel", "124-vel", "12-vel"])
def test_mean_flux_equals_dense_moments(positive_w4, slab_rows, kind, threshold):
    data, axes = positive_w4.data, positive_w4.axes
    if kind == "12-vel":
        data = data.sum(axis=3) * (P.m * axes[3].step)
    k = 3 if kind == "123-accel" else 2
    coord = axes[k].points().reshape((-1,) + (1,) * (data.ndim - 1 - k))
    num = (data * coord).sum(axis=k) * (P.m * axes[k].step)
    den = data.sum(axis=k) * (P.m * axes[k].step)
    vals, mask = dense_ratio(num, den, threshold)
    fl = mean_flux_from_w4(positive_w4, kind, P, threshold)
    assert same_bits(fl.values.data, vals) and same_bits(fl.mask, mask)
    if threshold == 0.3:
        assert 0.0 < fl.masked_fraction < 1.0


@pytest.mark.parametrize("order", [2, 4, 6])
def test_accel_flux_124_equals_dense_product(positive_w4, slab_rows, order):
    u = PolynomialPotential(((0, 2, 1.5), (2, 0, -0.5), (4, 0, 0.01), (5, 0, 0.003)))
    data, axes = positive_w4.data, positive_w4.axes
    xs = axes[0].points()[:, None, None, None]
    vs = axes[1].points()[None, :, None, None]
    ratio2 = (P.hbar2 / (2.0 * P.m)) ** 2
    product = np.zeros_like(data)
    for l in range(3):  # degree 5 in x: l runs to 2
        c = ((-1.0) ** l) * ratio2**l / (P.m * math.factorial(2 * l + 1))
        dfl = data if l == 0 else pad_oracle(data, 3, 2 * l, order, axes[3].step)
        product += c * u.derivative(dx=2 * l + 1)(xs, vs) * dfl
    scale = P.m * axes[2].step
    vals, mask = dense_ratio(product.sum(axis=2) * scale, data.sum(axis=2) * scale, 0.2)
    fl = accel_flux_124_from_w4(positive_w4, u, P, StencilScheme(order=order), 0.2)
    assert same_bits(fl.values.data, vals) and same_bits(fl.mask, mask)


# --- memory ------------------------------------------------------------------

@pytest.fixture(scope="module")
def session32(tmp_path_factory):
    d = tmp_path_factory.mktemp("mem32")
    (d / "u4.txt").write_text("0 2 1.5\n2 0 -0.5\n4 0 0.01\n", encoding="utf-8")
    assert main(["gen-ho", "--nx", "32", "--nv", "32", "--out", str(d / "psi.fld")]) == 0
    assert main(["wigner", "--in", str(d / "psi.fld"), "--out", str(d / "w4.fld")]) == 0
    return d


@pytest.mark.parametrize("step", ["wigner", "fluxes", "psi-moyal", "vlasov124"])
def test_rank4_steps_hold_one_dense_field(session32, capsys, step):
    # each step holds W (8 MiB at 32^2) plus x-slabs and reduced fields
    d = session32
    w4_path = d / "w4.fld"
    residual = ["residual", "--in", str(w4_path), "--potential", str(d / "u4.txt"), "--mode"]
    argv = {
        "wigner": ["wigner", "--in", str(d / "psi.fld"), "--out", str(d / "w4b.fld")],
        "fluxes": ["fluxes", "--in", str(w4_path), "--which", "123", "--out", str(d / "f.fld")],
        "psi-moyal": residual + ["psi-moyal"],
        "vlasov124": residual + ["vlasov124"],
    }[step]
    code, peak_mb = _traced_peak_mb(main, argv)
    assert code == 0, capsys.readouterr().err
    w_mb = 8 * 32**4 / 2**20
    assert peak_mb <= 2 * w_mb, f"{step}: traced peak {peak_mb / w_mb:.2f} x W"


def test_field_io_copies_nothing(session32):
    axes = tuple(make_axis(name, -3.0, 3.0, 32) for name in ("x", "v", "vdot", "vddot"))
    field = RealField(axes, np.random.default_rng(5).standard_normal((32,) * 4))
    path = session32 / "io.fld"
    payload_mb = field.data.nbytes / 2**20
    _, write_mb = _traced_peak_mb(write_field, field, path)
    back, read_mb = _traced_peak_mb(read_field, path)
    assert write_mb <= payload_mb + 1.0
    assert read_mb <= payload_mb + 1.0
    assert same_bits(back.data, field.data)


def test_transform_gate_measures_only_check_1():
    # the process peaks near 700 MB first; the gate (600 MB) must not see it
    block = np.ones(700 * 2**20 // 8)
    del block
    assert _peak_rss_mb() > 600.0
    ok, detail = _check_transform({"params": PhysParams(), "rng": np.random.default_rng(0)})
    assert ok, detail
    assert "traced peak" in detail
