"""Banded-matrix stencils and x-slab evaluation against dense references, and bounded memory.

The stencil kernel sums in BLAS order, so stencil results are checked against
the zero-padded tap sum within a stated rounding bound; everything without a
stencil is checked bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasechain.fields as fields_mod
from phasechain import (
    ComplexField,
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
from phasechain.fields import KINEMATIC_ORDER, _apply_stencil_along_axis, partial_derivative, stencil_halfwidth
from phasechain.moyal import build_term_table

P = PhysParams(m=1.3)
SHAPE = (14, 10, 12, 16)
MIXED_QUARTIC = PolynomialPotential(((0, 2, 1.5), (2, 0, -0.5), (4, 0, 0.01), (2, 2, 0.3), (1, 3, -0.2)))
EPS = np.finfo(np.float64).eps


def pad_oracle(data, axis, power, order, h, absolute=False):
    """The zero-padded tap sum: one padded copy, one temporary per tap (|c_j| if absolute)."""
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
        out += (abs(c) if absolute else c) * padded[tuple(sl)]
    out /= h**power
    return out


def stencil_bound(mag, axis, power, order, h):
    """Kernel vs oracle rounding bound for data with |data| <= mag: 4 (2w+1) eps sum_j |c_j| mag_(i+j) / h^p."""
    w = stencil_halfwidth(power, order)
    return 4 * (2 * w + 1) * EPS * pad_oracle(mag, axis, power, order, h, absolute=True)


def same_bits(a, b) -> bool:
    # np.array_equal treats -0.0 == 0.0; the bytes tell them apart
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def within(got, ref, bound) -> bool:
    return got.shape == ref.shape and got.dtype == ref.dtype and bool(np.all(np.abs(got - ref) <= bound))


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


def set_slab_rows(monkeypatch, rows):
    # the slab budget is split among the workers
    monkeypatch.setattr(fields_mod, "_SLAB_BYTES", rows * 8 * math.prod(SHAPE[1:]) * fields_mod._workers())


@pytest.fixture(params=[1, 3, "n"])
def slab_rows(request, monkeypatch):
    rows = SHAPE[0] if request.param == "n" else request.param
    set_slab_rows(monkeypatch, rows)
    return rows


# --- stencil kernel ----------------------------------------------------------

@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("power", range(1, 7))
@pytest.mark.parametrize("axis", ["x", "v", "vdot", "vddot"])
def test_partial_derivative_matches_pad_oracle_bit_for_bit(w4, axis, power, order):
    # within the rounding bound, not bit for bit; the test id is kept stable
    k = w4.axis_index(axis)
    h = w4.axes[k].step
    ref = pad_oracle(w4.data, k, power, order, h)
    bound = stencil_bound(np.abs(w4.data), k, power, order, h)
    assert within(partial_derivative(w4, axis, power, StencilScheme(order=order)).data, ref, bound)
    n = SHAPE[k]
    coeffs, w = stencil_coefficients(power, order), stencil_halfwidth(power, order)
    for lo, hi in ((0, 1), (0, 3), (2, 7), (n - 3, n), (n - 1, n), (0, n)):
        sl = [slice(None)] * 4
        sl[k] = slice(lo, hi)
        got = _apply_stencil_along_axis(w4.data, k, coeffs, w, h, power, lo, hi)
        assert within(got, ref[tuple(sl)], bound[tuple(sl)]), (lo, hi)


@pytest.mark.parametrize("order", [2, 6])
@pytest.mark.parametrize("power", [1, 2, 5])
def test_partial_derivative_of_a_complex_field(power, order):
    axes = (make_axis("x", -2.0, 2.0, 18), make_axis("v", -1.0, 3.0, 12))
    rng = np.random.default_rng(power * 10 + order)
    psi = ComplexField(axes, rng.standard_normal((18, 12)) + 1j * rng.standard_normal((18, 12)))
    mag = np.abs(psi.data.real) + np.abs(psi.data.imag)
    for k, name in enumerate(("x", "v")):
        got = partial_derivative(psi, name, power, StencilScheme(order=order))
        h = axes[k].step
        assert isinstance(got, ComplexField)
        assert within(got.data, pad_oracle(psi.data, k, power, order, h), stencil_bound(mag, k, power, order, h))


@st.composite
def polynomial_cases(draw):
    """(shape, axis, power, order, degree, h, seed): an even shape of rank 1-4, every n >= 2w + 1."""
    power = draw(st.integers(1, 6))
    order = draw(st.sampled_from([2, 4, 6]))
    w = stencil_halfwidth(power, order)
    shape = tuple(draw(st.lists(st.integers(w + 1, w + 4).map(lambda m: 2 * m), min_size=1, max_size=4)))
    axis = draw(st.integers(0, len(shape) - 1))
    degree = draw(st.integers(0, 2 * w))
    h = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return shape, axis, power, order, degree, h, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=25)
@given(polynomial_cases())
def test_stencils_are_exact_on_polynomials_up_to_degree_2w(case):
    shape, k, power, order, degree, h, seed = case
    n, w = shape[k], stencil_halfwidth(power, order)
    # nodes (i - n/2) h are exact, so the samples only round the polynomial's own sums
    axes = [make_axis(name, -1.0, 1.0, m) for name, m in zip(KINEMATIC_ORDER, shape)]
    axes[k] = make_axis(KINEMATIC_ORDER[k], -(n // 2) * h, (n // 2) * h, n)
    t = axes[k].points().reshape((-1,) + (1,) * (len(shape) - 1 - k))
    # per-line coefficients, constant along axis k
    coef = np.random.default_rng(seed).standard_normal((degree + 1,) + shape[:k] + (1,) + shape[k + 1 :])
    data, mag, exact_d, exact_mag = (np.zeros(shape) for _ in range(4))
    for j in range(degree + 1):
        data += coef[j] * t**j
        mag += np.abs(coef[j]) * np.abs(t) ** j
        if j >= power:
            falling = math.factorial(j) // math.factorial(j - power)
            exact_d += falling * coef[j] * t ** (j - power)
            exact_mag += falling * np.abs(coef[j]) * np.abs(t) ** (j - power)
    got = partial_derivative(RealField(tuple(axes), data), KINEMATIC_ORDER[k], power, StencilScheme(order=order))
    bound = 4 * (2 * w + 1) * EPS * (pad_oracle(mag, k, power, order, h, absolute=True) + exact_mag)
    inner = (slice(None),) * k + (slice(w, n - w),)
    assert within(got.data[inner], exact_d[inner], bound[inner])


# --- moyal slabs -------------------------------------------------------------

def oracle_d(x, axis, power, order, h):
    """Pad-oracle derivative of x = (ref, mag, err), carrying the kernel's rounding bound.

    |ref| <= mag and |kernel result - ref| <= err hold elementwise, for x and for the result.
    """
    ref, mag, err = x
    err = pad_oracle(err, axis, power, order, h, absolute=True) + stencil_bound(mag + err, axis, power, order, h)
    mag = pad_oracle(mag, axis, power, order, h, absolute=True)
    return pad_oracle(ref, axis, power, order, h), mag, err


def exact(data):
    return data, np.abs(data), np.zeros_like(data)


def weighted_sum(terms, start=None):
    """(sum of coef * ref, sum of |coef| * err) over (coef, (ref, mag, err)) terms, added in order."""
    ref, err = np.zeros(SHAPE), np.zeros(SHAPE)
    if start is not None:
        ref += start
    for coef, (r, _, e) in terms:
        ref += coef * r
        err += np.abs(coef) * e
    return ref, err


def dense_moyal(w4, u, scheme, dt_term=None):
    """The dense grid transport, series and residual from the pad oracle, each as (value, bound)."""
    def d(data, k, power):
        return oracle_d(data, k, power, scheme.order, scheme.h or w4.axes[k].step)

    x = w4.axes[0].points()[:, None, None, None]
    v = w4.axes[1].points()[None, :, None, None]
    vdot = w4.axes[2].points()[None, None, :, None]
    vddot = w4.axes[3].points()[None, None, None, :]
    w = exact(w4.data)
    drift = vddot - u.derivative(dv=1)(x, v) / P.m
    force = u.derivative(dx=1)(x, v) / P.m
    lhs = weighted_sum([(v, d(w, 0, 1)), (vdot, d(w, 1, 1)), (drift, d(w, 2, 1)), (force, d(w, 3, 1))], dt_term)
    series = []
    for term in build_term_table(u, P):
        dw = d(w, 3, term.vddot_power) if term.vddot_power else w
        if term.vdot_power:
            dw = d(dw, 2, term.vdot_power)
        series.append((term.coeff * term.du(x, v), dw))
    rhs = weighted_sum(series)
    return lhs, rhs, (lhs[0] - rhs[0], lhs[1] + rhs[1])


@pytest.mark.parametrize("order", [2, 4, 6])
def test_residual_slabs_equal_dense_residual(w4, slab_rows, order):
    scheme = StencilScheme(order=order)
    (lhs, lhs_err), (rhs, rhs_err), (res, res_err) = dense_moyal(w4, MIXED_QUARTIC, scheme)
    assert len(build_term_table(MIXED_QUARTIC, P)) >= 3  # the series is live
    blocks = list(moyal_residual_slabs(w4, MIXED_QUARTIC, P, scheme))
    assert [(lo, hi) for lo, hi, _ in blocks] == [
        (lo, min(lo + slab_rows, SHAPE[0])) for lo in range(0, SHAPE[0], slab_rows)]
    for lo, hi, block in blocks:
        assert within(block, res[lo:hi], res_err[lo:hi])
    assert within(moyal_residual(w4, MIXED_QUARTIC, P, scheme).data, res, res_err)
    assert within(transport_lhs(w4, MIXED_QUARTIC, P, scheme).data, lhs, lhs_err)
    assert within(moyal_rhs(w4, MIXED_QUARTIC, P, scheme).data, rhs, rhs_err)


def test_residual_slabs_carry_the_time_derivative_and_step(w4, slab_rows):
    scheme = StencilScheme(order=4, h=0.3)
    dt = np.random.default_rng(1).standard_normal(SHAPE)
    (lhs, lhs_err), _, (res, res_err) = dense_moyal(w4, MIXED_QUARTIC, scheme, dt_term=dt)
    got = np.concatenate([b for _, _, b in moyal_residual_slabs(w4, MIXED_QUARTIC, P, scheme, dt_term=dt)])
    assert within(got, res, res_err)
    assert within(transport_lhs(w4, MIXED_QUARTIC, P, scheme, dt_term=dt).data, lhs, lhs_err)


def test_slab_heights_agree_within_the_bound(w4, monkeypatch):
    scheme = StencilScheme(order=6)
    _, _, (_, res_err) = dense_moyal(w4, MIXED_QUARTIC, scheme)
    blocks = {}
    for rows in (1, 3, SHAPE[0]):
        set_slab_rows(monkeypatch, rows)
        blocks[rows] = np.concatenate([b for _, _, b in moyal_residual_slabs(w4, MIXED_QUARTIC, P, scheme)])
    for rows in (1, 3):
        assert within(blocks[rows], blocks[SHAPE[0]], 2 * res_err)


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
    terms = []
    for l in range(3):  # degree 5 in x: l runs to 2
        c = ((-1.0) ** l) * ratio2**l / (P.m * math.factorial(2 * l + 1))
        dfl = exact(data) if l == 0 else oracle_d(exact(data), 3, 2 * l, order, axes[3].step)
        terms.append((c * u.derivative(dx=2 * l + 1)(xs, vs), dfl))
    product, product_err = weighted_sum(terms)
    scale = P.m * axes[2].step
    den = data.sum(axis=2) * scale
    vals, mask = dense_ratio(product.sum(axis=2) * scale, den, 0.2)
    vals_err = np.zeros_like(vals)
    np.divide(product_err.sum(axis=2) * scale, np.abs(den), out=vals_err, where=mask)
    fl = accel_flux_124_from_w4(positive_w4, u, P, StencilScheme(order=order), 0.2)
    assert same_bits(fl.mask, mask)  # the density has no stencil
    assert within(fl.values.data, vals, vals_err)


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
    # each step holds at most one W (8 MiB at 32^2) of traced memory, plus x-slabs and reduced fields
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
    # W itself is a read-only file mapping, which tracemalloc does not see; wigner streams W's rows to the
    # file, so it holds psi's column windows, the row kernels and a block of rows per worker
    limit = 0.5 if step == "wigner" else 1
    assert peak_mb <= limit * w_mb, f"{step}: traced peak {peak_mb / w_mb:.2f} x W"


def test_field_io_copies_nothing(session32):
    axes = tuple(make_axis(name, -3.0, 3.0, 32) for name in ("x", "v", "vdot", "vddot"))
    field = RealField(axes, np.random.default_rng(5).standard_normal((32,) * 4))
    path = session32 / "io.fld"
    payload_mb = field.data.nbytes / 2**20
    _, write_mb = _traced_peak_mb(write_field, field, path)
    back, read_mb = _traced_peak_mb(read_field, path)
    assert write_mb <= payload_mb + 1.0
    assert read_mb <= 1.0  # the payload views a read-only mapping of the file
    assert same_bits(back.data, field.data)


def test_transform_gate_measures_only_check_1():
    # the process peaks near 700 MB first; the gate (600 MB) must not see it
    block = np.ones(700 * 2**20 // 8)
    del block
    assert _peak_rss_mb() > 600.0
    ok, detail = _check_transform({"params": PhysParams(), "rng": np.random.default_rng(0)})
    assert ok, detail
    assert "traced peak" in detail
