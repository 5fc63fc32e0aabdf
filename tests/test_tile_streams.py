"""Moment passes over a stream of W's tiles: the same bits as over the field, with W never held whole.

A stream is an (axes, tiles) pair, such as wigner.transform_rows returns: its
(index, block) tiles are summed on the calling thread as they arrive.
"""

import math
import os
import warnings

import numpy as np
import pytest

import phasechain.fields as fields_mod
import phasechain.vlasov as vlasov_mod
import phasechain.wigner as wigner_mod
from phasechain import (
    ComplexField,
    NumericError,
    PhysParams,
    PolynomialPotential,
    RealField,
    StencilScheme,
    ValidationError,
    accel_flux_124_from_w4,
    chain_residual,
    chain_residual_slabs,
    integrate_axis,
    make_axis,
    max_abs,
    mean_flux_from_w4,
    moyal_residual_slabs,
    psi12,
    read_field,
    sample_complex,
    transform_rows,
    u12_polynomial,
    vlasov_residual,
    wigner4,
    write_rows,
)
from phasechain.checks import _traced_peak_mb
from phasechain.cli import main
from phasechain.fields import KINEMATIC_ORDER, _grid_tiles

P = PhysParams(m=1.3)
SHAPE = (14, 10, 12, 16)
MIXED_QUARTIC = PolynomialPotential(((0, 2, 1.5), (2, 0, -0.5), (4, 0, 0.01), (2, 2, 0.3), (1, 3, -0.2)))
ORDER4 = StencilScheme(order=4)


def same_bits(a, b) -> bool:
    # np.array_equal treats -0.0 == 0.0; the bytes tell them apart
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def w4():
    """A bump plus noise: densities with a real support mask, and negative values, as a W off the oscillator has."""
    axes = tuple(make_axis(name, -3.0, 3.0, n) for name, n in zip(KINEMATIC_ORDER, SHAPE))
    mesh = np.meshgrid(*[a.points() for a in axes], indexing="ij", sparse=True)
    bump = np.exp(-sum(c * c for c in mesh))
    return RealField(axes, bump + 0.01 * np.random.default_rng(32).standard_normal(SHAPE))


def stream_of(field):
    """The field as a stream of its _grid_tiles in x-major order, the order transform_rows yields them in."""
    return field.axes, (((slice(lo, hi), slice(v0, v1)), field.data[lo:hi, v0:v1])
                        for lo, hi, v0, v1 in _grid_tiles(field.data.shape))


@pytest.fixture(params=["default", 1, 3])
def tiles(request, monkeypatch):
    """Whole x-rows at the default budget; one v-row, or 3 v-rows (which do not divide nv = 10), per tile."""
    if request.param == 1:
        monkeypatch.setattr(fields_mod, "_TILE_BYTES", 1)
    elif request.param == 3:
        monkeypatch.setattr(fields_mod, "_TILE_BYTES", 3 * 8 * math.prod(SHAPE[2:]))
    return request.param


def moment_results(source, scheme=ORDER4):
    """Every moment pass's arrays from one field, or from a fresh stream of it per pass (source is a callable)."""
    out = [integrate_axis(source(), name, weight=P.m).data for name in ("x", "v", "vdot", "vddot")]
    for kind in ("123-accel", "124-vel", "12-vel"):
        fl = mean_flux_from_w4(source(), kind, P, 0.2)
        out += [fl.values.data, fl.density.data, fl.mask]
    fl = accel_flux_124_from_w4(source(), MIXED_QUARTIC, P, scheme, 0.2)
    out += [fl.values.data, fl.density.data, fl.mask]
    for member in ("w123", "w124", "w12"):
        residual, density, valid = chain_residual(member, source(), MIXED_QUARTIC, P, scheme, 0.2)
        out += [residual.data, density.data, valid]
    return out


def test_a_stream_gives_the_fields_bits_whatever_the_tiles(w4, tiles):
    from_field = moment_results(lambda: w4)
    from_stream = moment_results(lambda: stream_of(w4))
    assert len(from_stream) == len(from_field) == 4 + 3 * 3 + 3 + 3 * 3
    assert all(same_bits(a, b) for a, b in zip(from_stream, from_field))


def test_a_run_major_stream_gives_the_same_bits(w4, tiles):
    # any order in which each x-row's v-rows, and each v-row's x-rows, come in order: _grid_slabs' run-major walk
    def run_major():
        order = sorted(_grid_tiles(SHAPE), key=lambda t: (t[2], t[0]))
        return w4.axes, (((slice(lo, hi), slice(v0, v1)), w4.data[lo:hi, v0:v1]) for lo, hi, v0, v1 in order)

    assert all(same_bits(a, b) for a, b in zip(moment_results(run_major), moment_results(lambda: w4)))


def test_a_producer_that_overwrites_its_buffer_after_each_yield_gives_the_same_sums(w4, tiles):
    # a block is valid only until the next one is asked for, as transform_rows' are
    def reused():
        buffer = np.empty(w4.data.size)
        for lo, hi, v0, v1 in _grid_tiles(SHAPE):
            block = buffer[: w4.data[lo:hi, v0:v1].size].reshape(w4.data[lo:hi, v0:v1].shape)
            block[...] = w4.data[lo:hi, v0:v1]
            yield (slice(lo, hi), slice(v0, v1)), block
            block[...] = np.nan

    assert all(same_bits(a, b) for a, b in zip(moment_results(lambda: (w4.axes, reused())), moment_results(lambda: w4)))


def oscillator_psi(n):
    axes = (make_axis("x", -8.0, 8.0, n), make_axis("v", -8.0, 8.0, n))
    return sample_complex(lambda x, v: psi12(x, v, 0.0, PhysParams()), axes)


@pytest.mark.parametrize("n", [16, 32])
def test_a_chain_member_from_psi_is_the_written_w_route(tmp_path, n):
    # one transform pass feeds the moment pass: the same W bits, tiles and order of summation as the file's
    p, u, psi = PhysParams(), u12_polynomial(PhysParams()), oscillator_psi(n)
    path = tmp_path / "w4.fld"
    write_rows(RealField, *transform_rows(psi, p, ("x", "v")), path)
    w4 = read_field(path)
    for member in ("w123", "w124", "w12"):
        from_psi = chain_residual(member, transform_rows(psi, p, ("x", "v")), u, p, ORDER4, 1e-3)
        from_file = chain_residual(member, w4, u, p, ORDER4, 1e-3)
        assert all(same_bits(a, b) for a, b in zip((from_psi[0].data, from_psi[1].data, from_psi[2]),
                                                       (from_file[0].data, from_file[1].data, from_file[2])))
        assert from_psi[2].any()


def test_a_moment_pass_raises_what_the_transform_raises(monkeypatch):
    axes = (make_axis("x", -3.0, 3.0, 8), make_axis("v", -2.0, 2.0, 8))
    rng = np.random.default_rng(5)
    psi = ComplexField(axes, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    # the transform's residue check runs after its last block, which the moment pass asks for
    monkeypatch.setattr(wigner_mod, "IMAG_RESIDUE_LIMIT", 0.0)
    for call in (lambda s: integrate_axis(s, "vdot"), lambda s: mean_flux_from_w4(s, "12-vel", P),
                 lambda s: chain_residual("w124", s, MIXED_QUARTIC, P, ORDER4)):
        with pytest.raises(NumericError, match="imaginary residue"):
            call(transform_rows(psi, P, ("x", "v")))
    monkeypatch.undo()
    huge = ComplexField(axes, np.full((8, 8), 1e200 + 0j))  # the products overflow
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite"):
        mean_flux_from_w4(transform_rows(huge, P, ("x", "v")), "124-vel", P)


def test_a_stream_must_come_in_order_and_whole(w4, monkeypatch):
    monkeypatch.setattr(fields_mod, "_TILE_BYTES", 1)  # one v-row a tile
    tiles = [((slice(lo, hi), slice(v0, v1)), w4.data[lo:hi, v0:v1]) for lo, hi, v0, v1 in _grid_tiles(SHAPE)]
    bad = {
        "out of order": tiles[::-1],
        "repeats points": tiles + tiles[-1:],
        "ended before its last tile": tiles[:-1],
        "float64 of the shape": [(tiles[0][0], tiles[0][1][..., :1])] + tiles[1:],
        "pair of slices": [((0, 1), tiles[0][1])] + tiles[1:],
    }
    for match, stream in bad.items():
        with pytest.raises(ValidationError, match=match):
            integrate_axis((w4.axes, iter(stream)), "vdot")
    with pytest.raises(ValidationError, match="expected a field or an"):
        integrate_axis(w4.data, "vdot")
    with pytest.raises(ValidationError, match="no axis 'vddot'"):
        integrate_axis((w4.axes[:3], iter([])), "vddot")


def test_a_view_of_a_streamed_tile_takes_no_stencil_across_its_edge(w4, monkeypatch):
    # a tile holds no neighbouring x-rows; a v-tile holds no neighbouring v-rows, and a tile of whole x-rows does
    def d_sum(stream, **powers):
        return fields_mod._axis_sums(stream, 2, 1.0, ORDER4, lambda view: view.d(**powers))[1]

    monkeypatch.setattr(fields_mod, "_TILE_BYTES", 8 * math.prod(SHAPE[1:]))  # one x-row a tile
    with pytest.raises(ValidationError, match="neighbours"):
        d_sum(stream_of(w4), x=1)
    along_v = d_sum(stream_of(w4), v=1)
    assert same_bits(along_v, d_sum(w4, v=1))
    monkeypatch.setattr(fields_mod, "_TILE_BYTES", 1)
    with pytest.raises(ValidationError, match="neighbours"):
        d_sum(stream_of(w4), v=1)


def test_chain_residual_is_its_slabs_assembled(w4, tiles):
    # one path: chain_residual's residual is chain_residual_slabs' tiles, run-major on the density, and equals
    # vlasov_residual on the member's density and fluxes
    for member in ("w123", "w124", "w12"):
        residual, density, valid = chain_residual(member, w4, MIXED_QUARTIC, P, ORDER4, 0.2)
        dens, mask, blocks = chain_residual_slabs(member, w4, MIXED_QUARTIC, P, ORDER4, 0.2)
        blocks = list(blocks)
        want = sorted(_grid_tiles(density.data.shape), key=lambda t: (t[2], t[0]))
        assert [index for index, _ in blocks] == [(slice(lo, hi), slice(v0, v1)) for lo, hi, v0, v1 in want]
        assert all(same_bits(block, residual.data[index]) for index, block in blocks)
        assert same_bits(dens.data, density.data) and same_bits(mask, valid)
        fluxes = {"w123": {"vdot": mean_flux_from_w4(w4, "123-accel", P, 0.2)},
                  "w12": {"v": mean_flux_from_w4(w4, "12-vel", P, 0.2)},
                  "w124": {"v": mean_flux_from_w4(w4, "124-vel", P, 0.2),
                           "vddot": accel_flux_124_from_w4(w4, MIXED_QUARTIC, P, ORDER4, 0.2)}}[member]
        assert same_bits(residual.data, vlasov_residual(member, density, fluxes, P, ORDER4, MIXED_QUARTIC).data)


def test_the_slab_generators_leave_no_errstate_between_yields(w4, monkeypatch):
    # their tasks run under an errstate that ignores overflow; the caller's own state holds between two blocks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(fields_mod, "_TILE_BYTES", 1)
    fields_mod._workers.cache_clear()
    try:
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in moyal_residual_slabs(w4, MIXED_QUARTIC, P, ORDER4):
                assert np.geterr()["over"] == "raise"
            for _ in chain_residual_slabs("w124", w4, MIXED_QUARTIC, P, ORDER4, 0.2)[2]:
                assert np.geterr()["over"] == "raise"
    finally:
        fields_mod._workers.cache_clear()


def test_the_residual_generators_refuse_a_tile_that_is_not_finite(w4, monkeypatch):
    # U' overflows near the x edges, so blocks there hold NaN: the first such block raises where it is taken
    u = PolynomialPotential(((0, 2, 1.5), (2, 0, -0.5), (4, 0, 1e306)))
    with pytest.raises(NumericError, match=r"the residual is not finite \(max\|residual\| = nan\)"):
        list(moyal_residual_slabs(wigner4(oscillator_psi(16), PhysParams()), u, PhysParams(), ORDER4))
    # a chain member's residual that is not finite where its density and fluxes are
    monkeypatch.setattr(vlasov_mod, "_continuity", lambda view, *args: np.full(view.shape, np.inf))
    _, _, blocks = chain_residual_slabs("w12", w4, u, P, ORDER4, 0.2)
    with pytest.raises(ValidationError, match="non-finite"):
        list(blocks)


def test_wigner4_is_its_stream_assembled():
    psi = oscillator_psi(16)
    axes, tiles = transform_rows(psi, PhysParams(), ("x", "v"))
    w4 = wigner4(psi, PhysParams())
    assert axes == w4.axes
    assert all(same_bits(block, w4.data[index]) for index, block in tiles)


def test_the_cli_chain_modes_reduce_the_residual_tile_by_tile(tmp_path, monkeypatch, capsys):
    # the max over the valid points is taken from chain_residual_slabs' tiles: no residual field is assembled
    psi, w4 = tmp_path / "psi.fld", tmp_path / "w4.fld"
    (tmp_path / "u.txt").write_text("0 2 1.5\n2 0 -0.5\n", encoding="utf-8")
    assert main(["gen-ho", "--nx", "16", "--nv", "16", "--out", str(psi)]) == 0
    assert main(["wigner", "--in", str(psi), "--out", str(w4)]) == 0
    argv = ["residual", "--in", str(w4), "--potential", str(tmp_path / "u.txt"), "--mask-threshold", "1e-3", "--mode"]
    capsys.readouterr()
    printed = {}
    for mode in ("vlasov123", "vlasov124", "vlasov12"):
        assert main(argv + [mode]) == 0
        printed[mode] = capsys.readouterr().out
    field = read_field(w4)
    monkeypatch.setattr(vlasov_mod, "_assemble", None)  # calling it raises TypeError
    p, u = PhysParams(), PolynomialPotential(((0, 2, 1.5), (2, 0, -0.5)))
    for mode, out in printed.items():
        assert main(argv + [mode]) == 0
        assert capsys.readouterr().out == out
    with pytest.raises(TypeError):  # chain_residual assembles the same tiles
        chain_residual("w124", field, u, p, ORDER4, 1e-3)


def test_the_support_mask_holds_no_float_array_of_the_densitys_size():
    density = np.random.default_rng(9).standard_normal((32, 24, 40))
    density[0, 0, :3] = -0.0, 0.0, -0.0
    # built outside the trace: the field's finiteness scan found its peak, and the mask reads that
    field = RealField(tuple(make_axis(name, -1.0, 1.0, n) for name, n in zip(("x", "v", "vdot"), density.shape)),
                      density)
    for threshold in (0.0, 1e-3, 0.5):
        want = (np.abs(density) >= threshold * max_abs(density)) & (density != 0.0)  # no zero, even at threshold 0
        got, peak = _traced_peak_mb(vlasov_mod._support_mask, field, threshold)
        assert same_bits(got, want)
        # the boolean mask, and the |.| of one x-row at a time
        assert peak * 2**20 <= want.nbytes + density[0].nbytes + 4096
