"""Mapped rows dropped behind the x-slab loops, and W streamed to its file: no value changes, no W stays resident.

A loop over a field that read_field mapped drops the pages of the rows it has
passed (fields._drop_rows); a dropped page reads back the file's bytes. Each
loop's result is compared bit for bit with the same loop over an in-memory
copy, and the mapped field with the file, after the loop.
"""

import math
import mmap
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasechain.fields as fields_mod
import phasechain.wigner as wigner_mod
from phasechain import (
    ComplexField,
    PhysParams,
    PolynomialPotential,
    RealField,
    StencilScheme,
    ValidationError,
    accel_flux_124_from_w4,
    divergence_series_gap,
    integrate_axis,
    make_axis,
    mean_flux_from_w4,
    moyal_residual_slabs,
    read_field,
    transport_lhs,
    vlasov_residual,
    wigner4,
    write_field,
)
from phasechain.cli import main
from phasechain.fieldfile import _write_rows
from phasechain.fields import _drop_rows, _FileMap, stencil_halfwidth

from conftest import child_env

P = PhysParams(m=1.3)
SHAPE = (16, 8, 16, 16)  # 16 KiB x-rows: four pages each
QUARTIC = PolynomialPotential(((0, 2, 1.5), (2, 0, -0.5), (4, 0, 0.01)))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def payload(path: Path, field) -> np.ndarray:
    """The payload of a field file, as a copy read without a mapping."""
    blob = path.read_bytes()
    return np.frombuffer(blob[len(blob) - field.data.nbytes :], dtype=field.data.dtype).reshape(field.data.shape)


@pytest.fixture
def dropped(monkeypatch):
    """The byte counts each madvise of a _FileMap dropped, in call order."""
    calls = []

    def madvise(self, option, start, length):
        calls.append(length)
        return mmap.mmap.madvise(self, option, start, length)

    monkeypatch.setattr(_FileMap, "madvise", madvise)
    return calls


@pytest.fixture
def one_row_slabs(monkeypatch):
    monkeypatch.setattr(fields_mod, "_SLAB_BYTES", 8 * math.prod(SHAPE[1:]) * fields_mod._workers())


@pytest.fixture(scope="module")
def w4_path(tmp_path_factory):
    axes = tuple(make_axis(name, -3.0, 3.0, n) for name, n in zip(("x", "v", "vdot", "vddot"), SHAPE))
    mesh = np.meshgrid(*[a.points() for a in axes], indexing="ij", sparse=True)
    bump = np.exp(-sum(c * c for c in mesh))
    path = tmp_path_factory.mktemp("mapped") / "w4.fld"
    write_field(RealField(axes, bump + 0.01 * np.random.default_rng(11).standard_normal(SHAPE)), path)
    return path


LOOPS = {
    "integrate_axis": lambda w4: integrate_axis(w4, "vddot", weight=P.m).data,
    "mean_flux_from_w4": lambda w4: mean_flux_from_w4(w4, "124-vel", P, 0.2).values.data,
    "accel_flux_124_from_w4": lambda w4: accel_flux_124_from_w4(w4, QUARTIC, P, StencilScheme(order=6), 0.2).values.data,
    "moyal_residual_slabs": lambda w4: np.concatenate([b for _, _, b in moyal_residual_slabs(
        w4, QUARTIC, P, StencilScheme(order=6))]),
    "_over_slabs": lambda w4: np.concatenate([
        transport_lhs(w4, QUARTIC, P, StencilScheme(order=2)).data,
        vlasov_residual("chain4", w4, {"vddot": lambda x, v, vd, vdd: -x * v}, P, StencilScheme()).data]),
    "divergence_series_gap": lambda w4: np.array([divergence_series_gap(
        PolynomialPotential(((2, 0, 0.5), (4, 0, 0.01))), w4, P, StencilScheme())]),
}


def test_the_finiteness_scan_drops_the_rows_it_read(w4_path, one_row_slabs, dropped):
    w4 = read_field(w4_path)
    assert sum(dropped) >= w4.data.nbytes - mmap.PAGESIZE  # all but the page that the file ends in
    assert same_bits(w4.data, payload(w4_path, w4))


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_dropping_rows_behind_a_slab_loop_changes_no_value(w4_path, one_row_slabs, dropped, loop):
    w4 = read_field(w4_path)
    in_memory = RealField(w4.axes, np.array(w4.data))
    dropped.clear()
    got = LOOPS[loop](w4)
    assert dropped, "the loop dropped no page"
    assert same_bits(got, LOOPS[loop](in_memory))
    assert same_bits(w4.data, payload(w4_path, w4))


# rows beyond a slab that each loop's tasks read from W, per slab loop over W in its LOOPS entry: the
# reductions read none, and the loops that take d/dx (at power 1 only) read its stencil's halfwidth
HALOS = {
    "integrate_axis": [0],
    "mean_flux_from_w4": [0],
    "accel_flux_124_from_w4": [0],
    "moyal_residual_slabs": [stencil_halfwidth(1, 6)],
    "_over_slabs": [stencil_halfwidth(1, 2), stencil_halfwidth(1, 4)],
    "divergence_series_gap": [stencil_halfwidth(1, 4)],
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_each_loop_drops_the_rows_its_later_slabs_do_not_read(w4_path, one_row_slabs, monkeypatch, loop):
    w4 = read_field(w4_path)
    calls = []

    def record(data, lo, hi):
        if data is w4.data:
            calls.append((lo, hi))

    monkeypatch.setattr(fields_mod, "_drop_rows", record)
    LOOPS[loop](w4)
    n = SHAPE[0]
    assert len(calls) == (n + 1) * len(HALOS[loop])  # per loop, one call per slab and one at the end
    for i, halo in enumerate(HALOS[loop]):
        run = calls[i * (n + 1) : (i + 1) * (n + 1)]
        times = np.zeros(n, int)
        for lo, hi in run:
            times[lo : max(lo, hi)] += 1
        assert times.tolist() == [1] * n  # every row dropped exactly once
        # one call as each slab's result is taken, then one at the end: taking slab k drops the rows before
        # k + 1 - halo, so a reduction (halo 0) drops slab k's own row and a d/dx loop keeps halo rows behind
        assert run == [(max(0, k - halo), k + 1 - halo) for k in range(n)] + [(n - halo, n)], halo


def test_the_helper_leaves_every_other_memory_alone(tmp_path, dropped):
    data = np.arange(16 * 1024, dtype=np.float64).reshape(16, 1024)  # 8 KiB rows
    in_memory = data.copy()
    _drop_rows(in_memory, 0, 16)  # anonymous pages would read back as zeros
    assert same_bits(in_memory, data)
    path = tmp_path / "raw.bin"
    data.tofile(path)
    for mode, value in (("r+", -1.0), ("c", -2.0)):  # r+ writes -1.0 to the file
        mapped = np.memmap(path, dtype=np.float64, mode=mode, shape=data.shape)
        mapped[3] = value  # a dropped private page (c) would read back the file's bytes
        want = np.array(mapped)
        _drop_rows(mapped, 0, 16)
        assert same_bits(np.array(mapped), want), mode
        del mapped
    assert not dropped


def test_a_mapped_psi_reads_back_its_file(tmp_path, dropped):
    axes = (make_axis("x", -2.0, 2.0, 64), make_axis("v", -2.0, 2.0, 64))
    rng = np.random.default_rng(3)
    path = tmp_path / "psi.fld"
    write_field(ComplexField(axes, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))), path)
    psi = read_field(path)
    dropped.clear()
    _drop_rows(psi.data, 0, 64)
    assert sum(dropped) >= psi.data.nbytes - mmap.PAGESIZE
    assert same_bits(psi.data, payload(path, psi))


# --- wigner streams its rows to the file ----------------------------------------------

@pytest.fixture(scope="module")
def psi_path(tmp_path_factory):
    axes = (make_axis("x", -3.0, 3.0, 16), make_axis("v", -2.0, 2.0, 32))
    rng = np.random.default_rng(8)
    path = tmp_path_factory.mktemp("psi") / "psi.fld"
    write_field(ComplexField(axes, rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))), path)
    return path


@pytest.mark.parametrize("rows", [1, 3, 16])
def test_streamed_w4_equals_the_written_wigner4(psi_path, tmp_path, monkeypatch, capsys, rows):
    monkeypatch.setattr(fields_mod, "_SLAB_BYTES", rows * 8 * 32 * 32 * 16 * fields_mod._workers())
    assert main(["wigner", "--in", str(psi_path), "--m", "1.3", "--out", str(tmp_path / "w4.fld")]) == 0
    w4 = wigner4(read_field(psi_path), P)
    write_field(w4, tmp_path / "ref.fld")
    assert (tmp_path / "w4.fld").read_bytes() == (tmp_path / "ref.fld").read_bytes()
    peak = max(float(w4.data.max()), -float(w4.data.min()))
    assert f"peak {peak:.9g}\n" in capsys.readouterr().out


def test_row_buffers_hold_with_more_workers_than_cores(psi_path, monkeypatch):
    # one row per slab and a short switch interval: a block buffer handed to two tasks at once, or lost,
    # would change W's bytes or raise
    def set_workers(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        fields_mod._workers.cache_clear()

    psi = read_field(psi_path)
    try:
        set_workers(1)
        ref = wigner4(psi, P).data
        monkeypatch.setattr(fields_mod, "_SLAB_BYTES", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (4, 8) * 5:
                set_workers(n)
                assert same_bits(wigner4(psi, P).data, ref), n
        finally:
            sys.setswitchinterval(interval)
    finally:
        fields_mod._workers.cache_clear()


def test_a_failed_stream_leaves_the_target_as_it_was(psi_path, tmp_path, monkeypatch, capsys):
    target = tmp_path / "w4.fld"
    target.write_bytes(b"the old bytes")
    monkeypatch.setattr(wigner_mod, "IMAG_RESIDUE_LIMIT", 0.0)
    for rank in ("4", "3", "24"):  # every rank streams its rows to the file
        assert main(["wigner", "--in", str(psi_path), "--rank", rank, "--out", str(target)]) == 3
        assert "imaginary residue" in capsys.readouterr().err
        assert target.read_bytes() == b"the old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w4.fld"]  # no *.tmp left behind


def test_rows_that_do_not_fill_the_axes_make_no_file(tmp_path):
    axes = (make_axis("x", 0.0, 1.0, 4), make_axis("v", 0.0, 1.0, 4))
    with pytest.raises(ValidationError, match="payload of 96 bytes"):
        _write_rows(RealField, axes, iter([np.zeros((3, 4))]), tmp_path / "f.fld")
    assert os.listdir(tmp_path) == []


# --- peak RSS of CLI steps in child processes ------------------------------------------

N = 48  # a 48^4 W is 40.5 MiB
# A child's ru_maxrss starts from the peak of the process that forked it, so a small interpreter without
# NumPy starts each CLI step and reports the step's ru_maxrss from os.wait4
RUNNER = """
import os, subprocess, sys
if hasattr(os, "sched_setaffinity"):  # two slab workers, as where the bounds were measured
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
proc = subprocess.Popen([sys.executable, "-c", "import sys; from phasechain.cli import main; sys.exit(main())",
                         *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_rss_mib(argv, cwd) -> float:
    env = child_env()
    done = subprocess.run([sys.executable, "-c", RUNNER, *argv], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    code, maxrss_kib = map(int, done.stdout.split())
    assert code == 0, (argv, done.stderr)
    return maxrss_kib / 1024.0


@pytest.fixture(scope="module")
def random48(tmp_path_factory):
    d = tmp_path_factory.mktemp("rss48")
    axes = tuple(make_axis(name, -4.0, 4.0, N) for name in ("x", "v", "vdot", "vddot"))
    write_field(RealField(axes, np.random.default_rng(48).standard_normal((N,) * 4)), d / "w4.fld")
    (d / "u.txt").write_text("0 2 1.5\n2 0 -0.5\n4 0 0.01\n", encoding="utf-8")
    return d


# MiB above a gen-ho child: the most measured in five runs on a 2-CPU host (one 864 KiB x-row a slab, so a
# loop keeps its slabs in flight and their halo of W resident), plus a margin of 2 MiB
ABOVE_GEN_HO = {"marginal": 4.7, "fluxes": 7.4, "psi-moyal": 14.3, "vlasov124": 12.7}
MARGIN_MIB = 2.0


@pytest.mark.parametrize("step", [["marginal", "--axis", "vddot", "--out", "w123.fld"],
                                  ["fluxes", "--which", "123", "--out", "flux.fld"],
                                  ["residual", "--potential", "u.txt", "--mode", "psi-moyal"],
                                  ["residual", "--potential", "u.txt", "--mode", "vlasov124"]],
                         ids=["marginal", "fluxes", "psi-moyal", "vlasov124"])
def test_a_step_keeps_well_under_one_w_resident(random48, step):
    # u.txt is the quartic U, so psi-moyal takes the correction series too
    w_mib = 8 * N**4 / 2**20
    name = step[-1] if step[0] == "residual" else step[0]
    base = child_rss_mib(["gen-ho", "--nx", "8", "--nv", "8", "--out", "psi.fld"], random48)
    rss = child_rss_mib([step[0], "--in", "w4.fld", *step[1:]], random48)
    assert rss < base + ABOVE_GEN_HO[name] + MARGIN_MIB, \
        f"{name}: {rss:.1f} MiB against {base:.1f} MiB for gen-ho, W {w_mib:.1f} MiB"
