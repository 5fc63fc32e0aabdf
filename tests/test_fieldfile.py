"""Binary field persistence and CSV slicing."""

import itertools
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasechain import (
    AxisGrid,
    ComplexField,
    FieldFormatError,
    PhysParams,
    RealField,
    ValidationError,
    export_csv,
    make_axis,
    psi12,
    read_field,
    sample_complex,
    sample_real,
    write_field,
)
from phasechain.fieldfile import parse_slice_spec

P = PhysParams()


def awkward_values(shape, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    flat = data.reshape(-1)
    flat[0] = 0.1  # not representable exactly, must survive unchanged
    flat[1] = -0.0
    flat[2] = 5e-324  # smallest subnormal
    flat[3] = 1e307
    return data


def test_real_round_trip_is_bit_exact(tmp_path):
    axes = (
        make_axis("x", -8.0, 8.0, 6),
        make_axis("v", -1.0, 3.0, 4),
        make_axis("vdot", -2.0, 2.0, 8),
        make_axis("vddot", 0.0, 7.0, 4),
    )
    field = RealField(axes, awkward_values((6, 4, 8, 4), seed=1))
    path = tmp_path / "w.fld"
    write_field(field, path)
    again = read_field(path)
    assert isinstance(again, RealField)
    assert again.data.tobytes() == field.data.tobytes()
    for a, b in zip(again.axes, field.axes):
        assert (a.name, a.n, a.min, a.max, a.step) == (b.name, b.n, b.min, b.max, b.step)
    # writing over an existing file replaces it
    write_field(field.with_data(field.data * 2.0), path)
    assert read_field(path).data.tobytes() == (field.data * 2.0).tobytes()


def test_complex_round_trip_is_bit_exact(tmp_path):
    axes = (make_axis("x", -8.0, 8.0, 32), make_axis("v", -8.0, 8.0, 32))
    psi = sample_complex(lambda x, v: psi12(x, v, 0.3, P), axes)
    path = tmp_path / "psi.fld"
    write_field(psi, path)
    again = read_field(path)
    assert isinstance(again, ComplexField)
    assert again.data.tobytes() == psi.data.tobytes()


def test_write_rejects_non_fields(tmp_path):
    with pytest.raises(ValidationError):
        write_field(np.zeros(4), tmp_path / "nope.fld")


@pytest.mark.parametrize("axis", [AxisGrid("x", 5, 0.0, 1.0), AxisGrid("q", 4, 0.0, 1.0), AxisGrid("x", 4, 1.0, 0.0)],
                         ids=["odd n", "unknown name", "max below min"])
def test_write_refuses_axes_that_read_refuses(tmp_path, axis):
    # the containers refuse these axes too, so build one past their checks; write_field checks on its own
    field = RealField._trusted((axis,), np.arange(float(axis.n)))
    with pytest.raises(ValidationError):
        write_field(field, tmp_path / "f.fld")
    assert os.listdir(tmp_path) == []  # neither the file nor its temporary


def axis_block(a) -> bytes:
    name = a.name.encode("utf-8")
    return struct.pack("<B", len(name)) + name + struct.pack("<Qdd", a.n, a.min, a.max)


def header_size(field) -> int:
    """Bytes before the padding: the fixed 12-byte part and the axis blocks."""
    return 12 + sum(len(axis_block(a)) for a in field.axes)


def pack_v1(field) -> bytes:
    """A version-1 file, packed by hand: the payload follows the last axis block with no padding."""
    dtype_code = 1 if isinstance(field, ComplexField) else 0
    blob = b"PSIF" + struct.pack("<IBB2s", 1, dtype_code, field.rank, b"\x00\x00")
    return blob + b"".join(axis_block(a) for a in field.axes) + field.data.tobytes()


# every axis-name combination the CLI writes: the rank-4 W, its transforms, marginals and fluxes, and psi
CLI_AXIS_SETS = [names for r in range(1, 5) for names in itertools.combinations(("x", "v", "vdot", "vddot"), r)]


@pytest.mark.parametrize("kind, names", [(RealField, names) for names in CLI_AXIS_SETS]
                         + [(ComplexField, names) for names in CLI_AXIS_SETS if len(names) <= 2],
                         ids=lambda v: "-".join(v) if isinstance(v, tuple) else v.__name__)
def test_payloads_start_on_64_byte_boundaries(tmp_path, kind, names):
    axes = tuple(make_axis(name, -1.0, 1.0, 4 + 2 * i) for i, name in enumerate(names))
    data = awkward_values(tuple(a.n for a in axes), seed=len(names))
    field = kind(axes, data + 1j * data[::-1] if kind is ComplexField else data)
    path = tmp_path / "f.fld"
    write_field(field, path)
    blob = path.read_bytes()
    end = header_size(field)
    offset = -(-end // 64) * 64
    assert blob[4:8] == struct.pack("<I", 2)
    assert blob[end:offset] == bytes(offset - end)
    assert blob[offset:] == field.data.tobytes()
    again = read_field(path)
    assert again.data.flags.aligned and again.data.ctypes.data % 64 == 0
    assert again.data.tobytes() == field.data.tobytes()


def test_version_1_files_read_bit_exactly(tmp_path):
    w4 = RealField(tuple(make_axis(n, -2.0, 2.0, 4) for n in ("x", "v", "vdot", "vddot")),
                   awkward_values((4, 4, 4, 4), seed=7))
    psi = sample_complex(lambda x, v: psi12(x, v, 0.3, P), (make_axis("x", -8.0, 8.0, 8), make_axis("v", -8.0, 8.0, 6)))
    line = RealField((make_axis("vddot", 0.5, 9.0, 10),), awkward_values((10,), seed=8))
    assert header_size(w4) == 123  # the payload of a version-1 W was not 8-byte aligned
    for i, field in enumerate((w4, psi, line)):
        path = tmp_path / f"v1-{i}.fld"
        path.write_bytes(pack_v1(field))
        again = read_field(path)
        assert type(again) is type(field) and again.axes == field.axes
        assert again.data.tobytes() == field.data.tobytes()
        write_field(again, path)  # rewritten as version 2
        assert len(path.read_bytes()) == -(-header_size(field) // 64) * 64 + field.data.nbytes


def test_read_missing_file_is_oserror(tmp_path):
    assert issubclass(FieldFormatError, OSError)
    with pytest.raises(OSError):
        read_field(tmp_path / "absent.fld")


def corrupt(path, blob):
    path.write_bytes(blob)
    return path


def test_malformed_headers_are_rejected(tmp_path):
    axes = (make_axis("x", 0.0, 1.0, 4),)
    field = RealField(axes, np.arange(4.0))
    path = tmp_path / "f.fld"
    write_field(field, path)
    good = path.read_bytes()

    cases = {
        "bad magic": b"JUNK" + good[4:],
        "bad version": good[:4] + struct.pack("<I", 9) + good[8:],
        "version 3": good[:4] + struct.pack("<I", 3) + good[8:],
        "bad dtype": good[:8] + b"\x07" + good[9:],
        "bad rank": good[:9] + b"\x05" + good[10:],
        "reserved set": good[:10] + b"\x01\x00" + good[12:],
        "truncated header": good[:6],
        "truncated payload": good[:-4],
        "trailing bytes": good + b"\x00",
        "bad axis name": good[:12] + b"\x02zz" + good[15:],
        # the rank-1 header ends at byte 38 and is padded with zeros up to the payload at byte 64
        "non-zero padding": good[:50] + b"\x01" + good[51:],
        "truncated padding": good[:50],
    }
    for label, blob in cases.items():
        with pytest.raises(FieldFormatError):
            read_field(corrupt(tmp_path / "bad.fld", blob))
        del label
    # non-UTF-8 axis name bytes
    name_len = good[12]
    assert name_len == 1
    blob = good[:13] + b"\xff" + good[14:]
    with pytest.raises(FieldFormatError):
        read_field(corrupt(tmp_path / "bad.fld", blob))


def test_axis_bounds_validation_maps_to_format_error(tmp_path):
    axes = (make_axis("x", 0.0, 1.0, 4),)
    field = RealField(axes, np.arange(4.0))
    path = tmp_path / "f.fld"
    write_field(field, path)
    good = path.read_bytes()
    # axis block: off 12 is name len (1), 13 name, 14..21 n, 22..29 min, 30..37 max
    swapped = good[:22] + struct.pack("<dd", 2.0, 1.0) + good[38:]
    with pytest.raises(FieldFormatError):
        read_field(corrupt(tmp_path / "bad.fld", swapped))


@pytest.fixture(scope="module")
def good_blobs(tmp_path_factory):
    """Valid files of both dtypes: a real rank-3 field, a complex rank-2 one and a real rank-4 one.

    The rank-3 and rank-4 headers (93 and 123 bytes) are padded to 128; the rank-2 one is 64 bytes already.
    """
    real = RealField(
        (make_axis("x", -1.0, 1.0, 4), make_axis("v", 0.0, 2.0, 4), make_axis("vdot", -3.0, 3.0, 6)),
        awkward_values((4, 4, 6), seed=2),
    )
    psi_axes = (make_axis("x", -2.0, 2.0, 4), make_axis("v", -2.0, 2.0, 4))
    psi = sample_complex(lambda x, v: np.exp(-x * x) * (1.0 + 1j * v), psi_axes)
    w4 = RealField(tuple(make_axis(n, -1.0, 1.0, 4) for n in ("x", "v", "vdot", "vddot")),
                   awkward_values((4, 4, 4, 4), seed=4))
    d = tmp_path_factory.mktemp("good")
    names = ("real.fld", "psi.fld", "w4.fld")
    for name, field in zip(names, (real, psi, w4)):
        write_field(field, d / name)
    return [(d / name).read_bytes() for name in names]


def damage(draw, good: bytes) -> bytes:
    how = draw(st.sampled_from(["truncate", "flip", "random tail", "random"]))
    if how == "truncate":
        return good[: draw(st.integers(0, len(good) - 1))]
    if how == "flip":
        bit = draw(st.integers(0, 8 * len(good) - 1))
        blob = bytearray(good)
        blob[bit // 8] ^= 1 << (bit % 8)
        return bytes(blob)
    if how == "random tail":
        return good[: draw(st.integers(0, len(good)))] + draw(st.binary(min_size=1, max_size=64))
    return draw(st.binary(max_size=256))


@settings(max_examples=60)
@given(data=st.data())
def test_damaged_files_raise_only_field_format_errors(tmp_path_factory, good_blobs, data):
    good = data.draw(st.sampled_from(good_blobs))
    blob = damage(data.draw, good)
    # a fresh file per example: a field from an earlier example may still map its file
    path = tmp_path_factory.mktemp("damaged") / "f.fld"
    path.write_bytes(blob)
    try:
        field = read_field(path)
    except FieldFormatError:
        return
    # a file that still reads has the good file's length: a flip (of a payload value or an axis bound, say)
    # or a random tail that replaced as many bytes as it added
    assert len(blob) == len(good) and isinstance(field, (RealField, ComplexField))


def test_invalid_fields_behind_valid_headers_are_format_errors(tmp_path):
    axes = (make_axis("x", 0.0, 1.0, 4), make_axis("v", 0.0, 1.0, 4))
    path = tmp_path / "f.fld"
    write_field(RealField(axes, np.arange(16.0).reshape(4, 4)), path)
    good = path.read_bytes()
    # axis 0 starts at byte 12 (1 + 1 + 24 bytes), so the second axis name is byte 39
    assert good[38:40] == b"\x01v"
    cases = {
        "duplicate axis names": good[:39] + b"x" + good[40:],
        "non-finite payload": good[:-8] + struct.pack("<d", float("nan")),
        "infinite payload": good[:-8] + struct.pack("<d", float("-inf")),
    }
    for label, blob in cases.items():
        with pytest.raises(FieldFormatError):
            read_field(corrupt(tmp_path / f"{label.replace(' ', '-')}.fld", blob))
    rank3 = tmp_path / "r3.fld"
    write_field(RealField(axes + (make_axis("vdot", 0.0, 1.0, 4),), np.zeros((4, 4, 4))), rank3)
    blob = rank3.read_bytes()
    # complex payloads are rank 1 or 2 only
    with pytest.raises(FieldFormatError):
        read_field(corrupt(tmp_path / "c3.fld", blob[:8] + b"\x01" + blob[9:] + bytes(8 * 64)))


def test_empty_file_is_a_format_error(tmp_path):
    path = tmp_path / "empty.fld"
    path.write_bytes(b"")
    with pytest.raises(FieldFormatError):
        read_field(path)


def test_a_mapped_field_outlives_a_rewrite_of_its_file(tmp_path, monkeypatch):
    path = tmp_path / "w.fld"
    axes = (make_axis("x", -1.0, 1.0, 8), make_axis("v", -1.0, 1.0, 16))
    first = RealField(axes, awkward_values((8, 16), seed=3))
    write_field(first, path)
    mapped = read_field(path)
    # a smaller field: rewriting the mapped file in place would cut pages from under `mapped`
    second = RealField(axes[:1], np.arange(8.0))
    write_field(second, path)
    assert mapped.data.tobytes() == first.data.tobytes()
    assert read_field(path).data.tobytes() == second.data.tobytes()
    assert os.listdir(tmp_path) == ["w.fld"]
    with pytest.raises(OSError):
        write_field(first, tmp_path / "missing" / "w.fld")

    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_field(first, path)
    assert os.listdir(tmp_path) == ["w.fld"]
    assert read_field(path).data.tobytes() == second.data.tobytes()


def test_non_regular_files_are_format_errors():
    r, w = os.pipe()
    try:
        # the write end stays open, so opening the read end does not block
        with pytest.raises(FieldFormatError, match="regular files"):
            read_field(f"/dev/fd/{r}")
    finally:
        os.close(r)
        os.close(w)


def test_write_through_a_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "data" / "w.fld"
    target.parent.mkdir()
    link = tmp_path / "w.fld"
    link.symlink_to(target)
    axes = (make_axis("x", -1.0, 1.0, 8),)
    field = RealField(axes, awkward_values((8,), seed=5))
    write_field(field, link)
    assert link.is_symlink()
    assert read_field(target).data.tobytes() == field.data.tobytes()
    write_field(RealField(axes, np.arange(8.0)), link)
    assert link.is_symlink()
    assert read_field(link).data.tobytes() == np.arange(8.0).tobytes()
    assert sorted(os.listdir(target.parent)) == ["w.fld"]


def test_parse_slice_spec():
    assert parse_slice_spec("x=0.5,v=-1") == {"x": 0.5, "v": -1.0}
    assert list(parse_slice_spec("v=1,x=2")) == ["v", "x"]
    assert parse_slice_spec("") == {}
    assert parse_slice_spec(" x = 2 ") == {"x": 2.0}
    with pytest.raises(ValidationError):
        parse_slice_spec("x")
    with pytest.raises(ValidationError):
        parse_slice_spec("x=1,x=2")
    with pytest.raises(ValidationError):
        parse_slice_spec("x=abc")


def test_export_csv_two_free_axes(tmp_path):
    axes = (
        make_axis("x", -2.0, 2.0, 4),
        make_axis("v", -1.0, 1.0, 4),
        make_axis("vdot", -4.0, 4.0, 8),
    )
    field = sample_real(lambda x, v, vd: x + 10.0 * v + 100.0 * vd, axes)
    out = tmp_path / "slice.csv"
    snapped = export_csv(field, {"vdot": 0.4}, out)
    # 0.4 sits between nodes 0.0 and 1.0; the tie rule is not involved here
    assert snapped == {"vdot": 0.0}
    lines = out.read_text().splitlines()
    assert lines[0] == "x,v,value"
    assert len(lines) == 1 + 4 * 4
    x0, v0, val0 = (float(s) for s in lines[1].split(","))
    assert (x0, v0) == (-2.0, -1.0)
    assert val0 == field.data[0, 0, 4]  # exact: 17 significant digits
    x1, v1, _ = (float(s) for s in lines[2].split(","))
    assert (x1, v1) == (-2.0, -0.5)  # inner axis moves fastest
    vals = np.array([float(ln.rsplit(",", 1)[1]) for ln in lines[1:]])
    assert vals.reshape(4, 4).tobytes() == field.data[:, :, 4].tobytes()


def test_export_csv_single_free_axis(tmp_path):
    axes = (make_axis("x", -2.0, 2.0, 8), make_axis("v", -2.0, 2.0, 8))
    field = sample_real(lambda x, v: np.exp(x) * np.cos(v), axes)
    out = tmp_path / "line.csv"
    snapped = export_csv(field, {"v": -0.25}, out)
    assert snapped == {"v": -0.5}  # exact midpoint of the step-0.5 grid ties toward -inf
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 9
    k = field.axes[1].nearest_index(-0.25)
    got = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert got.tobytes() == field.data[:, k].tobytes()


def test_export_csv_validation(tmp_path):
    axes = (make_axis("x", -2.0, 2.0, 4), make_axis("v", -2.0, 2.0, 4))
    field = sample_real(lambda x, v: x * v, axes)
    out = tmp_path / "bad.csv"
    with pytest.raises(ValidationError):
        export_csv(field, {"x": 0.0, "v": 0.0}, out)  # no free axes left
    with pytest.raises(ValidationError):
        export_csv(field, {"vdot": 0.0}, out)  # unknown pin
    rank4 = sample_real(
        lambda x, v, vd, vdd: x,
        tuple(make_axis(n, -1.0, 1.0, 4) for n in ("x", "v", "vdot", "vddot")),
    )
    with pytest.raises(ValidationError):
        export_csv(rank4, {"x": 0.0}, out)  # three free axes
    psi = sample_complex(lambda x, v: x + 1j * v, axes)
    with pytest.raises(ValidationError):
        export_csv(psi, {"v": 0.0}, out)
