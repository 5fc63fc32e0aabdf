"""Binary field persistence and CSV slicing.

Field files are little-endian throughout: magic 'PSIF', u32 version (2), u8
payload dtype (0 real float64, 1 complex128 with interleaved re/im), u8 rank,
two reserved zero bytes, then per axis a u8 name length, the UTF-8 name, u64
sample count and f64 min/max, then zero bytes up to a multiple of 64 (so a
mapped payload is aligned, as in NumPy's .npy format), then the row-major
payload. Version 1 had no padding and still reads. Values round trip bit exactly.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .fields import ComplexField, RealField, ValidationError, _FileMap, make_axis

__all__ = [
    "FieldFormatError",
    "write_field",
    "read_field",
    "parse_slice_spec",
    "export_csv",
]

MAGIC = b"PSIF"
VERSION = 2
_ALIGN = 64  # from version 2 on, the payload starts at a multiple of this offset

_HEADER = struct.Struct("<4sIBB2s")
_AXIS_FIXED = struct.Struct("<Qdd")


class FieldFormatError(OSError):
    """The bytes on disk are not a valid field file."""


def write_field(field, path):
    """Serialize a RealField or ComplexField; replaces an existing file.

    The bytes go to a temporary file next to the target that then replaces
    it, so a field that `read_field` still maps keeps the old file's bytes. A
    symlinked `path` is followed, so its target is the file replaced.
    """
    if not isinstance(field, (RealField, ComplexField)):
        raise ValidationError(f"cannot serialize {type(field)!r}")
    _write_rows(type(field), field.axes, iter([field.data]), path)


def _write_rows(kind, axes, rows, path):
    """Write a field of `kind` on `axes` whose x-row blocks `rows` yields in order; return what `rows` returns.

    The header is built, and the axes checked, before any file is made. The
    temporary file replaces the target only after `rows` is exhausted, so a
    transform that raises after its last block leaves the target as it was.
    """
    dtype_code, cast = (1, "<c16") if kind is ComplexField else (0, "<f8")
    header = [_HEADER.pack(MAGIC, VERSION, dtype_code, len(axes), b"\x00\x00")]
    for a in axes:
        a = make_axis(a.name, a.min, a.max, a.n)  # never write an axis that read_field refuses
        name = a.name.encode("utf-8")
        header.append(struct.pack("<B", len(name)))
        header.append(name)
        header.append(_AXIS_FIXED.pack(a.n, a.min, a.max))
    header.append(bytes(-sum(map(len, header)) % _ALIGN))
    size, written = math.prod(a.n for a in axes) * np.dtype(cast).itemsize, 0
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL: never truncate a file of that name; mode 0o666 less the umask, as open(path, "wb")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(header)
            while True:
                try:
                    block = next(rows)
                except StopIteration as stop:
                    result = stop.value
                    break
                payload = np.ascontiguousarray(block).astype(cast, copy=False)
                written += fh.write(memoryview(payload).cast("B"))
        if written != size:
            raise ValidationError(f"payload of {written} bytes, where the axes take {size}")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


def _take(buf: memoryview, offset: int, size: int, what: str):
    if offset + size > len(buf):
        raise FieldFormatError(f"truncated field file while reading {what}")
    return buf[offset : offset + size], offset + size


def read_field(path):
    """Deserialize a field file; raises FieldFormatError on malformed bytes.

    The file is mapped read-only and the payload array views the mapping, so
    nothing is copied; the mapping lives as long as the field's data. The
    x-slab loops over the field drop the mapped rows they have passed from
    the process, and a later read maps them again from the page cache.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise FieldFormatError("field files must be regular files (they are memory-mapped)")
        if st.st_size == 0:  # mmap refuses empty files
            raise FieldFormatError("truncated field file while reading header")
        buf = memoryview(_FileMap(fh.fileno()))
    raw, off = _take(buf, 0, _HEADER.size, "header")
    magic, version, dtype_code, rank, reserved = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FieldFormatError(f"bad magic {magic!r}, not a field file")
    if version not in (1, VERSION):
        raise FieldFormatError(f"unsupported field file version {version}")
    if dtype_code not in (0, 1):
        raise FieldFormatError(f"unknown payload dtype code {dtype_code}")
    if reserved != b"\x00\x00":
        raise FieldFormatError("reserved header bytes are not zero")
    if not 1 <= rank <= 4:
        raise FieldFormatError(f"rank {rank} outside [1, 4]")
    axes = []
    for _ in range(rank):
        raw, off = _take(buf, off, 1, "axis name length")
        (name_len,) = struct.unpack("<B", raw)
        raw, off = _take(buf, off, name_len, "axis name")
        try:
            name = bytes(raw).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FieldFormatError(f"axis name is not UTF-8: {exc}") from exc
        raw, off = _take(buf, off, _AXIS_FIXED.size, "axis bounds")
        n, lo, hi = _AXIS_FIXED.unpack(raw)
        try:
            axes.append(make_axis(name, lo, hi, n))
        except ValidationError as exc:
            raise FieldFormatError(f"invalid axis in field file: {exc}") from exc
    if version > 1:
        raw, off = _take(buf, off, -off % _ALIGN, "header padding")
        if any(raw):
            raise FieldFormatError("header padding bytes are not zero")
    itemsize = 16 if dtype_code else 8
    raw, off = _take(buf, off, math.prod(a.n for a in axes) * itemsize, "payload")
    if off != len(buf):
        raise FieldFormatError(f"{len(buf) - off} trailing bytes after payload")
    kind, dtype = (ComplexField, "<c16") if dtype_code else (RealField, "<f8")
    try:
        # duplicate axis names, a complex rank above 2 and non-finite values surface here
        return kind(axes, np.frombuffer(raw, dtype=dtype).reshape(tuple(a.n for a in axes)))
    except ValidationError as exc:
        raise FieldFormatError(f"invalid field in field file: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV slices

def parse_slice_spec(spec: str) -> dict[str, float]:
    """Parse 'axis=value,axis=value' into an ordered mapping."""
    out: dict[str, float] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValidationError(f"slice entry {chunk!r} is not axis=value")
        name, _, val = chunk.partition("=")
        name = name.strip()
        if name in out:
            raise ValidationError(f"axis {name!r} pinned twice in slice spec")
        try:
            out[name] = _finite_pin(name, float(val))
        except ValueError as exc:  # ValidationError is a ValueError
            raise ValidationError(f"slice entry {chunk!r}: {exc}") from exc
    return out


def _finite_pin(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValidationError(f"pin for axis {name!r} must be finite, got {value!r}")
    return value


def export_csv(field, pins: dict[str, float], path) -> dict[str, float]:
    """Write a 1-d or 2-d slice as CSV with 17 significant digits.

    Pinned axes snap to the nearest grid node (ties toward -inf). The header
    names the free axes then 'value'; rows walk the outer free axis ascending
    with the inner axis fastest. Returns the snapped pin values actually used.
    Complex fields are rejected; export a derived real field instead.
    """
    if isinstance(field, ComplexField):
        raise ValidationError("CSV export handles real fields only")
    if not isinstance(field, RealField):
        raise ValidationError(f"cannot export {type(field)!r}")
    names = [a.name for a in field.axes]
    for name, value in pins.items():
        if name not in names:
            raise ValidationError(f"slice pins unknown axis {name!r}; field axes are {names}")
        _finite_pin(name, value)
    free = [a for a in field.axes if a.name not in pins]
    if len(free) not in (1, 2):
        raise ValidationError(f"slice must leave 1 or 2 free axes, got {len(free)}")
    index: list[object] = []
    snapped: dict[str, float] = {}
    for a in field.axes:
        if a.name in pins:
            i = a.nearest_index(pins[a.name])
            index.append(i)
            snapped[a.name] = a.min + i * a.step
        else:
            index.append(slice(None))
    block = field.data[tuple(index)]
    lines = [",".join([a.name for a in free] + ["value"])]
    if len(free) == 1:
        for t, val in zip(free[0].points(), block):
            lines.append(f"{t:.17g},{val:.17g}")
    else:
        outer, inner = free[0].points(), free[1].points()
        for i, ti in enumerate(outer):
            for j, tj in enumerate(inner):
                lines.append(f"{ti:.17g},{tj:.17g},{block[i, j]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return snapped
