"""Uniform phase-space grids, field containers, and finite-difference calculus.

Axes are endpoint-exclusive: sample i sits at min + i*step with step =
(max - min)/n, so the right endpoint is never a node and the grid is the
natural index set for DFT-based transforms. All field payloads are float64
or complex128, row major, last axis fastest.
"""

from __future__ import annotations

import contextvars
import math
import mmap
import numbers
import os
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["fields"])

Array = np.ndarray

AXIS_NAMES = ("x", "v", "vdot", "vddot", "s1", "s2")

KINEMATIC_ORDER = ("x", "v", "vdot", "vddot")


class ValidationError(ValueError):
    """Bad arguments or malformed containers."""


class NumericError(ArithmeticError):
    """A numerical consistency check failed (not a usage error)."""


def _read_table(text: str, what: str, expected: str, converters) -> list:
    """The rows of a text table, each field converted; '#' comments and blank lines skipped.

    A wrong field count, or a field that does not convert, raises a ValidationError naming `what` and the line.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != len(converters):
            raise ValidationError(f"{what} line {lineno}: expected {expected}, got {raw!r}")
        try:
            rows.append([convert(part) for convert, part in zip(converters, parts)])
        except ValueError as exc:
            raise ValidationError(f"{what} line {lineno}: {exc}") from exc
    return rows


@dataclass(frozen=True)
class AxisGrid:
    """One uniform, endpoint-exclusive axis."""

    name: str
    n: int
    min: float
    max: float

    @property
    def step(self) -> float:
        return (self.max - self.min) / self.n

    def points(self) -> Array:
        return self.min + self.step * np.arange(self.n)

    def nearest_index(self, value: float) -> int:
        # ties between two nodes resolve toward -inf; values off the axis snap to its
        # end nodes, so clamp first to keep huge values from overflowing the ratio
        value = min(max(value, self.min), self.max)
        i = int(math.ceil((value - self.min) / self.step - 0.5))
        return min(max(i, 0), self.n - 1)


def make_axis(name: str, lo: float, hi: float, n: int) -> AxisGrid:
    """Build a validated axis; n must be even and at least 4, hi > lo, and the step finite and positive."""
    if name not in AXIS_NAMES:
        raise ValidationError(f"unknown axis name {name!r}; expected one of {AXIS_NAMES}")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"axis {name!r}: n must be an integer, got {n!r}")
    if n < 4:
        raise ValidationError(f"axis {name!r}: n must be >= 4, got {n}")
    if n % 2:
        raise ValidationError(f"axis {name!r}: n must be even, got {n}")
    lo = float(lo)
    hi = float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError(f"axis {name!r}: bounds must be finite")
    if hi <= lo:
        raise ValidationError(f"axis {name!r}: max must exceed min, got [{lo}, {hi})")
    axis = AxisGrid(name, int(n), lo, hi)
    if not 0.0 < axis.step < math.inf:  # (max - min) overflows, or its n-th part underflows to 0
        raise ValidationError(f"axis {name!r}: step (max - min) / n must be finite and positive, got {axis.step!r}")
    return axis


def _check_axes(axes, lo_rank, hi_rank):
    """The axes as a tuple, if each is one that make_axis builds and no name repeats; else ValidationError."""
    axes = tuple(axes)
    if not (lo_rank <= len(axes) <= hi_rank):
        raise ValidationError(f"rank {len(axes)} outside [{lo_rank}, {hi_rank}]")
    for a in axes:
        if not isinstance(a, AxisGrid):
            raise ValidationError(f"axes must be AxisGrid, got {type(a)!r}")
        make_axis(a.name, a.min, a.max, a.n)
    names = [a.name for a in axes]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate axis names {names}")
    return axes


class _BaseField:
    """Shared container behaviour; immutable after construction."""

    _dtype: type
    _rank_range = (1, 4)

    def __init__(self, axes, data):
        self.axes = _check_axes(axes, *self._rank_range)
        data = np.asarray(data, dtype=self._dtype)
        shape = tuple(a.n for a in self.axes)
        if data.shape != shape:
            raise ValidationError(f"data shape {data.shape} does not match axes {shape}")
        data = np.ascontiguousarray(data)
        # min and max propagate NaN and surface +-inf with no boolean temporary, and give the peak. Tile by tile (a
        # rank-1 view as a column), so mapped rows drop as read; on this thread: 2 workers were slower (bandwidth bound)
        flat, peak = data.view(np.float64), 0.0
        for _, tile in _field_tiles(flat if flat.ndim > 1 else flat[:, None]):
            low, high = float(tile.min()), float(tile.max())
            if not (math.isfinite(low) and math.isfinite(high)):
                raise _non_finite(max(high, -low))
            peak = max(peak, high, -low)
        data.flags.writeable = False
        self.data, self._peak = data, peak

    @classmethod
    def _trusted(cls, axes, data):
        """Wrap a derived contiguous array on already-validated axes, skipping the checks; its peak waits for use."""
        obj = cls.__new__(cls)
        data.flags.writeable = False
        obj.axes, obj.data, obj._peak = axes, data, None
        return obj

    @property
    def rank(self) -> int:
        return len(self.axes)

    def axis_index(self, name: str) -> int:
        return _axis_index(self.axes, name)

    def axis(self, name: str) -> AxisGrid:
        return self.axes[self.axis_index(name)]

    def mesh(self):
        """Sparse broadcastable coordinate arrays, one per axis."""
        return np.meshgrid(*[a.points() for a in self.axes], indexing="ij", sparse=True)

    def with_data(self, data):
        return type(self)(self.axes, data)


class RealField(_BaseField):
    """Real scalar field sampled on a tensor-product grid (rank 1..4), which keeps its max |data| as peak."""

    _dtype = np.float64
    _rank_range = (1, 4)

    @property
    def peak(self) -> float:
        """max |data|, the same bits as max_abs(data): kept by the finiteness scan, or found at first use (_trusted)."""
        if self._peak is None:
            self._peak = max_abs(self.data)
        return self._peak


class ComplexField(_BaseField):
    """Complex scalar field on a rank-1 or rank-2 grid (wave functions)."""

    _dtype = np.complex128
    _rank_range = (1, 2)


def _axis_index(axes, name: str) -> int:
    for i, a in enumerate(axes):
        if a.name == name:
            return i
    raise ValidationError(f"field has no axis {name!r}; axes are {[a.name for a in axes]}")


def _axes_of(source) -> tuple:
    """The axes of a field, or of a stream: an (axes, tiles) pair on real rank 2-4 axes, as transform_rows returns.

    tiles is any in-order source of a real field's (index, block) tiles (see _stream_views).
    """
    if isinstance(source, _BaseField):
        return source.axes
    if isinstance(source, tuple) and len(source) == 2:
        return _check_axes(source[0], 2, 4)
    raise ValidationError(f"expected a field or an (axes, tiles) stream, got {type(source)!r}")


def sample_real(func, axes) -> RealField:
    """Sample a real-valued callable on the tensor grid of the given axes."""
    return _sample(RealField, func, axes)


def sample_complex(func, axes) -> ComplexField:
    """Sample a complex-valued callable on the tensor grid of the given axes."""
    return _sample(ComplexField, func, axes)


def _sample(cls, func, axes):
    axes = _check_axes(axes, *cls._rank_range)
    data = func(*np.meshgrid(*[a.points() for a in axes], indexing="ij", sparse=True))
    return cls(axes, np.array(np.broadcast_to(data, tuple(a.n for a in axes)), dtype=cls._dtype))


# ---------------------------------------------------------------------------
# finite differences

MAX_DERIVATIVE_POWER = 6

_STENCIL_ORDERS = (2, 4, 6)


@dataclass(frozen=True)
class StencilScheme:
    """Central finite-difference policy: accuracy order and optional step override.

    h = None means grid operations use the axis step; pointwise operations
    require an explicit h.
    """

    order: int = 4
    h: float | None = None

    def __post_init__(self):
        if self.order not in _STENCIL_ORDERS:
            raise ValidationError(f"stencil order must be one of {_STENCIL_ORDERS}, got {self.order}")
        if self.h is not None and not (np.isfinite(self.h) and self.h > 0):
            raise ValidationError(f"stencil step must be positive, got {self.h}")


@lru_cache(maxsize=None)
def stencil_coefficients(power: int, order: int) -> tuple[float, ...]:
    """Symmetric central-difference weights for d^power/dx^power, given accuracy order.

    Solved exactly over rationals, once per pair (sum_j c_j j^k = power! * delta_{k,power}
    for k = 0..2w), so polynomial exactness up to degree 2w survives the float cast.
    Weights are returned unscaled; divide by h**power at application time.
    """
    if not (1 <= power <= MAX_DERIVATIVE_POWER):
        raise ValidationError(f"derivative power must be in [1, {MAX_DERIVATIVE_POWER}], got {power}")
    if order not in _STENCIL_ORDERS:
        raise ValidationError(f"stencil order must be one of {_STENCIL_ORDERS}, got {order}")
    w = stencil_halfwidth(power, order)
    size = 2 * w + 1
    # rows: moment conditions sum_j c_j j^k = power! delta_{k,power}
    mat = [[Fraction(j) ** k for j in range(-w, w + 1)] for k in range(size)]
    rhs = [Fraction(math.factorial(power)) if k == power else Fraction(0) for k in range(size)]
    # exact Gaussian elimination with partial pivoting over Fraction
    for col in range(size):
        piv = next(r for r in range(col, size) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = Fraction(1) / mat[col][col]
        mat[col] = [e * inv for e in mat[col]]
        rhs[col] = rhs[col] * inv
        for r in range(size):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                rhs[r] = rhs[r] - f * rhs[col]
    return tuple(float(c) for c in rhs)


# the same cached table under a private name, for slab tasks, which call no public function
_coefficients = stencil_coefficients


def stencil_halfwidth(power: int, order: int) -> int:
    return (power + 1) // 2 + order // 2 - 1


@lru_cache(maxsize=None)
def _band_matrix(n: int, power: int, order: int) -> Array:
    """n x n stencil weights: row i (output node) holds c_j in column i + j (source node).

    Taps that fall off the grid have no column, which is zero extension.
    """
    coeffs = _coefficients(power, order)
    w = len(coeffs) // 2
    mat = np.zeros((n, n))
    for j, c in zip(range(-w, w + 1), coeffs):
        i = np.arange(max(0, -j), min(n, n - j))
        mat[i, i + j] = c
    mat.flags.writeable = False
    return mat


def _step_power(h: float, power: int) -> float:
    """h**power, the divisor of a d^power stencil; NumericError where 1 / h**power leaves the float range."""
    try:
        scale = float(h) ** power
        inverse = 1.0 / scale
    except (OverflowError, ZeroDivisionError):  # h**power overflows, or underflows to 0
        inverse = math.inf
    if not inverse < math.inf:
        raise NumericError(f"stencil scale 1 / h**{power} leaves the float range at h = {h!r}")
    return scale


# OpenBLAS runs a gemm call of <= 64^3 multiply-adds on its calling thread (bigger calls woke its pool on 2 cores:
# 0.58 s pool start, 2x CPU), so each slab worker makes its own BLAS calls and the pool gets no work. The CLI
# starts no pool at all: it sets OPENBLAS_NUM_THREADS=1 before NumPy loads
_BLAS_MADDS = 1 << 18
# output rows per band block on every axis but the last, where a block reads only its 8 + 2w source rows: on one
# 128^3 x-row (1 CPU) d/dv took 6.4 ms and d/dvdot 8.3 ms, against 90 and 20 ms for whole band rows. Along the
# last axis 8-row blocks took 27 ms against 20 ms for the whole band, which it keeps
_BAND_ROWS = 8


def _stencil(data: Array, axis: int, step: float, power: int, scheme: StencilScheme,
             lo: int = 0, hi: int | None = None) -> Array:
    """Zero-extended central d^power along array axis `axis` for output indices [lo, hi), step scheme.h or `step`.

    The stencil is a banded matrix product along `axis`: rows of the n x n
    weight matrix times the on-grid source nodes they reach, read in place,
    so neither a halo nor a padded copy is made. On every axis but the last,
    [lo, hi) is cut into blocks of _BAND_ROWS rows, and block [r0, r1) takes
    band columns and source rows [r0 - w, r1 + w) only; the last axis takes
    rows [lo, hi) of the band whole. The free dimensions are cut into
    batches of BLAS calls of at most _BLAS_MADDS multiply-adds each. BLAS
    orders each sum its own way, so a result matches the zero-padded tap sum
    within 4 (2w+1) eps sum_j |c_j| |data[i+j]| / h**power, not bit for bit.
    """
    w = stencil_halfwidth(power, scheme.order)
    n = data.shape[axis]
    hi = n if hi is None else hi
    scale = _step_power(step if scheme.h is None else scheme.h, power)
    weights = _band_matrix(n, power, scheme.order)
    pre, post = math.prod(data.shape[:axis]), math.prod(data.shape[axis + 1 :])
    src = data.reshape(pre, n, post)
    out = np.empty(data.shape[:axis] + (hi - lo,) + data.shape[axis + 1 :], dtype=np.result_type(data, weights))
    dst = out.reshape(pre, hi - lo, post)
    if post > 1:
        # dst[p, rows, cols] = band @ src[p, a:b, cols] for each block of rows, batched over p and blocks
        # of `cols` columns (the last one shorter)
        def blocks(x, cut, cols):
            return x[..., :cut].reshape(pre, x.shape[1], cut // cols, cols).transpose(0, 2, 1, 3)

        for r0 in range(lo, hi, _BAND_ROWS):
            r1 = min(r0 + _BAND_ROWS, hi)
            a, b = max(r0 - w, 0), min(r1 + w, n)
            band, s, d = weights[r0:r1, a:b], src[:, a:b], dst[:, r0 - lo : r1 - lo]
            cols = min(max(1, _BLAS_MADDS // band.size), post)
            cut = post - post % cols
            np.matmul(band, blocks(s, cut, cols), out=blocks(d, cut, cols))
            if cut < post:
                np.matmul(band, s[..., cut:], out=d[..., cut:])
    else:
        # the last axis: out = src @ band.T, batched over blocks of `rows` rows
        a, b = max(lo - w, 0), min(hi + w, n)
        band_t = weights[lo:hi, a:b].T.copy()  # gemm on the transposed view ran 1.6x slower at 64^4
        src, dst = src[:, a:b, 0], dst[..., 0]
        rows = min(max(1, _BLAS_MADDS // band_t.size), pre)
        cut = pre - pre % rows
        np.matmul(src[:cut].reshape(-1, rows, b - a), band_t, out=dst[:cut].reshape(-1, rows, hi - lo))
        if cut < pre:
            np.matmul(src[cut:], band_t, out=dst[cut:])
    out /= scale
    return out


def max_abs(data) -> float:
    """max |data| of a non-empty array-like without the full-size temporary of np.abs: +0.0 for zeros, NaN for a NaN."""
    data = np.asarray(data)
    if not data.size:
        raise ValidationError(f"max_abs of an empty array (shape {data.shape})")
    return abs(max(float(data.max()), -float(data.min())))


def _non_finite(top: float) -> ValidationError:
    """The error of a field, or a grid result, with a non-finite value."""
    return ValidationError("field data contains non-finite values")


# ---------------------------------------------------------------------------
# tiles and the slab pool
#
# x-rows are independent for everything but d_x, which reads its neighbours in
# place, so slab loops run on a thread pool: NumPy and BLAS release the GIL
# while they work. A slab task calls only private code (the benchmark's span
# recorder keeps one span stack per process) and writes only its own rows.

# the bytes of one tile, whatever the worker count, so tiles (and a stencil's BLAS sum order) follow only the
# field's shape: a tile (_grid_tiles) takes the x-rows that fit, or, where one x-row is larger, as many of its v-rows,
# at least one (16 of a 64^4 field's 2 MiB x-row); the finiteness scan and the moment sums read the same tiles
_TILE_BYTES = 1 << 19


@lru_cache(maxsize=None)
def _workers() -> int:
    """Slab workers: the CPUs this process may run on, at most two: two tiles, about 1 MiB, in flight on any host."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, 2)


def _grid_tiles(shape):
    """(lo, hi, v0, v1) over x-rows [lo, hi) and v-rows [v0, v1) (axis 1) of a float64 array of rank >= 2 `shape`.

    A tile holds as many whole x-rows as fit _TILE_BYTES or, where one x-row
    is larger, as many v-rows of one x-row, at least one. The tiles depend
    only on the shape, not on the workers. Their order is x-major, the
    writer's: in order, they are consecutive byte ranges of a C-contiguous
    array (_grid_slabs reorders them run-major).
    """
    n, nv = shape[:2]
    v_row = 8 * math.prod(shape[2:])
    if nv * v_row <= _TILE_BYTES:
        rows = _TILE_BYTES // (nv * v_row)
        return [(lo, min(lo + rows, n), 0, nv) for lo in range(0, n, rows)]
    rows = max(1, _TILE_BYTES // v_row)
    return [(i, i + 1, v0, min(v0 + rows, nv)) for i in range(n) for v0 in range(0, nv, rows)]


def _field_tiles(data: Array):
    """Yield (index, data[index]) for each of the _grid_tiles of a C-contiguous array of rank >= 2, x-major.

    index is the tile's (x-rows, v-rows) pair of slices. Each tile's mapped
    pages are dropped (_drop_rows) as the next is asked for: the tiles are
    consecutive byte ranges, so none is left behind and a reader holds one.
    """
    nv = data.shape[1]
    rows = data.reshape((-1,) + data.shape[2:])  # its x-rows' v-rows, in order
    for lo, hi, v0, v1 in _grid_tiles(data.shape):
        yield (slice(lo, hi), slice(v0, v1)), data[lo:hi, v0:v1]
        _drop_rows(rows, lo * nv + v0, (hi - 1) * nv + v1)


_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


class _FileMap(mmap.mmap):
    """A read-only shared mapping of a whole file, as read_field maps a field file: all that _drop_rows touches."""

    def __new__(cls, fileno: int):
        return super().__new__(cls, fileno, 0, access=mmap.ACCESS_READ)


def _drop_rows(data: Array, lo: int, hi: int) -> None:
    """Drop the pages of the rows [lo, hi) of a C-contiguous `data` from the process, if `data` views a _FileMap.

    The page that row lo starts in goes and the one that row hi starts in
    stays, so calls over consecutive ranges leave no page behind. Mapped pages
    count toward the process's RSS. A dropped page is mapped again from the
    page cache when next read, with the file's bytes: the mapping is
    read-only, and field files are replaced by rename, never rewritten in
    place. Any other array (in memory, an np.memmap, a writable or private
    mapping) is left alone, and so is everything where madvise has no
    MADV_DONTNEED.
    """
    base = data
    while isinstance(base, np.ndarray):
        base = base.base
    mapping = base.obj if isinstance(base, memoryview) else base
    if _MADV_DONTNEED is None or not isinstance(mapping, _FileMap):
        return
    offset = data.__array_interface__["data"][0] - np.frombuffer(mapping, np.uint8).__array_interface__["data"][0]
    page = mmap.PAGESIZE
    first, last = ((offset + i * data.strides[0]) // page * page for i in (lo, hi))
    if last > first:
        mapping.madvise(_MADV_DONTNEED, first, last - first)


class _Job:
    """One slab task in flight: a worker runs task(*args) in the submitter's context, then releases `done`."""

    def __init__(self, task, args: tuple):
        self.context, self.task, self.args = contextvars.copy_context(), task, args
        self.cancelled, self.value, self.error = False, None, None
        self.done = threading.Lock()
        self.done.acquire()

    def result(self):
        self.done.acquire()
        if self.error is not None:
            raise self.error
        return self.value


_worker_thread = threading.local()  # `active` is set on the pool's own threads


def _work(jobs) -> None:
    _worker_thread.active = True
    while True:
        job = jobs.get()
        if not job.cancelled:
            try:
                job.value = job.context.run(job.task, *job.args)
            except BaseException as exc:  # raised again in the caller
                job.error = exc
        job.done.release()
        del job  # an idle worker holds nothing of the last task


@lru_cache(maxsize=None)
def _pool(workers: int):
    """The job queue of `workers` daemon threads, started at first use.

    Plain threads and a queue, not concurrent.futures: its import (and that of
    logging) took 5-8 ms in every CLI step and 0.6 MiB of traced memory.
    """
    from queue import SimpleQueue

    jobs = SimpleQueue()
    for i in range(workers):
        threading.Thread(target=_work, args=(jobs,), name=f"phasechain-slab-{i}", daemon=True).start()
    return jobs


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)  # a forked child has none of the threads


def _map_slabs(task, ranges):
    """Yield task(*r) for each r of ranges ((lo, hi) pairs, or _grid_tiles' tiles), in order, on the slab pool.

    At most _workers() + 1 tasks are in flight (queued, running, or done and
    not yet taken, the caller's result among them), so a worker starts the
    next task while the caller takes a result. Each runs in a copy of the
    caller's context, so np.errstate carries into the workers. One range, or
    one worker, runs inline and starts no thread, and so does a call from a
    slab task: its jobs would wait behind the tasks that wait for them. A
    task's exception is raised here unchanged, after the tasks still in
    flight have finished.
    """
    workers = _workers()
    if workers == 1 or len(ranges) == 1 or getattr(_worker_thread, "active", False):
        for r in ranges:
            yield task(*r)
        return
    jobs, pending = _pool(workers), []
    try:
        for r in ranges:
            if len(pending) == workers + 1:
                yield pending.pop(0).result()
            pending.append(_Job(task, r))
            jobs.put(pending[-1])
        while pending:
            yield pending.pop(0).result()
    finally:
        for job in pending:
            job.cancelled = True
        # a generator left part-way is closed at interpreter exit, when the daemon workers can no
        # longer run: a job still in flight there never finishes, and waiting for it would hang the exit
        if not sys.is_finalizing():
            for job in pending:
                job.done.acquire()


def partial_derivative(field: RealField, axis: str, power: int, scheme: StencilScheme) -> RealField:
    """Central finite-difference partial along a named axis, zero extension outside.

    Boundary samples use the same stencil wrapped onto zeros, so results within
    stencil_halfwidth of an edge assume the field vanishes beyond the grid.
    """
    if not isinstance(field, (RealField, ComplexField)):
        raise ValidationError(f"expected a field, got {type(field)!r}")
    k = field.axis_index(axis)
    return type(field)(field.axes, _stencil(field.data, k, field.axes[k].step, power, scheme))


def integrate_axis(field, axis: str, weight: float = 1.0):
    """Riemann-sum reduction weight * step * sum along one axis.

    Matches the DFT quadrature convention and is spectrally accurate for
    fields decaying to zero at the boundary. Returns a field of rank - 1,
    or a float when the last axis is integrated away. The sum runs on the
    calling thread, one tile of the field at a time. field may also be a
    stream of a real field's tiles, an (axes, tiles) pair such as
    wigner.transform_rows returns; its sums are the same bits as the
    assembled field's.
    """
    axes = _axes_of(field)
    k = _axis_index(axes, axis)
    total, = _axis_sums(field, k, weight * axes[k].step, StencilScheme())
    rest = axes[:k] + axes[k + 1 :]
    if not (rest or np.isfinite(total)):  # a rank >= 2 result is checked by its constructor
        raise _non_finite(total)
    return (type(field) if isinstance(field, _BaseField) else RealField)(rest, total) if rest else float(total)


# ---------------------------------------------------------------------------
# pointwise evaluation mode

class PointwiseField:
    """Scalar field given by a vectorized callable, differentiable pointwise.

    Mixed partials come from tensor-product central stencils of step h (from
    the scheme), or from an exact rule when one is attached. The exact rule
    receives (powers, *coords) and may return None to fall back to stencils.
    Used for residual evaluation at arbitrary points without storing a grid.
    """

    def __init__(self, func, rank: int, exact_partial=None):
        if not (1 <= rank <= 4):
            raise ValidationError(f"pointwise rank must be in [1, 4], got {rank}")
        self.func = func
        self.rank = rank
        self.exact_partial = exact_partial

    def values(self, coords) -> Array:
        coords = self._coerce(coords)
        return np.asarray(self.func(*coords), dtype=np.float64)

    def derivative(self, powers, coords, scheme: StencilScheme) -> Array:
        powers = tuple(int(p) for p in powers)
        if len(powers) != self.rank:
            raise ValidationError(f"powers {powers} do not match rank {self.rank}")
        if any(p < 0 or p > MAX_DERIVATIVE_POWER for p in powers):
            raise ValidationError(f"derivative powers {powers} outside [0, {MAX_DERIVATIVE_POWER}]")
        coords = self._coerce(coords)
        if all(p == 0 for p in powers):
            return self.values(coords)
        if self.exact_partial is not None:
            out = self.exact_partial(powers, *coords)
            if out is not None:
                return np.asarray(out, dtype=np.float64)
        if scheme.h is None:
            raise ValidationError("pointwise derivatives need an explicit stencil step h")
        h = scheme.h
        scale = 1.0 / _step_power(h, sum(powers))
        active = [(k, stencil_coefficients(p, scheme.order), stencil_halfwidth(p, scheme.order))
                  for k, p in enumerate(powers) if p > 0]
        # one shifted-coordinate buffer per active axis, refilled for every tap; the
        # callable may return one of its inputs, so its result is only read
        shifted = [np.empty_like(c) if p else c for c, p in zip(coords, powers)]
        out = np.zeros(np.broadcast(*coords).shape, dtype=np.float64)
        tap = np.empty_like(out)  # each tap's weighted value, added into out
        for offsets in np.ndindex(*[2 * w + 1 for _, _, w in active]):
            weight = 1.0
            for (k, coeffs, w), o in zip(active, offsets):
                weight *= coeffs[o]
                if weight == 0.0:
                    break
                np.add(coords[k], (o - w) * h, out=shifted[k])
            if weight == 0.0:
                continue
            out += np.multiply(np.asarray(self.func(*shifted), dtype=np.float64), weight, out=tap)
        out *= scale
        return out

    def _coerce(self, coords):
        coords = tuple(np.asarray(c, dtype=np.float64) for c in coords)
        if len(coords) != self.rank:
            raise ValidationError(f"expected {self.rank} coordinate arrays, got {len(coords)}")
        return coords


# ---------------------------------------------------------------------------
# evaluation views
#
# moyal and vlasov write each equation once against a view: a tile of a grid
# field (_GridView) or a pointwise field at given points (_PointView). A view
# has `shape`, axis `names`, coord(name) (broadcastable to shape),
# potential(u) (u(x, v) at the view's points, for a potential u such as a
# PolynomialPotential; never written into), values() (never written into),
# d(**powers) (a fresh mixed partial, e.g. d(vdot=1, vddot=3)), times(flux) (a
# view of field * flux, for a flux callable on the coordinates or given by
# samples) and restrict(samples) (samples on the whole support, cut to the view).

def _add_product(out: Array, d: Array, coef):
    """out += coef * d, multiplying the fresh derivative d in place instead of into a temporary.

    d comes first, so a caller computes it before coef and the two never share the peak."""
    np.multiply(d, coef, out=d)
    out += d


class _GridView:
    """x-rows [lo, hi) and v-rows [v0, v1) of a grid field of rank >= 2 on `axes`, read from `data`.

    data holds the field's points from x-row x0 and v-row y0 on, at = (x0,
    y0): the whole field's array, at (0, 0), or a streamed tile's block, at
    the tile's first point, which holds the view's own points. Only d_x and
    d_v couple the points of different views, and each reads its
    stencil-halfwidth neighbours in place from data; a stencil whose
    neighbours are not in data raises ValidationError. d_x is never combined
    with another axis, and a product from times takes none. Other axes chain
    last axis first, so d_v comes last, on the view's x-rows widened by its
    halfwidth along v (for a product, the field times the fluxes there). A
    view equals the same points of the whole-field evaluation within the
    stencil rounding bound. The views of one slab loop share the dict
    `potentials`, where each potential is evaluated once, on the field's
    (x, v) nodes.
    """

    def __init__(self, axes, data: Array, scheme: StencilScheme, potentials: dict, lo: int, hi: int, v0: int,
                 v1: int, at: tuple = (0, 0), fluxes: tuple = ()):
        self.axes, self._data, self.scheme, self._potentials = axes, data, scheme, potentials
        self.lo, self.hi, self.v0, self.v1, self._at = lo, hi, v0, v1, at
        self.names = tuple(a.name for a in axes)
        self._fluxes = fluxes  # the factors of a product from times
        self._field_shape = tuple(a.n for a in axes)
        self.shape = (hi - lo, v1 - v0) + self._field_shape[2:]

    def _rows(self, a: int, b: int, k: int) -> slice:
        """Rows [a, b) of the field along axis k (0 or 1), as a slice of data; ValidationError if data lacks one."""
        start = self._at[k]
        if a < start or b > start + self._data.shape[k]:
            raise ValidationError("a stencil on a streamed tile needs rows of its neighbours: take it on a field")
        return slice(a - start, b - start)

    def coord(self, name: str, v_rows: slice | None = None) -> Array:
        """The coordinate on the view's points, or on its x-rows and the given v-rows."""
        k = self.names.index(name)
        cut = (slice(self.lo, self.hi), v_rows or slice(self.v0, self.v1), slice(None), slice(None))[k]
        return self.axes[k].points()[cut].reshape((-1,) + (1,) * (len(self.names) - 1 - k))

    def potential(self, u) -> Array:
        values = self._potentials.get(u)
        if values is None:  # two tasks may both evaluate it; either result is the same
            mesh = np.meshgrid(*[a.points() for a in self.axes], indexing="ij", sparse=True)
            values = self._potentials[u] = u(*mesh[:2])
        return values[self.lo:self.hi, self.v0:self.v1]

    def _block(self, a: int, b: int) -> Array:
        """The view's field times its fluxes (if any) on its x-rows and v-rows [a, b)."""
        block = self._data[self._rows(self.lo, self.hi, 0), self._rows(a, b, 1)]
        for flux in self._fluxes:
            block = block * (flux(*(self.coord(n, slice(a, b)) for n in self.names)) if callable(flux)
                             else np.broadcast_to(flux, self._field_shape)[self.lo:self.hi, a:b])
            if not (np.isfinite(block.min()) and np.isfinite(block.max())):
                raise ValidationError("field times flux contains non-finite values")
        return block

    def values(self) -> Array:
        return self._block(self.v0, self.v1)

    def d(self, **powers) -> Array:
        active = sorted(((self.names.index(n), p) for n, p in powers.items() if p), reverse=True)
        k, p = active[-1]
        if k == 0:
            if len(active) > 1 or self._fluxes:
                raise ValidationError("a grid view takes d_x alone, and only of the field's own rows")
            w, x0 = stencil_halfwidth(p, self.scheme.order), self._at[0]
            self._rows(max(self.lo - w, 0), min(self.hi + w, self._field_shape[0]), 0)
            return _stencil(self._data[:, self._rows(self.v0, self.v1, 1)], 0, self.axes[0].step, p, self.scheme,
                            self.lo - x0, self.hi - x0)
        w = stencil_halfwidth(p, self.scheme.order) if k == 1 else 0
        a, b = max(self.v0 - w, 0), min(self.v1 + w, self._field_shape[1])
        out = self._block(a, b)
        for k, p in active:
            out = _stencil(out, k, self.axes[k].step, p, self.scheme, *((self.v0 - a, self.v1 - a) if k == 1 else ()))
        return out

    def times(self, flux) -> "_GridView":
        return _GridView(self.axes, self._data, self.scheme, self._potentials, self.lo, self.hi, self.v0, self.v1,
                         self._at, self._fluxes + (flux,))

    def restrict(self, samples) -> Array:
        return np.broadcast_to(samples, self._field_shape)[self.lo:self.hi, self.v0:self.v1]


class _PointView:
    """A pointwise field at given points, its coordinates named by axis_names."""

    def __init__(self, field: PointwiseField, axis_names, points, scheme: StencilScheme):
        self.field, self.names, self.scheme = field, tuple(axis_names), scheme
        if points is None or len(points) != len(self.names):
            raise ValidationError(f"pointwise mode needs {len(self.names)} coordinate arrays for axes {self.names}, "
                                  f"got {'none' if points is None else len(points)}")
        if field.rank != len(self.names):
            raise ValidationError(f"pointwise field of rank {field.rank} cannot have axes {self.names}")
        self.coords = tuple(np.asarray(c, dtype=np.float64) for c in points)
        self.shape = np.broadcast(*self.coords).shape
        self._values = None

    def coord(self, name: str) -> Array:
        return self.coords[self.names.index(name)]

    def potential(self, u) -> Array:
        return u(self.coord("x"), self.coord("v"))

    def values(self) -> Array:
        if self._values is None:
            self._values = self.field.values(self.coords)
        return self._values

    def d(self, **powers) -> Array:
        out = self.field.derivative(tuple(powers.get(n, 0) for n in self.names), self.coords, self.scheme)
        # a stencil sum is made for this call; an exact rule may return an array it keeps
        return out if self.field.exact_partial is None else np.broadcast_to(out, self.shape).copy()

    def times(self, flux) -> "_PointView":
        if not (callable(flux) or isinstance(flux, numbers.Real)):
            raise ValidationError(f"a pointwise flux must be a callable or a real scalar, got {type(flux)!r}")
        func, scale = self.field.func, flux if callable(flux) else lambda *coords: flux
        product = PointwiseField(lambda *coords: func(*coords) * scale(*coords), self.field.rank)
        return _PointView(product, self.names, self.coords, self.scheme)

    def restrict(self, samples) -> Array:
        return np.asarray(samples)


def _grid_slabs(field: RealField, scheme: StencilScheme, body):
    """Yield (index, body(view)) for the _GridView of each of the field's _grid_tiles, run-major, from _map_slabs.

    index is the tile's (x-rows, v-rows) pair of slices, so field.data[index]
    holds its points. The tiles of each run of v-rows go down x before the
    next run starts: x-slabs (one run of every v-row) keep their x order, and
    the v-tiles of an x-row arrive in v order, one run after another. A body
    reads the halo of a view's one x-stencil, d/dx, beyond its tile: as each
    result is taken, _drop_rows drops the tile's x-rows less the halo, [lo -
    halo, hi - halo), and a run's last tile the rest, so a loop keeps only
    its tiles in flight and 2 halo + 1 tiles of a mapped field resident. A
    later run reads its pages of a dropped x-row back from the page cache.
    """
    data, potentials, n = field.data, {}, len(field.data)
    halo = stencil_halfwidth(1, scheme.order)

    def task(lo, hi, v0, v1):
        return (slice(lo, hi), slice(v0, v1)), body(_GridView(field.axes, data, scheme, potentials, lo, hi, v0, v1))

    tiles = sorted(_grid_tiles(data.shape), key=lambda t: (t[2], t[0]))
    for (lo, hi, *_), value in zip(tiles, _map_slabs(task, tiles)):
        yield value
        _drop_rows(data, max(lo - halo, 0), hi - halo if hi < n else n)


def _stream_views(axes, tiles, scheme: StencilScheme, dtype):
    """Yield (index, view) for each (index, block) of a stream's tiles: the _GridView that reads that block.

    index is a pair of slices, x-rows and v-rows, and block an array of
    those points in dtype (a field's own; a stream's is float64). The tiles
    may come in any order in which each x-row's v-rows, and each v-row's
    x-rows, arrive in order, and each point once: transform_rows' x-major
    order and _grid_slabs' run-major order both do. A stream that breaks
    this, or ends early, raises ValidationError. The next tile is asked for
    only when the next view is, so a view may read a block that is valid
    only until then.
    """
    shape = tuple(a.n for a in axes)
    next_v, next_x = np.zeros(shape[0], dtype=int), np.zeros(shape[1], dtype=int)
    potentials = {}
    for index, block in tiles:
        try:
            (lo, hi, dx), (v0, v1, dv) = (part.indices(n) for part, n in zip(index, shape[:2], strict=True))
        except (AttributeError, TypeError, ValueError):
            raise ValidationError(f"a stream's index is an (x-rows, v-rows) pair of slices, got {index!r}") from None
        if not (isinstance(block, np.ndarray) and block.dtype == dtype
                and block.shape == (hi - lo, v1 - v0) + shape[2:] and dx == dv == 1 and hi > lo and v1 > v0):
            raise ValidationError(f"a stream's block must be {np.dtype(dtype)} of the shape its index {index!r} "
                                  f"cuts from {shape}")
        if (next_v[lo:hi] != v0).any() or (next_x[v0:v1] != lo).any():
            raise ValidationError(f"stream tile {index!r} is out of order, or repeats points")
        next_v[lo:hi], next_x[v0:v1] = v1, hi
        yield (slice(lo, hi), slice(v0, v1)), _GridView(axes, block, scheme, potentials, lo, hi, v0, v1, (lo, v0))
    if (next_v != shape[1]).any():
        raise ValidationError("the stream ended before its last tile")


def _assemble(shape, tiles) -> Array:
    """The blocks of (index, block) tiles written into one new float64 array of the given shape."""
    out = np.empty(shape)
    for index, block in tiles:
        out[index] = block
    return out


def _finite(body, error=_non_finite):
    """body under np.errstate(over="ignore", invalid="ignore"), its result refused by error(max |result|) unless finite.

    For the slab loops a caller takes as a generator: a task's errstate ends
    with the task, so none of it reaches the caller between two yields.
    """
    def checked(view):
        with np.errstate(over="ignore", invalid="ignore"):
            block = body(view)
        low, high = float(block.min()), float(block.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise error(max(high, -low))
        return block

    return checked


def _evaluate(field, axis_names, scheme: StencilScheme, points, body):
    """body at the points of a PointwiseField (an array), or on a grid field's tiles (a RealField).

    Finite values may combine past the float range on the grid: each slab
    task refuses its non-finite tile (_finite), and the caller makes no scan.
    """
    if isinstance(field, PointwiseField):
        return body(_PointView(field, axis_names, points, scheme))
    require_axes(field, axis_names)
    tiles = _grid_slabs(field, scheme, _finite(body))
    return RealField._trusted(field.axes, _assemble(field.data.shape, tiles))


def _axis_sums(source, k: int, scale: float, scheme: StencilScheme, *bodies) -> list:
    """scale * the sums over array axis k of a field's or a stream's data and of each body(view), in the data's dtype.

    One loop on the calling thread sums each tile as it arrives, before the
    next is asked for: a stream's (see _axes_of) block is valid only until
    then, and a field is read as the stream of its own tiles (_field_tiles),
    whose mapped pages drop as each is summed. Where a tile holds part of
    axis k (a run of v-rows, or x-rows), its slices along k are added into
    their sums in order, as NumPy sums a leading axis, and each x-row's
    v-rows (each v-row's x-rows) arrive in order: so any tiles, and a field
    or a stream of its tiles, give the same bits. A rank-1 field is one sum.
    """
    axes = _axes_of(source)
    shape = tuple(a.n for a in axes)
    field = source if isinstance(source, _BaseField) else None
    if len(shape) == 1:  # finite values may sum past the float range, which the result's check refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return [field.data.sum() * scale]
    sums = [np.zeros(shape[:k] + shape[k + 1 :], dtype=np.float64 if field is None else field.data.dtype)
            for _ in range(1 + len(bodies))]

    def reduce(out, index, part):  # one part at a time, summed before the next is made
        at = index[:k] + index[k + 1 :]
        if k > 1 or (index[k].start, index[k].stop) == (0, shape[k]):  # the tile holds all of axis k
            out[at] = part.sum(axis=k) * scale
            return
        for j in range(part.shape[k]):
            out[at] += part[(slice(None),) * k + (j,)]
        if index[k].stop == shape[k]:
            out[at] *= scale

    tiles = source[1] if field is None else _field_tiles(field.data)
    for index, view in _stream_views(axes, tiles, scheme, sums[0].dtype):
        with np.errstate(over="ignore", invalid="ignore"):  # not around the producer's own work
            for out, integrand in zip(sums, (_GridView.values, *bodies)):
                reduce(out, index, integrand(view))
    return sums


def require_axes(field, axis_names):
    """Raise ValidationError unless the field's (or stream's) axes are named axis_names, in that order."""
    names = tuple(a.name for a in _axes_of(field))
    if names != tuple(axis_names):
        raise ValidationError(f"field must have axes {tuple(axis_names)}, got {names}")


# the support cut of the flux closures and moment ratios, as a fraction of the density peak
DEFAULT_MASK_THRESHOLD = 1e-8


def check_mask_threshold(threshold: float) -> float:
    """Return the threshold if it is finite and in [0, 1); raise ValidationError otherwise.

    0 keeps every node of nonzero density: a zero density is never in the
    mask. Below 0 nothing would be masked, and W may be negative, so moment
    ratios would divide by densities near or below zero; at 1 or above the
    mask is empty.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValidationError(f"mask threshold must be finite and in [0, 1), got {threshold!r}")
    return threshold
