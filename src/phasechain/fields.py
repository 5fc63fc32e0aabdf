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

__all__ = [
    "AxisGrid",
    "ComplexField",
    "NumericError",
    "PointwiseField",
    "RealField",
    "StencilScheme",
    "ValidationError",
    "integrate_axis",
    "make_axis",
    "partial_derivative",
    "sample_complex",
    "sample_real",
    "stencil_coefficients",
]

Array = np.ndarray

AXIS_NAMES = ("x", "v", "vdot", "vddot", "s1", "s2")

KINEMATIC_ORDER = ("x", "v", "vdot", "vddot")


class ValidationError(ValueError):
    """Bad arguments or malformed containers."""


class NumericError(ArithmeticError):
    """A numerical consistency check failed (not a usage error)."""


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
    """Build a validated axis; n must be even and at least 4, hi > lo."""
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
    return AxisGrid(name, int(n), lo, hi)


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
        # min and max propagate NaN and surface +-inf without a boolean temporary. One x-slab at a time,
        # max reads what min left in cache; the scan is bound by memory bandwidth, and on 2 cores two
        # slab workers were slower than this thread alone
        flat = data.view(np.float64)
        for lo, hi in _x_slabs(flat):
            if not (np.isfinite(flat[lo:hi].min()) and np.isfinite(flat[lo:hi].max())):
                raise ValidationError("field data contains non-finite values")
            _drop_rows(flat, lo, hi)
        data.flags.writeable = False
        self.data = data

    @classmethod
    def _trusted(cls, axes, data):
        """Wrap a derived contiguous array on already-validated axes, skipping the checks."""
        obj = cls.__new__(cls)
        obj.axes = axes
        data.flags.writeable = False
        obj.data = data
        return obj

    @property
    def rank(self) -> int:
        return len(self.axes)

    def axis_index(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise ValidationError(f"field has no axis {name!r}; axes are {[a.name for a in self.axes]}")

    def axis(self, name: str) -> AxisGrid:
        return self.axes[self.axis_index(name)]

    def mesh(self):
        """Sparse broadcastable coordinate arrays, one per axis."""
        return np.meshgrid(*[a.points() for a in self.axes], indexing="ij", sparse=True)

    def with_data(self, data):
        return type(self)(self.axes, data)


class RealField(_BaseField):
    """Real scalar field sampled on a tensor-product grid (rank 1..4)."""

    _dtype = np.float64
    _rank_range = (1, 4)


class ComplexField(_BaseField):
    """Complex scalar field on a rank-1 or rank-2 grid (wave functions)."""

    _dtype = np.complex128
    _rank_range = (1, 2)


def sample_real(func, axes) -> RealField:
    axes = _check_axes(axes, 1, 4)
    grids = np.meshgrid(*[a.points() for a in axes], indexing="ij", sparse=True)
    data = np.broadcast_to(func(*grids), tuple(a.n for a in axes))
    return RealField(axes, np.array(data, dtype=np.float64))


def sample_complex(func, axes) -> ComplexField:
    """Sample a complex-valued callable on the tensor grid of the given axes."""
    axes = _check_axes(axes, 1, 2)
    grids = np.meshgrid(*[a.points() for a in axes], indexing="ij", sparse=True)
    data = np.broadcast_to(func(*grids), tuple(a.n for a in axes))
    return ComplexField(axes, np.array(data, dtype=np.complex128))


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


def stencil_coefficients(power: int, order: int) -> tuple[float, ...]:
    """Symmetric central-difference weights for d^power/dx^power, given accuracy order.

    Solved exactly over rationals (sum_j c_j j^k = power! * delta_{k,power} for
    k = 0..2w) so polynomial exactness up to degree 2w survives the float cast.
    Weights are returned unscaled; divide by h**power at application time.
    """
    if not (1 <= power <= MAX_DERIVATIVE_POWER):
        raise ValidationError(f"derivative power must be in [1, {MAX_DERIVATIVE_POWER}], got {power}")
    if order not in _STENCIL_ORDERS:
        raise ValidationError(f"stencil order must be one of {_STENCIL_ORDERS}, got {order}")
    return _stencil_weights(power, order)


@lru_cache(maxsize=None)
def _stencil_weights(power: int, order: int) -> tuple[float, ...]:
    """stencil_coefficients for a valid power and order, solved once per pair."""
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


def stencil_halfwidth(power: int, order: int) -> int:
    return (power + 1) // 2 + order // 2 - 1


@lru_cache(maxsize=None)
def _band_matrix(n: int, coeffs: tuple[float, ...]) -> Array:
    """n x n stencil weights: row i (output node) holds c_j in column i + j (source node).

    Taps that fall off the grid have no column, which is zero extension.
    """
    w = len(coeffs) // 2
    mat = np.zeros((n, n))
    for j, c in zip(range(-w, w + 1), coeffs):
        i = np.arange(max(0, -j), min(n, n - j))
        mat[i, i + j] = c
    mat.flags.writeable = False
    return mat


# OpenBLAS runs a gemm call of <= 64^3 multiply-adds on its calling thread, so each slab worker does its
# own BLAS calls; bigger calls start OpenBLAS's own pool on 2 cores: 0.58 s pool start, 2x CPU
_BLAS_MADDS = 1 << 18


def _apply_stencil_along_axis(data: Array, axis: int, coeffs, w: int, h: float, power: int,
                              lo: int = 0, hi: int | None = None) -> Array:
    """Zero-extended central difference along one array axis, for output indices [lo, hi).

    The stencil is a banded matrix product along `axis`: rows [lo, hi) of the
    n x n weight matrix times the on-grid source nodes [lo - w, hi + w) of
    `data`, read in place, so neither a halo nor a padded copy is made. The
    free dimensions are cut into batches of BLAS calls of at most
    _BLAS_MADDS multiply-adds each. BLAS orders each sum its own way, so a
    result matches the zero-padded tap sum within 4 (2w+1) eps
    sum_j |c_j| |data[i+j]| / h**power, not bit for bit.
    """
    n = data.shape[axis]
    hi = n if hi is None else hi
    a, b = max(lo - w, 0), min(hi + w, n)
    band = _band_matrix(n, tuple(coeffs))[lo:hi, a:b]
    pre, post = math.prod(data.shape[:axis]), math.prod(data.shape[axis + 1 :])
    src = data.reshape(pre, n, post)[:, a:b]
    shape = list(data.shape)
    shape[axis] = hi - lo
    out = np.empty(shape, dtype=np.result_type(data, band))
    dst = out.reshape(pre, hi - lo, post)
    per_call = max(1, _BLAS_MADDS // band.size)
    if post > 1:
        _band_columns(band, src, dst, min(per_call, post))
    else:
        # the last axis: out = src @ band.T, batched over blocks of `step` rows
        src, dst, step = src[..., 0], dst[..., 0], min(per_call, pre)
        band_t = band.T.copy()  # gemm on the transposed view ran 1.6x slower at 64^4
        cut = pre - pre % step
        np.matmul(src[:cut].reshape(-1, step, b - a), band_t, out=dst[:cut].reshape(-1, step, hi - lo))
        if cut < pre:
            np.matmul(src[cut:], band_t, out=dst[cut:])
    out /= h**power
    return out


def _band_columns(band: Array, src: Array, dst: Array, step: int) -> None:
    """dst[p, :, cols] = band @ src[p, :, cols], batched over p and blocks of `step` columns (the last one shorter)."""
    pre, _, cols = src.shape
    cut = cols - cols % step

    def blocks(x):
        return x[..., :cut].reshape(pre, x.shape[1], cut // step, step).transpose(0, 2, 1, 3)

    np.matmul(band, blocks(src), out=blocks(dst))
    if cut < cols:
        np.matmul(band, src[..., cut:], out=dst[..., cut:])


def _max_abs(data: Array) -> float:
    """max |data| without the full-size temporary of np.abs."""
    return max(float(data.max()), -float(data.min()))


def _stencil(data: Array, k: int, step: float, power: int, scheme: StencilScheme,
             lo: int = 0, hi: int | None = None) -> Array:
    """Partial along array axis k (grid step `step`) on index range [lo, hi) of that axis."""
    h = scheme.h if scheme.h is not None else step
    return _apply_stencil_along_axis(data, k, _stencil_weights(power, scheme.order),
                                     stencil_halfwidth(power, scheme.order), h, power, lo, hi)


# ---------------------------------------------------------------------------
# x-slabs and the slab pool
#
# x-rows are independent for everything but d_x, which reads its neighbours in
# place, so slab loops run on a thread pool: NumPy and BLAS release the GIL
# while they work. A slab task calls only private code (the benchmark's span
# recorder keeps one span stack per process) and writes only its own rows.

_SLAB_BYTES = 1 << 20


@lru_cache(maxsize=None)
def _workers() -> int:
    """Slab workers: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _x_slabs(data: Array):
    """[lo, hi) ranges over axis 0; the workers' slabs together hold about 1 MiB of `data` (at least a row each)."""
    return _row_slabs(data.shape[0], data[0].nbytes)


def _row_slabs(n: int, row_bytes: int):
    """_x_slabs of an array of n rows of row_bytes each."""
    rows = max(1, _SLAB_BYTES // (_workers() * row_bytes))
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


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
    """One slab task in flight: a worker runs it in the submitter's context, then releases `done`."""

    def __init__(self, task, lo: int, hi: int):
        self.context, self.task, self.lo, self.hi = contextvars.copy_context(), task, lo, hi
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
                job.value = job.context.run(job.task, job.lo, job.hi)
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
    """Yield task(lo, hi) for each [lo, hi) of ranges, in order, computed on the slab pool.

    At most _workers() tasks are in flight. Each runs in a copy of the caller's
    context, so np.errstate carries into the workers. One range, or one worker,
    runs inline and starts no thread, and so does a call from a slab task: its
    jobs would wait behind the tasks that wait for them. A task's exception is
    raised here unchanged, after the tasks still in flight have finished.
    """
    workers = _workers()
    if workers == 1 or len(ranges) == 1 or getattr(_worker_thread, "active", False):
        for lo, hi in ranges:
            yield task(lo, hi)
        return
    jobs, pending = _pool(workers), []
    try:
        for lo, hi in ranges:
            if len(pending) == workers:
                yield pending.pop(0).result()
            pending.append(_Job(task, lo, hi))
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


def _map_rows(task, data: Array, halo: int):
    """Yield task(lo, hi) for each x-slab of `data`, in order, from _map_slabs.

    halo is the number of rows beyond [lo, hi) on either side that a task reads
    from `data`. When the caller asks for the next result, the rows no later
    slab reads (those more than halo rows before the end of the slab just
    taken) are dropped with _drop_rows, and once the loop ends all of them, so
    a loop over a mapped field keeps only the rows in flight and their halo
    resident.
    """
    ranges = _x_slabs(data)
    done = 0
    for (_, hi), value in zip(ranges, _map_slabs(task, ranges)):
        yield value
        _drop_rows(data, done, hi - halo)
        done = max(done, hi - halo)
    _drop_rows(data, done, len(data))


def _axis_sums(data: Array, k: int, scale: float, *integrands) -> list:
    """scale * the sums over array axis k of data and of each integrand(lo, hi) (its values on rows [lo, hi)).

    The sums keep data's dtype and are taken one x-slab at a time (halo 0), or
    over axis 0 in one task over all rows, since every row adds into each value.
    """
    sums = [np.empty(data.shape[:k] + data.shape[k + 1 :], dtype=data.dtype) for _ in range(1 + len(integrands))]
    parts = (lambda lo, hi: data[lo:hi], *integrands)

    def task(lo, hi):
        rows = slice(lo, hi) if k else ...  # a sum over axis 0 fills each whole output
        for out, part in zip(sums, parts):
            out[rows] = part(lo, hi).sum(axis=k) * scale

    if k:
        for _ in _map_rows(task, data, 0):
            pass
    else:
        task(0, len(data))
        _drop_rows(data, 0, len(data))
    return sums


def partial_derivative(field: RealField, axis: str, power: int, scheme: StencilScheme) -> RealField:
    """Central finite-difference partial along a named axis, zero extension outside.

    Boundary samples use the same stencil wrapped onto zeros, so results within
    stencil_halfwidth of an edge assume the field vanishes beyond the grid.
    """
    if not isinstance(field, (RealField, ComplexField)):
        raise ValidationError(f"expected a field, got {type(field)!r}")
    k = field.axis_index(axis)
    return type(field)._trusted(field.axes, _stencil(field.data, k, field.axes[k].step, power, scheme))


def integrate_axis(field: RealField, axis: str, weight: float = 1.0):
    """Riemann-sum reduction weight * step * sum along one axis.

    Matches the DFT quadrature convention and is spectrally accurate for
    fields decaying to zero at the boundary. Returns a field of rank - 1,
    or a float when the last axis is integrated away.
    """
    k = field.axis_index(axis)
    total, = _axis_sums(field.data, k, weight * field.axes[k].step)
    rest = field.axes[:k] + field.axes[k + 1 :]
    if not rest:
        return float(total)
    return type(field)(rest, total)


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
        out *= 1.0 / h ** sum(powers)
        return out

    def _coerce(self, coords):
        coords = tuple(np.asarray(c, dtype=np.float64) for c in coords)
        if len(coords) != self.rank:
            raise ValidationError(f"expected {self.rank} coordinate arrays, got {len(coords)}")
        return coords


# ---------------------------------------------------------------------------
# evaluation views
#
# moyal and vlasov write each equation once against a view: x-rows [lo, hi) of
# a grid field (_GridView) or a pointwise field at given points (_PointView).
# A view has `shape`, axis `names`, coord(name) (broadcastable to shape),
# values() (never written into), d(**powers) (a fresh mixed partial, e.g.
# d(vdot=1, vddot=3)), times(flux) (a view of field * flux, for a flux callable
# on the coordinates or given by samples) and restrict(samples) (samples on the
# whole support, cut to the view).

def _add_product(out: Array, d: Array, coef):
    """out += coef * d, multiplying the fresh derivative d in place instead of into a temporary.

    d comes first, so a caller computes it before coef and the two never share the peak."""
    np.multiply(d, coef, out=d)
    out += d


class _GridView:
    """x-rows [lo, hi) of a grid field.

    Only d_x couples rows, and it reads its stencil-halfwidth neighbours in
    place from the whole field, so d_x is never combined with another axis;
    other axes chain last axis first. A view equals the same rows of the
    whole-field evaluation within the stencil rounding bound.
    """

    def __init__(self, field: RealField, scheme: StencilScheme, lo: int, hi: int, rows: Array | None = None):
        self.field, self.scheme, self.lo, self.hi = field, scheme, lo, hi
        self.names = tuple(a.name for a in field.axes)
        self._rows = field.data[lo:hi] if rows is None else rows
        # a product from times has no neighbour rows for d_x
        self._x_source = field.data if rows is None else None
        self.shape = self._rows.shape

    def coord(self, name: str) -> Array:
        k = self.names.index(name)
        pts = self.field.axes[k].points()
        return (pts[self.lo:self.hi] if k == 0 else pts).reshape((-1,) + (1,) * (len(self.names) - 1 - k))

    def values(self) -> Array:
        return self._rows

    def d(self, **powers) -> Array:
        active = sorted(((self.names.index(n), p) for n, p in powers.items() if p), reverse=True)
        if active[-1][0] == 0:
            if len(active) > 1 or self._x_source is None:
                raise ValidationError("a grid view takes d_x alone, and only of the field's own rows")
            return _stencil(self._x_source, 0, self.field.axes[0].step, active[0][1], self.scheme, self.lo, self.hi)
        out = self._rows
        for k, p in active:
            out = _stencil(out, k, self.field.axes[k].step, p, self.scheme)
        return out

    def times(self, flux) -> "_GridView":
        flux = flux(*map(self.coord, self.names)) if callable(flux) else self.restrict(flux)
        product = self._rows * flux
        if not (np.isfinite(product.min()) and np.isfinite(product.max())):
            raise ValidationError("field times flux contains non-finite values")
        return _GridView(self.field, self.scheme, self.lo, self.hi, product)

    def restrict(self, samples) -> Array:
        return np.broadcast_to(samples, self.field.data.shape)[self.lo:self.hi]


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
    """Yield (lo, hi, body(view)) for each x-slab's _GridView, in order; a view's one x-stencil, d/dx, sets the halo."""
    return _map_rows(lambda lo, hi: (lo, hi, body(_GridView(field, scheme, lo, hi))), field.data,
                     stencil_halfwidth(1, scheme.order))


def _over_slabs(field: RealField, scheme: StencilScheme, body) -> Array:
    """body(view) on each x-slab of a grid field, assembled into one array of the field's shape."""
    out = np.empty_like(field.data)
    for lo, hi, block in _grid_slabs(field, scheme, body):
        out[lo:hi] = block
    return out


def _evaluate(field, axis_names, scheme: StencilScheme, points, body):
    """body at the points of a PointwiseField (an array), or on a grid field's x-slabs (a RealField)."""
    if isinstance(field, PointwiseField):
        return body(_PointView(field, axis_names, points, scheme))
    _require_axes(field, axis_names)
    return RealField._trusted(field.axes, _over_slabs(field, scheme, body))


def _require_axes(field: RealField, axis_names):
    names = tuple(a.name for a in field.axes)
    if names != tuple(axis_names):
        raise ValidationError(f"field must have axes {tuple(axis_names)}, got {names}")


# the support cut of the flux closures and moment ratios, as a fraction of the density peak
DEFAULT_MASK_THRESHOLD = 1e-8


def _check_mask_threshold(threshold: float) -> float:
    """Return the threshold if it is finite and in [0, 1); raise ValidationError otherwise.

    Below 0 nothing is masked, and W may be negative, so moment ratios would
    divide by densities near or below zero; at 1 or above the mask is empty.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValidationError(f"mask threshold must be finite and in [0, 1), got {threshold!r}")
    return threshold
