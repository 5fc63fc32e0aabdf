"""Shifted-autocorrelation transforms from rank-2 wave functions to joint fields.

The rank-4 field is the double transform

    W(x, v, vdot, vddot) = (2 dx)(2 dv) / (2 pi hbar2)^2
        * sum_{k,l} conj(psi[i-k, j-l]) psi[i+k, j+l]
        * exp[ i (s1 pddot - s2 pdot) / hbar2 ],

with half-shift sampling s1 = 2 k dx, s2 = 2 l dv (the shifted indices stay on
the grid, no interpolation) and zero extension outside the domain. The dual
axes are fixed by DFT conjugacy: pddot spacing pi hbar2 / (n dx) against s1,
pdot spacing pi hbar2 / (n dv) against s2, both centered on zero, relabelled
vddot = pddot / m and vdot = pdot / m. A single transform is the double
transform with the other shift held at 0, a dual axis of one node that is
dropped: wigner3 transforms s2 to (x, v, vdot) and wigner24 s1 to
(x, v, vddot), each with prefactor 2 d / (2 pi hbar2).

All three run one row kernel on half its spectrum: it is Hermitian,
K(-l, -k) = conj K(l, k), so W is real and an fft along l and an irfft along
k of the shifts k >= 0 give it, with both fftshifts folded in as the sign
(-1)^(l + k). Each output point is an independent finite sum, so results are
deterministic; the imaginary residue irfft drops is checked (< 1e-10 of peak).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .fields import (
    AxisGrid,
    ComplexField,
    NumericError,
    RealField,
    ValidationError,
    _assemble,
    _grid_tiles,
    _map_slabs,
    integrate_axis,
)

__all__ = list(_EXPORTS["wigner"])

IMAG_RESIDUE_LIMIT = 1e-10


@dataclass(frozen=True)
class TransformPlan:
    """Shift and dual axes for a wave-function grid, fixed by DFT conjugacy.

    Invariant: dual momentum spacing times full shift width equals 2 pi hbar2
    on both conjugate pairs.
    """

    s1: AxisGrid
    s2: AxisGrid
    vdot: AxisGrid
    vddot: AxisGrid
    hbar2: float
    m: float

    @classmethod
    def for_psi(cls, psi: ComplexField, params) -> "TransformPlan":
        names = tuple(a.name for a in psi.axes)
        if names != ("x", "v"):
            raise ValidationError(f"wave function needs axes ('x', 'v'), got {names}")
        for a in psi.axes:
            if a.n < 4 or a.n & (a.n - 1):
                raise ValidationError(f"axis {a.name!r}: transform needs power-of-two length, got {a.n}")
        ax, av = psi.axes
        hbar2, m = params.hbar2, params.m
        s1 = AxisGrid("s1", ax.n, -ax.n * ax.step, ax.n * ax.step)
        s2 = AxisGrid("s2", av.n, -av.n * av.step, av.n * av.step)
        dpddot = math.pi * hbar2 / (ax.n * ax.step)
        dpdot = math.pi * hbar2 / (av.n * av.step)
        vddot = AxisGrid("vddot", ax.n, -(ax.n // 2) * dpddot / m, (ax.n // 2) * dpddot / m)
        vdot = AxisGrid("vdot", av.n, -(av.n // 2) * dpdot / m, (av.n // 2) * dpdot / m)
        plan = cls(s1, s2, vdot, vddot, hbar2, m)
        for dual, shift in ((vddot, s1), (vdot, s2)):
            product = (m * dual.step) * (shift.n * shift.step)
            if not math.isclose(product, 2.0 * math.pi * hbar2, rel_tol=1e-12):
                raise NumericError(f"conjugacy broken on {dual.name}: {product} != 2 pi hbar2")
        return plan


def wigner4(psi: ComplexField, params) -> RealField:
    """Double transform of a rank-2 wave function to (x, v, vdot, vddot).

    psi is a ComplexField on power-of-two ('x', 'v') axes, and params has
    hbar2 and m. W shares psi's x/v axes; its vdot/vddot axes come from the
    transform plan. Raises NumericError if the prefactor leaves the float
    range at this hbar2, or if the imaginary residue dropped reaches 1e-10 of
    W's peak (a W of zeros has none).
    """
    return _transform(psi, params, ("x", "v"))


def wigner3(psi: ComplexField, params) -> RealField:
    """Single transform over the v-shift, to (x, v, vdot)."""
    return _transform(psi, params, ("v",))


def wigner24(psi: ComplexField, params) -> RealField:
    """Single transform over the x-shift, to (x, v, vddot)."""
    return _transform(psi, params, ("x",))


def _transform(psi: ComplexField, params, shifts) -> RealField:
    """The transform over `shifts`, assembled into one field."""
    axes, tiles = transform_rows(psi, params, shifts)
    return RealField._trusted(axes, _assemble(tuple(a.n for a in axes), tiles))


def transform_rows(psi: ComplexField, params, shifts):
    """The transform over `shifts` ("x", "v" or both): W's axes, and a generator of W's tiles in order.

    psi and params are as for wigner4, which is this transform over ("x",
    "v") assembled; wigner3 takes ("v",) and wigner24 ("x",). A shift left out
    is the single shift 0, so its dual axis has length 1 and is dropped from
    the axes and the blocks. The generator yields (index, block) for each of
    the fields._grid_tiles of W's shape, computed on the slab pool, so W is
    never held whole: index is the tile's (x-rows, v-rows) pair of slices, and
    block holds W[index]. In order, the tiles are consecutive byte ranges of W
    (fieldfile.write_rows streams them to a file). A block is valid only
    until the next one is asked for: its buffer is then reused, so copy a
    block to keep it. After the last block the generator raises what wigner4
    raises, or returns max |W|, taken from the blocks' minima and maxima.
    The residue checked is the imaginary part of each kernel's k = 0 column
    after the fft along l, which irfft reads as real (the Nyquist one is 0).

    The (axes, tiles) pair is a stream that the moment passes read as it
    comes, with no W held, on the calling thread as they read a field's own
    tiles: fields.integrate_axis, and vlasov's mean_flux_from_w4,
    accel_flux_124_from_w4, chain_residual and chain_residual_slabs, give
    from it the same bits as from the assembled W, and raise what the
    generator raises.
    """
    plan = TransformPlan.for_psi(psi, params)
    ax, av = psi.axes
    nx, nv = ax.n, av.n
    nq, nr = (nx if "x" in shifts else 1), (nv if "v" in shifts else 1)
    axes = (ax, av) + ((plan.vdot,) if nr > 1 else ()) + ((plan.vddot,) if nq > 1 else ())
    shifted = [a for a in psi.axes if a.name in shifts]
    try:
        pref = math.prod(2.0 * a.step for a in shifted) / (2.0 * math.pi * plan.hbar2) ** len(shifted)
    except (OverflowError, ZeroDivisionError):  # (2 pi hbar2)^2 overflows, or underflows to 0
        pref = math.nan
    if not 0.0 < pref < math.inf:
        raise NumericError(f"transform prefactor out of range at hbar2 = {plan.hbar2:g}")
    # the shifted factors, read in place: win[x, j, t] = psi[x, j + t - nv/2] (zero off the grid) and rev[y, j, t]
    # = conj(psi[nx-1-y, j + t - nv/2]); shift l is window column t = nv/2 + l of win and nv/2 - l of rev. `runs`
    # holds (kernel columns, win columns, rev columns) for the shifts in FFT order (ifftshift folded in): l = r
    # for r < nr/2, and r - nr above (l = 0 alone if v is not shifted)
    padded = np.pad(psi.data, ((0, 0), (nv // 2, nv // 2)))
    win = np.lib.stride_tricks.sliding_window_view(padded, nv + 1, axis=1)
    rev = np.lib.stride_tricks.sliding_window_view(np.conj(padded), nv + 1, axis=1)[::-1]
    h, up, down = nv // 2, nr - nr // 2, nr // 2
    runs = [(slice(0, up), slice(h, h + up), slice(h, h - up, -1))]
    if down:
        runs.append((slice(up, nr), slice(h - down, h), slice(h + down, h, -1)))
    shape = tuple(a.n for a in axes)
    tiles = _grid_tiles(shape)
    # free lists that grow on demand: a task takes a kernel for its v-rows and gives it back, and the caller gives
    # back each tile's buffer when it asks for the next. The first tile is the largest
    x_rows, v_rows = tiles[0][1] - tiles[0][0], tiles[0][3] - tiles[0][2]
    half = nq // 2 + 1
    kernels, buffers = [], []

    def take(free, size, dtype):  # a free buffer, or a new one if every buffer is in use
        try:
            return free.pop()
        except IndexError:
            return np.empty(size, dtype=dtype)

    def task(lo, hi, v0, v1):
        """Fill a free buffer with W's tile; return it with its index, max |imaginary residue|, min and max."""
        flat = take(kernels, v_rows * nr * half, np.complex128)
        ker = flat[: (v1 - v0) * nr * half].reshape(v1 - v0, nr, half)
        size = (hi - lo, v1 - v0, nr, nq)
        block = take(buffers, x_rows * v_rows * nr * nq, np.float64)[: math.prod(size)].reshape(size)
        max_imag = 0.0
        for i in range(lo, hi):
            # ker[j', r, q] = conj(psi[i-q, v0+j'-l]) psi[i+q, v0+j'+l] for the shifts k = q >= 0 that keep rows i +- k
            # on the grid (q <= m, rows i + q of psi and y + q of rev); every other column, the Nyquist one too, is
            # zero. The shifts k < 0 are the conjugates of these, which irfft supplies
            m, y = (min(i, nx - 1 - i) if nq > 1 else 0), nx - 1 - i
            for rs, plus, minus in runs:
                np.multiply(rev[y : y + m + 1, v0:v1, minus].transpose(1, 2, 0),
                            win[i : i + m + 1, v0:v1, plus].transpose(1, 2, 0), out=ker[:, rs, : m + 1])
            ker[..., m + 1 :] = 0.0
            # fftshift of both dual axes, folded in as the exact sign (-1)^(r + q)
            for odd in (ker[:, 1::2, : m + 1 : 2], ker[:, ::2, 1 : m + 1 : 2]):
                np.negative(odd, out=odd)
            # each v-row's FFT lines are its own, so any run of v-rows gives the same bits
            np.fft.fft(ker, axis=1, out=ker)
            # irfft reads column q = 0 as real: its imaginary part is the residue dropped (max_abs, spelled out: a
            # slab task calls no public function)
            max_imag = max(max_imag, float(ker[..., 0].imag.max()), -float(ker[..., 0].imag.min()))
            np.fft.irfft(ker, n=nq, norm="forward", out=block[i - lo])
        kernels.append(flat)
        block *= pref
        return (slice(lo, hi), slice(v0, v1)), block, max_imag, float(block.min()), float(block.max())

    def blocks():
        max_imag, peak, finite = 0.0, 0.0, True
        for index, block, imag, low, high in _map_slabs(task, tiles):
            max_imag = max(max_imag, imag)
            peak = max(peak, high, -low)
            finite = finite and math.isfinite(low) and math.isfinite(high)
            yield index, block.reshape(block.shape[:2] + shape[2:])
            buffers.append(block.base)
        # finite tile minima and maxima mean finite tiles, so W needs no second scan
        if not finite:
            raise ValidationError("field data contains non-finite values")
        # refused at the limit too, so a limit of 0 fires where the residue is exactly 0: wigner24's k = 0 column is
        # |psi|^2, whose imaginary part is 0 unless NumPy fuses the complex product's multiply-add
        if peak and max_imag * pref >= IMAG_RESIDUE_LIMIT * peak:
            raise NumericError(
                f"imaginary residue {max_imag * pref:.3e} reaches {IMAG_RESIDUE_LIMIT:.1e} x peak {peak:.3e}"
            )
        return peak

    return axes, blocks()


def wigner4_marginal_to_3(w4: RealField, params) -> RealField:
    """m-weighted vddot marginal; coincides with wigner3 of the same wave function."""
    return integrate_axis(w4, "vddot", weight=params.m)


def wigner4_marginal_to_24(w4: RealField, params) -> RealField:
    """m-weighted vdot marginal; coincides with wigner24 of the same wave function."""
    return integrate_axis(w4, "vdot", weight=params.m)


def marginal_to_2(field: RealField, params) -> RealField:
    """Integrate out every kinematic axis beyond (x, v); lands on |psi|^2."""
    names = {a.name for a in field.axes}
    if not {"x", "v"} <= names:
        raise ValidationError("marginal needs x and v axes present")
    out = field
    for name in ("vdot", "vddot"):
        if name in names:
            out = integrate_axis(out, name, weight=params.m)
    return out
