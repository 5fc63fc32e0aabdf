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

All three run one row kernel by FFT; each output point is an independent
finite sum, so results are deterministic and the imaginary residue of the
Hermitian kernel is checked (<= 1e-10 of peak) before being dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    AxisGrid,
    ComplexField,
    NumericError,
    RealField,
    ValidationError,
    _map_slabs,
    _max_abs,
    _row_slabs,
    _workers,
    integrate_axis,
)

__all__ = [
    "TransformPlan",
    "wigner4",
    "wigner3",
    "wigner24",
    "wigner4_marginal_to_3",
    "wigner4_marginal_to_24",
    "marginal_to_2",
]

IMAG_RESIDUE_LIMIT = 1e-10

# about the bytes of each worker's kernel buffer: a row's kernel is transformed in chunks of v-rows this big
_KERNEL_BYTES = 1 << 19


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


def _swapped_halves(n: int):
    # fftshift of an axis of even length, or of length 1, as (source, destination) pairs
    h = n // 2
    return (slice(h, None), slice(None, n - h)), (slice(None, h), slice(n - h, None))


def wigner4(psi: ComplexField, params) -> RealField:
    """Double transform of a rank-2 wave function to (x, v, vdot, vddot).

    psi is a ComplexField on power-of-two ('x', 'v') axes, and params has
    hbar2 and m. W shares psi's x/v axes; its vdot/vddot axes come from the
    transform plan. Raises NumericError if the prefactor leaves the float
    range at this hbar2, or if the imaginary residue exceeds 1e-10 of W's peak.
    """
    return _assemble(*_transform_rows(psi, params, ("x", "v")))


def wigner3(psi: ComplexField, params) -> RealField:
    """Single transform over the v-shift, to (x, v, vdot)."""
    return _assemble(*_transform_rows(psi, params, ("v",)))


def wigner24(psi: ComplexField, params) -> RealField:
    """Single transform over the x-shift, to (x, v, vddot)."""
    return _assemble(*_transform_rows(psi, params, ("x",)))


def _assemble(axes, rows) -> RealField:
    out = np.empty(tuple(a.n for a in axes))
    lo = 0
    for block in rows:
        out[lo : lo + len(block)] = block
        lo += len(block)
    return RealField._trusted(axes, out)


def _transform_rows(psi: ComplexField, params, shifts):
    """The transform over `shifts` ("x", "v" or both): W's axes, and a generator of W's x-rows in order.

    A shift left out is the single shift 0, so its dual axis has length 1 and
    is dropped from the axes and the blocks. The rows come in blocks computed
    on the slab pool. A block is valid until the next one is asked for: the
    workers' buffers are reused. After the last block the generator raises
    what wigner4 raises, or returns max |W|, taken from the blocks' minima and
    maxima.
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
    # column windows, gathered once: minus[j, r, x] = conj(psi[x, j-l]), plus[j, r, x] = psi[x, j+l], with shift
    # l = r for r < nv/2 and r - nv above (ifftshift folded in; l = 0 alone if v is not shifted), zero off the grid
    padded = np.pad(psi.data, ((0, 0), (nv // 2, nv // 2)))
    col, centered = np.arange(nv)[:, None], (np.arange(nr) + nv // 2) % nv
    minus = np.ascontiguousarray(np.moveaxis(np.conj(padded[:, col + nv - centered]), 0, 2))
    plus = np.ascontiguousarray(np.moveaxis(padded[:, col + centered], 0, 2))
    # one kernel buffer per task in flight, for a chunk of about _KERNEL_BYTES of v-rows at a time (at
    # least one, at most all); both FFTs overwrite it in place, and each v-row's FFT lines are its own
    chunk = min(nv, max(1, _KERNEL_BYTES // (16 * nr * nq)))
    kernels = [np.empty((chunk, nr, nq), dtype=np.complex128) for _ in range(_workers())]
    # one block buffer per task in flight, the caller's block counting as one
    ranges = _row_slabs(nx, nv * nr * nq * 8)
    height = ranges[0][1] - ranges[0][0]
    buffers = [np.empty((height, nv, nr, nq)) for _ in range(min(_workers(), len(ranges)))]

    def rows(lo, hi):
        """Fill a free buffer with rows [lo, hi); return them with their max |imaginary residue|, min and max."""
        ker, block = kernels.pop(), buffers.pop()[: hi - lo]
        max_imag = 0.0
        for i in range(lo, hi):
            m = min(i, nx - 1 - i) if nq > 1 else 0
            for j in range(0, nv, chunk):
                # part[j', r, q] = minus[j+j', r, i-k] plus[j+j', r, i+k] with k = q for q < nq/2 and q - nq
                # above; rows i +- k stay on the grid for |k| <= m, every other slot (the Nyquist one too) is zero
                mi, pl, part = minus[j : j + chunk], plus[j : j + chunk], ker[: min(chunk, nv - j)]
                np.multiply(mi[..., i::-1][..., : m + 1], pl[..., i : i + m + 1], out=part[..., : m + 1])
                part[..., m + 1 : nq - m] = 0.0
                if m:
                    np.multiply(mi[..., i + m : i : -1], pl[..., i - m : i], out=part[..., nq - m :])
                np.fft.ifft(part, axis=2, norm="forward", out=part)
                np.fft.fft(part, axis=1, out=part)
                max_imag = max(max_imag, _max_abs(part.imag))
                # part is (v, vdot, vddot), the last two in FFT order; fftshift is a swap of quadrants
                re = part.real
                for src_r, dst_r in _swapped_halves(nr):
                    for src_q, dst_q in _swapped_halves(nq):
                        np.multiply(pref, re[:, src_r, src_q], out=block[i - lo, j : j + chunk][:, dst_r, dst_q])
        kernels.append(ker)
        return block, max_imag, float(block.min()), float(block.max())

    def blocks():
        max_imag, peak, finite = 0.0, 0.0, True
        for block, imag, low, high in _map_slabs(rows, ranges):
            max_imag = max(max_imag, imag)
            peak = max(peak, high, -low)
            finite = finite and math.isfinite(low) and math.isfinite(high)
            yield block.reshape(len(block), *(a.n for a in axes[1:]))
            buffers.append(block.base)
        # finite row minima and maxima mean finite rows, so W needs no second scan
        if not finite:
            raise ValidationError("field data contains non-finite values")
        if max_imag * pref > IMAG_RESIDUE_LIMIT * peak:
            raise NumericError(
                f"imaginary residue {max_imag * pref:.3e} exceeds {IMAG_RESIDUE_LIMIT:.1e} x peak {peak:.3e}"
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
