"""Shifted-autocorrelation transforms from rank-2 wave functions to joint fields.

The rank-4 field is the double transform

    W(x, v, vdot, vddot) = (2 dx)(2 dv) / (2 pi hbar2)^2
        * sum_{k,l} conj(psi[i-k, j-l]) psi[i+k, j+l]
        * exp[ i (s1 pddot - s2 pdot) / hbar2 ],

with half-shift sampling s1 = 2 k dx, s2 = 2 l dv (the shifted indices stay on
the grid, no interpolation) and zero extension outside the domain. The dual
axes are fixed by DFT conjugacy: pddot spacing pi hbar2 / (n dx) against s1,
pdot spacing pi hbar2 / (n dv) against s2, both centered on zero, relabelled
vddot = pddot / m and vdot = pdot / m. Single transforms over one shift give
the rank-3 members with prefactor 2 d / (2 pi hbar2).

Everything is evaluated by FFT; each output point is an independent finite
sum, so results are deterministic and the imaginary residue of the Hermitian
kernel is checked (<= 1e-10 of peak) before being dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Array,
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

# about the bytes of each worker's kernel buffer: wigner4 transforms a row's kernel in chunks of v-rows this big
_KERNEL_BYTES = 1 << 19


def _is_pow2(n: int) -> bool:
    return n >= 4 and (n & (n - 1)) == 0


def _require_psi(psi: ComplexField):
    names = tuple(a.name for a in psi.axes)
    if names != ("x", "v"):
        raise ValidationError(f"wave function needs axes ('x', 'v'), got {names}")
    for a in psi.axes:
        if not _is_pow2(a.n):
            raise ValidationError(f"axis {a.name!r}: transform needs power-of-two length, got {a.n}")


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
        _require_psi(psi)
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


def _window_columns(n: int):
    # colp[j, l'] = j + l', colm[j, l'] = j + n - l' for centered shift index l'
    j = np.arange(n)[:, None]
    lp = np.arange(n)[None, :]
    return j + n - lp, j + lp


def _swapped_halves(n: int):
    # fftshift of an even axis as (source, destination) halves
    h = n // 2
    return (slice(h, None), slice(None, h)), (slice(None, h), slice(h, None))


def wigner4(psi: ComplexField, params) -> RealField:
    """Double transform of a rank-2 wave function to (x, v, vdot, vddot).

    Parameters
    ----------
    psi : ComplexField on ('x', 'v'), power-of-two axes.
    params : object with hbar2 and m.

    Returns
    -------
    RealField on the canonical rank-4 axes; the x/v axes are shared with psi,
    the vdot/vddot axes come from the transform plan.

    Raises
    ------
    NumericError if the imaginary residue exceeds 1e-10 of the output peak.
    """
    axes, rows = _wigner4_rows(psi, params)
    out = np.empty(tuple(a.n for a in axes))
    lo = 0
    for block in rows:
        out[lo : lo + len(block)] = block
        lo += len(block)
    return RealField._trusted(axes, out)


def _wigner4_rows(psi: ComplexField, params):
    """W's axes, and a generator of W's x-rows in order, in blocks computed on the slab pool.

    A block is valid until the next one is asked for: the workers' buffers are
    reused. After the last block the generator raises what wigner4 raises, or
    returns max |W|, taken from the blocks' minima and maxima.
    """
    plan = TransformPlan.for_psi(psi, params)
    ax, av = psi.axes
    nx, nv = ax.n, av.n
    pref = (2.0 * ax.step) * (2.0 * av.step) / (2.0 * math.pi * plan.hbar2) ** 2
    # column windows, gathered once: minus[j, r, x] = conj(psi[x, j-l]), plus[j, r, x] = psi[x, j+l],
    # with shift l = r for r < nv/2 and r - nv above (ifftshift folded in), zero off the grid
    padded = np.pad(psi.data, ((0, 0), (nv // 2, nv // 2)))
    cols = (np.arange(nv) + nv // 2) % nv
    colm, colp = (c[:, cols] for c in _window_columns(nv))
    minus = np.ascontiguousarray(np.moveaxis(np.conj(padded[:, colm]), 0, 2))
    plus = np.ascontiguousarray(np.moveaxis(padded[:, colp], 0, 2))
    # one kernel buffer per task in flight, for a chunk of about _KERNEL_BYTES of v-rows at a time (at
    # least one, at most all); both FFTs overwrite it in place, and each v-row's FFT lines are its own
    chunk = min(nv, max(1, _KERNEL_BYTES // (16 * nv * nx)))
    kernels = [np.empty((chunk, nv, nx), dtype=np.complex128) for _ in range(_workers())]
    # one block buffer per task in flight, the caller's block counting as one
    ranges = _row_slabs(nx, nv * nv * nx * 8)
    height = ranges[0][1] - ranges[0][0]
    buffers = [np.empty((height, nv, nv, nx)) for _ in range(min(_workers(), len(ranges)))]

    def rows(lo, hi):
        """Fill a free buffer with rows [lo, hi); return them with their max |imaginary residue|, min and max."""
        ker, block = kernels.pop(), buffers.pop()[: hi - lo]
        max_imag = 0.0
        for i in range(lo, hi):
            m = min(i, nx - 1 - i)
            for j in range(0, nv, chunk):
                # part[j', r, q] = minus[j+j', r, i-k] plus[j+j', r, i+k] with k = q for q < nx/2 and q - nx
                # above; rows i +- k stay on the grid for |k| <= m, every other slot (the Nyquist one too) is zero
                mi, pl, part = minus[j : j + chunk], plus[j : j + chunk], ker[: min(chunk, nv - j)]
                np.multiply(mi[..., i::-1][..., : m + 1], pl[..., i : i + m + 1], out=part[..., : m + 1])
                part[..., m + 1 : nx - m] = 0.0
                if m:
                    np.multiply(mi[..., i + m : i : -1], pl[..., i - m : i], out=part[..., nx - m :])
                np.fft.ifft(part, axis=2, norm="forward", out=part)
                np.fft.fft(part, axis=1, out=part)
                max_imag = max(max_imag, _max_abs(part.imag))
                # part is (v, vdot, vddot), the last two in FFT order; fftshift is a swap of quadrants
                re = part.real
                for src_r, dst_r in _swapped_halves(nv):
                    for src_q, dst_q in _swapped_halves(nx):
                        np.multiply(pref, re[:, src_r, src_q], out=block[i - lo, j : j + chunk][:, dst_r, dst_q])
        kernels.append(ker)
        return block, max_imag, float(block.min()), float(block.max())

    def blocks():
        max_imag, peak, finite = 0.0, 0.0, True
        for block, imag, low, high in _map_slabs(rows, ranges):
            max_imag = max(max_imag, imag)
            peak = max(peak, high, -low)
            finite = finite and math.isfinite(low) and math.isfinite(high)
            yield block
            buffers.append(block.base)
        # finite row minima and maxima mean finite rows, so W needs no second scan
        if not finite:
            raise ValidationError("field data contains non-finite values")
        if max_imag * pref > IMAG_RESIDUE_LIMIT * peak:
            raise NumericError(
                f"imaginary residue {max_imag * pref:.3e} exceeds {IMAG_RESIDUE_LIMIT:.1e} x peak {peak:.3e}"
            )
        return peak

    return (ax, av, plan.vdot, plan.vddot), blocks()


def wigner3(psi: ComplexField, params) -> RealField:
    """Single transform over the v-shift, to (x, v, vdot)."""
    return _single_transform(psi, params, 1)


def wigner24(psi: ComplexField, params) -> RealField:
    """Single transform over the x-shift, to (x, v, vddot)."""
    return _single_transform(psi, params, 0)


def _single_transform(psi: ComplexField, params, axis: int) -> RealField:
    """Single transform over the shift of psi's axis 1 (v, by fft, to vdot) or 0 (x, by n ifft, to vddot)."""
    plan = TransformPlan.for_psi(psi, params)
    shifted, dual = psi.axes[axis], (plan.vddot, plan.vdot)[axis]
    n = shifted.n
    pref = 2.0 * shifted.step / (2.0 * math.pi * plan.hbar2)
    # the shifted axis last: ker[other, j, l'] = conj(psi[j - l']) psi[j + l'] along it, for centered shift l'
    padded = np.pad(np.moveaxis(psi.data, axis, 1), ((0, 0), (n // 2, n // 2)))
    colm, colp = _window_columns(n)
    ker = np.fft.ifftshift(np.conj(padded[:, colm]) * padded[:, colp], axes=2)
    spec = np.fft.fft(ker, axis=2) if axis else np.fft.ifft(ker, axis=2) * n
    spec = np.moveaxis(np.fft.fftshift(spec, axes=2), 1, axis)  # (x, v, dual)
    return _realize(spec * pref, (*psi.axes, dual), dual.name)


def _realize(spec: Array, axes, dual_name: str) -> RealField:
    peak = float(np.abs(spec.real).max())
    residue = float(np.abs(spec.imag).max())
    if residue > IMAG_RESIDUE_LIMIT * peak:
        raise NumericError(
            f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_LIMIT:.1e} x peak {peak:.3e} "
            f"({dual_name} transform)"
        )
    return RealField(axes, np.ascontiguousarray(spec.real))


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
