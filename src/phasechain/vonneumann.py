"""Mode-space density matrices under a diagonal, non-self-adjoint Hamiltonian.

Complex mode energies are first-class: growth and decay live in Im E. With
C_n(t) = c_n exp(-i E_n t / hbar2) the pure-state density matrix is
rho_kn = C_k conj(C_n) and its exact evolution is

    d0 rho = (i/hbar2) (rho Hbar - H rho),   H = diag(E_n),

which reduces entrywise to (i/hbar2)(conj(E_n) - E_k) rho_kn. No integrator
lives here; the module provides exact snapshots and residual checks.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .fields import Array, NumericError, ValidationError, _read_table

__all__ = list(_EXPORTS["vonneumann"])


@dataclass(frozen=True)
class ModeSet:
    """Complex energies and amplitudes of a finite mode expansion."""

    energies: Array
    coeffs: Array
    hbar2: float = 1.0

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.energies, dtype=np.complex128))
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if e.ndim != 1 or c.ndim != 1 or e.size == 0 or e.shape != c.shape:
            raise ValidationError(f"need matching 1-d energies and coeffs, got {e.shape} and {c.shape}")
        if not (np.all(np.isfinite(e.view(np.float64))) and np.all(np.isfinite(c.view(np.float64)))):
            raise ValidationError("mode energies and coeffs must be finite")
        # every evolution divides by hbar2: a subnormal one has no finite reciprocal
        if not (np.isfinite(self.hbar2) and self.hbar2 > 0 and 1.0 / float(self.hbar2) < math.inf):
            raise ValidationError(f"hbar2 must be positive with a finite 1/hbar2, got {self.hbar2}")
        e.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.energies.size

    @classmethod
    def from_text(cls, text: str, hbar2: float = 1.0) -> "ModeSet":
        """Parse lines '<Re E> <Im E> <Re c> <Im c>'; '#' comments and blanks skipped."""
        rows = _read_table(text, "mode", "4 numbers", (float,) * 4)
        if not rows:
            raise ValidationError("mode file contains no modes")
        return cls(np.array([complex(re, im) for re, im, _, _ in rows]),
                   np.array([complex(re, im) for _, _, re, im in rows]), hbar2)

    def to_text(self) -> str:
        lines = [
            f"{float(e.real)!r} {float(e.imag)!r} {float(c.real)!r} {float(c.imag)!r}"
            for e, c in zip(self.energies, self.coeffs)
        ]
        return "\n".join(lines) + "\n"


def coefficients_at(modes: ModeSet, t: float) -> Array:
    """C_n(t) = c_n exp(-i E_n t / hbar2); |C_n| grows for Im E_n > 0."""
    with _in_range(modes, t, "C_n(t)"):
        return modes.coeffs * np.exp(-1j * modes.energies * t / modes.hbar2)


def density_matrix_at(modes: ModeSet, t: float) -> Array:
    """Pure-state density matrix rho_kn = C_k conj(C_n) (Hermitian, rank one)."""
    c = coefficients_at(modes, t)
    with _in_range(modes, t, "rho(t)"):
        return np.outer(c, np.conj(c))


@contextlib.contextmanager
def _in_range(modes: ModeSet, t: float, what: str):
    """Raise NumericError naming t and hbar2 where the NumPy arithmetic inside overflows or turns invalid."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError:
            raise NumericError(f"{what} leaves the float range at t = {t:g}, hbar2 = {modes.hbar2:g}") from None


def rho_time_derivative(modes: ModeSet, t: float) -> Array:
    """Exact d0 rho, entrywise (i/hbar2)(conj(E_n) - E_k) rho_kn."""
    rho = density_matrix_at(modes, t)
    e = modes.energies
    with _in_range(modes, t, "d0 rho(t)"):
        return (1j / modes.hbar2) * (np.conj(e)[None, :] - e[:, None]) * rho


@dataclass(frozen=True)
class VonNeumannCheck:
    """Residual magnitudes of the evolution identity at one instant."""

    commutator: float        # max |(i/hbar2)(rho Hbar - H rho) - d0 rho|
    finite_difference: float  # max |centered FD of rho - d0 rho|
    finite_difference_rel: float

    @property
    def max_residual(self) -> float:
        return self.commutator


def von_neumann_residual(modes: ModeSet, t: float, dt: float = 1e-4) -> VonNeumannCheck:
    """Check d0 rho against the matrix commutator form and a centered difference.

    The commutator residual is pure rounding; the finite-difference residual
    scales as dt^2 and is also reported relative to the derivative's own peak.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be positive, got {dt}")
    # a phase |Re E_n t / hbar2| of 2^52 or more is a float whose last bit is worth a radian or more: rho(t +- dt)
    # is finite but carries no phase, and its centered difference measures nothing
    reach = float(np.abs(modes.energies.real).max()) * (abs(t) + dt) / modes.hbar2
    if reach >= 2.0**52:
        raise NumericError(f"the von Neumann residual has no phase left at t = {t:g}, hbar2 = {modes.hbar2:g}: "
                           f"|Re E_n t / hbar2| reaches 2^52")
    rho = density_matrix_at(modes, t)
    h = np.diag(modes.energies)
    exact = rho_time_derivative(modes, t)
    rho_plus, rho_minus = density_matrix_at(modes, t + dt), density_matrix_at(modes, t - dt)
    with _in_range(modes, t, "the von Neumann residual"):
        rhs = (1j / modes.hbar2) * (rho @ np.conj(h) - h @ rho)
        commutator = float(np.abs(rhs - exact).max())
        fd = (rho_plus - rho_minus) / (2.0 * dt)
        fd_abs = float(np.abs(fd - exact).max())
        scale = float(np.abs(exact).max())
    fd_rel = fd_abs / scale if scale > 0 else fd_abs
    return VonNeumannCheck(commutator, fd_abs, fd_rel)
