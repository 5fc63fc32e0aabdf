"""Mode-space density matrices and their exact evolution identity."""

import re

import numpy as np
import pytest

from phasechain import (
    ModeSet,
    NumericError,
    ValidationError,
    density_matrix_at,
    rho_time_derivative,
    von_neumann_residual,
)
from phasechain.vonneumann import coefficients_at


def test_mode_set_validation():
    with pytest.raises(ValidationError):
        ModeSet(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        ModeSet(np.array([]), np.array([]))
    with pytest.raises(ValidationError):
        ModeSet(np.array([1.0]), np.array([np.inf]))
    with pytest.raises(ValidationError):
        ModeSet(np.array([1.0]), np.array([1.0]), hbar2=0.0)
    m = ModeSet(np.array([1.0 + 2.0j]), np.array([0.5]))
    assert m.n_modes == 1
    with pytest.raises(ValueError):
        m.energies[0] = 0.0


def test_a_subnormal_hbar2_is_refused():
    # 1 / 1e-320 overflows: NumPy's complex division by such an hbar2 overflowed at every t, 0 included
    with pytest.raises(ValidationError, match=re.escape("finite 1/hbar2, got 1e-320")):
        ModeSet([1.0, 2.0], [0.6, 0.8], hbar2=1e-320)


@pytest.mark.parametrize("energies, hbar2, t, what", [
    ([1.0, 2.0], 1e-300, 1e10, "C_n(t)"),  # E t / hbar2 overflows
    ([800j, 2.0], 1.0, 1.0, "C_n(t)"),  # exp(Im E t / hbar2) overflows
    ([400j, 2.0], 1.0, 1.0, "rho(t)"),  # C_n fits, |C_n|^2 does not
])
def test_an_evolution_out_of_range_is_a_numeric_error(energies, hbar2, t, what):
    with pytest.raises(NumericError, match=re.escape(f"{what} leaves the float range at t = {t:g}, hbar2 = {hbar2:g}")):
        density_matrix_at(ModeSet(energies, [0.6, 0.8], hbar2=hbar2), t)


def test_a_derivative_out_of_range_is_a_numeric_error():
    # rho(0) fits; conj(E_n) - E_k = 3e308 does not
    with pytest.raises(NumericError, match=re.escape("d0 rho(t) leaves the float range at t = 0, hbar2 = 1")):
        rho_time_derivative(ModeSet([1.5e308, -1.5e308], [0.6, 0.8]), 0.0)


def test_a_phase_with_no_significant_bits_is_a_numeric_error():
    # every value stays finite, but at t = +-dt the phase E t = 1e296 has no digit below 2^52; the centered
    # difference used to compare garbage phases with d0 rho and report a residual of 9.6e299
    modes = ModeSet([1e300, -1e300], [0.6, 0.8])
    with pytest.raises(NumericError, match=re.escape("the von Neumann residual has no phase left at t = 0, hbar2 = 1")):
        von_neumann_residual(modes, 0.0)
    with pytest.raises(NumericError, match=re.escape("reaches 2^52")):
        von_neumann_residual(ModeSet([2.0**52, 1.0], [0.6, 0.8]), 0.5, dt=0.5)
    assert von_neumann_residual(ModeSet([2.0**51, 1.0], [0.6, 0.8]), 0.5, dt=0.25).commutator >= 0.0
    # rho itself keeps its exact moduli there
    rho = density_matrix_at(modes, 1.0)
    assert np.allclose(np.abs(rho), [[0.36, 0.48], [0.48, 0.64]], rtol=1e-15, atol=0.0)


def test_a_residual_out_of_range_is_a_numeric_error():
    # rho = 1e300 and a zero derivative fit, rho H = 1e310 does not (the commutator was NaN)
    with pytest.raises(NumericError, match=re.escape("the von Neumann residual leaves the float range at t = 0")):
        von_neumann_residual(ModeSet([1e10, 1e10], [1e150, 1e150]), 0.0)


def test_mode_text_round_trip():
    m = ModeSet(np.array([1.0, 2.0 + 0.5j]), np.array([1.0 + 1.0j, -0.25]), hbar2=0.7)
    again = ModeSet.from_text(m.to_text(), hbar2=0.7)
    assert np.array_equal(again.energies, m.energies)
    assert np.array_equal(again.coeffs, m.coeffs)
    parsed = ModeSet.from_text(
        """
        # E_re E_im c_re c_im
        1.0 0.0 1.0 0.0
        2.0 0.5 0.0 -1.0
        """
    )
    assert parsed.n_modes == 2
    assert parsed.energies[1] == 2.0 + 0.5j
    with pytest.raises(ValidationError):
        ModeSet.from_text("1.0 0.0 1.0\n")
    with pytest.raises(ValidationError):
        ModeSet.from_text("# only a comment\n")


@pytest.mark.parametrize("text, message", [
    ("1 0 1 0 5  # five\n", "mode line 1: expected 4 numbers, got '1 0 1 0 5  # five'"),
    ("1 0 1 0\n\n1 0 one 0\n", "mode line 3: could not convert string to float: 'one'"),
    ("# E_re E_im c_re c_im\n\n", "mode file contains no modes"),
])
def test_mode_text_errors_name_their_line(text, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ModeSet.from_text(text)


def test_frozen_two_mode_values():
    # real energies (1, 2), unit coefficients: at t = pi/2 the off-diagonal
    # phase is exp(i pi/2) = i, diagonals stay at 1
    m = ModeSet(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    rho = density_matrix_at(m, np.pi / 2.0)
    assert rho[0, 0] == pytest.approx(1.0)
    assert rho[1, 1] == pytest.approx(1.0)
    assert rho[0, 1] == pytest.approx(1j, abs=1e-14)
    assert rho[1, 0] == pytest.approx(-1j, abs=1e-14)
    # a decaying upper mode with Im E = +0.5 feeds the off-diagonal derivative
    m2 = ModeSet(np.array([1.0, 2.0 + 0.5j]), np.array([1.0, 1.0]))
    d0 = rho_time_derivative(m2, 0.0)
    assert d0[0, 1] == pytest.approx(0.5 + 1.0j, abs=1e-14)
    assert d0[1, 0] == pytest.approx(0.5 - 1.0j, abs=1e-14)
    assert d0[0, 0] == 0.0
    assert d0[1, 1] == pytest.approx(1.0)  # growth rate 2 Im E / hbar2 times rho


def test_density_matrix_is_hermitian_rank_one():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = ModeSet(
            rng.normal(size=n) + 1j * rng.normal(size=n) * 0.3,
            rng.normal(size=n) + 1j * rng.normal(size=n),
            hbar2=float(rng.uniform(0.5, 2.0)),
        )
        t = float(rng.uniform(-2.0, 2.0))
        rho = density_matrix_at(m, t)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        # rank one: rho^2 = tr(rho) rho
        assert np.abs(rho @ rho - np.trace(rho) * rho).max() < 1e-12


def test_growth_rates_follow_imaginary_energies():
    m = ModeSet(np.array([1.0 + 0.25j]), np.array([1.0]), hbar2=2.0)
    t = 1.5
    c = coefficients_at(m, t)
    assert abs(c[0]) == pytest.approx(np.exp(0.25 * t / 2.0), rel=1e-14)
    rho = density_matrix_at(m, t)
    assert rho[0, 0].real == pytest.approx(np.exp(2 * 0.25 * t / 2.0), rel=1e-14)


def test_residual_identity_and_finite_difference():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = ModeSet(
            rng.normal(size=n) + 1j * rng.normal(size=n) * 0.5,
            rng.normal(size=n) + 1j * rng.normal(size=n),
        )
        chk = von_neumann_residual(m, float(rng.uniform(-1, 1)), dt=1e-4)
        assert chk.commutator < 1e-12
        assert chk.max_residual == chk.commutator
        assert chk.finite_difference_rel < 1e-6


def test_finite_difference_residual_scales_quadratically():
    m = ModeSet(np.array([1.0, 2.0 + 0.5j]), np.array([1.0, 0.5 - 0.5j]))
    wide = von_neumann_residual(m, 0.3, dt=1e-2).finite_difference
    tight = von_neumann_residual(m, 0.3, dt=1e-3).finite_difference
    assert wide / tight == pytest.approx(100.0, rel=0.05)
    with pytest.raises(ValidationError):
        von_neumann_residual(m, 0.0, dt=0.0)
