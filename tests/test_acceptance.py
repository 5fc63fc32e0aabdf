"""Acceptance battery: ten go/no-go criteria with pinned tolerances.

Criteria 1-7 are the oscillator verification suite (one criterion per check).
Criterion 8 covers the mode-space density-matrix identity, 9 the agreement of
every truncated series evaluator with an independent brute-force enumeration,
and 10 the persistence layer plus the packaged `check` entry point. Each
criterion prints one PASS/FAIL line on the real stdout so the battery's
verdict survives pytest's capture.
"""

import subprocess
import sys
import time

import numpy as np
import pytest
import sympy as sp

from phasechain import (
    ModeSet,
    PhysParams,
    PolynomialPotential,
    RealField,
    StencilScheme,
    density_matrix_at,
    make_axis,
    moyal_rhs,
    psi12,
    read_field,
    rho_time_derivative,
    sample_complex,
    vlasov_moyal_accel_flux,
    vlasov_moyal_velocity_flux,
    von_neumann_residual,
    write_field,
)
from phasechain.checks import run_ho_suite

import oracles
from conftest import child_env

CRITERIA = 10


@pytest.fixture
def announce(capfd):
    # capture is suspended for the verdict line so it lands on the real
    # stdout even in quiet pytest runs
    def emit(index: int, name: str, ok: bool, detail: str):
        flag = "PASS" if ok else "FAIL"
        with capfd.disabled():
            sys.stdout.write(f"ACCEPTANCE {index:>2}/{CRITERIA} {name:<26} {flag}  {detail}\n")
            sys.stdout.flush()

    return emit


def rel_gap(a, b):
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    assert scale > 0.0
    return float(np.abs(a - b).max()) / scale


@pytest.fixture(scope="module")
def suite():
    return run_ho_suite()


@pytest.mark.parametrize("index", range(1, 8))
def test_criteria_1_to_7(suite, announce, index):
    result = suite.results[index - 1]
    announce(index, result.name, result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_8_von_neumann(announce):
    rng = np.random.default_rng(88)
    worst_comm = worst_fd = worst_herm = worst_rank1 = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        modes = ModeSet(
            rng.normal(size=n) + 1j * rng.normal(size=n) * 0.5,
            rng.normal(size=n) + 1j * rng.normal(size=n),
            hbar2=float(rng.uniform(0.5, 2.0)),
        )
        t = float(rng.uniform(-1.0, 1.0))
        chk = von_neumann_residual(modes, t, dt=1e-4)
        worst_comm = max(worst_comm, chk.commutator)
        worst_fd = max(worst_fd, chk.finite_difference_rel)
        rho = density_matrix_at(modes, t)
        worst_herm = max(worst_herm, float(np.abs(rho - rho.conj().T).max()))
        worst_rank1 = max(
            worst_rank1, float(np.abs(rho @ rho - np.trace(rho) * rho).max())
        )
        assert rho_time_derivative(modes, t).shape == (n, n)
    ok = worst_comm <= 1e-12 and worst_fd <= 1e-6 and worst_herm <= 1e-12 and worst_rank1 <= 1e-12
    announce(
        8, "mode density matrices", ok,
        f"commutator {worst_comm:.2e}, fd rel {worst_fd:.2e}, "
        f"hermitian {worst_herm:.2e}, rank-1 {worst_rank1:.2e} over 100 mode sets",
    )
    assert ok


def test_criterion_9_series_vs_oracles(announce):
    m, hbar2 = 1.3, 0.7
    params = PhysParams(m=m, hbar=1.1, omega=0.9, hbar2=hbar2)
    scheme = StencilScheme(order=4, h=0.05)
    X, V, VDOT, VDDOT = oracles.X, oracles.V, oracles.VDOT, oracles.VDDOT
    rng = np.random.default_rng(99)
    pts4 = tuple(rng.uniform(-2.0, 2.0, size=500) for _ in range(4))
    pts3, pts2 = pts4[:3], pts4[:2]

    u_mixed_terms = ((2, 0, 0.9), (4, 0, 0.3), (2, 2, 0.4), (1, 3, 0.05))
    u_x_terms = ((2, 0, 0.9), (4, 0, 0.25), (6, 0, 0.02))
    u_mixed_expr = oracles.potential_expr(u_mixed_terms)
    u_x_expr = oracles.potential_expr(u_x_terms)
    u_mixed = PolynomialPotential(u_mixed_terms)
    u_x = PolynomialPotential(u_x_terms)

    w_expr = (1 + sp.Rational(1, 10) * X * VDOT) * sp.exp(
        -(X**2) / 2 - V**2 / 2 - VDOT**2 / 2 - VDDOT**2 / 2
        + sp.Rational(1, 5) * V * VDDOT
    )
    f3_expr = sp.exp(-(X**2) / 2 - V**2 / 2 - VDDOT**2 / 4)
    f2_expr = sp.exp(-(X**2) / 2 - V**2 / 4)
    wf = oracles.pointwise_from_expr(w_expr, oracles.RANK4)
    f3 = oracles.pointwise_from_expr(f3_expr, (X, V, VDDOT))
    f2 = oracles.pointwise_from_expr(f2_expr, (X, V))

    gaps = {}
    got = moyal_rhs(wf, u_mixed, params, scheme, points=pts4)
    gaps["velocity"] = rel_gap(
        got, oracles.moyal_series_velocity(u_mixed_expr, w_expr, m, hbar2)(*pts4))
    gaps["momentum"] = rel_gap(
        got, oracles.moyal_series_momentum(u_mixed_expr, w_expr, m, hbar2)(*pts4))
    got = moyal_rhs(wf, u_x, params, scheme, points=pts4)
    gaps["position-only"] = rel_gap(
        got, oracles.moyal_series_xonly(u_x_expr, w_expr, m, hbar2)(*pts4))
    got = vlasov_moyal_accel_flux(f3, u_x, params, scheme, points=pts3)
    gaps["accel closure"] = rel_gap(
        got, oracles.accel_closure_series(u_x_expr, f3_expr, (X, V, VDDOT), m, hbar2)(*pts3))
    got = vlasov_moyal_velocity_flux(f2, u_x, params, scheme, points=pts2)
    gaps["velocity closure"] = rel_gap(
        got, oracles.velocity_closure_series(u_x_expr, f2_expr, m, hbar2)(*pts2))

    ok = max(gaps.values()) <= 1e-12
    announce(9, "series vs oracles", ok,
             ", ".join(f"{k} {v:.2e}" for k, v in gaps.items()))
    assert ok, gaps


def test_criterion_10_persistence_and_entry_point(tmp_path, announce):
    p = PhysParams()
    axes = (make_axis("x", -8.0, 8.0, 64), make_axis("v", -8.0, 8.0, 64))
    psi = sample_complex(lambda x, v: psi12(x, v, 0.0, p), axes)
    write_field(psi, tmp_path / "psi.fld")
    psi_ok = read_field(tmp_path / "psi.fld").data.tobytes() == psi.data.tobytes()
    rng = np.random.default_rng(1010)
    w = RealField(
        tuple(make_axis(n, -6.0, 6.0, 8) for n in ("x", "v", "vdot", "vddot")),
        rng.standard_normal((8, 8, 8, 8)),
    )
    write_field(w, tmp_path / "w.fld")
    w_ok = read_field(tmp_path / "w.fld").data.tobytes() == w.data.tobytes()

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "phasechain.cli", "check", "--suite", "ho"],
        capture_output=True, text=True, timeout=300, env=child_env(),
    )
    elapsed = time.perf_counter() - t0
    cli_ok = (proc.returncode == 0 and "all checks passed: 7/7" in proc.stdout
              and elapsed <= 300.0)
    ok = psi_ok and w_ok and cli_ok
    announce(
        10, "persistence + entry point", ok,
        f"round trips bit-exact {psi_ok and w_ok}, check exit {proc.returncode} in {elapsed:.1f} s",
    )
    assert psi_ok and w_ok
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed: 7/7" in proc.stdout
    assert elapsed <= 300.0
