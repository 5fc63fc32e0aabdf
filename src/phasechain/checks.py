"""End-to-end verification battery against the closed-form oscillator solution.

Seven checks, run in order: transform fidelity, the marginal tower, the
pointwise evolution residual with stencil convergence, the exact transport
identity, mean-flux extraction, the divergence-vs-series closure equivalence,
and the chain continuity residuals with dissipation sources. Each check owns
its tolerances; the suite reports one line per check plus peak memory.
"""

from __future__ import annotations

import math
import random
import resource
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .fields import RealField, StencilScheme, make_axis, max_abs, sample_complex, sample_real
from .moyal import PolynomialPotential, moyal_residual
from .oscillator import (
    PhysParams,
    gamma_transport_residual,
    mean_flux_analytic,
    psi12,
    radiation_power,
    u12_polynomial,
    w12_analytic,
    w12_field,
    w123_field,
    w124_analytic,
    w124_field,
    w1234_analytic,
    w1234_field,
)
from .vlasov import (
    accel_flux_124_from_w4,
    dissipation_report,
    divergence_series_gap,
    mean_flux_from_w4,
    vlasov_residual,
)
from .wigner import marginal_to_2, transform_rows

__all__ = ["CheckResult", "SuiteReport", "run_ho_suite"]

DEFAULT_SEED = 20260813


def _peak_rss_mb() -> float:
    """The process's peak resident set (read-only; includes whatever ran before the suite)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Draws:
    """The suite's seeded points: uniform float64 arrays from the stdlib's random.Random(seed), which takes any int.

    Each value is lo + (hi - lo) * u, for a u in [0, 1) of 53 random bits read
    from the generator's bytes. NumPy's own generators, used for nothing else
    here, took 6.1 MiB of RSS to load.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def uniform(self, lo: float, hi: float, size) -> np.ndarray:
        count = math.prod(size) if isinstance(size, tuple) else size
        u = (np.frombuffer(self._random.randbytes(8 * count), "<u8") >> 11) * 2.0**-53
        return (lo + (hi - lo) * u).reshape(size)


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    seconds: float
    detail: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{self.index}/7] {self.name:<20} {flag} {self.seconds:7.2f} s  {self.detail}"


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[CheckResult, ...]
    total_seconds: float
    peak_rss_mb: float

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        n_pass = sum(r.passed for r in self.results)
        verdict = "all checks passed" if self.ok else "SUITE FAILED"
        out.append(
            f"{verdict}: {n_pass}/{len(self.results)} in {self.total_seconds:.1f} s, "
            f"peak rss {self.peak_rss_mb:.0f} MB"
        )
        return out


def _traced_peak_mb(fn, *args):
    """Call fn under tracemalloc; return its result and the peak MB it allocated.

    NumPy reports its buffers to tracemalloc, so the figure covers the arrays
    fn builds and nothing the process held or freed before the call. Inside an
    outer trace the peak is reset first and measured above the memory already
    traced.
    """
    outer = tracemalloc.is_tracing()
    if outer:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer:
            tracemalloc.stop()
    return result, peak / 2**20


def _check_transform(ctx) -> tuple[bool, str]:
    (ok, detail, elapsed), peak = _traced_peak_mb(_transform_fidelity, ctx)
    ok = ok and elapsed <= 60.0 and peak <= 600.0
    return ok, f"{detail} traced peak {peak:.0f} MB (tol 1e-06, 60 s, 600 MB)"


def _transform_fidelity(ctx):
    p = ctx["params"]
    t0 = time.perf_counter()
    axes = (make_axis("x", -8.0, 8.0, 64), make_axis("v", -8.0, 8.0, 64))
    psi = sample_complex(lambda x, v: psi12(x, v, 0.0, p), axes)
    (ax, av, vdot, vddot), tiles = transform_rows(psi, p, ("x", "v"))
    # W streams past one tile at a time: each tile is compared with the closed form on its points, and the two
    # m-weighted marginals of check 2 are integrated as integrate_axis does
    mesh = np.meshgrid(ax.points(), av.points(), vdot.points(), vddot.points(), indexing="ij", sparse=True)
    w123, w124 = np.empty((ax.n, av.n, vdot.n)), np.empty((ax.n, av.n, vddot.n))
    half = ax.n // 2
    err = 0.0
    for (rows, v_rows), block in tiles:
        ref = w1234_analytic(mesh[0][rows], mesh[1][:, v_rows], mesh[2], mesh[3], p)
        err = max(err, max_abs(np.subtract(block, ref, out=ref)))
        if rows.start <= half < rows.stop and v_rows.start <= half < v_rows.stop:
            peak_err = abs(float(block[half - rows.start, half - v_rows.start, half, half]) - 1.0 / math.pi**2)
        w123[rows, v_rows] = block.sum(axis=3) * (p.m * vddot.step)
        w124[rows, v_rows] = block.sum(axis=2) * (p.m * vdot.step)
    elapsed = time.perf_counter() - t0
    ctx["psi"], ctx["w123"], ctx["w124"] = psi, RealField((ax, av, vdot), w123), RealField((ax, av, vddot), w124)
    return err <= 1e-6 and peak_err <= 1e-6, f"max|err| {err:.2e} peak|err| {peak_err:.2e}", elapsed


def _check_marginals(ctx) -> tuple[bool, str]:
    p, psi, w123, w124 = ctx["params"], ctx.pop("psi"), ctx.pop("w123"), ctx.pop("w124")
    # the single transforms stream past one tile at a time, each compared with the same points of its marginal
    errs = []
    for shifts, marginal in ((("v",), w123), (("x",), w124)):
        _, tiles = transform_rows(psi, p, shifts)
        errs.append(max(max_abs(np.subtract(marginal.data[index], block)) for index, block in tiles))
    err3, err24 = errs
    dens = np.abs(psi.data) ** 2
    err12 = max(
        float(np.abs(marginal_to_2(w123, p).data - dens).max()),
        float(np.abs(marginal_to_2(w124, p).data - dens).max()),
    )
    prob = float(dens.sum()) * psi.axes[0].step * psi.axes[1].step
    ok = err3 <= 1e-8 and err24 <= 1e-8 and err12 <= 1e-8 and abs(prob - 1.0) <= 1e-9
    return ok, (
        f"tower {max(err3, err24):.2e} collapse {err12:.2e} prob-1 {prob - 1.0:+.2e} "
        f"(tol 1e-08, 1e-09)"
    )


def _check_moyal(ctx) -> tuple[bool, str]:
    p, rng = ctx["params"], ctx["rng"]
    pts = tuple(rng.uniform(-5.0, 5.0, size=10_000) for _ in range(4))
    u = u12_polynomial(p)
    exact = w1234_field(p, exact_derivatives=True)
    err_exact = float(np.abs(moyal_residual(exact, u, p, StencilScheme(order=4, h=0.01), points=pts)).max())
    numeric = w1234_field(p, exact_derivatives=False)
    errs = [
        float(np.abs(moyal_residual(numeric, u, p, StencilScheme(order=4, h=h), points=pts)).max())
        for h in (0.04, 0.02, 0.01)
    ]
    slopes = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
    u_bad = u12_polynomial(PhysParams(m=p.m, hbar=p.hbar, omega=2.0 * p.omega))
    err_bad = float(np.abs(moyal_residual(exact, u_bad, p, StencilScheme(order=4, h=0.01), points=pts)).max())
    peak = 1.0 / math.pi**2
    ok = (
        err_exact <= 1e-12
        and errs[-1] <= 1e-8
        and min(slopes) >= 3.5
        and err_bad > 1e-2 * peak
    )
    return ok, (
        f"exact {err_exact:.2e} stencil(h=0.01) {errs[-1]:.2e} order {min(slopes):.2f} "
        f"control {err_bad:.2e} (tol 1e-12, 1e-08, 3.5, >1e-02 peak)"
    )


def _check_identity(ctx) -> tuple[bool, str]:
    p, rng = ctx["params"], ctx["rng"]
    pts = rng.uniform(-5.0, 5.0, size=(4, 10_000))
    err = float(np.abs(gamma_transport_residual(*pts, p.omega)).max())
    return err <= 1e-11, f"max|residual| {err:.2e} (tol 1e-11)"


def _check_fluxes(ctx) -> tuple[bool, str]:
    p, rng = ctx["params"], ctx["rng"]
    axes = (
        make_axis("x", -8.0, 8.0, 16),
        make_axis("v", -8.0, 8.0, 16),
        make_axis("vdot", -12.0, 12.0, 64),
        make_axis("vddot", -12.0, 12.0, 64),
    )
    mesh = np.meshgrid(*[a.points() for a in axes], indexing="ij", sparse=True)

    def w4():
        """W as a stream of its x-rows, the closed form on each made as it is asked for: no rank-4 array is held."""
        return axes, (((slice(i, i + 1), slice(0, axes[1].n)), w1234_analytic(mesh[0][i : i + 1], *mesh[1:], p))
                      for i in range(axes[0].n))

    def flux_err(fl, which):
        mesh = fl.values.mesh()
        ref = mean_flux_analytic(which, mesh[0], mesh[1], p)
        return float(np.abs((fl.values.data - ref))[fl.mask].max())

    e123 = flux_err(mean_flux_from_w4(w4(), "123-accel", p), "123-accel")
    e124v = flux_err(mean_flux_from_w4(w4(), "124-vel", p), "124-vel")
    e124a = flux_err(accel_flux_124_from_w4(w4(), u12_polynomial(p), p), "124-accel")
    xr, vr = rng.uniform(-5.0, 5.0, size=(2, 1000))
    u1 = PolynomialPotential(((2, 0, 0.5 * p.m * p.omega**2),))
    _, dn_over_m = radiation_power(xr, vr, u1, p)
    e_rad = float(np.abs(dn_over_m - mean_flux_analytic("123-accel", xr, vr, p)).max())
    ok = max(e123, e124v, e124a) <= 1e-6 and e_rad <= 1e-12
    return ok, (
        f"accel3 {e123:.2e} vel4 {e124v:.2e} accel4 {e124a:.2e} power {e_rad:.2e} "
        f"(tol 1e-06, 1e-12)"
    )


def _check_equivalence(ctx) -> tuple[bool, str]:
    p = ctx["params"]
    t0 = time.perf_counter()
    axes = tuple(make_axis(name, -6.0, 6.0, 16) for name in ("x", "v", "vdot", "vddot"))
    f4 = sample_real(lambda x, v, vd, vdd: w1234_analytic(x, v, vd, vdd, p), axes)
    scheme = StencilScheme(order=4)
    gaps = [
        divergence_series_gap(PolynomialPotential(terms), f4, p, scheme)
        for terms in (((2, 0, 0.5),), ((3, 0, 1.0),), ((4, 0, 0.25),))
    ]
    elapsed = time.perf_counter() - t0
    ok = max(gaps) <= 1e-10 and elapsed <= 10.0
    return ok, f"max gap {max(gaps):.2e} in {elapsed:.2f} s (tol 1e-10, 10 s)"


def _check_chain(ctx) -> tuple[bool, str]:
    p, rng = ctx["params"], ctx["rng"]
    scheme = StencilScheme(order=4, h=0.01)
    w2, w4 = p.omega**2, p.omega**4
    pts3 = tuple(rng.uniform(-5.0, 5.0, size=10_000) for _ in range(3))
    e123 = float(np.abs(vlasov_residual(
        "w123", w123_field(p), {"vdot": lambda x, v, vd: w2 * v},
        p, scheme, u12_polynomial(p), points=pts3)).max())
    e124 = float(np.abs(vlasov_residual(
        "w124", w124_field(p), {"v": lambda x, v, vdd: -w2 * x, "vddot": lambda x, v, vdd: -w4 * x},
        p, scheme, points=pts3)).max())
    pts2 = tuple(rng.uniform(-5.0, 5.0, size=10_000) for _ in range(2))
    e12 = float(np.abs(vlasov_residual(
        "w12", w12_field(p), {"v": lambda x, v: -w2 * x}, p, scheme, points=pts2)).max())

    grid2 = (make_axis("x", -8.0, 8.0, 64), make_axis("v", -8.0, 8.0, 64))
    grid3 = tuple(make_axis(name, -8.0, 8.0, 48) for name in ("x", "v", "vddot"))
    w12g = sample_real(lambda x, v: w12_analytic(x, v, p), grid2)
    w124g = sample_real(lambda x, v, vdd: w124_analytic(x, v, vdd, p), grid3)
    rep = dissipation_report(
        w12g, w124g,
        {"12-vel": lambda x, v: -w2 * x,
         "124-vel": lambda x, v, vdd: -w2 * x,
         "124-accel": lambda x, v, vdd: -w4 * x},
        p, StencilScheme(order=4))
    qmax = rep.max_abs_q()
    smax = rep.max_abs_entropy_residual()
    ok = max(e123, e124, e12) <= 1e-8 and qmax <= 1e-10
    return ok, (
        f"res123 {e123:.2e} res124 {e124:.2e} res12 {e12:.2e} Q {qmax:.2e} "
        f"entropy {smax:.2e} (tol 1e-08, 1e-10)"
    )


_STEPS = (
    (1, "transform-fidelity", _check_transform),
    (2, "marginal-tower", _check_marginals),
    (3, "moyal-residual", _check_moyal),
    (4, "transport-identity", _check_identity),
    (5, "mean-fluxes", _check_fluxes),
    (6, "closure-equivalence", _check_equivalence),
    (7, "chain-residuals", _check_chain),
)


def run_ho_suite(seed: int = DEFAULT_SEED, progress=None) -> SuiteReport:
    """Run the oscillator battery; `progress` (if given) receives each line as it lands."""
    ctx = {"params": PhysParams(), "rng": _Draws(seed)}
    results = []
    t0 = time.perf_counter()
    for index, name, fn in _STEPS:
        t = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a crashed check is a failed check; keep the suite going
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = CheckResult(index, name, passed, time.perf_counter() - t, detail)
        results.append(result)
        if progress is not None:
            progress(result.line())
    return SuiteReport(tuple(results), time.perf_counter() - t0, _peak_rss_mb())
