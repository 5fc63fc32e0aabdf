"""Child-process side of the benchmark: one traced CLI step, or one pointwise pass.

    python3 child.py cli --trace-out STATS.json -- <phasechain argv...>
    python3 child.py pointwise --inputs INPUTS.npz [--trace-out STATS.json]

`cli` calls phasechain.cli.main(argv) in this process with every public layer
function wrapped by the span recorder, and writes the per-span summary. The
untraced CLI steps do not come here: they run the plain entry point.

`pointwise` runs the library session of the `pointwise` workload on the
generated inputs, verifies every result against the oscillator's own
tolerances, and prints a JSON tally as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tracemalloc

import numpy as np

from tracer import Recorder, install

BATCH = 10_000
STEPS = (0.04, 0.02, 0.01)       # stencil steps, as in check 3 of the oscillator suite
QUARTIC = 0.01                   # coefficient of the x**4 term added to the oscillator U
VN_PER_BATCH = 10                # von Neumann residuals evaluated per point batch

# the oscillator's own tolerances (check 3, check 7 and acceptance criterion 8)
EXACT_TOL = 1e-12
STENCIL_TOL = 1e-8
ORDER_MIN = 3.5
VN_COMMUTATOR_TOL = 1e-12
VN_FD_REL_TOL = 1e-6
VN_HERMITIAN_TOL = 1e-12


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, name: str, ok: bool, value: float):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: {value:.3e}")


def _max_abs(a) -> float:
    return float(np.abs(a).max())


def _observed_order(errs) -> float:
    return min(math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1))


def pointwise_session(inputs: str) -> Tally:
    import phasechain as pc

    data = np.load(inputs)
    points = data["points"]
    times = data["times"]
    modes = pc.ModeSet(data["energies"], data["coeffs"], hbar2=float(data["hbar2"]))
    p = pc.PhysParams()
    u = pc.u12_polynomial(p)
    u_quartic = pc.PolynomialPotential(u.terms + ((4, 0, QUARTIC),))
    exact = pc.w1234_field(p, exact_derivatives=True)
    numeric = pc.w1234_field(p, exact_derivatives=False)
    w2, w4 = p.omega**2, p.omega**4
    fine = pc.StencilScheme(order=4, h=STEPS[-1])
    chain = (
        ("w123", pc.w123_field(p), {"vdot": lambda x, v, vd: w2 * v}, u, 3),
        ("w124", pc.w124_field(p), {"v": lambda x, v, vdd: -w2 * x, "vddot": lambda x, v, vdd: -w4 * x}, None, 3),
        ("w12", pc.w12_field(p), {"v": lambda x, v: -w2 * x}, None, 2),
    )
    tally = Tally()

    def stencil_route(pot, pts, reference):
        errs = [_max_abs(pc.moyal_residual(numeric, pot, p, pc.StencilScheme(order=4, h=h), points=pts) - reference)
                for h in STEPS]
        order = _observed_order(errs)
        return errs[-1] <= STENCIL_TOL and order >= ORDER_MIN, errs[-1]

    for b, start in enumerate(range(0, points.shape[1], BATCH)):
        pts = tuple(points[:, start:start + BATCH])
        # oscillator U: the exact-derivative route is zero to rounding
        err = _max_abs(pc.moyal_residual(exact, u, p, fine, points=pts))
        tally.check("moyal.exact", err <= EXACT_TOL, err)
        tally.check("moyal.stencil", *stencil_route(u, pts, 0.0))
        # quartic U: series terms are live; the stencil route must converge to the exact route
        ref = pc.moyal_residual(exact, u_quartic, p, fine, points=pts)
        tally.check("moyal.quartic.exact", bool(np.all(np.isfinite(ref))), _max_abs(ref))
        tally.check("moyal.quartic.stencil", *stencil_route(u_quartic, pts, ref))
        for kind, field, fluxes, pot, rank in chain:
            err = _max_abs(pc.vlasov_residual(kind, field, fluxes, p, fine, pot, points=pts[:rank]))
            tally.check(f"vlasov.{kind}", err <= STENCIL_TOL, err)
        for t in times[b * VN_PER_BATCH:(b + 1) * VN_PER_BATCH]:
            chk = pc.von_neumann_residual(modes, float(t))
            rho = pc.density_matrix_at(modes, float(t))
            herm = _max_abs(rho - rho.conj().T)
            ok = (chk.commutator <= VN_COMMUTATOR_TOL and chk.finite_difference_rel <= VN_FD_REL_TOL
                  and herm <= VN_HERMITIAN_TOL)
            tally.check("vonneumann", ok, max(chk.commutator, herm))
    return tally


def _write_stats(path: str, recorder: Recorder):
    out = {"stats": recorder.summary(), "spans": len(recorder.spans)}
    if recorder.suite is not None:
        out["suite"] = {
            "seconds": {r.name: r.seconds for r in recorder.suite.results},
            "peak_rss_mb": recorder.suite.peak_rss_mb,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    c = sub.add_parser("cli")
    c.add_argument("--trace-out", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    w = sub.add_parser("pointwise")
    w.add_argument("--inputs", required=True)
    w.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_out is not None:
        recorder = Recorder()
        pc = install(recorder)
        tracemalloc.start()
    try:
        if args.what == "cli":
            cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            return pc.cli.main(cli_argv)
        tally = pointwise_session(args.inputs)
        print(json.dumps({"attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors}))
        return 0
    finally:
        if recorder is not None:
            tracemalloc.stop()
            _write_stats(args.trace_out, recorder)


if __name__ == "__main__":
    sys.exit(main())
