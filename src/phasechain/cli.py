"""Command-line front end.

Exit codes are part of the contract: 0 success, 1 validation (bad flags or
inputs that fail a precondition), 2 I/O (missing, truncated, or malformed
files), 3 numeric failure (imaginary residue, non-positive density, a
tolerance miss in the check suite, or not enough memory).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

# the package registers these lazily: each runs on a handler's first use, so a command runs only what it needs
from . import checks, fieldfile, fields, moyal, oscillator, vlasov, wigner

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" as an option, not as a flag's value; take every negative decimal as a number
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    # argparse exits 2 on bad flags by default; the contract reserves 2 for I/O
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


class _SuiteParam(argparse.Action):
    """A physics flag that `check` refuses by name (rather than reading --hbar as an abbreviation of --hbar2)."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise argparse.ArgumentError(self, "not taken: the oscillator suite runs at m = hbar = omega = 1")


def _params_from(args) -> oscillator.PhysParams:
    return oscillator.PhysParams(m=args.m, hbar=args.hbar, omega=args.omega, hbar2=args.hbar2)


def _hbar2(text: str) -> float | None:
    """None (PhysParams' hbar*omega^2) for 'auto', else the number."""
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}") from None


def _add_param_flags(sub):
    sub.add_argument("--m", type=float, default=1.0, help="particle mass (default 1)")
    sub.add_argument("--hbar", type=float, default=1.0, help="first-rank action scale (default 1)")
    sub.add_argument("--omega", type=float, default=1.0, help="oscillator frequency (default 1)")
    _add_hbar2_flag(sub)


def _add_hbar2_flag(sub):
    sub.add_argument("--hbar2", type=_hbar2, default="auto",
                     help="second-rank action scale, or 'auto' for hbar*omega^2 (default auto)")


def _read_rank4(path) -> fields.RealField:
    field = fieldfile.read_field(path)
    fields._require_axes(field, fields.KINEMATIC_ORDER)  # refuses a ComplexField too: its rank is at most 2
    return field


def _cmd_gen_ho(args) -> int:
    p = _params_from(args)
    axes = (
        fields.make_axis("x", args.xmin, args.xmax, args.nx),
        fields.make_axis("v", args.vmin, args.vmax, args.nv),
    )
    psi = fields.sample_complex(lambda x, v: oscillator.psi12(x, v, args.t, p), axes)
    fieldfile.write_field(psi, args.out)
    print(f"wrote {args.out}: complex rank-2 field, {args.nx} x {args.nv}, "
          f"x [{axes[0].min:g}, {axes[0].max:g}) v [{axes[1].min:g}, {axes[1].max:g}), t = {args.t:g}")
    return 0


def _cmd_wigner(args) -> int:
    psi = fieldfile.read_field(args.in_path)
    if not isinstance(psi, fields.ComplexField):
        raise fields.ValidationError("transform input must be a complex rank-2 field")
    p = _params_from(args)
    plan = wigner.TransformPlan.for_psi(psi, p)
    for dual in (plan.vdot, plan.vddot):
        print(f"dual axis {dual.name}: [{dual.min:.9g}, {dual.max:.9g}) step {dual.step:.9g}, n = {dual.n}")
    # W goes to the file block by block as the transform makes it, and the transform returns its peak
    axes, rows = wigner._transform_rows(psi, p, {"4": ("x", "v"), "3": ("v",), "24": ("x",)}[args.rank])
    peak = fieldfile._write_rows(fields.RealField, axes, rows, args.out)
    names = " x ".join(a.name for a in axes)
    print(f"wrote {args.out}: real rank-{len(axes)} field on ({names}), peak {peak:.9g}")
    return 0


def _cmd_marginal(args) -> int:
    field = fieldfile.read_field(args.in_path)
    if not isinstance(field, fields.RealField):
        raise fields.ValidationError("marginal input must be a real field")
    out = fields.integrate_axis(field, args.axis, weight=args.m)
    if not isinstance(out, fields.RealField):
        raise fields.ValidationError("marginal would exhaust the field's axes")
    fieldfile.write_field(out, args.out)
    print(f"wrote {args.out}: rank-{out.rank} marginal over {args.axis} (weight m = {args.m:g})")
    return 0


def _cmd_fluxes(args) -> int:
    w4 = _read_rank4(args.in_path)
    p = _params_from(args)
    kind = {"123": "123-accel", "124": "124-vel", "12": "12-vel"}[args.which]
    flux = vlasov.mean_flux_from_w4(w4, kind, p, args.mask_threshold)
    fieldfile.write_field(flux.values, args.out)
    mask_path = str(args.out) + ".mask"
    fieldfile.write_field(fields.RealField(flux.values.axes, flux.mask.astype(np.float64)), mask_path)
    names = " x ".join(a.name for a in flux.values.axes)
    print(f"wrote {args.out} (+ .mask): {kind} flux on ({names}), "
          f"masked fraction {flux.masked_fraction:.4f} at threshold {args.mask_threshold:g}")
    return 0


def _cmd_residual(args) -> int:
    w4 = _read_rank4(args.in_path)
    p = _params_from(args)
    try:
        u = moyal.PolynomialPotential.from_text(Path(args.potential).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise fields.ValidationError(f"potential file {args.potential} is not UTF-8 text") from None
    scheme = fields.StencilScheme(order=args.order)
    if args.mode == "psi-moyal":
        # every node counts; reduce slab by slab, and take W's peak from the rows each slab has just read
        rmax = peak = -math.inf
        for lo, hi, block in moyal.moyal_residual_slabs(w4, u, p, scheme):
            # np.maximum, unlike Python's max, keeps a NaN
            rmax = float(np.maximum(rmax, fields._max_abs(block)))
            peak = max(peak, fields._max_abs(w4.data[lo:hi]))
        masked = 0.0
    else:
        res, density, valid = _chain_residual(args.mode, w4, u, p, scheme, args.mask_threshold)
        if not valid.any():
            raise fields.NumericError("no valid points left after masking")
        rmax = float(np.abs(res.data[valid]).max())
        masked = 1.0 - float(valid.sum()) / valid.size
        peak = fields._max_abs(density.data)
    if not math.isfinite(rmax):
        raise fields.NumericError(f"the residual is not finite (max|residual| = {rmax})")
    lines = [
        f"max|residual|       = {rmax:.9e}",
        f"max|residual|/peak  = {rmax / peak:.9e}",
        f"masked fraction     = {masked:.6f}",
    ]
    print("\n".join(lines))
    if args.report is not None:
        Path(args.report).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _chain_residual(mode, w4, u, p, scheme, thresh):
    """Residual, density and valid region of one reduced chain member; its fluxes carry its density."""
    if mode == "vlasov123":
        member, fluxes = "w123", {"vdot": vlasov.mean_flux_from_w4(w4, "123-accel", p, thresh)}
    elif mode == "vlasov124":
        member, fluxes = "w124", {"v": vlasov.mean_flux_from_w4(w4, "124-vel", p, thresh),
                                  "vddot": vlasov.accel_flux_124_from_w4(w4, u, p, scheme, thresh)}
    else:
        member, fluxes = "w12", {"v": vlasov.mean_flux_from_w4(w4, "12-vel", p, thresh)}
    density = next(iter(fluxes.values())).density
    res = vlasov.vlasov_residual(member, density, fluxes, p, scheme, u)
    mask = np.logical_and.reduce([flux.mask for flux in fluxes.values()])
    return res, density, _valid_region(mask, density, tuple(fluxes), scheme)


def _valid_region(mask, density, diff_axes, scheme) -> np.ndarray:
    w = fields.stencil_halfwidth(1, scheme.order)
    out = np.broadcast_to(mask, density.data.shape).copy()
    for name in diff_axes:
        out = vlasov._erode(out, density.axis_index(name), w)
    return out


def _mask_threshold(text: str) -> float:
    try:
        return fields._check_mask_threshold(float(text))
    except ValueError as exc:  # ValidationError is a ValueError
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _cmd_check(args) -> int:
    if args.hbar2 is not None:
        p = oscillator.PhysParams()
        if not math.isclose(args.hbar2, p.hbar2, rel_tol=1e-12):
            print(f"warning: --hbar2 {args.hbar2} is not the consistent value "
                  f"hbar*omega^2 = {p.hbar2:g}; the suite runs with the consistent one",
                  file=sys.stderr)
    report = checks.run_ho_suite(seed=args.seed, progress=print)
    print(report.lines()[-1])
    return 0 if report.ok else 3


def _cmd_export_csv(args) -> int:
    field = fieldfile.read_field(args.in_path)
    pins = fieldfile.parse_slice_spec(args.slice)
    snapped = fieldfile.export_csv(field, pins, args.out)
    pinned = ", ".join(f"{k} = {v:g}" for k, v in snapped.items()) or "none"
    free = [a.name for a in field.axes if a.name not in snapped]
    rows = 1
    for a in field.axes:
        if a.name in free:
            rows *= a.n
    print(f"wrote {args.out}: {rows} rows over ({', '.join(free)}), pinned {pinned}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="phasechain", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-ho", help="sample the oscillator wave function onto a grid")
    _add_param_flags(g)
    g.add_argument("--t", type=float, default=0.0, help="evaluation time (default 0)")
    g.add_argument("--nx", type=int, default=64)
    g.add_argument("--nv", type=int, default=64)
    g.add_argument("--xmin", type=float, default=-8.0)
    g.add_argument("--xmax", type=float, default=8.0)
    g.add_argument("--vmin", type=float, default=-8.0)
    g.add_argument("--vmax", type=float, default=8.0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_ho)

    w = sub.add_parser("wigner", help="transform a rank-2 wave function to a joint field")
    w.add_argument("--in", dest="in_path", required=True)
    w.add_argument("--rank", choices=("4", "3", "24"), default="4",
                   help="4: (x,v,vdot,vddot); 3: (x,v,vdot); 24: (x,v,vddot)")
    _add_param_flags(w)
    w.add_argument("--out", required=True)
    w.set_defaults(func=_cmd_wigner)

    mg = sub.add_parser("marginal", help="integrate out one kinematic axis (m-weighted)")
    mg.add_argument("--in", dest="in_path", required=True)
    mg.add_argument("--axis", choices=("vdot", "vddot"), required=True)
    mg.add_argument("--m", type=_positive, default=1.0, help="integration weight, positive (default 1)")
    mg.add_argument("--out", required=True)
    mg.set_defaults(func=_cmd_marginal)

    fl = sub.add_parser("fluxes", help="extract a mean-flux field with its support mask")
    fl.add_argument("--in", dest="in_path", required=True)
    fl.add_argument("--which", choices=("123", "124", "12"), required=True,
                    help="123: accel flux on (x,v,vdot); 124: velocity flux on (x,v,vddot); 12: velocity flux on (x,v)")
    _add_param_flags(fl)
    fl.add_argument("--mask-threshold", type=_mask_threshold, default=fields.DEFAULT_MASK_THRESHOLD,
                    help="support cut-off as a fraction of the density peak, in [0, 1) (default 1e-08)")
    fl.add_argument("--out", required=True)
    fl.set_defaults(func=_cmd_fluxes)

    r = sub.add_parser("residual", help="evaluate an evolution residual of a rank-4 field")
    r.add_argument("--in", dest="in_path", required=True)
    r.add_argument("--potential", required=True, help="polynomial potential file: lines of 'a b coeff'")
    r.add_argument("--mode", choices=("psi-moyal", "vlasov12", "vlasov123", "vlasov124"), required=True)
    _add_param_flags(r)
    r.add_argument("--order", type=int, choices=(2, 4, 6), default=4)
    r.add_argument("--mask-threshold", type=_mask_threshold, default=fields.DEFAULT_MASK_THRESHOLD,
                   help="support cut-off as a fraction of the density peak, in [0, 1) (default 1e-08)")
    r.add_argument("--report", default=None, help="also write the printed numbers to this file")
    r.set_defaults(func=_cmd_residual)

    c = sub.add_parser("check", help="run the oscillator verification suite")
    c.add_argument("--suite", choices=("ho",), required=True)
    for flag in ("--m", "--hbar", "--omega"):
        c.add_argument(flag, action=_SuiteParam, nargs="?", help=argparse.SUPPRESS)
    _add_hbar2_flag(c)
    c.add_argument("--seed", type=_seed, default=20260813)
    c.set_defaults(func=_cmd_check)

    e = sub.add_parser("export-csv", help="write a 1-d or 2-d slice of a field as CSV")
    e.add_argument("--in", dest="in_path", required=True)
    e.add_argument("--slice", required=True, help="pins, e.g. 'x=0,v=0'; leaves 1 or 2 axes free")
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_export_csv)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy's floating-point warnings would add stderr lines; non-finite results
        # are refused by the fields' own checks instead
        with np.errstate(all="ignore"):
            return args.func(args)
    except fields.ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # NumericError, or a float division or overflow
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"numeric failure: not enough memory ({exc or 'allocation failed'})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
