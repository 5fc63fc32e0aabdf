#!/usr/bin/env python3
"""phasechain benchmark: time and memory to a verified result, end to end and per layer.

    python3 benchmarks/run.py --workload cli-64 --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --smoke

Workloads (closed loop, one client, one step at a time):

  cli-64     CLI session on a 64x64 psi (64^4 W = 128 MiB), one child per command:
             gen-ho, wigner --rank 4, marginal, fluxes, residual in all four
             modes (psi-moyal twice: oscillator U and with a quartic term),
             export-csv, check --suite ho. The north-star pipeline; wigner, the
             dense stencils, the grid residuals and the field files do the work.
  pointwise  In-process library session on seeded random points: pointwise
             moyal/vlasov residuals and von Neumann residuals; no grid, no file.

--trace 0 runs passes in fresh children with tracing off and reports the
end-to-end metrics (setup_s, run_s, cpu_s, peak_rss_mib) as medians over the
passes. --trace 1 runs pairs of one untraced and one traced pass and reports
the per-layer metrics; the traced pass wraps phasechain's public functions
from outside (see tracer.py). Every output is verified; the last stdout line
is a JSON object with correct/attempted/failed/metrics. Only the stdlib and
numpy are used. The program is imported from src/ next to this directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable
ENTRY = "import sys; from phasechain.cli import main; sys.exit(main())"

MIB = 1024 * 1024
MIN_PASSES = 3           # untraced passes per run, whatever --seconds says
SETUP_REPEATS = 5        # at least this many set-ups per run, one before each pass; setup_s is their median
CHILD_TIMEOUT = 150.0    # seconds before a hung child is killed and counted failed
MASK = "1e-3"            # flux support threshold; 1e-2 leaves no vlasov124 points at 16x16
POINTWISE_POINTS = 1_000_000
SMOKE_POINTS = 4_000
SMOKE_N = 16
VN_MODES = 8
W_PEAK_TOL = 1e-9        # |W peak - reference|, the reference being 1/pi^2 at 64x64
REL_TOL = 1e-9           # printed residuals, masked fractions and CSV sums vs references

WORKLOADS = {
    "cli-64": {"kind": "cli", "n": 64},
    "pointwise": {"kind": "pointwise", "points": POINTWISE_POINTS},
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"))

AXES = ("x", "v", "vdot", "vddot")
CHECK_NAMES = ("transform-fidelity", "marginal-tower", "moyal-residual", "transport-identity",
               "mean-fluxes", "closure-equivalence", "chain-residuals")
U12 = "0 2 1.5\n2 0 -0.5\n"          # governing potential of the default oscillator
U_QUARTIC = U12 + "4 0 0.01\n"      # adds a live term to the moyal correction series

# ROADMAP baseline at 64^2 (best of 3, 2 cores): layer -> (seconds, MiB)
ROADMAP = {
    "wigner4": (0.71, 264), "partial_derivative (one axis)": (0.45, 392),
    "moyal_residual grid, quadratic U": (2.30, 522), "moyal_residual grid, quartic U": (5.24, 780),
    "mean_flux_from_w4 123": (0.12, 144), "write_field": (0.23, 256), "read_field": (0.22, 272),
    "CLI wigner --rank 4": (1.32, 426), "CLI residual psi-moyal": (2.35, 696),
    "CLI residual vlasov123": (0.49, 305), "CLI residual vlasov124": (0.72, 433),
    "CLI residual vlasov12": (0.46, 302), "CLI check --suite ho": (1.23, 303),
}


def cli_steps(spec: dict, seed: int) -> list[tuple[str, list[str]]]:
    """(label, phasechain argv) for each step of the CLI session, in order; paths are relative to the work dir."""
    n = str(spec["n"])
    residual = ["residual", "--in", "w4.fld", "--mask-threshold", MASK, "--potential"]
    return [
        ("gen-ho", ["gen-ho", "--nx", n, "--nv", n, "--out", "psi.fld"]),
        ("wigner", ["wigner", "--in", "psi.fld", "--rank", "4", "--out", "w4.fld"]),
        ("marginal", ["marginal", "--in", "w4.fld", "--axis", "vddot", "--out", "w123.fld"]),
        ("fluxes", ["fluxes", "--in", "w4.fld", "--which", "123", "--mask-threshold", MASK, "--out", "flux123.fld"]),
        ("residual.psi-moyal", residual + ["u12.txt", "--mode", "psi-moyal"]),
        ("residual.psi-moyal-quartic", residual + ["u4.txt", "--mode", "psi-moyal"]),
        ("residual.vlasov123", residual + ["u12.txt", "--mode", "vlasov123"]),
        ("residual.vlasov124", residual + ["u12.txt", "--mode", "vlasov124"]),
        ("residual.vlasov12", residual + ["u12.txt", "--mode", "vlasov12"]),
        ("export-csv", ["export-csv", "--in", "w123.fld", "--slice", "vdot=0", "--out", "line.csv"]),
        ("check", ["check", "--suite", "ho", "--seed", str(seed)]),
    ]


CLI_LABELS = tuple(label for label, _ in cli_steps(WORKLOADS["cli-64"], 0))


def layer_catalog() -> list[tuple[str, str]]:
    """Every per-layer metric, in print order, with its unit."""
    out = [("cli.startup.s", "s"), ("cli.main.s", "s"), ("cli.main.peak_mib", "MiB")]
    for label in CLI_LABELS:
        out += [(f"cli.{label}.s", "s"), (f"cli.{label}.rss_mib", "MiB")]
    out += [("wigner.wigner4.s", "s"), ("wigner.wigner4.peak_mib", "MiB"), ("wigner.wigner4.mb", "MB"),
            ("wigner.wigner4.gbps", "GB/s"), ("wigner.wigner3.s", "s"), ("wigner.wigner24.s", "s")]
    for ax in AXES:
        out += [(f"fields.partial_derivative.{ax}.s", "s"), (f"fields.partial_derivative.{ax}.calls", "count"),
                (f"fields.partial_derivative.{ax}.mb", "MB"), (f"fields.partial_derivative.{ax}.gbps", "GB/s")]
    out += [("fields.partial_derivative.peak_mib", "MiB"), ("fields.integrate_axis.s", "s"),
            ("fields.integrate_axis.calls", "count"), ("fields.PointwiseField.derivative.s", "s"),
            ("fields.PointwiseField.derivative.calls", "count"), ("fields.PointwiseField.derivative.peak_mib", "MiB")]
    for fn in ("w1234_analytic", "w123_analytic", "w124_analytic", "w12_analytic", "gamma_form"):
        out += [(f"oscillator.{fn}.s", "s"), (f"oscillator.{fn}.calls", "count")]
    out += [("oscillator.w1234_analytic.peak_mib", "MiB")]
    for fn in ("transport_lhs", "moyal_rhs"):
        for mode in ("grid", "points"):
            out += [(f"moyal.{fn}.{mode}.s", "s"), (f"moyal.{fn}.{mode}.peak_mib", "MiB")]
    out += [("moyal.moyal_residual.grid.s", "s"), ("moyal.moyal_residual.points.s", "s")]
    out += [(f"vlasov.mean_flux_from_w4.{k}.s", "s") for k in ("123-accel", "124-vel", "12-vel")]
    out += [("vlasov.mean_flux_from_w4.peak_mib", "MiB"), ("vlasov.accel_flux_124_from_w4.s", "s")]
    out += [(f"vlasov.vlasov_residual.{k}.{mode}.s", "s") for k in ("w123", "w124", "w12") for mode in ("grid", "points")]
    out += [("vlasov.vlasov_residual.peak_mib", "MiB"), ("vlasov.dissipation_report.s", "s"),
            ("vlasov.divergence_series_gap.s", "s")]
    for fn in ("read_field", "write_field"):
        out += [(f"fieldfile.{fn}.s", "s"), (f"fieldfile.{fn}.calls", "count"), (f"fieldfile.{fn}.peak_mib", "MiB"),
                (f"fieldfile.{fn}.mb", "MB"), (f"fieldfile.{fn}.gbps", "GB/s")]
    out += [("fieldfile.export_csv.s", "s")]
    out += [(f"checks.{name}.s", "s") for name in CHECK_NAMES]
    out += [("checks.run_ho_suite.s", "s"), ("checks.run_ho_suite.peak_mib", "MiB"),
            ("checks.suite.vmhwm_mib", "MiB"), ("checks.suite.child_rss_mib", "MiB")]
    out += [("vonneumann.von_neumann_residual.s", "s"), ("vonneumann.von_neumann_residual.calls", "count"),
            ("vonneumann.von_neumann_residual.peak_mib", "MiB"), ("vonneumann.density_matrix_at.s", "s"),
            ("vonneumann.density_matrix_at.calls", "count")]
    out += [("trace.run_s", "s"), ("trace.untraced_run_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    maxrss_mib: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    nproc = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            env[var] = str(min(int(env[var]), nproc))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


def run_child(argv, cwd: Path, env: dict) -> Child:
    """Run one child to completion; rusage comes from wait4 on that child alone."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"))


# ---------------------------------------------------------------------------
# inputs and verification


def make_inputs(spec: dict, seed: int, work: Path):
    """Everything the program receives is generated here, from the seed."""
    if spec["kind"] == "cli":
        (work / "u12.txt").write_text(U12, encoding="utf-8")
        (work / "u4.txt").write_text(U_QUARTIC, encoding="utf-8")
        return
    rng = np.random.default_rng(seed)
    points = rng.uniform(-5.0, 5.0, size=(4, spec["points"]))
    energies = rng.normal(size=VN_MODES) + 0.5j * rng.normal(size=VN_MODES)
    coeffs = rng.normal(size=VN_MODES) + 1j * rng.normal(size=VN_MODES)
    # a unit-norm pure state: the 1e-12 commutator tolerance is absolute, and rounding grows with |rho|
    coeffs /= np.linalg.norm(coeffs)
    np.savez(work / "inputs.npz", points=points, energies=energies, coeffs=coeffs,
             hbar2=rng.uniform(0.5, 2.0), times=rng.uniform(-1.0, 1.0, size=spec["points"] // 1000))


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _number(pattern: str, text: str) -> float:
    m = re.search(pattern, text)
    if m is None:
        raise ValueError(f"no match for {pattern!r}")
    return float(m.group(1))


def csv_digest(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    values = [float(r[-1]) for r in rows]
    return {"rows": len(rows), "sum": math.fsum(values), "max": max(values)}


def step_outputs(label: str, stdout: str, work: Path) -> dict:
    """The numbers a step printed (or wrote) that are compared with the references."""
    if label == "wigner":
        return {"peak": _number(r"peak ([-+0-9.eE]+)", stdout)}
    if label == "fluxes":
        return {"masked": _number(r"masked fraction ([-+0-9.eE]+)", stdout)}
    if label.startswith("residual."):
        return {"residual": _number(r"max\|residual\|\s+= ([-+0-9.eE]+)", stdout),
                "relative": _number(r"max\|residual\|/peak\s+= ([-+0-9.eE]+)", stdout),
                "masked": _number(r"masked fraction\s+= ([-+0-9.eE]+)", stdout)}
    if label == "export-csv":
        return {"printed_rows": _number(r": (\d+) rows", stdout), **csv_digest(work / "line.csv")}
    if label == "check":
        return {"passed": _number(r"(\d+)/7 in", stdout),
                "vmhwm_mib": _number(r"peak rss (\d+) MB", stdout)}
    return {}


def verify_step(label: str, child: Child, work: Path, refs: dict) -> str | None:
    """None if the step's output is correct, else why not."""
    if child.rc != 0:
        return f"exit {child.rc}: {child.stderr.strip()[-300:]}"
    try:
        got = step_outputs(label, child.stdout, work)
    except (ValueError, OSError, IndexError) as exc:
        return f"unreadable output: {exc}"
    want = refs.get(label, {})
    if label == "wigner" and abs(got["peak"] - want["peak"]) > W_PEAK_TOL:
        return f"W peak {got['peak']!r} vs {want['peak']!r}"
    if label == "check" and got["passed"] != 7:
        return f"check passed {got['passed']}/7"
    if label == "export-csv" and not got["printed_rows"] == got["rows"] == want["rows"]:
        return f"csv rows {got['printed_rows']}/{got['rows']} vs {want['rows']}"
    for key in ("residual", "relative", "masked", "sum", "max"):
        if key in got and not _close(got[key], want[key]):
            return f"{key} {got[key]!r} vs reference {want[key]!r}"
    return None


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    steps: dict = field(default_factory=dict)      # label -> (wall s, ru_maxrss MiB)
    traces: dict = field(default_factory=dict)     # label -> stats file contents (traced passes)
    check: dict = field(default_factory=dict)      # suite self-report next to the child's ru_maxrss

    def add(self, label: str, child: Child, error: str | None, ops: int = 1, failed: int | None = None):
        self.cpu += child.cpu
        self.peak_rss_mib = max(self.peak_rss_mib, child.maxrss_mib)
        self.steps[label] = (child.wall, child.maxrss_mib)
        self.attempted += ops
        self.failed += (ops if error else 0) if failed is None else failed
        if error:
            self.errors.append(f"{label}: {error}")


def cli_pass(spec, seed, work, env, refs, traced) -> Pass:
    result = Pass()
    t0 = time.perf_counter()
    for label, args in cli_steps(spec, seed):
        stats = work / f"{label}.json"
        stats.unlink(missing_ok=True)
        if traced:
            argv = [PY, BENCH / "child.py", "cli", "--trace-out", stats, "--", *args]
        else:
            argv = [PY, "-c", ENTRY, *args]
        child = run_child(argv, work, env)
        error = verify_step(label, child, work, refs)
        result.add(label, child, error)
        if label == "check" and not error:
            result.check = {"vmhwm_mib": step_outputs(label, child.stdout, work)["vmhwm_mib"],
                            "child_rss_mib": child.maxrss_mib}
        if traced and stats.exists():
            result.traces[label] = json.loads(stats.read_text(encoding="utf-8"))
    result.wall = time.perf_counter() - t0
    return result


def pointwise_pass(work, env, traced) -> Pass:
    result = Pass()
    argv = [PY, BENCH / "child.py", "pointwise", "--inputs", work / "inputs.npz"]
    stats = work / "pointwise.json"
    if traced:
        argv += ["--trace-out", stats]
    t0 = time.perf_counter()
    child = run_child(argv, work, env)
    result.wall = time.perf_counter() - t0
    try:
        tally = json.loads(child.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        tally = None
    if child.rc != 0 or tally is None:
        result.add("pointwise", child, f"exit {child.rc}: {child.stderr.strip()[-300:]}")
    else:
        error = "; ".join(tally["errors"]) or None
        result.add("pointwise", child, error, ops=tally["attempted"], failed=tally["failed"])
    if traced and stats.exists():
        result.traces["pointwise"] = json.loads(stats.read_text(encoding="utf-8"))
    return result


def run_pass(spec, seed, work, env, refs, traced) -> Pass:
    if spec["kind"] == "cli":
        return cli_pass(spec, seed, work, env, refs, traced)
    return pointwise_pass(work, env, traced)


def setup(spec, seed, work, env) -> tuple[float, float]:
    """One set-up: (fresh-interpreter import + input generation, the import alone) in seconds."""
    probe = "import phasechain.cli, phasechain; print(phasechain.__file__)"
    t0 = time.perf_counter()
    child = run_child([PY, "-c", probe], work, env)
    t1 = time.perf_counter()
    if child.rc != 0 or not Path(child.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"cannot import phasechain from {SRC}: {child.stderr.strip()[-300:]}")
    make_inputs(spec, seed, work)
    return time.perf_counter() - t0, t1 - t0


# ---------------------------------------------------------------------------
# metrics


def merge_stats(traces: dict) -> dict:
    merged: dict = {}
    for trace in traces.values():
        for name, s in trace["stats"].items():
            m = merged.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "peak": 0, "bytes": 0})
            for key in ("self_s", "incl_s", "calls", "bytes"):
                m[key] += s[key]
            m["peak"] = max(m["peak"], s["peak"])
    return merged


def span_metric(stats: dict, name: str) -> float:
    """`<span name>.<stat>` summed over the span and its variants (`<span name>.<variant>`)."""
    base, stat = name.rsplit(".", 1)
    rows = [s for n, s in stats.items() if n == base or n.startswith(base + ".")]
    if stat == "s":
        return sum(s["self_s"] for s in rows)
    if stat == "calls":
        return sum(s["calls"] for s in rows)
    if stat == "peak_mib":
        return max((s["peak"] for s in rows), default=0) / MIB
    if stat == "mb":
        return sum(s["bytes"] for s in rows) / 1e6
    if stat == "gbps":
        seconds = sum(s["incl_s"] for s in rows)
        return sum(s["bytes"] for s in rows) / seconds / 1e9 if seconds > 0 else 0.0
    raise KeyError(name)


def layer_metrics(untraced: Pass, traced: Pass, startup_s: float) -> dict:
    stats = merge_stats(traced.traces)
    suite = next((t["suite"] for t in traced.traces.values() if "suite" in t), None)
    special = {
        "cli.startup.s": startup_s,
        "checks.suite.vmhwm_mib": suite["peak_rss_mb"] if suite else 0.0,
        "checks.suite.child_rss_mib": traced.steps["check"][1] if "check" in traced.steps else 0.0,
        "trace.run_s": traced.wall,
        "trace.untraced_run_s": untraced.wall,
        "trace.overhead_s": traced.wall - untraced.wall,
        "trace.spans": float(sum(t["spans"] for t in traced.traces.values())),
    }
    for label in CLI_LABELS:
        wall, rss = untraced.steps.get(label, (0.0, 0.0))
        special[f"cli.{label}.s"] = wall
        special[f"cli.{label}.rss_mib"] = rss
    for name in CHECK_NAMES:
        special[f"checks.{name}.s"] = suite["seconds"].get(name, 0.0) if suite else 0.0
    return {name: special[name] if name in special else span_metric(stats, name) for name, _ in layer_catalog()}


def print_roadmap(untraced: Pass, traced: Pass):
    """The ROADMAP baseline table's layers next to this run: time per call and traced peak, or child RSS."""
    def span(label, name):
        s = traced.traces.get(label, {}).get("stats", {}).get(name)
        return (s["incl_s"] / s["calls"], s["peak"] / MIB) if s else (float("nan"), float("nan"))

    rows = [("wigner4", *span("wigner", "wigner.wigner4"))]
    rows += [(f"partial_derivative {ax}", *span("residual.psi-moyal", f"fields.partial_derivative.{ax}"))
             for ax in AXES]
    rows += [
        ("moyal_residual grid, quadratic U", *span("residual.psi-moyal", "moyal.moyal_residual.grid")),
        ("moyal_residual grid, quartic U", *span("residual.psi-moyal-quartic", "moyal.moyal_residual.grid")),
        ("mean_flux_from_w4 123", *span("fluxes", "vlasov.mean_flux_from_w4.123-accel")),
        ("write_field", *span("wigner", "fieldfile.write_field")),
        ("read_field", *span("marginal", "fieldfile.read_field")),
    ]
    for layer, label in (("CLI wigner --rank 4", "wigner"), ("CLI residual psi-moyal", "residual.psi-moyal"),
                         ("CLI residual vlasov123", "residual.vlasov123"),
                         ("CLI residual vlasov124", "residual.vlasov124"),
                         ("CLI residual vlasov12", "residual.vlasov12"), ("CLI check --suite ho", "check")):
        rows.append((layer, *untraced.steps.get(label, (float("nan"), float("nan")))))
    print("ROADMAP baseline vs this run (64^2; time per call and traced peak, CLI rows: child wall and ru_maxrss):")
    print(f"  {'layer':<36}{'ROADMAP':>20}{'measured':>22}  gap > 25%")
    for layer, secs, mib in rows:
        key = "partial_derivative (one axis)" if layer.startswith("partial_derivative") else layer
        base_s, base_mib = ROADMAP[key]
        gaps = [what for what, got, base in (("time", secs, base_s), ("peak", mib, base_mib))
                if not abs(got - base) <= 0.25 * base]
        print(f"  {layer:<36}{base_s:>8.2f} s {base_mib:>5.0f} MiB{secs:>10.2f} s {mib:>5.0f} MiB  "
              f"{', '.join(gaps) or '-'}")


# ---------------------------------------------------------------------------
# entry point


def machine() -> dict:
    def cache(index):
        try:
            return (Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text().strip())
        except OSError:
            return "unknown"

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    env = child_env()
    return {"nproc": os.cpu_count(), "cpu": model, "l2_per_core": cache(2), "l3_shared": cache(3),
            "python": platform.python_version(), "numpy": np.__version__,
            **{v: env[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def load_refs(spec: dict) -> dict:
    if spec["kind"] != "cli":
        return {}
    table = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    return table[str(spec["n"])]


def measure(spec: dict, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """One run of one workload: set up, then passes until `seconds` are used (at least the minimum)."""
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    refs = load_refs(spec)
    try:
        # set-ups are spread over the run, so that their median does not rest on one moment of the machine
        setups, pairs, passes = [], [], []
        t0 = time.perf_counter()
        minimum = 1 if trace else spec.get("min_passes", MIN_PASSES)
        while True:
            setups.append(setup(spec, seed, work, env))
            untraced = run_pass(spec, seed, work, env, refs, traced=False)
            passes.append(untraced)
            if trace:
                traced = run_pass(spec, seed, work, env, refs, traced=True)
                passes.append(traced)
                pairs.append((untraced, traced))
            rounds = len(pairs) if trace else len(passes)
            elapsed = time.perf_counter() - t0
            if rounds >= minimum and elapsed + elapsed / rounds > seconds:
                break
        while len(setups) < SETUP_REPEATS:
            setups.append(setup(spec, seed, work, env))
        setup_s = statistics.median(total for total, _ in setups)
        startup_s = statistics.median(imported for _, imported in setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass

    for i, p in enumerate(passes):
        kind = "traced" if trace and i % 2 else "untraced"
        extra = f"  check: suite VmHWM {p.check['vmhwm_mib']:.0f} MiB, child ru_maxrss " \
                f"{p.check['child_rss_mib']:.0f} MiB" if p.check else ""
        log(f"pass {i + 1} ({kind}): {p.wall:.3f} s wall, {p.cpu:.3f} s cpu, peak rss {p.peak_rss_mib:.1f} MiB, "
            f"{p.attempted - p.failed}/{p.attempted} ok{extra}")
        for e in p.errors[:5]:
            log(f"  FAILED {e}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        per_pair = [layer_metrics(u, t, startup_s) for u, t in pairs]
        values = {name: statistics.median(m[name] for m in per_pair) for name, _ in layer_catalog()}
        units = dict(layer_catalog())
        if spec["kind"] == "cli" and spec["n"] == 64:
            print_roadmap(*pairs[-1])
    else:
        values = {"setup_s": setup_s,
                  "run_s": statistics.median(p.wall for p in passes),
                  "cpu_s": statistics.median(p.cpu for p in passes),
                  "peak_rss_mib": statistics.median(p.peak_rss_mib for p in passes)}
        units = dict(END_TO_END)
        log(f"run_s median of {len(passes)} passes")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Every workload at tiny size, traced and untraced: all metrics present with units, nothing failed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness")
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", tuple(layer_catalog()))):
        if [(m["name"], m["unit"]) for m in declared[key]] != list(expected):
            problems.append(f"BENCHMARK.json {key} differs from the harness")
    for name, spec in WORKLOADS.items():
        tiny = dict(spec, min_passes=1)
        if spec["kind"] == "cli":
            tiny["n"] = SMOKE_N
        else:
            tiny["points"] = SMOKE_POINTS
        for trace in (False, True):
            result = measure(tiny, seed=1, seconds=0, trace=trace, log=lambda *_: None)
            expected = layer_catalog() if trace else END_TO_END
            missing = [m for m, unit in expected
                       if not isinstance(result["metrics"].get(m, {}).get("value"), float)
                       or result["metrics"][m].get("unit") != unit]
            print(f"smoke {name} trace={int(trace)}: {result['attempted']} attempted, {result['failed']} failed, "
                  f"{len(expected) - len(missing)}/{len(expected)} metrics")
            if missing or result["failed"] or not result["attempted"]:
                problems.append(f"{name} trace={int(trace)}: failed {result['failed']}, missing {missing[:5]}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload; exit 1 on any gap")
    args = parser.parse_args(argv)
    if not (SRC / "phasechain" / "__init__.py").is_file():
        print(f"error: no phasechain source under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    print("machine: " + json.dumps(machine()))
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
