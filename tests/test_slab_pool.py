"""The slab pool: N workers give one worker's results bit for bit, errors and np.errstate cross the threads.

The worker count is the size of the process's CPU affinity, so the tests set
it by patching os.sched_getaffinity. The slab budget is split among the
workers; the tests scale it with the worker count so that every count cuts
the same slabs, and compare bytes.
"""

import contextlib
import functools
import inspect
import io
import math
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

import phasechain.fields as fields_mod
import phasechain.wigner as wigner_mod
from phasechain import (
    ComplexField,
    FieldFormatError,
    NumericError,
    PhysParams,
    PolynomialPotential,
    RealField,
    StencilScheme,
    ValidationError,
    accel_flux_124_from_w4,
    divergence_series_gap,
    integrate_axis,
    make_axis,
    mean_flux_from_w4,
    moyal_residual,
    moyal_residual_slabs,
    moyal_rhs,
    read_field,
    stencil_coefficients,
    transport_lhs,
    vlasov_moyal_accel_flux,
    vlasov_residual,
    wigner3,
    wigner4,
    wigner24,
    write_field,
)
from phasechain.cli import main
from phasechain.fields import _apply_stencil_along_axis, _map_slabs, _x_slabs, stencil_halfwidth

from conftest import child_env

P = PhysParams(m=1.3)
SHAPE = (12, 8, 10, 12)
QUARTIC = PolynomialPotential(((0, 2, 1.5), (2, 0, -0.5), (4, 0, 0.01), (2, 2, 0.3), (1, 3, -0.2)))
WORKERS = (1, 2, 3)
ROW = 8 * math.prod(SHAPE[1:])  # bytes of one x-row of the rank-4 test field


def set_workers(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    fields_mod._workers.cache_clear()


@pytest.fixture(autouse=True)
def fresh_worker_count():
    fields_mod._workers.cache_clear()
    yield
    fields_mod._workers.cache_clear()


def per_worker_count(monkeypatch, compute, slab_rows=None, row_bytes=None):
    """compute() once for each worker count; slab_rows x-rows per slab whatever the count, if given."""
    results = []
    for n in WORKERS:
        set_workers(monkeypatch, n)
        if slab_rows is not None:
            monkeypatch.setattr(fields_mod, "_SLAB_BYTES", slab_rows * row_bytes * n)
        results.append(compute())
    return results


def same_bits(a, b) -> bool:
    # compared as integers: -0.0 and 0.0 differ, and equal NaNs are equal
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def same_bytes(results):
    return all(same_bits(r, results[0]) for r in results[1:])


@pytest.fixture(scope="module")
def w4():
    axes = tuple(make_axis(name, -3.0, 3.0, n) for name, n in zip(("x", "v", "vdot", "vddot"), SHAPE))
    mesh = np.meshgrid(*[a.points() for a in axes], indexing="ij", sparse=True)
    bump = np.exp(-sum(c * c for c in mesh))
    return RealField(axes, bump + 0.01 * np.random.default_rng(7).standard_normal(SHAPE))


# --- the pool itself -----------------------------------------------------------

def test_results_come_in_order_with_bounded_tasks_in_flight(monkeypatch):
    set_workers(monkeypatch, 3)
    running, most, lock = [0], [0], threading.Lock()

    def task(lo, hi):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        time.sleep(0.002 * (lo % 3))  # finish out of order
        with lock:
            running[0] -= 1
        return lo, hi, threading.current_thread().name

    ranges = [(i, i + 1) for i in range(20)]
    out = list(_map_slabs(task, ranges))
    assert [(lo, hi) for lo, hi, _ in out] == ranges
    assert most[0] <= 3
    assert all(name.startswith("phasechain-slab") for _, _, name in out)


def test_an_idle_worker_keeps_nothing_of_its_last_task(monkeypatch):
    # a worker that held its last job would keep that task's closure (a whole W, say) and result alive
    set_workers(monkeypatch, 2)

    class Payload:
        pass

    payload = Payload()
    gone = weakref.ref(payload)
    assert len(list(_map_slabs(lambda lo, hi: payload, [(0, 1), (1, 2), (2, 3)]))) == 3
    del payload
    for _ in range(100):
        if gone() is None:
            break
        time.sleep(0.01)
    assert gone() is None


def _slab_sum_in_child(queue):
    queue.put(sum(_map_slabs(lambda lo, hi: lo, [(i, i + 1) for i in range(6)])))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_starts_its_own_pool(monkeypatch):
    import multiprocessing

    set_workers(monkeypatch, 2)
    assert sum(_map_slabs(lambda lo, hi: lo, [(i, i + 1) for i in range(6)])) == 15  # the parent's pool runs
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_slab_sum_in_child, args=(queue,))
    child.start()
    child.join(timeout=20)
    alive = child.is_alive()
    if alive:
        child.kill()
    assert not alive and child.exitcode == 0 and queue.get(timeout=5) == 15


# Every slab but the first sleeps, so a job is still in flight when the script ends. The wrapper lives in a
# module of its own: a worker's frame in a function of the script would keep the script's globals, and with
# them the generator, alive past the exit. The script binds `fields` itself, as the hung scripts did; bound
# only through the package, the generator was never closed at exit.
SLOW_SLABS = """
import time
import phasechain.moyal
continuity = phasechain.moyal._continuity

def slow(view, *args):
    time.sleep(2.0 if view.lo else 0.0)
    return continuity(view, *args)

phasechain.moyal._continuity = slow
"""

LEFT_PART_WAY = """
import numpy as np
import slow_slabs
from phasechain import PhysParams, RealField, StencilScheme, fields, make_axis, moyal_residual_slabs, u12_polynomial
fields._workers = lambda: 2
axes = tuple(make_axis(name, -4.0, 4.0, 32) for name in ("x", "v", "vdot", "vddot"))
rows = moyal_residual_slabs(RealField(axes, np.random.default_rng(0).random((32,) * 4)),
                            u12_polynomial(PhysParams()), PhysParams(), StencilScheme(order=4))
lo, hi, block = next(rows)
assert lo == 0 and hi < 32
"""


def test_a_slab_loop_left_part_way_lets_the_interpreter_exit(tmp_path):
    # the generator is closed at exit, with a job in flight on a daemon worker that can no longer run
    (tmp_path / "slow_slabs.py").write_text(SLOW_SLABS, encoding="utf-8")
    env = child_env()
    for _ in range(5):
        done = subprocess.run([sys.executable, "-c", LEFT_PART_WAY], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("n, ranges", [(1, [(0, 1), (1, 2)]), (3, [(0, 5)])])
def test_one_worker_or_one_range_runs_inline(monkeypatch, n, ranges):
    set_workers(monkeypatch, n)
    names = list(_map_slabs(lambda lo, hi: threading.current_thread(), ranges))
    assert names == [threading.main_thread()] * len(ranges)


def test_a_slab_task_may_start_a_slab_loop(monkeypatch, w4):
    # the inner loop runs on the worker that asked for it: queued on the pool, its jobs would wait behind
    # the outer tasks, which wait for them
    set_workers(monkeypatch, 2)
    monkeypatch.setattr(fields_mod, "_SLAB_BYTES", 1)  # one row a slab, inner and outer
    want = integrate_axis(w4, "vddot").data
    got = []

    def task(lo, hi):
        return threading.current_thread(), integrate_axis(w4, "vddot").data

    outer = threading.Thread(target=lambda: got.extend(_map_slabs(task, [(i, i + 1) for i in range(4)])), daemon=True)
    outer.start()
    outer.join(timeout=60)
    if outer.is_alive():
        fields_mod._pool.cache_clear()  # the hung workers stay blocked; later tests get a pool of their own
        pytest.fail("a slab loop started in a slab task never finished")
    assert len(got) == 4
    assert all(thread.name.startswith("phasechain-slab") for thread, _ in got)
    assert all(same_bits(inner, want) for _, inner in got)


def test_tasks_run_in_the_callers_errstate(monkeypatch):
    set_workers(monkeypatch, 2)
    with np.errstate(all="ignore"):
        seen = list(_map_slabs(lambda lo, hi: np.geterr()["over"], [(0, 1), (1, 2), (2, 3)]))
    assert seen == ["ignore"] * 3
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            list(_map_slabs(lambda lo, hi: np.float64(1e300) * np.float64(1e300), [(0, 1), (1, 2)]))


def test_a_task_error_surfaces_unchanged_after_the_tasks_in_flight(monkeypatch):
    set_workers(monkeypatch, 2)
    boom, done = ValueError("slab 3"), []

    def task(lo, hi):
        if lo == 3:
            raise boom
        time.sleep(0.01)
        done.append(lo)
        return lo

    with pytest.raises(ValueError) as exc:
        list(_map_slabs(task, [(i, i + 1) for i in range(8)]))
    assert exc.value is boom
    finished = sorted(done)
    time.sleep(0.05)
    assert sorted(done) == finished  # nothing ran on after the error was raised
    assert set(finished) <= {0, 1, 2, 4}


def test_slabs_split_the_budget_among_the_workers(monkeypatch):
    data = np.zeros((10, 256))  # 2 KiB rows
    monkeypatch.setattr(fields_mod, "_SLAB_BYTES", 8 * 2048)
    heights = {}
    for n in (1, 2, 3, 16):
        set_workers(monkeypatch, n)
        heights[n] = {hi - lo for lo, hi in _x_slabs(data)[:-1]}
    assert heights == {1: {8}, 2: {4}, 3: {2}, 16: {1}}


@pytest.mark.parametrize("madds", [1 << 18, 300])
@pytest.mark.parametrize("axis", range(4))
def test_stencil_bits_do_not_depend_on_source_alignment(monkeypatch, w4, axis, madds):
    # matmul copies an unaligned source (the payload of a version-1 field file) whole before BLAS reads it;
    # the BLAS calls, blocks of `step` columns or rows and the shorter last one, are the same
    monkeypatch.setattr(fields_mod, "_BLAS_MADDS", madds)
    raw = np.empty(w4.data.nbytes + 8, dtype=np.uint8)[3 : 3 + w4.data.nbytes]
    unaligned = raw.view(np.float64).reshape(SHAPE)
    unaligned[...] = w4.data
    assert not unaligned.flags.aligned
    n = SHAPE[axis]
    for power, order in ((1, 4), (3, 6)):
        coeffs, w = stencil_coefficients(power, order), stencil_halfwidth(power, order)
        for lo, hi in ((0, n), (1, 4), (n - 2, n)):
            results = [_apply_stencil_along_axis(data, axis, coeffs, w, 0.5, power, lo, hi)
                       for data in (w4.data, unaligned)]
            assert same_bytes(results), (power, order, lo, hi)


# --- N workers against one, bit for bit ------------------------------------------

@pytest.mark.parametrize("shape", [(16, 32), (32, 16), (64, 64)])
def test_wigner4_bytes_do_not_depend_on_the_worker_count(monkeypatch, shape):
    axes = (make_axis("x", -3.0, 3.0, shape[0]), make_axis("v", -2.0, 2.0, shape[1]))
    rng = np.random.default_rng(shape[0] + 7 * shape[1])
    psi = ComplexField(axes, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    ref = None
    for n in WORKERS:  # one W alive at a time besides the reference: 128 MiB each at 64^2
        set_workers(monkeypatch, n)
        got = wigner4(psi, P).data
        ref = got if ref is None else ref
        assert same_bits(got, ref), n
        del got
    set_workers(monkeypatch, 2)
    assert len(_x_slabs(ref)) > 1


def test_moyal_slabs_do_not_depend_on_the_worker_count(monkeypatch, w4):
    scheme = StencilScheme(order=6)
    dt = np.random.default_rng(3).standard_normal(SHAPE)

    def blocks():
        got = list(moyal_residual_slabs(w4, QUARTIC, P, scheme, dt_term=dt))
        assert [(lo, hi) for lo, hi, _ in got] == [(lo, min(lo + 2, SHAPE[0])) for lo in range(0, SHAPE[0], 2)]
        return np.concatenate([b for _, _, b in got])

    assert same_bytes(per_worker_count(monkeypatch, blocks, 2, ROW))


@pytest.mark.parametrize("what", ["transport", "series", "chain4", "w123", "closure", "gap"])
def test_slab_evaluations_do_not_depend_on_the_worker_count(monkeypatch, w4, what):
    scheme = StencilScheme(order=4)
    w3 = integrate_axis(w4, "vddot", weight=P.m)
    u1 = PolynomialPotential(((2, 0, 0.5), (4, 0, 0.02)))
    compute = {
        "transport": lambda: transport_lhs(w4, QUARTIC, P, scheme).data,
        "series": lambda: moyal_rhs(w4, QUARTIC, P, scheme).data,
        "chain4": lambda: vlasov_residual("chain4", w4, {"vddot": lambda x, v, vd, vdd: -x * v}, P, scheme).data,
        "w123": lambda: vlasov_residual("w123", w3, {"vdot": mean_flux_from_w4(w4, "123-accel", P)},
                                        P, scheme, QUARTIC).data,
        "closure": lambda: vlasov_moyal_accel_flux(w4, u1, P, scheme, mask_threshold=0.05).values.data,
        "gap": lambda: np.array([divergence_series_gap(u1, w4, P, scheme)]),
    }[what]
    row = ROW // SHAPE[3] if what == "w123" else ROW
    assert same_bytes(per_worker_count(monkeypatch, compute, 3, row))


@pytest.mark.parametrize("kind", ["123-accel", "124-vel", "12-vel", "124-accel"])
def test_fluxes_do_not_depend_on_the_worker_count(monkeypatch, w4, kind):
    def flux():
        if kind == "124-accel":
            fl = accel_flux_124_from_w4(w4, QUARTIC, P, StencilScheme(order=6), 0.2)
        else:
            fl = mean_flux_from_w4(w4, kind, P, 0.2)
        assert 0.0 < fl.masked_fraction < 1.0
        return np.concatenate([fl.values.data.ravel(), fl.mask.ravel().astype(float)])

    assert same_bytes(per_worker_count(monkeypatch, flux, 1, ROW))


@pytest.mark.parametrize("axis", ["x", "v", "vdot", "vddot"])
def test_integrate_axis_does_not_depend_on_the_worker_count(monkeypatch, w4, axis):
    k = w4.axis_index(axis)
    dense = w4.data.sum(axis=k) * (P.m * w4.axes[k].step)
    results = per_worker_count(monkeypatch, lambda: integrate_axis(w4, axis, weight=P.m).data, 1, ROW)
    assert same_bytes([dense] + results)
    psi = ComplexField((w4.axes[0], w4.axes[1]), w4.data[:, :, 0, 0] + 1j * w4.data[:, :, 1, 1])
    dense = psi.data.sum(axis=1) * psi.axes[1].step
    results = per_worker_count(monkeypatch, lambda: integrate_axis(psi, "v").data, 1, 16 * SHAPE[1])
    assert same_bytes([dense] + results)


# --- errors raised in a worker ---------------------------------------------------

def test_a_non_finite_flux_is_refused_from_a_worker(monkeypatch, w4):
    flux = np.ones(SHAPE[:3])
    flux[-1, 2, 3] = np.inf  # in the last slab
    w3 = integrate_axis(w4, "vddot")
    for n in WORKERS:
        set_workers(monkeypatch, n)
        monkeypatch.setattr(fields_mod, "_SLAB_BYTES", w3.data[0].nbytes * n)
        with pytest.raises(ValidationError, match="field times flux contains non-finite values"):
            vlasov_residual("w123", w3, {"vdot": flux}, P, StencilScheme(), QUARTIC)


def test_the_imaginary_residue_check_fires_for_every_worker_count(monkeypatch):
    axes = (make_axis("x", -3.0, 3.0, 32), make_axis("v", -2.0, 2.0, 16))
    rng = np.random.default_rng(5)
    psi = ComplexField(axes, rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16)))
    monkeypatch.setattr(wigner_mod, "IMAG_RESIDUE_LIMIT", 0.0)
    for transform in (wigner4, wigner3, wigner24):
        messages = []
        for n in WORKERS:
            set_workers(monkeypatch, n)
            with pytest.raises(NumericError, match="imaginary residue") as exc:
                transform(psi, P)
            messages.append(str(exc.value))
        assert len(set(messages)) == 1, transform.__name__


@pytest.mark.parametrize("where", [0, -1])
def test_a_nan_in_any_slab_of_a_payload_is_a_format_error(monkeypatch, w4, tmp_path, where):
    path = tmp_path / "w4.fld"
    write_field(w4, path)
    blob = bytearray(path.read_bytes())
    at = len(blob) - 8 if where == -1 else len(blob) - w4.data.nbytes
    blob[at : at + 8] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    for n in WORKERS:
        set_workers(monkeypatch, n)
        monkeypatch.setattr(fields_mod, "_SLAB_BYTES", ROW * n)
        with pytest.raises(FieldFormatError, match="non-finite"):
            read_field(path)


def test_wigner4_refuses_a_non_finite_transform(monkeypatch):
    axes = (make_axis("x", -3.0, 3.0, 16), make_axis("v", -2.0, 2.0, 32))
    psi = ComplexField(axes, np.full((16, 32), 1e200 + 0j))  # the products overflow
    for n in WORKERS:
        set_workers(monkeypatch, n)
        with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite"):
            wigner4(psi, P)


def test_no_runtime_warning_escapes_the_cli_on_a_multi_slab_field(monkeypatch, tmp_path):
    set_workers(monkeypatch, 2)
    psi, w4_path = tmp_path / "psi.fld", tmp_path / "w4.fld"
    pot = tmp_path / "u.txt"
    pot.write_text("0 2 1.5\n4 0 1e306\n", encoding="utf-8")  # dU/dx overflows in the slab tasks
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        assert main(["gen-ho", "--nx", "32", "--nv", "32", "--out", str(psi)]) == 0
        assert main(["wigner", "--in", str(psi), "--out", str(w4_path)]) == 0
        assert len(_x_slabs(read_field(w4_path).data)) > 1
        codes = [main(["residual", "--in", str(w4_path), "--potential", str(pot), "--mode", mode])
                 for mode in ("psi-moyal", "vlasov124")]
    assert not caught, [str(w.message) for w in caught]
    # psi-moyal's max is not finite; vlasov124's flux product is refused in a slab task
    assert codes == [3, 1], (codes, err.getvalue())
    assert err.getvalue() == ("numeric failure: the residual is not finite (max|residual| = nan)\n"
                              "error: field times flux contains non-finite values\n")


# --- tooling starts no thread -----------------------------------------------------

GUARD = """
import sys, threading
import phasechain, phasechain.cli
assert threading.active_count() == 1 and "concurrent.futures" not in sys.modules, "import"
from phasechain.cli import main
for argv in sys.argv[1:]:
    assert main(argv.split()) == 0
    assert threading.active_count() == 1 and "concurrent.futures" not in sys.modules, argv
print("ok")
"""


def test_import_gen_ho_and_export_csv_start_no_thread(tmp_path):
    axes = (make_axis("x", -2.0, 2.0, 16), make_axis("v", -2.0, 2.0, 16))
    write_field(integrate_axis(wigner4(ComplexField(axes, np.ones((16, 16), complex)), P), "vddot"),
                tmp_path / "w123.fld")
    env = child_env()
    argvs = ["gen-ho --nx 16 --nv 16 --out psi.fld", "gen-ho --out psi64.fld",
             "export-csv --in w123.fld --slice vdot=0 --out line.csv"]
    done = subprocess.run([sys.executable, "-c", GUARD, *argvs], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stdout.endswith("ok\n"), done.stderr


# --- slab tasks call only private code ---------------------------------------------

@pytest.fixture
def calls_off_the_main_thread(monkeypatch):
    """The names of the public functions called on any thread but the main one.

    Every function in each library module's __all__ is wrapped on every module
    that binds it, as benchmarks/tracer.py wraps its targets; that recorder
    keeps one span stack per process, so a slab task must call none of them.
    A function behind a decorator that keeps __wrapped__ (functools.lru_cache,
    say) is wrapped too.
    """
    return wrap_public_functions(monkeypatch)


def wrap_public_functions(monkeypatch):
    """The calls_off_the_main_thread fixture, for a test that patches a module before the wrapping."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "phasechain" or n.startswith("phasechain.")]
    calls = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner in modules:
        for name in getattr(owner, "__all__", ()):
            original = getattr(owner, name)
            if inspect.isfunction(inspect.unwrap(original)) and original.__module__ == owner.__name__:
                wrapped = wrap(f"{owner.__name__}.{name}", original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        monkeypatch.setattr(mod, name, wrapped)
    return calls


def test_slab_tasks_call_no_public_function(monkeypatch, w4, calls_off_the_main_thread):
    set_workers(monkeypatch, 2)
    monkeypatch.setattr(fields_mod, "_SLAB_BYTES", 1)  # one row a slab, the last one too
    scheme = StencilScheme(order=4)
    u1 = PolynomialPotential(((2, 0, 0.5), (4, 0, 0.02)))
    axes = (make_axis("x", -3.0, 3.0, 16), make_axis("v", -2.0, 2.0, 8))
    psi = ComplexField(axes, np.random.default_rng(4).standard_normal((16, 8)) + 0j)
    divergence_series_gap(u1, w4, P, scheme)
    moyal_residual(w4, QUARTIC, P, scheme)
    list(moyal_residual_slabs(w4, QUARTIC, P, scheme))
    vlasov_residual("chain4", w4, {"vddot": lambda x, v, vd, vdd: -x * v}, P, scheme)
    vlasov_moyal_accel_flux(w4, u1, P, scheme, mask_threshold=0.05)
    for kind in ("123-accel", "124-vel", "12-vel"):
        mean_flux_from_w4(w4, kind, P, 0.2)
    accel_flux_124_from_w4(w4, QUARTIC, P, scheme, 0.2)
    for axis in ("v", "vdot", "vddot"):
        integrate_axis(w4, axis)
    wigner4(psi, P)
    assert calls_off_the_main_thread == []
    # the recorder sees a public call made in a slab task
    list(_map_slabs(lambda lo, hi: fields_mod.make_axis("x", lo, hi, 4), [(0, 1), (1, 2)]))
    assert calls_off_the_main_thread == ["phasechain.fields.make_axis"] * 2


def test_the_guard_wraps_a_cached_public_function(monkeypatch):
    set_workers(monkeypatch, 2)
    monkeypatch.setattr(fields_mod, "make_axis", functools.lru_cache(fields_mod.make_axis))
    calls = wrap_public_functions(monkeypatch)
    list(_map_slabs(lambda lo, hi: fields_mod.make_axis("x", lo, hi, 4), [(0, 1), (1, 2)]))
    assert calls == ["phasechain.fields.make_axis"] * 2
