"""Command-line interface: subcommands, printed contracts, exit codes."""

import contextlib
import io
import math
import os
import stat
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasechain import RealField, make_axis, read_field, sample_real, write_field
from phasechain import checks, cli
from phasechain.checks import SuiteReport
from phasechain.cli import main
from phasechain.fields import ComplexField


@pytest.fixture(scope="module")
def psi_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "psi.fld"
    assert main(["gen-ho", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def w4_path(psi_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "w4.fld"
    assert main(["wigner", "--in", str(psi_path), "--rank", "4", "--out", str(path)]) == 0
    return path


def test_gen_ho_defaults(psi_path, capsys):
    field = read_field(psi_path)
    assert isinstance(field, ComplexField)
    assert field.data.shape == (64, 64)
    assert field.axes[0].min == -8.0 and field.axes[0].step == 0.25
    # center node value sqrt(1/pi) + 0i
    assert field.data[32, 32] == pytest.approx(math.sqrt(1.0 / math.pi), rel=1e-6)
    assert abs(field.data[32, 32].imag) < 1e-15


def test_gen_ho_is_deterministic(tmp_path, psi_path):
    other = tmp_path / "again.fld"
    assert main(["gen-ho", "--out", str(other)]) == 0
    assert other.read_bytes() == psi_path.read_bytes()


def test_wigner_rank4(w4_path, psi_path, capsys, tmp_path):
    again = tmp_path / "w4b.fld"
    assert main(["wigner", "--in", str(psi_path), "--out", str(again)]) == 0
    out = capsys.readouterr().out
    assert "dual axis vdot: [-6.28318531, 6.28318531) step 0.196349541, n = 64" in out
    assert "dual axis vddot" in out
    w4 = read_field(w4_path)
    assert tuple(a.name for a in w4.axes) == ("x", "v", "vdot", "vddot")
    assert w4.data[32, 32, 32, 32] == pytest.approx(1.0 / math.pi**2, abs=1e-9)
    assert again.read_bytes() == w4_path.read_bytes()  # deterministic


def test_wigner_reduced_ranks(psi_path, tmp_path, capsys):
    out3 = tmp_path / "w3.fld"
    assert main(["wigner", "--in", str(psi_path), "--rank", "3", "--out", str(out3)]) == 0
    printed = capsys.readouterr().out
    assert "real rank-3 field on (x x v x vdot)" in printed
    w3 = read_field(out3)
    assert w3.data[32, 32, 32] == pytest.approx(0.17959, rel=1e-4)
    out24 = tmp_path / "w24.fld"
    assert main(["wigner", "--in", str(psi_path), "--rank", "24", "--out", str(out24)]) == 0
    assert tuple(a.name for a in read_field(out24).axes) == ("x", "v", "vddot")


def test_wigner_rejects_real_input(w4_path, tmp_path, capsys):
    out = tmp_path / "nope.fld"
    assert main(["wigner", "--in", str(w4_path), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_marginal(w4_path, tmp_path, capsys):
    out = tmp_path / "w123.fld"
    assert main(["marginal", "--in", str(w4_path), "--axis", "vddot", "--out", str(out)]) == 0
    w123 = read_field(out)
    assert tuple(a.name for a in w123.axes) == ("x", "v", "vdot")
    assert w123.data[32, 32, 32] == pytest.approx(math.pi**-1.5, abs=1e-8)
    # the axis is already gone in the reduced field
    assert main(["marginal", "--in", str(out), "--axis", "vddot", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["0", "-1", "nan", "inf"])
def test_marginal_weight_must_be_positive_and_finite(w4_path, tmp_path, capsys, m):
    out = tmp_path / "w123.fld"
    with pytest.raises(SystemExit) as exc:
        main(["marginal", "--in", str(w4_path), "--axis", "vddot", "--m", m, "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "argument --m: must be positive and finite" in err
    assert not out.exists()


def test_fluxes_writes_values_and_mask(w4_path, tmp_path, capsys):
    # the transform fixes the traced axis range at +-2 pi, so the moment is
    # slightly truncated where the density is weakest; a 1e-2 mask keeps the
    # flux clean to 1e-6
    out = tmp_path / "flux123.fld"
    assert main(["fluxes", "--in", str(w4_path), "--which", "123",
                 "--mask-threshold", "1e-2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "123-accel flux on (x x v x vdot)" in printed
    vals = read_field(out)
    mask = read_field(str(out) + ".mask")
    assert vals.data.shape == mask.data.shape
    assert set(np.unique(mask.data)) <= {0.0, 1.0}
    sel = mask.data > 0
    v = vals.axes[1].points()[None, :, None]
    assert np.abs(vals.data - v)[sel].max() < 1e-6
    frac = 1.0 - sel.sum() / sel.size
    assert f"masked fraction {frac:.4f}" in printed


def test_fluxes_12_lands_on_xv(w4_path, tmp_path):
    out = tmp_path / "flux12.fld"
    assert main(["fluxes", "--in", str(w4_path), "--which", "12", "--out", str(out)]) == 0
    vals = read_field(out)
    assert tuple(a.name for a in vals.axes) == ("x", "v")


def potential_file(tmp_path, text):
    path = tmp_path / "u.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_residual_psi_moyal(w4_path, tmp_path, capsys):
    pot = potential_file(tmp_path, "0 2 1.5\n2 0 -0.5\n")
    report = tmp_path / "report.txt"
    code = main(["residual", "--in", str(w4_path), "--potential", pot,
                 "--mode", "psi-moyal", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    assert lines[0].startswith("max|residual|       = ")
    assert lines[1].startswith("max|residual|/peak  = ")
    assert lines[2].startswith("masked fraction     = ")
    assert report.read_text() == "\n".join(lines) + "\n"


def test_a_non_finite_psi_moyal_residual_is_a_numeric_failure(tmp_path, capsys):
    # U' overflows near the x edges, so every slab's block has a NaN; a max that drops NaN printed -inf
    psi, w4, report = tmp_path / "psi.fld", tmp_path / "w4.fld", tmp_path / "report.txt"
    assert main(["gen-ho", "--nx", "16", "--nv", "16", "--out", str(psi)]) == 0
    assert main(["wigner", "--in", str(psi), "--rank", "4", "--out", str(w4)]) == 0
    pot = potential_file(tmp_path, "0 2 1.5\n2 0 -0.5\n4 0 1e306\n")
    capsys.readouterr()
    assert main(["residual", "--in", str(w4), "--potential", pot, "--mode", "psi-moyal",
                 "--report", str(report)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric failure: the residual is not finite (max|residual| = nan)\n"
    assert not report.exists()


@pytest.mark.parametrize("mode", ["vlasov123", "vlasov124", "vlasov12"])
def test_residual_chain_modes(w4_path, tmp_path, capsys, mode):
    # the chain closures need the governing potential, including its v^2 part
    pot = potential_file(tmp_path, "0 2 1.5\n2 0 -0.5\n")
    code = main(["residual", "--in", str(w4_path), "--potential", pot,
                 "--mode", mode, "--mask-threshold", "1e-2"])
    assert code == 0
    out = capsys.readouterr().out
    rel = float(out.splitlines()[1].split("=")[1])
    assert rel < 0.05  # coarse-grid stencil error only


def test_residual_with_empty_mask_is_numeric_failure(w4_path, tmp_path, capsys):
    # at 0.99 of the peak only the central node survives, and eroding it by
    # the stencil halfwidth leaves nothing to evaluate
    pot = potential_file(tmp_path, "2 0 0.5\n")
    code = main(["residual", "--in", str(w4_path), "--potential", pot,
                 "--mode", "vlasov12", "--mask-threshold", "0.99"])
    assert code == 3
    assert "numeric failure: no valid points left after masking" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "1", "1.5", "1e400", "abc"])
@pytest.mark.parametrize("command", ["fluxes", "residual"])
def test_bad_mask_threshold_exits_1(w4_path, tmp_path, capsys, command, value):
    # a threshold is a fraction of the density peak: below 0 nothing is masked
    # (W can be negative), at 1 or above nothing is left
    out = tmp_path / "flux.fld"
    argv = {
        "fluxes": ["fluxes", "--in", str(w4_path), "--which", "123", "--out", str(out)],
        "residual": ["residual", "--in", str(w4_path), "--potential", potential_file(tmp_path, "2 0 0.5\n"),
                     "--mode", "vlasov12"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--mask-threshold", value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--mask-threshold" in err
    assert not out.exists()


def test_export_csv(w4_path, tmp_path, capsys):
    out = tmp_path / "slice.csv"
    code = main(["export-csv", "--in", str(w4_path),
                 "--slice", "vdot=0,vddot=0", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "4096 rows over (x, v), pinned vdot = 0, vddot = 0" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "x,v,value"
    assert len(lines) == 1 + 64 * 64
    # re-ingesting the text reproduces the stored samples exactly
    w4 = read_field(w4_path)
    vals = np.array([float(ln.rsplit(",", 1)[1]) for ln in lines[1:]])
    assert vals.tobytes() == w4.data[:, :, 32, 32].copy().tobytes()


def test_export_csv_bad_slice(w4_path, tmp_path, capsys):
    out = tmp_path / "slice.csv"
    assert main(["export-csv", "--in", str(w4_path), "--slice", "vdot=0", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("pin", ["nan", "inf", "-inf", "1e400", "-1e400"])
def test_export_csv_rejects_non_finite_pins(w4_path, tmp_path, capsys, pin):
    out = tmp_path / "slice.csv"
    assert main(["export-csv", "--in", str(w4_path), "--slice", f"vdot=0,vddot=0,x={pin}",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err
    assert not out.exists()


def test_export_csv_huge_pin_snaps_to_the_end_node(w4_path, tmp_path, capsys):
    out = tmp_path / "slice.csv"
    assert main(["export-csv", "--in", str(w4_path), "--slice", "vdot=0,vddot=0,x=1.7e308",
                 "--out", str(out)]) == 0
    assert "64 rows over (v), pinned x = 7.75, vdot = 0, vddot = 0" in capsys.readouterr().out


def test_check_suite_passes_and_warns_on_odd_hbar2(capsys):
    code = main(["check", "--suite", "ho", "--hbar2", "2.0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning: --hbar2 2.0 is not the consistent value" in captured.err
    lines = captured.out.splitlines()
    assert len([ln for ln in lines if ln.startswith("[")]) == 7
    assert "all checks passed: 7/7" in lines[-1]


@pytest.mark.parametrize("flag", ["--m", "--hbar", "--omega"])
@pytest.mark.parametrize("value", ["0", "1", None])
def test_check_refuses_the_physics_flags(capsys, monkeypatch, flag, value):
    # the suite runs at m = hbar = omega = 1; --hbar must not pass as an abbreviation of --hbar2
    monkeypatch.setattr(checks, "run_ho_suite", _quick_suite)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "ho", flag] + ([value] if value else []))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"argument {flag}: not taken" in err


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.5e1", "-2.5e+0", "-1e0", "-3"])
def test_float_flags_take_negative_exponent_values(tmp_path, capsys, value):
    path = tmp_path / "psi.fld"
    assert main(["gen-ho", "--nx", "8", "--nv", "8", "--xmin", value, "--xmax", "8", "--vmin", value,
                 "--t", value, "--out", str(path)]) == 0
    field = read_field(path)
    assert field.axes[0].min == float(value) and field.axes[1].min == float(value)
    assert f"t = {float(value):g}" in capsys.readouterr().out


def test_flag_errors_exit_1(capsys):
    for argv in (
        [],
        ["no-such-command"],
        ["gen-ho"],  # --out missing
        ["wigner", "--in", "x.fld", "--rank", "5", "--out", "y.fld"],
        ["check", "--suite", "xy"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_io_errors_exit_2(tmp_path, capsys, w4_path):
    missing = tmp_path / "absent.fld"
    assert main(["wigner", "--in", str(missing), "--out", str(tmp_path / "o.fld")]) == 2
    corrupt = tmp_path / "corrupt.fld"
    corrupt.write_bytes(b"JUNKJUNKJUNK")
    assert main(["marginal", "--in", str(corrupt), "--axis", "vdot",
                 "--out", str(tmp_path / "o.fld")]) == 2
    pot = tmp_path / "missing_potential.txt"
    assert main(["residual", "--in", str(w4_path), "--potential", str(pot),
                 "--mode", "psi-moyal"]) == 2
    assert capsys.readouterr().err.count("i/o error:") == 3


def test_non_finite_payload_is_an_io_error(tmp_path, capsys):
    axes = tuple(make_axis(n, -1.0, 1.0, 4) for n in ("x", "v", "vdot", "vddot"))
    path = tmp_path / "nan.fld"
    write_field(RealField(axes, np.zeros((4, 4, 4, 4))), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8] + np.float64(np.nan).tobytes())
    # the reader rejects the file, so this is exit 2 (file i/o), not 1 (validation)
    assert main(["marginal", "--in", str(path), "--axis", "vdot",
                 "--out", str(tmp_path / "o.fld")]) == 2
    assert "i/o error:" in capsys.readouterr().err


def test_validation_errors_exit_1(tmp_path, capsys):
    assert main(["gen-ho", "--m", "-1.0", "--out", str(tmp_path / "x.fld")]) == 1
    # rank-4 commands demand canonical axes
    axes = (make_axis("x", -1.0, 1.0, 4), make_axis("v", -1.0, 1.0, 4))
    small = sample_real(lambda x, v: np.exp(-x * x - v * v), axes)
    path = tmp_path / "small.fld"
    write_field(small, path)
    assert main(["fluxes", "--in", str(path), "--which", "123",
                 "--out", str(tmp_path / "f.fld")]) == 1
    assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("command", [["fluxes", "--which", "123", "--out", "f.fld"],
                                     ["residual", "--potential", "u.txt", "--mode", "vlasov12"]])
def test_rank4_commands_refuse_a_wave_function(psi_path, tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.txt").write_text("2 0 0.5\n", encoding="utf-8")
    capsys.readouterr()
    assert main([command[0], "--in", str(psi_path), *command[1:]]) == 1
    assert capsys.readouterr().err == "error: field must have axes ('x', 'v', 'vdot', 'vddot'), got ('x', 'v')\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["u.txt"]


def test_negative_seed_is_a_flag_error(capsys):
    for seed in ("-1", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "ho", "--seed", seed])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err and "non-negative integer" in err


def test_non_numeric_hbar2_is_a_flag_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-ho", "--hbar2", "abc", "--out", "unused.fld"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--hbar2" in err


def test_field_file_as_potential_is_a_validation_error(w4_path, capsys):
    assert main(["residual", "--in", str(w4_path), "--potential", str(w4_path), "--mode", "psi-moyal"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: potential file {w4_path} is not UTF-8 text\n"


def test_float_underflow_is_a_numeric_failure(psi_path, tmp_path, capsys):
    # (2 pi hbar2)^2 underflows to 0, overflows, or is so small that the transform prefactor is inf
    for hbar2 in ("1e-300", "1e300", "1e-160"):
        assert main(["wigner", "--in", str(psi_path), "--hbar2", hbar2, "--out", str(tmp_path / "w.fld")]) == 3
        err = capsys.readouterr().err
        assert err == f"numeric failure: transform prefactor out of range at hbar2 = {float(hbar2):g}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag", [["--hbar2", "1e300"], ["--m", "1e-300"]])
def test_an_overflowing_series_weight_names_its_entry(tiny, capsys, flag):
    # hbar2/(2m) = 5e299: the weight of the first live correction, (hbar2/2m)^2 / m, leaves the float range
    _, files = tiny
    assert main(["residual", "--in", files["w4"], "--potential", files["u"], "--mode", "psi-moyal", *flag]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: the weight of series entry (l, n) = (1, 3) overflows at hbar2/(2m) = 5e+299\n")


@pytest.mark.parametrize("omega, hbar2", [("1e200", "inf"), ("1e-200", "0.0")])
def test_an_out_of_range_default_hbar2_is_a_validation_error(tmp_path, capsys, omega, hbar2):
    # the default hbar2 = hbar*omega^2 overflows, where float ** raises, or underflows to 0
    assert main(["gen-ho", "--nx", "8", "--nv", "8", "--omega", omega, "--out", str(tmp_path / "psi.fld")]) == 1
    assert capsys.readouterr().err == f"error: hbar2 must be positive and finite, got {hbar2}\n"
    assert os.listdir(tmp_path) == []


def test_an_omega_whose_square_overflows_is_a_validation_error(tmp_path, capsys):
    # with hbar2 given, PhysParams takes omega = 1e200; the wave function's m*omega^2 leaves the float range
    argv = ["--nx", "8", "--nv", "8", "--omega", "1e200", "--hbar2", "1"]
    assert main(["gen-ho", *argv, "--out", str(tmp_path / "psi.fld")]) == 1
    assert capsys.readouterr().err == "error: omega = 1e+200 is too large: m*omega^2 overflows\n"
    assert os.listdir(tmp_path) == []
    # the transform never evaluates omega
    assert main(["gen-ho", *argv[:4], "--out", str(tmp_path / "psi.fld")]) == 0
    assert main(["wigner", "--in", str(tmp_path / "psi.fld"), *argv[4:], "--out", str(tmp_path / "w4.fld")]) == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_an_output_fifo_is_an_io_error_and_stays_a_fifo(tmp_path, capsys):
    fifo = tmp_path / "psi.fld"
    os.mkfifo(fifo)
    assert main(["gen-ho", "--nx", "8", "--nv", "8", "--out", str(fifo)]) == 2
    err = capsys.readouterr().err
    assert err == f"i/o error: {os.path.realpath(fifo)} is not a regular file; fields are written only to regular files\n"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["psi.fld"]  # no *.tmp left behind


def test_running_out_of_memory_exits_3(monkeypatch, tmp_path, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(cli, "_cmd_gen_ho", exhausted)
    assert main(["gen-ho", "--out", str(tmp_path / "psi.fld")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: not enough memory (Unable to allocate 74.5 GiB")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# the whole flag grammar: every argv ends in exit 0-3 with at most one stderr line


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """8^2 psi, its 8^4 W and rank-3 marginal, a potential, a non-text file and bad paths."""
    root = tmp_path_factory.mktemp("grammar")
    files = {"psi": root / "psi.fld", "w4": root / "w4.fld", "w3": root / "w3.fld", "u": root / "u.txt",
             "binary": root / "binary.txt", "missing": root / "absent" / "x.fld", "dir": root}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-ho", "--nx", "8", "--nv", "8", "--out", str(files["psi"])]) == 0
        assert main(["wigner", "--in", str(files["psi"]), "--out", str(files["w4"])]) == 0
        assert main(["marginal", "--in", str(files["w4"]), "--axis", "vddot", "--out", str(files["w3"])]) == 0
    files["u"].write_text("0 2 1.5\n2 0 -0.5\n4 0 0.01\n", encoding="utf-8")
    files["binary"].write_bytes(b"0 2 1.5\n\xff\xfe\x00\x80")
    (root / "out").mkdir()
    return root, {k: str(v) for k, v in files.items()}


# each flag: (values that should work, values that should not); files are keys of `tiny`
NUMBER = (["1", "0.5", "2"], ["0", "-1", "nan", "inf", "-inf", "1e400", "1e-300", "1e300", "abc", ""])
COUNT = (["8", "4", "16"], ["3", "0", "-2", "1e3", "x", ""])
PARAMS = {"--m": NUMBER, "--hbar": NUMBER, "--omega": NUMBER,
          "--hbar2": (["auto", "1", "2.0"], ["0", "-1", "nan", "1e-300", "1e300", "abc"])}
THRESHOLD = (["1e-3", "0.5", "0"], ["1", "-1", "nan", "inf", "abc"])
BAD_FILES = ["u", "binary", "missing", "dir"]
OUT = (["out/o.fld"], ["absent/o.fld", "out"])
GRAMMAR = {
    "gen-ho": {**PARAMS, "--t": (NUMBER[0] + ["-1e-3", "-2.5E+0"], NUMBER[1]), "--nx": COUNT, "--nv": COUNT,
               "--xmin": (["-8", "-1", "-1e-3", "-.5e1"], NUMBER[1]), "--xmax": (["8", "1"], NUMBER[1]),
               "--vmin": (["-8", "-8e0"], NUMBER[1]), "--vmax": (["8"], NUMBER[1]), "--out": OUT},
    "wigner": {"--in": (["psi"], ["w4"] + BAD_FILES), "--rank": (["4", "3", "24"], ["5"]), **PARAMS,
               "--out": OUT},
    "marginal": {"--in": (["w4", "w3"], ["psi"] + BAD_FILES), "--axis": (["vdot", "vddot"], ["x"]),
                 "--m": NUMBER, "--out": OUT},
    "fluxes": {"--in": (["w4"], ["w3", "psi"] + BAD_FILES), "--which": (["123", "124", "12"], ["9"]), **PARAMS,
               "--mask-threshold": THRESHOLD, "--out": OUT},
    "residual": {"--in": (["w4"], ["w3", "psi"] + BAD_FILES), "--potential": (["u"], ["w4"] + BAD_FILES),
                 "--mode": (["psi-moyal", "vlasov12", "vlasov123", "vlasov124"], ["moyal"]), **PARAMS,
                 "--order": (["2", "4", "6"], ["5"]), "--mask-threshold": THRESHOLD,
                 "--report": (["out/r.txt"], OUT[1])},
    "check": {"--suite": (["ho"], ["xy"]), "--hbar2": PARAMS["--hbar2"],
              "--seed": (["0", "7"], ["-1", "-7", "abc", "1e3", "18446744073709551616"])},
    "export-csv": {"--in": (["w4", "w3"], ["psi"] + BAD_FILES),
                   "--slice": (["vdot=0,vddot=0", "x=0,v=0", "vddot=0"], ["x=nan,v=0", "x=abc", "q=1", "x=0,x=1", ""]),
                   "--out": (["out/o.csv"], OUT[1])},
}
REQUIRED = {"--in", "--out", "--potential", "--mode", "--axis", "--which", "--suite", "--slice"}


@st.composite
def argvs(draw):
    """A subcommand with its flags and at most one bad part: a bad value, a missing flag or a stray token."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    flags = GRAMMAR[command]
    bad = draw(st.sampled_from([None, None, "drop", "stray", *flags]))
    present = [f for f in flags if f in REQUIRED or f == bad or draw(st.integers(0, 2)) == 0]
    if bad == "drop":
        present.remove(draw(st.sampled_from(present)))
    argv = [command]
    for flag in present:
        argv += [flag, draw(st.sampled_from(flags[flag][flag == bad]))]
    return argv + (["--bogus"] if bad == "stray" else [])


def _quick_suite(seed=0, progress=None):
    np.random.default_rng(seed)  # the suite's first use of its seed
    return SuiteReport((), 0.0, 0.0)


@settings(max_examples=120)
@given(argv=argvs())
@example(argv=["check", "--suite", "ho", "--seed", "-1"])
@example(argv=["gen-ho", "--hbar2", "abc", "--out", "out/o.fld"])
@example(argv=["residual", "--in", "w4", "--potential", "w4", "--mode", "psi-moyal"])
@example(argv=["wigner", "--in", "psi", "--hbar2", "1e-300", "--out", "out/o.fld"])
@example(argv=["gen-ho", "--vmax", "1e300", "--out", "out/o.fld"])
def test_every_flag_combination_ends_in_a_contract_exit(tiny, argv):
    root, files = tiny
    argv = [files[a] if a in files else str(root / a) if a.startswith(("out", "absent/")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(checks, "run_ho_suite", _quick_suite), warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])
