"""Phase-space toolkit for rank-4 quasi-probability distributions.

Builds generalized Wigner functions over (x, v, vdot, vddot) from rank-2 wave
functions, evaluates their Moyal-type evolution residuals and chain continuity
closures, and checks everything against the closed-form harmonic oscillator
solution. Field persistence and a CLI front end live in fieldfile and cli.

`import phasechain` runs no library module and imports no NumPy. It puts each
library module in `sys.modules` (and on the package) through
`importlib.util.LazyLoader`, and a module runs on the first access to one of
its attributes; the package's exports resolve on first use from `_EXPORTS`,
the one table of public names, whose entry each module reads as its `__all__`.
So a CLI command runs only the modules it calls: `marginal` and `export-csv`
run `fields` and `fieldfile`, `gen-ho` adds `oscillator` and `moyal`, and
`check` runs all but `vonneumann` and `fieldfile`. On CPython 3.11 a lazy
module's first attribute access takes no lock, so two threads must not race
to it: the library modules import each other's names eagerly, and a slab task
only calls modules its submitting thread has already run.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "fields": ("AxisGrid", "ComplexField", "RealField", "PointwiseField", "StencilScheme", "ValidationError",
               "NumericError", "make_axis", "sample_real", "sample_complex", "partial_derivative",
               "integrate_axis", "stencil_coefficients", "max_abs", "require_axes", "check_mask_threshold"),
    "fieldfile": ("FieldFormatError", "read_field", "write_field", "write_rows", "parse_slice_spec", "export_csv"),
    "moyal": ("PolynomialPotential", "MoyalTerm", "build_term_table", "closure_coefficients", "moyal_rhs",
              "transport_lhs", "moyal_residual", "moyal_residual_slabs"),
    "oscillator": ("PhysParams", "GammaForm", "psi12", "u12_polynomial", "gamma_form", "gamma_transport_residual",
                   "w1234_analytic", "w123_analytic", "w124_analytic", "w12_analytic", "w1234_field", "w123_field",
                   "w124_field", "w12_field", "mean_flux_analytic", "radiation_power"),
    "wigner": ("TransformPlan", "wigner4", "wigner3", "wigner24", "transform_rows", "wigner4_marginal_to_3",
               "wigner4_marginal_to_24", "marginal_to_2"),
    "vlasov": ("FluxField", "DissipationReport", "mean_flux_from_w4", "vlasov_moyal_accel_flux",
               "vlasov_moyal_velocity_flux", "accel_flux_124_from_w4", "vlasov_residual", "chain_residual",
               "chain_residual_slabs", "divergence_series_gap", "dissipation_report"),
    "vonneumann": ("ModeSet", "VonNeumannCheck", "coefficients_at", "density_matrix_at", "rho_time_derivative",
                   "von_neumann_residual"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]

for _name in (*_EXPORTS, "checks"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
