"""Toolkit for (-Delta)^alpha u = u^p + k delta_0 on the unit ball."""

import importlib

__version__ = "0.1.0"

# Submodules are imported on first attribute access so that the CLI can
# configure the numeric environment (thread caps) before anything heavy
# loads.
_EXPORTS = {
    "ConvergenceError": "core",
    "FracsingError": "core",
    "KernelError": "core",
    "ParameterError": "core",
    "ProblemParams": "core",
    "RadialFunction": "core",
    "RadialGrid": "core",
    "RegimeError": "core",
    "SecondSolutionNotFound": "core",
    "fundamental_constant": "core",
    "make_grid": "core",
    "surface_area": "core",
    "GreenOperator": "green",
    "assemble": "green",
    "default_grid": "green",
    "dirac_profile": "green",
    "load_operator": "green",
    "measured_c2": "green",
    "point_kernel": "green",
    "radial_kernel": "green",
    "save_operator": "green",
    "KStarBracket": "picard",
    "SolveReport": "picard",
    "barrier_certificate": "picard",
    "find_kstar": "picard",
    "first_eigenpair": "picard",
    "iterate_minimal": "picard",
    "StabilityReport": "stability",
    "StabilityScan": "stability",
    "sigma1": "stability",
    "sigma1_rayleigh": "stability",
    "stability_gap_scan": "stability",
    "DiscreteHAlphaForm": "mountainpass",
    "MountainPassResult": "mountainpass",
    "build_form": "mountainpass",
    "energy": "mountainpass",
    "find_second_solution": "mountainpass",
    "increment_primitive": "mountainpass",
    "power_increment": "mountainpass",
    "ClassificationReport": "classify",
    "TestFunction": "classify",
    "WeakIdentityReport": "classify",
    "asymptotic_fit": "classify",
    "estimate_k": "classify",
    "pairing": "classify",
    "standard_battery": "classify",
    "verify_weak_identity": "classify",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return __all__
