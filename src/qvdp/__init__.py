"""Bifurcation structure, limit cycles and quasi-periodic orbits of the
quintic van der Pol-Duffing oscillator

    x' = y
    y' = (mu + x^2 - x^4) y + beta x - eps x^3 - alpha x cos(omega t)

Submodules
----------
model        vector fields, Jacobian, divergence, Hamiltonian limit
equilibria   finite equilibria, eigenvalues, type/stability table
bifurcation  pitchfork/Hopf/homoclinic curves, normal form, Melnikov,
             region classifier with non-existence certificates
compactify   Poincare-disk charts and the equilibria at infinity
integrate    adaptive Runge-Kutta integration, section events, stroboscopic map
errors       the IntegrationError family, re-exported by integrate
detect       limit-cycle detection, separatrix shooting, forced-attractor verdicts
cli          command-line interface (`qvdp ...`): the argument parser
commands     the subcommands the parser dispatches to

The names below are exported from the package and resolve on first use
(PEP 562): ``import qvdp`` loads no submodule, so the closed forms do not
pay for numpy and the integrator.  Each access looks the name up in its
submodule afresh; nothing resolved is stored on the package.  No exported
name is a submodule's name: ``qvdp.integrate`` is the submodule, and
``from qvdp.integrate import integrate`` gives its function.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in (
    ("model", "Params State"),
    ("equilibria", "EqLabel Equilibrium EquilibriumKind CriticalMus "
                   "critical_mus find_equilibria"),
    ("bifurcation", "Certificate CertificateKind CyclePrediction HopfData "
                    "MelnikovMethod MelnikovResult PitchforkKind "
                    "PitchforkReduction Region RegionLabel classify_region "
                    "homoclinic_curve hopf_curve hopf_cycle_prediction "
                    "hopf_normal_form melnikov nonexistence_certificate "
                    "pitchfork_reduction torus_frequency_estimate"),
    ("compactify", "InfinityEquilibrium InfinityLabel disk_project "
                   "field_chart_u field_chart_v infinity_equilibria "
                   "probe_infinity_kind"),
    ("errors", "NonFinite NoConvergence StepUnderflow"),
    ("integrate", "SectionEvent Trajectory detect_crossings stroboscopic"),
    ("detect", "AttractorReport LimitCycle ManifoldEscape RotationEstimate "
               "SeparatrixSplit Verdict classify_forced find_limit_cycle "
               "rotation_number separatrix_split winding_number"),
) for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
