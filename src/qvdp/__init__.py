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
detect       limit-cycle detection, separatrix shooting, forced-attractor verdicts
cli          command-line interface (`qvdp ...`)
"""

from .model import Params, State
from .equilibria import (EqLabel, Equilibrium, EquilibriumKind, CriticalMus,
                         critical_mus, find_equilibria)
from .bifurcation import (Certificate, CertificateKind, CyclePrediction,
                          HopfData, MelnikovMethod, MelnikovResult,
                          PitchforkKind, PitchforkReduction, Region,
                          RegionLabel, classify_region, homoclinic_curve,
                          hopf_curve, hopf_cycle_prediction, hopf_normal_form,
                          melnikov, nonexistence_certificate,
                          pitchfork_reduction, torus_frequency_estimate)
from .compactify import (InfinityEquilibrium, InfinityLabel, disk_project,
                         field_chart_u, field_chart_v, infinity_equilibria,
                         probe_infinity_kind)
from .integrate import (Direction, NonFinite, NoConvergence, SectionEvent,
                        StepUnderflow, Trajectory, detect_crossings,
                        integrate, stroboscopic)
from .detect import (AttractorReport, LimitCycle, ManifoldEscape,
                     RotationEstimate, SeparatrixSplit, Verdict,
                     classify_forced, find_limit_cycle, rotation_number,
                     separatrix_split, winding_number)

__version__ = "0.1.0"
