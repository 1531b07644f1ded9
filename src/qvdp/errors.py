"""Runtime numerical failures of the integrator and the searches built on it.

The classes live apart from :mod:`qvdp.integrate`, which re-exports them,
so that code which only catches them (the CLI's exit-code mapping) loads
no numpy.
"""

from __future__ import annotations

__all__ = [
    "IntegrationError",
    "StepUnderflow",
    "NonFinite",
    "NoConvergence",
]


class IntegrationError(RuntimeError):
    pass


class StepUnderflow(IntegrationError):
    """Step control drove the step size below machine resolution."""


class NonFinite(IntegrationError):
    """The state left the finite domain (escape to infinity).

    The partial trajectory up to the escape event is attached as
    ``.trajectory``.
    """

    def __init__(self, msg: str, trajectory):
        super().__init__(msg)
        self.trajectory = trajectory


class NoConvergence(IntegrationError):
    """An iteration gave up: root bracketing failed on a section or an
    event, a located crossing missed the section residual bound, or a
    limit-cycle search spent its 60 returns without closing."""
