"""Step-size schedules for SGRLD and the SVI baseline.

The SGRLD schedule lives in :class:`repro.config.StepSizeConfig`
(``eps_t = a (1 + t/b)^-c``); this module re-exports it and adds the
Robbins-Monro power schedule used by stochastic variational inference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import StepSizeConfig

__all__ = ["StepSizeConfig", "PowerSchedule"]


@dataclass(frozen=True)
class PowerSchedule:
    """``rho_t = (t0 + t) ** -kappa`` — the classic SVI schedule.

    ``kappa`` in (0.5, 1] satisfies Robbins-Monro.
    """

    t0: float = 1024.0
    kappa: float = 0.5 + 1e-9

    def at(self, t: int) -> float:
        if t < 0:
            raise ValueError("iteration must be >= 0")
        return (self.t0 + t) ** (-self.kappa)
