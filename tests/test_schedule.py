"""Step-size schedule tests (Robbins-Monro regime)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.config import StepSizeConfig
from repro.core.schedule import PowerSchedule


@dataclass(frozen=True)
class ConstantSchedule:
    """Fixed step size: the biased regime the Robbins-Monro check must flag."""

    eps: float = 1e-3

    def at(self, t: int) -> float:
        return self.eps


def check_robbins_monro(schedule, horizon: int = 100_000) -> tuple[float, float]:
    """Empirical partial sums (sum eps, sum eps^2) over a horizon: in the
    convergent regime the first grows without bound, the second flattens."""
    s1 = 0.0
    s2 = 0.0
    for t in range(horizon):
        e = schedule.at(t)
        s1 += e
        s2 += e * e
    return s1, s2


class TestStepSizeConfig:
    def test_initial_value(self):
        s = StepSizeConfig(a=0.01, b=1024, c=0.55)
        assert s.at(0) == pytest.approx(0.01)

    def test_monotone_decreasing(self):
        s = StepSizeConfig()
        values = [s.at(t) for t in range(0, 10_000, 500)]
        assert values == sorted(values, reverse=True)

    def test_negative_iteration_raises(self):
        with pytest.raises(ValueError):
            StepSizeConfig().at(-1)

    def test_robbins_monro_partial_sums(self):
        """sum eps grows, sum eps^2 flattens, over a long horizon."""
        s = StepSizeConfig(a=0.01, b=100, c=0.55)
        s1_short, s2_short = check_robbins_monro(s, horizon=10_000)
        s1_long, s2_long = check_robbins_monro(s, horizon=100_000)
        assert s1_long > 2.0 * s1_short  # still diverging
        assert s2_long < 1.5 * s2_short  # nearly converged


class TestPowerSchedule:
    def test_decays(self):
        s = PowerSchedule(t0=10, kappa=0.6)
        assert s.at(0) > s.at(100) > s.at(10_000)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PowerSchedule().at(-5)


class TestConstantSchedule:
    def test_constant(self):
        s = ConstantSchedule(eps=0.5)
        assert s.at(0) == s.at(999) == 0.5

    def test_not_robbins_monro(self):
        """Constant schedule's eps^2 sum grows linearly (biased regime)."""
        _, s2a = check_robbins_monro(ConstantSchedule(0.01), horizon=1000)
        _, s2b = check_robbins_monro(ConstantSchedule(0.01), horizon=2000)
        assert s2b == pytest.approx(2 * s2a)
