"""Deterministic, seed-driven fault plans and the runtime injector.

A :class:`FaultPlan` decides *in advance* which (site, visit) pairs will
fault, with which fault type, and for how many consecutive attempts --
everything derives from one seed, so a faulty crawl is exactly
reproducible and a recovery test can be asserted byte-for-byte.

The :class:`FaultInjector` is the runtime half: the supervisor arms it
with the current (domain, visit, attempt) context before each attempt,
and the hook points in :class:`repro.webdriver.driver.WebDriver` and
:func:`repro.crawl.visit.simulate_visit` call :meth:`FaultInjector.
on_hook`, which raises the scheduled typed exception when the armed
context is due to fault at that hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.faults.types import FaultError, FaultType, make_fault

#: Sub-stream tag so the plan's draws never collide with visit rngs.
_PLAN_STREAM = 0xFA


@dataclass(frozen=True)
class ScheduledFault:
    """One planned fault on one (site, visit) pair.

    ``attempts_affected`` consecutive attempts (starting at attempt 0)
    raise the fault; later attempts succeed -- modelling a transient
    condition a retry rides out.
    """

    domain: str
    visit_index: int
    fault_type: FaultType
    attempts_affected: int = 1

    def due(self, attempt: int) -> bool:
        return attempt < self.attempts_affected


@dataclass
class FaultPlan:
    """A complete, deterministic fault schedule for one crawl."""

    seed: int
    rate: float
    schedule: Dict[Tuple[str, int], ScheduledFault] = field(default_factory=dict)

    @classmethod
    def generate(
        cls,
        population: Sequence,
        instances: int,
        *,
        rate: float,
        seed: int,
        fault_types: Sequence[FaultType] = tuple(FaultType),
        max_attempts_affected: int = 2,
    ) -> "FaultPlan":
        """Roll a fault (or not) for every (site, visit) pair.

        ``rate`` is the per-visit probability of scheduling a fault;
        fault types are drawn uniformly from ``fault_types``; each
        scheduled fault affects 1..``max_attempts_affected`` consecutive
        attempts.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        if max_attempts_affected < 1:
            raise ValueError("max_attempts_affected must be >= 1")
        rng = np.random.default_rng([seed, _PLAN_STREAM])
        types = list(fault_types)
        plan = cls(seed=seed, rate=rate)
        for site in population:
            for visit_index in range(instances):
                if rng.random() >= rate:
                    continue
                fault_type = types[int(rng.integers(len(types)))]
                affected = int(rng.integers(1, max_attempts_affected + 1))
                plan.schedule[(site.domain, visit_index)] = ScheduledFault(
                    site.domain, visit_index, fault_type, affected
                )
        return plan

    def fault_for(
        self, domain: str, visit_index: int, attempt: int
    ) -> Optional[ScheduledFault]:
        """The fault due on this attempt, if any."""
        scheduled = self.schedule.get((domain, visit_index))
        if scheduled is not None and scheduled.due(attempt):
            return scheduled
        return None

    def fault_counts(self) -> Dict[str, int]:
        """Scheduled faults per fault type (by taxonomy value)."""
        counts: Dict[str, int] = {}
        for scheduled in self.schedule.values():
            key = scheduled.fault_type.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.schedule)


class FaultInjector:
    """Runtime fault injection against a :class:`FaultPlan`.

    The supervisor calls :meth:`arm` before each visit attempt and
    :meth:`disarm` after; hook points call :meth:`on_hook`.  A disarmed
    injector is inert, so the same driver can serve both supervised and
    plain code paths.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._armed: Optional[Tuple[str, int, int]] = None

    def arm(self, domain: str, visit_index: int, attempt: int) -> None:
        self._armed = (domain, visit_index, attempt)

    def disarm(self) -> None:
        self._armed = None

    def on_hook(self, hook: str) -> None:
        """Raise the scheduled fault if the armed context is due here."""
        if self._armed is None:
            return
        domain, visit_index, attempt = self._armed
        scheduled = self.plan.fault_for(domain, visit_index, attempt)
        if scheduled is None or scheduled.fault_type.hook != hook:
            return
        raise make_fault(scheduled.fault_type, domain, visit_index, attempt)
