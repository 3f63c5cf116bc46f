"""Deterministic fault injection for the crawl stack.

- :mod:`repro.faults.types` -- the fault taxonomy (six failure modes
  from the OpenWPM-reliability literature) and their typed exceptions.
- :mod:`repro.faults.plan` -- seed-driven fault plans and the runtime
  :class:`FaultInjector` consulted by the WebDriver / visit hook points.
- :mod:`repro.faults.recovery` -- the reusable retry/backoff and
  circuit-breaker primitives the :class:`repro.crawl.supervisor.
  CrawlSupervisor` (and future scaling layers) build on.
"""

from repro.faults.types import (
    FAULT_EXCEPTIONS,
    DriverCrashFault,
    DriverHangFault,
    FaultError,
    FaultType,
    NetworkResetFault,
    OOMRestartFault,
    PageLoadTimeoutFault,
    StaleElementFault,
    make_fault,
)
from repro.faults.plan import FaultInjector, FaultPlan, ScheduledFault
from repro.faults.recovery import (
    DELAY_GRID_MS,
    BackoffPolicy,
    BreakerState,
    CircuitBreaker,
)

__all__ = [
    "FAULT_EXCEPTIONS",
    "FaultError",
    "FaultType",
    "make_fault",
    "PageLoadTimeoutFault",
    "DriverCrashFault",
    "DriverHangFault",
    "StaleElementFault",
    "NetworkResetFault",
    "OOMRestartFault",
    "FaultPlan",
    "FaultInjector",
    "ScheduledFault",
    "BackoffPolicy",
    "BreakerState",
    "CircuitBreaker",
    "DELAY_GRID_MS",
]
