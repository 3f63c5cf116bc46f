"""The simulated 1,000-site field study (Section 3.2).

The paper crawls 1,000 random Tranco-top-10K sites with two OpenWPM
configurations (with/without the spoofing extension), 8 browser instances
each, and evaluates screenshots (Table 2) and HTTP status codes (Fig. 4 /
Appendix B).  The live web is replaced by a synthetic population:

- :mod:`repro.crawl.population` -- sites with configurable bot-detector
  deployment (webdriver-flag checkers, a rare side-effect-aware detector,
  HTTP-only blockers), ad slots, videos, breakage susceptibility and
  web-dynamics noise.  Deployment rates are calibrated so the *baseline*
  crawler experiences the paper's magnitudes (visible reactions on ~1.7 %
  of sites); what happens when the extension is enabled is then fully
  mechanical: sites re-run their real fingerprint probes against the real
  (spoofed) navigator.
- :mod:`repro.crawl.crawler` -- the OpenWPM-like crawler configuration;
  its ``crawl`` is the supervisor with watchdogs, faults and tracing off.
- :mod:`repro.crawl.supervisor` -- the one crawl engine, fault-aware:
  retries with backoff, per-domain circuit breaking and
  checkpoint/resume (pairs with :mod:`repro.faults`), orchestrated over
  the :mod:`repro.bus` event bus.
- :mod:`repro.crawl.watchdogs` -- pluggable recovery subscribers
  (crash/fault-budget recycling, stall bounding, overlay/challenge/
  hidden-input recovery); ``watchdogs=()`` is the unprotected ablation
  baseline (docs/EVENT_BUS.md).
- :mod:`repro.crawl.evaluation` -- the Table 2 screenshot evaluation, the
  breakage report, the Fig. 4 HTTP-error histogram with the Wilcoxon
  matched-pairs significance test, and the crawl-health report.
- :mod:`repro.crawl.field_study` -- the paper's draw, defined once: the
  two Table 2 crawler configurations and the function that crawls a
  population with both.
"""

from repro.crawl.population import (
    DetectorDeployment,
    DetectionSignal,
    HostileArchetype,
    Reaction,
    SiteConfig,
    PopulationConfig,
    field_study_population,
    generate_population,
    hostile_population,
)
from repro.crawl.visit import (
    FailureReason,
    HTTPResponse,
    Screenshot,
    VisitRecord,
    simulate_visit,
)
from repro.crawl.crawler import OpenWPMCrawler, CrawlResult
from repro.crawl.supervisor import (
    CrawlSupervisor,
    SupervisorConfig,
    SupervisorStats,
    visit_coverage,
)
from repro.crawl.watchdogs import (
    CrashWatchdog,
    ModalOverlayWatchdog,
    RecycleWatchdog,
    StallWatchdog,
    Watchdog,
    default_watchdogs,
)
from repro.crawl.evaluation import (
    ScreenshotEvaluation,
    evaluate_screenshots,
    BreakageReport,
    evaluate_breakage,
    HTTPErrorEvaluation,
    evaluate_http_errors,
    CrawlHealthReport,
    evaluate_crawl_health,
)
from repro.crawl.field_study import paper_crawlers, run_field_study

__all__ = [
    "DetectorDeployment",
    "DetectionSignal",
    "HostileArchetype",
    "Reaction",
    "SiteConfig",
    "PopulationConfig",
    "field_study_population",
    "generate_population",
    "hostile_population",
    "Watchdog",
    "CrashWatchdog",
    "StallWatchdog",
    "ModalOverlayWatchdog",
    "RecycleWatchdog",
    "default_watchdogs",
    "FailureReason",
    "HTTPResponse",
    "Screenshot",
    "VisitRecord",
    "simulate_visit",
    "OpenWPMCrawler",
    "CrawlResult",
    "CrawlSupervisor",
    "SupervisorConfig",
    "SupervisorStats",
    "visit_coverage",
    "CrawlHealthReport",
    "evaluate_crawl_health",
    "ScreenshotEvaluation",
    "evaluate_screenshots",
    "BreakageReport",
    "evaluate_breakage",
    "HTTPErrorEvaluation",
    "evaluate_http_errors",
    "paper_crawlers",
    "run_field_study",
]
