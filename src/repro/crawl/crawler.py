"""The OpenWPM-like crawler: one crawl configuration and its result.

:meth:`OpenWPMCrawler.crawl` runs the paper's field study on the one
crawl engine, :class:`~repro.crawl.supervisor.CrawlSupervisor`, with no
fault plan, no watchdogs and no tracing -- so Table 2 and Fig. 4 come
from the path the serial/sharded/resumed byte-identity oracles pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.crawl.population import SiteConfig
from repro.crawl.visit import VisitRecord
from repro.obs.tracer import NULL_TRACER
from repro.spoofing.extension import SpoofingExtension


@dataclass
class CrawlResult:
    """All visit records of one crawl configuration."""

    crawler_name: str
    records: List[VisitRecord] = field(default_factory=list)

    # -- totals ----------------------------------------------------------

    @property
    def successful_visits(self) -> List[VisitRecord]:
        return [r for r in self.records if r.reached]

    @property
    def failed_visits(self) -> List[VisitRecord]:
        return [r for r in self.records if not r.reached]

    @property
    def recovered_visits(self) -> List[VisitRecord]:
        """Visits that succeeded only after at least one failed attempt."""
        return [r for r in self.records if r.reached and r.recovered]

    def failure_counts(self) -> Dict[str, int]:
        """Failed visits per failure reason (the taxonomy values)."""
        counts: Dict[str, int] = {}
        for record in self.failed_visits:
            reason = record.failure_reason or "unknown"
            counts[reason] = counts.get(reason, 0) + 1
        return counts

    def attempts_total(self) -> int:
        """All visit attempts made, including retried ones."""
        return sum(r.attempts for r in self.records)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form of the whole crawl (checkpointing, diffing)."""
        return {
            "crawler_name": self.crawler_name,
            "records": [r.to_dict() for r in self.records],
        }

    def by_domain(self) -> Dict[str, List[VisitRecord]]:
        grouped: Dict[str, List[VisitRecord]] = {}
        for record in self.successful_visits:
            grouped.setdefault(record.domain, []).append(record)
        return grouped


class OpenWPMCrawler:
    """One crawl configuration: name, extension, instances and seed.

    The :class:`~repro.crawl.supervisor.CrawlSupervisor` reads its
    configuration from here; :meth:`crawl` runs that supervisor with
    its watchdogs off.

    Parameters
    ----------
    extension:
        ``None`` models stock OpenWPM (column 1 of Table 2); a
        :class:`SpoofingExtension` models OpenWPM+extension (column 2).
    instances:
        Browser instances per site -- the paper ran 8 simultaneously per
        machine to average out web dynamics.
    seed:
        Seed every per-attempt rng stream derives from (web dynamics,
        sampled detector checks, retry jitter).  Two crawlers with
        different seeds model the two distinct machines/residential IPs
        of the paper's setup.
    """

    def __init__(
        self,
        name: str,
        extension: Optional[SpoofingExtension] = None,
        instances: int = 8,
        seed: int = 1,
    ) -> None:
        self.name = name
        self.extension = extension
        self.instances = instances
        self.seed = seed

    def crawl(self, population: Sequence[SiteConfig]) -> CrawlResult:
        """Visit every site ``instances`` times: the supervisor with no
        fault plan, no watchdogs, no tracing and its default config."""
        # Function-local: the supervisor module imports this one.
        from repro.crawl.supervisor import CrawlSupervisor

        supervisor = CrawlSupervisor(self, tracer=NULL_TRACER, watchdogs=())
        return supervisor.crawl(population)
