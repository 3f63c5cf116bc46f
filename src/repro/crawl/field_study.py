"""The paper's field study (Section 3.2), defined once.

Table 2 and Fig. 4 come from one draw: the same population crawled by
stock OpenWPM (seed 11) and by OpenWPM with the spoofing extension
(seed 22), 8 browser instances each.  :func:`paper_crawlers` is that
pair of configurations and :func:`run_field_study` runs it; the report
CLI, ``examples/field_study.py`` and the Table 2, Fig. 4 and robustness
benchmarks all take their crawls from here.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.crawl.crawler import CrawlResult, OpenWPMCrawler
from repro.crawl.population import SiteConfig, generate_population
from repro.spoofing.extension import SpoofingExtension


def paper_crawlers() -> Tuple[OpenWPMCrawler, OpenWPMCrawler]:
    """Table 2's two columns: stock OpenWPM and OpenWPM+extension."""
    return (
        OpenWPMCrawler("OpenWPM", extension=None, instances=8, seed=11),
        OpenWPMCrawler(
            "OpenWPM+extension", extension=SpoofingExtension(), instances=8, seed=22
        ),
    )


def run_field_study(
    population: Optional[Sequence[SiteConfig]] = None,
) -> Tuple[CrawlResult, CrawlResult]:
    """Crawl ``population`` (default: the paper's 1,000 sites) with both
    paper crawlers; returns ``(baseline, extended)``."""
    if population is None:
        population = generate_population()
    baseline, extended = (crawler.crawl(population) for crawler in paper_crawlers())
    return baseline, extended
