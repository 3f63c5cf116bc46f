"""Byte-identity gate for every checkpoint file the supervisor writes.

A supervisor checkpoint is the resume contract, the shard merge's input
and the serial-vs-sharded oracle's subject, so its bytes are pinned
here: the sha256 of every file each scenario writes, intermediate and
final.  Each write is also compared with ``json.dumps`` of the payload
the supervisor's state describes at that moment
(:func:`reference_payload`, the plain version-2 builder), so a writer
that encodes less than everything on each write must still produce
exactly that document.

Scenarios cover the paths through which a checkpoint grows: a traced
crawl with a fault plan, hostile sites and the probe ledger (written at
every site and every third site), the same crawl untraced, an
interrupted crawl resumed over the full population, and a second
``crawl()`` from a finished checkpoint over a grown population, which
re-opens the closed root span.
"""

import hashlib
import json
from collections import Counter
from dataclasses import asdict

import pytest

from repro.crawl import (
    CrawlSupervisor,
    OpenWPMCrawler,
    PopulationConfig,
    SupervisorConfig,
    generate_population,
)
from repro.crawl.visit import VisitRecord
from repro.faults import FaultPlan
from repro.obs.probes import LedgerEntry, ProbeLedger
from repro.obs.span import Span
from repro.obs.tracer import NULL_TRACER
from repro.spoofing import SpoofingExtension

INSTANCES = 3


def population():
    return generate_population(
        PopulationConfig(
            n_sites=14,
            seed=5,
            n_no_ads_detectors=1,
            n_less_ads_detectors=1,
            n_block_detectors=1,
            n_captcha_detectors=1,
            n_freeze_video_detectors=0,
            n_other_signal_ad_detectors=0,
            n_side_effect_blockers=1,
            n_http_only_detectors=1,
            n_modal_overlay_sites=1,
            n_challenge_sites=1,
            n_hidden_input_sites=1,
            n_stalling_sites=1,
        )
    )


POPULATION = population()
PLAN = FaultPlan.generate(POPULATION, INSTANCES, rate=0.3, seed=11)


def make_supervisor(every_sites, tracer=None):
    crawler = OpenWPMCrawler(
        "gate",
        extension=SpoofingExtension(),
        instances=INSTANCES,
        seed=7,
    )
    return CrawlSupervisor(
        crawler,
        config=SupervisorConfig(
            recycle_after_faults=2, checkpoint_every_sites=every_sites
        ),
        plan=PLAN,
        tracer=tracer,
        probe_ledger=ProbeLedger(),
    )


def reference_payload(supervisor, records):
    """The version-2 checkpoint payload, built in full from the
    supervisor's state: the document every write must encode."""
    payload = {
        "version": 2,
        "crawler_name": supervisor.crawler.name,
        "seed": supervisor.crawler.seed,
        "instances": supervisor.crawler.instances,
        "clock_ms": supervisor.clock.now(),
        "stats": asdict(supervisor.stats),
        "browsers": [
            instance.state_dict() for instance in supervisor._instances or []
        ],
        "trace": supervisor.tracer.state_dict(),
        "metrics": supervisor.metrics.state_dict(),
        "records": [r.to_dict() for r in records],
    }
    if supervisor.ledger is not None:
        payload["ledger"] = supervisor.ledger.state_dict()
    return payload


@pytest.fixture
def writes(monkeypatch):
    """sha256 of every checkpoint file written, in write order; each
    write is checked against :func:`reference_payload` as it lands."""
    digests = []
    original = CrawlSupervisor._write_checkpoint

    def spy(self, path, records):
        original(self, path, records)
        written = path.read_bytes()
        expected = json.dumps(reference_payload(self, records)).encode()
        assert written == expected, f"write {len(digests) + 1} differs"
        digests.append(hashlib.sha256(written).hexdigest())

    monkeypatch.setattr(CrawlSupervisor, "_write_checkpoint", spy)
    return digests


def interrupt_after(supervisor, visits):
    """Make ``supervisor`` stop dead when it starts visit ``visits + 1``,
    as a killed process would, mid-site and after its last checkpoint."""
    visit = supervisor._visit_with_retry
    started = [0]

    def interrupted(*args):
        started[0] += 1
        if started[0] > visits:
            raise KeyboardInterrupt
        return visit(*args)

    supervisor._visit_with_retry = interrupted


DIGESTS = {
    "traced-every-1": [
        "226163acbba0207b162153cf609180ebf4a4143a432425b6473c1295f91140f5",
        "d0cc49b3a3aa911425f7b6f19eed541305b5fa32bc96cd6cac45f166bcd5a86d",
        "ce70c9f996e54b6c14ac5afefed4bf6e7ce8e28b296ec6e06befe0964dd6c8ac",
        "52e1c889d1ee43291444e2e46b215de54fd24200c1015d19d739362ac64e94e4",
        "3953429e1a887a2776e7cea0afabca94311b412bf57d8de4ffa3093f8266ed64",
        "c433edd3ba34855ff2a14dacae85ce72518e54d5a72c18ee713f33b47cd74f75",
        "822084f7c439aedbab4e6542957d5617d2de0f727104558ba99f69d60850041d",
        "be92123ae2e9cd338a73d67b8dcc3795520b5c5e58c178c18647ce70f9bd0336",
        "27a4e604a8d21e633255b0eee9e6783f1a868136cd27b4fe538aca1610aeed9f",
        "549078f91e4d6666e5a618d29bc3fcba11107e6fd1e440e394cc58a665014ae4",
        "675727e0393495b0a9744ae2aa5d705dd15d92f311b4ac27932636b5a01cc19e",
        "4395b7316203bef8decc3a238f09ff52b3ed7383b3df7f742b810bba067a42d2",
        "baa2cfdf2fdc8528e53f1c24103537cb5eb03d6a98347ee8ffa5c31503e1230d",
        "38c950fecf5f18c96893f828380a42bc9fc0e5a87e8c1b3d10e1dcb17ef4dc47",
        "c90ec88301268408ac5cce5bb9fbf0714d6f9692bbd5664ccaa7be9a4aa2a73a",
    ],
    "traced-every-3": [
        "ce70c9f996e54b6c14ac5afefed4bf6e7ce8e28b296ec6e06befe0964dd6c8ac",
        "c433edd3ba34855ff2a14dacae85ce72518e54d5a72c18ee713f33b47cd74f75",
        "27a4e604a8d21e633255b0eee9e6783f1a868136cd27b4fe538aca1610aeed9f",
        "4395b7316203bef8decc3a238f09ff52b3ed7383b3df7f742b810bba067a42d2",
        "c90ec88301268408ac5cce5bb9fbf0714d6f9692bbd5664ccaa7be9a4aa2a73a",
    ],
    "untraced-every-3": [
        "aa08750b9c9207b08c452c3ad2e7a7befd68315c3220ed3506b1892384a056ff",
        "fcc8d4d08448b11341b9341c8d201b1c6fed7b1075607dad0092ef5399d540f9",
        "1af0e22277c9b719157d8fff8c1462a64c437658f984799a5d9349ad3add7118",
        "4ca71362122a9e5b398b865486c0e3c20f62a33e16f6fe1b9dfaabaed01e8925",
        "b5b54c4f4ac62b38f0c629c9b0d698ae7d35600cfad2da061d956518903ac2e6",
    ],
    "interrupted-resumed": [
        "ce70c9f996e54b6c14ac5afefed4bf6e7ce8e28b296ec6e06befe0964dd6c8ac",
        "c433edd3ba34855ff2a14dacae85ce72518e54d5a72c18ee713f33b47cd74f75",
        "c9fe30d6d6152b7e86631a458c1da541c7545827cb45f5936702d6fbcc53554f",
        "a5a68e5d2f095106ec7446791cde10a8c404c29d2f0a1caa7335772058a56568",
        "d29dcc3fd64f22223937c5edaf654ff8a248a20911823c219ef4a171cf022f7d",
    ],
    "second-crawl-grown": [
        "ce70c9f996e54b6c14ac5afefed4bf6e7ce8e28b296ec6e06befe0964dd6c8ac",
        "5dd0afa0e86fc06515bddfc8e019a36bd2f984023b9d3739b91d2dd9bee240df",
        "76ec4d4bd89270136e8c40c7367c4de1f6ddbabfb3df88d80e5a45e0e2997f01",
        "4f730942073e06d6709619746e00c5d1b5c5640b2b74fc0bd31288c079e18250",
        "cfcd88f533b0b5c0265613e01aa3104710f477c4758fd0a4fb091fb4a6ca20a2",
        "a70477156e32759a533120e977615d26d25f8222c235d537170cdb6e13ec4932",
    ],
}


@pytest.mark.parametrize(
    "scenario, every_sites, tracer",
    [
        ("traced-every-1", 1, None),
        ("traced-every-3", 3, None),
        ("untraced-every-3", 3, NULL_TRACER),
    ],
)
def test_crawl_checkpoints(tmp_path, writes, scenario, every_sites, tracer):
    supervisor = make_supervisor(every_sites, tracer)
    supervisor.crawl(POPULATION, checkpoint_path=tmp_path / "ck.json")
    assert writes == DIGESTS[scenario]


def test_interrupted_crawl_resumed(tmp_path, writes):
    checkpoint = tmp_path / "ck.json"
    interrupted = make_supervisor(3)
    interrupt_after(interrupted, 7 * INSTANCES + 1)
    with pytest.raises(KeyboardInterrupt):
        interrupted.crawl(POPULATION, checkpoint_path=checkpoint)
    assert json.loads(checkpoint.read_text())["trace"]["open"] == [1]
    make_supervisor(3).crawl(POPULATION, checkpoint_path=checkpoint)
    assert writes == DIGESTS["interrupted-resumed"]


def test_second_crawl_over_grown_population(tmp_path, writes):
    checkpoint = tmp_path / "ck.json"
    supervisor = make_supervisor(3)
    supervisor.crawl(POPULATION[:5], checkpoint_path=checkpoint)
    assert json.loads(checkpoint.read_text())["trace"]["open"] == []
    supervisor.crawl(POPULATION, checkpoint_path=checkpoint)
    assert writes == DIGESTS["second-crawl-grown"]


def test_each_item_is_encoded_once(tmp_path, monkeypatch):
    """Writes re-encode only what changed: every record and ledger entry
    is encoded once per crawl, every span once after it finishes plus
    once per write that finds it still open."""
    encodes = Counter()
    for cls in (VisitRecord, Span, LedgerEntry):

        def counted(self, _to_dict=cls.to_dict):
            encodes[id(self)] += 1
            return _to_dict(self)

        monkeypatch.setattr(cls, "to_dict", counted)
    open_at_write = Counter()
    write = CrawlSupervisor._write_checkpoint

    def spy(self, path, records):
        open_at_write.update(id(span) for span in self.tracer.open_spans)
        write(self, path, records)

    monkeypatch.setattr(CrawlSupervisor, "_write_checkpoint", spy)
    supervisor = make_supervisor(1)
    result = supervisor.crawl(POPULATION, checkpoint_path=tmp_path / "ck.json")

    records = result.records
    entries = supervisor.ledger.entries
    spans = supervisor.tracer.spans
    assert [encodes[id(r)] for r in records] == [1] * len(records)
    assert [encodes[id(e)] for e in entries] == [1] * len(entries)
    assert [encodes[id(s)] for s in spans] == [
        1 + open_at_write[id(s)] for s in spans
    ]
    assert open_at_write[id(spans[0])] == len(POPULATION)
    # No other object of these classes was encoded.
    assert sum(encodes.values()) == (
        len(records) + len(entries) + len(spans) + sum(open_at_write.values())
    )
