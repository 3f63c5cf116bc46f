"""Byte-identity gate for every checkpoint file the supervisor writes.

A supervisor checkpoint is the resume contract, the shard merge's input
and the serial-vs-sharded oracle's subject, so its bytes are pinned
here: the sha256 of every file each scenario writes, intermediate and
final.  Each write is also compared with ``json.dumps`` of the payload
the supervisor's state describes at that moment
(:func:`reference_payload`, the plain version-3 builder), so a writer
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
    """The version-3 checkpoint payload, built in full from the
    supervisor's state: the document every write must encode."""
    payload = {
        "version": 3,
        "crawler_name": supervisor.crawler.name,
        "seed": supervisor.crawler.seed,
        "instances": supervisor.crawler.instances,
        "clock_ms": supervisor.clock.now(),
        "stats": asdict(supervisor.stats),
        "browsers": [
            instance.state_dict() for instance in supervisor._instances or []
        ],
        "trace": supervisor.tracer.state_dict(),
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
        "e112f28af2a33d444475fbbe007cfa39d3fb058cf8f4da4c83abf69c31c3d1fb",
        "7add72bbbe833ec9b6c4d98baee7c7d2257573f610097b5a4179ec40a46000d1",
        "4379e753e800f8f579fd33969aaa590ce06719fcafa4ddf2273fd0b17d3de6b6",
        "65059b714e856c0e8edc9954ebc553643858acd191bc8bec4a54bd2af4c1830e",
        "7f723c176f766e0c21a474facc6b2964a6fdedc94cbbe8cbff02e72b2eb6630b",
        "fe8006e8715cda0099b7deb8977c9b20789b8d7a9af51f0c073b54b6f54fd036",
        "791b613cc94c39f3d633b0e6b81dd214f779a421ea194d8e19c23e5577acd733",
        "2bd9028f7e47d8a49873596660aeb6db460ca9983f7c6903536ea47b0d5c0a78",
        "9033575dcb002404fa095a32b3c4d59df644e26720d077f0bb5feaac6dc5e207",
        "5e801d382045600d147d9a39d7dd11cff9b51dd45ce5a83854cc50764d6c3b67",
        "e016a63eb3417d495c38f3c0db709c7c84ac67068e4e74f10806608d4605eb69",
        "6942d7c9abb3746ad366df857e0c63c6d4ea3175c8f59cc2b5e89ff873c5d63f",
        "e0f2f7ad6e106992f6f1653b64770d3cdb433d317c4f7dfb01b11895ce02eb3b",
        "97a113db6ed9988bb4a5892fd31109089d2b56d5587dc85f1142e3d6b3375689",
        "c2a12b966c5624e7ab17bae02dc1efa7c294b22eb46e3bc2622771eb00b4632d",
    ],
    "traced-every-3": [
        "4379e753e800f8f579fd33969aaa590ce06719fcafa4ddf2273fd0b17d3de6b6",
        "fe8006e8715cda0099b7deb8977c9b20789b8d7a9af51f0c073b54b6f54fd036",
        "9033575dcb002404fa095a32b3c4d59df644e26720d077f0bb5feaac6dc5e207",
        "6942d7c9abb3746ad366df857e0c63c6d4ea3175c8f59cc2b5e89ff873c5d63f",
        "c2a12b966c5624e7ab17bae02dc1efa7c294b22eb46e3bc2622771eb00b4632d",
    ],
    "untraced-every-3": [
        "fcca5d0ff31a3d959c72e2d4c159838614764de5bd25b7a83706f0a89ff3917c",
        "a9b6cc10f3e12f703f62adb6fbdabf08a6a393c26538f861abc68ca67e920978",
        "8b4ea9bba1501af36d30b9ff5897c7777bccb25e5c95c73d1682ae401693ea97",
        "bf9881907bedf328eec6d47e334000bbde7022ae8742c4147638ed7451a51e95",
        "84d3f059ba9bb161b9bb0b5f12b0cb8d917897af15e309afcd3ea7154f3ac9de",
    ],
    "interrupted-resumed": [
        "4379e753e800f8f579fd33969aaa590ce06719fcafa4ddf2273fd0b17d3de6b6",
        "fe8006e8715cda0099b7deb8977c9b20789b8d7a9af51f0c073b54b6f54fd036",
        "e084f6d23ae1b9970746418ba206e135e98bf2d1b58c8f0d989ca6f73e54666e",
        "5cfad273e109be1583d74a428ae866d8072ae89e1bc9e06d9206ab36fd72a8d7",
        "37da388e561e0c21767e703b914fbad89605e1b728622a070dbc5db3fa5662bb",
    ],
    "second-crawl-grown": [
        "4379e753e800f8f579fd33969aaa590ce06719fcafa4ddf2273fd0b17d3de6b6",
        "d9e3acfcc9e0dba887d40082286c5dc358f114ceca346a6de412d51a7ee467f1",
        "0b637c510784a2036b17a1213ab68b5356b82425bcc463928707217d0fff9c61",
        "4a6d70d85682757ab677106fce0dca7218ae1c2901d8f6dce29bc73f4f827b7a",
        "3def0e39dc7de8452aff85abb35eff2eac4389dc0e7ef984c7ef8362bff21163",
        "1cfbc3e0e1a73746029d0140803a9134a54ef354d1a54791a399a6d4f5bd29f5",
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
