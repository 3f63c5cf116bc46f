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
        "233a51daf713a2d84a6d682d6fddf98727b171bdd1d851d3d13e78c46b575363",
        "697757b0c1feaffaf88a2aa0499dc3f645d36ec9204eccbd3f2c0312b11af59a",
        "d711241351de8d7805d7af02c77b301a579032a5be1f44e0ba0f4cc840e228b6",
        "fb51f9a8a59c08284d6ae4861606e8fa8a7b207a336773ee3e5c6d02a86af5de",
        "cd5240abcf16fd44c71da9f7967554f5ae7475c9e2ff72b0c820f978c0362d44",
        "829a2132c7e9df83bc3e21684ffc936f516c15c302a760fd6665a5fd03c8b4ae",
        "80a983a829fca962ba7e9faba65690078de7800e7209f776c2efe3d9210f4c73",
        "cd54a29b6e0613722de03ab5f133b14e37392a157b93a3752c95a78d029a67da",
        "84c4ef6712d9686cc41cf1a5e3a75983b53c755d310181e6c89ba022116b5afb",
        "48415d82178f8b027faa146d1ef7030fc298c3232a42f4638f6fa21948ed1a2f",
        "89c73cc7d304e1e7295deb259de44c7121d546b50267498710306b42cd75a7a0",
        "2bd3b46acbe083c18a76f9ed4375f06665d72154cfee321f192be7b810d6cfca",
        "7ba766a1b9bed56d30db28d7f7df42f03101d66b86d9e77832ec56347c65574b",
        "e931116eab64b89b269027482707396790d0e9b2ccee57fa38c64a9421e012e8",
        "ce82740039ef86b0b142bb9c153269bbce39c7ce42d658be7d8e2a9d0271bfc4",
    ],
    "traced-every-3": [
        "d711241351de8d7805d7af02c77b301a579032a5be1f44e0ba0f4cc840e228b6",
        "829a2132c7e9df83bc3e21684ffc936f516c15c302a760fd6665a5fd03c8b4ae",
        "84c4ef6712d9686cc41cf1a5e3a75983b53c755d310181e6c89ba022116b5afb",
        "2bd3b46acbe083c18a76f9ed4375f06665d72154cfee321f192be7b810d6cfca",
        "ce82740039ef86b0b142bb9c153269bbce39c7ce42d658be7d8e2a9d0271bfc4",
    ],
    "untraced-every-3": [
        "aa08750b9c9207b08c452c3ad2e7a7befd68315c3220ed3506b1892384a056ff",
        "fcc8d4d08448b11341b9341c8d201b1c6fed7b1075607dad0092ef5399d540f9",
        "1af0e22277c9b719157d8fff8c1462a64c437658f984799a5d9349ad3add7118",
        "4ca71362122a9e5b398b865486c0e3c20f62a33e16f6fe1b9dfaabaed01e8925",
        "b5b54c4f4ac62b38f0c629c9b0d698ae7d35600cfad2da061d956518903ac2e6",
    ],
    "interrupted-resumed": [
        "d711241351de8d7805d7af02c77b301a579032a5be1f44e0ba0f4cc840e228b6",
        "829a2132c7e9df83bc3e21684ffc936f516c15c302a760fd6665a5fd03c8b4ae",
        "00a6e3eaa92b800b7473fcc3ec8b32095fcc372ce100288785f354c09194f017",
        "6f59939c057e50bd3763c390bbad3d6d3213918b3b7b9496bd78ffa360ab9c5a",
        "f4cfe848e7aad8eb4114dab8de6403000ecfa7995816a96b7d9b26efc016022f",
    ],
    "second-crawl-grown": [
        "d711241351de8d7805d7af02c77b301a579032a5be1f44e0ba0f4cc840e228b6",
        "277576834d1535e66914dbff87fabbbb3a12898135a0eca4c983fc46ed50101c",
        "374621ff9d10c061b5994f43a7f11b8c73aa429579cb882e42fd91062e52da10",
        "20b101cadf0d96a5e62a16d3ce10be3033c0ea8970d23095e7588ed2387b3daf",
        "61fca356948a610859de53157fda4fbd33bcdfb74745a26a3c706c82380b9e32",
        "15915d7892f7b6693d1d520af2b7d0650e5c8436cf885a1f255dc05dbe78c06a",
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
