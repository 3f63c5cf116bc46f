"""Byte-identity gate for every checkpoint file the supervisor writes.

A supervisor checkpoint is the resume contract, the shard merge's input
and the serial-vs-sharded oracle's subject, so its bytes are pinned
here: the sha256 of every file each scenario writes, intermediate and
final.  Each write is also compared with the version-4 document the
supervisor's state describes at that moment (:func:`reference_payload`,
built in full with plain ``json.dumps``), so a writer that encodes less
than everything on each write must still produce exactly that
document.

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
from repro.crawl import checkpoint as checkpoint_module
from repro.crawl.visit import VisitRecord
from repro.faults import FaultPlan
from repro.obs.probes import LedgerEntry, ProbeLedger
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


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def item_array(values):
    """A JSON array of export-encoded items, joined by ``,``."""
    return "[" + ",".join(canonical(value) for value in values) + "]"


def with_item_array(state, key):
    """``json.dumps(state)``, with ``state[key]`` -- its last key -- an
    :func:`item_array`."""
    assert list(state)[-1] == key
    rest = json.dumps({name: state[name] for name in list(state)[:-1]})
    return f'{rest[:-1]}, "{key}": {item_array(state[key])}}}'


def reference_payload(supervisor, records):
    """The version-4 checkpoint, built in full from the supervisor's
    state: the document every write must be.

    Every value is ``json.dumps`` of it, except that spans, ledger
    entries and records are canonical JSON items, and the records come
    last, behind the sha256 of their array's text.
    """
    tracer_state = supervisor.tracer.state_dict()
    fields = [
        ("version", 4),
        ("crawler_name", supervisor.crawler.name),
        ("seed", supervisor.crawler.seed),
        ("instances", supervisor.crawler.instances),
        ("clock_ms", supervisor.clock.now()),
        ("stats", asdict(supervisor.stats)),
        (
            "browsers",
            [instance.state_dict() for instance in supervisor._instances or []],
        ),
    ]
    texts = [(key, json.dumps(value)) for key, value in fields]
    texts.append(
        (
            "trace",
            "null" if tracer_state is None else with_item_array(tracer_state, "spans"),
        )
    )
    if supervisor.ledger is not None:
        texts.append(
            ("ledger", with_item_array(supervisor.ledger.state_dict(), "entries"))
        )
    records_text = item_array(r.to_dict() for r in records)
    digest = hashlib.sha256(records_text.encode()).hexdigest()
    texts += [("records_sha256", json.dumps(digest)), ("records", records_text)]
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in texts) + "}"


@pytest.fixture
def writes(monkeypatch):
    """sha256 of every checkpoint file written, in write order; each
    write is checked against :func:`reference_payload` as it lands."""
    digests = []
    original = CrawlSupervisor._write_checkpoint

    def spy(self, path, records):
        original(self, path, records)
        written = path.read_bytes()
        expected = reference_payload(self, records).encode()
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
        "cd23569efae51d8671acad84f74d64622372bd1a02b59e81c3e95ff8943fe4fe",
        "0d350e67439459ac3e837ec41745a36d0397ef96bed0c771e2ef8b3401bf4d58",
        "4e9787a72230cee4276accff44cc287714172bab65abb0ee53bcb8f96e239580",
        "d796184f02f163de4c0d2c0905e4505e3ccbfac298d143146158c9d1159f928d",
        "22591512ecaf7b2cf36c59281f38f69856918089ce54c97d4e154e720a6a4fda",
        "d7e28536f04765fcdab2eb1f75980d05d322fa75d04ffb047f2effe05a0f4edf",
        "1f1ff8022c6a184fb3bd9db3473538f6ba2fba3f8ade0cf27ae4aa2806d70cc7",
        "ad9f74d26445cc7a69bd8be2b854dff59f6e7b8cee1eb427986e424ec2ef4c42",
        "3a4969fe1b7c0c5487090dba45cab5a61449fbd0a7106f3ff5c6a65fd12bf56a",
        "fb223fa45e1b9017c7c339a50d09fe40d9fe9e0901e9ac6cfe6f899a2ba2dc5e",
        "34c49c8c28d849162809a98f9879d4c4ff50ee4c0a0a101b2738969fa312fa70",
        "3330395c5d093a251946ed5ae3e81ed5619d30c1840ff856df0e487399268cb7",
        "385daace2b1a703238e62d3c23de7212fece6e7a1d322f18aaff81e756b4dc7d",
        "11c5812a6a595ac83c5c8124e1882ab06eec592623d09629475cbf8384836d49",
        "934bf06df7fe4d7c78a6c12d1286542d8e7457a835858a4305140b8f75e748e1",
    ],
    "traced-every-3": [
        "4e9787a72230cee4276accff44cc287714172bab65abb0ee53bcb8f96e239580",
        "d7e28536f04765fcdab2eb1f75980d05d322fa75d04ffb047f2effe05a0f4edf",
        "3a4969fe1b7c0c5487090dba45cab5a61449fbd0a7106f3ff5c6a65fd12bf56a",
        "3330395c5d093a251946ed5ae3e81ed5619d30c1840ff856df0e487399268cb7",
        "934bf06df7fe4d7c78a6c12d1286542d8e7457a835858a4305140b8f75e748e1",
    ],
    "untraced-every-3": [
        "401a5ab9f2871c9afe511e827a6d3e7fdca75336499ff60bebcb28b2372f2a82",
        "4e89fb30adb838da5e65a60f042569069e76e2c71e370050953c8c243fe48871",
        "1012d9cc3757bea7934d86c1a53f1ca43d5ad5a8d8023a1ae6c6767719efa5d8",
        "975947cad0315debfadf11994bc01194be3b169df34bf921359ee19dffa2b674",
        "db14387a814478c38e34fb0c6dae017f8049ba8757c3b58e6b11800d9d6a5e24",
    ],
    "interrupted-resumed": [
        "4e9787a72230cee4276accff44cc287714172bab65abb0ee53bcb8f96e239580",
        "d7e28536f04765fcdab2eb1f75980d05d322fa75d04ffb047f2effe05a0f4edf",
        "3006a1d166ca4bba2088723eab5884a8d23f2beaf87556560cebebc2dab180df",
        "bce528e0c8db80bb7bc56388f0f1c2095698f2e0f9a07d2805ec655e5d813734",
        "ba358e75f77dd46f912c85da39738bcd6b40d9ae0b11d053260982f3af162b81",
    ],
    "second-crawl-grown": [
        "4e9787a72230cee4276accff44cc287714172bab65abb0ee53bcb8f96e239580",
        "ef51d252b411b7b7f24678e691df97835643ca666bbf1741a31bf0e131c4d3ec",
        "bf9806d77ee7a6fe5bf0a8407be62cb6b5650c9792a5869c9305085e766a7c59",
        "6d45a95dfab064a1311986ec43320639eeede3fd473ddee7f80404fad10defaa",
        "1ef0d6556a96fe7f3811b7622037d9a37ed0048a68ce8581006987be68fff4f9",
        "2a48009407fc2e1207b6f2550f1a4e5d29b0dbd5b21e1dd8879ffcdfec9d1201",
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
    for cls in (VisitRecord, LedgerEntry):

        def counted(self, _to_dict=cls.to_dict):
            encodes[id(self)] += 1
            return _to_dict(self)

        monkeypatch.setattr(cls, "to_dict", counted)
    # A span is encoded as the dict it is; records and entries as their
    # ``to_dict``, counted above.
    encoder_calls = Counter()
    encode = checkpoint_module.canonical_json

    def counted_json(value):
        encoder_calls["items"] += 1
        if "span_id" in value:
            encodes[id(value)] += 1
        return encode(value)

    monkeypatch.setattr(checkpoint_module, "canonical_json", counted_json)
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
    # No other item was encoded.
    assert encoder_calls["items"] == sum(encodes.values()) == (
        len(records) + len(entries) + len(spans) + sum(open_at_write.values())
    )
