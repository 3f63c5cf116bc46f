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

import errno
import hashlib
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

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
from repro.obs.probes import ProbeLedger
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
        "c2209d51ee7e744d52fc509a3be9c3c8e3c9b478e6a6e623a3ad968f1a2ecbb3",
        "b987c01ff3a484a160fa771f2a64320643fbe7369849be53f84ff231d8ea8038",
        "19b36b7011dd74a4f08000d4c1ca4cf66c8e677721a3894aac08ce27d55d274a",
        "8de0fcddb49e61f91c847a10eaf8cc9b24e6ef2f39684d67a73c479d70b5be1b",
        "f3468bb4e8333344bea036650decc71e989d1a0ae397240805a31d88e019c582",
        "3db582d2a9ba82e3d303a8e2b6fa12f29a9e3c7080fc256a6cd789c34c4121cd",
        "23a4f73e3db32f1fee7a8d21387fa3e0fcc23bafe972634893f0ce7ace8d757a",
        "ec1c1e845432de613163e08547427e4bc6aa55b26994edf40afcf89e52b3d2ac",
        "e66d28d0fbc57e7e745e16ce47f08d0dd08b1fb2f20319350f90f2238d5eb651",
        "837c876e945a46225b0c18a7831cd9ac03adef61cee8c73d1a14f92e0aea49ab",
        "9de4b810304883a829b2773a441f5b7caf2e97dd8d029145b3cb81f413a147d6",
        "e83153c344e4d373eee0011b5b62eeed9fd9218e513855c0f2e84639dfd0bc20",
        "b37019bc2da46a07ca830e35decdd424fa6af567d9500fe0c3cc84deb9308d1b",
        "b1d24a8eba0e4a76f7479550939f58eaf01f0d9e191dc50029daf971c13d3af1",
        "3f7a6c2628e73092b12c358ae577abf45320ee79a97d41bca5769d8e78f771de",
    ],
    "traced-every-3": [
        "19b36b7011dd74a4f08000d4c1ca4cf66c8e677721a3894aac08ce27d55d274a",
        "3db582d2a9ba82e3d303a8e2b6fa12f29a9e3c7080fc256a6cd789c34c4121cd",
        "e66d28d0fbc57e7e745e16ce47f08d0dd08b1fb2f20319350f90f2238d5eb651",
        "e83153c344e4d373eee0011b5b62eeed9fd9218e513855c0f2e84639dfd0bc20",
        "3f7a6c2628e73092b12c358ae577abf45320ee79a97d41bca5769d8e78f771de",
    ],
    "untraced-every-3": [
        "401a5ab9f2871c9afe511e827a6d3e7fdca75336499ff60bebcb28b2372f2a82",
        "4e89fb30adb838da5e65a60f042569069e76e2c71e370050953c8c243fe48871",
        "1012d9cc3757bea7934d86c1a53f1ca43d5ad5a8d8023a1ae6c6767719efa5d8",
        "975947cad0315debfadf11994bc01194be3b169df34bf921359ee19dffa2b674",
        "db14387a814478c38e34fb0c6dae017f8049ba8757c3b58e6b11800d9d6a5e24",
    ],
    "interrupted-resumed": [
        "19b36b7011dd74a4f08000d4c1ca4cf66c8e677721a3894aac08ce27d55d274a",
        "3db582d2a9ba82e3d303a8e2b6fa12f29a9e3c7080fc256a6cd789c34c4121cd",
        "600e7957679fcb663f714cee013bac9adc6359fc3af4c8acebe967c5afc00bb5",
        "e14da513abce0cf7354eda160698d1d7e60c0d8631303c70d481a690f6dc4b12",
        "e9797bcb85779c91a7a6b893262a2714aa1325475460dc7f113e92c420a977f4",
    ],
    "second-crawl-grown": [
        "19b36b7011dd74a4f08000d4c1ca4cf66c8e677721a3894aac08ce27d55d274a",
        "137107902a9bcefddaee2f7854690345c59866fbcf8e8a8b5a64fc2f38cc6047",
        "e3ca3dc14abc1a97f861a35581bf4fb8b7b6b8f0ef25e4841d03407bcd873321",
        "718d05c5dde01d2f65550131748c82e79b4e5a617156d58f198c8063ae7d6962",
        "4b2233c174c4d560f8f224fdbd1a8cd6a6f8df2344afd558f377d8f6d8c39263",
        "e21f3b3cd3d3285dc42407b1db4cdbe0369d1a2e6ec9208736f242e4624e98d5",
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


class TornFile:
    """An open file that takes ``budget`` characters, then fails as a
    full disk does."""

    def __init__(self, handle, budget):
        self.handle = handle
        self.budget = budget

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        if len(text) > self.budget:
            self.handle.write(text[: self.budget])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(text)
        return self.handle.write(text)

    def writelines(self, parts):
        for part in parts:
            self.write(part)


def test_a_write_torn_mid_file_keeps_the_previous_checkpoint(
    tmp_path, monkeypatch
):
    """A checkpoint write that fails mid-file stops the crawl, replaces
    nothing and leaves no tmp file: the resume finds the last complete
    checkpoint, byte for byte."""
    checkpoint = tmp_path / "ck.json"
    opened = []
    open_path = Path.open

    def torn_second_write(self, mode="r", *args, **kwargs):
        handle = open_path(self, mode, *args, **kwargs)
        if "w" in mode and self.name.endswith(".tmp"):
            opened.append(self.name)
            if len(opened) == 2:
                return TornFile(handle, budget=1000)
        return handle

    monkeypatch.setattr(Path, "open", torn_second_write)
    with pytest.raises(OSError, match="No space left"):
        make_supervisor(3).crawl(POPULATION, checkpoint_path=checkpoint)
    assert opened == ["ck.json.tmp"] * 2
    assert list(tmp_path.iterdir()) == [checkpoint]
    assert hashlib.sha256(checkpoint.read_bytes()).hexdigest() == (
        DIGESTS["traced-every-3"][0]
    )


def test_each_item_is_encoded_once(tmp_path, monkeypatch):
    """Writes re-encode only what changed: every record and ledger entry
    is encoded once per crawl, every span once after it finishes plus
    once per write that finds it still open."""
    encodes = Counter()
    encoder_calls = Counter()
    to_json = VisitRecord.to_json

    def counted_record(self):
        encodes[id(self)] += 1
        encoder_calls["items"] += 1
        return to_json(self)

    monkeypatch.setattr(VisitRecord, "to_json", counted_record)
    # A record is encoded by its ``to_json``, counted above with the
    # items; a span and an entry as the dict each is, through the
    # checkpoint's canonical JSON.
    encode = checkpoint_module.canonical_json

    def counted_json(value):
        encoder_calls["items"] += 1
        if "span_id" in value or "entry_id" in value:
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
