"""``crawl.metrics.json`` is a fold of the trace and the probe ledger.

Every crawl counter is a fact some trace event (or ledger entry)
carries, so :func:`repro.obs.metrics.crawl_metrics` derives the whole
metrics export from the two.  Four crawl shapes -- serial with faults,
hostile sites and the ledger; sharded over 2 workers; sharded,
interrupted and resumed; sharded without the ledger -- pin the sha256
of their canonical metrics export.  The digests were recorded from the
live metrics registry the fold replaced (less its two
``bus.events.attempt_*`` counters, whose events are gone), and the
fold of each exported trace and ledger must reproduce the export.

The same four shapes also pin every export read from the trace: the
trace file itself, the crawl report (JSON with ``top=3`` and text), the
canonical profile, and the speedscope and chrome-trace files.  A
serial-vs-sharded comparison passes when both sides change alike; these
digests do not.
"""

import hashlib
import json

import pytest

from repro.crawl import hostile_population
from repro.faults import FaultPlan
from repro.obs.export import read_trace
from repro.obs.flame import write_chrome_trace, write_speedscope
from repro.obs.metrics import crawl_metrics
from repro.obs.profile import build_profile, profile_to_json
from repro.obs.report import build_report
from repro.shard import (
    ShardRunSpec,
    build_supervisor,
    run_sharded_crawl,
    write_canonical_json,
)

SITES = 80

DIGESTS = {
    "serial": "15f88680d4eb72e992dafcb7be4ddd86fd0a65760c03280c01a980531bc1c0cf",
    "sharded": "bae1642b6189fcb6390e504f2f123bbdda77c0ee1305c74cea8212e32dc042d2",
    "resumed": "4e995665266502fd5ec579e1772fc8684e0087cf6f84bc779995be141ce7be75",
    "no-ledger": "0eb4aec8cac4f8f86fa6544153ff96dad7a3f4d6395aced3b5158780683289bd",
}

#: sha256 of each export read from the shape's trace (see
#: :func:`export_bytes`).
EXPORT_DIGESTS = {
    "no-ledger": {
        "trace": "b0d97dc71fb847e9030ceb9584e7f630f1c93afa3a95861e5f82bf326dc929e0",
        "report.json": "7f6e436b404a81ad1c3fbc73c165bffb885f4191c1c8f768127ee5624fbd712e",
        "report.txt": "28d0c3661fee8011c310c02b91181885f465caa2375c64988d512eb0bec727e7",
        "profile": "15531c6510d66f5e6c59a4e064de22ad5e2075144daf091ddfc6a71c09d5b70f",
        "speedscope": "d7d263841826163652941280b64cfc82859481926cd999d7fdc1530ec17e204b",
        "chrome": "a17da6a87183d436e1ecefad19ba9fe7e178c9870298119dc075ea97a9d9ec84",
    },
    "resumed": {
        "trace": "04ee324fff66bf16a38cfabf17fdc0fd6d65b5ccee77b257dfb4796b7b9e6dc6",
        "report.json": "9631e19d76073e61353c22931225b0cfb0d3817584b79dbc2b15510159e570c3",
        "report.txt": "efa1a2e62ca0bc20d4096260eb354be3d3f567376ee52089318f2426d1de483a",
        "profile": "910f11de3cadd57734685198b3d79bdffe81ecafae445db0609d03160d23d2a6",
        "speedscope": "03aaf3869a1f6ed89b1a0a3f318130e12080215b5f567bb29c31d8cd132359e6",
        "chrome": "f341a06d487bd6793321eb964117dfb5825f0da9f6c95429378d51653b7e8e1e",
    },
    "serial": {
        "trace": "10bf02bb94636063ef9b2ec4cf08d23d094d272efd6912cd9f748bd73116982f",
        "report.json": "24d9eb72cd7095402fa91e1ea53f7a91467f914c35bbf6369920f11c3b711310",
        "report.txt": "58482dbebbad045e41c0fa9bed3e5e509aff21310c2893abc34505e30960015a",
        "profile": "fc7bc36bffabfb8bc459a26b864c733be251df9eb68a750247e1fcc65449deac",
        "speedscope": "0a61c28e2389bd29ad872965c9b9c2412f3e446836adb277464f1cd57f4dd328",
        "chrome": "947aa8b9609f08cbc518af9b442d1c9411bc7d2524cb55b7f06e2bafca90c281",
    },
    "sharded": {
        "trace": "8f1146b08d34a3928a68e3ff30ed05c43db8c803091ff4a06850ecbc88e8705f",
        "report.json": "5b48274812a91895093dc95caf907af0e2c79e5955b68d8beefe117fcb592358",
        "report.txt": "5b96ae488236d97fa2f90cb3a3d34a996670f5e85bf25df4dc4dc31ff43ac598",
        "profile": "71e2212104664d7ce59b7fe6be4fe15dbd3996de9163f9525e2ee7840b23c500",
        "speedscope": "c12cad623b1a923ef3fce385834f6cda2654d1e3ac3c1b38abe4693c2f315e1d",
        "chrome": "dba66249ea18c396a28f3452e6fc6b971350fba09b8b774a3bda9b7b9145c29b",
    },
}


def bus_events(spans):
    return sum(
        1
        for span in spans
        for event in span["events"]
        if event["name"].startswith("bus.")
    )


class Shape:
    """One crawl's exported trace, ledger state and metrics file, its bus
    publish count (``None`` for an interrupted crawl: the bus count
    restarts on resume) and, for the serial crawl, its supervisor's
    report."""

    def __init__(self, trace_path, ledger, metrics_path, published=None, report=None):
        self.trace_path = trace_path
        self.spans = read_trace(trace_path)
        self.ledger = ledger
        self.metrics_bytes = metrics_path.read_bytes()
        self.metrics = json.loads(self.metrics_bytes)
        self.published = published
        self.report = report


def population(hostile):
    return hostile_population(
        SITES, seed=2021, hostile_fraction=0.2 if hostile else 0.0
    )


def spec_for(pop, instances, fault_rate, seed, ledger):
    return ShardRunSpec(
        crawler_name="OpenWPM",
        seed=seed,
        instances=instances,
        fault_plan=FaultPlan.generate(pop, instances, rate=fault_rate, seed=7),
        ledger=ledger,
    )


def serial_run(spec, pop, out):
    supervisor = build_supervisor(spec)
    supervisor.crawl(pop, trace_path=out / "serial.trace.jsonl")
    return supervisor


def sharded_run(spec, pop, out, shard_size, max_shards=None):
    kwargs = dict(
        out_dir=out,
        crawler_name=spec.crawler_name,
        seed=spec.seed,
        instances=spec.instances,
        fault_plan=spec.fault_plan,
        ledger=spec.ledger,
        shard_size=shard_size,
        jobs=2,
    )
    if max_shards is not None:
        partial = run_sharded_crawl(pop, max_shards=max_shards, **kwargs)
        assert not partial.complete
    outcome = run_sharded_crawl(pop, **kwargs)
    assert outcome.complete
    checkpoint = json.loads(outcome.artifacts.checkpoint.read_text())
    return Shape(
        trace_path=outcome.artifacts.trace,
        ledger=checkpoint.get("ledger"),
        metrics_path=outcome.artifacts.metrics,
    )


@pytest.fixture(scope="module")
def shapes(tmp_path_factory):
    out = tmp_path_factory.mktemp("fold")
    result = {}

    hostile = population(hostile=True)
    spec = spec_for(hostile, 4, 0.1, seed=3, ledger=True)
    supervisor = serial_run(spec, hostile, out)
    result["serial"] = Shape(
        trace_path=out / "serial.trace.jsonl",
        ledger=supervisor.ledger.state_dict(),
        metrics_path=write_canonical_json(
            out / "serial.metrics.json", supervisor.metrics_state()
        ),
        published=supervisor.bus.events_published,
        report=supervisor.report().render_json(),
    )

    plain = population(hostile=False)
    spec = spec_for(plain, 4, 0.1, seed=5, ledger=True)
    shape = sharded_run(spec, plain, out / "sharded", shard_size=20)
    shape.published = serial_run(spec, plain, out / "sharded").bus.events_published
    result["sharded"] = shape

    spec = spec_for(hostile, 4, 0.1, seed=9, ledger=True)
    result["resumed"] = sharded_run(
        spec, hostile, out / "resumed", shard_size=15, max_shards=2
    )

    spec = spec_for(hostile, 8, 0.05, seed=11, ledger=False)
    shape = sharded_run(spec, hostile, out / "no-ledger", shard_size=20)
    shape.published = serial_run(spec, hostile, out / "no-ledger").bus.events_published
    result["no-ledger"] = shape
    return result


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_export_is_the_fold_of_trace_and_ledger(shapes, name):
    shape = shapes[name]
    assert crawl_metrics(shape.spans, shape.ledger) == shape.metrics


@pytest.mark.parametrize("name", ["no-ledger", "serial", "sharded"])
def test_every_publish_lands_in_the_trace(shapes, name):
    shape = shapes[name]
    assert shape.published == bus_events(shape.spans)
    counters = shape.metrics["counters"]
    assert shape.published == sum(
        value for key, value in counters.items() if key.startswith("bus.events.")
    )


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_metrics_digest_is_pinned(shapes, name):
    shape = shapes[name]
    counters = shape.metrics["counters"]
    assert not any(key.startswith("bus.events.attempt_") for key in counters)
    assert hashlib.sha256(shape.metrics_bytes).hexdigest() == DIGESTS[name]


def export_bytes(shape, out):
    """Every export of one shape's trace, as the bytes it is written as."""
    spans = shape.spans
    return {
        "trace": shape.trace_path.read_bytes(),
        "report.json": build_report(spans, top=3).render_json().encode(),
        "report.txt": build_report(spans).render_text().encode(),
        "profile": profile_to_json(build_profile(spans)).encode(),
        "speedscope": write_speedscope(out / "speedscope.json", spans).read_bytes(),
        "chrome": write_chrome_trace(out / "chrome.json", spans).read_bytes(),
    }


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_export_digests_are_pinned(shapes, name, tmp_path):
    digests = {
        export: hashlib.sha256(data).hexdigest()
        for export, data in export_bytes(shapes[name], tmp_path).items()
    }
    assert digests == EXPORT_DIGESTS[name]


def test_serial_report_equals_the_report_of_its_trace(shapes):
    shape = shapes["serial"]
    report = build_report(shape.spans, metrics=shape.metrics)
    assert shape.report == report.render_json()
