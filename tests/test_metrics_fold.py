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
        "trace": "e79de754e9fa9de67097f98965e59ee423d272092b91f9cdf811ae6141907c85",
        "report.json": "b7febfc5e195d6b0d7584e2c7e63ceba21e272f85efe31e1d23fde7e4adc2433",
        "report.txt": "de268aace758bbdba794bf635b58aade8a0d9e2b0730e53808dd42d05737c088",
        "profile": "bea82a5264802111b026b7ffda501caea0d4ae1d2bd8cabe47b56f2b510dc6dc",
        "speedscope": "ce68ced873e6d6fbf7763703bcb249dd6c695ab760421d4b076feeceef3a45d9",
        "chrome": "70bdc9eaa8ee87cc4b60ab04f3047bd32dec2312d758939ff2a43e46ff09fb4f",
    },
    "resumed": {
        "trace": "5a38525c5c6f4fddfd1e1c253a4b1dab30b09126f14de209700d54fd952c468c",
        "report.json": "7b621cb53d35264bd62bd324c4381e1b3d4b305b3993b589de5a838d1f74ee35",
        "report.txt": "2735923250046d9318c059c65abb07537e7f2100d9e8e3fe9cc16c4350648a06",
        "profile": "30937cf1489af66d48988457cd2d90968169709ee8a30c9d6fcb8b30286ed66b",
        "speedscope": "69d636768006b610bdf937eef187686132b836ee68c8d3bba76c5e3ebd3f4536",
        "chrome": "8dc5349cffe30d5c2ca7a60cb124673e099f8e7603c2ad1bad00cf0659d64181",
    },
    "serial": {
        "trace": "af24f90d3f57440aec236df811d76f749ad6b3a44252e85e455b1f5d822e16c1",
        "report.json": "cda34b37296687537f831ca76ef9ec7b4709308ef1e4ad2bb8a71086d03cae3d",
        "report.txt": "91eceb9beb59ba9debbe2de621c29f86114a3b30638f3152c190f54e96d26f08",
        "profile": "187670c904388cb7fe970c8986e51486d548009205344be2ba9e5fb503e25a81",
        "speedscope": "aa581edabecddb77145f2150655b484be20e7b1f1b0e16c426bcbf5e448c5b2f",
        "chrome": "def83009ddcd90e2ce66d33958bd17a6b5b4e0de11d9070d490a9a2e9993dd01",
    },
    "sharded": {
        "trace": "facf036dfb4061c55b0de2444c402481007bad04feea9751a0935d050640c417",
        "report.json": "67d56ec4dbc4987a18e30c88f83c64d3f4645507698064a0db00d80a395b4556",
        "report.txt": "9847c1ac3639ea00c5d4589312defd2fd7fefbcd7ed9b47192c473e265e1a292",
        "profile": "c4daa222fb811981f16f2550b45e560da91e66b385530d6cfc890037c646bdf2",
        "speedscope": "eaee2eda3212d02e946a6348de7abc995cb3ecec514894ba2e76a504d5e89a6e",
        "chrome": "61b3b6e3dd46100c1716e3846f04cacd0e1711a42dc13178dc780ec344ba6ebf",
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
