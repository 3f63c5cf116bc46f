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
"""

import hashlib
import json

import pytest

from repro.crawl import hostile_population
from repro.faults import FaultPlan
from repro.obs.export import parse_span_dicts
from repro.obs.metrics import crawl_metrics
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


def bus_events(spans):
    return sum(
        1
        for span in spans
        for event in span["events"]
        if event["name"].startswith("bus.")
    )


class Shape:
    """One crawl's exported trace, ledger state and metrics file, and its
    bus publish count (``None`` for an interrupted crawl: the bus count
    restarts on resume)."""

    def __init__(self, spans, ledger, metrics_path, published=None):
        self.spans = spans
        self.ledger = ledger
        self.metrics_bytes = metrics_path.read_bytes()
        self.metrics = json.loads(self.metrics_bytes)
        self.published = published


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
        spans=parse_span_dicts(outcome.artifacts.trace.read_text()),
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
        spans=parse_span_dicts((out / "serial.trace.jsonl").read_text()),
        ledger=supervisor.ledger.state_dict(),
        metrics_path=write_canonical_json(
            out / "serial.metrics.json", supervisor.metrics_state()
        ),
        published=supervisor.bus.events_published,
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
