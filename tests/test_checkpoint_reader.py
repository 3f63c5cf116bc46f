"""``split_checkpoint``: the checkpoint layout read back, value by value.

The shard merge splices each shard checkpoint's record-array text into
its own checkpoint verbatim, so the reader must return exactly what
``json.loads`` returns, locate every top-level value's text exactly, and
refuse any layout other than the one ``repro.crawl.checkpoint.dumps``
writes -- whatever the record strings contain.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.crawl.checkpoint import (
    EncodedArray,
    checkpoint_payload,
    dumps,
    split_checkpoint,
)

#: Strings that look like the layout the reader walks, plus non-ASCII.
TRICKY = st.sampled_from(
    ['", "records": [', "]}", '"}, {"', ", ", ": ", "\\", "é", "日本語", " "]
)
TEXT = st.one_of(TRICKY, st.text(max_size=12))
SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    TEXT,
)
RECORD = st.fixed_dictionaries(
    {
        "domain": TEXT,
        "visit_index": st.integers(0, 7),
        "reached": st.booleans(),
        "detail": st.dictionaries(TEXT, SCALAR, max_size=3),
        "errors": st.lists(TEXT, max_size=3),
    }
)
SPAN = st.fixed_dictionaries(
    {
        "span_id": st.integers(1, 99),
        "name": TEXT,
        "attrs": st.dictionaries(TEXT, SCALAR, max_size=2),
    }
)


@st.composite
def payloads(draw):
    traced = draw(st.booleans())
    return checkpoint_payload(
        crawler_name=draw(TEXT),
        seed=draw(st.integers()),
        instances=draw(st.integers(1, 8)),
        clock_ms=draw(st.floats(0, 1e9)),
        stats={"visits": draw(st.integers(0, 99))},
        browsers=draw(
            st.lists(
                st.fixed_dictionaries(
                    {"fault_count": st.integers(0, 3), "recycles": st.integers(0, 3)}
                ),
                max_size=3,
            )
        ),
        trace=(
            {"next_id": 1, "open": [], "spans": draw(st.lists(SPAN, max_size=3))}
            if traced
            else None
        ),
        records=draw(st.lists(RECORD, max_size=4)),
        ledger=draw(
            st.one_of(
                st.none(),
                st.fixed_dictionaries(
                    {
                        "next_id": st.integers(1, 9),
                        "probe_sizes": st.lists(st.integers(0, 9), max_size=3),
                        "entries": st.lists(TEXT, max_size=2),
                    }
                ),
            )
        ),
    )


class TestSplitCheckpoint:
    @settings(max_examples=120, deadline=None)
    @given(payloads())
    def test_returns_loads_and_each_value_text(self, payload):
        text = dumps(payload)
        parsed, offsets = split_checkpoint(text)
        assert parsed == json.loads(text)
        assert list(offsets) == list(payload)
        for key, (start, end) in offsets.items():
            assert json.loads(text[start:end]) == parsed[key]

    @settings(max_examples=60, deadline=None)
    @given(payloads())
    def test_record_text_splices_back_verbatim(self, payload):
        text = dumps(payload)
        _, offsets = split_checkpoint(text)
        start, end = offsets["records"]
        inner = text[start + 1 : end - 1]
        spliced = dict(payload, records=EncodedArray([inner] if inner else []))
        assert dumps(spliced) == text

    @settings(max_examples=60, deadline=None)
    @given(payloads())
    def test_any_other_layout_raises(self, payload):
        for other in (
            json.dumps(payload, indent=1),
            json.dumps(payload, separators=(",", ":")),
            " " + dumps(payload),
            dumps(payload) + "\n",
            dumps(payload)[:-1],
        ):
            with pytest.raises(ValueError):
                split_checkpoint(other)

    def test_non_object_and_repeated_keys_raise(self):
        for text in ("[]", '"records"', '{"a": 1, "a": 2}', "{1: 2}", ""):
            with pytest.raises(ValueError):
                split_checkpoint(text)
        assert split_checkpoint("{}") == ({}, {})
