"""``split_checkpoint``: the version-4 checkpoint layout read back.

The shard merge joins each shard checkpoint's record-array text into
its own files without decoding it, so the reader must return exactly
what ``json.loads`` returns for every other value, locate the record
array exactly, and refuse any layout other than the one
``repro.crawl.checkpoint.dump_parts`` encodes -- whatever the record
strings contain -- and any record array that does not match its digest.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.crawl.checkpoint import (
    EncodedArray,
    checkpoint_payload,
    dump_parts,
    split_checkpoint,
)
from repro.obs.export import canonical_json


def encode(value):
    """The checkpoint text :func:`dump_parts` writes, a part at a time."""
    return "".join(dump_parts(value))

#: Strings that look like the layout the reader walks, plus non-ASCII.
TRICKY = st.sampled_from(
    [
        '", "records": [',
        '"records_sha256": "',
        "]}",
        '"}, {"',
        ", ",
        ": ",
        "\\",
        "é",
        "日本語",
        " ",
    ]
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


def items(values):
    """Values as a checkpoint item array: canonical texts joined by ``,``."""
    return EncodedArray([",".join(canonical_json(value) for value in values)])


@st.composite
def checkpoints(draw):
    """A version-4 payload, and the records its array encodes."""
    records = draw(st.lists(RECORD, max_size=4))
    record_array = items(records)
    traced = draw(st.booleans())
    payload = checkpoint_payload(
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
            {
                "next_id": 1,
                "open": [],
                "spans": items(draw(st.lists(SPAN, max_size=3))),
            }
            if traced
            else None
        ),
        records=record_array,
        records_sha256=record_array.sha256(),
        ledger=draw(
            st.one_of(
                st.none(),
                st.fixed_dictionaries(
                    {
                        "next_id": st.integers(1, 9),
                        "probe_sizes": st.lists(st.integers(0, 9), max_size=3),
                        "entries": st.lists(TEXT, max_size=2).map(items),
                    }
                ),
            )
        ),
    )
    return payload, records


class TestSplitCheckpoint:
    @settings(max_examples=120, deadline=None)
    @given(checkpoints())
    def test_returns_each_head_value_and_the_record_offsets(self, drawn):
        payload, records = drawn
        text = encode(payload)
        head, (start, end) = split_checkpoint(text)
        expected = json.loads(text)
        assert expected.pop("records") == records
        assert head == expected
        assert list(head) == list(payload)[:-1]
        assert text[start:end] == "[" + "".join(payload["records"].texts) + "]"
        assert text[end:] == "}"
        assert head["records_sha256"] == (
            hashlib.sha256(text[start:end].encode()).hexdigest()
        )

    @settings(max_examples=60, deadline=None)
    @given(checkpoints())
    def test_record_text_splices_back_verbatim(self, drawn):
        payload, _ = drawn
        text = encode(payload)
        _, (start, end) = split_checkpoint(text)
        spliced = dict(payload, records=EncodedArray([text[start + 1 : end - 1]]))
        assert encode(spliced) == text

    @settings(max_examples=60, deadline=None)
    @given(checkpoints())
    def test_any_other_layout_raises(self, drawn):
        payload, _ = drawn
        text = encode(payload)
        parsed = json.loads(text)
        records_first = {
            key: payload[key] for key in ("version", "records_sha256", "records")
        }
        records_first.update(payload)
        for other in (
            json.dumps(parsed, indent=1),
            json.dumps(parsed, separators=(",", ":")),
            " " + text,
            text + "\n",
            text[:-1],
            # Records not last.
            encode(records_first),
            # No digest, or another one.
            encode({k: v for k, v in payload.items() if k != "records_sha256"}),
            encode(dict(payload, records_sha256="0" * 64)),
        ):
            with pytest.raises(ValueError):
                split_checkpoint(other)

    def test_bad_heads_and_versions_raise(self):
        empty = hashlib.sha256(b"[]").hexdigest()
        minimal = f'{{"version": 4, "records_sha256": "{empty}", "records": []}}'
        head, (start, end) = split_checkpoint(minimal)
        assert head == {"version": 4, "records_sha256": empty}
        assert minimal[start:end] == "[]"
        for text in (
            "[]",
            '"records"',
            "{}",
            "",
            '{"version": 4, "a": 1, "a": 2, ' + minimal[15:],
            '{"version": 4, 1: 2, ' + minimal[15:],
            '{"seed": 1, ' + minimal[1:],
        ):
            with pytest.raises(ValueError, match="checkpoint layout"):
                split_checkpoint(text)
        for version in ("3", "5", '"4"', "null"):
            with pytest.raises(ValueError, match="unsupported checkpoint version"):
                split_checkpoint(minimal.replace("4", version, 1))

    def test_records_not_last_raise_whatever_the_digest(self):
        tail = '[], "seed": 1'
        digest = hashlib.sha256(tail.encode()).hexdigest()
        text = f'{{"version": 4, "records_sha256": "{digest}", "records": {tail}}}'
        with pytest.raises(ValueError, match="not the last value"):
            split_checkpoint(text)
