"""The streamed JSON writer against the one-shot ``json.dumps`` writer it
replaced, which stays here as the oracle."""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from riverscape import snapshots
from riverscape.snapshots import dump_json

CHUNK = snapshots._CHUNK


def oracle_dump_json(obj: dict, path) -> None:
    """The writer ``dump_json`` replaced: the whole text at once."""
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    )


# strings that need escapes, and ones outside ASCII
TEXT = st.one_of(st.text(max_size=8),
                 st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f",
                                  "é", "ψ→φ", " ", "😀", ""]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=12)


@st.composite
def long_lists(draw):
    """A top-level list of a length around the writer's slices, its
    items cycled from a few drawn values."""
    n = draw(st.sampled_from([0, CHUNK - 1, CHUNK, CHUNK + 1,
                              3 * CHUNK + 7]))
    items = draw(st.lists(VALUES, min_size=1, max_size=3))
    return [items[i % len(items)] for i in range(n)]


DOCUMENTS = st.dictionaries(TEXT, st.one_of(VALUES, long_lists()),
                            max_size=5)


def written(writer, obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        writer(obj, path)
        return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(DOCUMENTS)
@example({})
@example({"heights": list(range(3 * CHUNK + 7)), "labels": [],
          "schema": "riverscape.snapshot/1", "windowRef": {"radius": 2}})
@example({"é": ["\"\\"] * (CHUNK + 1), "a": {"z": None, "b": [True]}})
def test_streamed_bytes_equal_the_one_shot_writer(obj):
    assert written(dump_json, obj) == written(oracle_dump_json, obj)
