"""The report writer against its oracle.

``fileio.render_json`` must give the bytes of ``json.dumps(payload,
sort_keys=True, indent=2, allow_nan=False) + "\\n"`` on any report tree,
and raise what that call raises, with the same type and message, on
any tree it refuses.  Hypothesis draws the trees with
``derandomize=True``, so every run checks the same examples.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chaosmark import fileio

CASES = settings(max_examples=250, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class Sub(dict):
    """A dict subclass: json lays it out as a dict."""


def oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def outcome(render, payload):
    """The text render gives, or the type and message of what it raises."""
    try:
        return render(payload)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


# Text with non-ASCII, quotes, control characters, a lone surrogate and
# the row seams the writer rewrites, at two depths.
TRICKY = ["", "é", "日本", 'q"uote', "back\\slash", "\n\t\x00\x1f", "\ud800",
          "],\n  [", "],\n    [", "],\n      [", "[", "]"]
TEXT = st.one_of(st.text(max_size=6), st.sampled_from(TRICKY))
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 1e16, 1e300, 0.1, -2.5]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64))
INTS = st.one_of(st.integers(), st.integers(2**64, 2**200),
                 st.integers(-2**200, -2**64))
SCALARS = st.one_of(FLOATS, INTS, st.booleans(), st.none(), TEXT)
# Lists of rows, as prefixes, tail blocks and trace points hold them:
# some ragged, some with empty rows, some rows tuples.
ROW = st.one_of(st.lists(SCALARS, min_size=1, max_size=4),
                st.tuples(FLOATS, FLOATS), st.just([]))
ROWS = st.lists(ROW, min_size=1, max_size=5)


def trees(leaves, keys):
    return st.recursive(
        st.one_of(leaves, ROWS, st.lists(leaves, max_size=5)),
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(keys, kids, max_size=4),
            st.dictionaries(keys, kids, max_size=4).map(Sub)),
        max_leaves=25)


REPORTS = st.dictionaries(TEXT, trees(SCALARS, TEXT), max_size=6)

# Values and keys json refuses or converts, mixed into otherwise plain trees.
BAD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"),
                              np.float64("inf"), {1, 2}, np.int64(3)])
ODD_KEYS = st.sampled_from([1, -7, 2**70, 0.5, float("nan"), float("inf"),
                            True, False, None, (1, 2)])
HOSTILE = st.dictionaries(
    st.one_of(TEXT, ODD_KEYS),
    trees(st.one_of(SCALARS, BAD_VALUES), st.one_of(TEXT, ODD_KEYS)),
    max_size=6)


@CASES
@given(REPORTS)
def test_bytes_equal_json_dumps(payload):
    assert fileio.render_json(payload) == oracle(payload)


@CASES
@given(HOSTILE)
def test_refusals_equal_json_dumps(payload):
    assert outcome(fileio.render_json, payload) == outcome(oracle, payload)


def _cycle_list():
    cycle = [1.0, [2.0]]
    cycle.append(cycle)
    return {"a": cycle}


def _cycle_rows():
    rows = [[1.0, 2.0], [3.0]]
    rows.append(rows)
    return {"rows": rows}


def _cycle_dict():
    cycle = {"x": 1.0}
    cycle["self"] = cycle
    return {"a": cycle}


@pytest.mark.parametrize("payload", [
    {"a": float("nan")},
    {"a": [1.0, float("inf")]},
    {"a": {"b": [[1.0, 2.0], [3.0, -float("inf")]]}},
    {"a": [{"b": (np.float64("nan"),)}]},
    {"a": {"b": {"c": [1, [2, [float("inf")]]]}}},
    {"a": 1, 2: "b"},
    {"a": {"b": 1, 0.5: 2}},
    {"a": {"b": 1, True: 2}},
    {"a": {"b": [1], None: [2]}},
    {"a": {(1, 2): 1}},
    {"a": {float("nan"): 1}},
    {"a": [1, {2, 3}]},
    {"a": {"b": np.int64(3)}},
    {"a": [[1.0, np.int64(3)]]},
    _cycle_list(),
    _cycle_rows(),
    _cycle_dict(),
], ids=lambda payload: repr(payload)[:40])
def test_each_refusal_keeps_its_type_and_text(payload):
    want = outcome(oracle, payload)
    assert isinstance(want, tuple), "the oracle must refuse this payload"
    assert outcome(fileio.render_json, payload) == want


@pytest.mark.parametrize("payload", [
    {1: [1.0, 2.0], 2: {"a": 1}},
    {"a": {1: 2, 3: 4}, "b": {None: 1}, "c": {False: 2, 0.5: 3}},
    Sub(b=[[1.0], [2.0, 3.0]], a=Sub()),
    {"a": (), "b": [[]], "c": [[], [1.0]], "d": [{}, []]},
])
def test_converted_keys_and_edge_layouts(payload):
    assert fileio.render_json(payload) == oracle(payload)
