"""The indented JSON writer every payload goes through."""

import json
import math

from hypothesis import given, settings, strategies as st

from pauliaccess._fixedwidth import JSONText, dump_json

#: strings that would split a row if the writer's replaces reached them
TRICKY_TEXT = st.lists(
    st.sampled_from([", ", "[", "]", "{", "}", "],", '"', "\\", "\n", "é", "∂", "\x00", "a", "1"]),
    max_size=6,
).map("".join)
NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf]),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TRICKY_TEXT)
#: flat rows, the shape of the model's triplets, with bools and strings mixed in
ROWS = st.lists(
    st.one_of(
        st.lists(NUMBERS, max_size=4),
        st.tuples(NUMBERS, NUMBERS, NUMBERS),
        st.lists(st.one_of(NUMBERS, st.booleans()), max_size=4),
        st.lists(SCALARS, max_size=3),
        st.dictionaries(TRICKY_TEXT, SCALARS, max_size=3),
    ),
    max_size=5,
)
KEYS = st.one_of(TRICKY_TEXT, st.integers(-5, 5), st.floats(), st.booleans(), st.none())
JSON_VALUES = st.recursive(
    st.one_of(SCALARS, ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.dictionaries(TRICKY_TEXT, JSON_VALUES, min_size=1))
def test_dump_json_equals_indented_json_dumps(value):
    # a payload is an object with string keys; its fields take any value
    assert dump_json(value) == json.dumps(value, indent=2) + "\n"


def test_dump_json_copies_json_text_as_is():
    data = {"a": 1, "rows": JSONText('[\n    "x"\n  ]'), "b": None}
    assert dump_json(data) == json.dumps({"a": 1, "rows": ["x"], "b": None}, indent=2) + "\n"


def test_dump_json_copies_json_text_beside_nested_containers():
    nested = {"blocks": [{"k": 1, "members": [0, 2]}, {"k": (2,), 3: [[], {}]}], "c": [[1.5]]}
    rows = [[0, 1, -0.0], [1, 0, 0.0]]
    text = json.dumps({"rows": rows}, indent=2)[len('{\n  "rows": ') : -len("\n}")]
    data = {**nested, "rows": JSONText(text), "tail": ["x", None]}
    want = json.dumps({**nested, "rows": rows, "tail": ["x", None]}, indent=2) + "\n"
    assert dump_json(data) == want
