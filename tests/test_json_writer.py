"""The CLI's JSON writer against the stdlib encoder it replaces.

``cli._to_json(x)`` must be byte for byte
``json.dumps(x, indent=2, ensure_ascii=False) + "\\n"`` on the types the
commands print, and refuse every other type rather than guess at it.
"""

import json
from fractions import Fraction

import pytest

from lietower import cli

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

WRITER = settings(derandomize=True, database=None, deadline=None)


def reference(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


# characters each escaper treats differently: quotes, backslashes, C0
# controls, DEL, non-ASCII, the JS line separators and an astral character
SPECIAL = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\xe9\u2028\u2029\U0001f600'
texts = st.text() | st.text(alphabet=st.sampled_from(SPECIAL))
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | texts
)
documents = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=20,
)


@WRITER
@given(documents)
@example({"\xe9": ["\U0001f600", "\u2028"]})
@example({"": {}, "a": [], "b": (), "c": [{}, []]})
def test_writer_matches_stdlib(value):
    assert cli._to_json(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [1.5, Fraction(1, 2), {"x": [0.0]}, {1: "a"}, {None: 1}, {"a": {(1, 2): 3}}, {"a": {1, 2}}],
    ids=["float", "fraction", "nested-float", "int-key", "none-key", "tuple-key", "set"],
)
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._to_json(value)


def test_tuples_print_as_arrays():
    assert cli._to_json({"a": (1, ("x", None))}) == cli._to_json({"a": [1, ["x", None]]})
    assert cli._to_json(()) == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--signature", "4,2"),
        ("verify", "--signature", "4,4"),
        ("roots", "--signature", "4,2"),
        ("roots", "--signature", "4,4"),
        ("tower", "--spin=+1/2"),
        ("tower", "--spin=-1/2"),
        ("elements", "--z", "26", "--node=1/2,0,1"),
    ],
)
def test_every_json_command_prints_the_stdlib_bytes(capsys, argv):
    assert cli.main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == reference(json.loads(out))
