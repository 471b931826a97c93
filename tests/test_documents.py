"""``load_document`` reads a JSON text as PyYAML's safe loader reads it.

``load_document`` parses a text that is ASCII, with no backslash, tab or
DEL, with ``json`` first.  Hypothesis draws JSON texts with what JSON and
YAML 1.1 read apart: nested trees serialised with and without
indentation, tabs between tokens, escaped surrogate pairs, ``\\/``,
non-ASCII text, number spellings YAML reads as strings (``1e5``,
``1.5e3``), ``-0``, ``1.0e+400``, ``NaN``, duplicate keys, a BOM, a
trailing comment and deep nesting.  Wherever ``yaml.load`` with the
pure-Python ``SafeLoader`` reads a text, ``load_document`` must build the
same objects.
"""

from __future__ import annotations

import json

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efjsp.documents import load_document
from test_emitters import _same

# number and constant spellings that json and YAML 1.1 read apart, or alike
_LITERALS = (
    "1e5", "1E+5", "1.5e3", "1.5e+3", "1.5E-3", "-0", "-0.0", "0.5", "1.0e+400", "-1.0e+400",
    "1.0e400", "12345678901234567890", "NaN", "Infinity", "-Infinity", "true", "null",
)


class _Literal(str):
    """A token written into the text as it is."""


class _Pairs(list):
    """An object's members as (key, value) pairs, so a key can repeat."""


ascii_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e), max_size=12)
keys = st.sampled_from(["a", "b", "k", "/", "\U0001F600", "é"]) | ascii_text | st.text(max_size=8)
strings = (
    ascii_text | st.text(max_size=12) | st.sampled_from(["\U0001F600", "a/b", "é", "#", ": ", "\x7f", "\t"])
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | strings
    | st.sampled_from(_LITERALS).map(_Literal)
)
trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.tuples(keys, children), max_size=4).map(_Pairs),
    max_leaves=20,
)


@st.composite
def json_texts(draw):
    tree = draw(trees)
    ascii_only = draw(st.booleans())  # ensure_ascii: astral characters as surrogate pairs
    slash = draw(st.booleans())  # "/" written "\/"
    gap = draw(st.sampled_from(["", " ", " ", "\t"]))  # between tokens
    indent = draw(st.sampled_from([None, "  ", "\t", ""]))

    def string(value: str) -> str:
        text = json.dumps(value, ensure_ascii=ascii_only)
        return text.replace("/", "\\/") if slash else text

    def write(node, depth: int) -> str:
        if isinstance(node, _Literal):
            return str(node)
        if isinstance(node, str):
            return string(node)
        if isinstance(node, (list, _Pairs)):
            if isinstance(node, _Pairs):
                items = [f"{string(k)}{gap}:{gap or ' '}{write(v, depth + 1)}" for k, v in node]
                opener, closer = "{", "}"
            else:
                items = [write(v, depth + 1) for v in node]
                opener, closer = "[", "]"
            if indent is None or not items:
                return opener + gap + f"{gap},{gap}".join(items) + gap + closer
            inner = "\n" + indent * (depth + 1)
            return opener + inner + f",{inner}".join(items) + "\n" + indent * depth + closer
        return json.dumps(node)

    text = write(tree, 0)
    nesting = draw(st.sampled_from([0, 0, 0, 5, 50, 400]))
    text = "[" * nesting + text + "]" * nesting
    if draw(st.booleans()):
        text += draw(st.sampled_from(["\n", " # comment\n", "\n# comment", "\r\n"]))
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    return text


@example('{"a": 1e5, "b": [1.5e3, -0, 1.0e+400, NaN], "a": 2}')
@example('{\n  "x": ["\\ud83d\\ude00", "a\\/b"],\n  "y": {"z": -0.0}\n}\n# written by hand\n')
@example('[NaN, {"x": -Infinity}, 1.5]')
@example('\ufeff[1.5, "é"]')
@example('{"k":\t[1,\t2]}')
@example("[" * 300 + "]" * 300)
@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(json_texts())
def test_load_document_reads_json_like_the_safe_loader(text):
    try:
        expected = yaml.load(text, Loader=yaml.SafeLoader)
    except (yaml.YAMLError, RecursionError, ValueError):
        return  # the contract holds only where YAML reads the text
    assert _same(load_document(text), expected)
