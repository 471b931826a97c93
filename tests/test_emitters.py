"""``dump_document`` writes JSON text that YAML readers read to the same objects.

Hypothesis draws nested documents of the scalars JSON and YAML treat
specially: non-finite floats, lone surrogates, the characters YAML reads
as line breaks or refuses, quotes, backslashes and astral characters.
``json.loads`` (where the text is JSON), PyYAML's pure-Python loader,
libyaml's loader (where the data holds no lone surrogate, which libyaml
cannot read) and ``load_document`` must each give back the data dumped,
and so must every golden document.  A tuple, an int subclass, a key that
is not a string and a key too long for YAML are refused.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efjsp import documents as efjsp_documents
from efjsp.documents import dump_document, load_document

GOLDEN = Path(__file__).parent / "data" / "golden"
_CSafeLoader = getattr(yaml, "CSafeLoader", None)
_LONE = re.compile("[\ud800-\udfff]")  # a lone surrogate, which libyaml cannot read

_SPECIAL_FLOATS = (
    math.inf, -math.inf, math.nan, -0.0, 0.0, 1e17, -1e17, 1e-300, 5e-324,
    2.2250738585072009e-308, 1e22, 0.1, 1.0, 123456789012345678.0,
)
_YAML_LOOKING = (
    "null", "Null", "~", "", "yes", "no", "on", "off", "true", "False", "1.5",
    "012", "0x1F", "1e3", ".inf", ".nan", "1_000", "12:30", "*a", "&a", "!tag",
    "a #b", "a: b", "- x", "[x]", "{x}", "'q'", '"q"', "%x", "@x", "`x", " lead",
    "trail ", "a\nb", "tab\there", "2001-12-14", "NaN", "Infinity", "\\/",
)
# lone surrogates (a file name that is not UTF-8), what YAML reads as a
# line break or refuses, quotes, backslashes and astral characters
_SPECIAL_CHARS = "\udcff\ud800\u2028\u2029\x85\x7f\x80\x9f\x00\x1b\t\n\r\"'\\/\ufeff\ufffe\uffff\U0001F600\xe9"

floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    _SPECIAL_FLOATS
)
strings = (
    st.text(max_size=20)
    | st.text(alphabet=st.sampled_from(_SPECIAL_CHARS) | st.characters(), max_size=20)
    | st.sampled_from(_YAML_LOOKING)
)
scalars = st.none() | st.booleans() | st.integers() | floats | strings


def _collections(children):
    return st.lists(children, max_size=6) | st.dictionaries(strings, children, max_size=6)


documents = st.recursive(scalars, _collections, max_leaves=30)


class _Int(int):
    """An int subclass, which documents never hold."""


def _same(a, b) -> bool:
    """Equal, with nan equal to nan, -0.0 told apart from 0.0 and key order kept."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            _same(ka, kb) and _same(a[ka], b[kb]) for ka, kb in zip(a, b)
        )
    return a == b


def _leaves(data):
    if type(data) is list:
        for item in data:
            yield from _leaves(item)
    elif type(data) is dict:
        for key, value in data.items():
            yield key
            yield from _leaves(value)
    else:
        yield data


def _reads_back(data) -> str:
    """``data``'s document, checked against every reader; its text."""
    text = dump_document(data)
    leaves = list(_leaves(data))
    if all(type(v) is not float or math.isfinite(v) for v in leaves):
        assert _same(json.loads(text), data)
    assert _same(yaml.load(text, Loader=yaml.SafeLoader), data)
    if _CSafeLoader is not None and not any(type(v) is str and _LONE.search(v) for v in leaves):
        assert _same(yaml.load(text, Loader=_CSafeLoader), data)
    assert _same(load_document(text), data)
    return text


@example({"file": "r\udcff.yaml", "line": "a b\x85c\x7fd", "quote": '"\\', "emoji": "\U0001F600"})
@example([math.inf, -math.inf, math.nan, -0.0, 1e17])
@example({"": [], "{}": {}, "k" * 1022: None})  # the longest key YAML reads
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(documents)
def test_every_reader_reads_back_what_dump_document_writes(doc):
    _reads_back(doc)


@pytest.mark.parametrize("name", ["base6x4.yaml", "result-1.yaml", "result-2.yaml", "metrics.yaml", "gantt.yaml"])
def test_every_reader_reads_back_the_golden_documents(name):
    text = (GOLDEN / name).read_text()
    assert _reads_back(yaml.load(text, Loader=yaml.SafeLoader)) == text


@pytest.mark.parametrize(
    "data, error",
    [
        ([(1, 2)], TypeError),
        ({"k": _Int(3)}, TypeError),
        ({1: "one"}, TypeError),
        ({None: 1}, TypeError),
        ({"k" * 1023: 1}, ValueError),
        ({"\x85" * 171: 1}, ValueError),  # 1,026 characters escaped
    ],
    ids=["tuple", "int-subclass", "int-key", "null-key", "long-key", "long-escaped-key"],
)
def test_what_no_document_holds_is_refused(data, error):
    with pytest.raises(error):
        dump_document(data)


def test_lone_surrogates_are_escaped():
    # a file name that is not UTF-8 decodes to lone surrogates: written as
    # an escape, which PyYAML's pure-Python loader reads back
    doc = {"file": "r\udcff.yaml", "hv": 1.0}
    assert dump_document(doc) == '{"file": "r\\uDCFF.yaml", "hv": 1.0}\n'
    assert yaml.load(dump_document(doc), Loader=yaml.SafeLoader) == doc


def test_lone_surrogates_read_through_the_safe_loader(monkeypatch):
    # the escape keeps the text off the json path: the load hands the text
    # to yaml.safe_load once
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(name) or real(*args, **kw))

    spy(efjsp_documents.json, "loads")
    spy(efjsp_documents.yaml, "load")
    doc = {"file": "r\udcff.yaml", "hv": 1.0}
    assert load_document(dump_document(doc)) == doc
    assert calls == ["load"]


@pytest.mark.parametrize(
    "value, text",
    [
        (math.inf, ".inf"),
        (-math.inf, "-.inf"),
        (math.nan, ".nan"),
        (1e17, "1.0e+17"),
        (1e-300, "1.0e-300"),
        (-0.0, "-0.0"),
        (3.0, "3.0"),
        (0.1, "0.10000000000000001"),
    ],
)
def test_floats_are_plain_scalars(value, text):
    assert dump_document({"x": value}) == f'{{"x": {text}}}\n'
