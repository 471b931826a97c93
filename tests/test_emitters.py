"""The pure-Python and the libyaml emitters write the same document bytes.

``dump_document`` walks a document into YAML events for libyaml's emitter
when PyYAML was built with it and for ``_PyDumper``, PyYAML's own emitter
with libyaml's folding and simple-key rules, otherwise.  Hypothesis draws
nested documents of the scalars YAML treats specially, and now and then a
shared collection, a tuple or an int subclass, and checks that the walk
through both emitters writes the bytes ``yaml.dump`` writes through both,
that a tuple or an int subclass is refused, and that every document loads
back to what was dumped.
"""

from __future__ import annotations

import math

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efjsp import documents as efjsp_documents
from efjsp.documents import (
    _Dumper,
    _dump_through,
    _float_text,
    _PyDumper,
    dump_document,
    load_document,
)

pytestmark = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML was built without libyaml"
)


# The byte reference: yaml.dump through each emitter, with floats at
# dump_document's 17 significant digits.
class _RefPyDumper(_PyDumper):
    pass


class _RefDumper(_Dumper):
    pass


def _float_scalar(dumper, value: float):
    return dumper.represent_scalar("tag:yaml.org,2002:float", _float_text(value))


for _cls in (_RefPyDumper, _RefDumper):
    _cls.add_representer(float, _float_scalar)


def _dump(data, dumper) -> str:
    return yaml.dump(data, Dumper=dumper, sort_keys=False, default_flow_style=None)


_SPECIAL_FLOATS = (
    math.inf, -math.inf, math.nan, -0.0, 0.0, 1e17, -1e17, 1e-300, 5e-324,
    2.2250738585072009e-308, 1e22, 0.1, 1.0, 123456789012345678.0,
)
_YAML_LOOKING = (
    "null", "Null", "~", "", "yes", "no", "on", "off", "true", "False", "1.5",
    "012", "0x1F", "1e3", ".inf", ".nan", "1_000", "12:30", "*a", "&a", "!tag",
    "a #b", "a: b", "- x", "[x]", "{x}", "'q'", '"q"', "%x", "@x", "`x", " lead",
    "trail ", "a\nb", "tab\there", "2001-12-14",
)

floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    _SPECIAL_FLOATS
)
strings = (
    st.text(max_size=20)
    # lone surrogates are left out: libyaml cannot encode them (see below)
    | st.text(alphabet=st.characters(min_codepoint=0x80, exclude_categories=("Cs",)), max_size=20)
    | st.text(min_size=81, max_size=200)
    | st.lists(st.sampled_from(["word", "x", "1.5", "é", "#", ":"]), min_size=20, max_size=60).map(
        " ".join
    )
    | st.sampled_from(_YAML_LOOKING)
)
scalars = st.none() | st.booleans() | st.integers() | floats | strings


class _Int(int):
    """An int subclass, which the safe representer refuses."""


def _collections(children):
    lists = st.lists(children, max_size=6)
    dicts = st.dictionaries(strings | st.integers() | floats | st.booleans(), children, max_size=6)
    # what documents never hold: a shared collection, written twice, and
    # a tuple and an int subclass, refused
    stock = (
        (lists | dicts).map(lambda shared: [shared, {"again": shared}])
        | lists.map(tuple)
        | st.integers().map(_Int)
    )
    # one collection in twenty: about four documents in five still take
    # the event walk from end to end
    return st.integers(0, 19).flatmap(lambda k: stock if k == 0 else lists | dicts)


# Every document the CLI writes is a mapping; a bare top-level scalar
# would differ, as PyYAML closes it with "...".
documents = st.recursive(scalars, _collections, max_leaves=30).filter(
    lambda doc: isinstance(doc, (list, dict, tuple))
)


def _refused(data) -> bool:
    """Whether ``data`` holds a tuple or an int subclass."""
    if type(data) in (tuple, _Int):
        return True
    if type(data) is list:
        return any(map(_refused, data))
    if type(data) is dict:
        return any(map(_refused, data.values()))
    return False


def _unshared(data):
    """``data`` with every list and dict built afresh, so none is shared."""
    if type(data) is list:
        return [_unshared(item) for item in data]
    if type(data) is dict:
        return {key: _unshared(value) for key, value in data.items()}
    return data


def _same(a, b) -> bool:
    """Equal, with nan equal to nan and -0.0 told apart from 0.0."""
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


def test_dump_document_emits_through_libyaml():
    assert issubclass(_Dumper, yaml.CSafeDumper)
    assert issubclass(_PyDumper, yaml.SafeDumper)


# PyYAML's unmodified emitter writes each of these differently from libyaml
@example({"k": "\xe9 " + "word " * 30})  # folds after an escape, with a backslash
@example({"k": "\x07" * 50})
@example({"": None})  # no empty simple key
@example({"\r": None})  # a carriage return does not make a key multi-line
@example({"k" * 125: 1})  # 128 characters counting the implicit "!!str"
@example({"k" * 128: 1, "l" * 129: 2})  # libyaml's limit is 128 bytes
@example({"\xe9" * 70: 1})  # 70 characters, 140 UTF-8 bytes
@example(["\x07" + "ab  " * 30])  # folds at a double space, escaping the second
@example(["\x07" + "x" * 76 + "  y"])  # no fold at a space that follows a space
@example((lambda shared: [shared, {"again": shared}])([1.5]))  # written twice
@example([(1, 2)])
@example({"k": _Int(3)})
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(documents)
def test_emitters_write_identical_bytes(doc):
    if _refused(doc):
        with pytest.raises(TypeError):
            dump_document(doc)
        return
    # stock PyYAML writes a shared collection as an anchor and an alias
    fresh = _unshared(doc)
    pure, lib = _dump(fresh, _RefPyDumper), _dump(fresh, _RefDumper)
    assert pure == lib
    assert dump_document(doc) == lib
    assert _dump_through(_PyDumper, doc) == lib
    assert _same(load_document(lib), doc)
    assert _same(yaml.load(lib, Loader=yaml.SafeLoader), doc)


def test_lone_surrogates_are_escaped():
    # a file name that is not UTF-8 decodes to lone surrogates, which
    # libyaml cannot encode; dump_document still writes the document
    doc = {"file": "r\udcff.yaml", "hv": 1.0}
    assert dump_document(doc) == _dump(doc, _RefPyDumper) == '{file: "r\\uDCFF.yaml", hv: 1.0}\n'
    assert yaml.load(dump_document(doc), Loader=yaml.SafeLoader) == doc


def test_lone_surrogates_take_one_retry_each_way(monkeypatch):
    # libyaml can neither encode nor parse a lone surrogate: the dump walks
    # once more into PyYAML's emitter, and the load hands the text to
    # yaml.safe_load once
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(name) or real(*args, **kw))

    for name in ("_emit_document", "_load_events"):
        spy(efjsp_documents, name)
    for name in ("dump", "load"):
        spy(efjsp_documents.yaml, name)
    doc = {"file": "r\udcff.yaml", "hv": 1.0}
    text = dump_document(doc)
    assert calls == ["_emit_document", "_emit_document"]
    calls.clear()
    assert load_document(text) == doc
    assert calls == ["_load_events", "load"]


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
    assert dump_document({"x": value}) == f"{{x: {text}}}\n"
    for dumper in (_PyDumper, _Dumper):
        assert _dump_through(dumper, {"x": value}) == f"{{x: {text}}}\n"
