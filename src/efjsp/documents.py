"""Documents: the one reader and writer of every file efjsp keeps, and
the typed readers that check a loaded document's fields.

``dump_document`` writes JSON text, which every YAML reader reads too:
floats, escapes and keys are written so that a YAML 1.1 reader such as
PyYAML builds the objects ``json`` builds.  ``load_document`` reads any
one YAML document, so a hand-written block-YAML file reads as before.  It
takes one of two paths: a text that is ASCII, with no backslash, tab or
DEL, is parsed by ``json`` first; any other text, and one ``json``
refuses, goes to PyYAML's pure-Python ``SafeLoader``.

A reader returns the value it is given when it has the named shape, and
otherwise raises ``DocumentError``: one line naming ``where`` the value
sits (file, then place in it) and the field.  A missing key reads as None;
a key that the level may not hold is refused (``mapping``), so a misspelt
optional key is not read as absent.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from json.encoder import encode_basestring

import yaml

from .model import MAX_HORIZON


def _float_text(value: float) -> str:
    """A float's text that both JSON and YAML's implicit resolver read back.

    17 significant digits, with a ``.0`` put before any exponent when the
    digits have no point (``1.0e+17``): YAML 1.1 reads a float only with a
    point and a signed exponent.  The non-finite values are ``.inf``,
    ``-.inf`` and ``.nan``, which are YAML but not JSON.
    """
    if math.isnan(value):
        return ".nan"
    if math.isinf(value):
        return ".inf" if value > 0 else "-.inf"
    text = format(value, ".17g")
    if "." not in text:
        digits, e, exponent = text.partition("e")
        text = f"{digits}.0{e}{exponent}"
    return text


# What YAML reads as a line break or refuses as not printable, beyond the
# C0 controls that JSON escapes itself
_YAML_UNSAFE = re.compile("[\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff]")


def _escape(match) -> str:
    return f"\\u{ord(match.group()):04X}"


def _string_text(value: str) -> str:
    """``value`` as a JSON string that YAML reads back as the same text."""
    return _YAML_UNSAFE.sub(_escape, encode_basestring(value))


_SCALAR_TEXT = {
    str: _string_text,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}
_COLLECTIONS = frozenset((list, dict))
_MAX_KEY = 1024  # the longest simple key, quotes included, that YAML reads


def _scalar(value) -> str:
    to_text = _SCALAR_TEXT.get(type(value))
    if to_text is None:
        raise TypeError(f"cannot write a {type(value).__name__} to a document")
    return to_text(value)


def _key(key) -> str:
    if type(key) is not str:
        raise TypeError(f"cannot write a {type(key).__name__} key to a document")
    text = _string_text(key)
    if len(text) > _MAX_KEY:
        raise ValueError(f"a document key longer than {_MAX_KEY - 2} characters")
    return text


def _write(data, indent: str, out: list) -> None:
    """Append ``data``'s text to ``out``: a collection of scalars on one
    line, any other collection one item per line, indented two more."""
    cls = type(data)
    if cls is list:
        if _COLLECTIONS.isdisjoint(map(type, data)):
            out.append(f"[{', '.join(map(_scalar, data))}]")
            return
        inner = indent + "  "
        out.append("[" + inner)
        for i, item in enumerate(data):
            if i:
                out.append("," + inner)
            _write(item, inner, out)
        out.append(indent + "]")
    elif cls is dict:
        if _COLLECTIONS.isdisjoint(map(type, data.values())):
            pairs = (f"{_key(key)}: {_scalar(value)}" for key, value in data.items())
            out.append(f"{{{', '.join(pairs)}}}")
            return
        inner = indent + "  "
        out.append("{" + inner)
        for i, (key, value) in enumerate(data.items()):
            if i:
                out.append("," + inner)
            out.append(_key(key) + ": ")
            _write(value, inner, out)
        out.append(indent + "}")
    else:
        out.append(_scalar(data))


def dump_document(data) -> str:
    """``data`` as JSON text, which a YAML reader reads to the same objects.

    ``data`` is dicts with str keys and lists of str, int, float, bool and
    None; anything else raises TypeError, and a key whose text is longer
    than YAML reads (1,024 characters) ValueError.  Keys keep their order
    and floats have 17 significant digits (``_float_text``); a non-finite
    float makes the text YAML only.  Strings are JSON-escaped, and so is
    every character YAML reads as a line break or refuses (DEL, the C1
    controls, U+2028, U+2029, lone surrogates, U+FFFE and U+FFFF);
    other characters are written as they are.
    """
    out = []
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)


# A JSON number that YAML 1.1 also reads as a float: a point, and a sign
# on any exponent (YAML reads ``1e5`` and ``1.5e3`` as strings)
_YAML_FLOAT = re.compile(r"-?[0-9]+\.[0-9]+(?:[eE][-+][0-9]+)?").fullmatch


def _json_float(literal: str) -> float:
    if _YAML_FLOAT(literal) is None:
        raise ValueError(f"{literal} is not a YAML float")
    return float(literal)


def _json_constant(name: str):
    raise ValueError(f"{name} is not YAML")  # NaN, Infinity, -Infinity


def load_document(text: str):
    """Parse one YAML document into the objects ``yaml.safe_load`` builds.

    Two paths:

    - A text that is ASCII, with no backslash, tab or DEL, is parsed by
      ``json``; ``dump_document`` writes such a text unless a string needs
      an escape or a float is not finite.  JSON and YAML read such a text
      alike, except for a number YAML 1.1 reads as a string (``1e5``,
      ``1.5e3``) and the constants ``NaN`` and ``Infinity``, which hand the
      text on, as does any error.
    - ``yaml.load`` with the pure-Python ``SafeLoader``, whose objects or
      error stand, except that a document nested too deeply for it raises
      a one-line ValueError.  Hand-written block YAML takes this path.

    The ``json`` path accepts two texts that YAML readers refuse: a key
    longer than 1,024 characters with its quotes, and a line break between
    a key and its ``:``.  ``dump_document`` writes neither.
    """
    if text.isascii() and "\\" not in text and "\t" not in text and "\x7f" not in text:
        try:
            return json.loads(text, parse_float=_json_float, parse_constant=_json_constant)
        except (ValueError, RecursionError):  # not JSON, or not read alike
            pass
    try:
        return yaml.load(text, Loader=yaml.SafeLoader)
    except RecursionError:
        raise ValueError("YAML document nested too deeply to read") from None


class DocumentError(ValueError):
    """A document lacks a field or holds one of the wrong type."""


def read_document(text: str, where: str):
    """``load_document(text)``, where a document that does not parse is
    one DocumentError line naming ``where``, what the parser choked on
    and at which line and column."""
    try:
        return load_document(text)
    except yaml.YAMLError as exc:
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise DocumentError(f"{where}: malformed YAML: {problem}{at}") from None
    except ValueError as exc:
        # nested too deeply, or a scalar SafeConstructor cannot build: an
        # integer literal of more than 4,300 digits (int's limit), a date
        # that does not exist
        raise DocumentError(f"{where}: {exc}") from None


def header(doc, where: str, kind: str, version: int, keys) -> dict:
    """``doc`` when it is a mapping of ``kind`` at schema_version ``version``
    that holds no key but ``keys`` (see ``mapping``)."""
    if type(doc) is not dict or doc.get("kind") != kind:
        raise DocumentError(f"{where}: not a document of kind {kind!r}")
    if type(doc.get("schema_version")) is not int or doc["schema_version"] != version:
        raise DocumentError(f"{where}: unsupported {kind} schema_version, expected {version}")
    return mapping(doc, where, kind, keys)


def mapping(value, where: str, name: str, keys) -> dict:
    """``value`` when it is a mapping that holds no key but ``keys``, the
    keys its level may hold.  The message lists every other key:
    ``c.yaml: unknown config keys: ['seeds']``."""
    if type(value) is not dict:
        raise DocumentError(f"{where}: {name} must be a mapping")
    if not value.keys() <= keys:
        unknown = sorted((key for key in value if key not in keys), key=str)
        raise DocumentError(f"{where}: unknown {name} keys: {unknown}")
    return value


def boolean(value, where: str, name: str) -> bool:
    if type(value) is not bool:
        raise DocumentError(f"{where} needs a boolean {name}")
    return value


def integer(value, where: str, name: str) -> int:
    if type(value) is not int:
        raise DocumentError(f"{where} needs an integer {name}")
    return value


def string(value, where: str, name: str) -> str:
    if type(value) is not str:
        raise DocumentError(f"{where} needs a string {name}")
    return value


def number(value, where: str, name: str, finite: bool = False) -> float:
    """``value``, an int or a float, as a float; with ``finite``, an
    integer too large for a float is refused like an infinity or a NaN."""
    if type(value) is int or type(value) is float:
        try:
            value = float(value)
        except OverflowError:
            if not finite:
                raise DocumentError(f"{where} {name} is an integer too large for a float") from None
        else:
            if not finite or math.isfinite(value):
                return value
    raise DocumentError(f"{where} needs a {'finite ' if finite else ''}numeric {name}")


def numbers(value, where: str, name: str) -> tuple[float, ...]:
    if type(value) is not list:
        raise DocumentError(f"{where} {name}: expected a list of numbers")
    return tuple(number(v, where, name) for v in value)


def integers(value, where: str, name: str) -> tuple[int, ...]:
    if type(value) is not list or any(type(v) is not int for v in value):
        raise DocumentError(f"{where} {name}: expected a list of integers")
    return tuple(value)


_LIST, _INT_ONLY = frozenset((list,)), frozenset((int,))


def rows(value, where: str, name: str, columns: tuple[str, ...]) -> list:
    """``value`` when it is a list of rows, each a list of one integer per
    name in ``columns``.  The message spells the row out: ``options must be
    a list of [machine, gear, duration] rows of integers``."""
    if (
        type(value) is list
        and _LIST.issuperset(map(type, value))
        and {len(columns)}.issuperset(map(len, value))
        and _INT_ONLY.issuperset(map(type, chain.from_iterable(value)))
    ):
        return value
    raise DocumentError(f"{where}: {name} must be a list of [{', '.join(columns)}] rows of integers")


def items(value, where: str, name: str, row=None, keys=(), ints=(), bound: bool = False) -> list:
    """``value`` when it is a list.  Given the name of a ``row``, it must be
    a list of mappings that hold no key but ``keys`` (``mapping``, each row
    named by its index: ``x.yaml: machines[0]: unknown machine keys:
    ['turnon']``) and hold integers under ``ints``, of at most 2**53 in
    magnitude with ``bound``; the message names the first key that fails.
    The keys are checked first, so a misspelt ``ints`` key is named."""
    what = "a list" if row is None else "a list of mappings"
    if type(value) is list and (row is None or all(type(r) is dict for r in value)):
        if row is not None:
            for i, r in enumerate(value):
                mapping(r, f"{where}: {name}[{i}]", row, keys)
        limit = MAX_HORIZON if bound else math.inf
        for key in ints:
            if any(type(r.get(key)) is not int or abs(r[key]) > limit for r in value):
                what += f" with integer {key}" + (" of at most 2**53 in magnitude" if bound else "")
                break
        else:
            return value
    raise DocumentError(f"{where}: {name} must be {what}")
