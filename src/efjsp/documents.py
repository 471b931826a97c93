"""YAML documents: the one reader and writer of every file efjsp keeps,
and the typed readers that check a loaded document's fields.

A reader returns the value it is given when it has the named shape, and
otherwise raises ``DocumentError``: one line naming ``where`` the value
sits (file, then place in it) and the field.  A missing key reads as None.
"""

from __future__ import annotations

import io
import math
from itertools import chain

import yaml

from .model import MAX_HORIZON


class _PyDumper(yaml.SafeDumper):
    """PyYAML's own emitter, made to write the bytes libyaml writes.

    The emitters differ in two rules that documents reach: libyaml folds
    a long double-quoted scalar only at a single space (PyYAML also after
    an escape, with a trailing backslash), and it takes any one-line
    scalar of at most 128 UTF-8 bytes as a simple key (PyYAML wants fewer
    than 128 characters counting the implicit tag, and no empty key).
    Both methods follow libyaml's ``emitter.c`` for what ``dump_document``
    writes: text, not bytes, without ``allow_unicode``, and keys whose tag
    stays implicit (every safe scalar type but ``bytes``).
    """

    def write_double_quoted(self, text, split=True):
        self.write_indicator('"', True)
        for i, ch in enumerate(text):
            if ch == " ":
                data = " "
                fold = split and 0 < i < len(text) - 1 and text[i - 1] != " "
                if fold and self.column > self.best_width:
                    self.write_indent()  # the line break stands for the space
                    data = "\\" if text[i + 1] == " " else ""
            elif "\x20" <= ch <= "\x7e" and ch not in '"\\':
                data = ch
            elif ch in self.ESCAPE_REPLACEMENTS:
                data = "\\" + self.ESCAPE_REPLACEMENTS[ch]
            elif ch <= "\xff":
                data = f"\\x{ord(ch):02X}"
            elif ch <= "\uffff":
                data = f"\\u{ord(ch):04X}"
            else:
                data = f"\\U{ord(ch):08X}"
            self.column += len(data)
            self.stream.write(data)
        self.write_indicator('"', False)

    def check_simple_key(self):
        event = self.event
        if not isinstance(event, yaml.ScalarEvent):
            return super().check_simple_key()
        if any(c in "\r\n\x85\u2028\u2029" for c in event.value):
            return False
        return len(event.value.encode("utf-8")) <= 128


_Dumper = getattr(yaml, "CSafeDumper", _PyDumper)  # libyaml when present

_STR, _INT, _FLOAT, _BOOL, _NULL = (
    f"tag:yaml.org,2002:{name}" for name in ("str", "int", "float", "bool", "null")
)


def _float_text(value: float) -> str:
    """A plain float scalar's text that YAML's implicit resolver reads back.

    17 significant digits, with a ``.0`` put before any exponent when the
    digits have no point (``1.0e+17``), and ``.inf``/``-.inf``/``.nan``
    for the non-finite values, so no float needs a tag or quotes.
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


# The tag and text SafeRepresenter gives each scalar type it writes
# plainly; documents hold no other scalar type.
_SCALAR_TEXT = {
    str: (_STR, str),
    int: (_INT, str),
    float: (_FLOAT, _float_text),
    bool: (_BOOL, lambda value: "true" if value else "false"),
    type(None): (_NULL, lambda value: "null"),
}
_COLLECTIONS = frozenset((list, dict))
# Emitters only read events, so one event serves every collection.
_SEQUENCE_START = {
    flow: yaml.SequenceStartEvent(None, "tag:yaml.org,2002:seq", True, flow_style=flow)
    for flow in (False, True)
}
_MAPPING_START = {
    flow: yaml.MappingStartEvent(None, "tag:yaml.org,2002:map", True, flow_style=flow)
    for flow in (False, True)
}
_SEQUENCE_END = yaml.SequenceEndEvent()
_MAPPING_END = yaml.MappingEndEvent()


def _emit_document(dumper, data) -> None:
    """Emit ``data`` as one document through ``dumper``'s own emitter.

    The events are those the safe representer and serializer would give:
    a collection is flow style iff all its items are scalars (so an empty
    one is too), and each distinct scalar's implicit flags come from the
    dumper's resolver, once per document.  A collection met twice is
    written twice.  Raises TypeError on any type but str, int, float,
    bool, None, list and dict.
    """
    emit = dumper.emit
    resolve = dumper.resolve
    scalars = {cls: {} for cls in _SCALAR_TEXT}  # per type: value (float: text) -> event

    def scalar(cls, value):
        tag, to_text = _SCALAR_TEXT[cls]
        text = to_text(value)
        implicit = (
            resolve(yaml.ScalarNode, text, (True, False)) == tag,
            resolve(yaml.ScalarNode, text, (False, True)) == tag,
        )
        return yaml.ScalarEvent(None, tag, implicit, text)

    def walk(data):
        cls = type(data)
        events = scalars.get(cls)
        if events is not None:
            key = _float_text(data) if cls is float else data
            event = events.get(key)
            if event is None:
                event = events[key] = scalar(cls, data)
            emit(event)
            return
        if cls is list:
            emit(_SEQUENCE_START[_COLLECTIONS.isdisjoint(map(type, data))])
            for item in data:
                walk(item)
            emit(_SEQUENCE_END)
        elif cls is dict:
            emit(_MAPPING_START[_COLLECTIONS.isdisjoint(map(type, data.values()))])
            for key, value in data.items():
                walk(key)
                walk(value)
            emit(_MAPPING_END)
        else:
            raise TypeError(f"cannot write a {cls.__name__} to a YAML document")

    emit(yaml.DocumentStartEvent(explicit=None, version=None, tags=None))
    walk(data)
    emit(yaml.DocumentEndEvent(explicit=None))


def dump_document(data) -> str:
    """YAML text with floats at 17 significant digits, keys in order.

    ``data`` is dicts and lists of str, int, float, bool and None, and
    raises TypeError on anything else.  It is walked into YAML events for
    libyaml's emitter when present, with no node graph; the bytes are
    those ``yaml.dump`` writes.  A lone surrogate (a file name that is not
    UTF-8), which libyaml cannot encode, sends the walk to PyYAML's own
    emitter, which escapes it.
    """
    try:
        return _dump_through(_Dumper, data)
    except UnicodeEncodeError:
        return _dump_through(_PyDumper, data)


def _dump_through(dumper_class, data) -> str:
    """``data`` as YAML text through ``dumper_class``'s emitter."""
    stream = io.StringIO()
    dumper = dumper_class(stream)
    try:
        dumper.open()
        _emit_document(dumper, data)
        dumper.close()
    finally:
        dumper.dispose()
    return stream.getvalue()


class _Fallback(Exception):
    """The event walk met what only ``yaml.safe_load`` reads."""


_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml when present
_CORE_SCALARS = {
    f"tag:yaml.org,2002:{name}": getattr(yaml.constructor.SafeConstructor, f"construct_yaml_{name}")
    for name in ("str", "int", "float", "bool", "null")
}
_SEQUENCE_TAGS = frozenset((None, "!", "tag:yaml.org,2002:seq"))
_MAPPING_TAGS = frozenset((None, "!", "tag:yaml.org,2002:map"))


def _load_events(text: str):
    """Build one document from the parser's events, with no node graph.

    Lists, dicts and the five core scalars are built directly, the same
    objects the safe loader builds: each distinct ``(tag, implicit,
    value)`` is resolved once per document and built by SafeConstructor's
    own constructor for its tag.  Raises ``_Fallback`` on an anchor or
    alias, another tag (explicit, or implicit as for merge keys and
    timestamps) and a second document.
    """
    loader = _Loader(text)
    next_event = loader.get_event
    built = {}

    def scalar(event):
        key = (event.tag, event.implicit, event.value)
        value = built.get(key, built)
        if value is not built:
            return value
        tag = event.tag
        if tag is None or tag == "!":
            tag = loader.resolve(yaml.ScalarNode, event.value, event.implicit)
        construct = _CORE_SCALARS.get(tag)
        if construct is None:
            raise _Fallback
        value = built[key] = construct(loader, yaml.ScalarNode(tag, event.value))
        return value

    def build(event):
        if event.anchor is not None:  # an alias's anchor names its target
            raise _Fallback
        cls = type(event)
        if cls is yaml.ScalarEvent:
            return scalar(event)
        if cls is yaml.SequenceStartEvent and event.tag in _SEQUENCE_TAGS:
            items = []
            event = next_event()
            while type(event) is not yaml.SequenceEndEvent:
                items.append(build(event))
                event = next_event()
            return items
        if cls is yaml.MappingStartEvent and event.tag in _MAPPING_TAGS:
            mapping = {}
            event = next_event()
            while type(event) is not yaml.MappingEndEvent:
                key = build(event)
                mapping[key] = build(next_event())  # TypeError on an unhashable key
                event = next_event()
            return mapping
        raise _Fallback

    try:
        next_event()  # stream start
        if type(next_event()) is yaml.StreamEndEvent:
            return None  # no document
        data = build(next_event())
        next_event()  # document end
        if type(next_event()) is not yaml.StreamEndEvent:
            raise _Fallback  # a second document
        return data
    finally:
        loader.dispose()


def load_document(text: str):
    """Parse one YAML document into the objects ``yaml.safe_load`` builds.

    libyaml parses it when present, and the objects are built from its
    events (``_load_events``).  An anchor or alias, a merge key, another
    tag, an unhashable key, a second document and any error send the
    text to ``yaml.safe_load`` itself, whose objects or error stand,
    except that a document nested too deeply for it raises a one-line
    ValueError.
    """
    try:
        return _load_events(text)
    except Exception:
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
    except ValueError as exc:  # nested too deeply
        raise DocumentError(f"{where}: {exc}") from None


def header(doc, where: str, kind: str, version: int) -> dict:
    """``doc`` when it is a mapping of ``kind`` at schema_version ``version``."""
    if type(doc) is not dict or doc.get("kind") != kind:
        raise DocumentError(f"{where}: not a document of kind {kind!r}")
    if type(doc.get("schema_version")) is not int or doc["schema_version"] != version:
        raise DocumentError(f"{where}: unsupported {kind} schema_version, expected {version}")
    return doc


def mapping(value, where: str, name: str) -> dict:
    if type(value) is not dict:
        raise DocumentError(f"{where}: {name} must be a mapping")
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


def items(value, where: str, name: str, ints=None, bound: bool = False) -> list:
    """``value`` when it is a list.  Given key names ``ints``, it must be a
    list of mappings whose ``ints`` hold integers, of at most 2**53 in
    magnitude with ``bound``; the message names the first key that fails."""
    what = "a list" if ints is None else "a list of mappings"
    if type(value) is list and (ints is None or all(type(row) is dict for row in value)):
        limit = MAX_HORIZON if bound else math.inf
        for key in ints or ():
            if any(type(row.get(key)) is not int or abs(row[key]) > limit for row in value):
                what += f" with integer {key}" + (" of at most 2**53 in magnitude" if bound else "")
                break
        else:
            return value
    raise DocumentError(f"{where}: {name} must be {what}")
