"""Benchmark handling: classic flexible-job-shop files, the multi-state
extension generator, and instance (de)serialisation.

Base files use the common text layout: a header line ``jobs machines``
(a third average-flexibility number is tolerated and ignored), then one
line per job starting with its operation count, followed for each
operation by the number of alternatives and (machine, duration) pairs
with 1-based machine ids.  Counts, machine ids and durations must be
whole numbers; one written with a point (``5.0``) is accepted.

The extension turns every base duration d into per-gear durations
(3d, 2d, d), and draws setup times, power profiles, turn-on
energies and switch tables from fixed uniform ranges, reproducibly per
seed.  Turn-on energy scales the gap between idle and standby power;
dormancy (the switch between a gear and speed 0) is a fifth of turn-on;
switching between two gears costs their mean idle power times a drag
factor; all three factors are drawn once per machine.

Instances travel as YAML documents with all reals written at 17
significant digits, so a write/read round trip is lossless.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass

import yaml

from .model import (
    JobSpec,
    Machine,
    OperationSpec,
    ProblemInstance,
    ProcessingOption,
    validate_instance,
)

SCHEMA_VERSION = 1

# A base job is a tuple of operations; each operation is a tuple of
# (machine, duration) pairs.
BaseJob = tuple[tuple[tuple[int, int], ...], ...]

# The multi-state extension's data model: three gears, and the uniform
# ranges every generated value is drawn from.
SPEED_MULTIPLIERS = (3, 2, 1)  # per-gear duration factors, slowest gear first
SETUP_TIME_RANGE = (1, 2)
SETUP_POWER_RANGE = (10.0, 30.0)
STANDBY_POWER_RANGE = (3.0, 5.0)
PROCESS_BASE_RANGE = (30.0, 50.0)
IDLE_BASE_RANGE = (5.0, 10.0)
TURN_ON_FACTOR_RANGE = (6.0, 8.0)
SWITCH_FACTOR_RANGE = (0.2, 0.3)
DORMANCY_SHARE = 0.2  # dormancy energy as a share of turn-on energy
DURATION_RANGE = (1, 10)  # base durations drawn by ``random_base``


class ParseError(ValueError):
    """Raised on malformed base benchmark text, with a line number."""


class InstanceFormatError(ValueError):
    """Raised on malformed instance documents."""


@dataclass(frozen=True)
class BaseFjspInstance:
    """A classic flexible job shop instance without energy data."""

    n_machines: int
    jobs: tuple[BaseJob, ...]

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)


def parse_base(text: str) -> BaseFjspInstance:
    """Parse base benchmark text.

    Raises ParseError with the offending line number on malformed input.
    """
    lines = [
        (n, line.split())
        for n, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not lines:
        raise ParseError("line 1: empty file")

    def number(n: int, t: str) -> float:
        try:
            value = float(t)
        except ValueError:
            raise ParseError(f"line {n}: not a number: {t!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"line {n}: not a finite number: {t!r}")
        return value

    def ints(n: int, tokens: list[str]) -> list[int]:
        out = []
        for t in tokens:
            if "." not in t:
                try:
                    out.append(int(t))
                except ValueError:
                    raise ParseError(f"line {n}: not a number: {t!r}") from None
            elif (value := number(n, t)).is_integer():
                out.append(int(value))
            else:
                raise ParseError(f"line {n}: not a whole number: {t!r}")
        return out

    header_no, header = lines[0]
    head = ints(header_no, header[:2])
    for t in header[2:]:
        number(header_no, t)  # average flexibility: any number, ignored
    if len(head) < 2:
        raise ParseError(f"line {header_no}: header needs job and machine counts")
    n_jobs, n_machines = head[0], head[1]
    if n_jobs < 1 or n_machines < 1:
        raise ParseError(f"line {header_no}: job and machine counts must be positive")
    if len(lines) - 1 != n_jobs:
        raise ParseError(
            f"line {header_no}: header announces {n_jobs} jobs, "
            f"file has {len(lines) - 1} job lines"
        )

    jobs = []
    for line_no, tokens in lines[1:]:
        values = ints(line_no, tokens)
        it = iter(values)
        try:
            n_ops = next(it)
            ops = []
            for _ in range(n_ops):
                n_alt = next(it)
                if n_alt < 1:
                    raise ParseError(
                        f"line {line_no}: operation needs at least one alternative"
                    )
                alts = []
                for _ in range(n_alt):
                    machine = next(it)
                    duration = next(it)
                    if not 1 <= machine <= n_machines:
                        raise ParseError(
                            f"line {line_no}: machine id {machine} out of range"
                        )
                    if duration < 1:
                        raise ParseError(
                            f"line {line_no}: duration must be positive"
                        )
                    alts.append((machine, duration))
                ops.append(tuple(alts))
        except StopIteration:
            raise ParseError(f"line {line_no}: truncated job line") from None
        if next(it, None) is not None:
            raise ParseError(f"line {line_no}: trailing data on job line")
        jobs.append(tuple(ops))
    return BaseFjspInstance(n_machines=n_machines, jobs=tuple(jobs))


def write_base(base: BaseFjspInstance) -> str:
    """Serialise a base instance back to the classic text layout."""
    out = [f"{base.n_jobs} {base.n_machines}"]
    for job in base.jobs:
        parts = [str(len(job))]
        for op in job:
            parts.append(str(len(op)))
            for machine, duration in op:
                parts.append(str(machine))
                parts.append(str(duration))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def random_base(
    n_jobs: int,
    n_machines: int,
    seed: int,
    ops_per_job: tuple[int, int] = (4, 6),
    machines_per_op: tuple[int, int] = (1, 3),
) -> BaseFjspInstance:
    """A random base instance, for tests and synthetic benchmarks."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(n_jobs):
        ops = []
        for _ in range(rng.randint(*ops_per_job)):
            width = min(rng.randint(*machines_per_op), n_machines)
            machines = sorted(rng.sample(range(1, n_machines + 1), width))
            ops.append(
                tuple((m, rng.randint(*DURATION_RANGE)) for m in machines)
            )
        jobs.append(tuple(ops))
    return BaseFjspInstance(n_machines=n_machines, jobs=tuple(jobs))


def extend_instance(base: BaseFjspInstance, seed: int = 0) -> ProblemInstance:
    """Extend a base instance with gears, setups and power data.

    Deterministic per (base, seed): job setup times are drawn first in
    job order, then each machine's six values (setup power, standby
    power, process power base, idle power base, turn-on factor, switch
    factor) in machine order, each uniformly from its fixed range above.
    Per-gear process and idle power grow linearly with the gear index;
    per-gear durations are the base duration times ``SPEED_MULTIPLIERS``
    (3d, 2d, d: slowest gear first).
    """
    rng = random.Random(seed)
    s = len(SPEED_MULTIPLIERS)

    setup_times = [rng.randint(*SETUP_TIME_RANGE) for _ in range(base.n_jobs)]
    jobs = []
    for j, base_job in enumerate(base.jobs, start=1):
        ops = []
        for base_op in base_job:
            options = []
            for machine, duration in base_op:
                for gear in range(1, s + 1):
                    options.append(
                        ProcessingOption(machine, gear, duration * SPEED_MULTIPLIERS[gear - 1])
                    )
            ops.append(OperationSpec(tuple(options)))
        jobs.append(
            JobSpec(id=j, setup_time=setup_times[j - 1], operations=tuple(ops))
        )

    machines = []
    for m in range(1, base.n_machines + 1):
        setup_power = rng.uniform(*SETUP_POWER_RANGE)
        standby = rng.uniform(*STANDBY_POWER_RANGE)
        process_base = rng.uniform(*PROCESS_BASE_RANGE)
        idle_base = rng.uniform(*IDLE_BASE_RANGE)
        turn_on_factor = rng.uniform(*TURN_ON_FACTOR_RANGE)
        switch_factor = rng.uniform(*SWITCH_FACTOR_RANGE)
        process = tuple(process_base * g for g in range(1, s + 1))
        idle = tuple(idle_base * g for g in range(1, s + 1))
        turn_on = tuple((idle[g - 1] - standby) * turn_on_factor for g in range(1, s + 1))
        switch = [[0.0] * (s + 1) for _ in range(s + 1)]
        for g in range(1, s + 1):
            dorm = DORMANCY_SHARE * turn_on[g - 1]
            switch[0][g] = switch[g][0] = dorm
        for a in range(1, s + 1):
            for b in range(a + 1, s + 1):
                cost = (idle[a - 1] + idle[b - 1]) / 2.0 * switch_factor
                switch[a][b] = switch[b][a] = cost
        machines.append(
            Machine(
                id=m,
                setup_power=setup_power,
                process_power=process,
                idle_power=idle,
                standby_power=standby,
                switch=tuple(tuple(row) for row in switch),
                turn_on=turn_on,
            )
        )
    return ProblemInstance(
        jobs=tuple(jobs), machines=tuple(machines), speed_count=s
    )


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


def write_instance(inst: ProblemInstance) -> str:
    """Serialise an instance to its YAML document form."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "instance",
        "speed_count": inst.speed_count,
        "jobs": [
            {
                "id": job.id,
                "setup_time": job.setup_time,
                "operations": [
                    {
                        "options": [
                            {
                                "machine": opt.machine,
                                "gear": opt.speed,
                                "duration": opt.duration,
                            }
                            for opt in op.options
                        ]
                    }
                    for op in job.operations
                ],
            }
            for job in inst.jobs
        ],
        "machines": [
            {
                "id": mach.id,
                "setup_power": mach.setup_power,
                "process_power": list(mach.process_power),
                "idle_power": list(mach.idle_power),
                "standby_power": mach.standby_power,
                "turn_on": list(mach.turn_on),
                "switch": [list(row) for row in mach.switch],
            }
            for mach in inst.machines
        ],
    }
    return dump_document(doc)


def _require(mapping, key, label):
    if not isinstance(mapping, dict) or key not in mapping:
        raise InstanceFormatError(f"{label}: missing key {key!r}")
    return mapping[key]


def _int_field(mapping, key, label) -> int:
    value = _require(mapping, key, label)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceFormatError(f"{label}: {key} must be an integer")
    return value


def _list_field(mapping, key, label) -> list:
    value = _require(mapping, key, label)
    if not isinstance(value, list):
        raise InstanceFormatError(f"{label}: {key} must be a list")
    return value


def _float_field(value, label) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{label}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise InstanceFormatError(f"{label}: integer too large for a float") from None


def _floats(value, label) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise InstanceFormatError(f"{label}: expected a list of numbers")
    return tuple(_float_field(v, label) for v in value)


def read_instance(text: str) -> ProblemInstance:
    """Parse and validate an instance document.

    Raises InstanceFormatError on a malformed document and on an instance
    that ``validate_instance`` rejects, listing every violation.
    """
    data = load_document(text)
    if not isinstance(data, dict):
        raise InstanceFormatError("document root must be a mapping")
    version = data.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) or version != SCHEMA_VERSION:
        raise InstanceFormatError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    s = _int_field(data, "speed_count", "document")

    jobs = []
    for jdoc in _list_field(data, "jobs", "document"):
        label = f"job {jdoc.get('id') if isinstance(jdoc, dict) else '?'}"
        job_id = _int_field(jdoc, "id", label)
        setup = _int_field(jdoc, "setup_time", label)
        ops = []
        for o, odoc in enumerate(_list_field(jdoc, "operations", label), start=1):
            olabel = f"{label} operation {o}"
            options = []
            for optdoc in _list_field(odoc, "options", olabel):
                machine = _int_field(optdoc, "machine", olabel)
                gear = _int_field(optdoc, "gear", olabel)
                duration = _int_field(optdoc, "duration", olabel)
                options.append(ProcessingOption(machine, gear, duration))
            ops.append(OperationSpec(tuple(options)))
        jobs.append(JobSpec(id=job_id, setup_time=setup, operations=tuple(ops)))

    machines = []
    for mdoc in _list_field(data, "machines", "document"):
        label = f"machine {mdoc.get('id') if isinstance(mdoc, dict) else '?'}"
        mach_id = _int_field(mdoc, "id", label)
        process = _floats(_require(mdoc, "process_power", label), f"{label} process_power")
        idle = _floats(_require(mdoc, "idle_power", label), f"{label} idle_power")
        switch = tuple(_floats(r, f"{label} switch") for r in _list_field(mdoc, "switch", label))
        setup = _float_field(_require(mdoc, "setup_power", label), f"{label} setup_power")
        standby = _float_field(_require(mdoc, "standby_power", label), f"{label} standby_power")
        turn_on = _floats(mdoc["turn_on"], f"{label} turn_on") if "turn_on" in mdoc else None
        machines.append(
            Machine(
                id=mach_id,
                setup_power=setup,
                process_power=process,
                idle_power=idle,
                standby_power=standby,
                switch=switch,
                turn_on=turn_on,
            )
        )
    inst = ProblemInstance(
        jobs=tuple(jobs), machines=tuple(machines), speed_count=s
    )
    return require_valid(inst)


def require_valid(inst: ProblemInstance) -> ProblemInstance:
    """``inst`` itself, or InstanceFormatError listing every violation
    ``validate_instance`` finds."""
    report = validate_instance(inst)
    if not report.ok:
        raise InstanceFormatError(
            "invalid instance: " + "; ".join(report.errors + report.violations)
        )
    return inst
