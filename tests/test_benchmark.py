"""Base-format parsing, instance generation, and YAML round trips."""

from __future__ import annotations

import dataclasses
import math
import re

import pytest
import yaml

from conftest import fastest_gears, with_process_power
from efjsp.benchmark import (
    MAX_MACHINES,
    ParseError,
    dump_document,
    extend_instance,
    load_document,
    parse_base,
    random_base,
    read_instance,
    write_base,
    write_instance,
)
from efjsp.documents import DocumentError
from efjsp.model import validate_instance
from test_oracle import PINNED


def test_parse_minimal_base():
    base = parse_base("1 1\n1 1 1 5\n")
    assert base.n_jobs == 1
    assert base.n_machines == 1
    assert base.jobs == ((((1, 5),),),)


def test_parse_two_jobs():
    text = "2 2\n2 1 1 3 2 1 2 2 6\n1 1 2 4\n"
    base = parse_base(text)
    assert base.jobs[0] == (((1, 3),), ((1, 2), (2, 6)))
    assert base.jobs[1] == (((2, 4),),)


def test_parse_rejects_job_count_mismatch():
    with pytest.raises(ParseError):
        parse_base("2 1\n1 1 1 5\n")


def test_parse_rejects_machine_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_base("1 1\n1 1 2 5\n")
    assert "machine" in str(err.value)


@pytest.mark.parametrize("count", [MAX_MACHINES + 1, 10**30])
def test_parse_bounds_the_machine_count(count):
    # the extension builds every machine the header announces, used or not
    assert parse_base(f"1 {MAX_MACHINES}\n1 1 1 5\n").n_machines == MAX_MACHINES
    with pytest.raises(ParseError, match="line 1: machine count must be at most 10,000"):
        parse_base(f"1 {count}\n1 1 1 5\n")


def test_parse_rejects_nonpositive_duration():
    with pytest.raises(ParseError):
        parse_base("1 1\n1 1 1 0\n")


def test_parse_rejects_truncated_line():
    with pytest.raises(ParseError):
        parse_base("1 1\n1 1 1\n")


def test_parse_rejects_trailing_tokens():
    with pytest.raises(ParseError):
        parse_base("1 1\n1 1 1 5 9\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 1\n1 1 1 2.5\n", "not a whole number: '2.5'"),
        ("1 1\n1 1 1.9 5\n", "not a whole number: '1.9'"),
        ("1 1\n1 1 1 " + "9" * 400 + ".0\n", "not a finite number"),
        ("1 1 nan\n1 1 1 5\n", "not a finite number: 'nan'"),
    ],
    ids=["duration-2.5", "machine-1.9", "overflow", "header-nan"],
)
def test_parse_rejects_numbers_that_are_not_whole(text, message):
    with pytest.raises(ParseError) as err:
        parse_base(text)
    assert str(err.value).startswith("line ")
    assert message in str(err.value)


def test_parse_accepts_whole_numbers_written_with_a_point():
    assert parse_base("1 1\n1 1 1 5.0\n").jobs == ((((1, 5),),),)


def test_parse_accepts_a_fractional_average_flexibility():
    base = parse_base("1 1 1.15\n1 1 1 5\n")
    assert base.n_machines == 1
    assert base.jobs == ((((1, 5),),),)


def test_random_base_round_trip():
    base = random_base(n_jobs=5, n_machines=4, seed=11)
    again = parse_base(write_base(base))
    assert again.jobs == base.jobs
    assert again.n_machines == base.n_machines


def test_random_base_respects_shape_bounds():
    base = random_base(n_jobs=6, n_machines=5, seed=3)
    for job in base.jobs:
        assert 4 <= len(job) <= 6
        for op in job:
            assert 1 <= len(op) <= 3
            machines = [m for m, _ in op]
            assert len(set(machines)) == len(machines)
            for m, d in op:
                assert 1 <= m <= 5
                assert 1 <= d <= 10


def test_random_base_seed_determinism():
    a = random_base(4, 3, seed=9)
    b = random_base(4, 3, seed=9)
    c = random_base(4, 3, seed=10)
    assert a.jobs == b.jobs
    assert a.jobs != c.jobs


def test_extend_instance_gear_multipliers():
    base = random_base(4, 3, seed=1)
    inst = extend_instance(base, seed=1)
    for job, base_job in zip(inst.jobs, base.jobs):
        for op, base_op in zip(job.operations, base_job):
            by_machine = {}
            for o in op.options:
                by_machine.setdefault(o.machine, {})[o.speed] = o.duration
            assert len(by_machine) == len(base_op)
            for m, d in base_op:
                assert by_machine[m] == {1: 3 * d, 2: 2 * d, 3: d}


def test_extend_instance_parameter_ranges():
    for seed in range(5):
        inst = extend_instance(random_base(4, 3, seed=seed), seed=seed)
        for job in inst.jobs:
            assert 1 <= job.setup_time <= 2
        for m in inst.machines:
            assert 10 <= m.setup_power <= 30
            assert 3 <= m.standby_power <= 5
            for g in (1, 2, 3):
                assert 30 * g <= m.process_power[g - 1] <= 50 * g
                assert 5 * g <= m.idle_power[g - 1] <= 10 * g
        report = validate_instance(inst)
        assert report.ok, str(report)


def test_extend_instance_activation_energy_structure():
    inst = extend_instance(random_base(3, 3, seed=5), seed=5)
    for m in inst.machines:
        assert m.turn_on is not None
        ratios = {
            m.turn_on[g - 1] / (m.idle_power[g - 1] - m.standby_power)
            for g in (1, 2, 3)
        }
        # one activation factor per machine, shared across gears
        assert max(ratios) - min(ratios) < 1e-9
        assert 6 <= min(ratios) <= 8
        for g in (1, 2, 3):
            assert math.isclose(
                m.switch[0][g], 0.2 * m.turn_on[g - 1], rel_tol=0, abs_tol=1e-12
            )
            assert m.switch[g][0] == m.switch[0][g]


def test_extend_instance_switch_matrix_structure():
    inst = extend_instance(random_base(3, 3, seed=8), seed=8)
    for m in inst.machines:
        assert all(m.switch[g][g] == 0.0 for g in range(4))
        ratios = set()
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert m.switch[a][b] == m.switch[b][a]
                if a != b:
                    mean = (m.idle_power[a - 1] + m.idle_power[b - 1]) / 2
                    ratios.add(round(m.switch[a][b] / mean, 12))
        assert len(ratios) == 1
        assert 0.2 <= ratios.pop() <= 0.3


def test_extend_instance_seed_determinism():
    base = random_base(3, 2, seed=2)
    a = extend_instance(base, seed=7)
    b = extend_instance(base, seed=7)
    c = extend_instance(base, seed=8)
    assert a == b
    assert a != c


def test_instance_yaml_round_trip():
    inst = extend_instance(random_base(4, 3, seed=13), seed=13)
    text = write_instance(inst)
    again = read_instance(text)
    assert again == inst
    # serialisation is stable: a second dump is byte-identical
    assert write_instance(again) == text


def test_read_instance_refuses_energies_that_overflow():
    inst = with_process_power(extend_instance(random_base(3, 2, seed=1), seed=1), 1e308)
    with pytest.raises(DocumentError, match=r"^f\.yaml: invalid instance: energy bound .* overflows a float$"):
        read_instance(write_instance(inst), "f.yaml")


def test_read_instance_rejects_unknown_schema():
    inst = extend_instance(random_base(2, 2, seed=0), seed=0)
    text = write_instance(inst).replace("schema_version: 2", "schema_version: 99")
    with pytest.raises(DocumentError):
        read_instance(text)


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_read_instance_rejects_a_schema_version_that_is_not_the_integer_1(version):
    # `true` and `1.0` compare equal to the integer 1 of the old format; neither
    # may pass for a version, old or current
    inst = extend_instance(random_base(2, 2, seed=0), seed=0)
    text = write_instance(inst).replace("schema_version: 2", f"schema_version: {version}")
    with pytest.raises(DocumentError, match="schema_version"):
        read_instance(text)


@pytest.mark.parametrize(
    "row",
    [[1, 1], [1, 1, 3, 4], [1, 1, 3.0], [1, True, 3], [1, 1, "3"], [1, None, 3], 5,
     {"machine": 1, "gear": 1, "duration": 3}],
    ids=["two", "four", "float", "true", "string", "null", "scalar", "mapping"],
)
def test_read_instance_refuses_a_malformed_option_row(row):
    doc = load_document(write_instance(extend_instance(random_base(2, 2, seed=0), seed=0)))
    doc["jobs"][1]["operations"][2]["options"][-1] = row
    message = "f.yaml: job 2 operation 3: options must be a list of [machine, gear, duration] rows of integers"
    with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
        read_instance(dump_document(doc), "f.yaml")


_ROUND_TRIPS = {
    **PINNED,
    "fastest-gears-2": lambda: fastest_gears(extend_instance(random_base(4, 3, seed=13), seed=13), 2),
    "no-turn-on-4x3": lambda: dataclasses.replace(
        inst := extend_instance(random_base(4, 3, seed=5), seed=5),
        machines=tuple(dataclasses.replace(m, turn_on=None) for m in inst.machines),
    ),
}


@pytest.mark.parametrize("name", list(_ROUND_TRIPS))
def test_instance_round_trip_is_lossless(name):
    inst = _ROUND_TRIPS[name]()
    text = write_instance(inst)
    assert read_instance(text) == inst
    assert write_instance(read_instance(text)) == text


def test_read_instance_rejects_bad_gear():
    text = (
        "schema_version: 2\n"
        "kind: instance\n"
        "speed_count: 1\n"
        "jobs:\n"
        "- id: 1\n"
        "  setup_time: 1\n"
        "  operations:\n"
        "  - options:\n"
        "    - [1, 2, 3]\n"
        "machines:\n"
        "- id: 1\n"
        "  setup_power: 1.0\n"
        "  process_power: [1.0]\n"
        "  idle_power: [1.0]\n"
        "  standby_power: 0.5\n"
        "  switch:\n"
        "  - [0.0, 0.0]\n"
        "  - [0.0, 0.0]\n"
    )
    with pytest.raises(DocumentError, match=r"operation \(1,1\): gear 2 out of range 1\.\.1"):
        read_instance(text)
    # the same document with gear 1 is valid: the gear is its only fault
    read_instance(text.replace("[1, 2, 3]", "[1, 1, 3]"))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(jobs=5), "jobs must be a list"),
        (lambda doc: doc["jobs"][0].update(operations={"options": []}), "operations must be a list"),
        (lambda doc: doc["jobs"][0]["operations"][0].update(options=5), "operation 1: options must be a list"),
        (lambda doc: doc["machines"][0].update(switch=5), "switch must be a list"),
        (lambda doc: doc["machines"][0].update(idle_power="low"), "expected a list of numbers"),
        (lambda doc: doc["machines"][0].update(turn_on=3.0), "expected a list of numbers"),
    ],
    ids=["jobs", "operations", "options", "switch", "idle-power", "turn-on"],
)
def test_read_instance_rejects_non_list_fields(edit, message):
    doc = load_document(write_instance(extend_instance(random_base(2, 2, seed=0), seed=0)))
    edit(doc)
    with pytest.raises(DocumentError, match=message):
        read_instance(dump_document(doc))


def test_read_instance_lists_every_violation():
    inst = extend_instance(random_base(2, 2, seed=0), seed=0)
    doc = load_document(write_instance(inst))
    doc["jobs"][0]["operations"][0]["options"][0][2] = 0  # [machine, gear, duration]
    doc["machines"][1]["standby_power"] = -1.0
    with pytest.raises(DocumentError) as exc:
        read_instance(dump_document(doc))
    assert "non-positive duration" in str(exc.value)
    assert "machine 2: negative standby power" in str(exc.value)


def _same_objects(fast, slow, pairs=None) -> bool:
    """Equal by value, repr and type all the way down, with collections
    shared (and self-containing) in the same places on both sides."""
    pairs = {} if pairs is None else pairs
    if type(fast) is not type(slow):
        return False
    if isinstance(fast, (list, dict, set)):
        if id(fast) in pairs:
            return pairs[id(fast)] is slow
        pairs[id(fast)] = slow
        if isinstance(fast, set):
            return fast == slow
        if isinstance(fast, dict):
            return list(fast) == list(slow) and all(
                _same_objects(k, l, pairs) and _same_objects(fast[k], slow[l], pairs)
                for k, l in zip(fast, slow)
            )
        return len(fast) == len(slow) and all(
            _same_objects(a, b, pairs) for a, b in zip(fast, slow)
        )
    if isinstance(fast, tuple):
        return len(fast) == len(slow) and all(_same_objects(a, b, pairs) for a, b in zip(fast, slow))
    return repr(fast) == repr(slow) and (fast == slow or fast != fast)  # NaN: repr only


# YAML that `dump_document` never writes: aliases, merge keys, explicit
# tags and YAML 1.1 scalar spellings
_HAND_WRITTEN = {
    "aliases": """\
scalar: &s 42
scalar again: *s
text: &t hello
text again: *t
list: &l [1, two, 3.0, [nested]]
list again: *l
map: &m {a: 1, b: [x, y]}
map again: *m
inside: [*l, *m, {k: *l}]
""",
    "recursive list": "&a [*a]",
    "recursive map": "&m {self: *m, other: [*m]}",
    "merge keys": """\
base: &base {a: 1, b: two}
other: &other {c: 3.5}
one:
  <<: *base
  b: three
many:
  <<: [*base, *other]
  d: 4
""",
    "explicit tags": """\
- !!str 1
- !!float 1
- !!int "12"
- !!bool "yes"
- !!null ""
- !!str
- !!binary aGVsbG8gd29ybGQ=
- !!timestamp 2001-12-14t21:59:43.10-05:00
- !!timestamp 2002-12-14
- !!set {a, b, 3}
- !!omap [a: 1, b: 2]
- !!pairs [a: 1, a: 2]
- !!seq [1, 2]
- !!map {1: one}
""",
    "yaml 1.1 scalars": """\
bools: [yes, off, On, NO, y, n, True, FALSE]
ints: [0o17, 017, 0x1F, 0b101, 1_000, +12, -0, 1:30, 190:20:30]
floats: [1.5, .NaN, .inf, -.Inf, 1e3, 6.8523015e+5, 685.230_15e+03, 1:30.5, -1.]
nulls: [~, null, Null, NULL, '~']
empty:
empty in flow: {a: , b: }
empty item:
  -
  - ''
  - ""
quoted: ['yes', "1", '1.5', "~"]
date: 2002-12-14
stamp: 2001-12-14 21:59:43.10 -5
~: null key
1: int key
1.5: float key
yes: bool key
""",
}


@pytest.mark.parametrize("name", list(_HAND_WRITTEN))
def test_load_document_reads_hand_written_yaml_like_the_safe_loader(name):
    text = _HAND_WRITTEN[name]
    fast, slow = load_document(text), yaml.load(text, Loader=yaml.SafeLoader)
    assert repr(fast) == repr(slow)
    assert _same_objects(fast, slow)
    if name not in ("recursive list", "recursive map", "yaml 1.1 scalars"):
        assert fast == slow  # self-containing collections and .NaN never compare equal


def test_load_document_keeps_aliased_collections_one_object():
    doc = load_document(_HAND_WRITTEN["aliases"])
    assert doc["list again"] is doc["list"] and doc["map again"] is doc["map"]
    assert doc["inside"][0] is doc["list"] and doc["inside"][2]["k"] is doc["list"]
    looped = load_document("&a [*a]")
    assert looped[0] is looped
    merged = load_document(_HAND_WRITTEN["merge keys"])
    assert merged["one"] == {"a": 1, "b": "three"}
    assert merged["many"] == {"a": 1, "b": "two", "c": 3.5, "d": 4}


@pytest.mark.parametrize(
    "text",
    [
        "!!int abc", "value: !!float abc", "!foo bar", "!foo [1]", "{[1]: 2}", "? {a: 1}\n: 2\n",
        "a: 1\n---\nb: 2\n", "a: [1, 2]\n]\n",
    ],
    ids=[
        "bad-int", "bad-float", "unknown-tag", "unknown-tag-on-seq", "unhashable-list-key", "unhashable-map-key",
        "two-documents", "trailing-garbage",
    ],
)
def test_load_document_fails_like_the_safe_loader(text):
    with pytest.raises(Exception) as fast:
        load_document(text)
    with pytest.raises(Exception) as slow:
        yaml.load(text, Loader=yaml.SafeLoader)
    assert type(fast.value) is type(slow.value)
    assert str(fast.value) == str(slow.value)
