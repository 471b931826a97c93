"""Base-format parsing, instance generation, and YAML round trips."""

from __future__ import annotations

import math

import pytest

from efjsp.benchmark import (
    GeneratorParams,
    InstanceFormatError,
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
from efjsp.model import validate_instance


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


def test_parse_rejects_nonpositive_duration():
    with pytest.raises(ParseError):
        parse_base("1 1\n1 1 1 0\n")


def test_parse_rejects_truncated_line():
    with pytest.raises(ParseError):
        parse_base("1 1\n1 1 1\n")


def test_parse_rejects_trailing_tokens():
    with pytest.raises(ParseError):
        parse_base("1 1\n1 1 1 5 9\n")


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
    params = GeneratorParams()
    for seed in range(5):
        inst = extend_instance(random_base(4, 3, seed=seed), seed=seed)
        for job in inst.jobs:
            assert params.setup_time_range[0] <= job.setup_time <= params.setup_time_range[1]
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


def test_read_instance_rejects_unknown_schema():
    inst = extend_instance(random_base(2, 2, seed=0), seed=0)
    text = write_instance(inst).replace("schema_version: 1", "schema_version: 99")
    with pytest.raises(InstanceFormatError):
        read_instance(text)


def test_read_instance_rejects_bad_gear():
    text = (
        "schema_version: 1\n"
        "kind: instance\n"
        "speed_count: 1\n"
        "jobs:\n"
        "- id: 1\n"
        "  setup_time: 1\n"
        "  operations:\n"
        "  - options:\n"
        "    - {machine: 1, gear: 2, duration: 3}\n"
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
    with pytest.raises(InstanceFormatError):
        read_instance(text)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(jobs=5), "jobs must be a list"),
        (lambda doc: doc["jobs"][0].update(operations={"options": []}), "operations must be a list"),
        (lambda doc: doc["machines"][0].update(switch=5), "switch must be a list"),
        (lambda doc: doc["machines"][0].update(idle_power="low"), "expected a list of numbers"),
        (lambda doc: doc["machines"][0].update(turn_on=3.0), "expected a list of numbers"),
    ],
    ids=["jobs", "operations", "switch", "idle-power", "turn-on"],
)
def test_read_instance_rejects_non_list_fields(edit, message):
    doc = load_document(write_instance(extend_instance(random_base(2, 2, seed=0), seed=0)))
    edit(doc)
    with pytest.raises(InstanceFormatError, match=message):
        read_instance(dump_document(doc))


def test_read_instance_lists_every_violation():
    inst = extend_instance(random_base(2, 2, seed=0), seed=0)
    doc = load_document(write_instance(inst))
    doc["jobs"][0]["operations"][0]["options"][0]["duration"] = 0
    doc["machines"][1]["standby_power"] = -1.0
    with pytest.raises(InstanceFormatError) as exc:
        read_instance(dump_document(doc))
    assert "non-positive duration" in str(exc.value)
    assert "machine 2: negative standby power" in str(exc.value)


def test_generator_params_validation():
    with pytest.raises(ValueError):
        GeneratorParams(setup_time_range=(2, 1))
    with pytest.raises(ValueError):
        GeneratorParams(turn_on_factor_range=(-1, 2))
