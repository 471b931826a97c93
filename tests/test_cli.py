"""End-to-end command line flows on a small generated instance."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import efjsp
from conftest import with_process_power
from efjsp.benchmark import (
    dump_document,
    extend_instance,
    load_document,
    parse_base,
    random_base,
    read_instance,
    write_base,
    write_instance,
)
from efjsp.cli import _sha256, main
from efjsp.model import validate_instance
from efjsp.optimizer import AlgorithmConfig, run


@pytest.fixture()
def base_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(write_base(random_base(n_jobs=2, n_machines=2, seed=21)))
    return path


@pytest.fixture()
def instance_file(tmp_path, base_file):
    assert main(["generate", str(base_file), "--seed", "4", "--out-dir", str(tmp_path)]) == 0
    return tmp_path / "tiny.yaml"


def _solve(instance_file, out, *extra) -> int:
    return main(
        [
            "solve",
            str(instance_file),
            "--iters", "4",
            "--pop", "8",
            "--seed", "2",
            "--out", str(out),
            *extra,
        ]
    )


def test_generate_writes_valid_instance(instance_file):
    inst = read_instance(instance_file.read_text())
    report = validate_instance(inst)
    assert report.ok, str(report)


def test_generate_replicas_are_distinct(tmp_path, base_file):
    code = main(
        [
            "generate", str(base_file),
            "--seed", "4",
            "--replicas", "3",
            "--out-dir", str(tmp_path / "batch"),
        ]
    )
    assert code == 0
    files = sorted((tmp_path / "batch").glob("tiny-*.yaml"))
    assert [f.name for f in files] == ["tiny-01.yaml", "tiny-02.yaml", "tiny-03.yaml"]
    texts = {f.read_text() for f in files}
    assert len(texts) == 3
    # replica k reuses seed + k - 1, so replica 1 equals the plain run
    single = tmp_path / "single"
    main(["generate", str(base_file), "--seed", "4", "--out-dir", str(single)])
    assert (single / "tiny.yaml").read_text() == files[0].read_text()


def test_generate_refuses_zero_replicas_before_creating_out_dir(tmp_path, base_file, capsys):
    out_dir = tmp_path / "never"
    code = main(["generate", str(base_file), "--replicas", "0", "--out-dir", str(out_dir)])
    assert code == 1
    _assert_one_line_error(capsys, "--replicas must be at least 1")
    assert not out_dir.exists()


def test_generate_refuses_replicas_beyond_the_bound_before_writing(tmp_path, base_file, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = main(["generate", str(base_file), "--replicas", str(10**30), "--out-dir", str(out_dir)])
    assert code == 1
    _assert_one_line_error(capsys, "--replicas must be at most 1,000")
    assert not list(out_dir.iterdir())


def test_generate_writes_nothing_when_a_later_base_fails(tmp_path, base_file, capsys):
    short = tmp_path / "short.txt"
    short.write_text("2 1\n1 1 1 5\n")  # announces 2 jobs, has 1 job line
    out_dir = tmp_path / "partial"
    assert main(["generate", str(base_file), str(short), "--out-dir", str(out_dir)]) == 1
    _assert_one_line_error(capsys, str(short), "line 1: header announces 2 jobs")
    assert not out_dir.exists()


def test_generate_checks_every_replica_before_writing(tmp_path, capsys):
    # two operations of 3 * (2**53 - 2) / 3 slowest-gear time in all, each after
    # a setup of 1 or 2: the horizon is 2**53 for replicas 1-4 (seeds 1-4 draw a
    # setup of 1) and exceeds it for replica 5 (seed 5 draws 2)
    base = tmp_path / "edge.txt"
    base.write_text(f"1 1\n2 1 1 1 1 1 {(2**53 - 2) // 3 - 1}\n")
    out_dir = tmp_path / "out"
    argv = ["generate", str(base), "--seed", "1", "--out-dir", str(out_dir)]
    assert main([*argv, "--replicas", "4"]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "out5"
    argv[-1] = str(out_dir)
    assert main([*argv, "--replicas", "5"]) == 1
    _assert_one_line_error(capsys, str(base), "exceeds 2**53")
    assert not out_dir.exists()


def test_generate_refuses_two_bases_of_one_stem(tmp_path, base_file, capsys):
    first, second = tmp_path / "a" / "x.txt", tmp_path / "b" / "x.txt"
    for path in (first, second):
        path.parent.mkdir()
        path.write_text(base_file.read_text())
    out_dir = tmp_path / "out"
    assert main(["generate", str(first), str(second), "--out-dir", str(out_dir)]) == 1
    _assert_one_line_error(capsys, str(first), str(second), str(out_dir / "x.yaml"))
    assert not out_dir.exists()


def test_generate_checks_every_target_before_writing(tmp_path, base_file, capsys):
    other = tmp_path / "y.txt"
    other.write_text(base_file.read_text())
    out_dir = tmp_path / "out"
    (out_dir / "y.yaml").mkdir(parents=True)
    assert main(["generate", str(base_file), str(other), "--out-dir", str(out_dir)]) == 2
    _assert_one_line_error(capsys, str(out_dir / "y.yaml"))
    assert sorted(out_dir.iterdir()) == [out_dir / "y.yaml"]


@pytest.mark.parametrize("out", ["new", "a/b"], ids=["one-level", "nested"])
def test_generate_takes_back_the_out_dir_it_made_when_a_target_fails(tmp_path, base_file, capsys, out):
    # a 251-character stem makes a 256-byte target name, one past the usual limit
    long_base = tmp_path / ("b" * 251 + ".txt")
    long_base.write_text(base_file.read_text())
    before = sorted(tmp_path.iterdir())
    assert main(["generate", str(long_base), "--out-dir", str(tmp_path / out)]) == 2
    _assert_one_line_error(capsys, "File name too long")
    assert sorted(tmp_path.iterdir()) == before


def test_generate_keeps_an_out_dir_that_was_there_when_a_target_fails(tmp_path, base_file, capsys):
    long_base = tmp_path / ("b" * 251 + ".txt")
    long_base.write_text(base_file.read_text())
    out_dir = tmp_path / "kept"
    out_dir.mkdir()
    assert main(["generate", str(long_base), "--out-dir", str(out_dir / "new")]) == 2
    _assert_one_line_error(capsys, "File name too long")
    assert out_dir.is_dir() and not list(out_dir.iterdir())


@pytest.mark.parametrize(
    "command, written",
    [
        (lambda d: ["solve", d / "tiny.yaml", "--out", d / "tiny.yaml"], "tiny.yaml"),
        (lambda d: ["solve", d / "tiny.yaml", "--config", d / "c.yaml", "--out", d / "c.yaml"], "c.yaml"),
        (lambda d: ["gantt", d / "r.yaml", "--out", d / "r"], "r.yaml"),
        (lambda d: ["gantt", d / "r.yaml", "--out", d / "tiny"], "tiny.yaml"),
        (lambda d: ["gantt", d / "link.yaml", "--out", d / "r"], "r.yaml"),
        (lambda d: ["metrics", d / "s.yaml", d / "r.yaml", "--out", d / "r.yaml"], "r.yaml"),
        (lambda d: ["generate", d / "b.yaml", "--out-dir", d], "b.yaml"),
    ],
    ids=[
        "solve-instance", "solve-config", "gantt-result", "gantt-instance", "gantt-linked-result",
        "metrics-result", "generate-base",
    ],
)
def test_no_command_writes_over_one_of_its_inputs(tmp_path, base_file, instance_file, capsys, command, written):
    assert _solve(instance_file, tmp_path / "r.yaml") == 0 and _solve(instance_file, tmp_path / "s.yaml") == 0
    (tmp_path / "c.yaml").write_text("population: 4\n")
    (tmp_path / "b.yaml").write_text(base_file.read_text())  # a base file named like an instance
    (tmp_path / "link.yaml").symlink_to(tmp_path / "r.yaml")
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    capsys.readouterr()
    assert main([str(arg) for arg in command(tmp_path)]) == 1
    _assert_one_line_error(capsys, str(tmp_path / written), "input")
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_solve_writes_result_document(tmp_path, instance_file):
    out = tmp_path / "result.yaml"
    assert _solve(instance_file, out) == 0
    doc = load_document(out.read_text())
    assert doc["kind"] == "result"
    assert doc["schema_version"] == 3
    assert doc["instance"] == "tiny.yaml"  # relative to the result's directory
    assert doc["config"]["population"] == 8
    assert len(doc["iterations"]) == 4
    assert doc["archive"]
    for entry in doc["archive"]:
        assert set(entry) == {"cmax", "tec", "os", "mv"}


def test_solve_neither_decodes_nor_prices_its_archive(tmp_path, instance_file, monkeypatch):
    # each archived solution's objectives come from the run; gantt alone
    # turns a stored chromosome into a schedule and prices it
    def refuse(*args):
        raise AssertionError("solve decoded or priced an archived solution")

    monkeypatch.setattr(efjsp.cli, "decode", refuse)
    monkeypatch.setattr(efjsp.cli, "total_energy", refuse)
    assert _solve(instance_file, tmp_path / "result.yaml") == 0


def test_load_document_matches_pure_python_loader(tmp_path, instance_file):
    # load_document reads a document efjsp wrote with json; the objects
    # must not differ from the pure-Python safe loader's, types and order kept
    out = tmp_path / "result.yaml"
    assert _solve(instance_file, out) == 0
    for text in (out.read_text(), instance_file.read_text()):
        fast, slow = load_document(text), yaml.load(text, Loader=yaml.SafeLoader)
        assert fast == slow
        assert repr(fast) == repr(slow)


def test_block_yaml_copies_read_like_the_golden_documents(tmp_path, monkeypatch):
    # efjsp writes JSON; a hand-written file is block YAML, which the safe
    # loader reads: to the same instance, and to results with the same report
    golden = Path(__file__).parent / "data" / "golden"

    def block(name):
        text = yaml.safe_dump(yaml.safe_load((golden / name).read_text()), sort_keys=False)
        with pytest.raises(ValueError):
            json.loads(text)  # so load_document reads it with the safe loader
        return text

    instance = (golden / "base6x4.yaml").read_text()
    assert read_instance(block("base6x4.yaml")) == read_instance(instance)
    # the results name their instance relative to their own directory
    (tmp_path / "base6x4.yaml").write_text(instance)
    for name in ("result-1.yaml", "result-2.yaml"):
        (tmp_path / name).write_text(block(name))
    monkeypatch.chdir(tmp_path)
    assert main(["metrics", "result-1.yaml", "result-2.yaml", "--out", "metrics.yaml"]) == 0
    assert (tmp_path / "metrics.yaml").read_text() == (golden / "metrics.yaml").read_text()


def test_solve_results_identical_apart_from_wall_time(tmp_path, instance_file):
    a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
    assert _solve(instance_file, a) == 0
    assert _solve(instance_file, b) == 0
    da = load_document(a.read_text())
    db = load_document(b.read_text())
    da.pop("wall_time_s")
    db.pop("wall_time_s")
    assert da == db


def test_solve_threads_flag_does_not_change_archive(tmp_path, instance_file):
    a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
    assert _solve(instance_file, a, "--threads", "1") == 0
    assert _solve(instance_file, b, "--threads", "3") == 0
    da = load_document(a.read_text())
    db = load_document(b.read_text())
    assert da["archive"] == db["archive"]
    assert da["iterations"] == db["iterations"]


def test_solve_reads_config_file_with_overrides(tmp_path, instance_file):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("population: 6\nmax_iter: 3\nvns_budget: 5\n")
    out = tmp_path / "result.yaml"
    code = main(
        [
            "solve", str(instance_file),
            "--config", str(cfg),
            "--pop", "9",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = load_document(out.read_text())
    assert doc["config"]["population"] == 9
    assert doc["config"]["max_iter"] == 3
    assert doc["config"]["vns_budget"] == 5


def test_solve_rejects_unknown_config_keys(tmp_path, instance_file, capsys):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("particle_count: 9\n")
    out = tmp_path / "result.yaml"
    code = main(
        ["solve", str(instance_file), "--config", str(cfg), "--out", str(out)]
    )
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_solve_rejects_unknown_config_keys_of_mixed_types(tmp_path, instance_file, capsys):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("1: 2\nfoo: 3\n")
    out = tmp_path / "result.yaml"
    code = main(["solve", str(instance_file), "--config", str(cfg), "--out", str(out)])
    assert code == 1
    _assert_one_line_error(capsys, "unknown config keys: [1, 'foo']")
    assert not out.exists()


@pytest.mark.parametrize("key", ["disable_vns", "scale_factor", "crossover_rate"])
def test_solve_refuses_the_removed_settings(tmp_path, instance_file, capsys, key):
    # `disable_vns` is `vns_budget: 0`; F and CR are the constants of efjsp.optimizer
    cfg = tmp_path / "config.yaml"
    cfg.write_text(f"{key}: {'true' if key == 'disable_vns' else 0.5}\n")
    out = tmp_path / "result.yaml"
    assert main(["solve", str(instance_file), "--config", str(cfg), "--out", str(out)]) == 1
    _assert_one_line_error(capsys, str(cfg), f"unknown config keys: ['{key}']")
    assert not out.exists()


_MALFORMED = {
    "instance": "kind: instance\njobs: [1, 2\n",
    "config": "population: [1, 2\n",
    "result": "a: [1, 2\n",
    "base": "2 1\n1 1 1 5\n",
}


@pytest.mark.parametrize("text", ["malformed", "not-utf8"])
@pytest.mark.parametrize("kind", list(_MALFORMED))
def test_every_unreadable_input_names_its_file(tmp_path, instance_file, capsys, kind, text):
    bad = tmp_path / f"bad-{kind}"
    if text == "malformed":
        bad.write_text(_MALFORMED[kind])
    else:
        bad.write_bytes(b"\xff\xfe" + _MALFORMED[kind].encode())
    out = tmp_path / "out"
    argv = {
        "instance": ["solve", str(bad), "--out", str(out)],
        "config": ["solve", str(instance_file), "--config", str(bad), "--out", str(out)],
        "result": ["metrics", str(tmp_path / "result.yaml"), str(bad)],
        "base": ["generate", str(bad), "--out-dir", str(out)],
    }[kind]
    if kind == "result":
        assert _solve(instance_file, tmp_path / "result.yaml") == 0
    capsys.readouterr()
    assert main(argv) == 1
    expected = {"malformed": "malformed YAML: " if kind != "base" else "line 1: ", "not-utf8": "utf-8"}
    _assert_one_line_error(capsys, f"{bad}: ", expected[text])
    assert not out.exists()


def _assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
    for fragment in fragments:
        assert fragment in err


def _option(doc):
    """The first option row of job 1's first operation: [machine, gear, duration]."""
    return doc["jobs"][0]["operations"][0]["options"][0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _option(doc).__setitem__(0, 9), "unknown machine 9"),
        (lambda doc: doc["jobs"][-1].update(id=len(doc["jobs"]) + 1), "job ids must be contiguous"),
        (lambda doc: _option(doc).__setitem__(2, 0), "non-positive duration"),
        (lambda doc: doc["machines"][0].update(standby_power=-1.0), "negative standby power"),
    ],
    ids=["machine-9", "job-id-gap", "duration-0", "negative-standby"],
)
def test_solve_refuses_invalid_instance(tmp_path, instance_file, capsys, edit, message):
    doc = load_document(instance_file.read_text())
    edit(doc)
    broken = tmp_path / "broken.yaml"
    broken.write_text(dump_document(doc))
    out = tmp_path / "result.yaml"
    assert _solve(broken, out) == 1
    _assert_one_line_error(capsys, "invalid instance", message)
    assert not out.exists()


def _version_1(text: str) -> str:
    """An instance document's text as version 1 wrote it: each option a
    ``{machine, gear, duration}`` mapping."""
    doc = load_document(text)
    doc["schema_version"] = 1
    for job in doc["jobs"]:
        for op in job["operations"]:
            op["options"] = [dict(zip(("machine", "gear", "duration"), row)) for row in op["options"]]
    return dump_document(doc)


def test_solve_refuses_a_version_1_instance(tmp_path, instance_file, capsys):
    old = tmp_path / "old.yaml"
    old.write_text(_version_1(instance_file.read_text()))
    out = tmp_path / "result.yaml"
    assert _solve(old, out) == 1
    _assert_one_line_error(capsys, f"{old}: unsupported instance schema_version, expected 2")
    assert not out.exists()


def test_gantt_refuses_a_result_whose_instance_is_version_1(tmp_path, instance_file, capsys):
    result = tmp_path / "result.yaml"
    assert _solve(instance_file, result) == 0
    text = _version_1(instance_file.read_text())
    instance_file.write_text(text)
    doc = load_document(result.read_text())
    doc["instance_sha256"] = _sha256(text)  # the hash matches: only the version is at fault
    result.write_text(dump_document(doc))
    capsys.readouterr()
    assert main(["gantt", str(result), "--out", str(tmp_path / "chart")]) == 1
    _assert_one_line_error(capsys, f"{instance_file}: unsupported instance schema_version, expected 2")
    assert not list(tmp_path.glob("chart.*"))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.update(setup_power=math.nan), "non-finite setup power nan"),
        (lambda m: m["process_power"].__setitem__(1, math.inf), "non-finite process power inf"),
        (lambda m: m["idle_power"].__setitem__(0, math.nan), "non-finite idle power nan"),
        (lambda m: m.update(standby_power=math.inf), "non-finite standby power inf"),
        (lambda m: m["switch"][0].__setitem__(1, math.nan), "non-finite switch energy nan"),
        (lambda m: m["turn_on"].__setitem__(2, -math.inf), "non-finite turn-on energy -inf"),
    ],
    ids=["setup-nan", "process-inf", "idle-nan", "standby-inf", "switch-nan", "turn-on-minus-inf"],
)
def test_solve_refuses_non_finite_power(tmp_path, instance_file, capsys, edit, message):
    doc = load_document(instance_file.read_text())
    edit(doc["machines"][-1])
    broken = tmp_path / "broken.yaml"
    broken.write_text(dump_document(doc))
    out = tmp_path / "result.yaml"
    assert _solve(broken, out) == 1
    _assert_one_line_error(capsys, "invalid instance", message)
    assert not out.exists()


@pytest.mark.parametrize("digits", [400, 30])
def test_durations_beyond_the_horizon_bound_are_one_line_errors(tmp_path, capsys, digits):
    # unbounded, a 400-digit duration overflows float arithmetic inside
    # solve, and a 30-digit one solves to a makespan no float holds exactly
    base = tmp_path / "huge.txt"
    base.write_text(f"1 1\n1 1 1 {'9' * digits}\n")
    out_dir = tmp_path / "out"
    assert main(["generate", str(base), "--out-dir", str(out_dir)]) == 1
    _assert_one_line_error(capsys, "invalid instance", "exceeds 2**53")
    assert not out_dir.exists()
    instance = tmp_path / "huge.yaml"
    instance.write_text(write_instance(extend_instance(parse_base(base.read_text()))))
    out = tmp_path / "result.yaml"
    assert _solve(instance, out) == 1
    _assert_one_line_error(capsys, "invalid instance", "exceeds 2**53")
    assert not out.exists()


_BIG = 10**399  # 400 digits: float() of it raises OverflowError


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda m: m.update(setup_power=_BIG), "setup_power"),
        (lambda m: m["process_power"].__setitem__(1, -_BIG), "process_power"),
        (lambda m: m["idle_power"].__setitem__(0, _BIG), "idle_power"),
        (lambda m: m.update(standby_power=_BIG), "standby_power"),
        (lambda m: m["switch"][0].__setitem__(1, _BIG), "switch"),
        (lambda m: m["turn_on"].__setitem__(2, _BIG), "turn_on"),
    ],
    ids=["setup", "process", "idle", "standby", "switch", "turn-on"],
)
def test_solve_refuses_a_power_too_large_for_a_float(tmp_path, instance_file, capsys, edit, field):
    doc = load_document(instance_file.read_text())
    edit(doc["machines"][-1])
    broken = tmp_path / "broken.yaml"
    broken.write_text(dump_document(doc))
    out = tmp_path / "result.yaml"
    assert _solve(broken, out) == 1
    _assert_one_line_error(capsys, f"machine {len(doc['machines'])} {field}", "too large")
    assert not out.exists()


def test_solve_refuses_energies_that_overflow(tmp_path, capsys):
    # every power is finite, but a schedule's total energy would not be
    inst = with_process_power(extend_instance(random_base(3, 2, seed=1), seed=1), 1e308)
    instance = tmp_path / "big.yaml"
    instance.write_text(write_instance(inst))
    out = tmp_path / "result.yaml"
    code = main(["solve", str(instance), "--pop", "6", "--iters", "2", "--out", str(out)])
    assert code == 1
    _assert_one_line_error(capsys, str(instance), "energy bound", "overflows a float")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("metrics", lambda e: e.update(tec=_BIG), "finite numeric tec"),
        ("gantt", lambda e: e.update(tec=-_BIG), "finite numeric tec"),
        ("metrics", lambda e: e.update(cmax=_BIG), "integer cmax of at most 2**53"),
        ("metrics", lambda e: e.update(cmax=-_BIG), "integer cmax of at most 2**53"),
        ("gantt", lambda e: e.update(cmax=_BIG), "integer cmax of at most 2**53"),
    ],
    ids=["metrics-tec", "gantt-neg-tec", "metrics-cmax", "metrics-neg-cmax", "gantt-cmax"],
)
def test_result_integers_too_large_for_a_float_are_one_line_errors(
    tmp_path, instance_file, capsys, command, edit, message
):
    result = tmp_path / "result.yaml"
    assert _solve(instance_file, result) == 0
    doc = load_document(result.read_text())
    edit(doc["archive"][0])
    result.write_text(dump_document(doc))
    capsys.readouterr()
    prefix = tmp_path / "chart"
    extra = ["--out", str(prefix)] if command == "gantt" else []
    assert main([command, str(result), *extra]) == 1
    _assert_one_line_error(capsys, str(result), message)
    assert not list(tmp_path.glob("chart.*"))


def test_solve_derives_the_message_matrices_once(tmp_path, instance_file, matrix_builds):
    # one build, in ``run``, serves the solve and the archive's breakdowns
    assert _solve(instance_file, tmp_path / "result.yaml") == 0
    assert len(matrix_builds) == 1


def test_solve_refuses_malformed_yaml(tmp_path, instance_file, capsys):
    broken = tmp_path / "broken.yaml"
    broken.write_text(instance_file.read_text() + "jobs: [unclosed\n")
    out = tmp_path / "result.yaml"
    assert _solve(broken, out) == 1
    _assert_one_line_error(capsys, "malformed YAML", "line ")
    assert not out.exists()


_LONG_INT = "1" * 5000  # past int's limit of 4,300 digits read from text


@pytest.mark.parametrize(
    "setting",
    [
        "population: abc",
        "vns_budget: true",
        "- 30",
        pytest.param("population: " + _LONG_INT, id="int-of-5000-digits"),
        pytest.param('{"population": ' + _LONG_INT + "}", id="int-of-5000-digits-json"),
    ],
)
def test_solve_refuses_mistyped_config(tmp_path, instance_file, capsys, setting):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(setting + "\n")
    out = tmp_path / "result.yaml"
    code = main(["solve", str(instance_file), "--config", str(cfg), "--out", str(out)])
    assert code == 1
    _assert_one_line_error(capsys, str(cfg))
    assert not out.exists()


_HUGE = str(10**30)


@pytest.mark.parametrize(
    "key, extra, setting",
    [
        ("population", ["--pop", _HUGE], None),
        ("max_iter", ["--iters", _HUGE], None),
        ("population", [], "population: " + _HUGE),
        ("max_iter", [], "max_iter: " + _HUGE),
        ("vns_budget", [], "vns_budget: " + _HUGE),
    ],
    ids=["pop-flag", "iters-flag", "population", "max_iter", "vns_budget"],
)
def test_solve_refuses_sizes_beyond_their_bounds(tmp_path, instance_file, capsys, key, extra, setting):
    if setting is not None:
        cfg = tmp_path / "config.yaml"
        cfg.write_text(setting + "\n")
        extra = ["--config", str(cfg)]
    out = tmp_path / "result.yaml"
    code = main(["solve", str(instance_file), *extra, "--out", str(out)])
    assert code == 1
    _assert_one_line_error(capsys, f"{key} must lie in ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--pop", "2", "population must lie in 3..10000"),
        ("--pop", _HUGE, "population must lie in 3..10000"),
        ("--iters", "-1", "max_iter must lie in 0..1000000"),
        ("--iters", _HUGE, "max_iter must lie in 0..1000000"),
    ],
)
def test_solve_refusal_of_a_size_flag_names_the_flag(tmp_path, instance_file, capsys, flag, value, message):
    out = tmp_path / "result.yaml"
    assert main(["solve", str(instance_file), flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag}: {message}\n"
    assert not out.exists()


def _run_python(code: str, cwd=None) -> int:
    """The exit status of ``code`` run by a fresh interpreter that imports this ``efjsp``."""
    src = str(Path(efjsp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, timeout=120).returncode


def test_cli_import_leaves_openssl_unloaded():
    # no command loads hashlib's libcrypto: solve and gantt hash with the built-in SHA-256
    assert _run_python("import sys, efjsp.cli; sys.exit('_hashlib' in sys.modules)") == 0


def test_a_whole_pipeline_leaves_openssl_unloaded(tmp_path):
    code = """if True:
        import sys
        from efjsp.benchmark import random_base, write_base
        from efjsp.cli import main
        open("base.txt", "w").write(write_base(random_base(4, 3, seed=1)))
        for argv in (
            ["generate", "base.txt", "--seed", "1"],
            ["solve", "base.yaml", "--pop", "6", "--iters", "1", "--seed", "1", "--out", "result.yaml"],
            ["metrics", "result.yaml", "--out", "report.yaml"],
            ["gantt", "result.yaml", "--out", "chart"],
        ):
            assert main(argv) == 0, argv
        sys.exit('_hashlib' in sys.modules)
    """
    assert _run_python(code, cwd=tmp_path) == 0
    assert (tmp_path / "chart.svg").exists()


@pytest.mark.parametrize(
    "text",
    ["", "instance: 1\n", "é € \U0001F600", "a: 1\r\nb: 2\r\n", None],
    ids=["empty", "ascii", "non-ascii", "crlf", "golden-instance"],
)
def test_instance_hash_is_the_sha256_of_the_utf8_text(text):
    golden = Path(__file__).parent / "data" / "golden"
    if text is None:
        text = (golden / "base6x4.yaml").read_text()
        assert load_document((golden / "result-1.yaml").read_text())["instance_sha256"] == _sha256(text)
    assert _sha256(text) == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("document", ["[]", "0", "false", "''", "[1]"])
def test_solve_refuses_a_config_that_is_not_a_mapping(tmp_path, instance_file, capsys, document):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(document + "\n")
    out = tmp_path / "result.yaml"
    code = main(["solve", str(instance_file), "--config", str(cfg), "--out", str(out)])
    assert code == 1
    _assert_one_line_error(capsys, str(cfg), "config must be a mapping")
    assert not out.exists()


@pytest.mark.parametrize("document", ["", "# no settings\n", "---\n"])
def test_solve_runs_an_empty_config_on_the_defaults(tmp_path, instance_file, document):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(document)
    out = tmp_path / "result.yaml"
    code = main(
        ["solve", str(instance_file), "--config", str(cfg), "--pop", "6", "--iters", "1",
         "--out", str(out)]
    )
    assert code == 0
    assert load_document(out.read_text())["config"]["vns_budget"] == AlgorithmConfig().vns_budget


def test_solve_ablation_flags_recorded(tmp_path, instance_file):
    out = tmp_path / "result.yaml"
    assert _solve(instance_file, out, "--ablate", "nde", "--ablate", "ncp") == 0
    doc = load_document(out.read_text())
    assert doc["config"]["disable_de"] is True
    assert doc["config"]["vns_budget"] == 0
    assert doc["config"]["disable_hybrid_init"] is False


def test_metrics_report(tmp_path, instance_file, capsys):
    a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
    _solve(instance_file, a)
    main(
        [
            "solve", str(instance_file),
            "--iters", "4", "--pop", "8", "--seed", "7",
            "--out", str(b),
        ]
    )
    report_path = tmp_path / "report.yaml"
    code = main(["metrics", str(a), str(b), "--out", str(report_path)])
    assert code == 0
    doc = load_document(report_path.read_text())
    assert doc["kind"] == "metrics"
    assert len(doc["results"]) == 2
    for row in doc["results"]:
        assert row["igd"] >= 0.0
        assert row["hv"] >= 0.0
    matrix = doc["c_metric"]
    assert len(matrix) == 2 and len(matrix[0]) == 2
    assert matrix[0][0] == 0.0 and matrix[1][1] == 0.0
    # without --out the report goes to stdout
    assert main(["metrics", str(a), str(b)]) == 0
    assert "c_metric" in capsys.readouterr().out


def test_metrics_report_names_a_file_that_is_not_utf8(tmp_path, instance_file):
    result = tmp_path / os.fsdecode(b"r\xff.yaml")
    assert _solve(instance_file, result) == 0
    report = tmp_path / "report.yaml"
    assert main(["metrics", str(result), "--out", str(report)]) == 0
    assert 'r\\uDCFF.yaml"' in report.read_text()


def test_metrics_report_naming_a_file_that_is_not_utf8_loads_back(tmp_path, instance_file):
    result = tmp_path / os.fsdecode(b"r\xff.yaml")
    assert _solve(instance_file, result) == 0
    report = tmp_path / "report.yaml"
    assert main(["metrics", str(result), "--out", str(report)]) == 0
    text = report.read_text()
    doc = load_document(text)
    assert doc == yaml.load(text, Loader=yaml.SafeLoader)
    assert doc["results"][0]["file"] == str(result)


def _efjsp(*argv: str) -> subprocess.CompletedProcess:
    """``efjsp`` run in a fresh interpreter, which a crash cannot take down."""
    src = str(Path(efjsp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "efjsp.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_metrics_reads_a_file_name_that_is_not_utf8_from_the_command_line(tmp_path, instance_file):
    result = tmp_path / os.fsdecode(b"r\xff.yaml")
    assert _solve(instance_file, result) == 0
    report = tmp_path / "report.yaml"
    ran = _efjsp("metrics", str(result), "--out", str(report))
    assert ran.returncode == 0, ran.stderr
    assert load_document(report.read_text())["results"][0]["file"] == str(result)


def test_a_deeply_nested_document_is_a_one_line_error(tmp_path, instance_file):
    deep = tmp_path / "deep.yaml"
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    out = str(tmp_path / "out")
    for argv in (
        ["metrics", str(deep)],
        ["solve", str(deep), "--out", out],
        ["solve", str(instance_file), "--config", str(deep), "--out", out],
        ["gantt", str(deep), "--out", out],
    ):
        ran = _efjsp(*argv)
        assert ran.returncode == 1, (argv, ran.returncode)
        lines = ran.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, ran.stderr[-500:])
        assert "nested too deeply" in lines[0] and str(deep) in lines[0]


_RESULT_HEAD = "schema_version: 3\nkind: result\n"


@pytest.mark.parametrize(
    "command, body, message",
    [
        ("metrics", "", "archive must be a list"),
        ("gantt", "", "archive must be a list"),
        ("metrics", "archive: 5\n", "archive must be a list"),
        ("gantt", "archive: 5\n", "archive must be a list"),
        ("metrics", "archive: []\n", "empty archive"),
        ("gantt", "archive: []\n", "empty archive"),
        ("metrics", "archive:\n- {cmax: 3}\n", "numeric tec"),
        ("gantt", "archive:\n- {cmax: 3}\n", "numeric tec"),
        ("metrics", "archive:\n- 7\n", "list of mappings"),
        ("metrics", "archive:\n- {cmax: true, tec: 1.5}\n", "integer cmax"),
        ("metrics", "archive:\n- {cmax: 3, tec: low}\n", "numeric tec"),
        ("metrics", "archive:\n- {cmax: 3, tec: .nan}\n", "finite numeric tec"),
        ("gantt", "archive:\n- {cmax: 3, tec: .nan}\n", "finite numeric tec"),
        ("metrics", "archive:\n- {cmax: 3, tec: .inf}\n", "finite numeric tec"),
        ("gantt", "archive:\n- {cmax: 3, tec: .inf}\n", "finite numeric tec"),
        ("metrics", "archive:\n- {cmax: 3, tec: -.inf}\n", "finite numeric tec"),
        ("gantt", "archive:\n- {cmax: 3, tec: -.inf}\n", "finite numeric tec"),
        ("metrics", "archive:\n- {cmax: -5, tec: 1.5}\n", "cmax must not be negative"),
        ("gantt", "archive:\n- {cmax: -5, tec: 1.5}\n", "cmax must not be negative"),
    ],
    ids=[
        "metrics-no-archive", "gantt-no-archive", "metrics-archive-5", "gantt-archive-5",
        "metrics-empty-archive", "gantt-empty-archive",
        "metrics-no-tec", "gantt-no-tec", "metrics-entry-7", "metrics-bool-cmax",
        "metrics-text-tec", "metrics-nan-tec", "gantt-nan-tec", "metrics-inf-tec",
        "gantt-inf-tec", "metrics-neg-inf-tec", "gantt-neg-inf-tec",
        "metrics-neg-cmax", "gantt-neg-cmax",
    ],
)
def test_result_documents_of_the_wrong_shape_fail_closed(tmp_path, capsys, command, body, message):
    result = tmp_path / "result.yaml"
    result.write_text(_RESULT_HEAD + body)
    prefix = tmp_path / "chart"
    extra = ["--out", str(prefix)] if command == "gantt" else []
    assert main([command, str(result), *extra]) == 1
    _assert_one_line_error(capsys, str(result), message)
    assert not list(tmp_path.glob("chart.*"))


def _assert_result_version_refused(tmp_path, instance_file, capsys, command, version):
    result = tmp_path / "result.yaml"
    assert _solve(instance_file, result) == 0
    doc = load_document(result.read_text())
    assert doc["schema_version"] == 3
    doc["schema_version"] = load_document(version)
    result.write_text(dump_document(doc))
    capsys.readouterr()
    prefix = tmp_path / "chart"
    extra = ["--out", str(prefix)] if command == "gantt" else []
    assert main([command, str(result), *extra]) == 1
    _assert_one_line_error(capsys, str(result), "unsupported result schema_version, expected 3")
    assert not list(tmp_path.glob("chart.*"))


@pytest.mark.parametrize("command", ["metrics", "gantt"])
@pytest.mark.parametrize("version", ["3.0", "2", "1"])
def test_result_schema_version_must_be_the_integer_3(tmp_path, instance_file, capsys, command, version):
    # version 2 results also stored each solution's energy parts, and version 1
    # every schedule row and priced interval
    _assert_result_version_refused(tmp_path, instance_file, capsys, command, version)


@pytest.mark.parametrize("command", ["metrics", "gantt"])
@pytest.mark.parametrize("version", ["true", "1.0"])
def test_result_schema_version_must_be_the_integer_1(tmp_path, instance_file, capsys, command, version):
    # `true` and `1.0` compare equal to the integer 1 of the old format; neither
    # may pass for a version, old or current
    _assert_result_version_refused(tmp_path, instance_file, capsys, command, version)


@pytest.mark.parametrize("command", ["metrics", "gantt"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(archives=[]), "unknown result keys: ['archives']"),
        (lambda d: d["archive"][0].update(tecc=1.0), "archive[0]: unknown solution keys: ['tecc']"),
        (lambda d: d["archive"][0].update(cmaxs=d["archive"][0].pop("cmax")),
         "archive[0]: unknown solution keys: ['cmaxs']"),
        (lambda d: d["archive"][0].update(energy={"tec": d["archive"][0]["tec"]}),
         "archive[0]: unknown solution keys: ['energy']"),
    ],
    ids=["top-level", "archive-entry", "archive-cmax", "archive-energy"],
)
def test_result_keys_no_command_reads_are_refused(tmp_path, instance_file, capsys, command, edit, message):
    result = tmp_path / "result.yaml"
    assert _solve(instance_file, result) == 0
    doc = load_document(result.read_text())
    edit(doc)
    result.write_text(dump_document(doc))
    capsys.readouterr()
    extra = ["--out", str(tmp_path / "chart")] if command == "gantt" else []
    assert main([command, str(result), *extra]) == 1
    _assert_one_line_error(capsys, f"{result}: {message}")
    assert not list(tmp_path.glob("chart.*"))


def test_result_blocks_no_command_reads_hold_any_keys(tmp_path, instance_file):
    # metrics and gantt read neither the config nor the trace, so their
    # keys are not checked
    result = tmp_path / "result.yaml"
    assert _solve(instance_file, result) == 0
    doc = load_document(result.read_text())
    doc["config"]["particles"] = 9
    doc["iterations"][0]["note"] = "x"
    result.write_text(dump_document(doc))
    assert main(["metrics", str(result), "--out", str(tmp_path / "report.yaml")]) == 0
    assert main(["gantt", str(result), "--out", str(tmp_path / "chart")]) == 0


def test_solve_refuses_an_instance_with_a_misspelt_turn_on(tmp_path, instance_file, capsys):
    # read as absent, `turnon` would power each machine up at switch[0][g]
    doc = load_document(instance_file.read_text())
    doc["machines"][1]["turnon"] = doc["machines"][1].pop("turn_on")
    instance_file.write_text(dump_document(doc))
    out = tmp_path / "result.yaml"
    assert main(["solve", str(instance_file), "--out", str(out)]) == 1
    _assert_one_line_error(capsys, f"{instance_file}: machines[1]: unknown machine keys: ['turnon']")
    assert not out.exists()


# an option row that is not three integers is named by its job and operation
_ROW_FIELD = "job 2 operation 1: options must be a list of [machine, gear, duration] rows"


def _document_of(kind, tmp_path, instance_file) -> dict:
    if kind == "instance":
        return load_document(instance_file.read_text())
    if kind == "config":
        return {"population": 6, "max_iter": 1}
    result = tmp_path / "solved.yaml"
    assert _solve(instance_file, result) == 0
    return load_document(result.read_text())


@pytest.mark.parametrize(
    "kind, edit, field",
    [
        ("instance", lambda d: d.pop("speed_count"), "speed_count"),
        ("instance", lambda d: d["jobs"][0].update(setup_time=True), "setup_time"),
        ("instance", lambda d: d["machines"][0].update(setup_power="high"), "setup_power"),
        ("instance", lambda d: d["machines"][0].update(standby_power=10**400), "standby_power"),
        ("instance", lambda d: d["jobs"][0].update(operations=5), "operations"),
        *(
            (
                "instance",
                lambda d, row=row: d["jobs"][1]["operations"][0]["options"].__setitem__(0, row),
                _ROW_FIELD,
            )
            for row in ([1, 1], [1, 1, 3, 4], [1, 1, 3.0], [1, True, 3], [1, 1, "3"],
                        {"machine": 1, "gear": 1, "duration": 3})
        ),
        # a config has no required key and no list-valued setting
        ("config", lambda d: d.update(population=True), "population"),
        ("config", lambda d: d.update(population=10**400), "population"),
        ("result", lambda d: d["archive"][0].pop("tec"), "tec"),
        ("result", lambda d: d["archive"][0].update(cmax=True), "cmax"),
        ("result", lambda d: d["archive"][0].update(tec="low"), "tec"),
        ("result", lambda d: d["archive"][0].update(tec=10**400), "tec"),
        ("result", lambda d: d.update(archive=5), "archive"),
        ("result", lambda d: d.pop("instance_sha256"), "instance_sha256"),
        ("result", lambda d: d.update(instance_sha256=7), "instance_sha256"),
    ],
    ids=[
        "instance-missing-key", "instance-true-int", "instance-text-number", "instance-10-400",
        "instance-non-list", "option-row-of-2", "option-row-of-4", "option-float", "option-true",
        "option-string", "option-mapping", "config-true-int", "config-10-400",
        "result-missing-key", "result-true-int", "result-text-number", "result-10-400",
        "result-non-list", "result-no-hash", "result-int-hash",
    ],
)
def test_every_document_kind_names_file_and_field_of_a_defect(
    tmp_path, instance_file, capsys, kind, edit, field
):
    doc = _document_of(kind, tmp_path, instance_file)
    edit(doc)
    broken = tmp_path / f"broken-{kind}.yaml"
    broken.write_text(dump_document(doc))
    out = tmp_path / "result.yaml"
    argv = {
        "instance": ["solve", str(broken), "--out", str(out)],
        "config": ["solve", str(instance_file), "--config", str(broken), "--out", str(out)],
        "result": ["metrics", str(broken)],
    }[kind]
    capsys.readouterr()
    assert main(argv) == 1
    _assert_one_line_error(capsys, str(broken), field)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["result", "metrics"])
def test_solve_refuses_a_document_of_another_kind(tmp_path, instance_file, capsys, kind):
    result = tmp_path / "result.yaml"
    assert _solve(instance_file, result) == 0
    wrong = result
    if kind == "metrics":
        wrong = tmp_path / "report.yaml"
        assert main(["metrics", str(result), "--out", str(wrong)]) == 0
    relabelled = tmp_path / "relabelled.yaml"
    doc = load_document(instance_file.read_text())
    doc["kind"] = kind
    relabelled.write_text(dump_document(doc))
    for path in (wrong, relabelled):
        capsys.readouterr()
        assert _solve(path, tmp_path / "out.yaml") == 1
        _assert_one_line_error(capsys, str(path), "not a document of kind 'instance'")


def test_metrics_refuses_results_of_different_instances(tmp_path, instance_file, capsys):
    other = tmp_path / "other"
    base = tmp_path / "other.txt"
    base.write_text(write_base(random_base(n_jobs=3, n_machines=2, seed=5)))
    assert main(["generate", str(base), "--out-dir", str(other)]) == 0
    a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
    assert _solve(instance_file, a) == 0 and _solve(other / "other.yaml", b) == 0
    report = tmp_path / "report.yaml"
    capsys.readouterr()
    assert main(["metrics", str(a), str(b), "--out", str(report)]) == 1
    _assert_one_line_error(capsys, str(b), "instance_sha256", str(a))
    assert not report.exists()


def test_gantt_outputs(tmp_path, instance_file):
    result = tmp_path / "result.yaml"
    _solve(instance_file, result)
    prefix = tmp_path / "chart"
    assert main(["gantt", str(result), "--solution", "0", "--out", str(prefix)]) == 0
    data = load_document((tmp_path / "chart.yaml").read_text())
    assert data["kind"] == "gantt"
    kinds = {row["kind"] for row in data["rows"]}
    assert kinds <= {"setup", "process", "idle", "standby"}
    assert "process" in kinds
    solution = load_document(result.read_text())["archive"][0]
    assert (data["cmax"], data["tec"]) == (solution["cmax"], solution["tec"])
    process_rows = [r for r in data["rows"] if r["kind"] == "process"]
    assert len(process_rows) == len(solution["os"])
    assert max(r["end"] for r in process_rows) == solution["cmax"]
    svg = (tmp_path / "chart.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_gantt_reads_the_instance_named_beside_the_result(tmp_path, instance_file, monkeypatch):
    runs = tmp_path / "runs"
    runs.mkdir()
    assert _solve(instance_file, runs / "r.yaml") == 0
    assert load_document((runs / "r.yaml").read_text())["instance"] == os.path.join("..", "tiny.yaml")
    moved = tmp_path / "moved"
    (moved / "runs").mkdir(parents=True)
    (moved / "runs" / "r.yaml").write_text((runs / "r.yaml").read_text())
    (moved / "tiny.yaml").write_text(instance_file.read_text())
    assert main(["gantt", str(runs / "r.yaml"), "--out", str(tmp_path / "chart")]) == 0
    monkeypatch.chdir(moved / "runs")
    assert main(["gantt", "r.yaml", "--out", "chart"]) == 0
    assert (moved / "runs" / "chart.svg").read_text() == (tmp_path / "chart.svg").read_text()


def test_gantt_reads_the_instance_through_a_linked_result_directory(tmp_path, instance_file):
    (tmp_path / "real" / "runs").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tmp_path / "real" / "runs")
    assert _solve(instance_file, tmp_path / "link" / "r.yaml") == 0
    assert main(["gantt", str(tmp_path / "link" / "r.yaml"), "--out", str(tmp_path / "chart")]) == 0


@pytest.mark.parametrize(
    "edit, code, message",
    [
        (lambda d, i: d.update(instance="gone.yaml"), 2, "No such file"),
        (lambda d, i: d.update(instance="/dev/zero"), 2, "not a regular file: '/dev/zero'"),
        (lambda d, i: d.update(instance="."), 2, "not a regular file"),
        (lambda d, i: d.pop("instance"), 1, "needs a string instance"),
        (lambda d, i: i.write_text(i.read_text() + "# edited\n"), 1, "is not the file solved: its sha256 differs"),
        (lambda d, i: d.pop("instance_sha256"), 1, "needs a string instance_sha256"),
        (lambda d, i: i.write_bytes(b"\xff\xfe"), 1, "cannot read its instance"),
        (lambda d, i: d["archive"][0].update(os=["1"] * len(d["archive"][0]["os"])), 1, "os: expected a list of integers"),
        (lambda d, i: d["archive"][0].update(mv=[1.0] * len(d["archive"][0]["mv"])), 1, "mv: expected a list of integers"),
        (lambda d, i: d["archive"][0].update(mv=5), 1, "mv: expected a list of integers"),
        (lambda d, i: d["archive"][0]["os"].pop(), 1, "os has"),
        (lambda d, i: d["archive"][0]["mv"].append(1), 1, "mv has"),
        (lambda d, i: d["archive"][0]["mv"].__setitem__(0, 99), 1, "column 99 out of range"),
        (lambda d, i: d["archive"][0].update(cmax=d["archive"][0]["cmax"] + 1), 1, "differ from the chromosome's"),
        (lambda d, i: d["archive"][0].update(tec=d["archive"][0]["tec"] * 2), 1, "differ from the chromosome's"),
    ],
    ids=[
        "missing-instance", "instance-dev-zero", "instance-directory", "no-instance", "edited-instance",
        "no-hash", "instance-not-utf8", "text-os", "float-mv", "mv-5", "short-os", "long-mv", "mv-column-99",
        "other-cmax", "other-tec",
    ],
)
def test_gantt_refuses_a_result_that_does_not_derive(tmp_path, instance_file, capsys, edit, code, message):
    result = tmp_path / "result.yaml"
    assert _solve(instance_file, result) == 0
    doc = load_document(result.read_text())
    edit(doc, instance_file)
    result.write_text(dump_document(doc))
    capsys.readouterr()
    assert main(["gantt", str(result), "--out", str(tmp_path / "chart")]) == code
    _assert_one_line_error(capsys, str(result), message)
    assert not list(tmp_path.glob("chart.*"))


def test_gantt_rejects_bad_index(tmp_path, instance_file, capsys):
    result = tmp_path / "result.yaml"
    _solve(instance_file, result)
    capsys.readouterr()
    code = main(["gantt", str(result), "--solution", "99", "--out", str(tmp_path / "x")])
    assert code == 1
    _assert_one_line_error(capsys, str(result), "out of range")


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o.yaml")])
    assert code == 2
    code = main(["metrics", str(tmp_path / "nope.yaml")])
    assert code == 2


def test_solve_on_a_directory_is_one_line_error(tmp_path, capsys):
    code = main(["solve", str(tmp_path), "--out", str(tmp_path / "o.yaml")])
    assert code == 2
    _assert_one_line_error(capsys, str(tmp_path))


@pytest.mark.parametrize("sub", ["", "sub"])
def test_generate_into_a_file_is_one_line_error(tmp_path, base_file, capsys, sub):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out_dir = blocker / sub if sub else blocker
    assert main(["generate", str(base_file), "--out-dir", str(out_dir)]) == 2
    _assert_one_line_error(capsys, str(blocker))


@pytest.mark.parametrize("target", ["missing/o.yaml", "."], ids=["missing-dir", "directory"])
def test_solve_refuses_an_unwritable_out_before_solving(tmp_path, instance_file, capsys, monkeypatch, target):
    def no_run(*args, **kwargs):
        raise AssertionError("run must not start")

    monkeypatch.setattr("efjsp.cli.run", no_run)
    out = tmp_path / target
    with pytest.raises(OSError) as writing:
        out.write_text("")
    assert _solve(instance_file, out) == 2
    assert capsys.readouterr().err == f"error: {writing.value}\n"


def test_solve_out_check_leaves_no_file_when_the_solve_fails(tmp_path, instance_file, monkeypatch):
    def failing_run(*args, **kwargs):
        raise ValueError("stop")

    monkeypatch.setattr("efjsp.cli.run", failing_run)
    fresh, kept = tmp_path / "fresh.yaml", tmp_path / "kept.yaml"
    kept.write_text("old result\n")
    assert _solve(instance_file, fresh) == 1 and _solve(instance_file, kept) == 1
    assert not fresh.exists() and kept.read_text() == "old result\n"


def test_solve_progress_streams_one_line_per_iteration(tmp_path, instance_file, capsys, monkeypatch):
    printed_during_run = []

    def watched_run(inst, cfg, on_iteration):
        def hook(stat):
            on_iteration(stat)
            printed_during_run.append(capsys.readouterr().out)

        return run(inst, cfg, hook)

    monkeypatch.setattr("efjsp.cli.run", watched_run)
    assert _solve(instance_file, tmp_path / "r.yaml", "--progress") == 0
    doc = load_document((tmp_path / "r.yaml").read_text())
    assert printed_during_run == [
        f"iter {s['iteration']}: best_cmax={s['best_cmax']} "
        f"best_tec={s['best_tec']:.4f} archive={len(s['archive'])}\n"
        for s in doc["iterations"]
    ]
    assert capsys.readouterr().out.startswith("archive ")


def test_pipeline_documents_take_the_json_path(tmp_path, base_file, monkeypatch):
    # every read path builds the same objects, so only a spy tells which one
    # read a document: json.loads counts only the texts it parsed
    from efjsp import documents

    reads = []
    real_loads, real_load = documents.json.loads, documents.yaml.load

    def json_loads(*args, **kw):
        data = real_loads(*args, **kw)
        reads.append("json")
        return data

    monkeypatch.setattr(documents.json, "loads", json_loads)
    monkeypatch.setattr(documents.yaml, "load", lambda *a, **kw: reads.append("safe_load") or real_load(*a, **kw))
    config = tmp_path / "solver.yaml"
    config.write_text("population: 6\nmax_iter: 1\narchive_capacity: 3\n")
    instance, runs = tmp_path / "tiny.yaml", [tmp_path / "r1.yaml", tmp_path / "r2.yaml"]
    assert main(["generate", str(base_file), "--out-dir", str(tmp_path)]) == 0
    for seed, out in enumerate(runs, start=1):
        argv = ["solve", str(instance), "--config", str(config), "--seed", str(seed)]
        assert main([*argv, "--out", str(out)]) == 0
    assert main(["metrics", *map(str, runs), "--out", str(tmp_path / "report.yaml")]) == 0
    assert main(["gantt", str(runs[0]), "--out", str(tmp_path / "chart")]) == 0
    # read: the 2 hand-written configs through the safe loader; the 2 instances,
    # 3 results and the charted result's instance, all written here, as JSON
    assert sorted(reads) == ["json"] * 6 + ["safe_load"] * 2
    # written: instance, 2 results, report, chart data, each a JSON text
    for path in (instance, *runs, tmp_path / "report.yaml", tmp_path / "chart.yaml"):
        assert real_loads(path.read_text()) == real_load(path.read_text(), Loader=yaml.SafeLoader)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
