"""End-to-end command line flows on a small generated instance."""

from __future__ import annotations

import pytest

from efjsp.benchmark import dump_document, load_document, random_base, read_instance, write_base
from efjsp.cli import main
from efjsp.model import validate_instance


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


def test_solve_writes_result_document(tmp_path, instance_file):
    out = tmp_path / "result.yaml"
    assert _solve(instance_file, out) == 0
    doc = load_document(out.read_text())
    assert doc["kind"] == "result"
    assert doc["config"]["population"] == 8
    assert len(doc["iterations"]) == 4
    assert doc["archive"]
    entry = doc["archive"][0]
    assert set(entry) == {"cmax", "tec", "os", "mv", "energy", "schedule"}
    parts = entry["energy"]
    total = (
        parts["turn_on"] + parts["transition"] + parts["setup"]
        + parts["process"] + parts["interval"]
    )
    assert abs(total - parts["tec"]) < 1e-9


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


def _assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
    for fragment in fragments:
        assert fragment in err


def _option(doc):
    return doc["jobs"][0]["operations"][0]["options"][0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _option(doc).update(machine=9), "unknown machine 9"),
        (lambda doc: doc["jobs"][-1].update(id=len(doc["jobs"]) + 1), "job ids must be contiguous"),
        (lambda doc: _option(doc).update(duration=0), "non-positive duration"),
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


def test_solve_refuses_malformed_yaml(tmp_path, instance_file, capsys):
    broken = tmp_path / "broken.yaml"
    broken.write_text(instance_file.read_text() + "jobs: [unclosed\n")
    out = tmp_path / "result.yaml"
    assert _solve(broken, out) == 1
    _assert_one_line_error(capsys, "malformed YAML", "line ")
    assert not out.exists()


@pytest.mark.parametrize("setting", ["population: abc", "vns_budget: true", "- 30"])
def test_solve_refuses_mistyped_config(tmp_path, instance_file, capsys, setting):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(setting + "\n")
    out = tmp_path / "result.yaml"
    code = main(["solve", str(instance_file), "--config", str(cfg), "--out", str(out)])
    assert code == 1
    _assert_one_line_error(capsys, str(cfg))
    assert not out.exists()


def test_solve_ablation_flags_recorded(tmp_path, instance_file):
    out = tmp_path / "result.yaml"
    assert _solve(instance_file, out, "--ablate", "nde", "--ablate", "ncp") == 0
    doc = load_document(out.read_text())
    assert doc["config"]["disable_de"] is True
    assert doc["config"]["disable_vns"] is True
    assert doc["config"]["disable_hybrid_init"] is False


def test_env_var_sets_default_threads(tmp_path, instance_file, monkeypatch):
    monkeypatch.setenv("EFJSP_THREADS", "3")
    out = tmp_path / "result.yaml"
    assert _solve(instance_file, out) == 0
    doc = load_document(out.read_text())
    assert doc["config"]["threads"] == 3


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
    process_rows = [r for r in data["rows"] if r["kind"] == "process"]
    assert len(process_rows) == len(
        [r for r in solution["schedule"] if r["op"] != 0]
    )
    svg = (tmp_path / "chart.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_gantt_rejects_bad_index(tmp_path, instance_file, capsys):
    result = tmp_path / "result.yaml"
    _solve(instance_file, result)
    code = main(["gantt", str(result), "--solution", "99", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o.yaml")])
    assert code == 2
    code = main(["metrics", str(tmp_path / "nope.yaml")])
    assert code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
