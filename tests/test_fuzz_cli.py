"""The command line fails closed on every kind of input it reads.

A derandomized Hypothesis gate drives ``efjsp.cli.main`` with base text
for ``generate``, instance and ``--config`` YAML for ``solve``, result
documents for ``metrics`` and ``gantt``, and flag values.  Each example
starts from valid inputs and breaks one of them: nodes of a document are
deleted, duplicated or retyped, numbers become huge, negative,
fractional or non-finite, a config gains a setting that no longer
exists, text is cut short or made not UTF-8, and base tokens and lines
are dropped, repeated or replaced.  Or a second base file of the same
stem is given, or, with every file valid, the flags take such values.

Every call must return 0, 1 or 2 and raise nothing, and print at most
one stderr line, which starts with ``error:`` and, when a file was
broken, names that file.  Whenever ``solve`` succeeds, every archived
chromosome must decode to a schedule that ``validate_schedule`` accepts,
with the stored objectives finite and equal to ``evaluate``'s.
"""

from __future__ import annotations

import copy
import io
import math
import resource
import signal
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from efjsp.benchmark import extend_instance, random_base, read_instance, write_base, write_instance
from efjsp.cli import main
from efjsp.documents import dump_document, load_document
from efjsp.encoding import Chromosome, decode, evaluate
from efjsp.model import validate_schedule

NUMBERS = (
    -1, 0, 0.5, -2.5, 10**30, -(10**30), 2**53 + 1, 2**63,
    1e308, -1e308, math.inf, -math.inf, math.nan,
)
OTHERS = ("", "text", None, True, False, [], {}, [1, 2], {"a": 1})
REMOVED_SETTINGS = ("disable_vns", "scale_factor", "crossover_rate")
BASE_EDITS = {  # a base token's replacement
    "huge": lambda t, data: t + "0" * 30,
    "negative": lambda t, data: "-" + t,
    "fractional": lambda t, data: t + data.draw(st.sampled_from((".5", ".0"))),
    "non-finite": lambda t, data: data.draw(st.sampled_from(("inf", "nan", "1e400"))),
    "text": lambda t, data: data.draw(st.sampled_from(("x", "", "0x10", "1_0"))),
}
CONFIG = {"population": 4, "max_iter": 1, "vns_budget": 3, "archive_capacity": 3}
CALL_LIMIT_S = 5  # each call takes milliseconds on these inputs
CALL_MEMORY = 2**30
FLAG_VALUES = st.one_of(st.integers(-2, 8), st.sampled_from((10**30, -(10**30))))


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid inputs of every kind, and a result solved on the instance."""
    d = tmp_path_factory.mktemp("valid")
    base = random_base(3, 2, seed=7)
    instance = write_instance(extend_instance(base, seed=7))
    (d / "inst.yaml").write_text(instance)
    (d / "config.yaml").write_text(dump_document(CONFIG))
    argv = ["solve", str(d / "inst.yaml"), "--config", str(d / "config.yaml"), "--seed", "3"]
    assert main([*argv, "--out", str(d / "result.yaml")]) == 0
    return {
        "base": write_base(base),
        "instance": load_document(instance),
        "config": CONFIG,
        "result": load_document((d / "result.yaml").read_text()),
    }


def _paths(node, path=()):
    yield path
    children = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _mutate_document(data, doc, kind):
    """``doc`` with one to three nodes deleted, duplicated, retyped or renumbered."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        ops = ["delete", "duplicate", "retype", "number"]
        if kind == "config" and type(doc) is dict:
            ops.append("removed-setting")
        op = data.draw(st.sampled_from(ops))
        if op == "removed-setting":
            doc[data.draw(st.sampled_from(REMOVED_SETTINGS))] = data.draw(
                st.sampled_from((True, False, 0.5, *NUMBERS))
            )
            continue
        if not path:
            doc = None if op == "delete" else data.draw(st.sampled_from((*NUMBERS, *OTHERS)))
            continue
        *head, key = path
        parent = doc
        for step in head:
            parent = parent[step]
        if op == "delete":
            del parent[key]
        elif op == "duplicate" and type(parent) is list:
            parent.insert(key, copy.deepcopy(parent[key]))
        elif op == "duplicate":
            parent[f"{key}_"] = copy.deepcopy(parent[key])
        elif op == "retype":
            parent[key] = data.draw(st.sampled_from((*OTHERS, str(parent[key]))))
        else:
            parent[key] = data.draw(st.sampled_from(NUMBERS))
    return doc


def _mutate_base(data, text):
    """Base text with lines or tokens dropped or repeated, or tokens made
    huge, negative, fractional, non-finite or not numbers; the header line
    is picked about half the time."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        row = data.draw(st.one_of(st.just(0), st.integers(0, len(lines) - 1))) if lines else 0
        op = data.draw(st.sampled_from(("drop-line", "repeat-line", "drop", "repeat", *BASE_EDITS)))
        if op == "drop-line" and lines:
            del lines[row]
        elif op == "repeat-line" and lines:
            lines.insert(row, list(lines[row]))
        elif lines and lines[row]:
            col = data.draw(st.integers(0, len(lines[row]) - 1))
            if op == "drop":
                del lines[row][col]
            elif op == "repeat":
                lines[row].insert(col, lines[row][col])
            else:
                lines[row][col] = BASE_EDITS[op](lines[row][col], data)
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


def _file_bytes(data, text: str) -> bytes:
    """``text`` as UTF-8, sometimes cut short or made not UTF-8."""
    raw = text.encode()
    cut = data.draw(st.sampled_from(("whole",) * 6 + ("truncated", "not-utf8")))
    if cut == "truncated":
        return raw[: data.draw(st.integers(0, len(raw)))]
    if cut == "not-utf8":
        return b"\xff" + raw
    return raw


class _Overrun(Exception):
    """A call ran past ``CALL_LIMIT_S``: an input the program does not bound."""


def _overrun(signum, frame):
    raise _Overrun(f"a call ran past {CALL_LIMIT_S} s")


def _run(argv):
    """``main(argv)``'s exit status and stderr.  A call that runs past
    ``CALL_LIMIT_S`` raises ``_Overrun``, and one that maps more than
    ``CALL_MEMORY`` bytes beyond what the process holds raises MemoryError,
    so an input the program fails to bound fails the gate, not the host."""
    out, err = io.StringIO(), io.StringIO()
    limits = resource.getrlimit(resource.RLIMIT_AS)
    in_use = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    cap = in_use + CALL_MEMORY
    if limits[1] != resource.RLIM_INFINITY:
        cap = min(cap, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(CALL_LIMIT_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        resource.setrlimit(resource.RLIMIT_AS, limits)
    return code, err.getvalue()


def _check_solved(instance_path: Path, result_path: Path) -> None:
    inst = read_instance(instance_path.read_text(), str(instance_path))
    for entry in load_document(result_path.read_text())["archive"]:
        chrom = Chromosome(tuple(entry["os"]), tuple(entry["mv"]))
        report = validate_schedule(inst, decode(inst, chrom))
        assert report.ok, str(report)
        assert math.isfinite(entry["tec"]), entry["tec"]
        assert (entry["cmax"], entry["tec"]) == evaluate(inst, chrom)


@settings(
    max_examples=400, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_input_fails_closed(valid, data):
    command = data.draw(st.sampled_from(("generate", "solve", "metrics", "gantt")))
    inputs = {
        "generate": ("base", "flags", "stem"),
        "solve": ("instance", "config", "flags"),
        "metrics": ("result", "second-result"),
        "gantt": ("result", "flags"),
    }[command]
    broken = data.draw(st.sampled_from(inputs))
    flag = (lambda default: data.draw(FLAG_VALUES) if broken == "flags" else default)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        files = {}

        def write(name, kind, content):
            path = d / name
            if broken == kind:
                if kind == "base":
                    content = _mutate_base(data, content)
                else:
                    content = dump_document(_mutate_document(data, copy.deepcopy(content), kind))
                path.write_bytes(_file_bytes(data, content))
                files["broken"] = path
            else:
                path.write_text(content if type(content) is str else dump_document(content))
            return str(path)

        if command == "generate":
            bases = [write("base.txt", "base", valid["base"])]
            if broken == "stem":  # a second base of the same stem, from another directory
                (d / "again").mkdir()
                files["broken"] = d / "again" / "base.txt"
                files["broken"].write_text(valid["base"])
                bases.append(str(files["broken"]))
            argv = ["generate", *bases,
                    "--out-dir", str(d / "out"), "--seed", str(flag(0)), "--replicas", str(flag(1))]
        elif command == "solve":
            argv = ["solve", write("inst.yaml", "instance", valid["instance"]),
                    "--config", write("config.yaml", "config", valid["config"]),
                    "--seed", str(flag(1)), "--out", str(d / "out.yaml"),
                    # the flags override the config's sizes after it is checked, so a
                    # config that lost max_iter does not run the default 300 iterations
                    "--iters", str(flag(1)), "--pop", str(flag(4))]
            if broken == "flags":
                ablations = data.draw(st.lists(st.sampled_from(("nhi", "nde", "ncp"))))
                argv += [f"--ablate={a}" for a in ablations]
        else:
            write("inst.yaml", "instance", valid["instance"])  # the instance the result names
            argv = [command, write("result.yaml", "result", valid["result"])]
            if command == "metrics":
                argv.append(write("second.yaml", "second-result", valid["result"]))
            else:
                argv += ["--solution", str(flag(0)), "--out", str(d / "chart")]

        code, err = _run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        lines = err.splitlines()
        assert len(lines) <= 1, (argv, err)
        assert (code == 0) == (not lines), (argv, code, err)
        assert code == 1 or broken != "stem", (argv, code, err)
        if lines:
            assert lines[0].startswith("error: "), (argv, err)
            if "broken" in files:
                assert str(files["broken"]) in lines[0], (argv, err)
        elif command == "solve":
            _check_solved(d / "inst.yaml", d / "out.yaml")
