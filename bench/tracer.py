"""Spans around the public functions of each efjsp module, from outside.

The tracer replaces a function by a timing wrapper everywhere the package
or the benchmark's workloads hold a reference to it: in its defining
module and under every name that another module imported
(``efjsp.energy.process_rows``, ``efjsp.local_search.evaluate``,
``efjsp.cli.run``, ``workloads.run`` ...).  Spans are kept
in memory as plain lists and turned into per-layer metrics, or written
out, when the run ends.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

from efjsp.optimizer import dominates

# (module, attribute, span name).  An attribute "Class.method" patches the
# method on the class.
SPANS = (
    ("efjsp.encoding", "decode", "decode"),
    ("efjsp.encoding", "evaluate", "evaluate"),
    ("efjsp.energy", "total_energy", "total_energy"),
    ("efjsp.model", "validate_schedule", "validate_schedule"),
    ("efjsp.local_search", "vns", "vns"),
    ("efjsp.local_search", "critical_path", "critical_path"),
    ("efjsp.optimizer", "run", "run"),
    ("efjsp.optimizer", "initialize_population", "init"),
    ("efjsp.optimizer", "ParetoArchive.add", "archive_add"),
    ("efjsp.benchmark", "read_instance", "read_instance"),
    ("efjsp.benchmark", "write_instance", "write_instance"),
    ("efjsp.benchmark", "load_document", "load_document"),
    ("efjsp.benchmark", "dump_document", "dump_document"),
    ("efjsp.cli", "cmd_generate", "cli_generate"),
    ("efjsp.cli", "cmd_solve", "cli_solve"),
    ("efjsp.cli", "cmd_metrics", "cli_metrics"),
    ("efjsp.cli", "cmd_gantt", "cli_gantt"),
    ("efjsp.metrics", "hv", "metric"),
    ("efjsp.metrics", "igd", "metric"),
    ("efjsp.metrics", "c_metric", "metric"),
    ("efjsp.metrics", "normalize", "metric"),
    ("efjsp.oracle", "enumerate_front", "enumerate_front"),
    ("efjsp.oracle", "independent_objectives", "independent_objectives"),
)

# Row scans of the schedule table: counted, not timed, because they run
# about a hundred times per evaluation.
SCANS = (
    ("efjsp.model", "process_rows"),
    ("efjsp.model", "setup_rows"),
    ("efjsp.model", "idle_intervals"),
    ("efjsp.model", "continuous_pairs"),
)

COUNTED = (("efjsp.optimizer", "select", "select"),)

# modules outside efjsp.* whose imported names are patched too
CALLERS = ("efjsp", "workloads")


def _select_accepted(args, result) -> bool:
    return result is args[1]


def _archive_accepted(args, result) -> bool:
    return bool(result)


def _vns_outcome(args, result):
    # objectives of the start point and of every neighbour evaluated;
    # replayed after the run to count improving moves
    return args[1], [obj for _, obj in result[2]]


def _doc_bytes(args, result) -> int:
    return len(result.encode())


OUTCOMES = {
    "select": _select_accepted,
    "archive_add": _archive_accepted,
    "vns": _vns_outcome,
    "dump_document": _doc_bytes,
}

# span record fields
NAME, START, END, PARENT, PHASE, SCANS_SEEN, OUTCOME = range(7)


class Tracer:
    """In-memory span recorder for one pass of a workload.

    ``phase`` tags every span opened while it is set ("setup", "task" or
    "check"), so that output checks do not count as solver work.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "task"
        self.scans = 0
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        tracer = self
        clock = time.perf_counter_ns
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.phase, tracer.scans, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                rec[SCANS_SEEN] = tracer.scans - rec[SCANS_SEEN]
            if outcome is not None:
                rec[OUTCOME] = outcome(args, result)
            return result

        return wrapper

    def _scan(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.scans += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        tracer = self
        outcome = OUTCOMES[name]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] = counts.get(name, 0) + 1
            if outcome(args, result):
                counts[name + ".accepted"] = counts.get(name + ".accepted", 0) + 1
            return result

        return wrapper

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, n=name: self._span(n, fn))
        for module, attr in SCANS:
            self._patch(module, attr, self._scan)
        for module, attr, name in COUNTED:
            self._patch(module, attr, lambda fn, n=name: self._counted(n, fn))
        return self

    def _patch(self, module: str, attr: str, make) -> None:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name in CALLERS or mod_name.startswith("efjsp.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> list[list]:
        """Spans as JSON-ready rows: name, start ns, end ns, parent, phase."""
        return [rec[:PHASE + 1] for rec in self.spans]


def high_percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile, or None when fewer than ten samples lie
    beyond it."""
    n = len(values)
    rank = math.ceil(q * n - 1e-9)
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


class _Samples:
    """Derived per-layer quantities of one traced pass."""

    def __init__(self, tr: Tracer) -> None:
        spans = tr.spans
        self.by_phase: dict[tuple[str, str], list[float]] = {}
        children: dict[int, list[int]] = {}
        for i, rec in enumerate(spans):
            d = (rec[END] - rec[START]) / 1e9
            self.by_phase.setdefault((rec[NAME], rec[PHASE]), []).append(d)
            if rec[PARENT] >= 0:
                children.setdefault(rec[PARENT], []).append(i)

        def name_of(i: int) -> str:
            return spans[i][NAME] if i >= 0 else ""

        def dur(i: int) -> float:
            return (spans[i][END] - spans[i][START]) / 1e9

        task = [i for i, rec in enumerate(spans) if rec[PHASE] == "task"]
        evals = [i for i in task if spans[i][NAME] == "evaluate"]
        self.evals = len(evals)
        self.eval_sources = {"init": 0, "swarm": 0, "vns": 0}
        source = {"init": "init", "run": "swarm", "vns": "vns"}
        for i in evals:
            key = source.get(name_of(spans[i][PARENT]))
            if key is not None:
                self.eval_sources[key] += 1
        self.eval_time = sum(dur(i) for i in evals)
        self.scans_in_eval = sum(spans[i][SCANS_SEEN] for i in evals)
        self.energy_in_eval = sum(
            dur(c) for i in evals for c in children.get(i, ()) if spans[c][NAME] == "total_energy"
        )

        vns_calls = [i for i in task if spans[i][NAME] == "vns"]
        self.vns_calls = len(vns_calls)
        self.vns_self = []
        self.vns_evals = 0
        self.vns_visited = 0
        self.vns_accepts = 0
        for i in vns_calls:
            kids = [c for c in children.get(i, ()) if spans[c][NAME] == "evaluate"]
            self.vns_evals += len(kids)
            self.vns_self.append(dur(i) - sum(dur(c) for c in kids))
            start_obj, visited = spans[i][OUTCOME]
            self.vns_visited += len(visited)
            current = start_obj
            for obj in visited:
                if dominates(obj, current):
                    current = obj
                    self.vns_accepts += 1
        self.vns_time = sum(dur(i) for i in vns_calls)

        runs = [i for i in task if spans[i][NAME] == "run"]
        self.run_time = sum(dur(i) for i in runs)
        self.run_self = []
        for i in runs:
            inner = 0.0
            for c in children.get(i, ()):
                name = spans[c][NAME]
                if name in ("evaluate", "vns"):
                    inner += dur(c)
                elif name == "init":
                    inner += sum(
                        dur(g) for g in children.get(c, ()) if spans[g][NAME] == "evaluate"
                    )
            self.run_self.append(dur(i) - inner)

        adds = [i for i in task if spans[i][NAME] == "archive_add"]
        self.archive_adds = len(adds)
        self.archive_inserts = sum(1 for i in adds if spans[i][OUTCOME])
        self.select_calls = tr.counts.get("select", 0)
        self.select_accepts = tr.counts.get("select.accepted", 0)

        self.cli_solve_io = []
        for i in task:
            if spans[i][NAME] == "cli_solve":
                runs_in = sum(dur(c) for c in children.get(i, ()) if spans[c][NAME] == "run")
                self.cli_solve_io.append(dur(i) - runs_in)
        self.metric_time = sum(
            dur(i) for i in task if spans[i][NAME] == "metric" and name_of(spans[i][PARENT]) != "metric"
        )

        fronts = [i for i in task if spans[i][NAME] == "enumerate_front"]
        self.enum_time = sum(dur(i) for i in fronts)
        enum_decodes = [
            c for i in fronts for c in children.get(i, ()) if spans[c][NAME] == "decode"
        ]
        self.enum_chromosomes = len(enum_decodes)
        self.enum_decode_time = sum(dur(c) for c in enum_decodes)
        self.doc_bytes = [rec[OUTCOME] for rec in spans if rec[NAME] == "dump_document"]

    def task(self, name: str) -> list[float]:
        return self.by_phase.get((name, "task"), [])

    def any_phase(self, name: str) -> list[float]:
        return [d for (n, _), ds in self.by_phase.items() if n == name for d in ds]

    def deterministic_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same seed."""
        return {
            "evals.init": self.eval_sources["init"],
            "evals.swarm": self.eval_sources["swarm"],
            "evals.vns": self.eval_sources["vns"],
            "decode.calls": len(self.task("decode")),
            "vns.accepts": self.vns_accepts,
            "archive.inserts": self.archive_inserts,
            "select.accepts": self.select_accepts,
            "oracle.chromosomes": self.enum_chromosomes,
        }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "encoding.evaluate.calls": "count",
    "encoding.evaluate.us.p50": "us",
    "encoding.evaluate.us.p99": "us",
    "encoding.decode.calls": "count",
    "encoding.decode.us.p50": "us",
    "encoding.decode.us.p99": "us",
    "energy.total_energy.calls": "count",
    "energy.total_energy.us.p50": "us",
    "energy.total_energy.us.p99": "us",
    "energy.share_of_evaluate": "ratio",
    "model.scans_per_eval": "count",
    "model.validate_schedule.ms.p50": "ms",
    "local_search.vns.calls": "count",
    "local_search.vns.ms.p50": "ms",
    "local_search.vns.evals_per_call": "count",
    "local_search.vns.accept_ratio": "ratio",
    "local_search.vns.self_ms.p50": "ms",
    "local_search.vns.share_of_run": "ratio",
    "local_search.critical_path.us.p50": "us",
    "optimizer.evals.init": "count",
    "optimizer.evals.swarm": "count",
    "optimizer.evals.vns": "count",
    "optimizer.select.accept_ratio": "ratio",
    "optimizer.archive.add.calls": "count",
    "optimizer.archive.add.accept_ratio": "ratio",
    "optimizer.archive.add.us.p50": "us",
    "optimizer.run.self_s": "s",
    "benchmark.read_instance.ms": "ms",
    "benchmark.write_instance.ms": "ms",
    "benchmark.load_document.ms.p50": "ms",
    "benchmark.dump_document.ms.p50": "ms",
    "benchmark.doc_bytes": "bytes",
    "cli.generate.s": "s",
    "cli.solve.s": "s",
    "cli.solve.io_s": "s",
    "cli.metrics.s": "s",
    "cli.gantt.s": "s",
    "metrics.s": "s",
    "oracle.enumerate_front.s": "s",
    "oracle.chromosomes_per_s": "1/s",
    "oracle.decode_share": "ratio",
    "oracle.independent_objectives.us.p50": "us",
    "trace.overhead_s": "s",
}


def layer_metrics(passes: list[Tracer], tasks_per_pass: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics pooled over traced passes, plus notes.

    Counts come from the first pass (the passes must agree on them);
    timing distributions pool every pass.  A value of 0 means the layer
    did not run on this workload, or, for a p99, that fewer than ten
    samples lie beyond it; each such p99 gets a note.
    """
    samples = [_Samples(tr) for tr in passes]
    first = samples[0]
    notes: list[str] = []

    def pooled(get) -> list[float]:
        return [v for s in samples for v in get(s)]

    def p99_us(name: str, values: list[float]) -> float:
        value = high_percentile(values, 0.99)
        if value is None:
            if values:
                notes.append(f"{name}: {len(values)} samples, a p99 needs 1000")
            return 0.0
        return value * 1e6

    evaluate = pooled(lambda s: s.task("evaluate"))
    decode = pooled(lambda s: s.task("decode"))
    energy = pooled(lambda s: s.task("total_energy"))
    eval_time = sum(s.eval_time for s in samples)
    run_time = sum(s.run_time for s in samples)
    enum_time = sum(s.enum_time for s in samples)
    n_tasks = tasks_per_pass * len(samples)
    out = {
        "encoding.evaluate.calls": first.evals,
        "encoding.evaluate.us.p50": _median(evaluate) * 1e6,
        "encoding.evaluate.us.p99": p99_us("encoding.evaluate.us.p99", evaluate),
        "encoding.decode.calls": len(first.task("decode")),
        "encoding.decode.us.p50": _median(decode) * 1e6,
        "encoding.decode.us.p99": p99_us("encoding.decode.us.p99", decode),
        "energy.total_energy.calls": len(first.task("total_energy")),
        "energy.total_energy.us.p50": _median(energy) * 1e6,
        "energy.total_energy.us.p99": p99_us("energy.total_energy.us.p99", energy),
        "energy.share_of_evaluate": _ratio(sum(s.energy_in_eval for s in samples), eval_time),
        "model.scans_per_eval": _ratio(first.scans_in_eval, first.evals),
        "model.validate_schedule.ms.p50": _median(
            pooled(lambda s: s.by_phase.get(("validate_schedule", "check"), []))
        ) * 1e3,
        "local_search.vns.calls": first.vns_calls,
        "local_search.vns.ms.p50": _median(pooled(lambda s: s.task("vns"))) * 1e3,
        "local_search.vns.evals_per_call": _ratio(first.vns_evals, first.vns_calls),
        "local_search.vns.accept_ratio": _ratio(first.vns_accepts, first.vns_visited),
        "local_search.vns.self_ms.p50": _median(pooled(lambda s: s.vns_self)) * 1e3,
        "local_search.vns.share_of_run": _ratio(sum(s.vns_time for s in samples), run_time),
        "local_search.critical_path.us.p50": _median(pooled(lambda s: s.task("critical_path"))) * 1e6,
        "optimizer.evals.init": first.eval_sources["init"],
        "optimizer.evals.swarm": first.eval_sources["swarm"],
        "optimizer.evals.vns": first.eval_sources["vns"],
        "optimizer.select.accept_ratio": _ratio(first.select_accepts, first.select_calls),
        "optimizer.archive.add.calls": first.archive_adds,
        "optimizer.archive.add.accept_ratio": _ratio(first.archive_inserts, first.archive_adds),
        "optimizer.archive.add.us.p50": _median(pooled(lambda s: s.task("archive_add"))) * 1e6,
        "optimizer.run.self_s": _median(pooled(lambda s: s.run_self)),
        "benchmark.read_instance.ms": _median(pooled(lambda s: s.any_phase("read_instance"))) * 1e3,
        "benchmark.write_instance.ms": _median(pooled(lambda s: s.any_phase("write_instance"))) * 1e3,
        "benchmark.load_document.ms.p50": _median(pooled(lambda s: s.any_phase("load_document"))) * 1e3,
        "benchmark.dump_document.ms.p50": _median(pooled(lambda s: s.any_phase("dump_document"))) * 1e3,
        "benchmark.doc_bytes": _median(pooled(lambda s: s.doc_bytes)),
        "cli.generate.s": _median(pooled(lambda s: s.task("cli_generate"))),
        "cli.solve.s": _median(pooled(lambda s: s.task("cli_solve"))),
        "cli.solve.io_s": _median(pooled(lambda s: s.cli_solve_io)),
        "cli.metrics.s": _median(pooled(lambda s: s.task("cli_metrics"))),
        "cli.gantt.s": _median(pooled(lambda s: s.task("cli_gantt"))),
        "metrics.s": _ratio(sum(s.metric_time for s in samples), n_tasks),
        "oracle.enumerate_front.s": _median(pooled(lambda s: s.task("enumerate_front"))),
        "oracle.chromosomes_per_s": _ratio(sum(s.enum_chromosomes for s in samples), enum_time),
        "oracle.decode_share": _ratio(sum(s.enum_decode_time for s in samples), enum_time),
        "oracle.independent_objectives.us.p50": _median(
            pooled(lambda s: s.task("independent_objectives"))
        ) * 1e6,
    }
    return out, notes


def deterministic_counts(tr: Tracer) -> dict[str, int]:
    return _Samples(tr).deterministic_counts()
