"""The benchmark's workloads: seeded inputs, one task, output checks.

Every workload makes its inputs from the workload seed alone and hands
the program nothing else.  A task is one unit a user would wait for: a
command-line pipeline around two solves, or an exact front enumeration.  The
checks after each task feed the run's attempted/failed counts.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

from efjsp.benchmark import (
    extend_instance,
    parse_base,
    random_base,
    read_instance,
    write_base,
    write_instance,
)
from efjsp.cli import HV_REFERENCE, main as cli_main
from efjsp.encoding import Chromosome, build_message_matrix, decode, evaluate, random_chromosome
from efjsp.metrics import hv
from efjsp.model import ProblemInstance, validate_schedule
from efjsp.oracle import cross_check, enumerate_front
from efjsp.sample import sample_instance

SAMPLE_FRONT = [(16, 748.0), (22, 744.0)]

# Every job gets five operations, so that all workload seeds give
# chromosomes of one length and differ only in their data.
OPS_PER_JOB = (5, 5)

_FAST_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class Checks:
    """Output checks of one run: how many were made, which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def solver_seed(seed: int, k: int) -> int:
    """The k-th solver seed of a run with workload seed ``seed``."""
    return 1000 * seed + k + 1


def objective_box(inst: ProblemInstance) -> tuple[tuple[float, float], tuple[float, float]]:
    """Normalisation box for hypervolume, from the instance alone.

    Lower corner: the longest job (its setup plus every operation at its
    fastest option) and the processing energy of every operation at its
    cheapest option, bounds that no schedule beats.  Upper corner: the
    worst makespan and the worst energy among twenty random chromosomes
    drawn with a fixed seed, i.e. what no search at all achieves.
    """
    lo_c = max(
        job.setup_time + sum(min(o.duration for o in op.options) for op in job.operations)
        for job in inst.jobs
    )
    lo_e = sum(
        min(inst.machine(o.machine).process_power[o.speed - 1] * o.duration for o in op.options)
        for job in inst.jobs
        for op in job.operations
    )
    matrices = build_message_matrix(inst)
    rng = random.Random(0)
    points = [evaluate(inst, random_chromosome(inst, rng), matrices) for _ in range(20)]
    hi_c = max(max(c for c, _ in points), lo_c + 1)
    hi_e = max(max(e for _, e in points), lo_e + 1.0)
    return (lo_c, hi_c), (lo_e, hi_e)


def box_hv(front: list[tuple[int, float]], box) -> float:
    """Hypervolume of a front normalised over ``box``, reference (1.1, 1.1).

    Points outside the reference box add nothing, as in the usual
    definition; ``efjsp.metrics.hv`` refuses them, so they are dropped.
    """
    (lo_c, hi_c), (lo_e, hi_e) = box
    pts = [((c - lo_c) / (hi_c - lo_c), (e - lo_e) / (hi_e - lo_e)) for c, e in front]
    pts = [p for p in pts if p[0] < HV_REFERENCE[0] and p[1] < HV_REFERENCE[1]]
    return hv(pts, HV_REFERENCE) if pts else 0.0


def check_solutions(
    inst: ProblemInstance,
    solutions: list[tuple[Chromosome, tuple[int, float]]],
    checks: Checks,
    label: str,
) -> None:
    """Every archived solution decodes to a valid schedule, and both
    energy routes agree with each other and with the stored objectives."""
    for idx, (chrom, objectives) in enumerate(solutions):
        sched = decode(inst, chrom)
        report = validate_schedule(inst, sched)
        checks.expect(report.ok, f"{label} solution {idx}: invalid schedule: {report}")
        checks.expect(
            cross_check(inst, chrom) and evaluate(inst, chrom) == tuple(objectives),
            f"{label} solution {idx}: energy routes or stored objectives disagree",
        )


@dataclass
class InstanceState:
    inst: ProblemInstance
    shape: str


@dataclass
class CliState:
    inst: ProblemInstance
    instance_text: str
    base_path: Path
    workdir: Path
    shape: str


@dataclass(frozen=True)
class CliWorkload:
    """``efjsp.cli.main``: generate, two solves, metrics and gantt.

    Task k solves with solver seeds ``solver_seed(seed, 2k)`` and
    ``solver_seed(seed, 2k + 1)``.
    """

    name: str
    jobs: int
    machines: int
    population: int
    max_iter: int
    archive_capacity: int
    solver_seeds: int
    setup_reps: int

    def setup(self, seed: int, workdir: Path, checks: Checks | None = None) -> CliState:
        base = random_base(self.jobs, self.machines, seed=seed, ops_per_job=OPS_PER_JOB)
        base_text = write_base(base)
        inst0 = extend_instance(parse_base(base_text), seed=seed)
        text = write_instance(inst0)
        inst = read_instance(text)
        build_message_matrix(inst)
        base_path = workdir / "base.txt"
        base_path.write_text(base_text)
        solver = {
            "population": self.population,
            "max_iter": self.max_iter,
            "archive_capacity": self.archive_capacity,
        }
        (workdir / "solver.yaml").write_text(yaml.safe_dump(solver))
        if checks is not None:
            checks.expect(inst == inst0, "instance YAML round trip is not lossless")
        shape = f"{self.jobs} jobs x {self.machines} machines, {inst.total_operations} operations"
        return CliState(inst, text, base_path, workdir, shape)

    def task(self, state: CliState, seed: int, k: int):
        d = state.workdir
        inst_path = d / "base.yaml"
        seeds = (solver_seed(seed, 2 * k), solver_seed(seed, 2 * k + 1))
        results = [d / f"run-{s}.yaml" for s in seeds]
        report = d / "report.yaml"
        calls = [["generate", str(state.base_path), "--seed", str(seed), "--out-dir", str(d)]]
        for s, out in zip(seeds, results):
            calls.append(
                [
                    "solve", str(inst_path),
                    "--config", str(d / "solver.yaml"),
                    "--seed", str(s),
                    "--threads", "1",
                    "--out", str(out),
                ]
            )
        calls.append(["metrics", *map(str, results), "--out", str(report)])
        calls.append(["gantt", str(results[0]), "--solution", "0", "--out", str(d / "gantt")])
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in calls:
                codes.append((argv[0], cli_main(argv)))
        return codes, inst_path, results, report

    def check(self, state: CliState, seed: int, k: int, output, checks: Checks, full: bool):
        codes, inst_path, results, report_path = output
        for command, code in codes:
            checks.expect(code == 0, f"efjsp {command} exited {code}")
        if any(code != 0 for _, code in codes):
            return None, []
        report = yaml.load(report_path.read_text(), Loader=_FAST_LOADER)
        listed = [row["file"] for row in report["results"]]
        checks.expect(listed == [str(p) for p in results], "metrics report does not list every result")
        fronts = []
        for path in results:
            doc = yaml.load(path.read_text(), Loader=_FAST_LOADER)
            archive = doc["archive"]
            fronts.append([(e["cmax"], e["tec"]) for e in archive])
            if full:
                check_solutions(
                    state.inst,
                    [(Chromosome(tuple(e["os"]), tuple(e["mv"])), (e["cmax"], e["tec"])) for e in archive],
                    checks,
                    path.name,
                )
        if full:
            checks.expect(inst_path.read_text() == state.instance_text, "generate wrote another instance")
            checks.expect(
                (state.workdir / "gantt.yaml").is_file() and (state.workdir / "gantt.svg").is_file(),
                "gantt wrote no chart",
            )
        key = (
            tuple(tuple(f) for f in fronts),
            tuple((row["igd"], row["hv"]) for row in report["results"]),
            tuple(map(tuple, report["c_metric"])),
        )
        return key, fronts

    def describe(self) -> str:
        return (
            f"generate, 2 x solve (population {self.population}, {self.max_iter} "
            f"iteration(s), vns on, archive {self.archive_capacity}, "
            f"threads 1), metrics, gantt; "
            f"{self.solver_seeds} tasks of 2 solver seeds"
        )


@dataclass(frozen=True)
class OracleWorkload:
    """``enumerate_front`` on the two-job sample instance."""

    name: str
    solver_seeds: int
    setup_reps: int

    def setup(self, seed: int, workdir: Path, checks: Checks | None = None) -> InstanceState:
        inst = sample_instance()
        build_message_matrix(inst)
        return InstanceState(inst, f"sample instance, {inst.total_operations} operations")

    def task(self, state: InstanceState, seed: int, k: int):
        return enumerate_front(state.inst)

    def check(self, state: InstanceState, seed: int, k: int, front, checks: Checks, full: bool):
        points = list(front.points)
        checks.expect(points == SAMPLE_FRONT, f"sample front {points}, expected {SAMPLE_FRONT}")
        if full:
            check_solutions(state.inst, list(zip(front.witnesses, points)), checks, "witness")
        return tuple(points), [points]

    def describe(self) -> str:
        return "exhaustive enumeration, 43,740 chromosomes"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's population with VNS at its default budget, one
        # iteration per solve; the archive of 3 keeps the result documents
        # about the same size for every seed.
        CliWorkload(
            name="cli-pipeline",
            jobs=20,
            machines=10,
            population=30,
            max_iter=1,
            archive_capacity=3,
            solver_seeds=6,
            setup_reps=2,
        ),
        OracleWorkload(name="oracle-sample", solver_seeds=1, setup_reps=5),
    )
}
