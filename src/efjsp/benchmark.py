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

Instances travel as documents (``efjsp.documents``: JSON text, which YAML
readers also read), each option a
``[machine, gear, duration]`` row and every real written at 17
significant digits, so a write/read round trip is lossless.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import starmap

from .documents import (
    DocumentError,
    dump_document,
    header,
    integer,
    items,
    load_document,  # re-exported: tests and the bench tracer name it here
    number,
    numbers,
    read_document,
    rows,
)
from .model import (
    JobSpec,
    Machine,
    OperationSpec,
    ProblemInstance,
    ProcessingOption,
    validate_instance,
)

SCHEMA_VERSION = 2  # 1 wrote each option as a {machine, gear, duration} mapping
OPTION_COLUMNS = ("machine", "gear", "duration")  # an option row's entries, in order
# The keys each level of an instance document may hold: what write_instance writes
INSTANCE_KEYS = frozenset(("schema_version", "kind", "speed_count", "jobs", "machines"))
JOB_KEYS = frozenset(("id", "setup_time", "operations"))
OPERATION_KEYS = frozenset(("options",))
MACHINE_KEYS = frozenset(
    ("id", "setup_power", "process_power", "idle_power", "standby_power", "turn_on", "switch")
)

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
MAX_MACHINES = 10_000  # a base header's machine count: the extension builds every machine


class ParseError(ValueError):
    """Raised on malformed base benchmark text, with a line number."""


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
    if n_machines > MAX_MACHINES:
        raise ParseError(f"line {header_no}: machine count must be at most {MAX_MACHINES:,}")
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


def write_instance(inst: ProblemInstance) -> str:
    """Serialise an instance to its document form.

    Each operation's options are its message matrix, one row
    ``[machine, gear, duration]`` per option in the operation's order;
    machines are mappings of their power tables.  ``read_instance`` reads
    the text back to an equal instance.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "instance",
        "speed_count": inst.speed_count,
        "jobs": [
            {
                "id": job.id,
                "setup_time": job.setup_time,
                "operations": [
                    {"options": [[opt.machine, opt.speed, opt.duration] for opt in op.options]}
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


def read_instance(text: str, where: str = "document") -> ProblemInstance:
    """Parse and validate an instance document; ``where`` (its file name)
    starts every error.

    The document must be of ``kind: instance`` at ``schema_version`` 2,
    each option a row of three integers ``[machine, gear, duration]``
    (version 1, which wrote options as mappings, is refused), and each
    level may hold only the keys ``write_instance`` writes (``turn_on``
    may be left out).  Raises DocumentError on a malformed document,
    naming the job and operation of a malformed option row or the place
    of an unknown key, and on an instance that
    ``validate_instance`` rejects, listing every violation."""
    data = header(read_document(text, where), where, "instance", SCHEMA_VERSION, INSTANCE_KEYS)
    s = integer(data.get("speed_count"), where, "speed_count")
    jobs = []
    for jdoc in items(data.get("jobs"), where, "jobs", "job", JOB_KEYS, ("id",)):
        label = f"{where}: job {jdoc['id']}"
        setup_time = integer(jdoc.get("setup_time"), label, "setup_time")
        ops = []
        odocs = items(jdoc.get("operations"), label, "operations", "operation", OPERATION_KEYS)
        for o, odoc in enumerate(odocs, start=1):
            optrows = rows(odoc.get("options"), f"{label} operation {o}", "options", OPTION_COLUMNS)
            ops.append(OperationSpec(tuple(starmap(ProcessingOption, optrows))))
        jobs.append(JobSpec(jdoc["id"], setup_time, tuple(ops)))

    machines = []
    for mdoc in items(data.get("machines"), where, "machines", "machine", MACHINE_KEYS, ("id",)):
        label = f"{where}: machine {mdoc['id']}"
        switch = items(mdoc.get("switch"), label, "switch")
        machines.append(
            Machine(
                id=mdoc["id"],
                process_power=numbers(mdoc.get("process_power"), label, "process_power"),
                idle_power=numbers(mdoc.get("idle_power"), label, "idle_power"),
                switch=tuple(numbers(row, label, "switch") for row in switch),
                setup_power=number(mdoc.get("setup_power"), label, "setup_power"),
                standby_power=number(mdoc.get("standby_power"), label, "standby_power"),
                turn_on=numbers(mdoc["turn_on"], label, "turn_on") if "turn_on" in mdoc else None,
            )
        )
    inst = ProblemInstance(
        jobs=tuple(jobs), machines=tuple(machines), speed_count=s
    )
    return require_valid(inst, where)


def require_valid(inst: ProblemInstance, where: str) -> ProblemInstance:
    """``inst`` itself, or DocumentError listing every violation
    ``validate_instance`` finds, after ``where``."""
    report = validate_instance(inst)
    if not report.ok:
        raise DocumentError(
            f"{where}: invalid instance: " + "; ".join(report.errors + report.violations)
        )
    return inst
