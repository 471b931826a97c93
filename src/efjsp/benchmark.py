"""Benchmark handling: classic flexible-job-shop files, the multi-state
extension generator, and instance (de)serialisation.

Base files use the common text layout: a header line ``jobs machines``
(a third average-flexibility number is tolerated and ignored), then one
line per job starting with its operation count, followed for each
operation by the number of alternatives and (machine, duration) pairs
with 1-based machine ids.

The extension turns every base duration d into per-gear durations
(3d, 2d, d by default), and draws setup times, power profiles, turn-on
energies and switch tables from fixed uniform ranges, reproducibly per
seed.  Turn-on energy scales the gap between idle and standby power;
dormancy (the switch between a gear and speed 0) is a fifth of turn-on;
switching between two gears costs their mean idle power times a drag
factor; all three factors are drawn once per machine.

Instances travel as YAML documents with all reals written at 17
significant digits, so a write/read round trip is lossless.
"""

from __future__ import annotations

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

    def ints(n: int, tokens: list[str]) -> list[int]:
        out = []
        for t in tokens:
            try:
                out.append(int(float(t)) if "." in t else int(t))
            except ValueError:
                raise ParseError(f"line {n}: not a number: {t!r}") from None
        return out

    header_no, header = lines[0]
    head = ints(header_no, header)
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
    duration_range: tuple[int, int] = (1, 10),
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
                tuple((m, rng.randint(*duration_range)) for m in machines)
            )
        jobs.append(tuple(ops))
    return BaseFjspInstance(n_machines=n_machines, jobs=tuple(jobs))


@dataclass(frozen=True)
class GeneratorParams:
    """Ranges for the multi-state extension; all uniform draws."""

    speed_multipliers: tuple[int, ...] = (3, 2, 1)
    setup_time_range: tuple[int, int] = (1, 2)
    setup_power_range: tuple[float, float] = (10.0, 30.0)
    standby_power_range: tuple[float, float] = (3.0, 5.0)
    process_base_range: tuple[float, float] = (30.0, 50.0)
    idle_base_range: tuple[float, float] = (5.0, 10.0)
    turn_on_factor_range: tuple[float, float] = (6.0, 8.0)
    switch_factor_range: tuple[float, float] = (0.2, 0.3)
    dormancy_share: float = 0.2

    def __post_init__(self) -> None:
        if not self.speed_multipliers:
            raise ValueError("speed_multipliers must not be empty")
        for name in (
            "setup_time_range",
            "setup_power_range",
            "standby_power_range",
            "process_base_range",
            "idle_base_range",
            "turn_on_factor_range",
            "switch_factor_range",
        ):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name}: lower bound above upper bound")
            if lo <= 0:
                raise ValueError(f"{name}: bounds must be positive")
        if not 0.0 < self.dormancy_share <= 1.0:
            raise ValueError("dormancy_share must lie in (0, 1]")


def extend_instance(
    base: BaseFjspInstance,
    params: GeneratorParams | None = None,
    seed: int = 0,
) -> ProblemInstance:
    """Extend a base instance with gears, setups and power data.

    Deterministic per (base, params, seed): job setup times are drawn
    first in job order, then each machine's six values (setup power,
    standby power, process power base, idle power base, turn-on factor,
    switch factor) in machine order.  Per-gear process and idle power
    grow linearly with the gear index; per-gear durations shrink by the
    configured multipliers (slowest gear first).
    """
    if params is None:
        params = GeneratorParams()
    rng = random.Random(seed)
    mult = params.speed_multipliers
    s = len(mult)

    setup_times = [
        rng.randint(*params.setup_time_range) for _ in range(base.n_jobs)
    ]
    jobs = []
    for j, base_job in enumerate(base.jobs, start=1):
        ops = []
        for o, base_op in enumerate(base_job, start=1):
            options = []
            for machine, duration in base_op:
                for gear in range(1, s + 1):
                    options.append(
                        ProcessingOption(machine, gear, duration * mult[gear - 1])
                    )
            ops.append(OperationSpec(job=j, op_index=o, options=tuple(options)))
        jobs.append(
            JobSpec(id=j, setup_time=setup_times[j - 1], operations=tuple(ops))
        )

    machines = []
    for m in range(1, base.n_machines + 1):
        setup_power = rng.uniform(*params.setup_power_range)
        standby = rng.uniform(*params.standby_power_range)
        process_base = rng.uniform(*params.process_base_range)
        idle_base = rng.uniform(*params.idle_base_range)
        turn_on_factor = rng.uniform(*params.turn_on_factor_range)
        switch_factor = rng.uniform(*params.switch_factor_range)
        process = tuple(process_base * g for g in range(1, s + 1))
        idle = tuple(idle_base * g for g in range(1, s + 1))
        turn_on = tuple((idle[g - 1] - standby) * turn_on_factor for g in range(1, s + 1))
        switch = [[0.0] * (s + 1) for _ in range(s + 1)]
        for g in range(1, s + 1):
            dorm = params.dormancy_share * turn_on[g - 1]
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


class _Dumper(yaml.SafeDumper):
    pass


def _float_representer(dumper: yaml.SafeDumper, value: float):
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return dumper.represent_scalar("tag:yaml.org,2002:float", text)


_Dumper.add_representer(float, _float_representer)


def dump_document(data) -> str:
    """YAML text with floats at 17 significant digits, keys in order."""
    return yaml.dump(data, Dumper=_Dumper, sort_keys=False, default_flow_style=None)


def load_document(text: str):
    return yaml.safe_load(text)


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
                **(
                    {"turn_on": list(mach.turn_on)}
                    if mach.turn_on is not None
                    else {}
                ),
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
    return float(value)


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
    if version != SCHEMA_VERSION:
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
            ops.append(OperationSpec(job=job_id, op_index=o, options=tuple(options)))
        jobs.append(JobSpec(id=job_id, setup_time=setup, operations=tuple(ops)))

    machines = []
    for mdoc in _list_field(data, "machines", "document"):
        label = f"machine {mdoc.get('id') if isinstance(mdoc, dict) else '?'}"
        mach_id = _int_field(mdoc, "id", label)
        process = _floats(_require(mdoc, "process_power", label), label)
        idle = _floats(_require(mdoc, "idle_power", label), label)
        switch = tuple(_floats(row, label) for row in _list_field(mdoc, "switch", label))
        turn_on = None
        if "turn_on" in mdoc:
            turn_on = _floats(mdoc["turn_on"], label)
        machines.append(
            Machine(
                id=mach_id,
                setup_power=_float_field(_require(mdoc, "setup_power", label), label),
                process_power=process,
                idle_power=idle,
                standby_power=_float_field(
                    _require(mdoc, "standby_power", label), label
                ),
                switch=switch,
                turn_on=turn_on,
            )
        )
    inst = ProblemInstance(
        jobs=tuple(jobs), machines=tuple(machines), speed_count=s
    )
    report = validate_instance(inst)
    if not report.ok:
        raise InstanceFormatError(
            "invalid instance: " + "; ".join(report.errors + report.violations)
        )
    return inst
