"""The one-walk evaluator against the breakdown route, the independent
oracle summation and objectives recorded before the evaluator was fused."""

from __future__ import annotations

import json
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from efjsp.benchmark import extend_instance, random_base
from efjsp.encoding import Chromosome, decode, evaluate, random_chromosome
from efjsp.energy import total_energy
from efjsp.model import (
    JobSpec,
    Machine,
    OperationSpec,
    ProblemInstance,
    ProcessingOption,
    idle_intervals,
    makespan,
    validate_instance,
    validate_schedule,
)
from efjsp.oracle import independent_objectives

PINS = Path(__file__).parent / "data" / "evaluate_pins_10x6.json"


def test_evaluate_reproduces_recorded_objectives():
    # Recorded with the two-pass evaluator (decode, makespan, total_energy);
    # any change to what is summed, or in which order, shows up here.
    pins = json.loads(PINS.read_text())["objectives"]
    inst = extend_instance(random_base(10, 6, seed=1), seed=1)
    rng = random.Random(2024)
    got = [list(evaluate(inst, random_chromosome(inst, rng))) for _ in pins]
    assert got == pins


_energies = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def instances(draw) -> ProblemInstance:
    """Small valid instances, including shapes the generator never makes:
    one gear, zero setup times, no turn-on vector, standby dearer than
    idling, a single machine and one-operation jobs."""
    s = draw(st.integers(1, 3))
    n_machines = draw(st.integers(1, 3))
    jobs = []
    for j in range(1, draw(st.integers(1, 4)) + 1):
        ops = []
        for o in range(1, draw(st.integers(1, 3)) + 1):
            keys = draw(
                st.lists(
                    st.tuples(st.integers(1, n_machines), st.integers(1, s)),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
            options = tuple(ProcessingOption(m, g, draw(st.integers(1, 6))) for m, g in keys)
            ops.append(OperationSpec(j, o, options))
        jobs.append(JobSpec(j, draw(st.sampled_from((0, 0, 1, 2, 3))), tuple(ops)))
    gears = st.lists(_energies, min_size=s, max_size=s).map(tuple)
    machines = []
    for m in range(1, n_machines + 1):
        switch = tuple(
            tuple(0.0 if a == b else draw(_energies) for b in range(s + 1)) for a in range(s + 1)
        )
        machines.append(
            Machine(
                id=m,
                setup_power=draw(_energies),
                process_power=draw(gears),
                idle_power=draw(gears),
                standby_power=draw(_energies),
                switch=switch,
                turn_on=draw(st.none() | gears),
            )
        )
    return ProblemInstance(tuple(jobs), tuple(machines), s)


@st.composite
def problems(draw) -> tuple[ProblemInstance, Chromosome]:
    inst = draw(instances())
    os = draw(st.permutations([job.id for job in inst.jobs for _ in job.operations]))
    mv = [draw(st.integers(1, len(op.options))) for job in inst.jobs for op in job.operations]
    return inst, Chromosome(tuple(os), tuple(mv))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(problems())
def test_three_routes_agree_on_generated_instances(problem):
    inst, chrom = problem
    assert validate_instance(inst).ok
    sched = decode(inst, chrom)
    assert validate_schedule(inst, sched).ok
    fast = evaluate(inst, chrom)
    breakdown = total_energy(inst, sched)
    assert fast == (makespan(sched), breakdown.tec)
    assert [d.interval for d in breakdown.interval_decisions] == [
        rec for mach in inst.machines for rec in idle_intervals(sched, mach.id)
    ]
    cmax, tec = independent_objectives(inst, sched.rows)
    assert fast[0] == cmax
    assert abs(fast[1] - tec) <= 1e-9 * max(abs(tec), 1.0)
