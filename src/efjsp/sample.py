"""A small two-job, two-machine instance with hand-checkable numbers.

Both machines share one power profile: idle powers 3/6/9 for gears 1..3,
standby power 2, and a symmetric switch table with dormancy cost 10 for
gear 3, 8 for gear 2 and 5 for gear 1.  Job 1 needs one time unit of
setup, job 2 needs two.  The processing times shrink with the gear, e.g.
the first operation of job 1 runs 18/12/6 time units at gears 1/2/3.

The companion chromosome schedules the jobs in the order
J1, J2, J2, J2, J2, J1 on the machines and gears that give a makespan of
21 with two interior intervals (one standby, one idle).
"""

from __future__ import annotations

from .encoding import Chromosome
from .model import (
    JobSpec,
    Machine,
    OperationSpec,
    ProblemInstance,
    ProcessingOption,
)

_SWITCH = (
    (0.0, 5.0, 8.0, 10.0),
    (5.0, 0.0, 5.0, 8.0),
    (8.0, 5.0, 0.0, 5.0),
    (10.0, 8.0, 5.0, 0.0),
)


def _op(*options: tuple[int, int, int]) -> OperationSpec:
    return OperationSpec(tuple(ProcessingOption(m, v, d) for m, v, d in options))


def sample_instance() -> ProblemInstance:
    """The worked two-job instance used throughout the tests."""
    jobs = (
        JobSpec(
            id=1,
            setup_time=1,
            operations=(
                _op((1, 1, 18), (1, 2, 12), (1, 3, 6)),
                _op((1, 1, 6), (1, 2, 4), (1, 3, 2)),
            ),
        ),
        JobSpec(
            id=2,
            setup_time=2,
            operations=(
                _op((1, 1, 30), (1, 2, 20), (1, 3, 10), (2, 1, 27), (2, 2, 18), (2, 3, 9)),
                _op((1, 1, 4), (1, 2, 2), (1, 3, 1), (2, 1, 6), (2, 2, 4), (2, 3, 2)),
                _op((1, 1, 6), (1, 2, 3), (1, 3, 1)),
                _op((2, 1, 9), (2, 2, 6), (2, 3, 3)),
            ),
        ),
    )
    machines = tuple(
        Machine(
            id=m,
            setup_power=10.0,
            process_power=(10.0, 20.0, 30.0),
            idle_power=(3.0, 6.0, 9.0),
            standby_power=2.0,
            switch=_SWITCH,
        )
        for m in (1, 2)
    )
    return ProblemInstance(jobs=jobs, machines=machines, speed_count=3)


def sample_chromosome() -> Chromosome:
    """The hand-traced solution of the sample instance.

    Operation order J1, J2, J2, J2, J2, J1 with machine/gear picks
    (M1,3), (M1,3), (M2,3), (M2,2), (M1,2), (M2,3) in canonical
    operation order: the message-matrix columns 1, 1, 1, 5, 2, 1.
    """
    return Chromosome(os=(1, 2, 2, 2, 2, 1), mv=(1, 1, 1, 5, 2, 1))
