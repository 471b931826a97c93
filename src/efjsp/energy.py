"""Exact energy accounting for schedules.

Total energy is the sum of five parts:

* turn-on energy when each used machine first powers up,
* speed-switch energy between back-to-back operations at different gears,
* setup energy (setup power times setup duration),
* processing energy (per-gear process power times running time),
* idle/standby energy for every interior non-processing stretch.

For an interior stretch the machine either waits at the lower of the two
adjacent gears (paying idle power plus one speed switch) or drops to
standby (paying standby power plus a switch down to speed 0 and back up).
The cheaper choice is taken, ties going to waiting idle.

All five parts, and their total ``tec``, come from one walk over
per-machine timelines, one segment per operation with its setup in it
(``account``).  ``encoding.evaluate`` runs it on the decoder's own
timelines to price a chromosome; ``total_energy`` runs it on a
schedule's rows, merged into timelines (``model.machine_timelines``),
and also keeps the makespan and every stretch's ``IntervalDecision``, so
the breakdown and the objectives are the same sums, and ``tec`` is added
up in one place.  The walk tests continuity and prices a stretch in
line, with each machine's tables read once, so the stretch formula
exists once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .model import ProblemInstance, ScheduledRow, Segment, machine_timelines

MODE_IDLE = "idle"
MODE_STANDBY = "standby"


class IntervalDecision(NamedTuple):
    """One priced interior stretch of a machine: from the end of a process
    to the start of the next process, whose gears are ``prev_speed`` and
    ``next_speed``, held at ``mode`` for ``energy``.  An idling machine
    holds the lower of the two gears; a setup that serves the follower may
    sit inside the stretch."""

    machine: int
    start: int
    end: int
    prev_speed: int
    next_speed: int
    mode: str
    energy: float


@dataclass(frozen=True)
class EnergyBreakdown:
    """Makespan (0 for the empty schedule) and energy totals of one schedule."""

    cmax: int
    turn_on: float
    transition: float
    setup: float
    process: float
    interval: float
    tec: float
    interval_decisions: tuple[IntervalDecision, ...]


def account(
    inst: ProblemInstance,
    timelines: list[list[Segment]],
    decisions: list[IntervalDecision] | None = None,
) -> tuple[int, float, float, float, float, float, float]:
    """Makespan, total energy and the five energy parts, in one walk over
    the timelines.

    Returns ``(cmax, tec, turn_on, transition, setup, process,
    interval)``; ``cmax`` is -1 when no machine processes anything.  Each
    part is summed machine by machine and, on a machine, in time order,
    and ``tec`` is the five parts added in that order.  When
    ``decisions`` is a list, one ``IntervalDecision`` is appended to it
    for each priced stretch, in the same order.

    A segment pays its own setup, if it brings one, and then its process.
    A segment follows the previous one on its machine continuously when
    its process starts no later than that process ends, or when it brings
    its own setup and the setup starts no later than that.  A continuous
    pair pays a gear switch; any other pair encloses an idle/standby
    stretch from the previous process's end to the follower's process
    start.  The stretch costs the cheaper of idling, which holds the lower
    of the two gears and pays one switch between them, and standby, which
    pays standby power plus the switches down to speed 0 and back up; a
    tie goes to idling.  This walk is the only place either rule is
    decided.  The first process of a machine pays its turn-on,
    ``mach.turn_on[gear - 1]``.  Turning off is free.
    """
    cmax = -1
    ie1 = ie2 = se1 = se2 = 0.0
    ise = 0  # an int while no stretch is priced, as the result documents record it
    for mach, seq in zip(inst.machines, timelines):
        if not seq:
            continue
        switch = mach.switch
        process_power = mach.process_power
        setup_power = mach.setup_power
        idle_power = mach.idle_power
        standby_power = mach.standby_power
        prev_end = prev_speed = 0
        # busy: where the machine becomes busy; start: where the process starts
        for busy, end, _, _, speed, start in seq:
            if start is None:
                start = busy
            else:
                se1 += setup_power * (start - busy)
            se2 += process_power[speed - 1] * (end - start)
            if end > cmax:
                cmax = end
            if not prev_speed:
                ie1 += mach.turn_on[speed - 1]
            elif start <= prev_end or busy <= prev_end:
                if prev_speed != speed:
                    ie2 += switch[prev_speed][speed]
            else:
                length = start - prev_end
                idle_cost = idle_power[min(prev_speed, speed) - 1] * length
                idle_cost += switch[prev_speed][speed]
                cost = standby_power * length + switch[prev_speed][0] + switch[0][speed]
                idle = idle_cost <= cost
                if idle:
                    cost = idle_cost
                ise += cost
                if decisions is not None:
                    decisions.append(IntervalDecision(
                        mach.id, prev_end, start, prev_speed, speed,
                        MODE_IDLE if idle else MODE_STANDBY, cost,
                    ))
            prev_end, prev_speed = end, speed
    return cmax, ie1 + ie2 + se1 + se2 + ise, ie1, ie2, se1, se2, ise


def total_energy(inst: ProblemInstance, sched: tuple[ScheduledRow, ...]) -> EnergyBreakdown:
    """Full energy breakdown of a schedule, with its makespan.

    ``(cmax, tec)`` are ``encoding.evaluate``'s objectives, the first two
    values of the same ``account`` walk.  An empty
    schedule yields an all-zero breakdown.  Rows that are no schedule raise
    ValueError (``model.machine_timelines``).
    """
    decisions: list[IntervalDecision] = []
    cmax, tec, ie1, ie2, se1, se2, ise = account(inst, machine_timelines(inst, sched), decisions)
    return EnergyBreakdown(
        cmax=max(cmax, 0),
        turn_on=ie1,
        transition=ie2,
        setup=se1,
        process=se2,
        interval=ise,
        tec=tec,
        interval_decisions=tuple(decisions),
    )

