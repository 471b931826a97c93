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

All five parts come from one walk over per-machine timelines
(``account``).  ``encoding.evaluate`` runs it on the decoder's own
timelines to price a chromosome; ``total_energy`` runs it on the sorted
rows of a schedule table and also keeps every interval decision, so the
breakdown and the objective are the same sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    SETUP,
    IdleIntervalRecord,
    Machine,
    ProblemInstance,
    ScheduleTable,
    Segment,
    is_continuous,
    machine_timelines,
)

MODE_IDLE = "idle"
MODE_STANDBY = "standby"


@dataclass(frozen=True)
class IntervalDecision:
    """Resolved treatment of one interior non-processing stretch.

    ``idle_speed`` is the gear the machine would hold while idling (the
    lower of the two neighbouring gears).  ``switch_on_entry`` tells on
    which side of the stretch the single speed switch of the idle option
    falls: at entry when slowing down, at exit when speeding up.
    """

    interval: IdleIntervalRecord
    mode: str
    idle_speed: int
    switch_on_entry: bool
    energy: float


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-component energy totals for one schedule."""

    turn_on: float
    transition: float
    setup: float
    process: float
    interval: float
    tec: float
    interval_decisions: tuple[IntervalDecision, ...]


def _stretch_cost(mach: Machine, length: int, prev_speed: int, next_speed: int) -> tuple[float, bool]:
    """Cost of the cheaper way to wait out a stretch, and whether it is idling."""
    idle_cost = mach.idle_power[min(prev_speed, next_speed) - 1] * length
    idle_cost += mach.switch[prev_speed][next_speed]
    standby_cost = (
        mach.standby_power * length
        + mach.switch[prev_speed][0]
        + mach.switch[0][next_speed]
    )
    if idle_cost <= standby_cost:
        return idle_cost, True
    return standby_cost, False


def _decision(interval: IdleIntervalRecord, cost: float, idle: bool) -> IntervalDecision:
    return IntervalDecision(
        interval=interval,
        mode=MODE_IDLE if idle else MODE_STANDBY,
        idle_speed=min(interval.prev_speed, interval.next_speed),
        switch_on_entry=interval.prev_speed > interval.next_speed,
        energy=cost,
    )


def interval_energy(inst: ProblemInstance, interval: IdleIntervalRecord) -> IntervalDecision:
    """Pick the cheaper of idling and standby for one interior stretch.

    Idling holds the lower of the two adjacent gears for the whole
    stretch and pays one switch between the neighbouring gears.  Standby
    pays standby power for the stretch plus the switch down to speed 0
    and the switch back up.  Ties resolve to idling.  The stretch must be
    interior: both neighbouring gears are required.
    """
    if interval.prev_speed < 1 or interval.next_speed < 1:
        raise ValueError(
            "interval energy is only defined between two process rows; "
            "boundary stretches carry no idle/standby energy"
        )
    cost, idle = _stretch_cost(
        inst.machine(interval.machine),
        interval.length,
        interval.prev_speed,
        interval.next_speed,
    )
    return _decision(interval, cost, idle)


def account(
    inst: ProblemInstance,
    timelines: list[list[Segment]],
    decisions: list[IntervalDecision] | None = None,
) -> tuple[int, float, float, float, float, float]:
    """Makespan and the five energy parts, in one walk over the timelines.

    Returns ``(cmax, turn_on, transition, setup, process, interval)``;
    ``cmax`` is -1 when no machine processes anything.  Each part is
    summed machine by machine and, on a machine, in time order.  When
    ``decisions`` is a list, every interval decision is appended to it.

    A pair of consecutive process segments pays a gear switch when it is
    continuous (``model.is_continuous``) and encloses a priced
    idle/standby stretch otherwise.  The first process segment of a
    machine pays its turn-on: the machine's turn-on vector when present,
    the switch table row from speed 0 otherwise.  Turning off is free.
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
        prev_end = prev_speed = 0
        last: Segment | None = None
        for seg in seq:
            start, end, kind, job, _, speed = seg
            if kind == SETUP:
                se1 += setup_power * (end - start)
                last = seg
                continue
            se2 += process_power[speed - 1] * (end - start)
            if end > cmax:
                cmax = end
            if not prev_speed:
                if mach.turn_on is not None:
                    ie1 += mach.turn_on[speed - 1]
                else:
                    ie1 += switch[0][speed]
            elif is_continuous(last, prev_end, start, job):
                if prev_speed != speed:
                    ie2 += switch[prev_speed][speed]
            else:
                cost, idle = _stretch_cost(mach, start - prev_end, prev_speed, speed)
                ise += cost
                if decisions is not None:
                    interval = IdleIntervalRecord(mach.id, prev_end, start, prev_speed, speed)
                    decisions.append(_decision(interval, cost, idle))
            prev_end, prev_speed = end, speed
            last = seg
    return cmax, ie1, ie2, se1, se2, ise


def total_energy(inst: ProblemInstance, sched: ScheduleTable) -> EnergyBreakdown:
    """Full energy breakdown of a schedule.

    ``tec`` is the exact sum of the five components, added in the same
    order as by ``encoding.evaluate``.  An empty schedule yields an
    all-zero breakdown.
    """
    decisions: list[IntervalDecision] = []
    _, ie1, ie2, se1, se2, ise = account(inst, machine_timelines(inst, sched), decisions)
    return EnergyBreakdown(
        turn_on=ie1,
        transition=ie2,
        setup=se1,
        process=se2,
        interval=ise,
        tec=ie1 + ie2 + se1 + se2 + ise,
        interval_decisions=tuple(decisions),
    )


def turn_on_energy(inst: ProblemInstance, sched: ScheduleTable) -> float:
    """Power-up energy: one charge per machine that processes anything."""
    return total_energy(inst, sched).turn_on


def transition_energy(inst: ProblemInstance, sched: ScheduleTable) -> float:
    """Switch energy between continuous operations at different gears."""
    return total_energy(inst, sched).transition


def setup_energy(inst: ProblemInstance, sched: ScheduleTable) -> float:
    """Setup power times setup duration, summed over all setup rows."""
    return total_energy(inst, sched).setup


def process_energy(inst: ProblemInstance, sched: ScheduleTable) -> float:
    """Per-gear process power times running time, over all process rows."""
    return total_energy(inst, sched).process
