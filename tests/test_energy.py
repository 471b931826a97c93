"""Energy accounting: per-part sums, interval mode choice, exact totals."""

from __future__ import annotations

import dataclasses

import pytest

from efjsp.energy import (
    MODE_IDLE,
    MODE_STANDBY,
    interval_energy,
    process_energy,
    setup_energy,
    total_energy,
    transition_energy,
    turn_on_energy,
)
from efjsp.model import IdleIntervalRecord, ScheduledRow, ScheduleTable


def test_turn_on_energy(inst, sched):
    # first processing gear per used machine, both machines start at gear 3
    assert turn_on_energy(inst, sched) == 20.0


def test_transition_energy(inst, sched):
    # the only continuous different-gear pair is O21 (v3) -> O22 (v2) on M2
    assert transition_energy(inst, sched) == 5.0


def test_setup_energy(inst, sched):
    # three setup rows of lengths 1, 2, 2 at power 10
    assert setup_energy(inst, sched) == 50.0


def test_process_energy(inst, sched):
    assert process_energy(inst, sched) == 740.0


def test_interval_energy_standby_choice(inst):
    rec = IdleIntervalRecord(machine=1, start=9, end=15, prev_speed=3, next_speed=2)
    decision = interval_energy(inst, rec)
    assert decision.mode == MODE_STANDBY
    assert decision.energy == 30.0
    assert decision.switch_on_entry is True
    # the losing idle option costs idle_power[2] * 6 + switch 3->2
    m = inst.machine(1)
    assert m.idle_power[1] * rec.length + m.switch[3][2] == 41.0


def test_interval_energy_idle_choice(inst):
    rec = IdleIntervalRecord(machine=2, start=15, end=18, prev_speed=2, next_speed=3)
    decision = interval_energy(inst, rec)
    assert decision.mode == MODE_IDLE
    assert decision.energy == 23.0
    assert decision.idle_speed == 2
    assert decision.switch_on_entry is False
    # the losing standby option costs standby * 3 + switch 2->0 + switch 0->3
    m = inst.machine(2)
    assert m.standby_power * rec.length + m.switch[2][0] + m.switch[0][3] == 24.0


def test_interval_energy_tie_prefers_idle(inst):
    # craft powers so both modes cost the same
    m = inst.machine(1)
    tied = dataclasses.replace(
        m,
        idle_power=(2.0, 2.0, 2.0),
        standby_power=2.0,
        switch=tuple(tuple(0.0 for _ in row) for row in m.switch),
    )
    inst2 = dataclasses.replace(inst, machines=(tied,) + inst.machines[1:])
    rec = IdleIntervalRecord(machine=1, start=0, end=4, prev_speed=1, next_speed=1)
    decision = interval_energy(inst2, rec)
    assert decision.mode == MODE_IDLE


def test_interval_energy_rejects_boundary(inst):
    rec = IdleIntervalRecord(machine=1, start=0, end=4, prev_speed=0, next_speed=1)
    with pytest.raises(ValueError):
        interval_energy(inst, rec)


def test_total_energy_breakdown(inst, sched):
    bd = total_energy(inst, sched)
    assert bd.turn_on == 20.0
    assert bd.transition == 5.0
    assert bd.setup == 50.0
    assert bd.process == 740.0
    assert bd.interval == 53.0
    assert bd.tec == 868.0
    assert bd.tec == bd.turn_on + bd.transition + bd.setup + bd.process + bd.interval


@pytest.mark.parametrize("machine", [0, 3])
def test_total_energy_rejects_unknown_machine(inst, sched, machine):
    stray = ScheduledRow(job=1, op_index=1, machine=machine, speed=1, start=40, end=45)
    with pytest.raises(ValueError, match="unknown machine"):
        total_energy(inst, ScheduleTable(sched.rows + (stray,), inst))


def test_total_energy_decision_order(inst, sched):
    bd = total_energy(inst, sched)
    keys = [(d.interval.machine, d.interval.start) for d in bd.interval_decisions]
    assert keys == sorted(keys)
    assert len(bd.interval_decisions) == 2


def test_turn_on_vector_overrides_dormancy_row(inst, sched):
    # an explicit first-activation vector replaces the wake-up switch cost
    boosted = dataclasses.replace(
        inst.machine(1), turn_on=(100.0, 200.0, 300.0)
    )
    inst2 = dataclasses.replace(inst, machines=(boosted,) + inst.machines[1:])
    # machine 1 starts at gear 3 -> 300 instead of switch[0][3] = 10
    assert turn_on_energy(inst2, sched) == 300.0 + 10.0
