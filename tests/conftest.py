"""Shared fixtures: the two-job walkthrough instance and derived objects;
``fastest_gears``, which cuts an instance down to fewer gears;
``with_process_power``, which sets every process power; and
``counted_placements``, which counts the os positions the decoder places."""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager
from unittest import mock

import pytest

from efjsp import encoding
from efjsp.encoding import build_message_matrix, decode
from efjsp.model import ProblemInstance
from efjsp.sample import sample_chromosome, sample_instance


def with_process_power(inst: ProblemInstance, power: float) -> ProblemInstance:
    """``inst`` with every process power at ``power``."""
    machines = tuple(
        dataclasses.replace(m, process_power=(power,) * len(m.process_power))
        for m in inst.machines
    )
    return dataclasses.replace(inst, machines=machines)


def fastest_gears(inst: ProblemInstance, k: int) -> ProblemInstance:
    """``inst`` with only the options of its fastest ``k`` gears, relabelled
    1..k, and each machine's gear tables cut to their first ``k`` gears.

    On a generated instance, whose powers grow with the gear label, this
    is (``==``) the instance the generator would draw with only the last
    ``k`` speed multipliers: ``k=1`` gives one gear at the base durations.
    """
    drop = inst.speed_count - k
    jobs = tuple(
        dataclasses.replace(job, operations=tuple(
            dataclasses.replace(op, options=tuple(
                dataclasses.replace(o, speed=o.speed - drop) for o in op.options if o.speed > drop
            ))
            for op in job.operations
        ))
        for job in inst.jobs
    )
    machines = tuple(
        dataclasses.replace(
            m,
            process_power=m.process_power[:k],
            idle_power=m.idle_power[:k],
            switch=tuple(row[: k + 1] for row in m.switch[: k + 1]),
            turn_on=m.turn_on[:k],
        )
        for m in inst.machines
    )
    return ProblemInstance(jobs=jobs, machines=machines, speed_count=k)


@contextmanager
def counted_placements():
    """A one-item list counting the os positions ``encoding._place``
    places while the context is active."""
    placed = [0]
    place = encoding._place

    def counted(inst, chrom, rows, state, lo=0, hi=None):
        placed[0] += len(chrom.os[lo:hi])
        return place(inst, chrom, rows, state, lo, hi)

    with mock.patch.object(encoding, "_place", counted):
        yield placed


@pytest.fixture(scope="session")
def inst():
    return sample_instance()


@pytest.fixture(scope="session")
def chrom():
    return sample_chromosome()


@pytest.fixture(scope="session")
def columns(inst):
    return build_message_matrix(inst)


@pytest.fixture(scope="session")
def sched(inst, chrom):
    return decode(inst, chrom)


@pytest.fixture()
def matrix_builds(monkeypatch):
    """The instances ``build_message_matrix`` is called on, in call order.

    The spy replaces the builder under every name an ``efjsp`` module
    holds it by, so that a call through any of them is seen.
    """
    built = []
    real = encoding.build_message_matrix

    def spy(inst):
        built.append(inst)
        return real(inst)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "efjsp" and getattr(module, "build_message_matrix", None) is real:
            monkeypatch.setattr(module, "build_message_matrix", spy)
    return built
