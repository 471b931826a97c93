"""Shared fixtures: the two-job walkthrough instance and derived objects."""

from __future__ import annotations

import sys

import pytest

from efjsp import encoding
from efjsp.encoding import build_message_matrix, decode
from efjsp.sample import sample_chromosome, sample_instance


@pytest.fixture(scope="session")
def inst():
    return sample_instance()


@pytest.fixture(scope="session")
def chrom():
    return sample_chromosome()


@pytest.fixture(scope="session")
def matrices(inst):
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
