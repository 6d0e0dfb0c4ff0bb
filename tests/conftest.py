import os

import pytest
from hypothesis import settings

from helpers import make_dataset, two_sample_dataset

# reproducible property runs that never fail on timing: --hypothesis-profile=ci
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def two_sample():
    return two_sample_dataset()


@pytest.fixture
def random_dataset():
    return make_dataset(seed=7)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork starts in the test."""
    started, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return started
