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
