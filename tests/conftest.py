import os
import sys

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# the same examples on every run, and no example database carried between
# runs, so the suite's solve and iteration totals are reproducible; each
# test's own max_examples, deadline and @example still apply
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
