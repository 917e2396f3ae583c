import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "relattn",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("relattn")


def _traced_peak_mib(fn, *args) -> float:
    """tracemalloc peak, in MiB, of one call of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak_mib():
    return _traced_peak_mib
