import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def unreachable_after():
    """``run(fn, *args)`` calls ``fn(*args)`` with the cyclic GC off and
    returns the number of unreachable objects it left, which only that GC
    would free: 0 for code that makes no reference cycles."""

    def run(fn, *args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            fn(*args, **kwargs)
            return gc.collect()
        finally:
            if enabled:
                gc.enable()

    return run
