"""A time budget per test, so that a test that stalls fails instead of stalling the suite."""

import signal

import pytest

BUDGET_S = 30  # about 8x the slowest test of the suite


@pytest.fixture(autouse=True)
def time_budget(request):
    """Raise ``TimeoutError`` naming the test once it has run ``BUDGET_S`` s (no budget without SIGALRM)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past its {BUDGET_S} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(BUDGET_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
