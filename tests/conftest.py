"""Session fixtures: a reusable pool of random coprime instances with
lazily cached pipeline artifacts, plus the subset with the smallest
Frobenius numbers for windowed sweeps over every degree up to f* + p_1.
Every test also runs under a wall-clock limit, so a loop that never ends
fails its test instead of hanging the suite."""

from __future__ import annotations

import random
import signal
import sys
from functools import cached_property
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frobgb import AperyTable, Solution

from helpers import random_weights

SEED = 20260815
TEST_LIMIT_S = 120  # the slowest test takes under 10 s


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test that runs longer than TEST_LIMIT_S, where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def overrun(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TEST_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Instance(Solution):
    """A pool member: the cached pipeline plus the residue-table oracle."""

    @cached_property
    def apery(self):
        return AperyTable.build(self.weights)

    @cached_property
    def fstar_oracle(self):
        return max(self.apery.least) - self.apery.modulus


def build_pool():
    rng = random.Random(SEED)
    out = [Instance(random_weights(rng, 2, 5, 2, 200)) for _ in range(30)]
    out += [Instance(random_weights(rng, 3, 5, 2, 40)) for _ in range(25)]
    return out


@pytest.fixture(scope="session")
def pool():
    return build_pool()


@pytest.fixture(scope="session")
def small20(pool):
    """The twenty pool members with the smallest Frobenius numbers."""
    return sorted(pool, key=lambda inst: inst.fstar_oracle)[:20]
