"""Session fixtures: a reusable pool of random coprime instances with
lazily cached pipeline artifacts, plus the small subset suitable for
windowed Hilbert-function sweeps."""

from __future__ import annotations

import random
import sys
from functools import cached_property
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frobgb import AperyTable, Solution

from helpers import random_weights

SEED = 20260815


class Instance(Solution):
    """A pool member: the cached pipeline plus the residue-table oracle."""

    @cached_property
    def apery(self):
        return AperyTable.build(self.weights)

    @cached_property
    def fstar_oracle(self):
        return max(self.apery.least) - self.apery.modulus


def _hilbert_box(inst, t):
    # mirror of the enumeration bound used by the Hilbert module
    p = inst.weights.entries
    gens = inst.ideal.sorted_generators()
    box = t // p[0] + 1
    for i in range(1, len(p)):
        pure = min(
            g[i] for g in gens if g[i] and all(x == 0 for j, x in enumerate(g) if j != i)
        )
        box *= min(t // p[i], pure - 1) + 1
    return box


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
    """Twenty pool members with the smallest Frobenius numbers whose whole
    window 0..f*+p_1 stays within the Hilbert enumeration budget."""
    ranked = sorted(pool, key=lambda inst: inst.fstar_oracle)
    chosen = []
    for inst in ranked:
        if _hilbert_box(inst, inst.fstar_oracle + inst.weights.entries[0]) <= 200_000:
            chosen.append(inst)
        if len(chosen) == 20:
            break
    assert len(chosen) == 20, "not enough window-friendly instances in the pool"
    return chosen
