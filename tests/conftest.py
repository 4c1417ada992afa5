"""Session fixtures: a reusable pool of random coprime instances with
lazily cached pipeline artifacts, plus the small subset suitable for
windowed Hilbert-function sweeps."""

from __future__ import annotations

import random
import sys
from functools import cached_property
from math import prod
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frobgb import AperyTable, Solution
from frobgb.hilbert import enumeration_caps

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
    # the candidate box with x_1's cap included, a stricter count than the
    # x_2..x_n box hilbert_value holds to its budget; small20 is selected by
    # this one
    return prod(b + 1 for b in enumeration_caps(inst, t))


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
