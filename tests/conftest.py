import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from signalgames import InputSpace, LabelMap, Protocol
from signalgames.games import substream


@pytest.fixture
def space_b():
    """Uniform four-point line {0, 1, 2, 3}."""
    return InputSpace.uniform(np.arange(4.0)[:, None])


@pytest.fixture
def split():
    """The clustered protocol {0,1}/{2,3}."""
    return Protocol([0, 0, 1, 1], 2)


@pytest.fixture
def anti():
    """The antipodal protocol {0,3}/{1,2}."""
    return Protocol([0, 1, 1, 0], 2)


@pytest.fixture
def labels_ab():
    return LabelMap(["A", "A", "B", "B"])


def random_space(rng, n_max=8, dim_max=3, uniform=False):
    n = int(rng.integers(2, n_max + 1))
    dim = int(rng.integers(1, dim_max + 1))
    pts = rng.normal(size=(n, dim))
    if uniform:
        return InputSpace.uniform(pts)
    w = rng.random(n) + 0.1
    return InputSpace(pts, w / w.sum())


def random_protocol(rng, n, k_max=4):
    k = int(rng.integers(1, k_max + 1))
    return Protocol(rng.integers(0, k, size=n), k)


def random_labeled_instance(rng, n_max=8, dim_max=3, k_max=4):
    """Uniform space with balanced binary labels (the supervised setting)."""
    half = int(rng.integers(1, n_max // 2 + 1))
    n = 2 * half
    dim = int(rng.integers(1, dim_max + 1))
    space = InputSpace.uniform(rng.normal(size=(n, dim)))
    labels = LabelMap(["a"] * half + ["b"] * half)
    protocol = random_protocol(rng, n, k_max)
    return space, protocol, labels


def first_appearance(assignment) -> tuple[int, ...]:
    """An assignment relabelled by order of first appearance: the set
    partition it induces, as a restricted-growth string."""
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(int(m), len(seen)) for m in assignment)


def rng_for(name: str):
    return substream(20240801, "tests", name)
