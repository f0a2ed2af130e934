import tracemalloc

import numpy as np
import pytest

from cutcal.geometry import RigidTransform
from cutcal.simrig import random_rotation


def random_rigid(rng: np.random.Generator, trans_scale: float = 100.0) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.uniform(-trans_scale, trans_scale, 3))


def assert_transforms_close(a: RigidTransform, b: RigidTransform, atol: float = 1e-9):
    np.testing.assert_allclose(a.rotation, b.rotation, atol=atol, rtol=0)
    np.testing.assert_allclose(a.translation, b.translation, atol=atol, rtol=0)


def stack(poses) -> RigidTransform:
    """One stack of a sequence of transforms; ``list()`` of a stack undoes it."""
    return RigidTransform(
        np.array([p.rotation for p in poses]).reshape(-1, 3, 3),
        np.array([p.translation for p in poses]).reshape(-1, 3),
    )


def peak_traced_bytes(fn) -> int:
    """Peak memory that tracemalloc sees allocated while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)
