"""Deterministic random-number-generator helpers.

Every stochastic component in the library (dataset generation, weight
initialisation, PGD restarts, random branching) takes either an integer
seed or a :class:`numpy.random.Generator`.  These helpers normalise both
forms so experiments are reproducible end to end.
"""

from __future__ import annotations

import zlib
from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a default-seeded generator (seed 0) so that library
    behaviour is deterministic unless the caller opts into a specific seed.
    An existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng(0)
    return np.random.default_rng(int(seed))


def spawn_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` independent child generators."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive_seed(base_seed: int, *components: Union[int, str]) -> int:
    """Derive a deterministic child seed from a base seed and components.

    Used by the benchmark suite generator so that every instance has a seed
    that depends only on its identity, not on generation order or on the
    process' hash randomisation (strings are hashed with CRC32).
    """
    mix = int(base_seed) & 0xFFFFFFFFFFFFFFFF
    for component in components:
        if isinstance(component, str):
            value = zlib.crc32(component.encode("utf-8"))
        else:
            value = int(component) & 0xFFFFFFFFFFFFFFFF
        mix = (mix * 6364136223846793005 + value + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    return int(mix % (2**31 - 1))


_UNSET: Optional[object] = None
