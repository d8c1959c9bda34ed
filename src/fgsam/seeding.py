"""Named random streams derived from a single root seed.

Every consumer pulls from its own stream so adding a new consumer never
perturbs the randomness seen by existing ones.
"""

import zlib

import numpy as np


def stream_seed(root_seed: int, name: str) -> np.random.SeedSequence:
    # crc32 is stable across platforms, unlike hash()
    return np.random.SeedSequence([int(root_seed), zlib.crc32(name.encode())])


def stream_rng(root_seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(stream_seed(root_seed, name))
