"""Seeded random-number streams, one per named consumer of the run seed."""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent generator for a named consumer of the run seed.

    Streams are keyed by (seed, crc32(name)) so adding a new consumer never
    perturbs the draws of existing ones.
    """
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
