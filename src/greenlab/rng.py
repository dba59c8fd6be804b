"""Deterministic RNG stream derivation for reproducible parallel experiments.

Every Monte Carlo replica draws from its own generator, derived from
(master seed, experiment kind, replica index) so results do not depend on
scheduling order.
"""

from __future__ import annotations

import zlib

import numpy as np


def _kind_id(kind: str) -> int:
    return zlib.crc32(kind.encode("utf-8"))


def derive_stream(master_seed: int, kind: str, replica: int = 0) -> np.random.Generator:
    root = np.random.SeedSequence([int(master_seed), _kind_id(kind), int(replica)])
    return np.random.default_rng(root)

