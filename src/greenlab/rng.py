"""Deterministic RNG stream derivation for reproducible parallel experiments.

An experiment kind draws from one generator, derived from (master seed,
experiment kind) so results do not depend on scheduling order; its seed
entropy is [seed, crc32(kind), 0].  The batched walker
(walks._batch_positions) splits its trials into replicas by the trial count
alone and gives replica i the i-th child of Generator.spawn on the
generator it is passed, so its draws depend neither on the CPU count nor on
the order the replica threads run in.  The tree walker
(walks._tree_distance_chain) draws from the kind's generator directly.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_stream(master_seed: int, kind: str) -> np.random.Generator:
    kind_id = zlib.crc32(kind.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), kind_id, 0]))
