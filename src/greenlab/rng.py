"""Deterministic RNG stream derivation for reproducible parallel experiments.

Every Monte Carlo replica draws from its own generator, derived from
(master seed, experiment kind, replica index) so results do not depend on
scheduling order.  An experiment kind's generator is replica 0; the
batched walker (walks._batch_positions) splits its trials into replicas
by the trial count alone and gives replica i the i-th child of
Generator.spawn on the generator it is passed, so its draws depend
neither on the CPU count nor on the order the replica threads run in.
"""

from __future__ import annotations

import zlib

import numpy as np


def _kind_id(kind: str) -> int:
    return zlib.crc32(kind.encode("utf-8"))


def derive_stream(master_seed: int, kind: str, replica: int = 0) -> np.random.Generator:
    root = np.random.SeedSequence([int(master_seed), _kind_id(kind), int(replica)])
    return np.random.default_rng(root)

