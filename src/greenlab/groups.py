"""Exact arithmetic, word metrics, and ball/sphere enumeration for group backends.

Supported backends: integer lattices Z^d, free groups F_k (k >= 2) and
the discrete Heisenberg group in polynomial normal form.  Elements are
canonical hashable payloads, so that payload equality is group-element
equality:

* lattice: tuple of d ints
* free group: reduced word as a tuple of nonzero ints in {+-1..+-k}
  (negative = inverse letter), no adjacent letter/inverse pair
* Heisenberg: triple (a, b, c) with product law
  (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')

``word_length`` is the one word metric in the standard generators.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

import math

import numpy as np


class BackendMismatchError(ValueError):
    """Operands belong to different group backends."""


class OutOfRangeError(ValueError):
    """Requested element is outside a cached BFS table."""


class EnumerationCapError(ValueError):
    """Requested radius exceeds the backend enumeration cap."""


# Sphere/ball enumeration caps (desk-scale memory bounds).
SPHERE_CAPS = {"lattice": 40, "free": 10, "heisenberg": 12}


@dataclass(frozen=True)
class GroupSpec:
    variant: str                      # lattice | free | heisenberg
    d: int = 0                        # lattice dimension
    rank: int = 0                     # free rank

    def __post_init__(self):
        if self.variant == "lattice":
            if self.d < 1:
                raise ValueError("lattice dimension must be >= 1")
        elif self.variant == "free":
            if self.rank < 2:
                raise ValueError("free rank must be >= 2")
        elif self.variant != "heisenberg":
            raise ValueError(f"unknown backend {self.variant!r}")

    def label(self) -> str:
        if self.variant == "lattice":
            return f"Z^{self.d}"
        if self.variant == "free":
            return f"F_{self.rank}"
        return "Heis3"


def integer_lattice(d: int) -> GroupSpec:
    return GroupSpec("lattice", d=d)


def free_group(rank: int) -> GroupSpec:
    return GroupSpec("free", rank=rank)


def heisenberg() -> GroupSpec:
    return GroupSpec("heisenberg")


def identity(spec: GroupSpec):
    if spec.variant == "lattice":
        return (0,) * spec.d
    if spec.variant == "free":
        return ()
    return (0, 0, 0)


def mul(spec: GroupSpec, g, h):
    """Canonical product of two elements of the same backend."""
    _check_element(spec, g)
    _check_element(spec, h)
    if spec.variant == "lattice":
        return tuple(a + b for a, b in zip(g, h))
    if spec.variant == "free":
        word = list(g)
        for letter in h:
            if word and word[-1] == -letter:
                word.pop()
            else:
                word.append(letter)
        return tuple(word)
    a, b, c = g
    a2, b2, c2 = h
    return (a + a2, b + b2, c + c2 + a * b2)


def mul_rows(spec: GroupSpec, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Row-wise products g[i] h[i] of int64 coordinate rows on a lattice or
    on Heis3, where (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b');
    g and h broadcast against each other as numpy arrays do."""
    out = g + h
    if spec.variant == "heisenberg":
        out[..., 2] += g[..., 0] * h[..., 1]
    return out


def inv(spec: GroupSpec, g):
    _check_element(spec, g)
    if spec.variant == "lattice":
        return tuple(-a for a in g)
    if spec.variant == "free":
        return tuple(-letter for letter in reversed(g))
    a, b, c = g
    return (-a, -b, -c + a * b)


def _check_element(spec: GroupSpec, g):
    if spec.variant == "lattice":
        ok = isinstance(g, tuple) and len(g) == spec.d
    elif spec.variant == "free":
        ok = isinstance(g, tuple) and all(
            isinstance(x, int) and x != 0 and abs(x) <= spec.rank for x in g
        )
    else:
        ok = isinstance(g, tuple) and len(g) == 3
    if not ok:
        raise BackendMismatchError(f"{g!r} is not a {spec.label()} element")


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered symmetric generating set with an inverse-pairing index."""

    spec: GroupSpec
    elements: tuple
    inverse_index: tuple = field(default=())

    def __post_init__(self):
        e = identity(self.spec)
        if e in self.elements:
            raise ValueError("identity is not allowed as a generator")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate generators")
        pairing = []
        for g in self.elements:
            gi = inv(self.spec, g)
            if gi not in self.elements:
                raise ValueError("generator set is not symmetric")
            pairing.append(self.elements.index(gi))
        object.__setattr__(self, "inverse_index", tuple(pairing))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def standard_generators(spec: GroupSpec) -> GeneratorSet:
    """The default symmetric generating set for each backend.

    Lattice: unit vectors and inverses.  Free: letters and inverses.
    Heisenberg: {x^{+-1}, y^{+-1}}.
    """
    if spec.variant == "lattice":
        gens = []
        for i in range(spec.d):
            v = [0] * spec.d
            v[i] = 1
            gens.append(tuple(v))
            v = [0] * spec.d
            v[i] = -1
            gens.append(tuple(v))
        return GeneratorSet(spec, tuple(gens))
    if spec.variant == "free":
        gens = []
        for i in range(1, spec.rank + 1):
            gens.extend([(i,), (-i,)])
        return GeneratorSet(spec, tuple(gens))
    return GeneratorSet(spec, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))


def neighbors(spec: GroupSpec, g, gens: GeneratorSet):
    """Right neighbors {g*t : t in gens}; length equals |gens|."""
    return [mul(spec, g, t) for t in gens]


# ---------------------------------------------------------------------------
# Word metrics
# ---------------------------------------------------------------------------

def homogeneous_quasi_norm(g) -> int:
    """Heisenberg quasi-norm N(g) = |a| + |b| + ceil(sqrt(|c|))."""
    a, b, c = g
    return abs(a) + abs(b) + math.isqrt(abs(c)) + (0 if math.isqrt(abs(c)) ** 2 == abs(c) else 1)


@dataclass
class BfsTable:
    """Word lengths within radius R_max, computed by breadth-first search."""

    spec: GroupSpec
    gens: GeneratorSet
    r_max: int
    dist: dict = field(default_factory=dict)

    @classmethod
    def build(cls, spec: GroupSpec, gens: GeneratorSet, r_max: int) -> "BfsTable":
        e = identity(spec)
        dist = {e: 0}
        frontier = deque([e])
        while frontier:
            g = frontier.popleft()
            d = dist[g]
            if d == r_max:
                continue
            for h in neighbors(spec, g, gens):
                if h not in dist:
                    dist[h] = d + 1
                    frontier.append(h)
        return cls(spec, gens, r_max, dist)

    def length(self, g) -> int:
        try:
            return self.dist[g]
        except KeyError:
            raise OutOfRangeError(f"{g!r} beyond BFS radius {self.r_max}")


# Radius of the BFS table behind word_length on backends without a formula.
WORD_TABLE_RADIUS = 14


def word_length(spec: GroupSpec, g) -> int:
    """Word length in the standard generators: the L1 norm on lattices and
    the reduced length on free groups; on Heis3, which has no formula, one
    radius-WORD_TABLE_RADIUS BFS table per spec, built on first use
    (OutOfRangeError beyond it)."""
    if spec.variant == "heisenberg":
        return _word_table(spec).length(g)
    _check_element(spec, g)
    if spec.variant == "lattice":
        return sum(abs(a) for a in g)
    return len(g)


@functools.lru_cache(maxsize=None)
def _word_table(spec: GroupSpec) -> BfsTable:
    return BfsTable.build(spec, standard_generators(spec), WORD_TABLE_RADIUS)


# ---------------------------------------------------------------------------
# Spheres and balls
# ---------------------------------------------------------------------------

def ball(spec: GroupSpec, gens: GeneratorSet, r: int) -> list:
    """Elements of word length <= r, BFS-enumerated, sorted canonically."""
    if r > SPHERE_CAPS[spec.variant]:
        raise EnumerationCapError(
            f"radius {r} exceeds {spec.label()} cap {SPHERE_CAPS[spec.variant]}"
        )
    table = BfsTable.build(spec, gens, r)
    return sorted(table.dist.keys())


def sphere(spec: GroupSpec, gens: GeneratorSet, r: int) -> list:
    """Elements of word length exactly r (deduplicated canonical forms)."""
    if r > SPHERE_CAPS[spec.variant]:
        raise EnumerationCapError(
            f"radius {r} exceeds {spec.label()} cap {SPHERE_CAPS[spec.variant]}"
        )
    table = BfsTable.build(spec, gens, r)
    return sorted(g for g, d in table.dist.items() if d == r)

