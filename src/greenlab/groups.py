"""Exact arithmetic, word metrics, and ball/sphere enumeration for group backends.

Supported backends: integer lattices Z^d, free groups F_k (k >= 2), the
discrete Heisenberg group in polynomial normal form, and a single direct
product lift G x Z.  Elements are canonical hashable payloads so that
payload equality is group-element equality:

* lattice: tuple of d ints
* free group: reduced word as a tuple of nonzero ints in {+-1..+-k}
  (negative = inverse letter), no adjacent letter/inverse pair
* Heisenberg: triple (a, b, c) with product law
  (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')
* product lift: (inner payload, int)
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import math

import numpy as np


class BackendMismatchError(ValueError):
    """Operands belong to different group backends."""


class OutOfRangeError(ValueError):
    """Requested element is outside a cached BFS table."""


class EnumerationCapError(ValueError):
    """Requested radius exceeds the backend enumeration cap."""


# Sphere/ball enumeration caps (desk-scale memory bounds).
SPHERE_CAPS = {"lattice": 40, "free": 10, "heisenberg": 12, "product_z": 12}


@dataclass(frozen=True)
class GroupSpec:
    variant: str                      # lattice | free | heisenberg | product_z
    d: int = 0                        # lattice dimension
    rank: int = 0                     # free rank
    inner: Optional["GroupSpec"] = None

    def __post_init__(self):
        if self.variant == "lattice":
            if self.d < 1:
                raise ValueError("lattice dimension must be >= 1")
        elif self.variant == "free":
            if self.rank < 2:
                raise ValueError("free rank must be >= 2")
        elif self.variant == "heisenberg":
            pass
        elif self.variant == "product_z":
            if self.inner is None:
                raise ValueError("product lift needs an inner group")
            if self.inner.variant == "product_z":
                raise ValueError("product lift nesting depth must be <= 1")
        else:
            raise ValueError(f"unknown backend {self.variant!r}")

    def label(self) -> str:
        if self.variant == "lattice":
            return f"Z^{self.d}"
        if self.variant == "free":
            return f"F_{self.rank}"
        if self.variant == "heisenberg":
            return "Heis3"
        return f"({self.inner.label()})xZ"


def integer_lattice(d: int) -> GroupSpec:
    return GroupSpec("lattice", d=d)


def free_group(rank: int) -> GroupSpec:
    return GroupSpec("free", rank=rank)


def heisenberg() -> GroupSpec:
    return GroupSpec("heisenberg")


def product_with_z(inner: GroupSpec) -> GroupSpec:
    return GroupSpec("product_z", inner=inner)


def identity(spec: GroupSpec):
    if spec.variant == "lattice":
        return (0,) * spec.d
    if spec.variant == "free":
        return ()
    if spec.variant == "heisenberg":
        return (0, 0, 0)
    return (identity(spec.inner), 0)


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
    if spec.variant == "heisenberg":
        a, b, c = g
        a2, b2, c2 = h
        return (a + a2, b + b2, c + c2 + a * b2)
    gi, gz = g
    hi, hz = h
    return (mul(spec.inner, gi, hi), gz + hz)


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
    if spec.variant == "heisenberg":
        a, b, c = g
        return (-a, -b, -c + a * b)
    gi, gz = g
    return (inv(spec.inner, gi), -gz)


def _check_element(spec: GroupSpec, g):
    ok = True
    if spec.variant == "lattice":
        ok = isinstance(g, tuple) and len(g) == spec.d
    elif spec.variant == "free":
        ok = isinstance(g, tuple) and all(
            isinstance(x, int) and x != 0 and abs(x) <= spec.rank for x in g
        )
    elif spec.variant == "heisenberg":
        ok = isinstance(g, tuple) and len(g) == 3
    else:
        ok = isinstance(g, tuple) and len(g) == 2 and isinstance(g[1], int)
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
    Heisenberg: {x^{+-1}, y^{+-1}}.  Product: inner generators lifted,
    plus the Z generators.
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
    if spec.variant == "heisenberg":
        return GeneratorSet(spec, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))
    inner_gens = standard_generators(spec.inner)
    e_in = identity(spec.inner)
    gens = tuple((g, 0) for g in inner_gens) + ((e_in, 1), (e_in, -1))
    return GeneratorSet(spec, gens)


def neighbors(spec: GroupSpec, g, gens: GeneratorSet):
    """Right neighbors {g*t : t in gens}; length equals |gens|."""
    return [mul(spec, g, t) for t in gens]


# ---------------------------------------------------------------------------
# Word metrics
# ---------------------------------------------------------------------------

def exact_word_length(spec: GroupSpec, g) -> int:
    """Exact word length where a formula exists (L1 on lattices, reduced
    length on free groups, split length on product lifts)."""
    _check_element(spec, g)
    if spec.variant == "lattice":
        return sum(abs(a) for a in g)
    if spec.variant == "free":
        return len(g)
    if spec.variant == "product_z":
        return exact_word_length(spec.inner, g[0]) + abs(g[1])
    raise ValueError("no exact word-length formula for this backend")


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


@dataclass
class WordMetricOracle:
    """Word-length oracle: exact formula, BFS table, or quasi-norm.

    Quasi-norm mode reports N(g) and carries fitted coarse bi-Lipschitz
    constants (A, B) with A^{-1} N(g) - B <= |g| <= A N(g) + B on the
    calibration ball.
    """

    mode: str                       # exact | bfs | quasi_norm
    spec: GroupSpec
    table: Optional[BfsTable] = None
    bilip: Optional[tuple] = None   # (A, B) for quasi-norm mode

    def length(self, g):
        if self.mode == "exact":
            return exact_word_length(self.spec, g)
        if self.mode == "bfs":
            return self.table.length(g)
        return homogeneous_quasi_norm(g)


def exact_oracle(spec: GroupSpec) -> WordMetricOracle:
    return WordMetricOracle("exact", spec)


def bfs_oracle(spec: GroupSpec, gens: GeneratorSet, r_max: int) -> WordMetricOracle:
    return WordMetricOracle("bfs", spec, table=BfsTable.build(spec, gens, r_max))


def quasi_norm_oracle(spec: GroupSpec, calibration: Optional[BfsTable] = None) -> WordMetricOracle:
    """Heisenberg quasi-norm oracle; fits (A, B) against a BFS table when given."""
    if spec.variant != "heisenberg":
        raise ValueError("quasi-norm mode is Heisenberg-specific")
    bilip = None
    if calibration is not None:
        bilip = fit_bilipschitz(calibration)
    return WordMetricOracle("quasi_norm", spec, bilip=bilip)


def fit_bilipschitz(table: BfsTable) -> tuple:
    """Smallest A on a half-integer grid (with its B) such that
    A^{-1} N(g) - B <= |g| <= A N(g) + B holds over the whole table."""
    pairs = [(homogeneous_quasi_norm(g), L) for g, L in table.dist.items()]
    best = None
    a = 1.0
    while a <= 8.0:
        b = 0.0
        for n, L in pairs:
            b = max(b, n / a - L, L - a * n)
        if best is None or (b < best[1] - 1e-9):
            best = (a, b)
        if b == 0:
            break
        a += 0.5
    return best


# Radius of the BFS table behind word_length on backends without a formula.
WORD_TABLE_RADIUS = 14


def word_length(spec: GroupSpec, g) -> int:
    """Word length in the standard generators: the exact formula where one
    exists, else one radius-WORD_TABLE_RADIUS BFS table per spec, built on
    first use (OutOfRangeError beyond it)."""
    if spec.variant == "heisenberg":
        return _word_table(spec).length(g)
    if spec.variant == "product_z":
        return word_length(spec.inner, g[0]) + abs(g[1])
    return exact_word_length(spec, g)


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

