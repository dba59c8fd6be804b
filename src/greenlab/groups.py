"""Exact arithmetic, word metrics and the word-ball layer BFS for group backends.

Supported backends: integer lattices Z^d, free groups F_k (k >= 2) and
the discrete Heisenberg group in polynomial normal form.  Elements are
canonical hashable payloads, so that payload equality is group-element
equality:

* lattice: tuple of d ints
* free group: reduced word as a tuple of nonzero ints in {+-1..+-k}
  (negative = inverse letter), no adjacent letter/inverse pair
* Heisenberg: triple (a, b, c) with product law
  (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')

``word_length`` is the one word metric in the standard generators, and
``layer_ball`` the one enumerator of word balls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class BackendMismatchError(ValueError):
    """Operands belong to different group backends."""


class OutOfRangeError(ValueError):
    """Requested element is outside a cached word-length table."""


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


# ---------------------------------------------------------------------------
# Word balls
# ---------------------------------------------------------------------------

def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique of int64 keys by a sort and an adjacent-difference mask,
    which on NumPy 2.x is far faster than np.unique's hash path."""
    keys = np.sort(keys)
    return keys[np.append(True, keys[1:] != keys[:-1])]


def layer_ball(spec: GroupSpec, center, steps, radius: int,
               with_boundary: bool = False) -> tuple:
    """(rows, layers, boundary): the int64 coordinate rows of B(center,
    radius) in the Cayley graph of `steps` on a lattice or on Heis3, in
    lexicographic order, the layer (distance from center) of each row, and,
    when asked, the rows of the outer boundary (the layer at distance
    radius + 1), also in lexicographic order; otherwise None.

    A layer is one row product of the frontier with every step.  Rows are
    deduplicated by int64 keys in the mixed radix of the bounding box of
    the rows seen so far; such a key is monotone in lexicographic order, so
    sorted keys decode to sorted rows."""
    ball = frontier = np.array([center], dtype=np.int64)
    layers = np.zeros(1, dtype=np.int32)
    lo = hi = ball[0]
    steps = np.array(steps, dtype=np.int64).reshape(len(steps), len(lo))
    for r in range(radius + int(with_boundary)):
        nbrs = mul_rows(spec, frontier[:, None], steps).reshape(-1, len(lo))
        span = np.vstack([lo, hi, nbrs])
        lo, hi = span.min(axis=0), span.max(axis=0)
        shape = tuple(hi - lo + 1)
        known = np.ravel_multi_index(tuple((ball - lo).T), shape)
        keys = sorted_unique(np.ravel_multi_index(tuple((nbrs - lo).T), shape))
        at = np.searchsorted(known, keys)
        new = known[np.minimum(at, len(known) - 1)] != keys
        frontier = np.stack(np.unravel_index(keys[new], shape), axis=1) + lo
        if r < radius:
            ball = np.insert(ball, at[new], frontier, axis=0)
            layers = np.insert(layers, at[new], r + 1)
    return ball, layers, (frontier if with_boundary else None)


# ---------------------------------------------------------------------------
# Word metrics
# ---------------------------------------------------------------------------

def homogeneous_quasi_norm(rows) -> np.ndarray:
    """Heisenberg quasi-norm N(g) = |a| + |b| + ceil(sqrt(|c|)) of each
    int64 row g = (a, b, c).  Exact wherever (isqrt|c| + 1)^2 fits in int64:
    above 2^52 the float square root of |c| can be off by one, and integer
    arithmetic corrects it to isqrt|c|."""
    rows = np.asarray(rows, dtype=np.int64)
    c = np.abs(rows[..., 2])
    r = np.sqrt(c).astype(np.int64)
    r -= r * r > c
    r += (r + 1) * (r + 1) <= c
    return np.abs(rows[..., :2]).sum(axis=-1) + r + (r * r < c)


# Radius of the word-length table behind word_length on Heis3.
WORD_TABLE_RADIUS = 14


def word_length(spec: GroupSpec, g) -> int:
    """Word length in the standard generators: the L1 norm on lattices and
    the reduced length on free groups; on Heis3, which has no formula, one
    table of the layers of the radius-WORD_TABLE_RADIUS layer_ball per
    spec, built on first use (OutOfRangeError beyond it)."""
    if spec.variant == "heisenberg":
        try:
            return _word_table(spec)[g]
        except KeyError:
            raise OutOfRangeError(
                f"{g!r} beyond word-table radius {WORD_TABLE_RADIUS}") from None
    _check_element(spec, g)
    if spec.variant == "lattice":
        return sum(abs(a) for a in g)
    return len(g)


@functools.lru_cache(maxsize=None)
def _word_table(spec: GroupSpec) -> dict:
    """{element: word length} over B(e, WORD_TABLE_RADIUS)."""
    rows, layers, _ = layer_ball(spec, identity(spec),
                                 standard_generators(spec).elements,
                                 WORD_TABLE_RADIUS)
    return dict(zip(map(tuple, rows.tolist()), layers.tolist()))
