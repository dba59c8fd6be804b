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
``ball_keys`` (decoded to rows by ``layer_ball``) the one enumerator of
word balls on lattices and Heis3, over int64 keys in a ``KeyBox``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

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


class KeyBox:
    """The box [lo, hi] of coordinate rows, with the mixed-radix int64 key
    of each of its points: key(x) = sum_k (x_k - lo_k) stride_k, strides in
    C order.  Keys are dense in [0, volume) and increase in lexicographic
    order, and between two points of the box they differ by the key offset
    sum_k v_k stride_k of the coordinate difference v.  A box of more than
    KEY_VOLUME_MAX points raises OverflowError, so that a key plus a step's
    offset never leaves int64."""

    def __init__(self, lo, hi):
        shape = [int(b) - int(a) + 1 for a, b in zip(lo, hi)]
        if math.prod(shape) > KEY_VOLUME_MAX:
            raise OverflowError(f"a key box of shape {tuple(shape)} has more "
                                f"than {KEY_VOLUME_MAX} points")
        self.lo = np.array([int(a) for a in lo], dtype=np.int64)
        self.hi = np.array([int(b) for b in hi], dtype=np.int64)
        self.shape = tuple(shape)
        self.strides = np.array([math.prod(shape[k + 1:]) for k in range(len(shape))],
                                dtype=np.int64)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """The key of each row, -1 outside the box."""
        rows = np.asarray(rows, dtype=np.int64)
        # column by column: np.all over the short axis 1 is several times slower
        ok = np.logical_and.reduce([(c >= a) & (c <= b)
                                    for c, a, b in zip(rows.T, self.lo, self.hi)])
        return np.where(ok, self.inner_keys(rows), -1)

    def inner_keys(self, rows: np.ndarray) -> np.ndarray:
        """The key of each row, every row lying in the box (unchecked)."""
        return (rows - self.lo) @ self.strides

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """The coordinate rows of keys of the box, by integer division: a
        (len(keys), d) view of one array that holds an axis at a time."""
        out = np.empty((len(self.shape), len(keys)), dtype=np.int64)
        rest = out[0] = keys
        for k, stride in enumerate(self.strides[:-1]):
            np.divmod(rest, stride, out=(out[k], out[k + 1]))
            rest = out[k + 1]
        out += self.lo[:, None]
        return out.T

    def first(self, keys: np.ndarray) -> np.ndarray:
        """The first coordinate of the point of each key."""
        return keys // self.strides[0] + self.lo[0]

    def holds(self, lo, hi) -> bool:
        """Whether the box [lo, hi] lies inside this one."""
        return bool((self.lo <= lo).all() and (hi <= self.hi).all())

    def product_keys(self, spec: GroupSpec, keys: np.ndarray, step,
                     first: Optional[np.ndarray] = None) -> np.ndarray:
        """The keys of the products x * step for the keys of points x, every
        product lying in the box: key(x) plus the step's key offset, and on
        Heis3, where x * step = (a + a', b + b', c + c' + a b'), plus a b'
        stride_c.  `first` is the first coordinate a of each x, decoded
        from the keys when not given."""
        step = np.asarray(step, dtype=np.int64)
        moved = keys + step @ self.strides
        if spec.variant == "heisenberg" and step[1]:
            if first is None:
                first = self.first(keys)
            moved += first * (step[1] * self.strides[2])
        return moved


# Largest key box: a key plus a step's offset and, on Heis3, its a b' term
# stays below 4 x KEY_VOLUME_MAX.
KEY_VOLUME_MAX = 2 ** 60


def image_span(spec: GroupSpec, lo, hi, steps) -> tuple:
    """(lo, hi) of the box [lo, hi] and of the products x * s of its points
    x with the steps s: every coordinate of a product is affine in each
    coordinate of x (c + c' + a b' on Heis3 too), so the corners of the box
    attain its bounds.  Exact in the dtype of lo, int64 or object (Python
    ints)."""
    lo = np.asarray(lo)
    corners = np.array(list(itertools.product(*zip(lo, hi))), dtype=lo.dtype)
    steps = np.asarray(steps, dtype=lo.dtype).reshape(-1, len(lo))
    img = np.concatenate([corners, mul_rows(spec, corners[:, None], steps)
                          .reshape(-1, len(lo))])
    return img.min(axis=0), img.max(axis=0)


def ball_keys(spec: GroupSpec, center, steps, radius: int,
              with_boundary: bool = False) -> tuple:
    """(box, keys, layers, bkeys): the sorted keys in `box` of B(center,
    radius) in the Cayley graph of the finite step set `steps` on a lattice
    or on Heis3, the layer (distance from center) of each key, and, when
    asked, the sorted keys of the outer boundary (the layer at distance
    radius + 1); otherwise None.  No symmetry of the steps is assumed.

    The box is fixed up front to hold B(center, radius + 1): the span of
    each ball holds the span of the last one and its products with every
    step (``image_span``, in exact integers), and a box whose keys would not
    fit int64 raises OverflowError.  So the keys of a layer's products with
    the steps are shifts of its keys (``KeyBox.product_keys``).  The next
    layer is their sorted unique keys not yet visited, found by one binary
    search against the visited keys and then merged into them."""
    steps = np.array(steps, dtype=np.int64).reshape(len(steps), len(center))
    lo = hi = np.array(center, dtype=object)
    for _ in range(radius + 1):
        lo, hi = image_span(spec, lo, hi, steps)
    box = KeyBox(lo, hi)
    keys = frontier = box.keys(np.array([center], dtype=np.int64))
    layers = np.zeros(1, dtype=np.int32)
    heis = spec.variant == "heisenberg"
    for r in range(radius + int(with_boundary)):
        first = box.first(frontier) if heis else None
        nbrs = np.empty((len(steps), len(frontier)), dtype=np.int64)
        for k, s in enumerate(steps):
            nbrs[k] = box.product_keys(spec, frontier, s, first)
        nbrs = sorted_unique(nbrs.ravel())
        at = np.searchsorted(keys, nbrs)
        new = keys[np.minimum(at, len(keys) - 1)] != nbrs
        frontier = nbrs[new]
        if r < radius:
            keys = np.insert(keys, at[new], frontier)
            layers = np.insert(layers, at[new], r + 1)
    return box, keys, layers, (frontier if with_boundary else None)


def layer_ball(spec: GroupSpec, center, steps, radius: int,
               with_boundary: bool = False) -> tuple:
    """(rows, layers, boundary): the int64 coordinate rows of B(center,
    radius) in the Cayley graph of `steps` on a lattice or on Heis3, in
    lexicographic order, the layer (distance from center) of each row, and,
    when asked, the rows of the outer boundary (the layer at distance
    radius + 1), also in lexicographic order; otherwise None.  The rows
    are the decoded keys of ``ball_keys``, in key order, which is
    lexicographic order."""
    box, keys, layers, bkeys = ball_keys(spec, center, steps, radius, with_boundary)
    return box.rows(keys), layers, (None if bkeys is None else box.rows(bkeys))


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
