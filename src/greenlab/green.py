"""Killed-domain Green solves, exit distributions, boundary Green matrices,
Monte Carlo hitting estimators on trees, and the quarter-plane killed walk.

Conventions.  For a finite domain Omega and a finite-range symmetric step
law mu, the killed Green table solves (I - P_Omega) v = delta_a where
P_Omega[x, y] = mu(x^{-1} y) for x, y in Omega; v equals G_Omega(a, .),
the expected visit counts before exiting Omega.  Killed values increase
monotonically to the full Green function as Omega grows.  The outer
boundary of a set S is always taken with respect to T = supp(mu), and that
choice is recorded on the domain.

A lattice table above QUOTIENT_MIN points is solved on the orbit quotient
of its symmetries.  The signed permutations of the axes that fix every
source, preserve mu and map Omega onto itself form a group H, and
G_Omega(a, .) is constant on the H-orbits; on a ball about the origin with
SRW and the origin as source, |H| = 48.  The solver assembles the Galerkin
quotient Q^T (I - P) Q (Q the orbit indicator) on one representative per
orbit, solves it, and lifts the solution back to Omega (Fassler &
Stiefel, *Group Theoretical Methods and Their Applications*, 1992).

Every killed system, full or quotient, is solved by one of two methods: a
direct factorization, or plain conjugate gradients.  SciPy's sparse
modules are the lazy module attributes ``sp`` and ``spla``
(``greenlab._LazyModule``), imported the first time a table is solved.
Importing greenlab therefore loads no SciPy, which is most of the start-up
time (the benchmark's ``setup_s``) of runs that never solve.  ``spla``
supplies only the direct factorization ``splu``; conjugate gradients are
this module's own loop, ``cg``, whose reductions never enter BLAS, so a
table's bytes do not depend on the BLAS thread count.  The sources of a
table are solved concurrently, in up to ``greenlab.CPUS`` threads, each
with the same arithmetic as alone.  Every function here looks ``spla``
and ``cg`` up at call time, so a caller that rebinds ``green.spla`` and
``green.cg`` (as the benchmark's tracer does) sees every solver call.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _LazyModule, groups, thread_map
from .groups import GroupSpec, identity, inv, mul
from .measures import StepMeasure, uniform_on_generators

sp = _LazyModule("scipy.sparse")
spla = _LazyModule("scipy.sparse.linalg")

DIRECT_SOLVE_MAX = 4000       # direct factorization below this many unknowns
DEFAULT_TOL = 1e-10
# Lattice tables above this many points are solved on the orbit quotient
# of their axis symmetries.  Smaller tables are solved on the full system,
# where plain CG takes at most ~0.3 s, so they (and every value recorded
# from them) do not depend on the quotient's arithmetic.
QUOTIENT_MIN = 100_000


class TransienceError(ValueError):
    """Full-plane Green request on a non-transient backend."""


class SolverError(RuntimeError):
    pass


def check_transient(spec: GroupSpec) -> None:
    if spec.variant == "lattice" and spec.d <= 2:
        raise TransienceError(
            f"{spec.label()} walk is recurrent; only the quadrant-killed "
            "Z^2 case is supported")


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

class Domain:
    """Finite element set S with optional outer boundary w.r.t. support T.

    Two kinds exist: ``_LatticeDomain`` (int64 coordinate rows on Z^d or
    Heis3, with a dense grid lookup) and ``_FreeBallDomain`` (int-coded
    word balls in F_k for the standard support about the identity).  Every
    consumer reads a domain through one index protocol:

    * ``positions(payloads)``: the index of each payload in ``elements``,
      or -1 outside S (int64 array);
    * ``step_table(steps)``: int64 table [n, m] whose entry (i, k) locates
      elements[i] * steps[k]: values in [0, n) lie in S, n + j is
      ``boundary[j]``, and -1 is any other point (every point outside S when
      the domain carries no boundary).

    ``elements`` and ``boundary`` keep a canonical order, because cached
    tables are positional; ``label`` names the domain in cache keys.
    """

    spec: GroupSpec
    label: str
    boundary: Optional[list]
    support: tuple

    def __contains__(self, g):
        return self.lookup(g) is not None

    def lookup(self, g) -> Optional[int]:
        i = int(self.positions([g])[0])
        return None if i < 0 else i


def _sorted_positions(sorted_vals: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Index of each value in a sorted array, -1 when absent."""
    i = np.clip(np.searchsorted(sorted_vals, vals), 0, len(sorted_vals) - 1)
    return np.where(sorted_vals[i] == vals, i, -1)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique of int64 keys by a sort and an adjacent-difference mask,
    which on NumPy 2.x is far faster than np.unique's hash path."""
    keys = np.sort(keys)
    return keys[np.append(True, keys[1:] != keys[:-1])]


@contextlib.contextmanager
def _gc_paused():
    """Run the body with the cyclic garbage collector off, then restore it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _FreeBallDomain(Domain):
    """Word ball in F_k with int-coded elements (letters base 2k, lead marker).

    Letter codes: generator i -> 2(i-1), its inverse -> 2(i-1)+1; appending
    letter l to code c is (c << s) | l unless it cancels the last letter
    (l == last ^ 1), in which case c >> s.  Elements are in code order
    (shortlex); the boundary is in payload order, and both are decoded to
    tuples on first read.  Used only for the standard one-letter support.
    """

    def __init__(self, spec: GroupSpec, radius: int, with_boundary: bool):
        self.two_k = 2 * spec.rank
        self.shift = int(np.ceil(np.log2(self.two_k)))
        # level r holds the codes of reduced words of length exactly r; a
        # non-cancelling append is exactly a step whose code crosses the
        # next length threshold 2^(shift*(r+1))
        levels = [np.array([1], dtype=np.int64)]
        for r in range(radius + int(with_boundary)):
            stepped = np.concatenate([self._append(levels[-1], letter)
                                      for letter in range(self.two_k)])
            thresh = np.int64(1) << (self.shift * (r + 1))
            levels.append(_sorted_unique(stepped[stepped >= thresh]))
        self.codes = np.sort(np.concatenate(levels[:radius + 1]))
        self.radius = radius
        self._bcodes = levels[radius + 1] if with_boundary else None
        if with_boundary:
            # payload order is the letter-wise order -k < ... < -1 < 1 < ... < k
            # on words of one length: the base-2k number of the letter ranks
            k = spec.rank
            rank = np.zeros(1 << self.shift, dtype=np.int64)
            rank[0:2 * k:2] = np.arange(k, 2 * k)        # generator i: k + i - 1
            rank[1:2 * k:2] = np.arange(k - 1, -1, -1)   # its inverse: k - i
            key = np.zeros(len(self._bcodes), dtype=np.int64)
            for l in self._letter_columns(self._bcodes, radius + 1):
                key = key * self.two_k + rank[l]
            self._bslot = np.empty(len(key), dtype=np.int64)
            self._bslot[np.argsort(key)] = np.arange(len(key))
        self.spec = spec
        self.label = f"ball[F_{spec.rank},R={radius}]"
        self.support = tuple(groups.standard_generators(spec).elements)
        self._elements = None
        self._boundary = None

    def _append(self, codes: np.ndarray, letter: int) -> np.ndarray:
        s = self.shift
        cancel = (codes != 1) & ((codes & ((1 << s) - 1)) == (letter ^ 1))
        return np.where(cancel, codes >> s, (codes << s) | letter)

    def _letter_columns(self, codes: np.ndarray, length: int):
        """The letter codes of words of one length, first letter first."""
        s = self.shift
        for j in range(length - 1, -1, -1):
            yield (codes >> (s * j)) & ((1 << s) - 1)

    def _words(self, codes: np.ndarray, length: int) -> list:
        """decode(c) for each code c of a word of the given length."""
        words = np.empty((len(codes), length), dtype=np.int8)
        for j, l in enumerate(self._letter_columns(codes, length)):
            words[:, j] = np.where(l & 1, -(l >> 1) - 1, (l >> 1) + 1)
        return [tuple(w) for w in words.tolist()]

    # -- payload conversions -------------------------------------------------

    @staticmethod
    def _letter(letter: int) -> int:
        return 2 * (abs(letter) - 1) + (1 if letter < 0 else 0)

    def encode(self, word: tuple) -> int:
        c = 1
        for letter in word:
            c = (c << self.shift) | self._letter(letter)
        return c

    def decode(self, code: int) -> tuple:
        letters = []
        s = self.shift
        while code != 1:
            l = code & ((1 << s) - 1)
            sign = -1 if (l & 1) else 1
            letters.append(sign * (l // 2 + 1))
            code >>= s
        return tuple(reversed(letters))

    # -- index protocol ------------------------------------------------------

    # The tuple lists are built with the cyclic garbage collector paused:
    # millions of new tuples trigger collections over and over, and none of
    # them is garbage.  On F_2 at R = 12 (2-vCPU machine) the first
    # boundary read fell from 4.5 to 2.7 s, and elements, built by columns
    # in place of one decode per code, from 4.4 to 0.9 s.

    @property
    def elements(self):
        if self._elements is None:
            # the codes of words of length r lie in [2^(shift r), 2^(shift (r+1)))
            ends = np.searchsorted(self.codes, [1 << (self.shift * r)
                                                for r in range(self.radius + 2)])
            with _gc_paused():
                self._elements = []
                for r in range(self.radius + 1):
                    self._elements += self._words(self.codes[ends[r]:ends[r + 1]], r)
        return self._elements

    @property
    def boundary(self):
        if self._boundary is None and self._bcodes is not None:
            order = np.empty_like(self._bslot)
            order[self._bslot] = np.arange(len(order))
            with _gc_paused():
                self._boundary = self._words(self._bcodes[order], self.radius + 1)
        return self._boundary

    def __len__(self):
        return len(self.codes)

    def positions(self, payloads) -> np.ndarray:
        codes = np.array([self.encode(w) for w in payloads], dtype=np.int64)
        return _sorted_positions(self.codes, codes)

    def step_table(self, steps) -> np.ndarray:
        n = len(self.codes)
        table = np.empty((n, len(steps)), dtype=np.int64)
        for j, word in enumerate(steps):
            c = self.codes
            for letter in word:
                c = self._append(c, self._letter(letter))
            i = _sorted_positions(self.codes, c)
            if self._bcodes is not None:
                k = _sorted_positions(self._bcodes, c)
                i = np.where(i >= 0, i, np.where(k >= 0, n + self._bslot[k], -1))
            table[:, j] = i
        return table


class _LatticeDomain(Domain):
    """Finite set of int64 coordinate rows, on Z^d or on Heis3 (rows
    (a, b, c)), in lexicographic order, with a dense grid over the bounding
    window of S and its boundary for O(1) vector lookups: the grid holds i
    at elements[i], n + j at boundary[j] and -1 elsewhere.  A step table
    pads the grid by the reach of its steps, so each column is one
    flat-index gather; on Heis3 a step s moves c by c_s + a b_s, so its
    column adds the per-row central offset a b_s stride_c and the c axis is
    padded by that reach too.  Elements are decoded to tuples lazily."""

    def __init__(self, spec: GroupSpec, label: str, coords: np.ndarray,
                 bcoords: Optional[np.ndarray], support: tuple):
        self.spec, self.label, self.support = spec, label, support
        self.coords = coords
        pts = coords if bcoords is None else np.concatenate([coords, bcoords])
        self.lo = pts.min(axis=0)
        self.grid = np.full(tuple(pts.max(axis=0) - self.lo + 1), -1, dtype=np.int32)
        self.grid[tuple((pts - self.lo).T)] = np.arange(len(pts), dtype=np.int32)
        self.boundary = None if bcoords is None else [tuple(r) for r in bcoords.tolist()]
        self._elements = None

    @property
    def elements(self):
        if self._elements is None:
            self._elements = [tuple(r) for r in self.coords.tolist()]
        return self._elements

    def __len__(self):
        return len(self.coords)

    def _rows(self, payloads) -> np.ndarray:
        return np.asarray(payloads, dtype=np.int64).reshape(-1, self.coords.shape[1])

    def _grid_at(self, pts: np.ndarray) -> np.ndarray:
        rel = pts - self.lo
        ok = np.all((rel >= 0) & (rel < self.grid.shape), axis=1)
        flat = np.ravel_multi_index(tuple(rel.T), self.grid.shape, mode="clip")
        return np.where(ok, self.grid.ravel()[flat], np.int64(-1))

    def positions(self, payloads) -> np.ndarray:
        i = self._grid_at(self._rows(payloads))
        return np.where(i < len(self), i, -1)

    def step_table(self, steps) -> np.ndarray:
        steps = self._rows(steps)
        reach = np.abs(steps).max(axis=0, initial=0)
        heis = self.spec.variant == "heisenberg"
        if heis:
            reach[2] += np.abs(self.coords[:, 0]).max() * reach[1]
        padded = np.pad(self.grid, [(r, r) for r in reach], constant_values=-1)
        strides = np.array(padded.strides) // padded.itemsize
        base = (self.coords - self.lo + reach) @ strides
        flat = padded.ravel()
        central = self.coords[:, 0] * strides[2] if heis else None
        table = np.empty((len(self), len(steps)), dtype=np.int64)
        for k, offset in enumerate(steps @ strides):
            idx = base + offset
            if heis and steps[k, 1]:
                idx += steps[k, 1] * central
            table[:, k] = flat[idx]
        return table


def _l1_ball_coords(d: int, radius: int, shell: bool) -> np.ndarray:
    """Points of Z^d with |x|_1 <= radius (or == radius + 1 when shell), in
    lexicographic order."""
    ax = np.abs(np.arange(-radius - 1, radius + 2, dtype=np.int32))
    l1 = functools.reduce(np.add.outer, [ax] * d)
    mask = (l1 == radius + 1) if shell else (l1 <= radius)
    return np.argwhere(mask) - (radius + 1)


def _coordinate_ball(spec: GroupSpec, center, steps: list, radius: int,
                     with_boundary: bool) -> tuple:
    """Coordinate rows of B(center, radius) and, when asked, of its outer
    boundary (the layer at distance radius + 1), each in lexicographic
    order, by a layer BFS: a layer is one row product of the frontier with
    every step.  Rows are deduplicated by int64 keys in the mixed radix of
    the bounding box of the rows seen so far; such a key is monotone in
    lexicographic order, so sorted keys decode to sorted rows."""
    ball = frontier = np.array([center], dtype=np.int64)
    lo = hi = ball[0]
    steps = np.array(steps, dtype=np.int64).reshape(len(steps), len(lo))
    for r in range(radius + int(with_boundary)):
        nbrs = groups.mul_rows(spec, frontier[:, None], steps).reshape(-1, len(lo))
        span = np.vstack([lo, hi, nbrs])
        lo, hi = span.min(axis=0), span.max(axis=0)
        shape = tuple(hi - lo + 1)
        known = np.ravel_multi_index(tuple((ball - lo).T), shape)
        keys = _sorted_unique(np.ravel_multi_index(tuple((nbrs - lo).T), shape))
        at = np.searchsorted(known, keys)
        new = known[np.minimum(at, len(known) - 1)] != keys
        frontier = np.stack(np.unravel_index(keys[new], shape), axis=1) + lo
        if r < radius:
            ball = np.insert(ball, at[new], frontier, axis=0)
    return ball, (frontier if with_boundary else None)


def ball_domain(spec: GroupSpec, mu: StepMeasure, radius: int, center=None,
                with_boundary: bool = True) -> Domain:
    """Word-metric ball B(center, radius) in the Cayley graph of supp(mu).

    Free-group balls are built only for the standard support about the
    identity; any other free ball raises ValueError."""
    support = tuple(sorted(mu.support_elements()))
    e = identity(spec)
    steps = [s for s in support if s != e]
    if center is None:
        center = e
    standard = set(steps) == set(groups.standard_generators(spec).elements)
    if spec.variant == "free":
        if not (standard and center == e):
            raise ValueError("free-group balls need the standard support "
                             "and the identity as centre")
        return _FreeBallDomain(spec, radius, with_boundary)
    label = f"ball[{spec.label()},R={radius}]"
    if center != e:
        label = f"ball[{spec.label()},R={radius},center={center!r}]"
    if spec.variant == "lattice" and standard:
        c = np.asarray(center, dtype=np.int64)
        bcoords = _l1_ball_coords(spec.d, radius, True) + c if with_boundary else None
        return _LatticeDomain(spec, label, _l1_ball_coords(spec.d, radius, False) + c,
                              bcoords, support)
    coords, bcoords = _coordinate_ball(spec, center, steps, radius, with_boundary)
    return _LatticeDomain(spec, label, coords, bcoords, support)


def box_domain(spec: GroupSpec, mu: StepMeasure, halfwidth: int) -> Domain:
    """Lattice box [-L, L]^d with its outer boundary w.r.t. supp(mu)."""
    if spec.variant != "lattice":
        raise ValueError("box domains are lattice-only")
    support = tuple(sorted(mu.support_elements()))
    steps = np.array(support, dtype=np.int64).reshape(-1, spec.d)
    axes = [np.arange(-halfwidth, halfwidth + 1)] * spec.d
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, spec.d)
    stepped = (coords[:, None, :] + steps[None, :, :]).reshape(-1, spec.d)
    outside = stepped[np.abs(stepped).max(axis=1) > halfwidth]
    return _LatticeDomain(spec, f"box[{spec.label()},L={halfwidth}]", coords,
                          np.unique(outside, axis=0), support)


# ---------------------------------------------------------------------------
# Killed Green tables
# ---------------------------------------------------------------------------

@dataclass
class GreenTable:
    """Killed-domain Green values G_Omega(a, .) for each source a."""

    omega: Domain
    sources: list
    values: np.ndarray            # shape (n_sources, |Omega|)
    residuals: np.ndarray
    laziness: float
    measure_name: str
    tol: float
    # how the table was solved: "direct" or "cg", and CG iterations per
    # source (0 for direct)
    method: str
    iterations: np.ndarray
    # the order of the symmetry group H whose orbit quotient was solved (1
    # when not reduced) and the number of unknowns solved for (its orbit
    # count)
    symmetry_order: int
    unknowns: int

    def green(self, a, x) -> float:
        return float(self.row_at(a, [x])[0])

    def row(self, a) -> np.ndarray:
        if a not in self.sources:
            raise KeyError(f"{a!r} is not a tabulated source")
        return self.values[self.sources.index(a)]

    def row_at(self, a, xs) -> np.ndarray:
        """G_Omega(a, x) for each x in xs."""
        pos = self.omega.positions(xs)
        if (pos < 0).any():
            raise KeyError(f"{xs[int(np.argmin(pos))]!r} outside the computation domain")
        return self.row(a)[pos]

    def bracket_row(self, a, xs) -> tuple:
        """The provider method: (values, lowers, uppers) over xs, each
        killed value widened by 10 x the largest solver residual.  The
        bracket is of G_Omega, not of the full G; the domain label says
        which Omega."""
        v = self.row_at(a, xs)
        r = 10.0 * self.max_residual()
        return v, np.maximum(v - r, 0.0), v + r

    def max_residual(self) -> float:
        return float(self.residuals.max())

    def restricted(self, sources) -> GreenTable:
        """The rows of `sources` alone (the table itself when they are all
        of its sources), so the error brackets see only their residuals."""
        if set(sources) == set(self.sources):
            return self
        idx = [self.sources.index(s) for s in sources]
        return replace(self, sources=list(sources), values=self.values[idx],
                       residuals=self.residuals[idx],
                       iterations=self.iterations[idx])


def _steps(spec: GroupSpec, mu: StepMeasure) -> tuple:
    """Non-identity support of mu (sorted) with its probabilities."""
    e = identity(spec)
    steps = [s for s in mu.support_elements() if s != e]
    return steps, np.array([mu.pmf(s) for s in steps])


@dataclass
class _Orbits:
    """Orbits on a domain of a group H of its symmetries: the orbit of each
    point, the index of each orbit's representative, and the orbit sizes,
    with orbits numbered in the order of their representatives."""

    order: int                    # |H|
    label: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray

    @classmethod
    def trivial(cls, n: int) -> "_Orbits":
        return cls(1, np.arange(n), np.arange(n), np.ones(n))


def _axis_symmetries(omega: Domain, mu: StepMeasure, sources: list) -> tuple:
    """(flippable axes, blocks of interchangeable axes) of a lattice domain.

    A move x -> sign * x[perm] is a single-axis sign flip or an axis
    transposition; it is kept when it fixes every source, preserves mu on
    its support, and maps Omega onto itself.  A move is an involution, so
    the last holds when it maps the bounding box of Omega onto itself and
    Omega's indicator over that box (a slice of the dense grid) onto
    itself, by a transpose or a flip.  The kept moves generate the group H
    of signed permutations that flip any flippable axis and permute each
    block: a product of two kept moves is a symmetry too, so the flippable
    axes are a union of blocks and every transposition inside a block is
    kept.
    """
    d = omega.spec.d
    src = np.array(sources, dtype=np.int64).reshape(-1, d)
    probs = [(np.array(s), mu.pmf(s)) for s in mu.support_elements()]
    lo, hi = omega.coords.min(axis=0), omega.coords.max(axis=0)
    box = omega.grid[tuple(slice(a, b + 1) for a, b in zip(lo - omega.lo, hi - omega.lo))]
    inside = (box >= 0) & (box < len(omega))

    def symmetry(perm, sign) -> bool:
        corners = np.sort([sign * lo[perm], sign * hi[perm]], axis=0)
        return (np.array_equal(src[:, perm] * sign, src)
                and all(mu.pmf(tuple(int(c) for c in s[perm] * sign)) == p
                        for s, p in probs)
                and np.array_equal(corners, [lo, hi])
                and np.array_equal(np.flip(inside.transpose(perm),
                                           axis=tuple(np.flatnonzero(sign < 0))),
                                   inside))

    axes = np.arange(d)
    flips = [k for k in range(d) if symmetry(axes, np.where(axes == k, -1, 1))]
    block = list(range(d))          # the smallest axis of each axis's block
    for k in range(d):
        for l in range(k + 1, d):
            swap = np.where(axes == k, l, np.where(axes == l, k, axes))
            if block[l] == l and symmetry(swap, np.ones(d, dtype=np.int64)):
                block[l] = block[k]
    blocks = [[l for l in range(d) if block[l] == k] for k in sorted(set(block))]
    return flips, blocks


def _symmetry_orbits(omega: Domain, mu: StepMeasure, sources: list) -> _Orbits:
    """Orbits of the axis symmetries H (``_axis_symmetries``) on a lattice
    domain above QUOTIENT_MIN points; the trivial orbits elsewhere.

    The representative of an orbit is its canonical point: |x_k| on the
    flippable axes, then the coordinates of each block in ascending order
    (sorted by compare-exchange passes over the block's columns).
    """
    n = len(omega)
    if omega.spec.variant != "lattice" or n <= QUOTIENT_MIN:
        return _Orbits.trivial(n)
    flips, blocks = _axis_symmetries(omega, mu, sources)
    order = 2 ** len(flips) * math.prod(math.factorial(len(b)) for b in blocks)
    if order == 1:
        return _Orbits.trivial(n)
    canon = omega.coords.T.copy()           # one contiguous row per axis
    canon[flips] = np.abs(canon[flips])
    for b in blocks:
        for top in range(len(b) - 1, 0, -1):
            for j in range(top):
                x, y = canon[b[j]], canon[b[j + 1]]
                canon[b[j]], canon[b[j + 1]] = np.minimum(x, y), np.maximum(x, y)
    first = omega.positions(canon.T)
    is_rep = np.zeros(n, dtype=bool)
    is_rep[first] = True
    label = (np.cumsum(is_rep) - 1)[first]
    return _Orbits(order, label, np.flatnonzero(is_rep),
                   np.bincount(label).astype(np.float64))


def _operator(omega: Domain, mu: StepMeasure,
              orbits: Optional[_Orbits] = None) -> sp.csr_matrix:
    """I - P restricted to Omega (SPD for symmetric substochastic P).

    Given the orbits of a symmetry group H of a lattice domain, it is the
    Galerkin quotient M = Q^T (I - P) Q instead, Q the n x m orbit
    indicator: M[i, j] = w_i (delta_ij (1 - mu(e)) - sum of mu(s) over the
    steps s with x_i + s in orbit j), x_i the representative and w_i the
    size of orbit i.  M is I - P restricted to H-invariant vectors, so it
    is SPD too; it is assembled from m x |steps| lookups of x_i + s, so no
    full-domain step table is built.
    """
    if not mu.finite_range():
        raise ValueError("killed solver requires a finite-support measure")
    steps, p = _steps(omega.spec, mu)
    if orbits is None:
        table = omega.step_table(steps)
    else:
        pts = omega.coords[orbits.reps, None, :] + np.array(steps, dtype=np.int64)
        pos = omega.positions(pts.reshape(-1, omega.spec.d)).reshape(pts.shape[:2])
        table = np.where(pos >= 0, orbits.label[pos], -1)
    n = len(table)
    # one column per step plus the diagonal; summing duplicates (steps into
    # one orbit) and sorting each row's indices yields the canonical CSR
    cols = np.empty((n, len(steps) + 1), dtype=np.int32)
    cols[:, :-1] = table
    cols[:, -1] = np.arange(n)
    inside = (cols >= 0) & (cols < n)
    weights = np.append(-p, 1.0 - mu.pmf(identity(omega.spec)))
    counts = inside.sum(axis=1)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    mat = sp.csr_matrix((np.broadcast_to(weights, cols.shape)[inside], cols[inside],
                         indptr), shape=(n, n))
    if orbits is not None:
        mat.data *= np.repeat(orbits.sizes, counts)
    mat.sum_duplicates()
    return mat


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y by NumPy's own sum-of-products loop, never BLAS: the sum does
    not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", x, y))


def cg(mat, rhs: np.ndarray, tol: float, maxiter: int) -> tuple:
    """Conjugate gradients (Hestenes & Stiefel, J. Res. NBS 49, 1952) for
    an SPD matrix from x = 0; returns (x, iterations) once
    ||rhs - mat x||_2 < tol, and raises SolverError after maxiter.

    The updates follow scipy.sparse.linalg.cg in order.  The reductions
    are ``_dot``, so x is the same for every BLAS thread count; the sparse
    product and the in-place updates release the GIL, so several
    right-hand sides can run in threads.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    step = np.empty_like(rhs)           # alpha p, then alpha q
    p, rr_prev = None, 0.0
    for iteration in range(maxiter):
        rr = _dot(r, r)
        if math.sqrt(rr) < tol:
            return x, iteration
        if p is None:
            p = r.copy()
        else:
            p *= rr / rr_prev
            p += r
        q = mat @ p
        alpha = rr / _dot(p, q)
        np.multiply(alpha, p, out=step)
        x += step
        np.multiply(alpha, q, out=step)
        r -= step
        rr_prev = rr
    raise SolverError(f"CG did not reach the tolerance {tol:g} in {maxiter} iterations")


def killed_green_solve(omega: Domain, sources: list, mu: StepMeasure,
                       tol: float = DEFAULT_TOL, method: str = "auto") -> GreenTable:
    """Solve (I - P_Omega) v = delta_a per source by an SPD method.

    A lattice table above QUOTIENT_MIN points is solved on the orbit
    quotient of its axis symmetries H (``_symmetry_orbits``): v is constant
    on H-orbits, so it lifts from the solution u of the Galerkin quotient
    M u = e_{orbit(a)} (``_operator``) by v = u[orbit].  The residual of v
    is H-invariant, so its max norm is max_i |(M u - rhs)_i| / w_i, and
    the 2-norm of the quotient residual bounds the full one from above.
    When H is trivial the quotient is the full system.

    method "direct" factorizes the system once (``splu``), "cg" runs plain
    conjugate gradients (``cg``) per source, and "auto" factorizes below
    DIRECT_SOLVE_MAX unknowns (or when many sources are requested and
    memory allows) and runs CG otherwise; residuals are reported per
    source.  The sources are solved by ``greenlab.thread_map``, in up to
    CPUS threads, each with the same arithmetic as alone.
    """
    if method not in ("auto", "direct", "cg"):
        raise ValueError(f"unknown method {method!r}; use 'auto', 'direct' or 'cg'")
    for a in sources:
        if a not in omega:
            raise ValueError(f"source {a!r} outside the domain")
    orbits = _symmetry_orbits(omega, mu, sources)
    mat = _operator(omega, mu, orbits if orbits.order > 1 else None)
    m = len(orbits.reps)
    if method == "auto":
        if m <= DIRECT_SOLVE_MAX or (len(sources) > 8 and m <= 120000):
            method = "direct"
        else:
            method = "cg"
    lu = spla.splu(mat.tocsc()) if method == "direct" else None
    vals = np.zeros((len(sources), len(omega)))
    residuals = np.zeros(len(sources))
    iterations = np.zeros(len(sources), dtype=np.int64)

    def solve(i: int) -> None:
        a = sources[i]
        rhs = np.zeros(m)
        rhs[orbits.label[omega.lookup(a)]] = 1.0
        if lu is not None:
            u = lu.solve(rhs)
        else:
            u, iterations[i] = cg(mat, rhs, tol, 20 * m)
        res = float(np.max(np.abs(mat @ u - rhs) / orbits.sizes))
        if res > 100 * max(tol, 1e-14):
            raise SolverError(f"residual {res:g} above tolerance for source {a!r}")
        vals[i] = u[orbits.label]
        residuals[i] = res

    thread_map(solve, len(sources))
    return GreenTable(omega, list(sources), vals, residuals,
                      mu.laziness, mu.name, tol, method, iterations,
                      orbits.order, m)


# ---------------------------------------------------------------------------
# Exit distributions
# ---------------------------------------------------------------------------

@dataclass
class ExitDistribution:
    domain: Domain
    start: object
    vector: np.ndarray            # exit probability per point of domain.boundary

    @property
    def probs(self) -> dict:
        """Boundary point -> probability, over the points carrying mass."""
        return {z: v for z, v in zip(self.domain.boundary, self.vector.tolist())
                if v != 0.0}

    def total(self) -> float:
        return float(self.vector.sum())


def exit_distribution(domain: Domain, a, mu: StepMeasure,
                      tol: float = DEFAULT_TOL) -> ExitDistribution | list:
    """Law of the first position outside S started from a in S, as a vector
    over ``domain.boundary``; for a list of start points, the list of their
    laws.

    mu_S(a, z) = sum_{y in S} G_S(a, y) mu(y^{-1} z) from the
    absorbing-chain linear system on S, one killed solve for every start.
    Raises ValueError when the domain carries no boundary.
    """
    starts = a if isinstance(a, list) else [a]
    if domain.boundary is None:
        raise ValueError("domain carries no boundary")
    if any(s not in domain for s in starts):
        raise ValueError("start point must lie in S")
    n, m = len(domain), len(domain.boundary)
    steps, p = _steps(domain.spec, mu)
    table = domain.step_table(steps)
    if (table < 0).any():
        raise ValueError("a step leaves S outside its recorded boundary")
    gvals = killed_green_solve(domain, starts, mu, tol).values
    # row-major (element, step) order keeps each boundary sum in the order
    # of a loop over elements
    i, k = np.nonzero(table >= n)
    laws = [ExitDistribution(domain, s, np.bincount(
                table[i, k] - n, weights=g[i] * p[k], minlength=m))
            for s, g in zip(starts, gvals)]
    return laws if isinstance(a, list) else laws[0]


def verify_exit_decomposition(domain: Domain, a, x, mu: StepMeasure,
                              table: GreenTable) -> float:
    """|G(a,x) - sum_z mu_S(a,z) G(z,x)| on the table's computation domain.

    The identity holds exactly for killed Green values once S and its
    boundary lie inside the computation domain, so the residual is
    solver-level.
    """
    if x in domain:
        raise ValueError("x must lie outside S")
    exits = exit_distribution(domain, a, mu, tol=table.tol)
    lhs = table.green(a, x)
    rhs = sum(p * table.green(z, x) for z, p in exits.probs.items())
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Boundary Green matrix
# ---------------------------------------------------------------------------

@dataclass
class BoundaryGreenMatrix:
    domain: Domain
    matrix: np.ndarray
    spd_ok: bool
    min_eigenvalue: float
    symmetry_defect: float


def boundary_green_matrix(domain: Domain, table: GreenTable) -> BoundaryGreenMatrix:
    """M_S[x, z] = G(z, x) over the outer boundary, with an SPD certificate.

    The certificate is a successful Cholesky factorization plus the smallest
    eigenvalue.  Failure is flagged as a numerical-error signal (the matrix
    is provably SPD for symmetric transient kernels, being a principal
    submatrix of the inverse of the SPD operator I - P).
    """
    bdry = domain.boundary
    mat = np.ascontiguousarray(np.array([table.row_at(z, bdry) for z in bdry]).T)
    sym_defect = float(np.max(np.abs(mat - mat.T)))
    mat_sym = 0.5 * (mat + mat.T)
    try:
        np.linalg.cholesky(mat_sym)
        chol_ok = True
    except np.linalg.LinAlgError:
        chol_ok = False
    min_eig = float(np.linalg.eigvalsh(mat_sym)[0])
    return BoundaryGreenMatrix(domain, mat, chol_ok and min_eig > 0,
                               min_eig, sym_defect)


def vector_identity_residual(domain: Domain, a, mu: StepMeasure,
                             table: GreenTable,
                             bgm: Optional[BoundaryGreenMatrix] = None) -> float:
    """max-norm of M_S mu_S(a) - g_S(a) (the vector exit identity)."""
    if bgm is None:
        bgm = boundary_green_matrix(domain, table)
    exits = exit_distribution(domain, a, mu, tol=table.tol)
    g_vec = table.row_at(a, domain.boundary)
    return float(np.max(np.abs(bgm.matrix @ exits.vector - g_vec)))


# ---------------------------------------------------------------------------
# Monte Carlo hitting estimators on trees
# ---------------------------------------------------------------------------

@dataclass
class McGreenEstimate:
    value: float
    hit_fraction: float
    ci95: float
    bias_bound: float
    trials: int
    path_cap: int
    bias_flag: bool


def tree_distance_chain(rank: int, start_dist: int, walkers: int,
                        rng: np.random.Generator, laziness: float = 0.0):
    """Distances to a fixed vertex of ``walkers`` independent (lazy) SRWs on
    the 2k-regular tree: yields the start distances, then the distances
    after each step, drawing rng.random(walkers) once per step.

    From r >= 1 exactly one neighbor is closer, so the distance is a
    birth-death chain (down w.p. (1 - laziness)/2k); exact in law by
    vertex-isotropy of the tree.
    """
    two_k = 2 * rank
    d = np.full(walkers, start_dist, dtype=np.int64)
    while True:
        yield d
        u = rng.random(walkers)
        stay = u < laziness
        down = (~stay) & (d > 0) & (u < laziness + (1 - laziness) / two_k)
        d = d + np.where(stay, 0, np.where(down, -1, 1))


def _tree_only(spec: GroupSpec) -> None:
    if spec.variant != "free":
        raise ValueError("Monte Carlo Green estimates run on trees only; "
                         "lattices read G from a killed solve")


def mc_green_diagonal(spec: GroupSpec, mu: StepMeasure, trials: int,
                      path_cap: int, rng: np.random.Generator) -> tuple:
    """(estimate, ci95) for G(e,e) = mean visits to e from e within the cap,
    for (lazy) SRW on a tree."""
    _tree_only(spec)
    visits = np.zeros(trials, dtype=np.int64)
    for _, d in zip(range(path_cap + 1), tree_distance_chain(
            spec.rank, 0, trials, rng, mu.laziness)):
        visits += d == 0
    est = float(visits.mean())
    ci = 1.96 * float(visits.std(ddof=1)) / np.sqrt(trials)
    return est, ci


def mc_hitting_green(spec: GroupSpec, mu: StepMeasure, a, x, trials: int,
                     rng: np.random.Generator, path_cap: Optional[int] = None,
                     gee: Optional[float] = None) -> McGreenEstimate:
    """Estimate G(a, x) = F(a, x) G(e, e) from empirical hitting frequencies
    of (lazy) SRW on a tree; the default cap is 20 steps per unit of
    distance, at least 100.

    The confidence band is a binomial 95% interval; the additive truncation
    bias term bounds the conditional hitting probability of the capped,
    unhit walkers through their final distance profile.
    """
    _tree_only(spec)
    dist0 = groups.word_length(spec, mul(spec, inv(spec, a), x))
    if path_cap is None:
        path_cap = max(100, 20 * max(dist0, 3))
    if gee is None:
        gee, _ = mc_green_diagonal(spec, mu, trials, min(path_cap, 2000), rng)
    if dist0 == 0:
        return McGreenEstimate(gee, 1.0, 0.0, 0.0, trials, path_cap, False)
    hit = np.zeros(trials, dtype=bool)
    for _, d in zip(range(path_cap + 1), tree_distance_chain(
            spec.rank, dist0, trials, rng, mu.laziness)):
        hit |= d == 0
        if hit.all():
            break
    q = 2 * spec.rank - 1
    # conditional hitting probability from distance d is exactly q^{-d}
    bias = float(np.sum(np.power(float(q), -d[~hit].astype(np.float64)))) / trials
    f_hat = float(hit.mean())
    ci = 1.96 * np.sqrt(max(f_hat * (1 - f_hat), 1.0 / trials) / trials)
    return McGreenEstimate(f_hat * gee, f_hat, ci * gee, bias * gee,
                           trials, path_cap, bias > max(3 * ci, 1e-3))


# ---------------------------------------------------------------------------
# Green providers.  The functionals layer reads G through one method,
# bracket_row(a, xs) -> (values, lowers, uppers), arrays over xs for the
# row of a.  There are two: a GreenTable is its own provider, of the killed
# G_Omega, and TreeGreenOracle below gives the exact full G on the tree.
# ---------------------------------------------------------------------------

@dataclass
class TreeGreenOracle:
    """Exact Green values for SRW on the free group F_k (2k-regular tree):
    F(e,x) = q^{-|x|}, G(e,e) = q/(q-1), G(x,y) = (q/(q-1)) q^{-d(x,y)},
    with q = 2k - 1."""

    spec: GroupSpec

    def __post_init__(self):
        if self.spec.variant != "free":
            raise ValueError("tree oracle needs a free-group backend")
        self.q = 2 * self.spec.rank - 1

    def gee(self) -> float:
        return self.q / (self.q - 1.0)

    def distance(self, a, x) -> int:
        return len(mul(self.spec, inv(self.spec, a), x))

    def green(self, a, x) -> float:
        return self.gee() * self.q ** (-self.distance(a, x))

    def bracket_row(self, a, xs) -> tuple:
        """Exact values, so each bracket is the value itself."""
        v = np.array([self.green(a, x) for x in xs], dtype=np.float64)
        return v, v, v

    def hitting(self, a, x) -> float:
        return float(self.q) ** (-self.distance(a, x))


# ---------------------------------------------------------------------------
# Quarter-plane killed walk (Z^2 SRW killed on the axes and outside a box)
# ---------------------------------------------------------------------------

def quadrant_killed_green(box: int, sources: list) -> GreenTable:
    """Killed Green table of SRW on Z^2 with Dirichlet kill on the
    coordinate axes and outside the box [1, L]^2.  The solve is direct at
    every box size: method "auto" would switch to CG above
    DIRECT_SOLVE_MAX points (L >= 64) and move the cone ratios in their
    12th digit."""
    ax = np.arange(1, box + 1)
    coords = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    spec = groups.integer_lattice(2)
    mu = uniform_on_generators(groups.standard_generators(spec))
    omega = _LatticeDomain(spec, f"quadrant[L={box}]", coords, None,
                           tuple(sorted(mu.support_elements())))
    return killed_green_solve(omega, [tuple(s) for s in sources], mu,
                              method="direct")


def quadrant_harmonicity_defect(box: int) -> float:
    """Exact harmonicity defect of h(x1,x2) = x1 x2 under the killed kernel,
    maximised over interior points (both coordinates <= box - 1; h vanishes
    on the killing axes, so near-axis points are included)."""
    L = box
    worst = 0.0
    for x1 in range(1, L):
        for x2 in range(1, L):
            acc = 0.0
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                y1, y2 = x1 + dx, x2 + dy
                if y1 >= 1 and y2 >= 1:   # killed sites carry h = 0
                    acc += 0.25 * y1 * y2
            worst = max(worst, abs(acc - x1 * x2))
    return worst
