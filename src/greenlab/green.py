"""Killed-domain Green solves, exit distributions, boundary Green matrices,
the closed-form Green function of (lazy) SRW on trees, and the
quarter-plane killed walk.  Every value here is a solve or a closed form;
nothing is sampled.

Conventions.  For a finite domain Omega and a finite-range symmetric step
law mu, the killed Green table solves (I - P_Omega) v = delta_a where
P_Omega[x, y] = mu(x^{-1} y) for x, y in Omega; v equals G_Omega(a, .),
the expected visit counts before exiting Omega.  Killed values increase
monotonically to the full Green function as Omega grows.  The outer
boundary of a set S is always taken with respect to T = supp(mu), and that
choice is recorded on the domain.  Exit laws are arrays over that
boundary, one row per start point, from one killed solve.

Domains on Z^d and Heis3 are sorted int64 keys of their points in a
mixed-radix box that also holds every neighbour (``groups.KeyBox``): a
lookup is a binary search, a step shifts the keys, and coordinates are
decoded by integer division, a chunk at a time, where a caller needs them.
A domain costs 8 bytes a point.  L1 balls on Z^d are written as keys slab
by slab; every other ball (Heis3's, or one of a non-unit support) is the
key BFS ``groups.ball_keys``, whose keys are re-keyed into the domain's
box in one pass.

A lattice or Heis3 table above QUOTIENT_MIN points is solved on the orbit
quotient of its symmetries.  The maps that fix every source, preserve mu
and map Omega onto itself form a group H, and G_Omega(a, .) is constant on
the H-orbits.  On Z^d they are the signed permutations of the axes; on a
ball about the origin with SRW and the origin as source, |H| = 48.  On
Heis3 they are the sign automorphisms (a, b, c) -> (e a, f b, e f c), e, f
= +-1; from the sources e and (1, 0, 0) only (a, -b, -c) is left, |H| = 2.
Each point's orbit is named by its canonical key, the key of one point
of the orbit computed from the point's coordinates, so the orbits are
labelled in one pass with a binary search among the representatives only.
The solver assembles the Galerkin quotient Q^T (I - P) Q (Q the orbit
indicator) on one representative per orbit, solves it, and lifts the
solution back to Omega (Fassler & Stiefel, *Group Theoretical Methods and
Their Applications*, 1992).  CG on a quotient runs on its symmetric
scaling by the orbit sizes, whose residual has the full system's 2-norm.
Any other table is the quotient by the trivial orbits: there is one
assembly.

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
from .measures import StepMeasure, _is_srw, uniform_on_generators

sp = _LazyModule("scipy.sparse")
spla = _LazyModule("scipy.sparse.linalg")

DIRECT_SOLVE_MAX = 4000       # direct factorization below this many unknowns
DEFAULT_TOL = 1e-10
# Lattice and Heis3 tables above this many points are solved on the orbit
# quotient of their symmetries.  Smaller tables are solved on the full system,
# where plain CG takes at most ~0.3 s, so they (and every value recorded
# from them) do not depend on the quotient's arithmetic.
QUOTIENT_MIN = 100_000
# Lattice domains are built and decoded, orbits labelled and killed systems
# assembled this many rows at a time, so their temporaries stay a few MB at
# any size.
_CHUNK_ROWS = 2 ** 16


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

    Two kinds exist: ``_LatticeDomain`` (sorted int64 keys of the points
    of Z^d or Heis3 in a mixed-radix box) and ``_FreeBallDomain`` (sorted
    int codes of the words of a ball in F_k, for the standard support
    about the identity).  Both look points up by binary search
    (``_sorted_positions``).  Every consumer reads a domain through one
    index protocol:

    * ``positions(payloads)``: the index of each payload in ``elements``,
      or -1 outside S (int64 array);
    * ``step_table(steps, rows=all)``: int64 table whose entry (i, k)
      locates elements[rows[i]] * steps[k]: values in [0, n) lie in S,
      n + j is ``boundary[j]``, and -1 is any other point (every point
      outside S when the domain carries no boundary).

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


def _chunks(n: int):
    """Consecutive slices of at most _CHUNK_ROWS rows covering [0, n)."""
    return (slice(s, min(s + _CHUNK_ROWS, n)) for s in range(0, n, _CHUNK_ROWS))


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
            levels.append(groups.sorted_unique(stepped[stepped >= thresh]))
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

    def step_table(self, steps, rows=slice(None)) -> np.ndarray:
        n = len(self.codes)
        codes = self.codes[rows]
        table = np.empty((len(codes), len(steps)), dtype=np.int64)
        for j, word in enumerate(steps):
            c = codes
            for letter in word:
                c = self._append(c, self._letter(letter))
            i = _sorted_positions(self.codes, c)
            if self._bcodes is not None:
                k = _sorted_positions(self._bcodes, c)
                i = np.where(i >= 0, i, np.where(k >= 0, n + self._bslot[k], -1))
            table[:, j] = i
        return table


def _reach_box(spec: GroupSpec, support: tuple, span: tuple, lo, hi) -> groups.KeyBox:
    """The key box of a domain whose points span the box `span` and whose
    points and boundary span [lo, hi]: that box grown to hold every
    product of a point with a step of the support."""
    img_lo, img_hi = groups.image_span(spec, *span, support)
    return groups.KeyBox(np.minimum(lo, img_lo), np.maximum(hi, img_hi))


class _LatticeDomain(Domain):
    """Finite set S on Z^d or on Heis3 (rows (a, b, c)), stored as the
    sorted int64 keys of its points in a key box (``groups.KeyBox``) and, apart,
    the sorted keys of its boundary: elements[i] has the i-th key and
    boundary[j] the j-th boundary key, since key order is lexicographic
    order.  Every lookup is a binary search of the keys
    (``_sorted_positions``).

    The key box holds S, its boundary and every product of a point of S
    with a step of the support.  A step table therefore shifts the keys
    (``KeyBox.product_keys``) whenever the products of S's span with s
    stay in the box.  A step that leaves it, as far
    steps do, is taken on the decoded rows.  Rows are decoded a chunk at a
    time (``_chunks``), only where coordinates are needed, and the element
    and boundary tuples are decoded on first read.  Built from rows in
    lexicographic order, or with ``from_keys`` from keys already sorted."""

    def __init__(self, spec: GroupSpec, label: str, coords: np.ndarray,
                 bcoords: Optional[np.ndarray], support: tuple):
        span = (coords.min(axis=0), coords.max(axis=0))
        parts = [p for p in (coords, bcoords) if p is not None and len(p)]
        box = _reach_box(spec, support, span, np.min([p.min(axis=0) for p in parts], axis=0),
                         np.max([p.max(axis=0) for p in parts], axis=0))
        self._adopt(spec, label, support, span, box, box.keys(coords),
                    None if bcoords is None else box.keys(bcoords))

    @classmethod
    def from_keys(cls, spec: GroupSpec, label: str, support: tuple, span: tuple,
                  box: groups.KeyBox, keys: np.ndarray,
                  bkeys: Optional[np.ndarray]) -> "_LatticeDomain":
        """The domain of sorted keys of `box` spanning `span`, which must be
        a ``_reach_box`` of the support."""
        dom = cls.__new__(cls)
        dom._adopt(spec, label, support, span, box, keys, bkeys)
        return dom

    def _adopt(self, spec, label, support, span, box, keys, bkeys):
        self.spec, self.label, self.support = spec, label, support
        self.span, self.box, self.keys, self._bkeys = span, box, keys, bkeys
        self._elements = self._boundary = None

    def _decoded(self, keys: np.ndarray) -> list:
        with _gc_paused():
            out = []
            for s in _chunks(len(keys)):
                out += map(tuple, self.box.rows(keys[s]).tolist())
        return out

    @property
    def elements(self):
        if self._elements is None:
            self._elements = self._decoded(self.keys)
        return self._elements

    @property
    def boundary(self):
        if self._boundary is None and self._bkeys is not None:
            self._boundary = self._decoded(self._bkeys)
        return self._boundary

    def __len__(self):
        return len(self.keys)

    def _rows(self, payloads) -> np.ndarray:
        return np.asarray(payloads, dtype=np.int64).reshape(-1, len(self.box.shape))

    def _locate(self, keys: np.ndarray) -> np.ndarray:
        """i for the key of elements[i], n + j for that of boundary[j], and
        -1 for any other key (-1 included)."""
        i = _sorted_positions(self.keys, keys)
        if self._bkeys is None:
            return i
        j = _sorted_positions(self._bkeys, keys)
        return np.where(i >= 0, i, np.where(j >= 0, len(self.keys) + j, -1))

    def positions(self, payloads) -> np.ndarray:
        return _sorted_positions(self.keys, self.box.keys(self._rows(payloads)))

    def step_table(self, steps, rows=slice(None)) -> np.ndarray:
        keys = self.keys[rows]
        steps = self._rows(steps)
        table = np.empty((len(keys), len(steps)), dtype=np.int64)
        first = self.box.first(keys) if self.spec.variant == "heisenberg" else None
        for k, s in enumerate(steps):
            if self.box.holds(*groups.image_span(self.spec, *self.span, s)):
                moved = self.box.product_keys(self.spec, keys, s, first)
                table[:, k] = self._locate(moved)
                continue
            for c in _chunks(len(keys)):
                moved = groups.mul_rows(self.spec, self.box.rows(keys[c]), s)
                table[c, k] = self._locate(self.box.keys(moved))
        return table


def _l1_ball_keys(box: groups.KeyBox, center: np.ndarray, radius: int,
                  shell: bool) -> np.ndarray:
    """Keys in `box` of the points x of Z^d with |x - center|_1 <= radius
    (or == radius + 1 when shell), in lexicographic order.

    The keys fill one preallocated array, a run of slabs x_1 = const at a
    time.  The slab at x_1 holds the points of the other d - 1 axes at L1
    norm at most (or exactly) top - |x_1|, top the largest norm kept; it is
    counted from the norm histogram of the cube [-top, top]^(d-1) and read
    off one mask over the part of that cube the run can reach.  A run holds
    at most _CHUNK_ROWS rows, or one slab, so the temporaries stay small
    however large the ball."""
    d = len(box.shape)
    top = radius + 1 if shell else radius
    ax = np.abs(np.arange(-top, top + 1, dtype=np.int32))
    rest = functools.reduce(np.add.outer, [ax] * (d - 1), np.int32(0))
    hist = np.bincount(np.ravel(rest), minlength=top + 1)[:top + 1]
    counts = (hist if shell else np.cumsum(hist))[top - ax]
    ends = np.cumsum(counts)
    out = np.empty(int(ends[-1]), dtype=np.int64)
    offset = np.full(d, top, dtype=np.int64)
    i = 0
    while i < len(ax):
        start = ends[i] - counts[i]
        j = max(i + 1, int(np.searchsorted(ends, start + _CHUNK_ROWS, side="right")))
        # the cross-section window [-b, b]^(d-1) holds every slab of the run
        b = top - ax[i:j].min()
        window = rest[(slice(top - b, top + b + 1),) * (d - 1)]
        norm = ax[i:j].reshape((-1,) + (1,) * (d - 1)) + window
        offset[0], offset[1:] = top - i, b
        rows = np.argwhere(norm == top if shell else norm <= top)
        rows += center - offset
        out[start:ends[j - 1]] = box.keys(rows)
        i = j
    return out


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
        # the L1 ball spans center +- radius on every axis; its boundary
        # lies among the products with a unit step
        c = np.asarray(center, dtype=np.int64)
        span = (c - radius, c + radius)
        box = _reach_box(spec, support, span, *span)
        bkeys = _l1_ball_keys(box, c, radius, True) if with_boundary else None
        return _LatticeDomain.from_keys(spec, label, support, span, box,
                                        _l1_ball_keys(box, c, radius, False), bkeys)
    # the BFS box holds B(center, radius + 1); the domain's own box is the
    # _reach_box of its span, and both key orders are lexicographic, so the
    # re-keyed keys stay sorted
    bfs, keys, _, bkeys = groups.ball_keys(spec, center, steps, radius, with_boundary)
    span = _key_span(bfs, keys)
    lo, hi = span if bkeys is None else _key_span(bfs, bkeys, *span)
    box = _reach_box(spec, support, span, lo, hi)
    return _LatticeDomain.from_keys(spec, label, support, span, box,
                                    _rekeyed(bfs, keys, box),
                                    None if bkeys is None else _rekeyed(bfs, bkeys, box))


def _key_span(box: groups.KeyBox, keys: np.ndarray, lo=None, hi=None) -> tuple:
    """(lo, hi) of the points of keys of `box`, and of the box [lo, hi]
    when given, decoded _CHUNK_ROWS keys at a time."""
    lo = box.hi if lo is None else lo
    hi = box.lo if hi is None else hi
    for s in _chunks(len(keys)):
        rows = box.rows(keys[s])
        lo, hi = np.minimum(lo, rows.min(axis=0)), np.maximum(hi, rows.max(axis=0))
    return lo, hi


def _rekeyed(box: groups.KeyBox, keys: np.ndarray, into: groups.KeyBox) -> np.ndarray:
    """The keys in `into`, which holds their points, of keys of `box`,
    _CHUNK_ROWS at a time; sorted keys stay sorted."""
    out = np.empty_like(keys)
    for s in _chunks(len(keys)):
        out[s] = into.inner_keys(box.rows(keys[s]))
    return out


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
        """Each point its own orbit: one index array is both the labels and
        the representatives."""
        index = np.arange(n)
        return cls(1, index, index, np.ones(n))


def _symmetry_test(omega: Domain, mu: StepMeasure, sources: list):
    """symmetry(perm, sign): whether the involution x -> sign * x[perm] of
    the coordinates fixes every source, preserves mu on its support, and
    maps Omega onto itself.  An involution maps Omega onto itself when it
    maps the bounding box of Omega onto itself and Omega's indicator over
    that box (a boolean mask set from the keys) onto itself, by a transpose
    and a flip."""
    d = len(omega.box.shape)
    src = np.array(sources, dtype=np.int64).reshape(-1, d)
    probs = [(np.array(s), mu.pmf(s)) for s in mu.support_elements()]
    lo, hi = omega.span
    mask = np.zeros(omega.box.shape, dtype=bool)
    mask.reshape(-1)[omega.keys] = True
    inside = mask[tuple(slice(a, b + 1) for a, b in zip(lo - omega.box.lo, hi - omega.box.lo))]

    def symmetry(perm, sign) -> bool:
        corners = np.sort([sign * lo[perm], sign * hi[perm]], axis=0)
        return (np.array_equal(src[:, perm] * sign, src)
                and all(mu.pmf(tuple(int(c) for c in s[perm] * sign)) == p
                        for s, p in probs)
                and np.array_equal(corners, [lo, hi])
                and np.array_equal(np.flip(inside.transpose(perm),
                                           axis=tuple(np.flatnonzero(sign < 0))),
                                   inside))
    return symmetry


def _axis_symmetries(omega: Domain, mu: StepMeasure, sources: list) -> tuple:
    """(flippable axes, blocks of interchangeable axes) of a lattice domain.

    A move x -> sign * x[perm] is a single-axis sign flip or an axis
    transposition; it is kept when it passes ``_symmetry_test``.  The kept
    moves generate the group H of signed permutations that flip any
    flippable axis and permute each block: a product of two kept moves is
    a symmetry too, so the flippable axes are a union of blocks and every
    transposition inside a block is kept.
    """
    d = omega.spec.d
    symmetry = _symmetry_test(omega, mu, sources)
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


def _sign_automorphisms(omega: Domain, mu: StepMeasure, sources: list) -> list:
    """The sign vectors (e, f, e f) of the automorphisms (a, b, c) -> (e a,
    f b, e f c) of Heis3, e, f = +-1, other than the identity, that pass
    ``_symmetry_test``.  With the identity they form a group: a product of
    two kept maps is a symmetry too."""
    symmetry = _symmetry_test(omega, mu, sources)
    signs = [np.array([e, f, e * f]) for e in (1, -1) for f in (1, -1)][1:]
    return [sign for sign in signs if symmetry(np.arange(3), sign)]


def _symmetry_orbits(omega: Domain, mu: StepMeasure, sources: list) -> _Orbits:
    """Orbits of a symmetry group H of a lattice or Heis3 domain above
    QUOTIENT_MIN points; the trivial orbits elsewhere.

    Each point's orbit is named by its canonical key.  On Z^d, H is
    generated by the axis moves of ``_axis_symmetries``, and the canonical
    key is the key of the canonical point: |x_k| on the flippable axes,
    then the coordinates of each block in ascending order (sorted by
    compare-exchange passes over the block's columns).  On Heis3, H is the
    sign automorphisms of ``_sign_automorphisms``, and the canonical key is
    the least key among the point's images, that is its image of least
    index.  Omega is H-invariant, so every image lies in the key box and
    its key is computed, not looked up.  A point represents its orbit
    exactly when its canonical key is its own key, and its orbit number is
    the rank of its canonical key among the m representatives' keys, by a
    binary search.  Points are decoded and canonicalised _CHUNK_ROWS at a
    time, and the orbit numbers overwrite the canonical keys in place, so
    beyond the domain the pass holds one n-length int64 array, one boolean
    one and the m representatives.
    """
    n = len(omega)
    if omega.spec.variant == "free" or n <= QUOTIENT_MIN:
        return _Orbits.trivial(n)
    if omega.spec.variant == "heisenberg":
        signs = _sign_automorphisms(omega, mu, sources)
        order = 1 + len(signs)
    else:
        flips, blocks = _axis_symmetries(omega, mu, sources)
        order = 2 ** len(flips) * math.prod(math.factorial(len(b)) for b in blocks)
    if order == 1:
        return _Orbits.trivial(n)
    box = omega.box
    label = np.empty(n, dtype=np.int64)     # canonical keys, then orbit numbers
    is_rep = np.empty(n, dtype=bool)
    for s in _chunks(n):
        rows = box.rows(omega.keys[s])
        if omega.spec.variant == "heisenberg":
            label[s] = omega.keys[s]
            for sign in signs:
                np.minimum(label[s], box.inner_keys(rows * sign), out=label[s])
        else:
            canon = rows.T                  # one contiguous row per axis
            canon[flips] = np.abs(canon[flips])
            for b in blocks:
                for top in range(len(b) - 1, 0, -1):
                    for j in range(top):
                        x, y = canon[b[j]], canon[b[j + 1]]
                        canon[b[j]], canon[b[j + 1]] = np.minimum(x, y), np.maximum(x, y)
            label[s] = box.inner_keys(canon.T)
        np.equal(label[s], omega.keys[s], out=is_rep[s])
    reps = np.flatnonzero(is_rep)
    del is_rep
    rep_keys = omega.keys[reps]
    for s in _chunks(n):
        label[s] = np.searchsorted(rep_keys, label[s])
    return _Orbits(order, label, reps, np.bincount(label).astype(np.float64))


def _operator(omega: Domain, mu: StepMeasure,
              orbits: Optional[_Orbits] = None) -> sp.csr_matrix:
    """The Galerkin quotient M = Q^T (I - P) Q of I - P restricted to
    Omega, Q the n x m indicator of the orbits of a symmetry group H of the
    domain and the law (the trivial orbits by default, where M is I - P
    itself): M[i, j] = w_i (delta_ij (1 - mu(e)) - sum of mu(s) over the
    steps s with x_i s in orbit j), x_i the representative and w_i the
    size of orbit i.  M is I - P restricted to H-invariant vectors, so it
    is SPD when mu(s) = mu(s^-1); any other law is rejected.  The rows are
    built _CHUNK_ROWS representatives at a time from the domain's step
    table, and copied into preallocated CSR arrays.
    """
    if not mu.finite_range():
        raise ValueError("killed solver requires a finite-support measure")
    if any(mu.pmf(s) != mu.pmf(inv(omega.spec, s)) for s in mu.support_elements()):
        raise ValueError(f"killed solver requires a symmetric law, not {mu.name}")
    if orbits is None:
        orbits = _Orbits.trivial(len(omega))
    steps, p = _steps(omega.spec, mu)
    n, m = len(omega), len(orbits.reps)
    weights = np.append(-p, 1.0 - mu.pmf(identity(omega.spec)))
    indptr = np.zeros(m + 1, dtype=np.int64)
    indices = np.empty(m * len(weights), dtype=np.int32)
    data = np.empty(m * len(weights))
    for rows in _chunks(m):
        # one column per step plus the diagonal: the orbit of each neighbour
        # in S, and -1 for every other point.  Summing duplicates (steps into
        # one orbit) and sorting each row's indices yields the canonical rows
        table = omega.step_table(steps, orbits.reps[rows])
        cols = np.empty((len(table), len(weights)), dtype=np.int32)
        cols[:, :-1] = orbits.label.take(table, mode="clip")
        cols[:, :-1][(table < 0) | (table >= n)] = -1
        del table
        cols[:, -1] = np.arange(rows.start, rows.stop)
        inside = cols >= 0
        chunk = sp.csr_matrix(((weights * orbits.sizes[rows, None])[inside], cols[inside],
                               np.append(0, np.cumsum(inside.sum(axis=1)))),
                              shape=(len(cols), m))
        chunk.sum_duplicates()
        start, end = indptr[rows.start], indptr[rows.start] + chunk.nnz
        indices[start:end], data[start:end] = chunk.indices, chunk.data
        indptr[rows.start + 1:rows.stop + 1] = start + chunk.indptr[1:]
        del cols, inside, chunk     # before the next chunk's temporaries
    return sp.csr_matrix((data[:indptr[-1]], indices[:indptr[-1]], indptr),
                         shape=(m, m))


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


def _scale_symmetrically(mat, scale: np.ndarray) -> None:
    """mat <- D mat D for D = diag(scale), in place, _CHUNK_ROWS rows at a
    time with one temporary at once."""
    for rows in _chunks(mat.shape[0]):
        lo, hi = mat.indptr[rows.start], mat.indptr[rows.stop]
        part = mat.data[lo:hi]
        part *= scale[mat.indices[lo:hi]]
        part *= np.repeat(scale[rows], np.diff(mat.indptr[rows.start:rows.stop + 1]))


def killed_green_solve(omega: Domain, sources: list, mu: StepMeasure,
                       tol: float = DEFAULT_TOL, method: str = "auto") -> GreenTable:
    """Solve (I - P_Omega) v = delta_a per source by an SPD method.

    A lattice or Heis3 table above QUOTIENT_MIN points is solved on the
    orbit quotient of its symmetries H (``_symmetry_orbits``): v is constant
    on H-orbits, so it lifts from the solution u of the Galerkin quotient
    M u = e_{orbit(a)} (``_operator``) by v = u[orbit].  The residual of v
    is H-invariant, equal to (M u - e)_i / w_i on orbit i (w_i its size),
    so its max norm is max_i |(M u - e)_i| / w_i and its squared 2-norm
    sum_i (M u - e)_i^2 / w_i.  CG on a quotient of order > 1 therefore
    runs on D^-1/2 M D^-1/2 y = D^-1/2 e, D = diag(w) and u = D^-1/2 y:
    that system's residual D^-1/2 (M u - e) has the full residual's 2-norm,
    so CG stops where it would on the full system, and the max norm is
    read from it as max_i |D^-1/2 (M u - e)|_i / w_i^1/2.  When H is
    trivial the quotient is the full system.

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
    mat = _operator(omega, mu, orbits)
    order, label, sizes, m = orbits.order, orbits.label, orbits.sizes, len(orbits.reps)
    del orbits                  # frees the representatives: M is assembled
    if method == "auto":
        if m <= DIRECT_SOLVE_MAX or (len(sources) > 8 and m <= 120000):
            method = "direct"
        else:
            method = "cg"
    lu = spla.splu(mat.tocsc()) if method == "direct" else None
    # CG on a quotient of order > 1 runs on D^-1/2 M D^-1/2 (D the orbit
    # sizes), whose residual's 2-norm is the lifted full residual's; the
    # sizes are not read again, so they become D^-1/2 in place
    scale = None
    if lu is None and order > 1:
        scale = np.reciprocal(np.sqrt(sizes, out=sizes), out=sizes)
        _scale_symmetrically(mat, scale)
    vals = np.zeros((len(sources), len(omega)))
    residuals = np.zeros(len(sources))
    iterations = np.zeros(len(sources), dtype=np.int64)

    def solve(i: int) -> None:
        a = sources[i]
        rhs = np.zeros(m)
        rhs[label[omega.lookup(a)]] = 1.0
        if scale is not None:
            rhs *= scale
        if lu is not None:
            u = lu.solve(rhs)
        else:
            u, iterations[i] = cg(mat, rhs, tol, 20 * m)
        # the full residual on orbit i is (M u - e)_i / w_i, which is the
        # scaled system's residual times scale_i
        res = np.abs(mat @ u - rhs)
        res = float(np.max(res / sizes if scale is None else res * scale))
        if res > 100 * max(tol, 1e-14):
            raise SolverError(f"residual {res:g} above tolerance for source {a!r}")
        if scale is not None:
            u *= scale
        # every label lies in [0, m); mode "raise" would buffer the whole row
        np.take(u, label, out=vals[i], mode="clip")
        residuals[i] = res

    thread_map(solve, len(sources))
    return GreenTable(omega, list(sources), vals, residuals, tol, method,
                      iterations, order, m)


# ---------------------------------------------------------------------------
# Exit distributions
# ---------------------------------------------------------------------------

def exit_distribution(domain: Domain, starts: list, mu: StepMeasure,
                      tol: float = DEFAULT_TOL) -> np.ndarray:
    """Law of the first position outside S for each start point in S: an
    array of shape (len(starts), |boundary|), row i the law from starts[i]
    over ``domain.boundary``.

    mu_S(a, z) = sum_{y in S} G_S(a, y) mu(y^{-1} z) from the
    absorbing-chain linear system on S, one killed solve for every start.
    Raises ValueError when the domain carries no boundary.
    """
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
    return np.array([np.bincount(table[i, k] - n, weights=g[i] * p[k],
                                 minlength=m) for g in gvals])


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

    ``min_eigenvalue`` keeps 12 significant digits, as report bodies print
    numbers.  eigvalsh is backward stable, so its eigenvalues are exact to
    about n eps ||M||, and their last digits depend on the BLAS thread
    count; on Heis3's B(6) (476 boundary points, ||M|| = 8.36) that bound
    is 8.8e-13, which the 12 digits of min_eigenvalue = 1.04 clear.
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
    min_eig = float(f"{np.linalg.eigvalsh(mat_sym)[0]:.12g}")
    return BoundaryGreenMatrix(domain, mat, chol_ok and min_eig > 0,
                               min_eig, sym_defect)


# ---------------------------------------------------------------------------
# Green providers.  The functionals layer reads G through one method,
# bracket_row(a, xs) -> (values, lowers, uppers), arrays over xs for the
# row of a.  There are two: a GreenTable is its own provider, of the killed
# G_Omega, and TreeGreenOracle below gives the exact full G on the tree.
# ---------------------------------------------------------------------------

@dataclass
class TreeGreenOracle:
    """Exact Green values for (lazy) SRW on the free group F_k (2k-regular
    tree): F(e,x) = q^{-|x|}, G(e,e) = q/(q-1), G(x,y) = (q/(q-1)) q^{-d(x,y)},
    with q = 2k - 1.  The lazy kernel lambda I + (1 - lambda) P visits each
    vertex 1/(1 - lambda) times as often and hits the same ones, so G is
    divided by 1 - lambda and F is unchanged."""

    mu: StepMeasure

    def __post_init__(self):
        self.spec = self.mu.spec
        if self.spec.variant != "free" or not _is_srw(self.spec, self.mu):
            raise ValueError("tree oracle needs SRW on a free group up to "
                             f"laziness, got {self.mu.name}")
        self.q = 2 * self.spec.rank - 1

    def gee(self) -> float:
        return self.q / (self.q - 1.0) / (1.0 - self.mu.laziness)

    def distance(self, a, x) -> int:
        return len(mul(self.spec, inv(self.spec, a), x))

    def green(self, a, x) -> float:
        return self.gee() * self.q ** (-self.distance(a, x))

    def bracket_row(self, a, xs) -> tuple:
        """Exact values, so each bracket is the value itself."""
        v = np.array([self.green(a, x) for x in xs], dtype=np.float64)
        return v, v, v


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
