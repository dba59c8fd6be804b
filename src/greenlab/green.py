"""Killed-domain Green solves, exit distributions, boundary Green matrices,
Monte Carlo hitting estimators, and the quarter-plane killed walk.

Conventions.  For a finite domain Omega and a finite-range symmetric step
law mu, the killed Green table solves (I - P_Omega) v = delta_a where
P_Omega[x, y] = mu(x^{-1} y) for x, y in Omega; v equals G_Omega(a, .),
the expected visit counts before exiting Omega.  Killed values increase
monotonically to the full Green function as Omega grows.  The outer
boundary of a set S is always taken with respect to T = supp(mu), and that
choice is recorded on the domain.

SciPy's sparse modules are the lazy module attributes ``sp`` and ``spla``
(``greenlab._LazyModule``), imported the first time a table is solved.
Importing greenlab therefore loads no SciPy, which is most of the start-up
time (the benchmark's ``setup_s``) of runs that never solve.  Every
function here looks ``spla`` up at call time, so a caller that rebinds
``green.spla`` (as the benchmark's tracer does) sees every solver call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _LazyModule, groups
from .groups import GroupSpec, identity, inv, mul
from .measures import StepMeasure

sp = _LazyModule("scipy.sparse")
spla = _LazyModule("scipy.sparse.linalg")

DIRECT_SOLVE_MAX = 4000       # direct factorization below this many unknowns
DEFAULT_TOL = 1e-10
# Lattice CG solves above this many unknowns are multigrid-preconditioned.
# Below it plain CG takes at most ~0.3 s, and smaller tables (and every
# value recorded from them) stay bit-identical to plain CG's.
MULTIGRID_MIN = 100_000
_MG_COARSEST = 3000           # factorize the coarsest level at or below this size
_MG_SWEEPS = 2                # damped Jacobi sweeps before and after (symmetric)
_MG_OVERCORRECT = 1.8         # scale of the plain-aggregation coarse correction


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

    Three kinds exist: ``_LatticeDomain`` (int64 coordinate rows on Z^d or
    Heis3, with a dense grid lookup), ``_FreeBallDomain`` (int-coded word
    balls in F_k for the standard support about the identity) and
    ``_BfsDomain`` (a dict over payloads, for product lifts and for free
    balls with another support or centre).  Every consumer reads a domain
    through one index protocol:

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


class _BfsDomain(Domain):
    """Any finite payload set (the generic BFS ball of a product lift, or of
    a free group off the standard support or centre), indexed by a dict; a
    step table is built once per step list by a Python loop."""

    def __init__(self, spec: GroupSpec, label: str, elements: list,
                 boundary: Optional[list], support: tuple):
        self.spec, self.label, self.support = spec, label, support
        self.elements, self.boundary = elements, boundary
        self._index = {g: i for i, g in enumerate(elements)}
        self._tables = {}

    def __len__(self):
        return len(self.elements)

    def positions(self, payloads) -> np.ndarray:
        return np.array([self._index.get(g, -1) for g in payloads], dtype=np.int64)

    def step_table(self, steps) -> np.ndarray:
        key = tuple(steps)
        if key not in self._tables:
            n = len(self.elements)
            index = dict(self._index)
            index.update((z, n + j) for j, z in enumerate(self.boundary or ()))
            table = np.array([[index.get(mul(self.spec, g, s), -1) for s in steps]
                              for g in self.elements], dtype=np.int64)
            table.flags.writeable = False       # shared by every caller
            self._tables[key] = table.reshape(n, len(steps))
        return self._tables[key]


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
            for l in self._letter_columns(self._bcodes):
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

    def _letter_columns(self, codes: np.ndarray):
        """The letter codes of words of length radius + 1, first letter first."""
        s = self.shift
        for j in range(self.radius, -1, -1):
            yield (codes >> (s * j)) & ((1 << s) - 1)

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

    @property
    def elements(self):
        if self._elements is None:
            self._elements = [self.decode(int(c)) for c in self.codes]
        return self._elements

    @property
    def boundary(self):
        if self._boundary is None and self._bcodes is not None:
            order = np.empty_like(self._bslot)
            order[self._bslot] = np.arange(len(order))
            words = np.empty((len(order), self.radius + 1), dtype=np.int8)
            for j, l in enumerate(self._letter_columns(self._bcodes[order])):
                words[:, j] = np.where(l & 1, -(l >> 1) - 1, (l >> 1) + 1)
            self._boundary = [tuple(w) for w in words.tolist()]
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
        out = np.full(len(pts), -1, dtype=np.int64)
        out[ok] = self.grid[tuple(rel[ok].T)]
        return out

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
    """Word-metric ball B(center, radius) in the Cayley graph of supp(mu)."""
    support = tuple(sorted(mu.support_elements()))
    e = identity(spec)
    steps = [s for s in support if s != e]
    if center is None:
        center = e
    standard = set(steps) == set(groups.standard_generators(spec).elements)
    if spec.variant == "free" and standard and center == e:
        return _FreeBallDomain(spec, radius, with_boundary)
    label = f"ball[{spec.label()},R={radius}]"
    if center != e:
        label = f"ball[{spec.label()},R={radius},center={center!r}]"
    if spec.variant == "lattice" and standard:
        c = np.asarray(center, dtype=np.int64)
        bcoords = _l1_ball_coords(spec.d, radius, True) + c if with_boundary else None
        return _LatticeDomain(spec, label, _l1_ball_coords(spec.d, radius, False) + c,
                              bcoords, support)
    if spec.variant in ("lattice", "heisenberg"):
        coords, bcoords = _coordinate_ball(spec, center, steps, radius, with_boundary)
        return _LatticeDomain(spec, label, coords, bcoords, support)
    # generic BFS: product lifts, free balls off the standard support or centre
    dist = {center: 0}
    frontier = [center]
    d = 0
    while frontier and d < radius:
        nxt = []
        for g in frontier:
            for s in steps:
                h = mul(spec, g, s)
                if h not in dist:
                    dist[h] = d + 1
                    nxt.append(h)
        frontier = nxt
        d += 1
    boundary = None
    if with_boundary:
        boundary = sorted({h for g in frontier for s in steps
                           if (h := mul(spec, g, s)) not in dist})
    return _BfsDomain(spec, label, sorted(dist), boundary, support)


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
    # how the table was solved: "direct" or "cg", the CG preconditioner
    # (None when plain), and CG iterations per source (0 for direct); all
    # None for a cached table written before they were recorded
    method: Optional[str]
    preconditioner: Optional[str]
    iterations: Optional[np.ndarray]

    def green(self, a, x) -> float:
        return float(self.row_at(a, [x])[0])

    def row(self, a) -> np.ndarray:
        return self.values[self.sources.index(a)]

    def row_at(self, a, xs) -> np.ndarray:
        """G_Omega(a, x) for each x in xs."""
        pos = self.omega.positions(xs)
        if (pos < 0).any():
            raise KeyError(f"{xs[int(np.argmin(pos))]!r} outside the computation domain")
        return self.row(a)[pos]

    def bracket(self, a, x) -> tuple:
        """Solver-error bracket of the killed value (not of the full G)."""
        _, lo, hi = self.bracket_row(a, [x])
        return (float(lo[0]), float(hi[0]))

    def bracket_row(self, a, xs) -> tuple:
        """(values, lowers, uppers) over xs: each killed value widened by
        10 x the largest solver residual."""
        v = self.row_at(a, xs)
        r = 10.0 * self.max_residual()
        return v, np.maximum(v - r, 0.0), v + r

    def max_residual(self) -> float:
        return float(self.residuals.max())


def _steps(spec: GroupSpec, mu: StepMeasure) -> tuple:
    """Non-identity support of mu (sorted) with its probabilities."""
    e = identity(spec)
    steps = [s for s in mu.support_elements() if s != e]
    return steps, np.array([mu.pmf(s) for s in steps])


def _operator(omega: Domain, mu: StepMeasure) -> sp.csr_matrix:
    """I - P restricted to Omega (SPD for symmetric substochastic P)."""
    if not mu.finite_range():
        raise ValueError("killed solver requires a finite-support measure")
    n = len(omega)
    steps, p = _steps(omega.spec, mu)
    # one column per step plus the diagonal; sorting each row's indices
    # yields the canonical CSR of I - P
    cols = np.empty((n, len(steps) + 1), dtype=np.int32)
    cols[:, :-1] = omega.step_table(steps)
    cols[:, -1] = np.arange(n)
    inside = (cols >= 0) & (cols < n)
    weights = np.append(-p, 1.0 - mu.pmf(identity(omega.spec)))
    indptr = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
    mat = sp.csr_matrix((np.broadcast_to(weights, cols.shape)[inside], cols[inside],
                         indptr), shape=(n, n))
    mat.sort_indices()
    return mat


class _AggregationMultigrid:
    """Symmetric V-cycle for I - P on a lattice domain (Briggs, Henson &
    McCormick, *A Multigrid Tutorial*, 2000), used as a CG preconditioner.

    Each level merges the points with equal ``coords >> 1`` (up to 2^d fine
    points) into one aggregate; the prolongation P is piecewise constant,
    one unit entry per row, and the coarse operator is P^T A P.  The
    coarse correction is over-scaled by _MG_OVERCORRECT to offset the
    energy of piecewise-constant interpolation (Braess, Computing 55,
    1995).  Smoothing is Jacobi damped by 4/(3 rho), rho the Gershgorin
    bound of D^{-1} A, with _MG_SWEEPS sweeps before and after the
    correction, so the cycle is a symmetric operator.  The coarsest level
    (at most _MG_COARSEST unknowns) is factorized.
    """

    name = "aggregation-vcycle"

    def __init__(self, mat: sp.csr_matrix, coords: np.ndarray):
        self.shape = mat.shape
        # per level: (operator, damping / diagonal, aggregate of each unknown)
        self.levels = []
        while mat.shape[0] > _MG_COARSEST:
            agg, coords = self._aggregate(coords)
            n, nc = mat.shape[0], len(coords)
            prolong = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, nc))
            self.levels.append((mat, self._jacobi_weights(mat), agg))
            # P^T in CSR, so the product does not convert A P to CSC
            mat = prolong.T.tocsr() @ (mat @ prolong)
        self.coarsest = mat
        self.lu = spla.splu(mat.tocsc())

    @staticmethod
    def _aggregate(coords: np.ndarray) -> tuple:
        """(aggregate index per point, aggregate coordinates): aggregates are
        numbered in lexicographic order by a cumsum over a dense grid."""
        c = coords >> 1
        c -= c.min(axis=0)
        shape = tuple(c.max(axis=0) + 1)
        keys = np.ravel_multi_index(tuple(c.T), shape)
        occupied = np.zeros(int(np.prod(shape)), dtype=bool)
        occupied[keys] = True
        rank = np.cumsum(occupied) - 1
        return rank[keys], np.argwhere(occupied.reshape(shape))

    @staticmethod
    def _jacobi_weights(mat: sp.csr_matrix) -> np.ndarray:
        diag = mat.diagonal()
        abs_rows = sp.csr_matrix((np.abs(mat.data), mat.indices, mat.indptr),
                                 shape=mat.shape) @ np.ones(mat.shape[0])
        return 4.0 / (3.0 * np.max(abs_rows / diag)) / diag

    def apply(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        """One V-cycle from a zero guess for A x = b on ``level``."""
        if level == len(self.levels):
            return self.lu.solve(b)
        mat, weights, agg = self.levels[level]
        x = weights * b
        for _ in range(_MG_SWEEPS - 1):
            x += weights * (b - mat @ x)
        coarse = self.apply(np.bincount(agg, weights=b - mat @ x), level + 1)
        x += _MG_OVERCORRECT * coarse[agg]
        for _ in range(_MG_SWEEPS):
            x += weights * (b - mat @ x)
        return x

    def operator(self) -> spla.LinearOperator:
        return spla.LinearOperator(self.shape, matvec=self.apply, dtype=np.float64)


def killed_green_solve(omega: Domain, sources: list, mu: StepMeasure,
                       tol: float = DEFAULT_TOL, method: str = "auto") -> GreenTable:
    """Solve (I - P_Omega) v = delta_a per source by an SPD method.

    method "auto" uses a direct factorization below DIRECT_SOLVE_MAX
    unknowns (or when many sources are requested and memory allows) and
    conjugate gradients otherwise; residuals are reported per source.  CG
    on Z^d above MULTIGRID_MIN unknowns is preconditioned by
    an aggregation V-cycle; the stopping rule and residual check are the
    same.
    """
    for a in sources:
        if a not in omega:
            raise ValueError(f"source {a!r} outside the domain")
    mat = _operator(omega, mu)
    n = len(omega)
    if method == "auto":
        if n <= DIRECT_SOLVE_MAX or (len(sources) > 8 and n <= 120000):
            method = "direct"
        else:
            method = "cg"
    vals = np.zeros((len(sources), n))
    residuals = np.zeros(len(sources))
    iterations = np.zeros(len(sources), dtype=np.int64)
    lu = spla.splu(mat.tocsc()) if method == "direct" else None
    mg = None
    # the aggregation by coords >> 1 fits lattice geometry only: on Heis3
    # coordinates it needs more iterations than plain CG
    if method == "cg" and omega.spec.variant == "lattice" and n > MULTIGRID_MIN:
        mg = _AggregationMultigrid(mat, omega.coords)
    precond = mg.operator() if mg else None
    for i, a in enumerate(sources):
        rhs = np.zeros(n)
        rhs[omega.lookup(a)] = 1.0
        if method == "direct":
            v = lu.solve(rhs)
        else:
            def count(_, i=i):
                iterations[i] += 1

            v, info = spla.cg(mat, rhs, rtol=0.0, atol=tol, maxiter=20 * n,
                              M=precond, callback=count)
            if info != 0:
                raise SolverError(f"CG failed for source {a!r} (info={info})")
        res = float(np.max(np.abs(mat @ v - rhs)))
        if res > 100 * max(tol, 1e-14):
            raise SolverError(f"residual {res:g} above tolerance for source {a!r}")
        vals[i] = v
        residuals[i] = res
    return GreenTable(omega, list(sources), vals, residuals,
                      mu.laziness, mu.name, tol, method,
                      mg.name if mg else None, iterations)


@dataclass
class GreenBracket:
    lower: float
    upper: float
    estimate: float
    extrapolated: bool
    geometric_ratio: float


def green_bracket(spec: GroupSpec, mu: StepMeasure, a, x,
                  r1: int, r2: int, tol: float = DEFAULT_TOL) -> GreenBracket:
    """Bracket the full Green value G(a, x) from nested killed solves.

    Killed values increase with the domain; increments across three nested
    radii (r1, mid, r2) are inflated geometrically to cover the tail.  A
    non-geometric increment pattern (ratio >= 1) yields a conservative
    (lower, +inf) bracket.
    """
    provider = NestedBracketProvider(spec, mu, r1, r2, tol)
    smallest = provider.domains[0]
    if a not in smallest or x not in smallest:
        raise ValueError("a, x must lie inside the smallest ball")
    return provider.bracket_full(a, x)


def _bracket_from_triplet(vals, r1: int, r2: int) -> GreenBracket:
    v1, vm, v2 = vals
    i1, i2 = vm - v1, v2 - vm
    ratio = (i2 / i1) if i1 > 0 else 0.0
    if ratio >= 1.0:
        return GreenBracket(v1, np.inf, v2, False, ratio)
    upper = v1 + (v2 - v1) / (1.0 - ratio)
    # point estimate: Richardson for a c/R truncation error (harmonic decay);
    # for geometric decay the increments are tiny and this collapses to ~v2
    estimate = (r2 * v2 - r1 * v1) / (r2 - r1)
    estimate = min(max(estimate, v2), upper) if np.isfinite(upper) else max(estimate, v2)
    return GreenBracket(v1, upper, estimate, True, ratio)


# ---------------------------------------------------------------------------
# Exit distributions
# ---------------------------------------------------------------------------

@dataclass
class ExitDistribution:
    domain: Domain
    start: object
    vector: np.ndarray            # exit probability per point of domain.boundary
    method: str

    @property
    def probs(self) -> dict:
        """Boundary point -> probability, over the points carrying mass."""
        return {z: v for z, v in zip(self.domain.boundary, self.vector.tolist())
                if v != 0.0}

    def total(self) -> float:
        return float(self.vector.sum())


def exit_distribution(domain: Domain, a, mu: StepMeasure,
                      method: str = "solve", trials: int = 0,
                      rng: Optional[np.random.Generator] = None,
                      tol: float = DEFAULT_TOL) -> ExitDistribution:
    """Law of the first position outside S started from a in S, as a vector
    over ``domain.boundary``.

    "solve": mu_S(a, z) = sum_{y in S} G_S(a, y) mu(y^{-1} z) from the
    absorbing-chain linear system on S.  "mc": empirical exit frequencies
    of ``trials`` walkers moved together through the domain's step table.
    Raises ValueError when the domain carries no boundary.
    """
    if domain.boundary is None:
        raise ValueError("domain carries no boundary")
    if a not in domain:
        raise ValueError("start point must lie in S")
    if method not in ("solve", "mc"):
        raise ValueError("method must be 'solve' or 'mc'")
    if method == "mc" and (rng is None or trials <= 0):
        raise ValueError("Monte Carlo mode needs rng and trials")
    n, m = len(domain), len(domain.boundary)
    steps, p = _steps(domain.spec, mu)
    # Monte Carlo walks the whole support: the identity's column, when the
    # law is lazy, is the stay move
    table = domain.step_table(steps if method == "solve" else mu.support_elements())
    if (table < 0).any():
        raise ValueError("a step leaves S outside its recorded boundary")
    if method == "solve":
        gvals = killed_green_solve(domain, [a], mu, tol).row(a)
        # row-major (element, step) order keeps each boundary sum in the
        # order of a loop over elements
        i, k = np.nonzero(table >= n)
        vec = np.bincount(table[i, k] - n, weights=gvals[i] * p[k], minlength=m)
        return ExitDistribution(domain, a, vec, "solve")
    pos = np.full(trials, domain.lookup(a), dtype=np.int64)
    alive = np.arange(trials)
    while alive.size:
        pos[alive] = table[pos[alive], mu.sample_support_index(rng, alive.size)]
        alive = alive[pos[alive] < n]
    return ExitDistribution(domain, a, np.bincount(pos - n, minlength=m) / trials,
                            "mc")


def verify_exit_decomposition(domain: Domain, a, x, mu: StepMeasure,
                              table: GreenTable) -> float:
    """|G(a,x) - sum_z mu_S(a,z) G(z,x)| on the table's computation domain.

    The identity holds exactly for killed Green values once S and its
    boundary lie inside the computation domain, so the residual is
    solver-level.
    """
    if x in domain:
        raise ValueError("x must lie outside S")
    exits = exit_distribution(domain, a, mu, "solve", tol=table.tol)
    prov = TableGreenProvider(table)
    lhs = prov.value(a, x)
    rhs = sum(p * prov.value(z, x) for z, p in exits.probs.items())
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


def spd_certificate_1x1(value: float) -> BoundaryGreenMatrix:
    """Degenerate |boundary| = 1 case: M = [G(z,z)] must be positive."""
    mat = np.array([[value]])
    return BoundaryGreenMatrix(None, mat, value > 0, value, 0.0)


def vector_identity_residual(domain: Domain, a, mu: StepMeasure,
                             table: GreenTable,
                             bgm: Optional[BoundaryGreenMatrix] = None) -> float:
    """max-norm of M_S mu_S(a) - g_S(a) (the vector exit identity)."""
    if bgm is None:
        bgm = boundary_green_matrix(domain, table)
    exits = exit_distribution(domain, a, mu, "solve", tol=table.tol)
    g_vec = table.row_at(a, domain.boundary)
    return float(np.max(np.abs(bgm.matrix @ exits.vector - g_vec)))


# ---------------------------------------------------------------------------
# Monte Carlo hitting estimators
# ---------------------------------------------------------------------------

def default_path_cap(spec: GroupSpec, radius: int) -> int:
    """50 R^2 steps on diffusive backends, 20 R on trees."""
    r = max(radius, 3)
    if spec.variant == "free":
        return max(100, 20 * r)
    return 50 * r * r


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


def mc_green_diagonal(spec: GroupSpec, mu: StepMeasure, trials: int,
                      path_cap: int, rng: np.random.Generator) -> tuple:
    """(estimate, ci95) for G(e,e) = mean visits to e from e within the cap."""
    if spec.variant == "free":
        visits = np.zeros(trials, dtype=np.int64)
        for _, d in zip(range(path_cap + 1), tree_distance_chain(spec.rank, 0, trials, rng)):
            visits += d == 0
    elif spec.variant == "lattice":
        check_transient(spec)
        pos = np.zeros((trials, spec.d), dtype=np.int64)
        visits = np.ones(trials, dtype=np.int64)
        for _ in range(path_cap):
            pos += mu.sample_steps(rng, trials)
            visits += (pos == 0).all(axis=1)
    else:
        raise ValueError("diagonal MC implemented for trees and lattices")
    est = float(visits.mean())
    ci = 1.96 * float(visits.std(ddof=1)) / np.sqrt(trials)
    return est, ci


def mc_hitting_green(spec: GroupSpec, mu: StepMeasure, a, x, trials: int,
                     rng: np.random.Generator, path_cap: Optional[int] = None,
                     gee: Optional[float] = None) -> McGreenEstimate:
    """Estimate G(a, x) = F(a, x) G(e, e) from empirical hitting frequencies.

    Valid on vertex-transitive backends (all supported ones).  The
    confidence band is a binomial 95% interval; the additive truncation
    bias term bounds the conditional hitting probability of the capped,
    unhit walkers through their final distance profile.
    """
    dist0 = groups.word_length(spec, mul(spec, inv(spec, a), x))
    if path_cap is None:
        path_cap = default_path_cap(spec, dist0)
    if gee is None:
        gee, _ = mc_green_diagonal(spec, mu, trials, min(path_cap, 2000), rng)
    if dist0 == 0:
        return McGreenEstimate(gee, 1.0, 0.0, 0.0, trials, path_cap, False)
    if spec.variant == "free":
        hit = np.zeros(trials, dtype=bool)
        for _, d in zip(range(path_cap + 1), tree_distance_chain(spec.rank, dist0, trials, rng)):
            hit |= d == 0
            if hit.all():
                break
        q = 2 * spec.rank - 1
        # conditional hitting probability from distance d is exactly q^{-d}
        bias = float(np.sum(np.power(float(q), -d[~hit].astype(np.float64)))) / trials
    elif spec.variant == "lattice":
        check_transient(spec)
        pos = np.tile(np.asarray(a, dtype=np.int64), (trials, 1))
        target = np.asarray(x, dtype=np.int64)
        hit = (pos == target).all(axis=1)
        for _ in range(path_cap):
            if hit.all():
                break
            pos += mu.sample_steps(rng, trials)
            hit = hit | (pos == target).all(axis=1)
        # for Z^3 SRW: F(y, x) <= 0.63 / |y - x|_1 from the c_3/|.| bound
        d1 = np.abs(pos[~hit] - target).sum(axis=1)
        bias = float(np.sum(np.minimum(1.0, 0.63 / np.maximum(d1, 1)))) / trials
    else:
        raise ValueError("MC hitting implemented for trees and lattices")
    f_hat = float(hit.mean())
    ci = 1.96 * np.sqrt(max(f_hat * (1 - f_hat), 1.0 / trials) / trials)
    return McGreenEstimate(f_hat * gee, f_hat, ci * gee, bias * gee,
                           trials, path_cap, bias > max(3 * ci, 1e-3))


# ---------------------------------------------------------------------------
# Green providers (uniform interface consumed by the functionals layer):
# value(a, x), bracket(a, x) -> (lower, upper), and
# bracket_row(a, xs) -> (values, lowers, uppers) as arrays over xs
# ---------------------------------------------------------------------------

def _rows_by_point(provider, a, xs) -> tuple:
    """bracket_row from one value/bracket query per point."""
    rows = [(provider.value(a, x), *provider.bracket(a, x)) for x in xs]
    return tuple(np.array(rows, dtype=np.float64).reshape(len(rows), 3).T)


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

    def value(self, a, x) -> float:
        return self.green(a, x)

    def bracket(self, a, x) -> tuple:
        v = self.green(a, x)
        return (v, v)

    def bracket_row(self, a, xs) -> tuple:
        return _rows_by_point(self, a, xs)

    def hitting(self, a, x) -> float:
        return float(self.q) ** (-self.distance(a, x))


@dataclass
class TableGreenProvider:
    """Provider backed by a killed table; brackets carry solver error only
    (values are killed-domain values, flagged by the domain label).  Either
    argument may be the tabulated source: symmetric kernels give
    G(a, x) = G(x, a)."""

    table: GreenTable

    def _resolve(self, a, x):
        if a in self.table.sources and self.table.omega.lookup(x) is not None:
            return a, x
        if x in self.table.sources and self.table.omega.lookup(a) is not None:
            return x, a
        raise KeyError(f"neither {a!r} nor {x!r} is a tabulated source")

    def value(self, a, x) -> float:
        a, x = self._resolve(a, x)
        return self.table.green(a, x)

    def bracket(self, a, x) -> tuple:
        a, x = self._resolve(a, x)
        return self.table.bracket(a, x)

    def bracket_row(self, a, xs) -> tuple:
        """(values, lowers, uppers) over xs for a tabulated source a."""
        if a not in self.table.sources:
            raise KeyError(f"{a!r} is not a tabulated source")
        return self.table.bracket_row(a, xs)


class NestedBracketProvider:
    """Full-Green brackets from three nested killed solves per source.

    value() is the Richardson point estimate; bracket() is
    [G_{B(r1)}, geometric-inflation upper].  Rows are solved lazily per
    source and shared across queries.
    """

    def __init__(self, spec: GroupSpec, mu: StepMeasure, r1: int, r2: int,
                 tol: float = DEFAULT_TOL):
        check_transient(spec)
        if not (r1 < r2 - 1):
            raise ValueError("need r1 < r2 - 1")
        self.spec, self.mu, self.tol = spec, mu, tol
        self.radii = (r1, (r1 + r2) // 2, r2)
        self.domains = [ball_domain(spec, mu, r, with_boundary=False)
                        for r in self.radii]
        self._tables = {}

    def _rows(self, a):
        if a not in self._tables:
            self._tables[a] = [killed_green_solve(om, [a], self.mu, self.tol)
                               for om in self.domains]
        return self._tables[a]

    def _triplet(self, a, x):
        tables = self._rows(a)
        return [t.green(a, x) for t in tables]

    def bracket_full(self, a, x) -> GreenBracket:
        return _bracket_from_triplet(self._triplet(a, x),
                                     self.radii[0], self.radii[2])

    def value(self, a, x) -> float:
        return self.bracket_full(a, x).estimate

    def bracket(self, a, x) -> tuple:
        b = self.bracket_full(a, x)
        return (b.lower, b.upper)

    def bracket_row(self, a, xs) -> tuple:
        return _rows_by_point(self, a, xs)


# ---------------------------------------------------------------------------
# Quarter-plane killed walk (Z^2 SRW killed on the axes and outside a box)
# ---------------------------------------------------------------------------

@dataclass
class QuadrantGreenTable:
    box: int
    sources: list
    values: np.ndarray            # (n_sources, box, box); [i, x1-1, x2-1]
    residuals: np.ndarray

    def green(self, src, y) -> float:
        i = self.sources.index(tuple(src))
        return float(self.values[i, y[0] - 1, y[1] - 1])


def quadrant_killed_green(box: int, sources: list,
                          tol: float = DEFAULT_TOL) -> QuadrantGreenTable:
    """Killed Green table of SRW on Z^2 with Dirichlet kill on the
    coordinate axes and outside the box [1, L]^2."""
    L = box
    n = L * L

    def idx(x1, x2):
        return (x1 - 1) * L + (x2 - 1)

    rows, cols, vals = [], [], []
    for x1 in range(1, L + 1):
        for x2 in range(1, L + 1):
            i = idx(x1, x2)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                y1, y2 = x1 + dx, x2 + dy
                if 1 <= y1 <= L and 1 <= y2 <= L:
                    rows.append(i)
                    cols.append(idx(y1, y2))
                    vals.append(-0.25)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n)) + sp.identity(n, format="csr")
    lu = spla.splu(mat.tocsc())
    out = np.zeros((len(sources), L, L))
    res = np.zeros(len(sources))
    for i, srcp in enumerate(sources):
        rhs = np.zeros(n)
        rhs[idx(*srcp)] = 1.0
        v = lu.solve(rhs)
        res[i] = float(np.max(np.abs(mat @ v - rhs)))
        out[i] = v.reshape(L, L)
    return QuadrantGreenTable(L, [tuple(s) for s in sources], out, res)


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
