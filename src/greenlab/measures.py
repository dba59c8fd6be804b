"""Step laws: construction, sampling, and exact convolution.

Three families are provided: finite-support measures (simple random walk
and its lazifications), heavy-tailed shell measures whose per-radius mass
is p_r = const / (r^2 log r) carried by axis powers, and power-tail
measures on Z with pmf proportional to |k|^{-(1+alpha)}.

``special`` and ``fft`` are lazy module attributes
(``greenlab._LazyModule``): SciPy loads the first time a stable law needs
zeta or digamma or a convolution needs an FFT, so importing greenlab, and
runs that sample shell or finite laws, load none of it (the benchmark's
``setup_s`` is that import).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from . import CPUS, _LazyModule, groups, thread_map
from .groups import GroupSpec, GeneratorSet, identity

fft = _LazyModule("scipy.fft")
special = _LazyModule("scipy.special")

# Guards the lazy build of a measure's sampling tables: the batched walker's
# replica threads sample one measure concurrently, and one build is enough.
_TABLE_LOCK = threading.Lock()

# Fraction of shell-measure mass pinned uniformly on the unit generators;
# certifies non-degeneracy without disturbing the r >= r0 shell bounds.
UNIT_MASS = 0.1

# Largest shell radius the sampler draws: the law on [r0, this] is
# renormalised, and StepMeasure.sampler_tail_mass bounds the mass beyond.
# The guide table holds SAMPLE_HEAD radii from r0 and one atom for the rest
# of [r0, this], redrawn by rejection (_HeadTailCdf), so the cap costs no
# memory.
SHELL_SAMPLE_RADIUS_MAX = 2 * 10 ** 6

# Largest stable magnitude the sampler draws (the law on 1..this is
# renormalised; the mass beyond is StepMeasure.sampler_tail_mass, exact by
# Hurwitz zeta).  As for shells, the table holds magnitudes 1..SAMPLE_HEAD
# and one atom for the rest, redrawn by rejection.
STABLE_SAMPLE_MAGNITUDE_MAX = 10 ** 7 - 1

# Head atoms of a shell or stable sampling table (see _HeadTailCdf).
SAMPLE_HEAD = 2 ** 16


def _range_sum(f, lo: int, hi: int, block: int = 10 ** 6) -> float:
    """sum_{lo <= n < hi} f(n) for a vectorised f, over float64 blocks of
    `block` terms starting at lo (bounded memory; the blocks fix the
    rounding)."""
    total = 0.0
    for start in range(lo, hi, block):
        n = np.arange(start, min(start + block, hi), dtype=np.float64)
        total += float(np.sum(f(n)))
    return total


def _shell_f(r: np.ndarray) -> np.ndarray:
    """1 / (r^2 log r), the shell radius weight, computed in place."""
    log_r = np.log(r)
    np.multiply(r, r, out=r)
    np.multiply(r, log_r, out=r)
    return np.divide(1.0, r, out=r)


# ---------------------------------------------------------------------------
# Integer pmfs with truncation bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class PmfOnZ:
    """Pmf on Z as a dense array over [lo, lo+len), with tracked clipped mass."""

    vals: np.ndarray
    lo: int
    delta_trunc: float = 0.0

    def __post_init__(self):
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if np.any(self.vals < -1e-15):
            raise ValueError("pmf values must be nonnegative")
        total = float(self.vals.sum()) + self.delta_trunc
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mass + delta_trunc = {total} is not 1")

    @property
    def hi(self) -> int:
        return self.lo + len(self.vals) - 1

    def at(self, k: int) -> float:
        if self.lo <= k <= self.hi:
            return float(self.vals[k - self.lo])
        return 0.0


def pmf_from_dict(d: dict, delta_trunc: float = 0.0) -> PmfOnZ:
    lo, hi = min(d), max(d)
    vals = np.zeros(hi - lo + 1)
    for k, p in d.items():
        vals[k - lo] = p
    return PmfOnZ(vals, lo, delta_trunc)


def convolve_z(p: PmfOnZ, q: PmfOnZ, cap: int) -> PmfOnZ:
    """Exact convolution of two integer pmfs restricted to |k| <= cap.

    Long products (n = len(p) + len(q) - 1 > 4096) are cyclic convolutions
    by a four-step FFT (_cyclic_convolution).  If [a, b] are the indices of
    the linear product that fall in the window, a cyclic length of at least
    need = max(b + 1, n - a) (and at least each input's length) wraps
    nothing into [a, b]: an index k there could only receive index k + N,
    which exceeds n - 1, or k - N, which is negative.  So the kept values
    are the linear convolution's, up to round-off, from a transform about
    3 cap long once the window is full, where the whole product needs
    4 cap.  When q is p its spectrum is computed once and squared.  The
    inputs' arrays are handed to the squaring and this call keeps no
    reference to them, so a caller that holds no other reference (the
    doubling chain) has each input freed once it is transformed, before
    the window is written.  Round-off negatives are clamped to 0.  All
    clipped mass (and any mass already missing from the inputs) is
    accumulated into delta_trunc of the result.  delta_trunc =
    1 - sum(kept) also absorbs the FFT's round-off in the total mass,
    which each squaring of a doubling chain doubles (the mass is squared)
    and adds to: for the alpha = 1 stable law at cap 4.2e6, a change of
    the twiddles' rounding alone moved delta_trunc by 5e-14 to 2.7e-12
    over n = 16..4096 (2.1e-13 at n = 4096), against clipped masses of
    2.3e-6 to 5.9e-4.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    n = len(p.vals) + len(q.vals) - 1
    lo = p.lo + q.lo
    lo_keep = max(lo, -cap)
    hi_keep = min(lo + n - 1, cap)
    if hi_keep < lo_keep:
        raise ValueError("cap window misses the whole convolution support")
    a, b = lo_keep - lo, hi_keep - lo
    if n > 4096:
        need = max(b + 1, n - a, len(p.vals), len(q.vals))
        inputs = [p.vals] if q is p else [p.vals, q.vals]
        del p, q
        kept = _cyclic_convolution(inputs, need, a, b)
    else:
        kept = np.maximum(np.convolve(p.vals, q.vals)[a: b + 1], 0.0)
    delta = 1.0 - float(kept.sum())
    return PmfOnZ(kept, lo_keep, max(delta, 0.0))


# Spectrum columns per slab of _cyclic_convolution: at the acceptance sizes
# (n1 about 3,500) a slab, its transform and its twiddles take about 1 MB
# each, so a slab stays in cache and CPUS of them cost little beside a
# window.
SLAB_COLUMNS = 32


def _cyclic_convolution(inputs: list, need: int, a: int, b: int) -> np.ndarray:
    """Indices a..b of the cyclic convolution of the one or two arrays in
    inputs (one: that array with itself), zero-padded to a length
    N = n1 * n2 >= need, clamped at 0.  The arrays are taken out of inputs,
    which is left empty, and each is dropped once it is transformed.  The
    transform is the four-step FFT (Bailey, "FFTs in external or
    hierarchical memory", J. Supercomputing 4, 1990).

    A signal is viewed as an (n1, n2) array, j = j1 n2 + j2.  A real FFT
    down axis 0, the twiddles exp(-2 pi i k1 j2 / N) and a complex FFT
    along axis 1 give the spectrum at k = k1 + n1 k2 in slot [k1, k2] for
    k1 <= n1 / 2, which determines the rest; the pointwise product does not
    care about this transposed layout, and the inverse runs the three steps
    backwards.  The axis-0 steps stream through slabs of SLAB_COLUMNS
    columns, spread over ``CPUS`` threads (the CPUs this process may use):
    a forward slab gathers its columns from the signal, transforms them,
    multiplies by its twiddles and writes them into the half spectrum S,
    and an inverse slab writes only the rows that cover [a, b] into the
    output window.  The axis-1 transforms run in place on S, batched over
    ``CPUS`` threads.  Each column's arithmetic is the same as in one
    whole-grid transform, so the result does not depend on the slab width
    or on CPUS.  No real n1 x n2 grid is built and the twiddles come from
    two small tables (_Twiddles), so a squaring holds S, one window (the
    input, then the output) and a slab per thread; a product of two inputs
    holds one more S.
    """
    n1, n2 = _four_step_shape(need)
    twiddles = _Twiddles(n1, n2)
    slabs = [(lo, min(lo + SLAB_COLUMNS, n2))
             for lo in range(0, n2, SLAB_COLUMNS)]
    spectra = []
    while inputs:
        v = inputs.pop(0)
        s = np.empty((n1 // 2 + 1, n2), dtype=np.complex128)
        full, rest = divmod(len(v), n2)

        def forward(i):
            lo, hi = slabs[i]
            block = np.zeros((n1, hi - lo))
            block[:full] = v[:full * n2].reshape(full, n2)[:, lo:hi]
            if rest > lo:
                tail = v[full * n2 + lo: full * n2 + min(hi, rest)]
                block[full, :len(tail)] = tail
            t = fft.rfft(block, axis=0, workers=1)
            del block
            np.multiply(t, twiddles.cols(lo, hi), out=s[:, lo:hi])

        thread_map(forward, len(slabs))
        # the input goes before another S or the output is allocated
        del v, forward
        spectra.append(fft.fft(s, axis=1, overwrite_x=True, workers=CPUS))
    s = spectra[0]
    np.multiply(s, spectra[-1], out=s)
    del spectra
    s = fft.ifft(s, axis=1, overwrite_x=True, workers=CPUS)
    # rows r0.. of the grid cover [a, b]; out starts at r0's first column,
    # so the window is out's flat view from a - r0 n2
    r0 = a // n2
    out = np.empty((b // n2 - r0 + 1, n2))

    def inverse(i):
        lo, hi = slabs[i]
        # t * conj(w) as conj(conj(t) * w): no conjugated copy of w
        t = np.conjugate(s[:, lo:hi])
        t *= twiddles.cols(lo, hi)
        np.conjugate(t, out=t)
        r = fft.irfft(t, n1, axis=0, workers=1)
        np.maximum(r[r0:r0 + len(out)], 0.0, out=out[:, lo:hi])

    thread_map(inverse, len(slabs))
    return out.reshape(-1)[a - r0 * n2: b - r0 * n2 + 1]


def _four_step_shape(need: int) -> tuple:
    """The (n1, n2) grid of _cyclic_convolution for a cyclic length of at
    least need: n1 just above sqrt(need), both fast FFT lengths."""
    n1 = fft.next_fast_len(math.isqrt(need) + 1, True)
    return n1, fft.next_fast_len(-(-need // n1))


class _Twiddles:
    """exp(-2 pi i k1 j2 / N) for k1 <= n1 / 2 and j2 < n2, N = n1 n2, as a
    product of two tables: with j2 = q B + r, r < B = ceil(sqrt(n2)), it is
    coarse[k1, q] * fine[k1, r].  Together the tables hold about
    n1 sqrt(n2) values (3.4 MB at N = 1.26e7, where the whole table took
    101 MB).  Each factor is within rounding of its exact value, so the
    product is within a few ulp of the whole table's (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, Thm 24.2: the FFT's error
    bound grows with the twiddles' error, not with how they are stored).
    """

    def __init__(self, n1: int, n2: int):
        size = n1 * n2
        self.b = math.isqrt(n2 - 1) + 1
        k1 = np.arange(n1 // 2 + 1, dtype=np.int64)[:, None]
        self.coarse = _unit_roots(k1 * np.arange(0, n2, self.b), size)
        self.fine = _unit_roots(k1 * np.arange(self.b), size)

    def cols(self, lo: int, hi: int) -> np.ndarray:
        """The twiddles of columns lo <= j2 < hi, shape (n1 // 2 + 1, hi - lo)."""
        q, r = np.divmod(np.arange(lo, hi), self.b)
        w = self.coarse[:, q]
        w *= self.fine[:, r]
        return w


def _unit_roots(m: np.ndarray, size: int) -> np.ndarray:
    """exp(-2 pi i m / size) for int64 m, from m mod size, so every angle
    lies in (-2 pi, 0]."""
    angle = (m % size) * (-2.0 * np.pi / size)
    w = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=w.real)
    np.sin(angle, out=w.imag)
    return w


def self_convolution_powers(p: PmfOnZ, exponents, cap: int) -> Iterator:
    """Yield (n, p^(n)) for n in a set of powers of two, ascending.

    The powers come from repeated squaring, one spectrum per squaring on
    the FFT branch of convolve_z, at the cyclic length max(b + 1, n - a)
    that wraps nothing into the kept window [a, b]: once the window |k| <=
    cap is full that is 3 cap + 1 points, not the 4 cap + 1 of the whole
    product.  The chain hands each power to its squaring and keeps no
    reference to it, and the squaring frees it once it is transformed.  A
    caller that passes p without keeping it and drops each checkpoint
    before asking for the next holds one power at a time, so a squaring's
    peak is the half spectrum (about one n1 x n2 grid of reals), one window
    and a column slab per thread: about 1.7 grids on a full window.
    """
    want = sorted(set(exponents))
    for n in want:
        if n < 1 or n & (n - 1):
            raise ValueError("exponents must be powers of two")
    return _doubling_chain(p, want, cap)


def _doubling_chain(cur: PmfOnZ, want: list, cap: int):
    n = 1
    if n in want:
        yield n, cur
    held = [cur]
    del cur
    while n < want[-1]:
        # the power leaves held as the call's arguments, so the squaring
        # holds the only references to it and frees it once it is
        # transformed
        held.append(convolve_z(held[0], held.pop(), cap))
        n *= 2
        if n in want:
            yield n, held[0]


def total_variation_shift(p: PmfOnZ, k: int) -> float:
    """TV distance between p and its shift by k, on the represented window."""
    if k == 0:
        return 0.0
    a = p.vals
    n, s = len(a), abs(k)
    # |a(x) - a(x - s)| over the n + s points of either window: the sign of
    # k flips every difference, which the absolute value undoes
    out = np.zeros(n + s)
    if s < n:
        out[:s] = a[:s]
        np.subtract(a[s:], a[:-s], out=out[s:n])
        out[n:] = a[n - s:]
    else:
        out[:n] = a
        out[s:] = a
    np.abs(out, out=out)
    return 0.5 * float(out.sum())


# ---------------------------------------------------------------------------
# Inverse-CDF sampling tables
# ---------------------------------------------------------------------------

class _GuidedCdf:
    """A CDF over n entries with a guide table for inversion (Chen & Asau
    1974; Devroye, Non-Uniform Random Variate Generation, 1986, III.2.4).

    index(u) is exactly min(searchsorted(cdf, u), n - 1).  guide[b] is
    searchsorted(cdf, b / K) for b = 0..K, so the index of a u in
    [b/K, (b+1)/K) lies in [guide[b], guide[b+1]]; where that span holds at
    most one entry it is guide[b] + (cdf[guide[b]] < u), elsewhere a binary
    search finds it.  K is a power of two, so u*K and b/K are exact.  A +inf
    sentinel after the last entry keeps cdf[guide[b]] defined at
    guide[b] = n.
    """

    K = 2 ** 16

    def __init__(self, table: np.ndarray):
        """table: float64 weights in all but its last slot; it is turned
        into the CDF (cumsum / sum, as numpy computes them) in place."""
        self.n = n = len(table) - 1
        w = table[:n]
        total = w.sum()
        np.cumsum(w, out=w)
        w /= total
        table[n] = np.inf
        self.cdf = table
        self.guide = np.searchsorted(table, np.arange(self.K + 1) / self.K)
        self.wide = np.diff(self.guide) > 1

    def index(self, u: np.ndarray) -> np.ndarray:
        """min(searchsorted(cdf, u), n - 1) for u in [0, 1)."""
        b = (u * self.K).astype(np.intp)
        g = self.guide[b]
        idx = g + (self.cdf[g] < u)
        wide = np.flatnonzero(self.wide[b])
        idx[wide] = np.searchsorted(self.cdf, u[wide])
        return np.minimum(idx, self.n - 1, out=idx)


class _HeadTailCdf(_GuidedCdf):
    """Lengths start, start + 1, ..., L of a shell or stable law, drawn by
    guide-table inversion; the last atom holds the law's whole mass on the
    tail [L, M], and a draw that lands on it is redrawn exactly from that
    tail by rejection.

    The proposal is floor(X) with X Pareto(alpha) truncated to [L, M + 1)
    (Devroye 1986, X.6), so P(floor(X) = k) is proportional to
    k^-alpha - (k+1)^-alpha; `accept(k)` is the target weight over that,
    scaled to at most 1 on [L, M].  A proposal outside [L, M] (possible
    only by rounding) is rejected too.  Atoms of zero weight (shell radii
    between 1 and r0) are never drawn: start carries positive weight, and
    a zero atom's CDF entry equals the one before it.
    """

    def __init__(self, table: np.ndarray, start: int, tail_lo: int,
                 tail_hi: int, alpha: float, accept):
        super().__init__(table)
        self.start, self.tail_lo, self.tail_hi = start, tail_lo, tail_hi
        self.alpha, self.accept = alpha, accept

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """int64 lengths: one uniform each, plus the tail's redraws."""
        k = self.index(rng.random(size))
        tail = np.flatnonzero(k == self.n - 1)
        k += self.start
        if len(tail):
            k[tail] = self.tail_draws(rng, len(tail))
        return k

    def tail_draws(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m draws of the law conditioned on [L, M]: each round draws a
        (proposal, acceptance) pair of uniforms per length still missing."""
        a, lo, hi = self.alpha, self.tail_lo, self.tail_hi
        top = lo ** -a
        span = top - (hi + 1.0) ** -a
        out = np.empty(m, dtype=np.int64)
        done = 0
        while done < m:
            u, v = rng.random((2, m - done))
            k = np.floor((top - u * span) ** (-1.0 / a))
            inside = (k >= lo) & (k <= hi)
            k, v = k[inside], v[inside]
            k = k[v < self.accept(k)]
            out[done:done + len(k)] = k
            done += len(k)
        return out


def _stable_acceptance(alpha: float, lo: int):
    """k -> alpha k^-(1+alpha) / ((k^-alpha - (k+1)^-alpha) (1 + 1/L)^(1+alpha)),
    with the difference as -k^-alpha expm1(-alpha log1p(1/k)).  The mean
    value theorem puts the difference above alpha (k+1)^-(1+alpha), so
    this is at most ((1 + 1/k) / (1 + 1/L))^(1+alpha) <= 1 for k >= L."""
    bound = (1.0 + 1.0 / lo) ** (1.0 + alpha)

    def accept(k):
        return alpha / (-k * np.expm1(-alpha * np.log1p(1.0 / k)) * bound)
    return accept


def _shell_acceptance(lo: int):
    """k -> g(k) / g(L) with g(k) = (k + 1) / (k log k), the shell weight
    1 / (k^2 log k) over the proposal's 1 / (k (k + 1)).  g decreases, so
    this is at most 1 for k >= L, and exactly 1 at L."""
    def g(k):
        return (k + 1.0) / (k * np.log(k))
    top = g(np.float64(lo))

    def accept(k):
        return g(k) / top
    return accept


# ---------------------------------------------------------------------------
# Step measures on group backends
# ---------------------------------------------------------------------------

@dataclass
class StepMeasure:
    """Step law on a group backend.

    kind = "finite": explicit support dict {element: prob}.
    kind = "shell":  radial law p_r ~ 1/(r^2 log r) on axis powers, plus a
                     fixed unit-generator mass; exact pmf available for any
                     element, radii sampled up to SHELL_SAMPLE_RADIUS_MAX.
    kind = "stable_z": pmf C_alpha |k|^{-(1+alpha)} on the Z backend,
                     magnitudes sampled up to STABLE_SAMPLE_MAGNITUDE_MAX.

    Shell and stable laws draw a step's length, laziness included, from
    one _HeadTailCdf: lengths 0 (lazy) and 1 (shell unit steps), a head of
    SAMPLE_HEAD radii or magnitudes, and one atom for the rest of the law
    up to the cap, which is redrawn by exact rejection.  The law sampled is
    the truncated, renormalised one; sampler_tail_mass is the mass that
    truncation moves.
    """

    spec: GroupSpec
    kind: str
    name: str
    laziness: float = 0.0
    probs: Optional[dict] = None          # finite kind
    r0: int = 0                           # shell kind
    shell_norm: float = 0.0               # 1/Z for the radius law
    axes: tuple = ()                      # shell direction set (axis, sign) roots
    alpha: float = 0.0                    # stable kind
    c_alpha: float = 0.0
    # sampling caches; not init fields, so replace() (as in lazy_transform)
    # rebuilds them
    _radius_cdf: Optional[_HeadTailCdf] = field(default=None, init=False,
                                                repr=False, compare=False)
    _stable_cdf: Optional[_HeadTailCdf] = field(default=None, init=False,
                                                repr=False, compare=False)
    _support_law: Optional[tuple] = field(default=None, init=False,
                                          repr=False, compare=False)

    # -- generic interface ---------------------------------------------------

    def pmf(self, g) -> float:
        e = identity(self.spec)
        lazy = self.laziness
        base = self._base_pmf(g)
        if g == e:
            return lazy + (1.0 - lazy) * base
        return (1.0 - lazy) * base

    def _base_pmf(self, g) -> float:
        if self.kind == "finite":
            return self.probs.get(g, 0.0)
        if self.kind == "stable_z":
            (k,) = g
            if k == 0:
                return 0.0
            return self.c_alpha * abs(k) ** -(1.0 + self.alpha)
        # shell
        e = identity(self.spec)
        if g == e:
            return 0.0
        units = standard_support(self.spec)
        if g in units:
            return UNIT_MASS / len(units)
        r, ok = self._axis_radius(g)
        if ok and r >= self.r0:
            return (1.0 - UNIT_MASS) * self.shell_norm / (r * r * np.log(r)) / (2 * len(self.axes))
        return 0.0

    def support_elements(self) -> list:
        """Explicit support of a finite-kind measure."""
        if self.kind == "finite":
            sup = [g for g, p in self.probs.items() if p > 0]
            if self.laziness > 0:
                e = identity(self.spec)
                if e not in sup:
                    sup.append(e)
            return sorted(sup)
        raise ValueError("infinite-support measure has no finite support list")

    def finite_range(self) -> bool:
        return self.kind == "finite"

    def shell_constants(self) -> tuple:
        """(c1, c2) with c1/(r^2 log r) <= p_r <= c2/(r^2 log r) for r >= r0."""
        c = (1.0 - self.laziness) * (1.0 - UNIT_MASS) * self.shell_norm
        return (c, c)

    def sampler_tail_mass(self) -> float:
        """Mass of the law beyond the sampler's table, which the sampler
        renormalises away: 0 for finite laws; for stable laws the exact
        (1 - lazy) zeta(1+alpha, M+1) / zeta(1+alpha) with
        M = STABLE_SAMPLE_MAGNITUDE_MAX; for shell laws an upper bound, from
        sum_{r>M} 1/(r^2 log r) <= 1/(M log M) with M = SHELL_SAMPLE_RADIUS_MAX.
        """
        if self.kind == "finite":
            return 0.0
        if self.kind == "stable_z":
            s = 1.0 + self.alpha
            tail = special.zeta(s, STABLE_SAMPLE_MAGNITUDE_MAX + 1) / special.zeta(s)
            return float((1.0 - self.laziness) * tail)
        m = SHELL_SAMPLE_RADIUS_MAX
        return float(self.shell_constants()[1] / (m * np.log(m)))

    # -- shell helpers -------------------------------------------------------

    def _axis_radius(self, g):
        """If g is an axis power t^{+-r}, return (r, True)."""
        if self.spec.variant == "lattice":
            nz = [(i, a) for i, a in enumerate(g) if a != 0]
            if len(nz) == 1:
                return abs(nz[0][1]), True
            return 0, False
        if self.spec.variant == "heisenberg":
            a, b, c = g
            if c == 0 and (a == 0) != (b == 0):
                return abs(a) + abs(b), True
            return 0, False
        raise ValueError("shell measures need lattice or Heisenberg axes")

    # -- sampling ------------------------------------------------------------

    def _finite_law(self) -> tuple:
        """(support_elements(), normalised pmf over it, the support as int64
        coordinate rows or None off lattices and Heis3), built once."""
        if self._support_law is None:
            sup = self.support_elements()
            w = np.array([self.pmf(s) for s in sup])
            rows = (np.array(sup, dtype=np.int64)
                    if self.spec.variant in ("lattice", "heisenberg") else None)
            self._support_law = (sup, w / w.sum(), rows)
        return self._support_law

    def sample_support_index(self, rng: np.random.Generator,
                             size: int) -> np.ndarray:
        """Indices into support_elements() drawn with the normalised pmf
        (the identity is in the support of a lazy finite law)."""
        w = self._finite_law()[1]
        return rng.choice(len(w), size=size, p=w)

    def sample_steps(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Steps as int64 coordinate rows (lattice and Heisenberg backends).

        Finite laws make one sample_support_index draw.  Stable laws draw
        sample_stable_ints, then one integers(0, 2) sign per step; shell
        laws draw sample_shell_radii, then one integers(0, 2 len(axes))
        direction d per step: axis d // 2, sign + for even d.  Length 0 is the identity and shell length 1 a unit
        generator, i.e. an axis power of length 1.
        """
        if self.spec.variant not in ("lattice", "heisenberg"):
            raise ValueError("coordinate steps need a lattice or Heisenberg backend")
        dim = self.spec.d if self.spec.variant == "lattice" else 3
        if self.kind == "finite":
            return self._finite_law()[2][self.sample_support_index(rng, size)]
        if self.kind == "stable_z":
            mag = self.sample_stable_ints(rng, size)
            return (mag * (rng.integers(0, 2, size=size) * 2 - 1))[:, None]
        r = self.sample_shell_radii(rng, size)
        d = rng.integers(0, 2 * len(self.axes), size=size)
        r *= 1 - 2 * (d & 1)
        d >>= 1
        steps = np.zeros((size, dim), dtype=np.int64)
        for j, ax in enumerate(self.axes):
            np.multiply(r, d == j, out=steps[:, ax])
        return steps

    def sample_shell_radii(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Step lengths of a shell law: 0 marks a lazy step, 1 a unit
        generator, r >= r0 an axis power."""
        with _TABLE_LOCK:
            if self._radius_cdf is None:
                self._radius_cdf = self._length_table(
                    self.r0, self.r0 + SAMPLE_HEAD, SHELL_SAMPLE_RADIUS_MAX)
        return self._radius_cdf.draw(rng, size)

    def sample_stable_ints(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Step magnitudes of a stable law, 0 for a lazy step: one uniform
        each, and any tail redraws.  sample_steps draws the signs."""
        with _TABLE_LOCK:
            if self._stable_cdf is None:
                self._stable_cdf = self._length_table(
                    1, SAMPLE_HEAD + 1, STABLE_SAMPLE_MAGNITUDE_MAX)
        return self._stable_cdf.draw(rng, size)

    def _length_table(self, lo: int, tail_lo: int, tail_hi: int) -> _HeadTailCdf:
        """The _HeadTailCdf of step lengths: weight lazy at 0, (1 - lazy)
        UNIT_MASS at 1 for shells, and the rest spread over lo..tail_hi in
        proportion to the law's weights, the head lo..tail_lo - 1 one atom
        each and the tail [tail_lo, tail_hi] on the atom tail_lo (its exact
        sum: a Hurwitz zeta difference for stable laws, a direct sum for
        shells)."""
        lazy = self.laziness
        start = 0 if lazy > 0 else 1
        # one slot per length start..tail_lo, plus _GuidedCdf's sentinel
        w = np.zeros(tail_lo - start + 2)
        head = w[lo - start:tail_lo - start]
        head[:] = np.arange(lo, tail_lo, dtype=np.float64)
        if self.kind == "stable_z":
            s = 1.0 + self.alpha
            np.power(head, -s, out=head)
            tail = float(special.zeta(s, tail_lo) - special.zeta(s, tail_hi + 1))
            accept = _stable_acceptance(self.alpha, tail_lo)
            alpha, body = self.alpha, 1.0 - lazy
        else:
            _shell_f(head)
            tail = _range_sum(_shell_f, tail_lo, tail_hi + 1, SAMPLE_HEAD)
            accept = _shell_acceptance(tail_lo)
            alpha, body = 1.0, (1.0 - lazy) * (1.0 - UNIT_MASS)
            w[1 - start] = (1.0 - lazy) * UNIT_MASS
        w[tail_lo - start] = tail
        law = w[lo - start:tail_lo - start + 1]
        law *= body / (float(head.sum()) + tail)
        if lazy > 0:
            w[0] = lazy
        return _HeadTailCdf(w, start, tail_lo, tail_hi, alpha, accept)

    def to_pmf_on_z(self, cap: int) -> PmfOnZ:
        """Exact truncated pmf for Z-backed measures on |k| <= cap.  A
        stable law's window is built in place, in one array; a finite
        law's support is scattered into a zero window."""
        if self.spec.variant != "lattice" or self.spec.d != 1:
            raise ValueError("pmf-on-Z view requires the Z backend")
        if self.kind == "stable_z":
            vals = np.arange(-cap, cap + 1, dtype=np.float64)
            np.abs(vals, out=vals)
            with np.errstate(divide="ignore"):
                np.power(vals, -(1.0 + self.alpha), out=vals)
            np.multiply(vals, self.c_alpha, out=vals)
            vals[cap] = 0.0
            vals *= (1.0 - self.laziness)
            vals[cap] += self.laziness
        elif self.kind == "finite":
            vals = np.zeros(2 * cap + 1)
            for g in self.support_elements():
                if abs(g[0]) <= cap:
                    vals[g[0] + cap] = self.pmf(g)
        else:
            vals = np.array([self.pmf((k,)) for k in range(-cap, cap + 1)])
        return PmfOnZ(vals, -cap, max(0.0, 1.0 - float(vals.sum())))


def standard_support(spec: GroupSpec) -> tuple:
    return tuple(groups.standard_generators(spec).elements)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def uniform_on_generators(gens: GeneratorSet) -> StepMeasure:
    if len(gens) == 0:
        raise ValueError("empty generator set")
    p = 1.0 / len(gens)
    probs = {g: p for g in gens}
    return StepMeasure(gens.spec, "finite", f"srw[{gens.spec.label()}]", probs=probs)


def lazy_transform(mu: StepMeasure, eps: float) -> StepMeasure:
    """The law eps*delta_e + (1-eps)*mu."""
    if not (0.0 <= eps < 1.0):
        raise ValueError("laziness must lie in [0, 1)")
    if eps == 0.0:
        return mu
    # compose lazinesses: eps' = eps + (1-eps)*lazy_old
    new_lazy = eps + (1.0 - eps) * mu.laziness
    return replace(mu, laziness=new_lazy, name=f"lazy({mu.name},{eps:g})")


def _is_srw(spec: GroupSpec, mu: StepMeasure) -> bool:
    """Whether mu is SRW on spec's standard generators up to laziness."""
    if mu.kind != "finite":
        return False
    gens = groups.standard_generators(spec).elements
    want = (1.0 - mu.laziness) / len(gens)
    return set(mu.support_elements()) - {identity(spec)} == set(gens) and all(
        abs(mu.pmf(g) - want) < 1e-12 for g in gens)


def shell_norm_constant(r0: int) -> float:
    """1/Z with Z = sum_{r>=r0} 1/(r^2 log r), summed directly to 1e7 with an
    integral tail bound (tail < 1e-8 there)."""
    hi = 10 ** 7
    total = _range_sum(_shell_f, r0, hi)
    total += 1.0 / (hi * np.log(hi))  # integral bound for the remainder
    return 1.0 / total


def shell_measure(spec: GroupSpec, r0: int = 3) -> StepMeasure:
    """Symmetric heavy-tailed law with two-sided shell bounds
    c1/(r^2 log r) <= p_r <= c2/(r^2 log r) for all r >= r0.

    Mass at radius r sits on the powers {x^{+-r}, y^{+-r}} of designated
    axis generators (each has word length exactly r); a further 10% of the
    mass is uniform on the unit generators, certifying non-degeneracy: the
    unit generators reach B(e, 2) in two steps.
    """
    if r0 < 3:
        raise ValueError("r0 must be at least 3")
    if spec.variant == "lattice":
        axes = tuple(range(spec.d))
    elif spec.variant == "heisenberg":
        axes = (0, 1)
    else:
        raise ValueError("shell measures need lattice or Heisenberg backends")
    return StepMeasure(spec, "shell", f"shell[{spec.label()},r0={r0}]",
                       r0=r0, shell_norm=shell_norm_constant(r0), axes=axes)


def stable_z_measure(alpha: float) -> StepMeasure:
    """Symmetric power-tail law on Z: mu(k) = C_alpha |k|^{-(1+alpha)} (k != 0),
    normalised by 2 C_alpha zeta(1+alpha) = 1.  Support contains {+-1, +-2},
    so the gcd of support differences is 1 (aperiodicity)."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")
    c = 1.0 / (2.0 * special.zeta(1.0 + alpha))
    return StepMeasure(groups.integer_lattice(1), "stable_z",
                       f"stable[alpha={alpha:g}]", alpha=alpha, c_alpha=c)


def first_moment_partial(mu: StepMeasure, radius: int) -> float:
    """sum_{|g| <= R} |g| mu(g) via the radius decomposition."""
    lazy = mu.laziness
    if mu.kind == "finite":
        lengths = {g: groups.word_length(mu.spec, g) for g in mu.probs}
        return (1.0 - lazy) * sum(
            p * lengths[g] for g, p in mu.probs.items() if lengths[g] <= radius
        )
    if mu.kind == "stable_z":
        # 2 C sum_{k<=R} k^{-alpha}
        if abs(mu.alpha - 1.0) < 1e-12:
            h = float(special.digamma(radius + 1)) + np.euler_gamma
        else:
            h = _range_sum(lambda k: k ** -mu.alpha, 1, radius + 1)
        return (1.0 - lazy) * 2.0 * mu.c_alpha * h
    # shell: unit part + sum_{r0<=r<=R} r p_r
    total = UNIT_MASS * 1.0
    acc = _range_sum(lambda r: 1.0 / (r * np.log(r)), mu.r0, radius + 1)
    total += (1.0 - UNIT_MASS) * mu.shell_norm * acc
    return (1.0 - lazy) * total
