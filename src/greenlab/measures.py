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

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from . import CPUS, _LazyModule, groups
from .groups import GroupSpec, GeneratorSet, identity, mul

fft = _LazyModule("scipy.fft")
special = _LazyModule("scipy.special")

MASS_TOL = 1e-12

# Fraction of shell-measure mass pinned uniformly on the unit generators;
# certifies non-degeneracy without disturbing the r >= r0 shell bounds.
UNIT_MASS = 0.1

# Largest shell radius the sampler draws.  Its guide-table CDF spans
# [r0, SHELL_SAMPLE_RADIUS_MAX] and renormalises away the mass beyond it,
# which StepMeasure.sampler_tail_mass bounds.
SHELL_SAMPLE_RADIUS_MAX = 2 * 10 ** 6

# Largest stable magnitude the sampler draws (the CDF spans 1..this); the
# mass beyond it is StepMeasure.sampler_tail_mass, exact by Hurwitz zeta.
STABLE_SAMPLE_MAGNITUDE_MAX = 10 ** 7 - 1


def _range_sum(f, lo: int, hi: int) -> float:
    """sum_{lo <= n < hi} f(n) for a vectorised f, over float64 blocks of
    10^6 terms starting at lo (bounded memory; the blocks fix the rounding)."""
    total = 0.0
    for start in range(lo, hi, 10 ** 6):
        n = np.arange(start, min(start + 10 ** 6, hi), dtype=np.float64)
        total += float(np.sum(f(n)))
    return total


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

    def mass(self) -> float:
        return float(self.vals.sum())

    def support(self) -> np.ndarray:
        return np.nonzero(self.vals)[0] + self.lo

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        ks = np.arange(self.lo, self.hi + 1)
        lo2, hi2 = min(self.lo, -self.hi), max(self.hi, -self.lo)
        full = np.zeros(hi2 - lo2 + 1)
        full[ks - lo2] = self.vals
        return bool(np.max(np.abs(full - full[::-1])) <= tol)


def pmf_from_dict(d: dict, delta_trunc: float = 0.0) -> PmfOnZ:
    lo, hi = min(d), max(d)
    vals = np.zeros(hi - lo + 1)
    for k, p in d.items():
        vals[k - lo] = p
    return PmfOnZ(vals, lo, delta_trunc)


def delta_pmf(k: int = 0) -> PmfOnZ:
    return PmfOnZ(np.array([1.0]), k)


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
    4 cap.  When q is p its spectrum is computed once and squared.
    Round-off negatives are clamped to 0.  All clipped mass (and any mass
    already missing from the inputs) is accumulated into delta_trunc of
    the result.
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
        raw = _cyclic_convolution(p.vals, None if q is p else q.vals, need)
    else:
        raw = np.convolve(p.vals, q.vals)
    # A clamped copy, so the full-length product is freed once the window
    # is cut.
    kept = np.maximum(raw[a: b + 1], 0.0)
    delta = 1.0 - float(kept.sum())
    return PmfOnZ(kept, lo_keep, max(delta, 0.0))


def _cyclic_convolution(x: np.ndarray, y: Optional[np.ndarray],
                        need: int) -> np.ndarray:
    """Cyclic convolution of x and y (y None: x with itself), zero-padded to
    a length N = n1 * n2 >= need, by the four-step FFT (Bailey, "FFTs in
    external or hierarchical memory", J. Supercomputing 4, 1990).

    The signal is viewed as an (n1, n2) array, j = j1 n2 + j2.  A real FFT
    down axis 0, the twiddles exp(-2 pi i k1 j2 / N) and a complex FFT
    along axis 1 give the spectrum at k = k1 + n1 k2 in slot [k1, k2] for
    k1 <= n1 / 2, which determines the rest; the pointwise product does not
    care about this transposed layout, and the inverse runs the three steps
    backwards.  No transpose is materialised, and every transform is a
    batch of short ones spread over ``CPUS`` threads (the CPUs this
    process may use).
    """
    n1 = fft.next_fast_len(math.isqrt(need) + 1, True)
    n2 = fft.next_fast_len(-(-need // n1))
    twiddles = _twiddles(n1, n2)
    spectra = []
    for v in (x,) if y is None else (x, y):
        grid = np.zeros((n1, n2))
        grid.reshape(-1)[:len(v)] = v
        s = fft.rfft(grid, axis=0, workers=CPUS)
        del grid    # not held while the inverse allocates its output
        s *= twiddles
        spectra.append(fft.fft(s, axis=1, overwrite_x=True, workers=CPUS))
    s = spectra[0]
    np.multiply(s, spectra[-1], out=s)
    del spectra
    s = fft.ifft(s, axis=1, overwrite_x=True, workers=CPUS)
    # s * conj(twiddles) as conj(conj(s) * twiddles): the same value, with
    # no conjugated copy of the table
    np.conjugate(s, out=s)
    s *= twiddles
    np.conjugate(s, out=s)
    return fft.irfft(s, n1, axis=0, workers=CPUS).reshape(-1)


# Two shapes: a doubling chain on a full window reuses one, and
# product_dispersion_bound alternates two chains.
@functools.lru_cache(maxsize=2)
def _twiddles(n1: int, n2: int) -> np.ndarray:
    """exp(-2 pi i k1 j2 / N) for k1 <= n1 / 2 and j2 < n2, N = n1 n2;
    read-only, since every call with this shape shares it."""
    size = n1 * n2
    k1 = np.arange(n1 // 2 + 1, dtype=np.int64)[:, None]
    # the exponent mod N, so every angle lies in (-2 pi, 0]
    angle = (k1 * np.arange(n2, dtype=np.int64) % size) * (-2.0 * np.pi / size)
    w = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=w.real)
    np.sin(angle, out=w.imag)
    w.flags.writeable = False
    return w


def self_convolution_powers(p: PmfOnZ, exponents, cap: int) -> Iterator:
    """Yield (n, p^(n)) for n in a set of powers of two, ascending.

    The powers come from repeated squaring, one spectrum per squaring on
    the FFT branch of convolve_z, at the cyclic length max(b + 1, n - a)
    that wraps nothing into the kept window [a, b]: once the window |k| <=
    cap is full that is 3 cap + 1 points, not the 4 cap + 1 of the whole
    product.  The chain holds only the current power; a caller that
    consumes each checkpoint as it comes holds one at a time.
    """
    want = sorted(set(exponents))
    for n in want:
        if n < 1 or n & (n - 1):
            raise ValueError("exponents must be powers of two")
    return _doubling_chain(p, want, cap)


def _doubling_chain(p: PmfOnZ, want: list, cap: int):
    cur, n = p, 1
    if n in want:
        yield n, cur
    while n < want[-1]:
        cur = convolve_z(cur, cur, cap)
        n *= 2
        if n in want:
            yield n, cur


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

    Shell radii and stable magnitudes are drawn by guide-table inversion of
    the truncated, renormalised CDF (_GuidedCdf, the same index a binary
    search returns); sampler_tail_mass is the mass that truncation moves.
    """

    spec: GroupSpec
    kind: str
    name: str
    symmetric: bool = True
    laziness: float = 0.0
    probs: Optional[dict] = None          # finite kind
    r0: int = 0                           # shell kind
    shell_norm: float = 0.0               # 1/Z for the radius law
    axes: tuple = ()                      # shell direction set (axis, sign) roots
    alpha: float = 0.0                    # stable kind
    c_alpha: float = 0.0
    _radius_cdf: Optional[_GuidedCdf] = field(default=None, repr=False)
    _stable_cdf: Optional[_GuidedCdf] = field(default=None, repr=False)
    # _finite_law() cache; not an init field, so replace() (as in
    # lazy_transform) rebuilds it
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

    def shell_radius_mass(self, r: int) -> float:
        """Total mass p_r at word radius r (shell kind)."""
        if self.kind != "shell":
            raise ValueError("radius law defined only for shell measures")
        if r < self.r0:
            return 0.0
        return (1.0 - self.laziness) * (1.0 - UNIT_MASS) * self.shell_norm / (r * r * np.log(r))

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

        Finite laws make one sample_support_index draw.  Shell and stable
        laws draw the laziness mask (when lazy), then the radius or
        magnitude, then the axis, then the sign; shell radius 1 is a unit
        generator, i.e. an axis power of length 1.
        """
        if self.spec.variant not in ("lattice", "heisenberg"):
            raise ValueError("coordinate steps need a lattice or Heisenberg backend")
        dim = self.spec.d if self.spec.variant == "lattice" else 3
        if self.kind == "finite":
            return self._finite_law()[2][self.sample_support_index(rng, size)]
        lazy = rng.random(size) < self.laziness if self.laziness > 0 else None
        if self.kind == "stable_z":
            r = self.sample_stable_ints(rng, size)
        else:
            r = self.sample_shell_radii(rng, size)
            axis = rng.integers(0, len(self.axes), size=size)
            r *= rng.integers(0, 2, size=size) * 2 - 1
        if lazy is not None:
            r[lazy] = 0
        if self.kind == "stable_z":
            return r[:, None]
        steps = np.zeros((size, dim), dtype=np.int64)
        for j, ax in enumerate(self.axes):
            np.multiply(r, axis == j, out=steps[:, ax])
        return steps

    def sample(self, rng: np.random.Generator, size: int = 1) -> list:
        """Draw elements: through sample_support_index for finite laws,
        through sample_steps otherwise."""
        if self.kind == "finite":
            sup = self._finite_law()[0]
            return [sup[i] for i in self.sample_support_index(rng, size)]
        return [tuple(r) for r in self.sample_steps(rng, size).tolist()]

    def sample_shell_radii(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Radius draws: 1 marks a unit-generator step."""
        if self._radius_cdf is None:
            # 1 / (r^2 log r) for r0 <= r <= SHELL_SAMPLE_RADIUS_MAX, plus the
            # spare slot _GuidedCdf takes for its sentinel
            w = np.arange(self.r0, SHELL_SAMPLE_RADIUS_MAX + 2, dtype=np.float64)
            log_r = np.log(w)
            np.multiply(w, w, out=w)
            np.multiply(w, log_r, out=w)
            np.divide(1.0, w, out=w)
            self._radius_cdf = _GuidedCdf(w)
        unit = rng.random(size) < UNIT_MASS
        r = self._radius_cdf.index(rng.random(size))
        r += self.r0
        r[unit] = 1
        return r

    def sample_stable_ints(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self._stable_cdf is None:
            # k^-(1+alpha) for 1 <= k <= STABLE_SAMPLE_MAGNITUDE_MAX, plus the
            # spare sentinel slot
            w = np.arange(1, STABLE_SAMPLE_MAGNITUDE_MAX + 2, dtype=np.float64)
            np.power(w, -(1.0 + self.alpha), out=w)
            self._stable_cdf = _GuidedCdf(w)
        mag = self._stable_cdf.index(rng.random(size))
        mag += 1
        mag *= rng.integers(0, 2, size=size) * 2 - 1
        return mag

    def to_pmf_on_z(self, cap: int) -> PmfOnZ:
        """Exact truncated pmf for Z-backed measures."""
        if self.spec.variant != "lattice" or self.spec.d != 1:
            raise ValueError("pmf-on-Z view requires the Z backend")
        ks = np.arange(-cap, cap + 1)
        if self.kind == "stable_z":
            mag = np.abs(ks).astype(np.float64)
            with np.errstate(divide="ignore"):
                vals = self.c_alpha * mag ** -(1.0 + self.alpha)
            vals[cap] = 0.0
            vals *= (1.0 - self.laziness)
            vals[cap] += self.laziness
        else:
            vals = np.array([self.pmf((int(k),)) for k in ks])
        return PmfOnZ(vals, -cap, max(0.0, 1.0 - float(vals.sum())))


def standard_support(spec: GroupSpec) -> tuple:
    return tuple(groups.standard_generators(spec).elements)


def axis_power(spec: GroupSpec, axis: int, k: int):
    """k-th power of the designated axis generator (word length |k| exactly)."""
    if spec.variant == "lattice":
        v = [0] * spec.d
        v[axis] = k
        return tuple(v)
    if spec.variant == "heisenberg":
        return (k, 0, 0) if axis == 0 else (0, k, 0)
    raise ValueError("axis powers defined for lattice and Heisenberg backends")


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


def shell_norm_constant(r0: int) -> float:
    """1/Z with Z = sum_{r>=r0} 1/(r^2 log r), summed directly to 1e7 with an
    integral tail bound (tail < 1e-8 there)."""
    hi = 10 ** 7
    total = _range_sum(lambda r: 1.0 / (r * r * np.log(r)), r0, hi)
    total += 1.0 / (hi * np.log(hi))  # integral bound for the remainder
    return 1.0 / total


def shell_measure(spec: GroupSpec, r0: int = 3) -> StepMeasure:
    """Symmetric heavy-tailed law with two-sided shell bounds
    c1/(r^2 log r) <= p_r <= c2/(r^2 log r) for all r >= r0.

    Mass at radius r sits on the powers {x^{+-r}, y^{+-r}} of designated
    axis generators (each has word length exactly r); a further 10% of the
    mass is uniform on the unit generators, certifying non-degeneracy.
    """
    if r0 < 3:
        raise ValueError("r0 must be at least 3")
    if spec.variant == "lattice":
        axes = tuple(range(spec.d))
    elif spec.variant == "heisenberg":
        axes = (0, 1)
    else:
        raise ValueError("shell measures need lattice or Heisenberg backends")
    mu = StepMeasure(spec, "shell", f"shell[{spec.label()},r0={r0}]",
                     r0=r0, shell_norm=shell_norm_constant(r0),
                     axes=axes)
    certify_generates(mu)
    return mu


def stable_z_measure(alpha: float) -> StepMeasure:
    """Symmetric power-tail law on Z: mu(k) = C_alpha |k|^{-(1+alpha)} (k != 0),
    normalised by 2 C_alpha zeta(1+alpha) = 1.  Support contains {+-1, +-2},
    so the gcd of support differences is 1 (aperiodicity)."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")
    c = 1.0 / (2.0 * special.zeta(1.0 + alpha))
    return StepMeasure(groups.integer_lattice(1), "stable_z",
                       f"stable[alpha={alpha:g}]", alpha=alpha, c_alpha=c)


def certify_generates(mu: StepMeasure) -> None:
    """Check supp(mu) reaches all of B(e,2) by bounded closure (non-degeneracy)."""
    spec = mu.spec
    gens = groups.standard_generators(spec)
    target = set(groups.ball(spec, gens, 2))
    if mu.kind == "finite":
        steps = mu.support_elements()
    else:
        steps = list(standard_support(spec))
        if mu.kind == "shell":
            steps += [axis_power(spec, a, s * mu.r0)
                      for a in mu.axes for s in (1, -1)]
    if spec.variant == "heisenberg":
        length = groups.BfsTable.build(spec, gens, 6).length
    else:
        length = functools.partial(groups.word_length, spec)
    visited = {identity(spec)}
    frontier = [identity(spec)]
    while frontier:
        nxt = []
        for g in frontier:
            for s in steps:
                h = mul(spec, g, s)
                try:
                    far = length(h) > 6
                except groups.OutOfRangeError:
                    far = True
                if far or h in visited:
                    continue
                visited.add(h)
                nxt.append(h)
        frontier = nxt
    if not target <= visited:
        raise ValueError("support does not generate B(e,2); measure degenerate")


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
