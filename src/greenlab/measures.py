"""Step laws: construction, sampling, and exact convolution.

Three families are provided: finite-support measures (simple random walk
and its lazifications), heavy-tailed shell measures whose per-radius mass
is p_r = const / (r^2 log r) carried by axis powers, and power-tail
measures on Z with pmf proportional to |k|^{-(1+alpha)}.

``special`` and ``fft`` are lazy module attributes
(``greenlab._LazyModule``): SciPy loads the first time a stable law's pmf
needs C_alpha, first_moment_partial needs digamma, or a convolution needs
an FFT.  The samplers take their Hurwitz zeta values from _hurwitz_zeta, a
port of SciPy's, so importing greenlab, and runs that only sample (speed
and increment-probe, on any law), load none of it (the benchmark's
``setup_s`` is that import).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from . import _LazyModule, groups, thread_map
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
    `block` terms starting at lo (the blocks fix the rounding).  Each block
    is float(np.sum(f(n))) of its terms n, bit for bit, taken by
    _pairwise_sum on runs of at most _SUM_RUN terms, so a run's f(n), not a
    block's, is live at a time.  A run's terms are made in one reused
    buffer, as i + 0, 1, ..., which are arange's values while exact (below
    2^53); f may overwrite them.  On a 2-vCPU machine shell_norm_constant(3)
    takes 0.045 s this way, against 0.13 s with a new arange per run and
    0.06 s with one 8 MB arange per block."""
    ramp = np.arange(min(_SUM_RUN, block, max(hi - lo, 0)), dtype=np.float64)
    n = np.empty_like(ramp)

    def run(i: int, j: int) -> float:
        return float(np.sum(f(np.add(ramp[:j - i], i, out=n[:j - i]))))

    total = 0.0
    for start in range(lo, hi, block):
        total += _pairwise_sum(start, min(start + block, hi), _SUM_RUN, run)
    return total


# Points per run of _pairwise_sum's callers: any run of at least NumPy's
# pairwise leaf of 128 points sums as np.sum does inside the whole array.
_SUM_RUN = 2 ** 16


def _pairwise_sum(i: int, j: int, run: int, run_sum) -> float:
    """float(np.sum(x)) of an array x of points i..j - 1, bit for bit, from
    run_sum(i', j') = float(np.sum(x[i':j'])) on runs of at most `run`
    points.  NumPy sums a contiguous float64 array pairwise, splitting
    n > 128 points at n // 2 rounded down to a multiple of 8 (its
    pairwise_sum, numpy/_core/src/umath/loops_utils.h.src): the points are
    split the same way down to runs of at most `run` (>= 128) points, whose
    sums np.sum takes in the same tree."""
    if j - i > run:
        h = (j - i) // 2
        h -= h % 8
        return (_pairwise_sum(i, i + h, run, run_sum)
                + _pairwise_sum(i + h, j, run, run_sum))
    return run_sum(i, j)


# Cephes zeta(x, q)'s Euler-Maclaurin coefficients (2k)! / B_2k, k = 1..12.
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)

# Cephes' MACHEP, 2^-53.
_MACHEP = 2.0 ** -53


def _hurwitz_zeta(x: float, q: float) -> float:
    """The Hurwitz zeta sum_{k >= 0} (k + q)^-x for x > 1 and q > 0: Cephes
    zeta(x, q) (Moshier, Methods and Programs for Mathematical Functions,
    1989) step for step, as scipy.special.zeta(x, q) computes it, so that
    stable samplers load no SciPy.  For q > 1e8 the asymptotic form
    (1/(x - 1) + 1/(2q)) q^(1-x) (DLMF 25.11.43); else the terms from q
    until the ninth past q and past 9, stopping once a term is below 2^-53
    of the sum, then the Euler-Maclaurin tail with up to twelve Bernoulli
    terms."""
    x, q = float(x), float(q)
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    s = q ** -x
    a, i, b = q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _shell_f(r: np.ndarray) -> np.ndarray:
    """1 / (r^2 log r), the shell radius weight, computed in place."""
    log_r = np.log(r)
    np.multiply(r, r, out=r)
    np.multiply(r, log_r, out=r)
    return np.divide(1.0, r, out=r)


# ---------------------------------------------------------------------------
# Integer pmfs with truncation bookkeeping
# ---------------------------------------------------------------------------

class PmfOnZ:
    """Pmf on Z over the window [lo, hi], with tracked clipped mass.

    A dense pmf holds the window's values.  An even one, p(-k) = p(k) on
    [-m, m] (PmfOnZ.even), holds only its nonnegative half p(0..m) in
    `half`; `vals` then builds the mirrored window anew on each read, and
    the streaming readers (pieces, read) serve any run of window points
    from the half.

    _mass is the window's sum where the constructing code has just taken
    it for delta_trunc, so a window is summed once."""

    def __init__(self, vals, lo: int, delta_trunc: float = 0.0,
                 _mass: Optional[float] = None):
        self._dense = np.asarray(vals, dtype=np.float64)
        self.half = None
        self.lo, self.delta_trunc = lo, delta_trunc
        self._check(self._dense, _mass)

    @classmethod
    def even(cls, half, delta_trunc: float = 0.0,
             _mass: Optional[float] = None) -> "PmfOnZ":
        """The even pmf on [-m, m] whose nonnegative half p(0..m) is half."""
        p = cls.__new__(cls)
        p._dense, p.half = None, np.asarray(half, dtype=np.float64)
        p.lo, p.delta_trunc = 1 - len(p.half), delta_trunc
        p._check(p.half, _mass)
        return p

    def _check(self, stored: np.ndarray, mass: Optional[float]) -> None:
        # a reduction, not an n-byte boolean temporary; each check is
        # written "not (x >= bound)" so that a NaN fails it
        if stored.size and not stored.min() >= -1e-15:
            raise ValueError("pmf values must be nonnegative")
        if mass is None:
            mass = float(stored.sum()) if self.half is None else _window_sum(stored)
        total = mass + self.delta_trunc
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"mass + delta_trunc = {total} is not 1")

    def __len__(self) -> int:
        return len(self._dense) if self.half is None else 2 * len(self.half) - 1

    @property
    def vals(self) -> np.ndarray:
        """The window's values; a new mirrored window for an even pmf."""
        if self.half is None:
            return self._dense
        return np.concatenate([self.half[:0:-1], self.half])

    @property
    def hi(self) -> int:
        return self.lo + len(self) - 1

    def at(self, k: int) -> float:
        if not self.lo <= k <= self.hi:
            return 0.0
        if self.half is None:
            return float(self._dense[k - self.lo])
        return float(self.half[abs(k)])

    def pieces(self, i: int, j: int) -> list:
        """Window points i..j - 1 (0 <= i <= j <= len) as (offset, view)
        runs: the dense slice, or, from the half, the reversed run of the
        points below 0 and the run of the rest."""
        if self.half is None:
            return [(i, self._dense[i:j])]
        return _half_runs(self.half, i, j)

    def read(self, i: int, j: int, out: np.ndarray) -> np.ndarray:
        """Window points i..j - 1 written into out[:j - i], which is
        returned."""
        return _gather(self.pieces(i, j), i, out[:j - i])


def _half_runs(half: np.ndarray, i: int, j: int) -> list:
    """Points i..j - 1 of the mirrored window of half, whose point w is
    half[|w - m|] (m = len(half) - 1), as (offset, view) runs of half: the
    reversed run below point m and the run from it."""
    m, out = len(half) - 1, []
    if i < m:
        out.append((i, half[m - i:m - min(j, m):-1]))
    if j > m:
        out.append((max(i, m), half[max(i, m) - m:j - m]))
    return out


def _window_sum(half: np.ndarray) -> float:
    """float(np.sum(w)) of the mirrored window w of half, bit for bit,
    without building w: _pairwise_sum on runs of at most _SUM_RUN points,
    each summed by np.sum, from a view of half where it lies at or above 0
    and from a block copy otherwise."""
    n, m = 2 * len(half) - 1, len(half) - 1
    buf = np.empty(min(n, _SUM_RUN))

    def run(i: int, j: int) -> float:
        if i >= m:
            return float(half[i - m:j - m].sum())
        return float(_gather(_half_runs(half, i, j), i, buf[:j - i]).sum())

    return _pairwise_sum(0, n, _SUM_RUN, run)


def _gather(runs: list, i: int, out: np.ndarray) -> np.ndarray:
    """out, holding the (offset, view) runs of window points from point i
    on."""
    for k, v in runs:
        out[k - i:k - i + len(v)] = v
    return out


def pmf_from_dict(d: dict, delta_trunc: float = 0.0) -> PmfOnZ:
    """The pmf with the values of d on [min(d), max(d)], in half form if d
    is symmetric about 0 (d[-k] == d[k] for every key k)."""
    return _scatter(d, min(d), max(d), delta_trunc)


def _scatter(d: dict, lo: int, hi: int,
             delta_trunc: Optional[float] = None) -> PmfOnZ:
    """The values of d (keys in [lo, hi]) scattered into zeros: the half
    p(0..hi) if d[-k] == d[k] for every key k (then lo = -hi), else the
    window [lo, hi]; delta_trunc defaults to the window's missing mass."""
    even = all(d.get(-k) == v for k, v in d.items())
    lo = 0 if even else lo
    vals = np.zeros(hi - lo + 1)
    for k, v in d.items():
        if k >= lo:
            vals[k - lo] = v
    mass = _window_sum(vals) if even else float(vals.sum())
    delta = max(0.0, 1.0 - mass) if delta_trunc is None else delta_trunc
    return (PmfOnZ.even(vals, delta, mass) if even
            else PmfOnZ(vals, lo, delta, mass))


def convolve_z(p: PmfOnZ, q: PmfOnZ, cap: int) -> PmfOnZ:
    """Exact convolution of two integer pmfs restricted to |k| <= cap.

    Three routes, read off the inputs alone.  A product of at most 4096
    points (n = len(p) + len(q) - 1) is np.convolve.  The square of a
    half-form pmf (q is p, as every symmetric law's to_pmf_on_z is) is
    taken on a real half spectrum from p's nonnegative half (_even_square)
    and returned in half form, so the powers of a doubling chain stay even
    by construction.  Any other product is one real-FFT product, with one
    spectrum when q is p.  If [a, b] are the indices of the linear product
    that fall in the window, a cyclic length of at least
    need = max(b + 1, n - a) (and at least each input's length) wraps
    nothing into [a, b]: an index k there could only receive index k + N,
    which exceeds n - 1, or k - N, which is negative.  So the kept values
    are the linear convolution's, up to round-off, from a transform about
    3 cap long once the window is full, where the whole product needs
    4 cap.  This call keeps no reference to its inputs, so a caller that
    holds no other (the doubling chain) has each input freed once it is
    transformed.  Round-off negatives are clamped to 0.  All clipped mass
    (and any mass already missing from the inputs) is accumulated into
    delta_trunc of the result; the window is summed once, for delta_trunc
    and for PmfOnZ's mass check (a half through _window_sum, bit for bit
    np.sum of its mirrored window).  delta_trunc = 1 - sum(kept) also
    absorbs the FFT's round-off in the total mass, which each squaring of
    a doubling chain doubles (the mass is squared) and adds to: for the
    alpha = 1 stable law at cap 2e4, against a direct np.convolve chain
    summed by math.fsum, delta_trunc is off by -1.3e-14, -5.2e-14 and
    -2.0e-13 at n = 16, 64 and 256 on the even route (-1.2e-14, -5.0e-14
    and -2.0e-13 on the real-FFT product, from the dense window), against
    clipped masses of 4.9e-4 and up.  The real-FFT product holds its input
    beside two arrays of 8 N bytes (the padded input and its spectrum,
    then the spectrum and its inverse): a doubling chain on an asymmetric
    law's full window traces 12.9 MB at cap 2e5 and 269.7 MB at cap 4.2e6,
    where the stable law's even chain traces 92.5 MB (88.2 MiB).  It runs
    on one thread: on 2 vCPUs that chain took 6.6 s at cap 4.2e6, against
    5.7 s on the threaded route it replaced (one run each; more CPUs
    untimed).
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    n = len(p) + len(q) - 1
    lo = p.lo + q.lo
    lo_keep = max(lo, -cap)
    hi_keep = min(lo + n - 1, cap)
    if hi_keep < lo_keep:
        raise ValueError("cap window misses the whole convolution support")
    a, b = lo_keep - lo, hi_keep - lo
    if n <= 4096:
        kept = np.maximum(np.convolve(p.vals, q.vals)[a: b + 1], 0.0)
    elif q is p and p.half is not None:
        inputs = [p.half]
        del p, q
        half = _even_square(inputs, hi_keep)
        mass = _window_sum(half)
        return PmfOnZ.even(half, max(1.0 - mass, 0.0), mass)
    else:
        # one real-FFT product at the fast real length N >= need; each
        # input's array is dropped once it is transformed
        size = fft.next_fast_len(max(b + 1, n - a, len(p), len(q)), True)
        inputs = [p.vals] if q is p else [p.vals, q.vals]
        del p, q
        x = fft.rfft(inputs.pop(0), size)
        y = fft.rfft(inputs.pop(), size) if inputs else x
        np.multiply(x, y, out=x)
        del y
        r = fft.irfft(x, size)
        del x
        kept = np.maximum(r[a:b + 1], 0.0)
    mass = float(kept.sum())
    return PmfOnZ(kept, lo_keep, max(1.0 - mass, 0.0), mass)


# Spectrum columns per slab of the even squaring: at the acceptance sizes
# (n1 about 3,500) a slab, its transform and its twiddles take about 1 MB
# each, so a slab stays in cache and CPUS of them cost little beside a
# window.
SLAB_COLUMNS = 32

# Bytes of spectrum rows per block of the even squaring's row stage (at
# least one row): a block and the transforms made from it stay about as
# large as a slab's.
_ROW_BLOCK_BYTES = 2 ** 20


def _slabs(columns: int) -> list:
    """The (lo, hi) column ranges of SLAB_COLUMNS columns covering
    0..columns - 1; the last one may be narrower."""
    return [(lo, min(lo + SLAB_COLUMNS, columns))
            for lo in range(0, columns, SLAB_COLUMNS)]


def _row_stage(s: np.ndarray, step) -> None:
    """step(lo, hi) for consecutive blocks lo..hi - 1 of the rows of the
    spectrum s, each about _ROW_BLOCK_BYTES (at least one row), spread over
    CPUS threads; step writes its rows of s back in place.  Each row's
    transforms are those of one whole-array transform along axis 1, so s
    depends neither on the block size nor on CPUS."""
    rows = max(1, _ROW_BLOCK_BYTES // s[0].nbytes)
    starts = range(0, len(s), rows)
    thread_map(lambda i: step(starts[i], min(starts[i] + rows, len(s))),
               len(starts))


def _place(block: np.ndarray, seg: np.ndarray, off: int, n2: int,
           lo: int, hi: int) -> None:
    """Copy seg, laid out row by row from flat slot off of a grid of n2
    columns, into block, which holds that grid's columns lo..hi - 1 and is
    zero elsewhere.  seg may be a reversed view."""
    r, c0 = divmod(off, n2)
    if c0:
        head = seg[:n2 - c0]
        j, k = max(lo, c0), min(hi, c0 + len(head))
        if j < k:
            block[r, j - lo:k - lo] = head[j - c0:k - c0]
        seg = seg[n2 - c0:]
        r += 1
    full, rest = divmod(len(seg), n2)
    block[r:r + full] = seg[:full * n2].reshape(full, n2)[:, lo:hi]
    if rest > lo:
        tail = seg[full * n2 + lo: full * n2 + min(hi, rest)]
        block[r + full, :len(tail)] = tail


def _even_square(inputs: list, c: int) -> np.ndarray:
    """The nonnegative half r(0..c), clamped at 0, of the square of the even
    pmf on [-m, m] whose nonnegative half p(0..m) is inputs[0], c <= 2m.
    The array is taken out of inputs and dropped once the forward slabs
    have read it.

    A four-step FFT (Bailey, "FFTs in external or hierarchical memory",
    J. Supercomputing 4, 1990) on a real half spectrum (an even sequence
    has a real, even spectrum: Martucci, "Symmetric convolution and the
    discrete sine and cosine transforms", IEEE Trans. Signal Process. 42,
    1994).  A signal of cyclic length N = n1 n2 is viewed as the grid
    g[j1, j2] = x[j1 n2 + j2]: a real FFT down axis 0, the twiddles
    exp(-2 pi i k1 j2 / N) and an FFT along axis 1 give its spectrum at
    k = k1 + n1 k2 in slot [k1, k2] for k1 <= n1 / 2, which determines the
    rest; the square does not care about this transposed layout, and the
    inverse runs the steps backwards.  The signal is placed centred,
    x[j] = p(j) and x[N - j] = p(-j) = p(j) for 0 <= j <= m, over
    N >= 2m + c + 1, so nothing wraps into |k| <= c.  This gives
    g[n1 - 1 - j1, n2 - j2] = g[j1, j2] for j2 >= 1 and an even column 0,
    so T = rfft0(g) * twiddles is Hermitian along axis 1:
    T[k1, n2 - j2] = conj T[k1, j2].  Stage by stage, each spread over
    ``CPUS`` threads (the CPUs this process may use):

    - forward slabs: only the h2 = n2 // 2 + 1 columns j2 <= n2 / 2 go
      through the slabs, which place the half at slot 0 and, through a
      reversed view, its mirror at slot N - m, and write T's columns (the
      slab's transform times its contiguous twiddles) into its complex
      half S (16 bytes a slot of (n1 / 2 + 1) x h2);
    - row stage (_row_stage), in place in S, block by block: conjugate, a
      c2r transform along axis 1 whose slot [k1, k2] is the real spectrum
      X at k1 + n1 k2 (X = sum_j2 T w^(j2 k2) is real, so it equals its
      conjugate, the unscaled c2r transform of conj T), the square of X,
      and an r2c transform back into the block's rows of S;
    - inverse slabs: through the same h2 slabs, S's columns times their
      twiddles (into the twiddles' own array) and an inverse real FFT down
      axis 0.  Of each column they keep grid rows 0..R, R = c // n2, and,
      for the columns j2 > n2 / 2 they did not compute, read
      r[j1 n2 + j2] = r[(n1 - 1 - j1) n2 + n2 - j2] from rows
      n1 - 1 - R.. reversed.  Rows 0..R hold r(0..c), which is returned.

    Each row's and column's arithmetic is that of a whole-grid transform,
    so the result depends neither on SLAB_COLUMNS, nor on the row block,
    nor on CPUS.  No real n1 x n2 grid is built, and the twiddles come
    from two small tables (_twiddles, built once per grid shape).  A
    squaring whose input is handed over holds the input half beside S,
    then S alone, then S beside the output rows, and a slab or row block
    per thread.  On a full window (N about 3c) S takes about 4N bytes,
    three quarters of a window, so the peak is a half window beside S:
    33.6 + 50.7 = 84.3 MB at cap 4.2e6.
    """
    h = inputs.pop()
    m = len(h) - 1
    n1, n2 = _four_step_shape(2 * m + c + 1)
    twiddles = _twiddles(n1, n2)
    slabs = _slabs(n2 // 2 + 1)
    s = np.empty((n1 // 2 + 1, n2 // 2 + 1), dtype=np.complex128)

    def forward(i):
        lo, hi = slabs[i]
        block = np.zeros((n1, hi - lo))
        _place(block, h, 0, n2, lo, hi)
        _place(block, h[:0:-1], n1 * n2 - m, n2, lo, hi)
        t = fft.rfft(block, axis=0, workers=1)
        del block
        np.multiply(t, twiddles.cols(lo, hi), out=s[:, lo:hi])

    thread_map(forward, len(slabs))
    # the input goes before the output is allocated
    del h, forward

    def square(lo, hi):
        t = s[lo:hi]
        np.conjugate(t, out=t)
        x = fft.irfft(t, n2, axis=1, norm="forward", workers=1)
        np.multiply(x, x, out=x)
        s[lo:hi] = fft.rfft(x, axis=1, norm="forward", workers=1)

    _row_stage(s, square)
    rows = c // n2 + 1
    out = np.empty((rows, n2))
    mirrored = (n2 + 1) // 2      # columns 1..mirrored - 1 give the rest

    def inverse(i):
        lo, hi = slabs[i]
        w = twiddles.cols(lo, hi)
        np.multiply(s[:, lo:hi], w, out=w)
        np.conjugate(w, out=w)
        r = fft.irfft(w, n1, axis=0, workers=1)
        np.maximum(r[:rows], 0.0, out=out[:, lo:hi])
        j, k = max(lo, 1), min(hi, mirrored)
        if j < k:
            np.maximum(r[n1 - rows:, j - lo:k - lo][::-1, ::-1], 0.0,
                       out=out[:, n2 - k + 1:n2 - j + 1])

    thread_map(inverse, len(slabs))
    return out.reshape(-1)[:c + 1]


def _four_step_shape(need: int) -> tuple:
    """The (n1, n2) grid of _even_square for a cyclic length of at least
    need: n1 the first fast real FFT length above sqrt(need), n2 a fast
    complex one."""
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
        """The twiddles of columns lo <= j2 < hi, shape (n1 // 2 + 1, hi - lo),
        contiguous: one coarse column times a run of fine columns for each
        q, so nothing is gathered."""
        out = np.empty((len(self.coarse), hi - lo), dtype=np.complex128)
        j = lo
        while j < hi:
            q, r = divmod(j, self.b)
            k = min(hi, (q + 1) * self.b)
            np.multiply(self.coarse[:, q:q + 1], self.fine[:, r:r + k - j],
                        out=out[:, j - lo:k - lo])
            j = k
        return out


@functools.lru_cache(maxsize=2)
def _twiddles(n1: int, n2: int) -> _Twiddles:
    """_Twiddles(n1, n2), kept for the last two grid shapes: the squarings
    of a doubling chain on a full window share one grid, and
    walks.product_dispersion_bound runs two chains in turn."""
    return _Twiddles(n1, n2)


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

    The powers come from repeated squaring by convolve_z, at the cyclic
    length max(b + 1, n - a) that wraps nothing into the kept window
    [a, b]: once the window |k| <= cap is full that is 3 cap + 1 points,
    not the 4 cap + 1 of the whole product.  If p is in half form (as
    every symmetric law's to_pmf_on_z is) every power is too, squared on
    the real half spectrum (_even_square) from its nonnegative half alone,
    so no window is mirrored.  The chain hands each power to its squaring
    and keeps no reference to it, so a power is freed once it is
    transformed.  A caller that passes p without keeping it and drops each
    checkpoint before asking for the next holds one power at a time: an
    even squaring on a full window peaks at a half window beside the
    complex half spectrum, about 1.25 windows (88.2 MiB traced at cap
    4.2e6), plus a column slab or row block per thread, and any other
    squaring at its window beside two real arrays of the cyclic length,
    about 4 windows (257.2 MiB at cap 4.2e6).  The twiddle tables are
    built once per grid shape (_twiddles), so the even squarings of a
    full window share them.
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


# Points per block of total_variation_shift's differences: 512 KiB of
# scratch whatever the window.  A window and shift within one block sum in
# one pass, as one whole array would.
_TV_BLOCK = 2 ** 16


def total_variation_shift(p: PmfOnZ, k: int) -> float:
    """TV distance between p and its shift by k, on the represented window.

    (1/2) sum |a(x) - a(x - s)| over the n + s points x of either window
    (s = |k|; the sign of k flips every difference, which the absolute
    value undoes), summed _TV_BLOCK points at a time in one reused buffer;
    a is 0 outside 0..n - 1.  The window is read through p.read and
    p.pieces, so a half-form p fills the same blocks as its mirrored
    window and gives the same sum, bit for bit."""
    if k == 0:
        return 0.0
    n, s = len(p), abs(k)
    buf = np.empty(min(n + s, _TV_BLOCK))
    total = 0.0
    for lo in range(0, n + s, len(buf)):
        hi = min(lo + len(buf), n + s)
        out = buf[:hi - lo]
        cut = min(max(n - lo, 0), hi - lo)
        p.read(lo, lo + cut, out)
        out[cut:] = 0.0
        if max(lo, s) < hi:
            for i, v in p.pieces(max(lo, s) - s, hi - s):
                d = out[i + s - lo:i + s - lo + len(v)]
                np.subtract(d, v, out=d)
        np.abs(out, out=out)
        total += float(out.sum())
    return 0.5 * total


# ---------------------------------------------------------------------------
# Inverse-CDF sampling tables
# ---------------------------------------------------------------------------

class _DrawBuffers:
    """The arrays one caller's draws of `size` steps of `dim` coordinates
    are made in: the uniforms u, a float64 scratch f, an int64 scratch i
    (the guide-table buckets, then the signs), the lengths k, a mask and
    the step rows.  A caller that draws block after block (the batched
    walker's replicas) allocates them once and passes them to each draw;
    each draw overwrites them, so threads that draw at once each need their
    own."""

    def __init__(self, size: int, dim: int = 0):
        self.u, self.f = np.empty(size), np.empty(size)
        self.i = np.empty(size, dtype=np.int64)
        self.k = np.empty(size, dtype=np.int64)
        self.mask = np.empty(size, dtype=bool)
        self.steps = np.empty((size, dim), dtype=np.int64)

    def head(self, size: int) -> "_DrawBuffers":
        """The first `size` entries of each buffer (self if that is all)."""
        if size == len(self.u):
            return self
        out = _DrawBuffers.__new__(_DrawBuffers)
        for name, arr in vars(self).items():
            setattr(out, name, arr[:size])
        return out


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

    def index(self, u: np.ndarray,
              buf: Optional[_DrawBuffers] = None) -> np.ndarray:
        """min(searchsorted(cdf, u), n - 1) for u in [0, 1), in buf.k
        (buf's other arrays but u are scratch; new ones if buf is None)."""
        if buf is None:
            buf = _DrawBuffers(len(u))
        # u * K is exact, so the cast truncates it as astype(intp) would
        b = np.multiply(u, self.K, out=buf.i, casting="unsafe")
        idx = np.take(self.guide, b, out=buf.k, mode="clip")
        idx += np.less(np.take(self.cdf, idx, out=buf.f, mode="clip"), u,
                       out=buf.mask)
        wide = np.flatnonzero(np.take(self.wide, b, out=buf.mask, mode="clip"))
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

    def draw(self, rng: np.random.Generator, size: int,
             buf: Optional[_DrawBuffers] = None) -> np.ndarray:
        """int64 lengths: one uniform each, plus the tail's redraws; made
        in buf's arrays (returned in buf.k) or in new ones."""
        buf = _DrawBuffers(size) if buf is None else buf.head(size)
        k = self.index(rng.random(out=buf.u), buf)
        tail = np.flatnonzero(np.equal(k, self.n - 1, out=buf.mask))
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
    # sampling caches; not init fields, so replace() (as in lazy_transform)
    # rebuilds them
    _radius_cdf: Optional[_HeadTailCdf] = field(default=None, init=False,
                                                repr=False, compare=False)
    _stable_cdf: Optional[_HeadTailCdf] = field(default=None, init=False,
                                                repr=False, compare=False)
    _support_law: Optional[tuple] = field(default=None, init=False,
                                          repr=False, compare=False)

    @functools.cached_property
    def c_alpha(self) -> float:
        """C_alpha = 1 / (2 zeta(1 + alpha)) of a stable law, from SciPy's
        Riemann zeta on the first read (pmf, to_pmf_on_z,
        first_moment_partial): the samplers need no C_alpha, so a run that
        only samples loads no SciPy."""
        return 1.0 / (2.0 * special.zeta(1.0 + self.alpha))

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
        M = STABLE_SAMPLE_MAGNITUDE_MAX, both zetas from _hurwitz_zeta
        (zeta(s) as zeta(s, 1), within 1 ulp of SciPy's Riemann zeta); for
        shell laws an upper bound, from sum_{r>M} 1/(r^2 log r) <=
        1/(M log M) with M = SHELL_SAMPLE_RADIUS_MAX.
        """
        if self.kind == "finite":
            return 0.0
        if self.kind == "stable_z":
            s = 1.0 + self.alpha
            tail = (_hurwitz_zeta(s, STABLE_SAMPLE_MAGNITUDE_MAX + 1)
                    / _hurwitz_zeta(s, 1))
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

    def sample_steps(self, rng: np.random.Generator, size: int,
                     _buf: Optional[_DrawBuffers] = None) -> np.ndarray:
        """Steps as int64 coordinate rows (lattice and Heisenberg backends).

        Finite laws make one sample_support_index draw.  Stable laws draw
        sample_stable_ints, then one integers(0, 2) sign per step, - for 0.
        Shell laws draw sample_shell_radii, then one integers(0, 2 len(axes))
        direction d per step: axis d // 2, sign + for even d.

        Length 0 is the identity and shell length 1 a unit generator, i.e.
        an axis power of length 1.  The steps are made in _buf's arrays
        (returned in its step rows) if given, else in new ones; only the
        integers and choice draws allocate.
        """
        if self.spec.variant not in ("lattice", "heisenberg"):
            raise ValueError("coordinate steps need a lattice or Heisenberg backend")
        dim = self.spec.d if self.spec.variant == "lattice" else 3
        buf = _DrawBuffers(size, dim) if _buf is None else _buf.head(size)
        steps, sign = buf.steps, buf.i
        if self.kind == "finite":
            return np.take(self._finite_law()[2],
                           self.sample_support_index(rng, size), axis=0,
                           out=steps, mode="clip")
        if self.kind == "stable_z":
            mag = self.sample_stable_ints(rng, size, buf)
            np.multiply(rng.integers(0, 2, size=size), 2, out=sign)
            sign -= 1
            np.multiply(mag, sign, out=steps[:, 0])
            return steps
        r = self.sample_shell_radii(rng, size, buf)
        d = rng.integers(0, 2 * len(self.axes), size=size)
        # r *= 1 - 2 (d & 1), in place
        np.bitwise_and(d, 1, out=sign)
        sign *= -2
        sign += 1
        r *= sign
        d >>= 1
        for ax in range(dim):
            if ax in self.axes:
                np.multiply(r, np.equal(d, self.axes.index(ax), out=buf.mask),
                            out=steps[:, ax])
            else:
                steps[:, ax] = 0
        return steps

    def sample_shell_radii(self, rng: np.random.Generator, size: int,
                           _buf: Optional[_DrawBuffers] = None) -> np.ndarray:
        """Step lengths of a shell law: 0 marks a lazy step, 1 a unit
        generator, r >= r0 an axis power.  Made in _buf.k if given."""
        with _TABLE_LOCK:
            if self._radius_cdf is None:
                self._radius_cdf = self._length_table(
                    self.r0, self.r0 + SAMPLE_HEAD, SHELL_SAMPLE_RADIUS_MAX)
        return self._radius_cdf.draw(rng, size, _buf)

    def sample_stable_ints(self, rng: np.random.Generator, size: int,
                           _buf: Optional[_DrawBuffers] = None) -> np.ndarray:
        """Step magnitudes of a stable law, 0 for a lazy step: one uniform
        each, and any tail redraws.  sample_steps draws the signs.  Made in
        _buf.k if given."""
        with _TABLE_LOCK:
            if self._stable_cdf is None:
                self._stable_cdf = self._length_table(
                    1, SAMPLE_HEAD + 1, STABLE_SAMPLE_MAGNITUDE_MAX)
        return self._stable_cdf.draw(rng, size, _buf)

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
            tail = _hurwitz_zeta(s, tail_lo) - _hurwitz_zeta(s, tail_hi + 1)
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
        symmetric law (stable, shell, or finite with p(-k) = p(k)) comes in
        half form, p(0..cap) in one array: a stable or shell law's built in
        place by pmf's float64 expressions, a finite law's support
        scattered into zeros; any other finite law's support is scattered
        into a zero window (_scatter, as pmf_from_dict)."""
        if self.spec.variant != "lattice" or self.spec.d != 1:
            raise ValueError("pmf-on-Z view requires the Z backend")
        if self.kind == "stable_z":
            half = np.arange(cap + 1, dtype=np.float64)
            with np.errstate(divide="ignore"):
                np.power(half, -(1.0 + self.alpha), out=half)
            np.multiply(half, self.c_alpha, out=half)
            half[0] = 0.0
            half *= (1.0 - self.laziness)
            half[0] += self.laziness
        elif self.kind == "shell":
            half = self._shell_half(cap)
        else:
            return _scatter({g[0]: self.pmf(g) for g in self.support_elements()
                             if abs(g[0]) <= cap}, -cap, cap)
        mass = _window_sum(half)
        return PmfOnZ.even(half, max(0.0, 1.0 - mass), mass)

    def _shell_half(self, cap: int) -> np.ndarray:
        """p(0..cap) of a shell law on Z: pmf at 0 and 1, and _base_pmf's
        float64 expression, times 1 - laziness, on the radii r0..cap."""
        half = np.zeros(cap + 1)
        half[:2] = [self.pmf((k,)) for k in range(min(cap + 1, 2))]
        if cap >= self.r0:
            r = half[self.r0:]
            r[:] = np.arange(self.r0, cap + 1, dtype=np.float64)
            log_r = np.log(r)
            np.multiply(r, r, out=r)
            np.multiply(r, log_r, out=r)
            np.divide((1.0 - UNIT_MASS) * self.shell_norm, r, out=r)
            r /= 2 * len(self.axes)
            r *= 1.0 - self.laziness
        return half


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
    return StepMeasure(groups.integer_lattice(1), "stable_z",
                       f"stable[alpha={alpha:g}]", alpha=alpha)


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
