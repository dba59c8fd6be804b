"""Heat-kernel envelope checks: near-diagonal tails, the off-diagonal
Tauberian comparability test, on-diagonal return series, the parity bridge,
and Hoelder-constant probes.

Scales are normalised as rho(n) = n^(1/gamma) with reference volume
Vol(rho) = rho^(d*); the near-diagonal tail is A(m) = sum_{n>=m} n^(-d*/gamma)
and the near-diagonal threshold n_-(r) is the first n with rho(n) >= r/kappa.

``special`` is a lazy module attribute (``greenlab._LazyModule``), so
importing greenlab loads no SciPy; it is imported at the first zeta tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _LazyModule, groups
from .groups import GroupSpec, identity
from .measures import PmfOnZ, StepMeasure

special = _LazyModule("scipy.special")

CHUNK = 10 ** 6


# ---------------------------------------------------------------------------
# Envelope specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Envelope:
    kind: str                   # "stretched" | "polynomial"
    eta: float = 1.0            # stretched exponent
    c: float = 1.0              # stretched rate
    delta: float = 0.0          # polynomial exponent

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "stretched":
            return np.exp(-self.c * t ** self.eta)
        if self.kind == "polynomial":
            return (1.0 + t) ** (-self.delta)
        raise ValueError(f"unknown envelope kind {self.kind!r}")


@dataclass(frozen=True)
class EnvelopeSpec:
    d_star: float
    gamma: float
    phi: Envelope
    alpha: float = 1.0
    kappa: float = 1.0
    theta: float = 0.25
    beta: float = 1.0

    def __post_init__(self):
        if self.d_star / self.gamma <= 1.0:
            raise ValueError("transience needs d*/gamma > 1 (A(1) finite)")
        if not (0 < self.theta <= self.kappa / 4):
            raise ValueError("theta must lie in (0, kappa/4]")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")

    def rho(self, n):
        return np.asarray(n, dtype=np.float64) ** (1.0 / self.gamma)

    def n_minus(self, r: float) -> int:
        """First n with rho(n) >= r / kappa."""
        raw = (r / self.kappa) ** self.gamma
        n = int(np.ceil(raw))
        if n < 1:
            return 1
        # guard against float round-off at integer thresholds
        while (n - 1) >= 1 and (n - 1) ** (1.0 / self.gamma) >= r / self.kappa - 1e-12:
            n -= 1
        return max(n, 1)


# ---------------------------------------------------------------------------
# Near-diagonal tail
# ---------------------------------------------------------------------------

def near_diag_tail(spec: EnvelopeSpec, m: int, horizon: int) -> tuple:
    """A(m) = sum_{n >= m} n^{-d*/gamma}: partial sum to the horizon plus an
    integral remainder bound; (value, tail_bound) brackets the true sum
    inside [value, value + tail_bound]."""
    s = spec.d_star / spec.gamma
    if s <= 1:
        raise ValueError("non-transient exponents")
    if horizon < m:
        raise ValueError("horizon must be at least m")
    value = 0.0
    for lo in range(m, horizon + 1, CHUNK):
        n = np.arange(lo, min(lo + CHUNK, horizon + 1), dtype=np.float64)
        value += float(np.sum(n ** -s))
    tail_bound = horizon ** (1.0 - s) / (s - 1.0)
    return value, tail_bound


def near_diag_tail_exact(spec: EnvelopeSpec, m: int) -> float:
    """Hurwitz-zeta evaluation of A(m) (cross-check oracle)."""
    return float(special.zeta(spec.d_star / spec.gamma, m))


# ---------------------------------------------------------------------------
# Tauberian comparability
# ---------------------------------------------------------------------------

@dataclass
class TauberianReport:
    spec: EnvelopeSpec
    r_grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratios: np.ndarray
    verdict: str                 # "bounded" | "diverging"
    decade_growth: float

    def rows(self):
        return list(zip(self.r_grid, self.lhs, self.rhs, self.ratios))


EXACT_SUM_LIMIT = 2 * 10 ** 6     # direct summation below; quadrature above


def _lhs_sum(spec: EnvelopeSpec, r: float, m: int) -> float:
    """sum_{1 <= n < m} n^{-(d*+alpha)/gamma} Phi(r / (2 n^{1/gamma})).

    Exact summation up to EXACT_SUM_LIMIT; the smooth remainder is an
    Euler-Maclaurin midpoint integral on a dense logarithmic grid
    (relative error ~1e-5, far below the decade-verdict margins).
    """
    p_exp = (spec.d_star + spec.alpha) / spec.gamma
    acc = 0.0
    exact_hi = min(m - 1, EXACT_SUM_LIMIT)
    for lo in range(1, exact_hi + 1, CHUNK):
        n = np.arange(lo, min(lo + CHUNK, exact_hi + 1), dtype=np.float64)
        acc += float(np.sum(n ** -p_exp * spec.phi(r / (2.0 * spec.rho(n)))))
    if m - 1 > exact_hi:
        u = np.linspace(np.log(exact_hi + 0.5), np.log(m - 0.5), 4096)
        t = np.exp(u)
        f = t ** (1.0 - p_exp) * spec.phi(r / (2.0 * t ** (1.0 / spec.gamma)))
        acc += float(np.trapezoid(f, u))
    return acc


def tr_alpha_ratio(spec: EnvelopeSpec, r_grid) -> TauberianReport:
    """Compare LHS(r) = sum_{n < n_-(r)} Vol(rho(n))^-1 rho(n)^-alpha
    Phi(r / 2 rho(n)) against RHS(r) = rho(m)^-alpha A(m) at m = n_-(r).

    Verdict "bounded" iff the max ratio over the top r-decade is at most
    1.2x the max ratio over the previous decade (the inequality involves
    an unspecified constant; boundedness vs divergence is what is
    detectable).
    """
    r_grid = np.asarray(sorted(r_grid), dtype=np.float64)
    lhs = np.zeros(len(r_grid))
    rhs = np.zeros(len(r_grid))
    for i, r in enumerate(r_grid):
        m = spec.n_minus(float(r))
        lhs[i] = _lhs_sum(spec, float(r), m)
        rhs[i] = float(spec.rho(m)) ** (-spec.alpha) * near_diag_tail_exact(spec, m)
    ratios = lhs / rhs
    verdict, growth = _decade_verdict(r_grid, ratios)
    return TauberianReport(spec, r_grid, lhs, rhs, ratios, verdict, growth)


def _decade_verdict(r_grid: np.ndarray, ratios: np.ndarray) -> tuple:
    decades = np.floor(np.log10(r_grid) - 1e-12)
    top = decades.max()
    top_max = ratios[decades == top].max()
    prev_mask = decades == top - 1
    if not prev_mask.any():
        raise ValueError("r grid must span at least two decades")
    prev_max = ratios[prev_mask].max()
    growth = top_max / prev_max
    return ("bounded" if growth <= 1.2 else "diverging"), float(growth)


# ---------------------------------------------------------------------------
# Return-probability series p_n(e, e)
# ---------------------------------------------------------------------------

def return_series_tree(rank: int, n_max: int, laziness: float = 0.0) -> np.ndarray:
    """Exact p_n(e,e) for (lazy) SRW on the 2k-regular tree, n = 0..n_max.

    The distance to the root of tree SRW is a birth-death chain (exactly one
    closer neighbor from any vertex != e), so the return probability is the
    chain's value at 0; exact by vertex-isotropy.
    """
    two_k = 2 * rank
    down = (1.0 - laziness) / two_k
    up = (1.0 - laziness) * (two_k - 1) / two_k
    q = np.zeros(n_max + 2)
    q[0] = 1.0
    out = [1.0]
    for _ in range(n_max):
        new = np.zeros_like(q)
        new[0] = laziness * q[0] + down * q[1]
        new[1] = (1.0 - laziness) * q[0] + laziness * q[1] + down * q[2]
        new[2:-1] = up * q[1:-2] + laziness * q[2:-1] + down * q[3:]
        q = new
        out.append(float(q[0]))
    return np.array(out)


class _LatticeConvolver:
    """Exact n-step pmfs of a finite-range lattice walk on a fixed window.

    Mass shifted off the window edge is dropped and tracked in delta_trunc
    (window 6 sqrt(n_max) + range covers all but ~1e-16 of the mass).
    """

    def __init__(self, spec: GroupSpec, mu: StepMeasure, n_max: int,
                 halfwidth: Optional[int] = None):
        if spec.variant != "lattice":
            raise ValueError("lattice convolver needs a lattice backend")
        self.spec = spec
        e = identity(spec)
        self.steps = [(s, mu.pmf(s)) for s in mu.support_elements() if s != e]
        self.diag = mu.pmf(e)
        reach = max(max(abs(c) for c in s) for s, _ in self.steps)
        if halfwidth is None:
            halfwidth = int(6.0 * np.sqrt(n_max)) + reach + 4
        self.half = halfwidth
        shape = (2 * halfwidth + 1,) * spec.d
        self.arr = np.zeros(shape)
        self.arr[(halfwidth,) * spec.d] = 1.0
        self.n = 0
        self.delta_trunc = 0.0

    def step(self):
        new = self.diag * self.arr if self.diag else np.zeros_like(self.arr)
        for s, p in self.steps:
            new += p * _shift(self.arr, s)
        lost = float(self.arr.sum() - new.sum() + self.delta_trunc)
        self.arr = new
        self.delta_trunc = max(lost, 0.0)
        self.n += 1

    def advance_to(self, n: int):
        while self.n < n:
            self.step()

    def at(self, x) -> float:
        idx = tuple(c + self.half for c in x)
        return float(self.arr[idx])

    def max_shift_difference(self, shift_vec) -> float:
        """max over x of |p_n(x) - p_n(x - shift)|."""
        return float(np.max(np.abs(self.arr - _shift(self.arr, shift_vec))))


def _shift(arr: np.ndarray, vec) -> np.ndarray:
    """Zero-fill shift of arr by an integer vector (mass may fall off)."""
    out = arr
    for axis, k in enumerate(vec):
        if k == 0:
            continue
        shifted = np.zeros_like(out)
        src = [slice(None)] * out.ndim
        dst = [slice(None)] * out.ndim
        if k > 0:
            dst[axis] = slice(k, None)
            src[axis] = slice(None, -k)
        else:
            dst[axis] = slice(None, k)
            src[axis] = slice(-k, None)
        shifted[tuple(dst)] = out[tuple(src)]
        out = shifted
    return out


def return_series(spec: GroupSpec, mu: StepMeasure, n_max: int) -> np.ndarray:
    """p_n(e,e) for n = 0..n_max, exact per backend."""
    if spec.variant == "free" and _is_srw(spec, mu):
        return return_series_tree(spec.rank, n_max, mu.laziness)
    if spec.variant == "lattice":
        conv = _LatticeConvolver(spec, mu, n_max)
        out = [1.0]
        for _ in range(n_max):
            conv.step()
            out.append(conv.at((0,) * spec.d))
        return np.array(out)
    raise ValueError("exact return series implemented for trees and lattices")


def _is_srw(spec: GroupSpec, mu: StepMeasure) -> bool:
    gens = groups.standard_generators(spec)
    if mu.kind != "finite":
        return False
    base = {g: mu.pmf(g) for g in mu.support_elements() if g != identity(spec)}
    want = (1.0 - mu.laziness) / len(gens)
    return set(base) == set(gens.elements) and all(
        abs(p - want) < 1e-12 for p in base.values())


@dataclass
class OnDiagonalReport:
    m_values: np.ndarray
    p2m: np.ndarray
    beta_hat: float                  # slope of log(-log p_2m) vs log m
    rate: float                      # a in log p_2m ~ a m + b log m + c
    rate_poly: float                 # b in the same fit
    kesten_root: float               # p_{2 m_max}(e,e)^(1 / 2 m_max)


def on_diagonal_probe(spec: GroupSpec, mu: StepMeasure, m_max: int) -> OnDiagonalReport:
    """Exact on-diagonal even-time series with two decay fits.

    beta_hat regresses log(-log p_2m) on log m (stretched-exponential
    exponent; biased low at desk scale by polynomial prefactors).  The
    three-parameter fit log p_2m = a m + b log m + c separates the
    exponential rate a from the polynomial correction b; for a tree SRW,
    a -> 2 log(spectral radius).
    """
    series = return_series(spec, mu, 2 * m_max)
    m = np.arange(1, m_max + 1)
    p2m = series[2 * m]
    fit_mask = m >= max(2, m_max // 3)
    mm, pp = m[fit_mask], p2m[fit_mask]
    beta_hat = float(np.polyfit(np.log(mm), np.log(-np.log(pp)), 1)[0])
    design = np.column_stack([mm, np.log(mm), np.ones_like(mm, dtype=float)])
    coef, *_ = np.linalg.lstsq(design, np.log(pp), rcond=None)
    kesten_root = float(p2m[-1] ** (1.0 / (2.0 * m_max)))
    return OnDiagonalReport(m, p2m, beta_hat, float(coef[0]), float(coef[1]),
                            kesten_root)


# ---------------------------------------------------------------------------
# Parity bridge
# ---------------------------------------------------------------------------

def parity_bridge_check(series_or_pmf, k_max: int = 20) -> float:
    """Worst slack of nu^(k)(e) <= sqrt(nu^(2 floor(k/2))(e) nu^(2 ceil(k/2))(e)).

    Accepts a precomputed return series p_n(e,e) (n = 0..2*ceil(k_max/2))
    or a symmetric PmfOnZ, which is convolved exactly.  Returns
    min_k [sqrt(...) - nu^(k)(e)]; nonnegative iff no violation.
    """
    if isinstance(series_or_pmf, PmfOnZ):
        pmf = series_or_pmf
        if not pmf.is_symmetric(1e-12):
            raise ValueError("parity bridge requires a symmetric pmf")
        series = [1.0]
        cur = None
        full = 2 * ((k_max + 1) // 2) + 1
        for _ in range(full):
            cur = pmf if cur is None else _convolve_full(cur, pmf)
            series.append(cur.at(0))
        series = np.array(series)
    else:
        series = np.asarray(series_or_pmf, dtype=np.float64)
        need = 2 * ((k_max + 1) // 2)
        if len(series) < need + 1:
            raise ValueError("series too short for k_max")
    worst = np.inf
    for k in range(1, k_max + 1):
        bound = np.sqrt(series[2 * (k // 2)] * series[2 * ((k + 1) // 2)])
        worst = min(worst, float(bound - series[k]))
    return worst


def _convolve_full(p: PmfOnZ, q: PmfOnZ) -> PmfOnZ:
    vals = np.convolve(p.vals, q.vals)
    return PmfOnZ(vals, p.lo + q.lo, max(0.0, 1.0 - float(vals.sum())))


# ---------------------------------------------------------------------------
# Hoelder-constant probe on lattices
# ---------------------------------------------------------------------------

@dataclass
class HolderProbe:
    n_values: np.ndarray
    per_n: np.ndarray
    overall: float
    delta_trunc: float


def holder_constant_probe(spec: GroupSpec, mu: StepMeasure, n_list, a, b,
                          alpha: float = 1.0) -> HolderProbe:
    """Empirical uniform-Hoelder constant from exact n-step pmfs:
    max over x and n of |p_n(a,x) - p_n(b,x)| Vol(rho(n)) (rho(n)/d(a,b))^alpha
    with rho(n) = sqrt(n) and Vol(rho) = rho^d."""
    if a == b:
        return HolderProbe(np.asarray(n_list), np.zeros(len(n_list)), 0.0, 0.0)
    n_list = sorted(n_list)
    shift_vec = tuple(bi - ai for ai, bi in zip(a, b))
    d_ab = sum(abs(c) for c in shift_vec)
    conv = _LatticeConvolver(spec, mu, n_list[-1])
    per_n = []
    for n in n_list:
        conv.advance_to(n)
        diff = conv.max_shift_difference(shift_vec)
        rho = np.sqrt(n)
        per_n.append(diff * rho ** spec.d * (rho / d_ab) ** alpha)
    return HolderProbe(np.asarray(n_list), np.asarray(per_n),
                       float(np.max(per_n)), conv.delta_trunc)


# ---------------------------------------------------------------------------
# Exponential-growth sum probe (tree closed form)
# ---------------------------------------------------------------------------

@dataclass
class GrowthSumProbe:
    n_values: np.ndarray
    sums: np.ndarray
    crossing_n: int


def exp_growth_sum_probe(spec: GroupSpec, n_list, lower_rate_delta: float = 0.1,
                         amplitude: float = 1.0) -> GrowthSumProbe:
    """sum_{y in S(e,n)} G(e,y) on the free-group tree, exactly
    |S(e,n)| (q/(q-1)) q^{-n} (constant in n), against the exponential
    lower-bound profile amplitude * exp((log q + log(1-delta)) n) whose
    crossing of the sum reproduces the ball-obstruction contradiction."""
    if spec.variant != "free":
        raise ValueError("growth-sum probe is a tree computation")
    q = 2 * spec.rank - 1
    sums = []
    for n in n_list:
        sphere = 2 * spec.rank * q ** (n - 1)
        sums.append(sphere * (q / (q - 1.0)) * float(q) ** (-n))
    rate = np.log(q) + np.log(1.0 - lower_rate_delta)
    crossing = 1
    while amplitude * np.exp(rate * crossing) <= max(sums):
        crossing += 1
        if crossing > 10 ** 6:
            raise RuntimeError("no crossing found; rate must be positive")
    return GrowthSumProbe(np.asarray(n_list), np.asarray(sums), crossing)
