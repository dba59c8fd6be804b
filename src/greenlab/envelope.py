"""Heat-kernel envelope checks: near-diagonal tails, the off-diagonal
Tauberian comparability test, and exact on-diagonal return series with
their decay fits.

Scales are normalised as rho(n) = n^(1/gamma) with reference volume
Vol(rho) = rho^(d*); the near-diagonal tail is A(m) = sum_{n>=m} n^(-d*/gamma)
and the near-diagonal threshold n_-(r) is the first n with rho(n) >= r.

``special`` is a lazy module attribute (``greenlab._LazyModule``), so
importing greenlab loads no SciPy; it is imported at the first zeta tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _LazyModule
from .groups import GroupSpec, identity
from .measures import StepMeasure, _is_srw, _range_sum

special = _LazyModule("scipy.special")


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

    def __post_init__(self):
        if self.d_star / self.gamma <= 1.0:
            raise ValueError("transience needs d*/gamma > 1 (A(1) finite)")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")

    def rho(self, n):
        return np.asarray(n, dtype=np.float64) ** (1.0 / self.gamma)

    def n_minus(self, r: float) -> int:
        """First n with rho(n) >= r."""
        n = max(1, int(np.ceil(r ** self.gamma)))
        # guard against float round-off at integer thresholds
        while n > 1 and (n - 1) ** (1.0 / self.gamma) >= r - 1e-12:
            n -= 1
        return n


# ---------------------------------------------------------------------------
# Near-diagonal tail
# ---------------------------------------------------------------------------

def near_diag_tail_exact(spec: EnvelopeSpec, m: int) -> float:
    """A(m) as the Hurwitz zeta value zeta(d*/gamma, m)."""
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
    exact_hi = min(m - 1, EXACT_SUM_LIMIT)
    acc = _range_sum(lambda n: n ** -p_exp * spec.phi(r / (2.0 * spec.rho(n))),
                     1, exact_hi + 1)
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


def return_series(spec: GroupSpec, mu: StepMeasure, n_max: int) -> np.ndarray:
    """p_n(e,e) for n = 0..n_max, exact per backend.

    On a lattice the n-step pmf is convolved one step at a time on the
    window |x_i| <= reach * ceil(n_max / 2), reach the largest step
    coordinate.  A path that is back at 0 at time n <= n_max lies within
    reach * min(k, n - k) of 0 at every time k, so it never leaves the
    window: the mass that does leave it is dropped, and the series is
    exact with no truncation term."""
    if spec.variant == "free" and _is_srw(spec, mu):
        return return_series_tree(spec.rank, n_max, mu.laziness)
    if spec.variant != "lattice":
        raise ValueError("exact return series implemented for trees and lattices")
    e = identity(spec)
    steps = [(s, mu.pmf(s)) for s in mu.support_elements() if s != e]
    diag = mu.pmf(e)
    # reach 0 (a law on the identity alone) makes the window one point
    reach = max((abs(c) for s, _ in steps for c in s), default=0)
    half = reach * -(-n_max // 2)
    arr = np.zeros((2 * half + 1,) * spec.d)
    centre = (half,) * spec.d
    arr[centre] = 1.0
    # each step moves arr[src] onto new[dst]; what falls off is dropped
    moves = [(p, tuple(slice(k, None) if k > 0 else slice(None, k or None)
                       for k in s),
              tuple(slice(None, -k) if k > 0 else slice(-k, None)
                    for k in s)) for s, p in steps]
    out = [1.0]
    for _ in range(n_max):
        new = diag * arr if diag else np.zeros_like(arr)
        for p, dst, src in moves:
            new[dst] += p * arr[src]
        arr = new
        out.append(float(arr[centre]))
    return np.array(out)


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
