"""Exact law of the increment-ratio maximum M_n = max_{k<=n} R_k / k.

For i.i.d. jump lengths R_k with tail T(t) = P(R > t),

    P(M_n <= x) = prod_{k<=n} P(R <= k x) = prod_{k<=n} (1 - T(floor(k x))),

and P(M_n < x) is the same product at ceil(k x) - 1.  Tails are exact
per law: the unit mass plus the shell radius law r^{-2} / log r (direct
sum below EM_START, Euler-Maclaurin above it), Hurwitz zeta for the
stable law on Z, and the finite support otherwise.  Test helper only.
"""

import numpy as np
from scipy import special

from greenlab import groups
from greenlab.measures import UNIT_MASS

# Shell tails sum 1/(r^2 log r) directly below this radius; above it,
# sum_{r>=a} f(r) = E1(log a) + f(a)/2 - f'(a)/12 with a remainder below
# 2 zeta(3)/(2 pi)^3 |f''(a)| < 1e-14.
EM_START = 1000

# Relative nudge that puts k * x on the integer it equals despite rounding.
# For x = r/j with j <= 1e4 and k x <= 1e7, a k x that is not an integer is
# at least 1/j = 1e-4 from every integer, far beyond the nudge (<= 1e-5).
_REL = 1e-12


def _shell_f(r):
    return 1.0 / (r * r * np.log(r))


def _shell_sum_from(a):
    """sum_{r >= a} 1/(r^2 log r) for float arrays a >= EM_START."""
    lg = np.log(a)
    return special.exp1(lg) + _shell_f(a) / 2 + (2 * lg + 1) / (12 * a ** 3 * lg ** 2)


def radius_mass(mu, r):
    """P(R = r) for r >= r0 under a shell law: mu.pmf summed over the
    2 len(mu.axes) axis powers of length r (0 below r0)."""
    if r < mu.r0:
        return 0.0
    dim = len(groups.identity(mu.spec))
    return 2 * len(mu.axes) * mu.pmf((r,) + (0,) * (dim - 1))


def radius_tail(mu):
    """t -> P(R > t) for the jump length R of mu, t a float array of integers."""
    keep = 1.0 - mu.laziness
    if mu.kind == "stable_z":
        return lambda t: keep * 2 * mu.c_alpha * special.zeta(1 + mu.alpha, t + 1)
    if mu.kind == "shell":
        r0 = mu.r0
        head = _shell_f(np.arange(r0, EM_START, dtype=np.float64))
        # sums[i] = sum_{r >= r0 + i} f(r) for r0 + i <= EM_START
        sums = np.append(np.cumsum(head[::-1])[::-1], 0.0) \
            + _shell_sum_from(np.float64(EM_START))
        c = (1.0 - UNIT_MASS) * mu.shell_norm

        def tail(t):
            a = np.maximum(t + 1, r0)
            low = a <= EM_START
            shell = np.where(low, sums[np.minimum(a, EM_START).astype(np.int64) - r0],
                             _shell_sum_from(np.maximum(a, EM_START)))
            return keep * np.where(t < 1, 1.0, c * shell)
        return tail
    sup = mu.support_elements()
    lens = np.array([groups.word_length(mu.spec, s) for s in sup], dtype=np.float64)
    w = np.array([mu.pmf(s) for s in sup])
    return lambda t: np.sum(w * (lens > t[..., None]), axis=-1)


def running_max_cdf(tail, n, x, strict=False):
    """P(M_n <= x), or P(M_n < x) when strict; vectorised over k."""
    kx = np.arange(1, n + 1, dtype=np.float64) * x
    t = np.ceil(kx * (1 - _REL)) - 1 if strict else np.floor(kx * (1 + _REL))
    return float(np.prod(1.0 - tail(t)))


def running_max_median(tail, n, rel=1e-12):
    """Smallest x with P(M_n <= x) >= 1/2, to relative precision rel."""
    lo, hi = 0.0, 1.0
    while running_max_cdf(tail, n, hi) < 0.5:
        lo, hi = hi, 2 * hi
    while hi - lo > rel * hi:
        mid = (lo + hi) / 2
        if running_max_cdf(tail, n, mid) >= 0.5:
            hi = mid
        else:
            lo = mid
    return hi


def ks_distance(samples, tail, n):
    """sup_x |F_emp(x) - P(M_n <= x)| for draws of M_n.

    Both sides are right-continuous step functions, so the sup is attained
    at a sample point or just left of one.
    """
    srt = np.sort(np.asarray(samples, dtype=np.float64))
    xs = np.unique(srt)
    at = np.searchsorted(srt, xs, side="right") / len(srt)
    below = np.searchsorted(srt, xs, side="left") / len(srt)
    f_at = np.array([running_max_cdf(tail, n, x) for x in xs])
    f_below = np.array([running_max_cdf(tail, n, x, strict=True) for x in xs])
    return float(max(np.abs(at - f_at).max(), np.abs(below - f_below).max()))


def dkw_radius(trials, level):
    """eps with P(sup |F_emp - F| > eps) <= level (DKW, Massart's constant)."""
    return float(np.sqrt(np.log(2.0 / level) / (2.0 * trials)))
