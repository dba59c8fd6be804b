"""Certificate functionals over Green tables: the Green-variation functional
Delta, the exit-measure variation functional epsilon, their comparison band,
and Martin kernels.

All Green access goes through a provider with one method,
``bracket_row(a, xs) -> (values, lowers, uppers)``: G(a, x) for every x in
xs, with a bracket around each value.  There are two providers: a killed
``GreenTable`` is its own, of G_Omega, and ``green.TreeGreenOracle`` gives
the exact full G of (lazy) SRW on the free group.  Interval arithmetic
over brackets yields one-sided safe error bars (a row is only called
"decayed below tau" when its upper endpoint is).  epsilon reads no Green
values, only two rows of ``green.exit_distribution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .green import Domain, exit_distribution
from .groups import GroupSpec, identity, mul
from .measures import StepMeasure


class DegenerateBracketError(ValueError):
    """A Green bracket touches zero in a denominator."""


# ---------------------------------------------------------------------------
# The Green-variation functional
# ---------------------------------------------------------------------------

def _running_argmax(values: np.ndarray) -> tuple:
    """(max, index) where the running best moves only when a value exceeds
    it by more than 1e-15, so the first of (near-)ties wins; (-1.0, None)
    when nothing exceeds -1."""
    best, where = -1.0, None
    for i, v in enumerate(values.tolist()):
        if v > best + 1e-15:
            best, where = v, i
    return best, where


@dataclass
class DeltaRow:
    scale: int
    value: float
    argmax: object
    err: float
    lower: float
    upper: float


def delta(domain: Domain, a, b, provider, scale: Optional[int] = None) -> DeltaRow:
    """max over boundary x of |G(a,x) - G(b,x)| / G(a,x).

    Evaluated on brackets by worst-case interval arithmetic; the argmax is
    the lexicographically smallest boundary point attaining the maximal
    point value (deterministic reports).
    """
    bdry = domain.boundary
    if bdry is None:
        raise ValueError("domain carries no boundary")
    if a in bdry or b in bdry:
        raise ValueError("basepoints must avoid the boundary")
    ga, la, ha = provider.bracket_row(a, bdry)
    gb, lb, hb = provider.bracket_row(b, bdry)
    if (la <= 0.0).any():
        x = bdry[int(np.argmax(la <= 0.0))]
        raise DegenerateBracketError(f"G(a,{x!r}) bracket touches zero")
    num_lo = np.maximum(np.maximum(la - hb, lb - ha), 0.0)
    num_hi = np.maximum(np.maximum(ha - lb, hb - la), 0.0)
    lo_max = float((num_lo / ha).max(initial=0.0))
    hi_max = float((num_hi / la).max(initial=0.0))
    best_val, i = _running_argmax(np.abs(ga - gb) / ga)
    err = max(best_val - lo_max, hi_max - best_val, 0.0)
    return DeltaRow(scale if scale is not None else -1, best_val,
                    None if i is None else bdry[i], err, lo_max, hi_max)


# ---------------------------------------------------------------------------
# Exit-measure variation and the comparison band
# ---------------------------------------------------------------------------

@dataclass
class EpsilonResult:
    value: float
    argmax: object
    excluded: int


def epsilon(domain: Domain, pa: np.ndarray, pb: np.ndarray) -> EpsilonResult:
    """max over boundary x of |mu_S(a,x) - mu_S(b,x)| / mu_S(a,x), from the
    exit laws pa and pb of a and b over ``domain.boundary``; boundary points
    carrying no exit mass from a are excluded and counted."""
    keep = pa > 0.0
    ratio = np.full(len(pa), -np.inf)
    ratio[keep] = np.abs(pa[keep] - pb[keep]) / pa[keep]
    best, i = _running_argmax(ratio)
    if i is None:
        raise ValueError("all boundary points excluded")
    return EpsilonResult(best, domain.boundary[i], int((~keep).sum()))


@dataclass
class BandCheck:
    eta_hat: float
    delta_row: DeltaRow
    epsilon_value: float
    band_lo: float
    band_hi: float
    band_ok: bool
    void: bool


def eps_delta_band_check(domain: Domain, a, b, mu: StepMeasure, provider,
                         tol: float = 1e-10) -> BandCheck:
    """Measure the factorization defect eta and check the two-sided band
    relating the exit-measure and Green-variation functionals.

    theta_p(z) = mu_S(p,z) G(o,z) / (mu_S(o,z) G(p,z)) - 1 for basepoints
    p in {a, b} and o the identity; eta_hat = sup |theta|.  With eta < 1
    the band is [( (1-eta)D - 2 eta)/(1+eta), ((1+eta)D + 2 eta)/(1-eta)]
    around the Green variation D.
    """
    o = identity(domain.spec)
    # one killed solve on S serves every start point
    starts = list(dict.fromkeys((a, b, o)))
    exits = dict(zip(starts, exit_distribution(domain, starts, mu, tol=tol)))
    bdry = domain.boundary
    go = provider.bracket_row(o, bdry)[0]
    eta = 0.0
    for p in (a, b):
        if p == o:
            continue            # theta vanishes identically at the origin
        cz, pz = exits[o], exits[p]
        ok = (cz > 0.0) & (pz > 0.0)
        gp = provider.bracket_row(p, bdry)[0]
        theta = pz[ok] * go[ok] / (cz[ok] * gp[ok]) - 1.0
        # eta stays a numpy scalar, so band_ok is too: reports print it as
        # "True"/"False" (a Python bool would print "true"/"false")
        eta = max(eta, np.abs(theta).max(initial=0.0))
    drow = delta(domain, a, b, provider)
    eres = epsilon(domain, exits[a], exits[b])
    if eta >= 1.0:
        return BandCheck(eta, drow, eres.value, np.nan, np.nan, False, True)
    lo = max(0.0, ((1 - eta) * drow.value - 2 * eta) / (1 + eta))
    hi = ((1 + eta) * drow.value + 2 * eta) / (1 - eta)
    slack = 1e-9 + 10 * tol
    ok = (lo - slack) <= eres.value <= (hi + slack)
    return BandCheck(eta, drow, eres.value, lo, hi, ok, False)


# ---------------------------------------------------------------------------
# Martin kernels and normalised Green sequences
# ---------------------------------------------------------------------------

@dataclass
class MartinSample:
    x: object
    target: object
    value: float
    err: float


def _point(provider, a, x) -> tuple:
    """(G(a, x), lower, upper) as floats, from a one-point row."""
    return tuple(float(r[0]) for r in provider.bracket_row(a, [x]))


def martin_kernel(spec: GroupSpec, a, x, provider) -> MartinSample:
    """K(a, x) = G(a, x) / G(e, x); error from interval division."""
    num, lo_n, hi_n = _point(provider, a, x)
    den, lo_d, hi_d = _point(provider, identity(spec), x)
    if lo_d <= 0.0:
        raise DegenerateBracketError("denominator bracket touches zero")
    v = num / den
    lo, hi = lo_n / hi_d, hi_n / lo_d
    return MartinSample(a, x, v, max(v - lo, hi - v))


@dataclass
class KernelSequence:
    basepoint: object
    probes: list               # v where psi is tabulated
    targets: list              # escaping x_k
    psi: np.ndarray            # shape (k, len(probes))
    defects: np.ndarray        # harmonicity defect per (v, k), same shape


def normalized_kernel_sequence(probes: list, a, targets: list, mu: StepMeasure,
                               provider, spec: GroupSpec) -> KernelSequence:
    """psi_k(v) = G(v, x_k) / G(a, x_k) with the one-step mean defect
    |psi_k(v) - sum_s mu(s) psi_k(v s)| (zero away from x_k by the
    one-step Green identity).

    G(v, x_k) is read from the row of x_k as G(x_k, v), one provider call
    per target, so the law must be symmetric."""
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be pairwise distinct")
    psi = np.zeros((len(targets), len(probes)))
    defects = np.zeros_like(psi)
    e = identity(spec)
    steps = [(s, mu.pmf(s)) for s in mu.support_elements() if s != e]
    diag = mu.pmf(e)
    # one row per target: a, the probes, then each probe's neighbours
    points = [a, *probes, *(mul(spec, v, s) for v in probes for s, _ in steps)]
    m = len(probes)
    for k, xk in enumerate(targets):
        g = provider.bracket_row(xk, points)[0]
        psi[k] = g[1:m + 1] / g[0]
        nbrs = g[m + 1:].reshape(m, len(steps))
        acc = diag * psi[k]
        for j, (_, p) in enumerate(steps):
            acc = acc + p * nbrs[:, j] / g[0]
        defects[k] = np.abs(psi[k] - acc)
    return KernelSequence(a, probes, targets, psi, defects)


def tree_martin_kernel(spec: GroupSpec, ray_prefix: tuple, x: tuple) -> Fraction:
    """Exact Martin kernel on the free-group tree for the boundary ray
    through ray_prefix: K(x, xi) = q^{-b(x)} with b(x) = |x| - 2 c(x),
    c(x) the common-prefix length of x and the ray."""
    if spec.variant != "free":
        raise ValueError("tree kernels need the free backend")
    if len(ray_prefix) < len(x) + 2:
        raise ValueError("ray prefix must exceed |x| + 2")
    q = 2 * spec.rank - 1
    c = 0
    for u, w in zip(x, ray_prefix):
        if u != w:
            break
        c += 1
    b = len(x) - 2 * c
    return Fraction(q) ** (-b)
