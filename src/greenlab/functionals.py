"""Certificate functionals over Green tables: the Green-variation functional,
the exit-measure variation functional, their comparison band, Martin kernels,
the Green metric, telescoping identities, and decay-rate fits.

All Green access goes through a provider exposing ``value(a, x)``,
``bracket(a, x)`` and, for whole boundaries at once,
``bracket_row(a, xs) -> (values, lowers, uppers)``; interval arithmetic
over brackets yields one-sided safe error bars (a row is only called
"decayed below tau" when its upper endpoint is).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import groups
from .green import Domain, exit_distribution
from .groups import GroupSpec, identity, inv, mul
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


@dataclass
class DeltaScan:
    """Rows of (scale, delta, argmax, err) for fixed basepoints (a, b)."""

    a: object
    b: object
    rows: list

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.rows])

    def scales(self) -> np.ndarray:
        return np.array([r.scale for r in self.rows])


# ---------------------------------------------------------------------------
# Exit-measure variation and the comparison band
# ---------------------------------------------------------------------------

@dataclass
class EpsilonResult:
    value: float
    argmax: object
    excluded: int


def epsilon(domain: Domain, a, b, mu: StepMeasure,
            exits_a=None, exits_b=None, tol: float = 1e-10) -> EpsilonResult:
    """max over boundary x of |mu_S(a,x) - mu_S(b,x)| / mu_S(a,x); boundary
    points carrying no exit mass from a are excluded and counted."""
    if exits_a is None:
        exits_a = exit_distribution(domain, a, mu, "solve", tol=tol)
    if exits_b is None:
        exits_b = exit_distribution(domain, b, mu, "solve", tol=tol)
    pa, pb = exits_a.vector, exits_b.vector
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
    delta_value: float
    epsilon_value: float
    band_lo: float
    band_hi: float
    band_ok: bool
    void: bool


def eps_delta_band_check(domain: Domain, a, b, mu: StepMeasure, provider,
                         origin=None, tol: float = 1e-10) -> BandCheck:
    """Measure the factorization defect eta and check the two-sided band
    relating the exit-measure and Green-variation functionals.

    theta_p(z) = mu_S(p,z) G(o,z) / (mu_S(o,z) G(p,z)) - 1 for basepoints
    p in {a, b}; eta_hat = sup |theta|.  With eta < 1 the band is
    [( (1-eta)D - 2 eta)/(1+eta), ((1+eta)D + 2 eta)/(1-eta)] around the
    Green variation D.
    """
    spec = domain.spec
    o = identity(spec) if origin is None else origin
    # one killed solve on S serves every start point
    starts = list(dict.fromkeys((a, b, o)))
    exits = dict(zip(starts, exit_distribution(domain, starts, mu, "solve", tol=tol)))
    bdry = domain.boundary
    go = provider.bracket_row(o, bdry)[0]
    eta = 0.0
    for p in (a, b):
        if p == o:
            continue            # theta vanishes identically at the origin
        cz, pz = exits[o].vector, exits[p].vector
        ok = (cz > 0.0) & (pz > 0.0)
        gp = provider.bracket_row(p, bdry)[0]
        theta = pz[ok] * go[ok] / (cz[ok] * gp[ok]) - 1.0
        # eta stays a numpy scalar, so band_ok is too: reports print it as
        # "True"/"False" (a Python bool would print "true"/"false")
        eta = max(eta, np.abs(theta).max(initial=0.0))
    drow = delta(domain, a, b, provider)
    eres = epsilon(domain, a, b, mu, exits.get(a), exits.get(b), tol=tol)
    if eta >= 1.0:
        return BandCheck(eta, drow.value, eres.value, np.nan, np.nan, False, True)
    lo = max(0.0, ((1 - eta) * drow.value - 2 * eta) / (1 + eta))
    hi = ((1 + eta) * drow.value + 2 * eta) / (1 - eta)
    slack = 1e-9 + 10 * tol
    ok = (lo - slack) <= eres.value <= (hi + slack)
    return BandCheck(eta, drow.value, eres.value, lo, hi, ok, False)


# ---------------------------------------------------------------------------
# Martin kernels and normalised Green sequences
# ---------------------------------------------------------------------------

@dataclass
class MartinSample:
    x: object
    target: object
    value: float
    err: float


def martin_kernel(spec: GroupSpec, a, x, provider) -> MartinSample:
    """K(a, x) = G(a, x) / G(e, x); error from interval division."""
    e = identity(spec)
    num = provider.value(a, x)
    den = provider.value(e, x)
    lo_n, hi_n = provider.bracket(a, x)
    lo_d, hi_d = provider.bracket(e, x)
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
    one-step Green identity)."""
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be pairwise distinct")
    psi = np.zeros((len(targets), len(probes)))
    defects = np.zeros_like(psi)
    e = identity(spec)
    steps = [(s, mu.pmf(s)) for s in mu.support_elements() if s != e]
    diag = mu.pmf(e)
    for k, xk in enumerate(targets):
        ga = provider.value(a, xk)
        for i, v in enumerate(probes):
            psi[k, i] = provider.value(v, xk) / ga
        for i, v in enumerate(probes):
            acc = diag * psi[k, i]
            for s, p in steps:
                acc += p * provider.value(mul(spec, v, s), xk) / ga
            defects[k, i] = abs(psi[k, i] - acc)
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


# ---------------------------------------------------------------------------
# Green metric
# ---------------------------------------------------------------------------

@dataclass
class GreenDistance:
    value: float
    lower: float
    upper: float


def green_distance(spec: GroupSpec, x, y, provider) -> GreenDistance:
    """d_G(x, y) = log G(e,e) - log G(x, y), with interval propagation."""
    e = identity(spec)
    gee = provider.value(e, e)
    gxy = provider.value(x, y)
    lo_e, hi_e = provider.bracket(e, e)
    lo_xy, hi_xy = provider.bracket(x, y)
    if lo_xy <= 0.0 or lo_e <= 0.0:
        raise DegenerateBracketError("bracket touches zero")
    return GreenDistance(float(np.log(gee) - np.log(gxy)),
                         float(np.log(lo_e) - np.log(hi_xy)),
                         float(np.log(hi_e) - np.log(lo_xy)))


@dataclass
class TelescopingReport:
    kernel_residual: float
    metric_residual: float
    error_budget: float


def telescoping_check(spec: GroupSpec, word: tuple, provider) -> TelescopingReport:
    """Check G(e,x)/G(e,e) = prod_i K_{t_i}(e, t_i...t_n) and the matching
    additive identity for d_G along a geodesic word for x."""
    e = identity(spec)
    x = e
    for t in word:
        x = mul(spec, x, t)
    if groups.word_length(spec, x) != len(word):
        raise ValueError("word is not geodesic for its product")
    # suffixes z_i = t_i ... t_n and kernel factors G(e,z_i)/G(t_i,z_i)
    prod = 1.0
    budget = 0.0
    suffix = e
    factors = []
    for t in reversed(word):
        suffix = mul(spec, t, suffix)
        factors.append((t, suffix))
    for t, z in factors:
        num, den = provider.value(e, z), provider.value(t, z)
        prod *= num / den
        lo_n, hi_n = provider.bracket(e, z)
        lo_d, hi_d = provider.bracket(t, z)
        if lo_n <= 0 or lo_d <= 0:
            raise DegenerateBracketError("bracket touches zero in telescoping")
        budget += np.log(hi_n / lo_n) + np.log(hi_d / lo_d)
    gee = provider.value(e, e)
    gex = provider.value(e, x)
    kernel_res = abs(gex / gee - prod)
    dg = np.log(gee) - np.log(gex)
    metric_res = abs(dg - _sum_phi(spec, word, provider))
    return TelescopingReport(kernel_res, metric_res, budget + 1e-12)


def _sum_phi(spec: GroupSpec, word: tuple, provider) -> float:
    """sum_k log(G(e, z_k) / G(e, z_{k+1})) over prefixes z_k = t_1...t_k."""
    e = identity(spec)
    acc = 0.0
    z = e
    for t in word:
        z_next = mul(spec, z, t)
        acc += np.log(provider.value(e, z)) - np.log(provider.value(e, z_next))
        z = z_next
    return acc


# ---------------------------------------------------------------------------
# Rate fits and the elliptic exhaustion probe
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    alpha: float
    constant: float
    r_squared: float
    rejected: bool
    reason: str = ""


def delta_rate_fit(scan: DeltaScan, d_ab: float) -> RateFit:
    """Least squares of log Delta against log(d_ab / R); flags non-decay."""
    pts = [(r.scale, r.value) for r in scan.rows if r.value > 0]
    if len(pts) < 4:
        raise ValueError("need at least 4 positive rows to fit")
    vals = np.array([v for _, v in pts])
    if vals.max() / vals.min() < 1.05:
        return RateFit(0.0, float(vals.mean()), 0.0, True, "non-decay: flat scan")
    x = np.log(d_ab / np.array([float(s) for s, _ in pts]))
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return RateFit(float(slope), float(np.exp(intercept)), r2, False)


def ehe_probe(domains: list, a, b, alpha: float, provider,
              theta: float = 0.5) -> dict:
    """Empirical uniform interior Hoelder constant for the Green family:
    sup over admissible scales k and boundary x of
    |G(a,x) - G(b,x)| / ((d(a,b)/R_k)^alpha min(G(a,x), G(b,x))).

    Scales with d(a,b) > theta R_k are skipped (deep-interior regime).
    Returns per-scale sups and their running overall sup.
    """
    if a == b:
        return {"sup": 0.0, "per_scale": [], "skipped": len(domains)}
    spec = domains[0].spec
    d_ab = groups.word_length(spec, mul(spec, inv(spec, a), b))
    per_scale = []
    skipped = 0
    overall = 0.0
    for dom in domains:
        rk = _boundary_distance(spec, dom, a, b)
        if d_ab > theta * rk:
            skipped += 1
            continue
        ga = provider.bracket_row(a, dom.boundary)[0]
        gb = provider.bracket_row(b, dom.boundary)[0]
        ratio = np.abs(ga - gb) / ((d_ab / rk) ** alpha * np.minimum(ga, gb))
        worst = float(ratio.max(initial=0.0))
        per_scale.append((rk, worst))
        overall = max(overall, worst)
    return {"sup": overall, "per_scale": per_scale, "skipped": skipped}


def _boundary_distance(spec: GroupSpec, dom: Domain, a, b) -> int:
    """R(S; a, b) = dist({a,b}, boundary S) in the word metric."""
    best = None
    for x in dom.boundary:
        for p in (a, b):
            d = groups.word_length(spec, mul(spec, inv(spec, p), x))
            best = d if best is None else min(best, d)
    return best
