"""Certificate functionals over Green tables: the Green-variation functional
Delta, the exit-measure variation functional epsilon, their comparison band,
and Martin kernels (from a provider, and in closed form on the tree).

All Green access goes through a provider with one method,
``bracket_row(a, xs) -> (values, lowers, uppers)``: G(a, x) for every x in
xs, with a bracket around each value.  There are two providers: a killed
``GreenTable`` is its own, of G_Omega, and ``green.TreeGreenOracle`` gives
the exact full G of (lazy) SRW on the free group.  Every read is the row of
the first argument: delta reads the rows of its basepoints and
martin_kernel those of its probes and base, never a row of a boundary
point or a target.  Interval arithmetic over brackets yields one-sided
safe error bars (a row is only called "decayed below tau" when its upper
endpoint is).  epsilon reads no Green values, only two rows of
``green.exit_distribution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .green import Domain, exit_distribution
from .groups import GroupSpec, identity
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
# Martin kernels
# ---------------------------------------------------------------------------

def martin_kernel(probes: list, base, targets: list, provider) -> tuple:
    """(values, errors), each of shape (len(probes), len(targets)): the
    Martin kernel K(v, x) = G(v, x) / G(base, x) for each probe v and
    target x, read from the rows of the probes and of base, with the error
    of the interval quotient of the two brackets."""
    den, lo_d, hi_d = provider.bracket_row(base, targets)
    if (lo_d <= 0.0).any():
        x = targets[int(np.argmax(lo_d <= 0.0))]
        raise DegenerateBracketError(f"G(base,{x!r}) bracket touches zero")
    values = np.empty((len(probes), len(targets)))
    errors = np.empty_like(values)
    for i, v in enumerate(probes):
        num, lo_n, hi_n = provider.bracket_row(v, targets)
        values[i] = num / den
        errors[i] = np.maximum(values[i] - lo_n / hi_d, hi_n / lo_d - values[i])
    return values, errors


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
