"""Trajectory simulation and asymptotics experiments: speed in probability,
increment-ratio diagnostics, Green-speed estimates, total-variation
dispersion along the centre, and truncated coordinate moments.

All Monte Carlo runs are vectorised over trials and draw from generators
derived deterministically from a master seed (see rng.derive_stream).
The batched lattice and Heis3 walker splits its trials into replicas of at
most REPLICA_WALKERS walkers, each on its own spawned stream, and runs
them in up to greenlab.CPUS threads; a replica draws about BLOCK_STEPS
walker-steps per sample_steps call, into draw buffers it allocates once
(measures._DrawBuffers).  Its positions depend only on the
seed, n and the trial count: not on CPUS, nor on the checkpoints asked
for.  The tree walker follows only the word length of (lazy) SRW on F_k,
an exact birth-death chain (_tree_distance_chain) with one
rng.random(trials) draw per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

from . import groups, thread_map
from .green import GreenTable, TreeGreenOracle, ball_domain, killed_green_solve
from .groups import GroupSpec, identity
from .measures import (PmfOnZ, StepMeasure, UNIT_MASS, _DrawBuffers, _is_srw,
                       _range_sum, _shell_f, self_convolution_powers,
                       total_variation_shift)

# The batched walker's replicas hold at most this many walkers each, and a
# replica draws about this many walker-steps per sample_steps call.  On the
# Heis3 shell speed run (8000 trials, n = 10^4, 2-vCPU machine), on one CPU
# blocks of 2^15 to 2^17 ran within 3% of each other and 5-8% faster than
# one draw per step; on two CPUs 2^15 was about 10% slower than 2^16.
REPLICA_WALKERS = 4096
BLOCK_STEPS = 2 ** 16


# ---------------------------------------------------------------------------
# Batched walkers (exact in law, vectorised over trials)
# ---------------------------------------------------------------------------

def _integers(key: str, values, least: Optional[int] = 1) -> list:
    """`values` as ints, in their order, if there is one and each is an
    integer at least `least` (any integer if least is None); otherwise a
    ValueError naming the config key they come from.  An integral float
    such as 10.0 passes; 10.5 and a boolean do not."""
    vals = list(values)
    floor = -math.inf if least is None else least
    try:
        # int() and float() would read a boolean as 1 or 0
        ok = bool(vals) and all(not isinstance(v, (bool, np.bool_))
                                and int(v) == v >= floor for v in vals)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{key} must be integers{bound}, got {vals}")
    return [int(v) for v in vals]


def _sizes(key: str, values, least: int = 1) -> list:
    """The sorted distinct values of _integers(key, values, least)."""
    return sorted(set(_integers(key, values, least)))


def _batch_positions(spec: GroupSpec, mu: StepMeasure, n: int, trials: int,
                     rng: np.random.Generator, checkpoints,
                     truncate_at: Optional[int] = None) -> dict:
    """Coordinate rows (trials, dim) of the right walk at each checkpoint in
    [0, n] on a lattice or Heis3.

    The trials are split evenly into ceil(trials / REPLICA_WALKERS)
    replicas; replica i walks trials [lo_i, hi_i) on rng.spawn's i-th
    child stream, in up to CPUS threads.  A replica of b walkers draws
    t = max(1, BLOCK_STEPS // b) steps for all of them in one
    mu.sample_steps(stream, b t) call (step-major), for steps k0 + 1 ..
    k0 + t with k0 a multiple of t; a checkpoint inside a block is read from
    the prefix sum of its steps.  The split depends only on trials, and a
    replica's blocks only on its size and n, so the positions depend
    neither on CPUS nor on the checkpoint set.

    Each replica allocates one _DrawBuffers of b t steps (its uniforms,
    guide-table indices, lengths, signs and step rows: 3.6 MB on Heis3 at
    b t = 64,000) and every block's draw refills it; the replicas share the
    law but not the buffers.  New arrays on every block ran fast only while
    glibc's mmap threshold stood above their size: on the Heis3 shell speed
    run (8000 trials, n = 10^4, 2 vCPUs), with the threshold pinned at
    128 KiB (MALLOC_MMAP_THRESHOLD_=131072), that walk took 3.5-4.5 s
    against 1.6-2.0 s unpinned, and the reused buffers take 1.8-2.0 s
    either way.

    Steps whose coordinates have L1 norm above truncate_at (the word length
    of an axis power) become the identity.  On Heis3 a step acts by
    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b'), so over a block
    the centre moves by sum_k (c'_k + a_{k-1} b'_k), a_{k-1} the first
    coordinate before step k; every sum is exact in int64.
    """
    if mu.spec != spec:
        raise ValueError(f"{mu.name} is not a step law on {spec.label()}")
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if checkpoints and (checkpoints[0] < 0 or checkpoints[-1] > n):
        raise ValueError(f"checkpoints must lie in [0, n = {n}]")
    heis = spec.variant == "heisenberg"
    dim = 3 if heis else spec.d
    out = {k: np.zeros((trials, dim), dtype=np.int64) for k in checkpoints}
    replicas = -(-trials // REPLICA_WALKERS)
    edges = [trials * i // replicas for i in range(replicas + 1)]
    streams = rng.spawn(replicas)

    def walk(i: int) -> None:
        lo, hi = edges[i], edges[i + 1]
        b = hi - lo
        block = max(1, BLOCK_STEPS // b)
        buf = _DrawBuffers(b * min(block, n), dim)
        pos = np.zeros((b, dim), dtype=np.int64)
        for k0 in range(0, n, block):
            t = min(block, n - k0)
            steps = mu.sample_steps(streams[i], b * t, buf).reshape(t, b, dim)
            if truncate_at is not None:
                steps[np.abs(steps).sum(axis=2) > truncate_at] = 0
            if heis:
                # a_{k-1} b'_k joins the central increment of step k; this
                # loop over the block's steps took 0.26 ms per 2^16
                # walker-steps, np.cumsum along axis 0 alone 0.44 ms
                a = pos[:, 0].copy()
                for step in steps:
                    step[:, 2] += a * step[:, 1]
                    a += step[:, 0]
            for k in checkpoints:
                if k0 < k < k0 + t:
                    out[k][lo:hi] = pos + steps[:k - k0].sum(axis=0)
            pos += steps.sum(axis=0)
            if k0 + t in out:
                out[k0 + t][lo:hi] = pos

    thread_map(walk, replicas)
    return out


def _tree_distance_chain(rank: int, walkers: int, rng: np.random.Generator,
                         laziness: float = 0.0):
    """Word lengths |X_k|, k = 0, 1, ..., of ``walkers`` independent (lazy)
    SRWs from e on the 2k-regular tree, one rng.random(walkers) draw per
    step.  From |x| >= 1 exactly one of the 2k neighbours is closer, so
    |X_k| is a birth-death chain, exact in law by vertex-isotropy.  Each
    step yields a new array, so callers may keep the ones yielded."""
    below = laziness + (1 - laziness) / (2 * rank)
    d = np.zeros(walkers, dtype=np.int64)
    while True:
        yield d
        u = rng.random(walkers)
        move = u >= laziness
        down = u < below
        down &= d > 0
        down &= move
        d = d + move - 2 * down


def batch_lengths(spec: GroupSpec, mu: StepMeasure, n: int, trials: int,
                  rng: np.random.Generator, checkpoints) -> dict:
    """Word-length (or quasi-norm) arrays at checkpoints; metric mode depends
    on the backend (exact on lattices/trees, quasi-norm on Heisenberg).  On
    F_k only (lazy) SRW is walked, and any other law raises ValueError."""
    if spec.variant == "free":
        # the tree walker reads nothing of the law but its laziness
        if mu.spec != spec or not _is_srw(spec, mu):
            raise ValueError(f"measure must be SRW on {spec.label()} up to "
                             f"laziness for the tree walker, got {mu.name}")
        want = set(checkpoints)
        chain = _tree_distance_chain(spec.rank, trials, rng, mu.laziness)
        return {k: d for k, d in zip(range(n + 1), chain) if k in want}
    snaps = _batch_positions(spec, mu, n, trials, rng, checkpoints)
    if spec.variant == "heisenberg":
        return {k: groups.homogeneous_quasi_norm(v) for k, v in snaps.items()}
    return {k: np.abs(v).sum(axis=1) for k, v in snaps.items()}


# ---------------------------------------------------------------------------
# Speed in probability
# ---------------------------------------------------------------------------

@dataclass
class SpeedTable:
    metric_mode: str
    trials: int
    rows: list                      # (n, eps, prob, ci95)


def speed_in_probability(spec: GroupSpec, mu: StepMeasure, n_list, eps_list,
                         trials: int, rng: np.random.Generator) -> SpeedTable:
    """Monte Carlo estimates of P(|X_n|/n > eps) with binomial 95% bands;
    the same samples serve every eps (rows are monotone in eps by
    construction)."""
    n_list = _sizes("n_list", n_list)
    (trials,) = _integers("trials", [trials])
    eps_list = list(eps_list)
    try:
        ok = bool(eps_list) and all(not isinstance(e, (bool, np.bool_))
                                    and math.isfinite(e) and e >= 0
                                    for e in eps_list)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"eps_list must be finite numbers >= 0, got {eps_list}")
    lengths = batch_lengths(spec, mu, n_list[-1], trials, rng, n_list)
    mode = "quasi_norm" if spec.variant == "heisenberg" else "exact"
    rows = []
    for n in n_list:
        ratio = lengths[n].astype(np.float64) / n
        for eps in eps_list:
            p = float((ratio > eps).mean())
            ci = 1.96 * math.sqrt(max(p * (1 - p), 1.0 / trials) / trials)
            rows.append((n, float(eps), p, ci))
    return SpeedTable(mode, trials, rows)


# ---------------------------------------------------------------------------
# Increment-ratio diagnostic (finite speed forces finite first moment)
# ---------------------------------------------------------------------------

def sample_jump_lengths(mu: StepMeasure, rng: np.random.Generator,
                        size: int) -> np.ndarray:
    """Word lengths of i.i.d. jumps (axis powers have |g| = r exactly).

    Each law stays put with its laziness in one draw: a lazy finite law
    holds the identity in its support, and the shell and stable length
    tables hold length 0."""
    if mu.kind == "finite":
        lens = np.array([groups.word_length(mu.spec, s) for s in mu.support_elements()],
                        dtype=np.float64)
        return lens[mu.sample_support_index(rng, size)]
    if mu.kind == "shell":
        return mu.sample_shell_radii(rng, size).astype(np.float64)
    return mu.sample_stable_ints(rng, size).astype(np.float64)


@dataclass
class IncrementRatioReport:
    checkpoints: list
    medians: list
    per_trial_max: np.ndarray       # shape (trials, len(checkpoints))


def increment_ratio_max(mu: StepMeasure, n: int, trials: int,
                        rng: np.random.Generator,
                        checkpoints=None) -> IncrementRatioReport:
    """Distribution of max_{k<=c} |xi_k|/k at each checkpoint c, where
    |xi_k| is the word length of the k-th increment (not of S_k).

    By Borel-Cantelli, |xi_k|/k is a.s. unbounded iff E|xi| = infinity, so
    infinite-first-moment laws show medians that grow across decades, but
    slowly: like log log n for the shell law r^{-2}/log r and like log n
    for the stable law with alpha = 1.  Bounded-step laws stay pinned at
    the maximal generator length.
    """
    (n,) = _integers("n", [n])
    (trials,) = _integers("trials", [trials])
    checkpoints = _sizes("checkpoints", [n] if checkpoints is None else checkpoints)
    if checkpoints[-1] > n:
        raise ValueError(f"checkpoints must lie in [1, n = {n}], got {checkpoints}")
    per_trial = np.zeros((trials, len(checkpoints)))
    k = np.arange(1, n + 1, dtype=np.float64)
    for t in range(trials):
        s = sample_jump_lengths(mu, rng, n)
        running = np.maximum.accumulate(s / k)
        per_trial[t] = running[np.array(checkpoints) - 1]
    medians = [float(np.median(per_trial[:, j])) for j in range(len(checkpoints))]
    return IncrementRatioReport(checkpoints, medians, per_trial)


# ---------------------------------------------------------------------------
# Green speed
# ---------------------------------------------------------------------------

@dataclass
class GreenSpeedRow:
    n: int
    mean: float
    ci95: float


@dataclass
class GreenSpeedReport:
    rows: list                      # a GreenSpeedRow per n
    # on Z^d: the killed ball B(radius) and its table from the origin
    radius: Optional[int] = None
    table: Optional[GreenTable] = None


def green_speed_estimate(spec: GroupSpec, mu: StepMeasure, n_list, trials: int,
                         rng: np.random.Generator) -> GreenSpeedReport:
    """Rows (n, mean d_G(e, X_n)/n, ci) for the Green metric
    d_G(e, x) = log G(e,e) - log G(e,x).

    Trees use the closed form d_G = |x| log q with the exact distance
    chain.  Transient lattices draw the endpoints first, then make one CG
    solve from the origin on the killed ball B(radius), with radius the
    larger of a default reach and the largest sampled |X_n|_1, and read
    every endpoint from that row, so G there is the killed G_Omega.  The
    solve draws nothing, so the radius moves no draw.
    """
    n_list = _sizes("n_list", n_list)
    # the ci95 column needs a sample standard deviation
    (trials,) = _integers("trials", [trials], least=2)

    def row(n: int, dg: np.ndarray) -> GreenSpeedRow:
        return GreenSpeedRow(n, float(dg.mean()),
                             1.96 * float(dg.std(ddof=1)) / math.sqrt(trials))

    if spec.variant == "free":
        logq = math.log(TreeGreenOracle(mu).q)
        lengths = batch_lengths(spec, mu, n_list[-1], trials, rng, n_list)
        return GreenSpeedReport([row(n, lengths[n].astype(np.float64) * logq / n)
                                 for n in n_list])
    if spec.variant != "lattice" or spec.d < 3:
        raise ValueError("Green-speed estimates need a transient backend "
                         "with a Green oracle")
    n_max = n_list[-1]
    snaps = _batch_positions(spec, mu, n_max, trials, rng, n_list)
    # |X_n|_1 has mean sqrt(6n/pi) and variance n (1 - 2/pi).  The default
    # reach, 4.5 sd above the mean, holds most samples, and the values read
    # from a ball depend on its radius, so every such sample sees one ball
    mean_l1 = math.sqrt(6.0 * n_max / math.pi)
    sd_l1 = math.sqrt(n_max * (1.0 - 2.0 / math.pi))
    radius = max(int(mean_l1 + 4.5 * sd_l1) + 2,
                 *(int(np.abs(p).sum(axis=1).max()) for p in snaps.values()))
    e = identity(spec)
    table = killed_green_solve(ball_domain(spec, mu, radius, with_boundary=False),
                               [e], mu, method="cg")
    log_gee = math.log(table.green(e, e))
    rows = [row(n, (log_gee - np.log(table.row_at(e, snaps[n]))) / n)
            for n in n_list]
    return GreenSpeedReport(rows, radius, table)


# ---------------------------------------------------------------------------
# Total-variation dispersion along the centre
# ---------------------------------------------------------------------------

@dataclass
class DispersionCurve:
    shift: int
    rows: list                     # (n, tv, delta_trunc)
    periodic: bool


# Points of a pmf window per chunk of _support_gcd.
_GCD_CHUNK = 2 ** 16


def _support_gcd(pmf: PmfOnZ) -> int:
    """gcd of the gaps between support points (0 for a single point).

    The window is read _GCD_CHUNK points at a time (PmfOnZ.read, so a
    half-form pmf is read from its half), the gap across a chunk edge
    carried from the last support point seen, and the scan stops at gcd 1;
    so it allocates a chunk's worth, not the whole support."""
    g, last = 0, None
    buf = np.empty(min(len(pmf), _GCD_CHUNK))
    for lo in range(0, len(pmf), _GCD_CHUNK):
        chunk = pmf.read(lo, min(lo + _GCD_CHUNK, len(pmf)), buf)
        sup = np.flatnonzero(chunk) + lo
        if not len(sup):
            continue
        if last is not None:
            g = math.gcd(g, int(sup[0]) - last)
        g = math.gcd(g, int(np.gcd.reduce(np.diff(sup))))
        if g == 1:
            return 1
        last = int(sup[-1])
    return g


def _doubling_sizes(n_list) -> list:
    """The sorted distinct checkpoints of a doubling chain: powers of two,
    else a ValueError naming the config key n_list."""
    n_list = _sizes("n_list", n_list)
    if any(n & (n - 1) for n in n_list):
        raise ValueError(f"n_list must be powers of two, got {n_list}")
    return n_list


def tv_dispersion_z(pmf: PmfOnZ, shift: int, n_list, cap: int) -> DispersionCurve:
    """TV(n) = (1/2) sum_m |p^(n)(m) - p^(n)(m - shift)| by exact doubling
    convolutions on the window |m| <= cap (self_convolution_powers); the
    reported TV error includes the tracked truncation loss.  Each squaring
    (measures.convolve_z) wraps nothing into the kept window, so it holds
    the linear convolution's values.  The checkpoints are streamed: TV is
    taken from each power as it is reached, and neither pmf nor a
    checkpoint is kept while the chain squares, so one power is live at a
    time if the caller passes pmf without keeping it (a temporary
    argument, which CPython 3.11 and later hand to the callee).  An even
    pmf (every symmetric law's to_pmf_on_z) comes as its nonnegative half
    and every power stays one, so the peak is a half window beside the
    real half spectrum (33.6 + 50.7 = 84.3 MB at cap 4.2e6, where the
    alpha = 1 stable law's chain traces 88.2 MiB) and a column slab or row
    block per thread; the support gcd and a checkpoint's TV read the half
    a block of 2^16 points at a time.  Periodic supports (gcd of support
    differences > 1, found by a chunked scan) are computed but flagged."""
    n_list = _doubling_sizes(n_list)
    periodic = _support_gcd(pmf) > 1
    powers = self_convolution_powers(pmf, n_list, cap)
    del pmf
    rows = []
    for n, p in powers:
        rows.append((n, total_variation_shift(p, shift), p.delta_trunc))
        del p
    return DispersionCurve(shift, rows, periodic)


@dataclass
class ProductDispersionRow:
    n: int
    tv_product: float
    tv_h: float
    tv_z: float
    slack: float
    error_budget: float


def product_dispersion_bound(h_pmf: PmfOnZ, z_pmf: PmfOnZ, shift: tuple,
                             n_list, cap_h: int, cap_z: int) -> list:
    """Check TV_{HxZ}(n) <= TV_H(n) + TV_Z(n) for the product walk shifted
    by a central element (z_h, z_z); all three total variations computed
    exactly on truncated supports.  As in tv_dispersion_z, neither input
    nor a checkpoint is kept while the chains square."""
    zh, zz = shift
    n_list = _doubling_sizes(n_list)
    h_powers = self_convolution_powers(h_pmf, n_list, cap_h)
    z_powers = self_convolution_powers(z_pmf, n_list, cap_z)
    del h_pmf, z_pmf
    rows = []
    # not zip, whose reused result tuple would hold the last pair while
    # the next is squared
    for n, a in h_powers:
        _, b = next(z_powers)
        tv_h = total_variation_shift(a, zh)
        tv_z = total_variation_shift(b, zz)
        tv_prod = _tv_product_shift(a, zh, b, zz)
        budget = a.delta_trunc + b.delta_trunc
        rows.append(ProductDispersionRow(n, tv_prod, tv_h, tv_z,
                                         tv_h + tv_z - tv_prod, budget))
        del a, b
    return rows


# Bytes per temporary of _tv_product_shift: each block of rows u holds its
# two products a_u b_v and a_{u-sh} b_{v-sz} in two reused buffers of
# about this size.
_PRODUCT_BLOCK_BYTES = 2 ** 20


def _tv_product_shift(a: PmfOnZ, sh: int, b: PmfOnZ, sz: int) -> float:
    """(1/2) sum_{u,v} |a_u b_v - a_{u-sh} b_{v-sz}|, streamed over blocks
    of rows u of about _PRODUCT_BLOCK_BYTES each (at least one row); each
    factor's two zero-padded copies are read from it by PmfOnZ.read."""
    a_full, a_shift = _padded_pair(a, sh)
    b_full, b_shift = _padded_pair(b, sz)
    rows = min(len(a_full), max(1, _PRODUCT_BLOCK_BYTES // (8 * len(b_full))))
    lhs = np.empty((rows, len(b_full)))
    rhs = np.empty_like(lhs)
    total = 0.0
    for lo in range(0, len(a_full), rows):
        x, y = lhs[:len(a_full) - lo], rhs[:len(a_full) - lo]
        np.multiply(a_full[lo:lo + rows, None], b_full, out=x)
        np.multiply(a_shift[lo:lo + rows, None], b_shift, out=y)
        np.subtract(x, y, out=x)
        np.abs(x, out=x)
        total += float(x.sum())
    return 0.5 * total


def _padded_pair(p: PmfOnZ, s: int) -> tuple:
    """(full, shifted): p's window followed by |s| zeros, and |s| zeros
    followed by it (the other way round for s < 0)."""
    n, pad = len(p), abs(s)
    full, shifted = np.zeros(n + pad), np.zeros(n + pad)
    p.read(0, n, full[:n] if s >= 0 else full[pad:])
    p.read(0, n, shifted[pad:] if s >= 0 else shifted[:n])
    return full, shifted


# ---------------------------------------------------------------------------
# Truncated coordinate moments on the Heisenberg group
# ---------------------------------------------------------------------------

@dataclass
class TruncatedMomentRow:
    n: int
    weight1_second_moment: float    # E[x1 coords^2] / n^2 (averaged over a, b)
    weight2_second_moment: float    # E[c^2] / n^4
    coupling_failure_rate: float    # n P(|S_1| > n)


def truncated_coordinate_moments(mu: StepMeasure, n_list, trials: int,
                                 rng: np.random.Generator) -> list:
    """Second moments of the weighted coordinates of the jump-truncated walk
    (jumps longer than n are replaced by the identity), normalised by
    n^(2 w); the coupling failure rate n P(|S_1| > n) comes from the exact
    radius law."""
    if mu.spec.variant != "heisenberg" or mu.kind != "shell":
        raise ValueError("coordinate moments target the Heisenberg shell law")
    (trials,) = _integers("trials", [trials])
    rows = []
    for n in _sizes("n_list", n_list):
        snaps = _batch_positions(mu.spec, mu, n, trials, rng, [n], truncate_at=n)
        A, B, C = snaps[n].T.astype(np.float64)
        w1 = 0.5 * float((A ** 2 + B ** 2).mean()) / n ** 2
        w2 = float((C ** 2).mean()) / float(n) ** 4
        tail = _shell_tail_probability(mu, n)
        rows.append(TruncatedMomentRow(n, w1, w2, n * tail))
    return rows


def _shell_tail_probability(mu: StepMeasure, x: int) -> float:
    """P(|S_1| > x) from the radius law: a lazy step has length 0, a unit
    step length 1, and radius r >= r0 carries mass proportional to
    f(r) = 1/(r^2 log r).  The shell part is shell_norm * sum_{r > x} f(r),
    the sum taken as 1/shell_norm minus the terms r0..x; so its only error
    is that of shell_norm_constant, whose tail term 1/(M log M) (M = 10^7)
    bounds the absolute error by (1 - lazy) (1 - UNIT_MASS) shell_norm /
    (M log M)."""
    keep = 1.0 - mu.laziness
    if x < 1:
        return keep
    if x < mu.r0:
        return keep * (1.0 - UNIT_MASS)
    head = _range_sum(_shell_f, mu.r0, x + 1)
    return keep * (1.0 - UNIT_MASS) * (1.0 - mu.shell_norm * head)
