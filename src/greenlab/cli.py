"""Batch experiment driver: config parsing, dispatch, Green-table caching,
deterministic seeding, and CSV reporting.

Configs are flat JSON with a "kind" discriminator (nesting only inside the
measure descriptor).  KINDS maps each kind to its runner and to the config
keys it accepts besides kind, seed and output; any other key is rejected.
A runner returns a Report of its own columns, rows and meta fields; `run`
is the one place that prefixes the columns seed, version, backend,
measure_hash, adds the base meta record and writes the CSV.  A killed table
comes from the cache only if it holds every source the kind asks for; one
that lacks some is re-solved with its own sources and the new ones.
Exit statuses: 0 success, 2 config error, 3 numeric failure, 4 invariant
violation (a result that would contradict a proven property, e.g. an SPD
failure or TV > 1, with a pointer to the offending row).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, cache, envelope, functionals, green, groups, \
    measures, reporting, rng as rngmod, walks

STATUS_OK = 0
STATUS_CONFIG = 2
STATUS_NUMERIC = 3
STATUS_CONTRADICTION = 4


class ConfigError(ValueError):
    pass


class ContradictionError(RuntimeError):
    """A computed value contradicts a proven invariant."""


@dataclass
class Report:
    """A runner's result: the experiment's own columns and rows, and the
    meta fields beyond the base record that `run` adds."""
    backend: str
    measure_hash: str
    columns: list
    rows: list
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def parse_backend(name: str) -> groups.GroupSpec:
    if name.startswith("Z^"):
        return groups.integer_lattice(int(name[2:]))
    if name.startswith("F_"):
        return groups.free_group(int(name[2:]))
    if name == "Heis3":
        return groups.heisenberg()
    raise ConfigError(f"unknown backend {name!r}")


def build_measure(spec, desc: dict) -> measures.StepMeasure:
    allowed = {"type", "laziness", "alpha", "r0"}
    unknown = set(desc) - allowed
    if unknown:
        raise ConfigError(f"unknown measure keys {sorted(unknown)}")
    mtype = desc.get("type")
    lazy = _number("laziness", desc.get("laziness", 0.0))
    if mtype == "srw":
        mu = measures.uniform_on_generators(groups.standard_generators(spec))
    elif mtype == "shell":
        # an integer first; shell_measure then enforces r0 >= 3
        (r0,) = walks._integers("r0", [desc.get("r0", 3)], least=None)
        mu = measures.shell_measure(spec, r0)
    elif mtype == "stable":
        mu = measures.stable_z_measure(_number("alpha", desc["alpha"]))
    else:
        raise ConfigError(f"unknown measure type {mtype!r}")
    if lazy:
        mu = measures.lazy_transform(mu, lazy)
    return mu


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    unknown = set(cfg) - KINDS[kind].keys - {"kind", "seed", "output"}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if "output" not in cfg:
        raise ConfigError("config needs an 'output' path")
    return cfg


def _law(cfg: dict, transient: bool = False) -> tuple:
    """(spec, mu, measure_hash) of the config's backend and measure; kinds
    that need a Green function reject recurrent backends first."""
    spec = parse_backend(cfg["backend"])
    if transient:
        green.check_transient(spec)
    return (spec, build_measure(spec, cfg["measure"]),
            cache.measure_hash(cfg["measure"]))


def _table(cfg, mhash, omega, sources, mu, tol, cache_dir, force):
    """The killed Green table on omega restricted to `sources`: from the
    cached one if it holds every source, otherwise from a fresh solve,
    which is then cached.  A cached table that lacks some of them is solved
    again with its sources and the new ones together, so kinds that share
    a domain keep each other's sources instead of evicting them."""
    cached = None
    if cache_dir and not force:
        cached = cache.load_table(cache_dir, cfg["backend"], mhash, omega, tol)
    solve = sources
    if cached is not None:
        missing = [s for s in sources if s not in cached.sources]
        if not missing:
            return cached.restricted(sources)
        solve = cached.sources + missing
    table = green.killed_green_solve(omega, solve, mu, tol)
    if cache_dir:
        cache.save_table(cache_dir, cfg["backend"], mhash, table)
    return table.restricted(sources)


def _number(key: str, value, positive: bool = False) -> float:
    """`value` as a float if it is a finite number, > 0 if `positive`, and
    not a boolean (float() reads true as 1); else a ConfigError naming key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or (positive and not value > 0):
        bound = " > 0" if positive else ""
        raise ConfigError(f"{key} must be a finite number{bound}, got {value!r}")
    return float(value)


def _tol(cfg: dict) -> float:
    """The killed solves' tolerance: the config's `tol` (it also enters the
    cache key)."""
    return _number("tol", cfg.get("tol", 1e-10), positive=True)


def _solver_record(table: green.GreenTable, sources) -> dict:
    """How the table was solved, with the iterations of each source."""
    return {"method": table.method,
            "iterations": [int(table.iterations[table.sources.index(s)])
                           for s in sources],
            "symmetry_order": table.symmetry_order, "unknowns": table.unknowns}


def _sampler_tail(mu: measures.StepMeasure) -> dict:
    """Shell and stable samplers draw from a truncated table; the law's
    mass beyond it, as a meta field."""
    if mu.kind == "finite":
        return {}
    return {"sampler_tail_mass": mu.sampler_tail_mass()}


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------

def _delta_scan(cfg, cache_dir, force, with_band=False):
    spec, mu, mhash = _law(cfg, transient=True)
    tol = _tol(cfg)
    e = groups.identity(spec)
    b = reporting.parse_element(spec, cfg["basepoint"]) if "basepoint" in cfg \
        else groups.standard_generators(spec).elements[0]
    # every law on F_k is (lazy) SRW, whose G the tree oracle has exactly
    oracle = green.TreeGreenOracle(mu) if spec.variant == "free" else None
    d_ab = groups.word_length(spec, b)
    rows = []
    # rows follow the scales in config order
    for r in walks._integers("scales", cfg["scales"]):
        s_dom = green.ball_domain(spec, mu, r)
        provider = oracle
        if provider is None:
            omega = green.ball_domain(spec, mu, 2 * r + 2, with_boundary=False)
            provider = _table(cfg, mhash, omega, [e, b], mu, tol, cache_dir, force)
        eps_val = eta = band_ok = None
        if with_band:
            # the band check computes delta on the same domain and provider
            check = functionals.eps_delta_band_check(s_dom, e, b, mu, provider,
                                                     tol=tol)
            drow = check.delta_row
            eps_val, eta, band_ok = check.epsilon_value, check.eta_hat, check.band_ok
        else:
            drow = functionals.delta(s_dom, e, b, provider, scale=r)
        if drow.value < -1e-15:
            raise ContradictionError(f"negative delta at R={r}")
        rows.append((r, d_ab, drow.value, drow.err,
                     reporting.render_element(spec, drow.argmax),
                     eps_val, eta, band_ok))
    return Report(cfg["backend"], mhash,
                  ["R", "d_ab", "delta", "delta_err", "argmax",
                   "epsilon", "eta_hat", "band_ok"], rows)


def _green_table(cfg, cache_dir, force):
    spec, mu, mhash = _law(cfg, transient=True)
    tol = _tol(cfg)
    (radius,) = walks._integers("radius", [cfg["radius"]], least=0)
    flag = cfg.get("boundary_matrix", False)
    if not isinstance(flag, bool):
        raise ConfigError(f"boundary_matrix must be true or false, got {flag!r}")
    omega = green.ball_domain(spec, mu, radius, with_boundary=flag)
    sources = [reporting.parse_element(spec, s) for s in cfg["sources"]]
    table = _table(cfg, mhash, omega, sources, mu, tol, cache_dir, force)
    e = groups.identity(spec)
    rows = [(reporting.render_element(spec, s), table.green(s, e),
             table.green(s, s), float(table.residuals[table.sources.index(s)]))
            for s in sources]
    meta = {"solver": _solver_record(table, sources)}
    if flag:
        bgm_table = green.killed_green_solve(
            green.ball_domain(spec, mu, 2 * radius + 2, with_boundary=False),
            omega.boundary, mu, tol)
        bgm = green.boundary_green_matrix(omega, bgm_table)
        meta["spd_ok"] = bool(bgm.spd_ok)
        meta["min_eigenvalue"] = bgm.min_eigenvalue
        if not bgm.spd_ok:
            raise ContradictionError(
                f"boundary Green matrix failed SPD (min eig {bgm.min_eigenvalue})")
    return Report(cfg["backend"], mhash,
                  ["source", "green_to_identity", "green_diagonal", "residual"],
                  rows, meta)


def _envelope(cfg, *_):
    phi_desc = dict(cfg["phi"])
    kind = phi_desc.pop("kind")
    phi = envelope.Envelope(kind, **{k: _number(f"phi.{k}", v)
                                     for k, v in phi_desc.items()})
    spec = envelope.EnvelopeSpec(_number("d_star", cfg["d_star"]),
                                 _number("gamma", cfg["gamma"]), phi,
                                 alpha=_number("alpha", cfg.get("alpha", 1.0)))
    lo, hi = (_number("r_decades", v) for v in cfg.get("r_decades", [0.5, 3.0]))
    (ppd,) = walks._integers("points_per_decade",
                             [cfg.get("points_per_decade", 4)])
    n_pts = max(2, int((hi - lo) * ppd) + 1)
    report = envelope.tr_alpha_ratio(spec, np.logspace(lo, hi, n_pts))
    rows = [[float(r), float(l), float(h), float(q)]
            for r, l, h, q in report.rows()]
    return Report("-", cache.measure_hash(cfg["phi"]),
                  ["r", "lhs", "rhs", "ratio"], rows,
                  {"verdict": report.verdict,
                   "decade_growth": report.decade_growth})


def _speed(cfg, *_):
    spec, mu, mhash = _law(cfg)
    stream = rngmod.derive_stream(cfg["seed"], "speed")
    table = walks.speed_in_probability(spec, mu, cfg["n_list"],
                                       cfg["eps_list"], cfg["trials"], stream)
    for n, eps, p, ci in table.rows:
        if not (0.0 <= p <= 1.0):
            raise ContradictionError(f"probability {p} outside [0,1] at n={n}")
    rows = [[n, eps, p, ci, table.metric_mode] for n, eps, p, ci in table.rows]
    return Report(cfg["backend"], mhash,
                  ["n", "eps", "prob", "ci95", "metric_mode"], rows,
                  {"trials": table.trials, **_sampler_tail(mu)})


def _dispersion(cfg, *_):
    desc = cfg["measure"]
    z_spec = groups.integer_lattice(1)
    mu = build_measure(z_spec, desc)
    (cap,) = walks._integers("cap", [cfg.get("cap", 2 * 10 ** 5)])
    (shift,) = walks._integers("shift", [cfg["shift"]], least=None)
    product = "product_shift" in cfg
    if product:
        (pcap,) = walks._integers("product_cap",
                                  [cfg.get("product_cap", 10 ** 5)])
        pshift = tuple(walks._integers("product_shift", cfg["product_shift"],
                                       least=None))
        if len(pshift) != 2:
            raise ConfigError(
                f"product_shift must be two integers, got {list(pshift)}")
    # the pmf is passed, not kept, so the chain holds one power at a time
    curve = walks.tv_dispersion_z(mu.to_pmf_on_z(cap), shift, cfg["n_list"], cap)
    for n, tv, dt in curve.rows:
        if tv > 1.0 + 2 * dt + 1e-12:
            raise ContradictionError(f"TV {tv} exceeds 1 at n={n}")
    columns = ["n", "tv", "delta_trunc"]
    rows = [[n, tv, dt] for n, tv, dt in curve.rows]
    if product:
        cap_h = curve.rows[-1][0] + 1
        h_mu = measures.lazy_transform(
            measures.uniform_on_generators(groups.standard_generators(z_spec)), 0.5)
        prod = walks.product_dispersion_bound(h_mu.to_pmf_on_z(cap_h),
                                              mu.to_pmf_on_z(pcap), pshift,
                                              cfg["n_list"], cap_h, pcap)
        columns += ["tv_h", "tv_z", "tv_product", "slack"]
        for i, row in enumerate(prod):
            if row.slack < -(row.error_budget * 2 + 1e-12):
                raise ContradictionError(
                    f"product TV bound violated at n={row.n}")
            rows[i] += [row.tv_h, row.tv_z, row.tv_product, row.slack]
    return Report("Z^1", cache.measure_hash(desc), columns, rows,
                  {"periodic": curve.periodic})


def _green_speed(cfg, *_):
    spec, mu, mhash = _law(cfg, transient=True)
    stream = rngmod.derive_stream(cfg["seed"], "green-speed")
    report = walks.green_speed_estimate(spec, mu, cfg["n_list"],
                                        cfg["trials"], stream)
    meta = {}
    if report.table is not None:
        # the killed ball grows with the sample, so the run records it
        meta = {"radius": report.radius,
                "solver": _solver_record(report.table, report.table.sources)}
    # mc_fallback_points is always 0, since every endpoint is read from the
    # ball; the column stays while perfbench's green-speed check reads it
    return Report(cfg["backend"], mhash,
                  ["n", "mean_green_speed", "ci95", "mc_fallback_points"],
                  [[r.n, r.mean, r.ci95, 0] for r in report.rows], meta)


def _cone(cfg, *_):
    """Martin kernel ratios G_K(x, y_n) / G_K(x*, y_n) along the diagonal ray
    y_n = (n, n) of the quadrant-killed walk, with their limits h(x)/h(x*)
    for the exact killed-harmonic function h(x) = x1 x2, and the largest
    bracket error of the ratios as kernel_err."""
    (box,) = walks._integers("box", [cfg["box"]])
    n_list = walks._sizes("n_list", cfg["n_list"])
    if n_list[-1] > box:
        raise ConfigError(f"n_list must lie in [1, box = {box}], got {n_list}")
    # the solve would read a coordinate 2.5 as 2 and label it 2.5
    probes = [tuple(walks._integers("probes", p)) for p in cfg["probes"]]
    base = tuple(walks._integers("base", cfg["base"]))
    table = green.quadrant_killed_green(box, probes + [base])
    ratios, errors = functionals.martin_kernel(probes, base,
                                               [(n, n) for n in n_list], table)
    return Report("Z^2-quadrant", "-",
                  ["n"] + [f"ratio_{p[0]}_{p[1]}" for p in probes],
                  [[n, *col] for n, col in zip(n_list, ratios.T.tolist())],
                  {"limits": [p[0] * p[1] / (base[0] * base[1]) for p in probes],
                   "harmonicity_defect": green.quadrant_harmonicity_defect(box),
                   "solver": _solver_record(table, table.sources),
                   "residual": float(table.residuals.max()),
                   "kernel_err": float(errors.max(initial=0.0))})


def _increment_probe(cfg, *_):
    spec, mu, mhash = _law(cfg)
    stream = rngmod.derive_stream(cfg["seed"], "increment-probe")
    checkpoints = cfg.get("checkpoints", [cfg["n"]])
    report = walks.increment_ratio_max(mu, cfg["n"], cfg["trials"], stream,
                                       checkpoints)
    return Report(cfg["backend"], mhash, ["checkpoint", "median_running_max"],
                  [[c, m] for c, m in zip(report.checkpoints, report.medians)],
                  _sampler_tail(mu))


def _on_diagonal(cfg, *_):
    spec, mu, mhash = _law(cfg)
    (m_max,) = walks._integers("m_max", [cfg["m_max"]])
    report = envelope.on_diagonal_probe(spec, mu, m_max)
    return Report(cfg["backend"], mhash, ["m", "p_2m"],
                  [[int(m), float(p)] for m, p in zip(report.m_values, report.p2m)],
                  {"beta_hat": report.beta_hat, "rate": report.rate,
                   "kesten_root": report.kesten_root,
                   # the prefactor-separated root: the spectral-radius estimate
                   "fitted_root": float(np.exp(report.rate / 2.0))})


class _Kind(NamedTuple):
    run: Callable              # (cfg, cache_dir, force) -> Report
    keys: set                  # accepted keys besides kind, seed, output


_LAW = {"backend", "measure"}

KINDS = {
    "delta-scan": _Kind(_delta_scan,
                        _LAW | {"scales", "basepoint", "tol"}),
    "eps-delta": _Kind(functools.partial(_delta_scan, with_band=True),
                       _LAW | {"scales", "basepoint", "tol"}),
    "green-table": _Kind(_green_table, _LAW | {"radius", "sources",
                                               "boundary_matrix", "tol"}),
    "envelope": _Kind(_envelope, {"d_star", "gamma", "alpha", "phi",
                                  "r_decades", "points_per_decade"}),
    "speed": _Kind(_speed, _LAW | {"n_list", "eps_list", "trials"}),
    "dispersion": _Kind(_dispersion, {"measure", "shift", "n_list", "cap",
                                      "product_shift", "product_cap"}),
    "green-speed": _Kind(_green_speed, _LAW | {"n_list", "trials"}),
    "cone": _Kind(_cone, {"box", "probes", "base", "n_list"}),
    "increment-probe": _Kind(_increment_probe,
                             _LAW | {"n", "trials", "checkpoints"}),
    "on-diagonal": _Kind(_on_diagonal, _LAW | {"m_max"}),
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run(config_path: str, cache_dir=None, seed=None,
        force_recompute: bool = False) -> int:
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg["seed"] = seed
        # one check for the config's and the override's seed: the base
        # column and every derive_stream call read this int
        (cfg["seed"],) = walks._integers("seed", [cfg.get("seed", 0)], least=0)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return STATUS_CONFIG
    if cache_dir is None:
        cache_dir = cache.default_cache_dir()
    try:
        rep = KINDS[cfg["kind"]].run(cfg, cache_dir, force_recompute)
        base = {"seed": cfg["seed"], "version": __version__,
                "backend": rep.backend, "measure_hash": rep.measure_hash}
        reporting.emit_report(
            [list(base.values()) + list(row) for row in rep.rows],
            cfg["output"], list(base) + rep.columns,
            {**base, "kind": cfg["kind"], **rep.meta})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return STATUS_CONFIG
    except ContradictionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return STATUS_CONTRADICTION
    except (green.SolverError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return STATUS_NUMERIC
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return STATUS_CONFIG
    return STATUS_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="greenlab",
                                     description="batch experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config")
    runp.add_argument("--cache-dir", default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--force-recompute", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, cache_dir=args.cache_dir, seed=args.seed,
                   force_recompute=args.force_recompute)
    return STATUS_CONFIG


if __name__ == "__main__":
    sys.exit(main())
