"""The benchmark's workloads: the `greenlab run` configs each repetition
runs, the output checks on their reports, and the spans the traced run
must see.

A workload is a fixed sequence of invocations; every invocation is one
fresh `greenlab run` child that gets only its generated config.  The
benchmark seed enters each config's `seed` field, so the Monte Carlo
workloads draw new samples for every seed while the exact ones compute the
same numbers.  Checks compare against perfbench/reference.json and assert
the invariants the acceptance criteria state (never the two clauses
criteria 9 and 11 document as unattainable).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
Z3_SRW = {"backend": "Z^3", "measure": {"type": "srw"}}
DELTA_SCALES = [4, 6, 8, 10, 12, 14, 16]
# Full-plane G(0,0) of Z^3 simple random walk (Watson's integral); killed
# values increase to it from below.
WATSON_G00 = 1.516386059151978


@dataclass
class Workload:
    why: str
    # (label, config without seed/output, check of its report), run in order
    invocations: list
    expected_spans: tuple           # spans the traced run must record


def read_report(path):
    """(meta, rows as dicts of strings) of a greenlab CSV report."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# meta: "):
            raise ValueError("report lacks its # meta: line")
        meta = json.loads(first[len("# meta: "):])
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError("report has no rows")
    return meta, rows


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Failures:
    """Check messages for one invocation; each names the row at fault."""

    def __init__(self):
        self.messages = []

    def expect(self, ok, where, msg):
        if not ok:
            self.messages.append(f"{where}: {msg}")

    def close_rel(self, got, want, rel, where, what):
        self.expect(abs(got - want) <= rel * abs(want), where,
                    f"{what} {got!r} differs from reference {want!r} "
                    f"by more than {rel:g} relative")


def _floats(rows, col):
    return [float(r[col]) for r in rows]


def _rows_by(rows, col, want, fail, where):
    got = [r[col] for r in rows]
    fail.expect(got == [str(w) for w in want], where,
                f"{col} column {got} != expected {want}")


# ---------------------------------------------------------------------------
# Checks.  Each takes (rows, meta, reference, earlier reports by label) and
# returns a Failures.
# ---------------------------------------------------------------------------

def check_green_table(ref_key, rel=1e-8, max_residual=1e-8, upper=None):
    def check(rows, meta, ref, earlier):
        fail = Failures()
        want = ref[ref_key]
        _rows_by(rows, "source", [w["source"] for w in want], fail, "rows")
        for row, w in zip(rows, want):
            where = f"row source={row['source']}"
            for col in ("green_to_identity", "green_diagonal"):
                fail.close_rel(float(row[col]), w[col], rel, where, col)
            fail.expect(float(row["residual"]) <= max_residual, where,
                        f"residual {row['residual']} > {max_residual:g}")
            if upper is not None:
                fail.expect(float(row["green_diagonal"]) < upper, where,
                            f"killed G {row['green_diagonal']} not below the "
                            f"full-plane value {upper}")
        return fail
    return check


def check_eps_delta(rows, meta, ref, earlier):
    fail = Failures()
    want = ref["eps-delta"]
    _rows_by(rows, "R", DELTA_SCALES, fail, "rows")
    deltas = _floats(rows, "delta")
    for i, row in enumerate(rows):
        where = f"row R={row['R']}"
        fail.close_rel(deltas[i], want["delta"][i], 1e-9, where, "delta")
        fail.close_rel(float(row["epsilon"]), want["epsilon"][i], 1e-9,
                       where, "epsilon")
        fail.expect(row["band_ok"].lower() == "true", where, "band_ok fails")
        if i:
            fail.expect(deltas[i] < deltas[i - 1], where,
                        "delta not strictly below the previous scale")
    return fail


def check_delta_scan(rows, meta, ref, earlier):
    fail = Failures()
    _rows_by(rows, "R", DELTA_SCALES, fail, "rows")
    cold = earlier.get("eps-delta")
    fail.expect(cold is not None, "rows", "no cold eps-delta report to compare")
    if cold is not None:
        for row, cold_row in zip(rows, cold):
            fail.expect(row["delta"] == cold_row["delta"], f"row R={row['R']}",
                        f"warm delta {row['delta']} != cold {cold_row['delta']}")
    return fail


def check_dispersion(rows, meta, ref, earlier):
    fail = Failures()
    want = ref["dispersion"]
    _rows_by(rows, "n", want["n"], fail, "rows")
    tvs = _floats(rows, "tv")
    for i, row in enumerate(rows):
        where = f"row n={row['n']}"
        dt = float(row["delta_trunc"])
        fail.expect(abs(tvs[i] - want["tv"][i]) <= 1e-9 + dt, where,
                    f"tv {tvs[i]!r} differs from reference {want['tv'][i]!r} "
                    f"by more than 1e-9 + delta_trunc")
        if i:
            fail.expect(tvs[i] < tvs[i - 1], where, "tv not strictly decreasing")
    last = rows[-1]
    fail.expect(tvs[-1] < 0.2, f"row n={last['n']}", f"final tv {tvs[-1]} >= 0.2")
    fail.expect(float(last["delta_trunc"]) < 1e-3, f"row n={last['n']}",
                f"delta_trunc {last['delta_trunc']} >= 1e-3")
    fail.expect(meta.get("periodic") is False, "meta", "stable law flagged periodic")
    return fail


def _within_ci(fail, got, ci95, want, where, what):
    fail.expect(abs(got - want) <= 4 * ci95, where,
                f"{what} {got!r} is more than 4 ci95 ({ci95!r}) from "
                f"reference {want!r}")


def check_speed(rows, meta, ref, earlier):
    fail = Failures()
    want = ref["speed"]
    _rows_by(rows, "n", want["n"], fail, "rows")
    probs = _floats(rows, "prob")
    for i, row in enumerate(rows):
        where = f"row n={row['n']}"
        _within_ci(fail, probs[i], float(row["ci95"]), want["prob"][i],
                   where, "prob")
        if i:
            fail.expect(probs[i] <= probs[i - 1], where,
                        "P(|X_n|/n > eps) increased with n")
    return fail


def check_increment(ref_key):
    def check(rows, meta, ref, earlier):
        fail = Failures()
        want = ref[ref_key]
        _rows_by(rows, "checkpoint", want["checkpoint"], fail, "rows")
        meds = _floats(rows, "median_running_max")
        for i, row in enumerate(rows):
            _within_ci(fail, meds[i], want["ci95"][i], want["median"][i],
                       f"row checkpoint={row['checkpoint']}", "median")
        fail.expect(meds[-1] > meds[0], f"row checkpoint={rows[-1]['checkpoint']}",
                    f"median running max did not grow: {meds}")
        return fail
    return check


def check_green_speed_f2(rows, meta, ref, earlier):
    fail = Failures()
    want = ref["green-speed-f2"]
    _rows_by(rows, "n", [2000], fail, "rows")
    row = rows[0]
    mean = float(row["mean_green_speed"])
    _within_ci(fail, mean, float(row["ci95"]), want["mean"], "row n=2000", "mean")
    fail.expect(abs(mean - math.log(3.0) / 2) < 0.05, "row n=2000",
                f"mean {mean} not within 0.05 of log 3 / 2")
    fail.expect(row["mc_fallback_points"] == "0", "row n=2000",
                "tree estimate used Monte Carlo fallbacks")
    return fail


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    "killed-solves": Workload(
        why=("killed Green solves: small direct/CG multi-source solves, exit "
             "distributions, cache writes then reads, the generic Heis3 path, "
             "then one 1.35M-unknown CG solve on Z^3"),
        invocations=[
            ("eps-delta", dict(kind="eps-delta", **Z3_SRW,
                               scales=DELTA_SCALES, tol=1e-12),
             check_eps_delta),
            ("delta-scan", dict(kind="delta-scan", **Z3_SRW,
                                scales=DELTA_SCALES, tol=1e-12),
             check_delta_scan),
            ("heis3-table", dict(kind="green-table", backend="Heis3",
                                 measure={"type": "srw"}, radius=28,
                                 sources=["0,0,0", "1,0,0"]),
             check_green_table("heis3-table")),
            ("z3-table", dict(kind="green-table", **Z3_SRW, radius=100,
                              sources=["0,0,0"]),
             check_green_table("z3-table", upper=WATSON_G00)),
        ],
        expected_spans=("cli.run", "green.ball_domain",
                        "green.killed_green_solve", "green.cg", "green.splu",
                        "green.lu_solve", "green.exit_distribution",
                        "functionals.delta", "functionals.eps_delta_band_check",
                        "cache.load_table", "cache.save_table",
                        "reporting.emit_report")),
    "dispersion-stable": Workload(
        why=("12 FFT squarings on windows up to 8.4M points plus the support "
             "gcd loop; no domain, solve or cache code runs"),
        invocations=[
            ("dispersion", dict(kind="dispersion",
                                measure={"type": "stable", "alpha": 1.0},
                                shift=1, n_list=[2 ** k for k in range(4, 13)],
                                cap=4_200_000),
             check_dispersion),
        ],
        expected_spans=("cli.run", "measures.to_pmf_on_z", "measures.convolve_z",
                        "measures.total_variation_shift", "walks.tv_dispersion_z",
                        "reporting.emit_report")),
    "heavy-tail-mc": Workload(
        why=("Monte Carlo sampling dominates: shell and stable samplers, the "
             "batched Heisenberg walker and the tree distance chain"),
        invocations=[
            ("speed", dict(kind="speed", backend="Heis3",
                           measure={"type": "shell", "r0": 3},
                           n_list=[100, 1000, 10000], eps_list=[0.5],
                           trials=8000),
             check_speed),
            ("increment-stable", dict(kind="increment-probe", backend="Z^1",
                                      measure={"type": "stable", "alpha": 1.0},
                                      n=10000, trials=800,
                                      checkpoints=[100, 10000]),
             check_increment("increment-stable")),
            ("increment-shell", dict(kind="increment-probe", backend="Heis3",
                                     measure={"type": "shell", "r0": 3},
                                     n=10000, trials=800,
                                     checkpoints=[100, 10000]),
             check_increment("increment-shell")),
            ("green-speed-f2", dict(kind="green-speed", backend="F_2",
                                    measure={"type": "srw"}, n_list=[2000],
                                    trials=20000),
             check_green_speed_f2),
        ],
        expected_spans=("cli.run", "walks.batch_lengths",
                        "measures.sample_shell_radii",
                        "measures.sample_stable_ints",
                        "walks.increment_ratio_max", "walks.green_speed_estimate",
                        "reporting.emit_report")),
}


def check_report(check, path, ref, earlier):
    """(failure messages, rows) for one invocation's report; no messages
    when it passes.  `earlier` maps the labels of this repetition's
    previous reports to their rows."""
    try:
        meta, rows = read_report(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"], None
    try:
        return check(rows, meta, ref, earlier).messages, rows
    except (KeyError, ValueError, IndexError) as exc:
        return [f"malformed report: {exc!r}"], rows
