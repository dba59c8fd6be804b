#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the library in ./src.

    python3 perfbench/make_reference.py

Exact workloads record their values at one seed (they do not depend on
it).  Monte Carlo references come from REFERENCE_SEEDS runs: the speed
probabilities and the F_2 Green speed use the first seed (their checks
take the ci95 from the report under test); the increment-probe medians,
whose reports carry no interval, record the mean over all seeds and
ci95 = 1.96 x their standard deviation.  Run this only when a change is
meant to alter the numbers, and say so where the change is described.
"""

import sys

sys.dont_write_bytecode = True

import json                          # noqa: E402
import os                            # noqa: E402
import statistics                    # noqa: E402

import run                           # noqa: E402
import workloads                     # noqa: E402

REFERENCE_SEEDS = range(900_001, 900_011)


def reports(name, seed):
    """label -> rows of one plain repetition, its reports not checked."""
    out = {}

    def keep(label):
        def check(rows, meta, ref, earlier):
            out[label] = rows
            return workloads.Failures()
        return check

    wl = workloads.WORKLOADS[name]
    plain = workloads.Workload(
        why=wl.why, expected_spans=(),
        invocations=[(label, cfg, keep(label)) for label, cfg, _ in wl.invocations])
    bench_run = run.Run(name, plain, seed, ref={})
    bench_run.repetition()
    if bench_run.failed:
        raise RuntimeError(f"{name}: {bench_run.failures}")
    return out


def col(rows, name, conv=float):
    return [conv(r[name]) for r in rows]


def table(rows):
    return [{"source": r["source"],
             "green_to_identity": float(r["green_to_identity"]),
             "green_diagonal": float(r["green_diagonal"])} for r in rows]


def main():
    os.makedirs(run.WORK, exist_ok=True)
    seed = REFERENCE_SEEDS[0]
    ref = {"seeds": [REFERENCE_SEEDS[0], REFERENCE_SEEDS[-1]]}
    solves = reports("killed-solves", seed)
    ref["eps-delta"] = {"delta": col(solves["eps-delta"], "delta"),
                        "epsilon": col(solves["eps-delta"], "epsilon")}
    ref["heis3-table"] = table(solves["heis3-table"])
    ref["z3-table"] = table(solves["z3-table"])
    disp = reports("dispersion-stable", seed)["dispersion"]
    ref["dispersion"] = {"n": col(disp, "n", int), "tv": col(disp, "tv")}
    mc = [reports("heavy-tail-mc", s) for s in REFERENCE_SEEDS]
    ref["speed"] = {"n": col(mc[0]["speed"], "n", int),
                    "prob": col(mc[0]["speed"], "prob")}
    for label in ("increment-stable", "increment-shell"):
        meds = [col(m[label], "median_running_max") for m in mc]
        ref[label] = {
            "checkpoint": col(mc[0][label], "checkpoint", int),
            "median": [statistics.fmean(v) for v in zip(*meds)],
            "ci95": [1.96 * statistics.stdev(v) for v in zip(*meds)]}
    ref["green-speed-f2"] = {
        "mean": float(mc[0]["green-speed-f2"][0]["mean_green_speed"])}
    path = os.path.join(workloads.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
