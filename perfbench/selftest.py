#!/usr/bin/env python3
"""Prove that the benchmark's checks fire and its counters count.

    python3 perfbench/selftest.py

One traced repetition against one fresh cache runs three invocations:
  1. the killed-solves eps-delta config, whose real report is checked after
     one Delta value (row R=8) is perturbed by 1e-6 relative: must fail;
  2. the killed-solves delta-scan config on the now warm cache: must pass,
     and its spans must show cache.hits == 7 and no misses;
  3. a config `greenlab run` rejects (exit status 2): must fail.
It also checks that BENCHMARK.json names exactly the workloads and
per-layer metrics the code defines.  Exits non-zero on any mismatch.
"""

import sys

sys.dont_write_bytecode = True

import json                          # noqa: E402
import os                            # noqa: E402

import run                           # noqa: E402
import tracer                        # noqa: E402
import workloads                     # noqa: E402


def perturbed(check, column, index, rel=1e-6):
    """A check that first confirms the real report passes, then checks a
    copy with one value scaled by (1 + rel)."""
    def wrapped(rows, meta, ref, earlier):
        clean = check(rows, meta, ref, earlier)
        if clean.messages:
            raise AssertionError(f"unperturbed report fails: {clean.messages}")
        rows = [dict(r) for r in rows]
        rows[index][column] = repr(float(rows[index][column]) * (1 + rel))
        return check(rows, meta, ref, earlier)
    return wrapped


def main():
    errors = []

    def expect(ok, msg):
        print(("ok   " if ok else "FAIL ") + msg)
        if not ok:
            errors.append(msg)

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the defined workloads")
    expect({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
           == tracer.PER_LAYER, "BENCHMARK.json lists the per-layer metrics")

    (_, eps_cfg, eps_check), (_, scan_cfg, scan_check) = \
        workloads.WORKLOADS["killed-solves"].invocations[:2]
    selftest = workloads.Workload(
        why="self-test",
        invocations=[
            ("eps-delta", eps_cfg, perturbed(eps_check, "delta", 2)),
            ("delta-scan", scan_cfg, scan_check),
            ("bad-config", dict(eps_cfg, no_such_key=1), eps_check),
        ],
        expected_spans=())
    os.makedirs(run.WORK, exist_ok=True)
    bench_run = run.Run("selftest", selftest, seed=1)
    _, records, spans = bench_run.repetition(traced=True)

    by_label = {}
    for label, msg in bench_run.failures:
        by_label.setdefault(label, []).append(msg)
    expect(bench_run.attempted == 3 and bench_run.failed == 2,
           f"2 of 3 invocations failed (got {bench_run.failed}/{bench_run.attempted})")
    eps_msgs = by_label.get("eps-delta", [])
    expect(len(eps_msgs) == 1 and eps_msgs[0].startswith("row R=8:")
           and "reference" in eps_msgs[0],
           f"the perturbed Delta fails once, naming row R=8: {eps_msgs}")
    expect("delta-scan" not in by_label, "the warm delta-scan report passes")
    bad = by_label.get("bad-config", [])
    expect(records[2]["status"] == 2 and len(bad) == 1
           and bad[0].startswith("exit status 2"),
           f"the rejected config counts as failed: {bad}")
    warm = [s for s in spans if s["request"] == 1]
    values, _ = tracer.layer_metrics(warm, [], 0.0)
    expect(values["cache.hits"] == 7 and values["cache.misses"] == 0,
           f"warm delta-scan: cache.hits == 7, misses == 0 "
           f"(got {values['cache.hits']}, {values['cache.misses']})")
    expect(values["green.killed_green_solve.s"] == 0,
           "warm delta-scan runs no solve")
    print("selftest " + ("passed" if not errors else f"FAILED ({len(errors)})"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
