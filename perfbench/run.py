#!/usr/bin/env python3
"""greenlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it builds nothing and runs the library
from ./src.  Every invocation is a fresh `python -m greenlab.cli run`
child, one at a time, in its own temporary repetition directory under
./.perfbench-work with its own cache dir; GREENLAB_CACHE is unset.  Each
report is checked (workloads.py); a child that exits non-zero or fails a
check counts as failed.

--trace 0 measures the end-to-end metrics: repetitions of the workload
until the next one would end after --seconds (at least one), reporting the
median wall_s and peak_rss_mb, and setup_s, the median over
2 x SETUP_SAMPLES fresh interpreters that only import greenlab.cli, half
taken before the repetitions and half after (machine speed here drifts
over seconds to minutes, so the samples are spread over the run).
--trace 1 runs one untraced and one traced repetition and reports the
per-layer metrics of tracer.py; trace.overhead_s is their wall difference.

The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}.
"""

import sys

sys.dont_write_bytecode = True      # keep the benchmark's own tree clean

import argparse                      # noqa: E402
import json                          # noqa: E402
import os                            # noqa: E402
import shutil                        # noqa: E402
import statistics                    # noqa: E402
import subprocess                    # noqa: E402
import tempfile                      # noqa: E402
import threading                     # noqa: E402
import time                          # noqa: E402

import tracer                        # noqa: E402
import workloads                     # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_SAMPLES = 4                    # per side of the repetitions
RUN_LIMIT_S = 170.0                  # children are killed past this point


def child_env():
    env = dict(os.environ)
    env.pop("GREENLAB_CACHE", None)
    env["PYTHONPATH"] = SRC
    # Bytecode is cached (as for an installed package) under the work dir,
    # never in ./src, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    return env


def spawn(argv, cwd, log_path, timeout):
    """Run one child to completion; wall time from spawn to exit, and its
    own rusage from wait4 (CPU seconds, peak RSS)."""
    lock, state = threading.Lock(), {"done": False}
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)

        def kill():
            with lock:
                if not state["done"]:
                    proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                state["done"] = True
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "status": proc.returncode}


def _log_tail(path, lines=8):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


class Run:
    """One benchmark run of one workload: its clock, seed and tallies."""

    def __init__(self, name, workload, seed, ref=None):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.ref = workloads.load_reference() if ref is None else ref
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures = []          # (invocation label, message)

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def repetition(self, traced=False):
        """Run the workload's invocations once, then check every report.

        Returns (wall seconds from the first spawn to the last exit,
        per-invocation records, merged spans when traced)."""
        rep_dir = tempfile.mkdtemp(prefix="rep-", dir=WORK)
        try:
            cache_dir = os.path.join(rep_dir, "cache")
            argvs = []
            for i, (label, cfg, _) in enumerate(self.workload.invocations):
                stem = os.path.join(rep_dir, f"{i}-{label}")
                cfg = dict(cfg, seed=self.seed, output=stem + ".csv")
                with open(stem + ".json", "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
                entry = [os.path.join(HERE, "tracer.py"), stem + ".spans.json"] \
                    if traced else ["-m", "greenlab.cli"]
                argvs.append([sys.executable, *entry, "run", stem + ".json",
                              "--cache-dir", cache_dir])
            t0 = time.perf_counter()
            records = [spawn(argv, rep_dir, os.path.join(rep_dir, f"{i}.log"),
                             self.remaining())
                       for i, argv in enumerate(argvs)]
            wall = time.perf_counter() - t0
            earlier, spans = {}, []
            for i, ((label, cfg, check), rec) in enumerate(
                    zip(self.workload.invocations, records)):
                stem = os.path.join(rep_dir, f"{i}-{label}")
                rec.update(label=label, kind=cfg["kind"])
                if rec["status"] != 0:
                    msgs = [f"exit status {rec['status']}: "
                            f"{_log_tail(os.path.join(rep_dir, f'{i}.log'))}"]
                else:
                    msgs, rows = workloads.check_report(check, stem + ".csv",
                                                        self.ref, earlier)
                    if rows is not None:
                        earlier[label] = rows
                if traced and os.path.exists(stem + ".spans.json"):
                    spans += _load_spans(stem + ".spans.json", i)
                self.record(label, msgs)
            return wall, records, spans
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    def record(self, label, messages):
        self.attempted += 1
        self.failed += bool(messages)
        for msg in messages:
            self.failures.append((label, msg))
            print(f"FAILED {self.name}/{label} {msg}", file=sys.stderr)

    def setup_times(self):
        log = os.path.join(WORK, f"setup-{os.getpid()}.log")
        out = []
        for _ in range(SETUP_SAMPLES):
            rec = spawn([sys.executable, "-c", "import greenlab.cli"], WORK,
                        log, self.remaining())
            if rec["status"] != 0:
                raise RuntimeError(f"`import greenlab.cli` failed: {_log_tail(log)}")
            out.append(rec["wall_s"])
        os.unlink(log)
        return out


def _load_spans(path, invocation):
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)
    for s in spans:               # one span id space per benchmark run
        s["id"] = f"{invocation}:{s['id']}"
        if s["parent"] is not None:
            s["parent"] = f"{invocation}:{s['parent']}"
        s["request"] = invocation
    return spans


def system_record():
    """Machine and library facts stored next to the numbers."""
    log = os.path.join(WORK, f"sysinfo-{os.getpid()}.log")
    rec = spawn([sys.executable, os.path.join(HERE, "sysinfo.py")], WORK, log,
                RUN_LIMIT_S)
    with open(log, encoding="utf-8") as fh:
        text = fh.read()
    os.unlink(log)
    if rec["status"] != 0:
        raise RuntimeError(f"cannot import greenlab: {text.strip()[-400:]}")
    info = json.loads(text.strip().splitlines()[-1])
    info["nproc"] = os.cpu_count()
    info["llc"] = _last_level_cache()
    return info


def _last_level_cache():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else None


def measure_end_to_end(run, seconds):
    setup = run.setup_times()
    walls, rss = [], []
    while True:
        wall, records, _ = run.repetition()
        walls.append(wall)
        rss.append(max(r["maxrss_mb"] for r in records))
        elapsed = time.perf_counter() - run.start
        if elapsed + statistics.fmean(walls) > seconds:
            break
    setup += run.setup_times()
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB"),
               "setup_s": (statistics.median(setup), "s")}
    notes = {"wall_s": f"median of {len(walls)} repetition(s)",
             "peak_rss_mb": "largest child ru_maxrss, median over repetitions",
             "setup_s": f"median of {len(setup)} `import greenlab.cli`"}
    return metrics, notes


def measure_layers(run):
    plain_wall, plain_records, _ = run.repetition()
    traced_wall, _, spans = run.repetition(traced=True)
    values, calls = tracer.layer_metrics(spans, plain_records,
                                         traced_wall - plain_wall)
    missing = [s for s in run.workload.expected_spans if not calls.get(s)]
    if missing:
        raise RuntimeError(f"traced {run.name} recorded no calls of {missing}")
    path = os.path.join(WORK, f"trace-{run.name}-seed{run.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    metrics = {k: (v, tracer.PER_LAYER[k][0]) for k, v in values.items()}
    return metrics, {"trace.overhead_s": f"traced {traced_wall:.3f} s - "
                                         f"untraced {plain_wall:.3f} s; "
                                         f"spans in {os.path.relpath(path, ROOT)}"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "greenlab", "cli.py")):
        print(f"no greenlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run = Run(args.workload, workloads.WORKLOADS[args.workload], args.seed)
    info = system_record()
    if args.trace:
        metrics, notes = measure_layers(run)
    else:
        metrics, notes = measure_end_to_end(run, args.seconds)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "system": info,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "attempted": run.attempted, "failed": run.failed}
    with open(os.path.join(WORK, f"record-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# system: {json.dumps(info, sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"fail_frac {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:g} (failed/attempted invocations)")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"#   {name:40s} {value:14.6g} {unit:6s}"
              + (f" ({note})" if note else ""))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
