#!/usr/bin/env python3
"""Exactness self-check of the benchmark (run from the repository root):

    python3 perfbench/selftest.py

Every simulated and count metric must repeat bit for bit across processes,
untraced and traced, on every workload; within a process the driver already
checks repeats across passes and that enabling telemetry changes no
simulated result (exact.repeat, exact.telemetry_on_equals_off). lossy16 is
also run on a seed never used while the benchmark was sized. Exits non-zero
on the first mismatch or failed check.
"""

import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: metric tables and the build)

HOST_UNITS = {"s", "ms", "ns", "MB", "kB", "1/s"}
HELD_OUT_SEED = 1000003


def exact_names(table):
    return [row[0] for row in table if row[1] not in HOST_UNITS]


def driver(exe, workload, seed, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    bad = [k for k, ok in out["checks"].items() if not ok]
    if proc.returncode != 0 or out["failed"] or bad:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: failed={out['failed']} "
                 f"checks={bad} errors={out['errors'][:3]}")
    return out


def main():
    exe = run.build()
    cases = [(w, 1) for w, _ in run.WORKLOADS] + [("lossy16", HELD_OUT_SEED)]
    for workload, seed in cases:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            a = driver(exe, workload, seed, trace)
            b = driver(exe, workload, seed, trace)
            names = exact_names(table)
            diff = [n for n in names if a["metrics"].get(n) != b["metrics"].get(n)]
            # Simulated results and model counters outside the metric tables.
            info = [k for k in a["info"] if not k.startswith(("run_ms.", "wall_s.", "setup_s.", "passes",
                                                               "trace.", "net.replayed"))]
            diff += [k for k in info if a["info"][k] != b["info"].get(k)]
            missing = [n for n in names if n not in a["metrics"]]
            if diff or missing:
                sys.exit(f"FAIL {workload} seed {seed} trace {trace}: not exact {diff[:8]} "
                         f"missing {missing[:8]}")
            print(f"ok {workload:8s} seed {seed:<8d} trace {trace}: {len(names)} exact metrics "
                  f"and {len(info)} exact figures repeat across processes", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
