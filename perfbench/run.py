#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload p2p2|coll256|nas16|lossy16 \
        --seed N --seconds S --trace 0|1

Run from the repository root. Prints every metric by name with its unit,
every output and fidelity check, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the span file
to .bench_out/). Exits non-zero if any operation or check failed.

    python3 perfbench/run.py --manifest   # rewrite BENCHMARK.json from METRICS
    python3 perfbench/run.py --describe   # workloads, metrics, what each moves
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_SECONDS = 15
RUN_TIMEOUT_S = 170

# name -> why; the layers each workload loads heavily (+) and lightly (-).
WORKLOADS = [
    ("p2p2", "2 nodes, 5 channels + raw LAPI: ping-pong 8B-1MiB, irq 8B, 32KiB stream (Figs 10-13). "
             "+hal +pipes +lapi +mpci per-message cost; -net contention -sim scale -coll"),
    ("coll256", "256 nodes, Enhanced, auto bcast/allreduce/barrier/alltoall. "
                "+sim at scale (fibers, heap) +net routing/contention +mpi.coll selection; -pipes -matching depth"),
    ("nas16", "8 NAS kernels, 16 ranks, native and Enhanced (paper 6.2). "
              "+nas compute +mpci matching (many sources/tags) +rendezvous +small allreduces; -irq -loss"),
    ("lossy16", "16 nodes, native/Enhanced/rdma ring sendrecv 8KiB + allreduce, 1% seeded drop. "
                "+lapi/pipes/rdma retransmit, re-ack, dup filtering; -clean fast path -coll scale"),
]

# (name, unit, better, bound, moved by / notes). Simulated units carry a
# sim_ prefix: they are model output and repeat exactly for a given seed.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25, "host seconds in Machine::run per pass (median over passes)"),
    ("setup_s", "s", "lower", 0.25, "host seconds in Machine construction per pass (median)"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident set after one pass"),
    ("lat_us.native", "sim_us", "lower", 0.01, "p2p2: 8 B polling one-way latency, Pipes"),
    ("lat_us.enhanced", "sim_us", "lower", 0.01, "p2p2: 8 B polling one-way latency, Enhanced"),
    ("bw_mbs.native", "sim_MB/s", "higher", 0.01, "p2p2: 32 KiB isend/irecv stream, Pipes"),
    ("bw_mbs.enhanced", "sim_MB/s", "higher", 0.01, "p2p2: 32 KiB isend/irecv stream, Enhanced"),
    ("irq_lat_us.native", "sim_us", "lower", 0.01, "p2p2: 8 B interrupt-mode latency, Pipes"),
    ("irq_lat_us.enhanced", "sim_us", "lower", 0.01, "p2p2: 8 B interrupt-mode latency, Enhanced"),
    ("coll_us.bcast", "sim_us", "lower", 0.01, "coll256: 64 KiB bcast, per call"),
    ("coll_us.allreduce", "sim_us", "lower", 0.01, "coll256: 1024-double allreduce, per call"),
    ("coll_us.barrier", "sim_us", "lower", 0.01, "coll256: barrier, per call"),
    ("coll_us.alltoall", "sim_us", "lower", 0.01, "coll256: 64 B-block alltoall, per call"),
    ("nas_ms.native", "sim_ms", "lower", 0.01, "nas16: sum over the 8 kernels, Pipes"),
    ("nas_ms.enhanced", "sim_ms", "lower", 0.01, "nas16: sum over the 8 kernels, Enhanced"),
    ("lossy_sim_ms", "sim_ms", "lower", 0.1, "lossy16: mean over 48 fabric seeds of the 3-channel simulated time"),
]

NAS_KERNELS = ["lu", "is", "cg", "bt", "ft", "ep", "mg", "sp"]

# (name, unit, better, moves: "end-to-end metric @ workload").
PER_LAYER = [
    ("sim.events", "count", "lower", "wall_s @ all"),
    ("sim.events_per_s", "1/s", "higher", "wall_s @ all; falls with N on coll256"),
    ("sim.pooled_action_ratio", "ratio", "lower", "wall_s @ coll256"),
    ("sim.sys_s", "s", "lower", "wall_s @ p2p2, coll256 (swapcontext signal-mask syscalls)"),
    ("sim.rss_kb_per_rank", "kB", "lower", "peak_rss_mb @ coll256"),
    ("sim.setup_ms_per_rank", "ms", "lower", "setup_s @ coll256"),
    ("sim.host_ns_per_event", "ns", "lower", "wall_s @ all (bare event chain, pass's event count)"),
    ("net.packets", "count", "lower", "coll_us.* @ coll256, bw_mbs.* @ p2p2"),
    ("net.bytes", "B", "lower", "coll_us.* @ coll256, bw_mbs.* @ p2p2"),
    ("net.dropped", "count", "lower", "lossy_sim_ms @ lossy16 (exact per seed)"),
    ("net.host_ns_per_packet", "ns", "lower", "wall_s @ coll256 (standalone replay of the pass's injections)"),
    ("hal.packets_sent", "count", "lower", "wall_s @ all"),
    ("hal.interrupts", "count", "lower", "irq_lat_us.* @ p2p2"),
    ("hal.irq_service_us.p50", "sim_us", "lower", "irq_lat_us.* @ p2p2"),
    ("hal.irq_service_us.p99", "sim_us", "lower", "irq_lat_us.* @ p2p2"),
    ("hal.frames_fresh_ratio", "ratio", "lower", "wall_s @ p2p2"),
    ("hal.staged_bytes", "B", "lower", "wall_s @ p2p2"),
    ("hal.rdma_writes", "count", "lower", "lossy_sim_ms @ lossy16"),
    ("hal.rdma_reads", "count", "lower", "lossy_sim_ms @ lossy16"),
    ("hal.rdma_retransmits", "count", "lower", "lossy_sim_ms @ lossy16"),
    ("pipes.acks", "count", "lower", "lossy_sim_ms @ lossy16; lat_us.native, bw_mbs.native @ p2p2"),
    ("pipes.retransmits", "count", "lower", "lossy_sim_ms @ lossy16"),
    ("pipes.reacks_coalesced", "count", "higher", "lossy_sim_ms @ lossy16"),
    ("lapi.messages", "count", "lower", "lossy_sim_ms @ lossy16"),
    ("lapi.acks", "count", "lower", "lossy_sim_ms @ lossy16"),
    ("lapi.retransmits", "count", "lower", "lossy_sim_ms @ lossy16"),
    ("lapi.retransmit_ratio", "ratio", "lower", "lossy_sim_ms @ lossy16"),
    ("lapi.completion_thread", "count", "lower", "lat_us.enhanced @ p2p2 (the Fig. 10 gap)"),
    ("lapi.completion_inline", "count", "higher", "lat_us.enhanced @ p2p2 (the Fig. 10 gap)"),
    ("lapi.host_ns_per_msg", "ns", "lower", "wall_s @ p2p2 (raw-LAPI 8 B run minus its fabric replay)"),
    ("mpci.eager_sends", "count", "lower", "lat_us.* @ p2p2, nas_ms.* @ nas16"),
    ("mpci.rendezvous_sends", "count", "lower", "bw_mbs.* @ p2p2, nas_ms.* @ nas16"),
    ("mpci.early_arrivals", "count", "lower", "nas_ms.* @ nas16"),
    ("mpci.ea_fallbacks", "count", "lower", "nas_ms.* @ nas16"),
    ("mpci.ea_nacks", "count", "lower", "lossy_sim_ms @ lossy16"),
    ("mpci.match_scanned.mean", "entries", "lower", "wall_s @ nas16 and p2p2 stream"),
    ("mpci.match_scanned.p99", "entries", "lower", "wall_s @ nas16 and p2p2 stream"),
    ("mpci.host_ns_per_msg", "ns", "lower", "wall_s @ p2p2 (Enhanced MPI 8 B run minus raw LAPI)"),
    ("mpi.calls", "count", "lower", "wall_s @ all"),
    ("mpi.blocked_us", "sim_us", "lower", "nas_ms.* @ nas16, coll_us.* @ coll256"),
    ("mpi.call_us.p50", "sim_us", "lower", "nas_ms.* @ nas16, coll_us.* @ coll256"),
    ("mpi.call_us.p99", "sim_us", "lower", "nas_ms.* @ nas16, coll_us.* @ coll256"),
] + [
    (f"mpi.coll.{p}.algo", "id", "lower", f"coll_us.{p} @ coll256 (algorithm auto picks; ids of MachineConfig coll_{p}_algo)")
    for p in ("bcast", "allreduce", "alltoall")
] + [
    (f"mpi.coll.{p}.host_ms", "ms", "lower", "wall_s @ coll256")
    for p in ("bcast", "allreduce", "barrier", "alltoall")
] + [
    (f"nas.{k}.sim_ms.{b}", "sim_ms", "lower", f"nas_ms.{b} @ nas16")
    for k in NAS_KERNELS for b in ("native", "enhanced")
] + [
    (f"nas.{k}.comm_frac", "ratio", "lower", "nas_ms.enhanced @ nas16")
    for k in NAS_KERNELS
] + [
    ("nas.compute_us", "sim_us", "lower", "nas_ms.* @ nas16 (exact; no host-only change may move it)"),
    ("trace.overhead_s", "s", "lower", "traced wall_s minus untraced wall_s, per pass"),
    ("trace.records", "count", "lower", "Telemetry records per traced pass"),
    ("trace.records_dropped", "count", "lower", "must be 0 (ring sized from the run)"),
    ("trace.spans", "count", "lower", "spans written to .bench_out/"),
]

NOTE = ("note: host time per layer inside Machine::run is not measurable from outside the "
        "program (a blocked rank's span covers the whole event loop); the peeled costs "
        "sim.host_ns_per_event -> net.host_ns_per_packet -> lapi.host_ns_per_msg -> "
        "mpci.host_ns_per_msg come from standalone drives. In-program attribution is "
        "ROADMAP open item 1.")


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def describe():
    for name, why in WORKLOADS:
        print(f"workload {name}: {why}")
    for name, unit, better, bound, note in END_TO_END:
        print(f"end_to_end {name} [{unit}, {better} is better, bound {bound}]: {note}")
    for name, unit, better, moves in PER_LAYER:
        print(f"per_layer {name} [{unit}, {better} is better] moves: {moves}")


def build():
    """Configure and build perfbench; build output goes to stderr."""
    src = os.path.join(ROOT, "src", "mpi", "machine.hpp")
    if not os.path.isfile(src):
        sys.exit(f"perfbench: simulator sources not found ({src}); run from a repository checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--manifest", action="store_true", help="rewrite BENCHMARK.json")
    ap.add_argument("--describe", action="store_true", help="print workloads and metrics")
    args = ap.parse_args()
    if args.manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if args.describe:
        describe()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: no output (exit code {proc.returncode})")
    raw = json.loads(lines[-1])

    table = [(n, u) for n, u, *_ in (PER_LAYER if args.trace else END_TO_END)]
    metrics = {}
    missing = []
    for name, unit in table:
        v = raw["metrics"].get(name)
        if v is None or not math.isfinite(v):
            missing.append(name)
            continue
        metrics[name] = {"value": v, "unit": unit}
    if not args.trace:
        missing += [n for n in metrics if metrics[n]["value"] == 0]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"  passes {raw['info'].get('passes', 0):.0f}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>18.6f} {m['unit']}")
    for name in sorted(raw["info"]):
        print(f"  info {name:44s} {raw['info'][name]:.6f}")
    for name, ok in sorted(raw["checks"].items()):
        print(f"  check {'PASS' if ok else 'FAIL'} {name}")
    for name in missing:
        print(f"  check FAIL metric {name} missing or zero")
    for err in raw["errors"]:
        print(f"  error {err}")
    print(f"  ops {raw['ops']}  ops_failed {raw['failed']}")
    if args.trace:
        print("  " + NOTE)

    correct = (proc.returncode == 0 and raw["failed"] == 0 and not missing
               and all(raw["checks"].values()))
    print(json.dumps({"correct": correct, "attempted": max(1, raw["ops"]),
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
