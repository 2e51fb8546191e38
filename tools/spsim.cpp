// spsim: command-line driver for the simulated SP machine.
//
// Runs the standard experiments with configurable machine parameters and
// prints CSV-friendly output plus (optionally) the per-machine statistics.
//
//   spsim latency   [options]          ping-pong latency sweep
//   spsim bandwidth [options]          streaming bandwidth sweep
//   spsim interrupt [options]          interrupt-mode latency sweep
//   spsim nas       [options]          NAS mini-kernel table
//   spsim stats     [options]          one ping-pong with full statistics
//   spsim trace     [options]          dump a protocol-event timeline
//   spsim metrics   [options]          telemetry counters + histograms
//   spsim explore   [options]          differential Pipes<->LAPI conformance fuzzing
//   spsim record    [options]          record a per-rank MPI op trace
//   spsim replay    [options]          replay a trace under a what-if config
//   spsim sweep     [options]          sharded (workload x config x seed) batch run
//
// Options:
//   --backend native|base|counters|enhanced|rdma   (default enhanced;
//                                              --channel is an alias)
//   --nodes N          machine size (default 2; nas default 4)
//   --size BYTES       single message size instead of the sweep
//   --iters N          iterations per measurement (default 24)
//   --eager BYTES      eager limit (default 4096)
//   --drop P           packet drop probability (default 0)
//   --dup P            packet duplication probability (default 0)
//   --jitter NS        max extra per-delivery jitter in ns (default 0)
//   --burst N          drop N consecutive packets per loss event (default 1)
//   --seed S           fabric fault-injection seed
//   --scale N          NAS problem scale (default 2)
//   --testbed tbmx|tb3 node/adapter generation (default tbmx)
//   --coll-algo SPEC   pin collective algorithms, e.g.
//                      "allreduce=rabenseifner,bcast=pipelined" ("all=auto"
//                      clears every pin). The seeded explore sweep and
//                      --repro ignore it (each vector carries its own pins);
//                      explore --systematic adds a collective phase under
//                      these pins, so there the spec must pin something
//   --topology T       interconnect: sp (default), fattree, torus2d, torus3d,
//                      dragonfly (DESIGN.md §13)
//   --trace-ring BYTES telemetry ring size; overrides the per-node auto-scaling
//   --csv              machine-readable output
//   --format text|json|csv   trace export format (default text)
//   --out FILE         write the trace there instead of stdout
//   --abi              nas: also run the C MPI_* ABI ports and require
//                      bit-identical checksums against the native kernels
//
// Record/replay options:
//   --workload ep|is|mix  what to record (default mix; ep/is use --scale)
//   --out FILE         record: trace file (default stdout)
//   --in FILE          replay: trace file (required)
//                      replay re-reads --backend/--eager/--drop/--coll-algo/
//                      --topology as the what-if config; the digest must match
//                      the recording run's digest for a conformant simulator
//
// Sweep options:
//   --quick            the CI matrix: 7 workloads x 3 channels x 2 eager
//                      limits x {lossless, 1%% drop} x --seeds seeds
//   --seeds N          seeds per cell (default 3; 252 jobs)
//   --workers N        host worker threads (default: cores, capped at 8)
//   --out FILE         JSON-lines stream, completion order (default stdout)
//   --json FILE        write the aggregate BENCH_sweep.json there
//
// Explore options:
//   --seeds N          master seeds to sweep (default 256)
//   --budget N         machine-execution budget incl. shrinking (default seeds*8)
//   --msgs N           soup messages per rank (default 12)
//   --seed-base S      first master seed (default 1)
//   --repro TOKEN      replay one shrunken vector instead of sweeping
//   --trace-out FILE   Perfetto/Chrome-JSON trace of the failing (or repro) run
//
// Explore --systematic options (DESIGN.md §15):
//   --systematic       enumerate ALL non-equivalent interleavings (DFS with
//                      sleep sets) of a wildcard workload instead of sampling
//   --ranks N          machine size (default 2; --nodes wins when given)
//   --depth D          max recorded choice points per run (default 64)
//   --window NS        candidate-window width in ns (default 0 = same-time)
//   --interleavings N  stop after N interleavings (default 0 = exhaustive)
//   --msg-bytes B      payload length (default 24; > eager limit = rendezvous)
//   --msgs N           messages per rank per peer (default 1 in this mode)
//   --cert-out FILE    write the certificate JSON there (jq-gated in CI)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "mpi/coll.hpp"
#include "mpi/optrace.hpp"
#include "mpiabi/apps/apps.h"
#include "mpiabi/mpiabi.hpp"
#include "net/topology.hpp"
#include "nas/kernels.hpp"
#include "sim/explorer.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace sp;

struct Options {
  std::string cmd = "latency";
  mpi::Backend backend = mpi::Backend::kLapiEnhanced;
  int nodes = 0;  // 0 = command default
  std::size_t size = 0;
  int iters = 24;
  std::size_t eager = 4096;
  double drop = 0.0;
  double dup = 0.0;
  long long jitter = 0;
  int burst = 1;
  unsigned long long seed = 0x5eed;
  int scale = 2;
  bool tb3 = false;
  bool csv = false;
  std::string coll_algo;
  std::string topology;
  long long trace_ring = 0;  // bytes; 0 = config default / node-count auto
  std::string format = "text";
  std::string out;
  // explore
  int explore_seeds = 256;
  int budget = 0;  // 0 = seeds * 8
  int msgs = 12;
  bool msgs_set = false;  // --systematic defaults to 1 msg/rank unless --msgs given
  unsigned long long seed_base = 1;
  std::string repro;
  std::string trace_out;
  bool inject_reack_bug = false;  // hidden: re-introduce the PR 2 ack storm
  // explore --systematic
  bool systematic = false;
  int ranks = 2;
  int depth = 64;
  long long window = 0;
  long long interleavings = 0;  // 0 = unlimited
  long long msg_bytes = 24;
  std::string cert_out;
  // nas / record / replay / sweep
  bool abi = false;
  std::string workload = "mix";
  std::string in;
  bool quick = false;
  int sweep_seeds = 3;
  int workers = 0;
  std::string json_out;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: spsim latency|bandwidth|interrupt|nas|stats|trace|metrics|explore|"
               "record|replay|sweep "
               "[--backend native|base|counters|enhanced|rdma] [--nodes N] [--size B] [--iters N] "
               "[--eager B] [--drop P] [--dup P] [--jitter NS] [--burst N] "
               "[--seed S] [--scale N] [--coll-algo SPEC] "
               "[--topology sp|fattree|torus2d|torus3d|dragonfly] [--trace-ring BYTES] [--csv] "
               "[--format text|json|csv] [--out FILE] "
               "[--seeds N] [--budget N] [--msgs N] [--seed-base S] [--repro TOKEN] "
               "[--trace-out FILE] [--systematic] [--ranks N] [--depth D] [--window NS] "
               "[--interleavings N] [--msg-bytes B] [--cert-out FILE] [--abi] "
               "[--workload ep|is|mix] [--in FILE] [--quick] [--workers N] [--json FILE]\n");
  std::exit(2);
}

mpi::Backend parse_backend(const std::string& s) {
  if (s == "native") return mpi::Backend::kNativePipes;
  if (s == "base") return mpi::Backend::kLapiBase;
  if (s == "counters") return mpi::Backend::kLapiCounters;
  if (s == "enhanced") return mpi::Backend::kLapiEnhanced;
  if (s == "rdma") return mpi::Backend::kRdma;
  usage();
}

Options parse(int argc, char** argv) {
  Options o;
  if (argc < 2) usage();
  o.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    // Accept both "--opt value" and "--opt=value".
    std::string inline_val;
    bool has_inline = false;
    if (const auto eq = a.find('='); eq != std::string::npos) {
      inline_val = a.substr(eq + 1);
      a.erase(eq);
      has_inline = true;
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_val.c_str();
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--backend" || a == "--channel") {
      o.backend = parse_backend(next());
    } else if (a == "--nodes") {
      o.nodes = std::atoi(next());
    } else if (a == "--size") {
      o.size = std::strtoull(next(), nullptr, 10);
    } else if (a == "--iters") {
      o.iters = std::atoi(next());
    } else if (a == "--eager") {
      o.eager = std::strtoull(next(), nullptr, 10);
    } else if (a == "--drop") {
      o.drop = std::atof(next());
    } else if (a == "--dup") {
      o.dup = std::atof(next());
    } else if (a == "--jitter") {
      o.jitter = std::atoll(next());
    } else if (a == "--burst") {
      o.burst = std::atoi(next());
    } else if (a == "--seed") {
      o.seed = std::strtoull(next(), nullptr, 0);
    } else if (a == "--scale") {
      o.scale = std::atoi(next());
    } else if (a == "--testbed") {
      const std::string t = next();
      if (t == "tb3") o.tb3 = true;
      else if (t != "tbmx") usage();
    } else if (a == "--coll-algo") {
      o.coll_algo = next();
    } else if (a == "--topology") {
      o.topology = next();
    } else if (a == "--trace-ring") {
      o.trace_ring = std::atoll(next());
    } else if (a == "--csv") {
      o.csv = true;
    } else if (a == "--format") {
      o.format = next();
      if (o.format != "text" && o.format != "json" && o.format != "csv") usage();
    } else if (a == "--out") {
      o.out = next();
    } else if (a == "--seeds") {
      o.explore_seeds = std::atoi(next());
      o.sweep_seeds = o.explore_seeds;
    } else if (a == "--budget") {
      o.budget = std::atoi(next());
    } else if (a == "--msgs") {
      o.msgs = std::atoi(next());
      o.msgs_set = true;
    } else if (a == "--seed-base") {
      o.seed_base = std::strtoull(next(), nullptr, 0);
    } else if (a == "--repro") {
      o.repro = next();
    } else if (a == "--trace-out") {
      o.trace_out = next();
    } else if (a == "--inject-reack-bug") {
      o.inject_reack_bug = true;
    } else if (a == "--systematic") {
      o.systematic = true;
    } else if (a == "--ranks") {
      o.ranks = std::atoi(next());
    } else if (a == "--depth") {
      o.depth = std::atoi(next());
    } else if (a == "--window") {
      o.window = std::atoll(next());
    } else if (a == "--interleavings") {
      o.interleavings = std::atoll(next());
    } else if (a == "--msg-bytes") {
      o.msg_bytes = std::atoll(next());
    } else if (a == "--cert-out") {
      o.cert_out = next();
    } else if (a == "--abi") {
      o.abi = true;
    } else if (a == "--workload") {
      o.workload = next();
    } else if (a == "--in") {
      o.in = next();
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--workers") {
      o.workers = std::atoi(next());
    } else if (a == "--json") {
      o.json_out = next();
    } else {
      usage();
    }
  }
  return o;
}

/// Apply --coll-algo to `cfg`; a bad spec exits 2.
void apply_coll_algo(const Options& o, sim::MachineConfig& cfg) {
  if (o.coll_algo.empty()) return;
  std::string err;
  if (!mpi::coll::apply_algo_spec(cfg, o.coll_algo, &err)) {
    std::fprintf(stderr, "spsim: bad --coll-algo: %s\n", err.c_str());
    std::exit(2);
  }
}

sim::MachineConfig make_config(const Options& o) {
  sim::MachineConfig cfg = o.tb3 ? sim::MachineConfig::tb3_p2sc() : sim::MachineConfig::tbmx_332();
  cfg.eager_limit = o.eager;
  cfg.packet_drop_rate = o.drop;
  cfg.packet_dup_rate = o.dup;
  cfg.packet_jitter_ns = o.jitter;
  cfg.burst_drop_len = o.burst;
  cfg.fabric_seed = o.seed;
  if (o.drop > 0) cfg.retransmit_timeout_ns = 400'000;
  if (!o.topology.empty()) {
    if (!net::topology_from_name(o.topology, &cfg.topology)) {
      std::fprintf(stderr, "spsim: bad --topology: %s\n", o.topology.c_str());
      std::exit(2);
    }
  }
  if (o.trace_ring > 0) {
    // An explicit ring size wins over the per-node auto-scaling.
    cfg.telemetry_ring_bytes = static_cast<std::size_t>(o.trace_ring);
    cfg.telemetry_ring_bytes_per_node = 0;
  }
  apply_coll_algo(o, cfg);
  return cfg;
}

std::vector<std::size_t> sizes_for(const Options& o, std::size_t sweep_max) {
  if (o.size > 0) return {o.size};
  return bench::size_sweep(sweep_max);
}

int cmd_latency(const Options& o) {
  const auto cfg = make_config(o);
  if (!o.csv) std::printf("# one-way latency (us), %s\n", mpi::backend_name(o.backend));
  std::printf(o.csv ? "size,latency_us\n" : "%-10s %12s\n", "size", "latency_us");
  for (std::size_t s : sizes_for(o, 1 << 16)) {
    const double us = bench::mpi_pingpong_us(cfg, o.backend, s, o.iters);
    std::printf(o.csv ? "%zu,%.3f\n" : "%-10zu %12.2f\n", s, us);
  }
  return 0;
}

int cmd_bandwidth(const Options& o) {
  const auto cfg = make_config(o);
  if (!o.csv) std::printf("# streaming bandwidth (MB/s), %s\n", mpi::backend_name(o.backend));
  std::printf(o.csv ? "size,mb_per_s\n" : "%-10s %12s\n", "size", "MB/s");
  for (std::size_t s : sizes_for(o, 1 << 20)) {
    const double mbs = bench::mpi_bandwidth_mbs(cfg, o.backend, s, o.iters);
    std::printf(o.csv ? "%zu,%.3f\n" : "%-10zu %12.2f\n", s, mbs);
  }
  return 0;
}

int cmd_interrupt(const Options& o) {
  const auto cfg = make_config(o);
  if (!o.csv) {
    std::printf("# interrupt-mode one-way latency (us), %s\n", mpi::backend_name(o.backend));
  }
  std::printf(o.csv ? "size,latency_us\n" : "%-10s %12s\n", "size", "latency_us");
  for (std::size_t s : sizes_for(o, 1 << 16)) {
    const double us = bench::mpi_interrupt_pingpong_us(cfg, o.backend, s, o.iters / 2 + 1);
    std::printf(o.csv ? "%zu,%.3f\n" : "%-10zu %12.2f\n", s, us);
  }
  return 0;
}

/// nas --abi: every ported kernel, run natively and again through the C MPI_*
/// veneer, must report bit-identical checksums on the selected channel.
int cmd_nas_abi(const Options& o) {
  const auto cfg = make_config(o);
  const int nodes = o.nodes > 0 ? o.nodes : 4;
  struct AbiKernel {
    const char* name;
    nas::KernelResult (*native)(mpi::Mpi&, int);
    mpiabi::MainFn abi_main;
  };
  const AbiKernel kernels[] = {{"ep", nas::run_ep, sp_abi_nas_ep_main},
                               {"is", nas::run_is, sp_abi_nas_is_main}};
  std::printf(o.csv ? "kernel,native_ms,abi_ms,match\n" : "%-8s %12s %12s %8s\n", "kernel",
              "native_ms", "abi_ms", "match");
  bool all_match = true;
  for (const AbiKernel& k : kernels) {
    mpi::Machine native(cfg, nodes, o.backend);
    std::uint64_t native_sum = 0;
    bool native_ok = true;
    native.run([&](mpi::Mpi& mpi) {
      const auto r = k.native(mpi, o.scale);
      if (!r.verified) native_ok = false;
      if (mpi.world().rank() == 0) native_sum = r.checksum;
    });
    mpi::Machine abi(cfg, nodes, o.backend);
    const mpiabi::RunResult rr =
        mpiabi::run_program(abi, k.abi_main, {std::to_string(o.scale)});
    const std::uint64_t abi_sum = rr.ranks.empty() ? 0 : rr.ranks[0].checksum;
    const bool match = native_ok && rr.ok() && native_sum == abi_sum;
    all_match = all_match && match;
    const double native_ms = sim::to_us(native.elapsed()) / 1000.0;
    const double abi_ms = sim::to_us(rr.elapsed) / 1000.0;
    if (o.csv) {
      std::printf("%s,%.3f,%.3f,%d\n", k.name, native_ms, abi_ms, match ? 1 : 0);
    } else {
      std::printf("%-8s %12.2f %12.2f %8s\n", k.name, native_ms, abi_ms,
                  match ? "yes" : "NO");
    }
    if (!match) {
      std::fprintf(stderr, "spsim: %s checksum mismatch: native %016llx abi %016llx\n",
                   k.name, static_cast<unsigned long long>(native_sum),
                   static_cast<unsigned long long>(abi_sum));
    }
  }
  return all_match ? 0 : 1;
}

int cmd_nas(const Options& o) {
  if (o.abi) return cmd_nas_abi(o);
  const auto cfg = make_config(o);
  const int nodes = o.nodes > 0 ? o.nodes : 4;
  std::printf(o.csv ? "kernel,ms,verified\n" : "%-8s %12s %10s\n", "kernel", "ms", "verified");
  for (auto& [name, fn] : nas::all_kernels()) {
    mpi::Machine m(cfg, nodes, o.backend);
    bool ok = true;
    m.run([&, f = fn](mpi::Mpi& mpi) {
      const auto r = f(mpi, o.scale);
      if (!r.verified) ok = false;
    });
    const double ms = sim::to_us(m.elapsed()) / 1000.0;
    if (o.csv) {
      std::printf("%s,%.3f,%d\n", name.c_str(), ms, ok ? 1 : 0);
    } else {
      std::printf("%-8s %12.2f %10s\n", name.c_str(), ms, ok ? "yes" : "NO");
    }
  }
  return 0;
}

/// record --workload mix: a deliberately gnarly body — nonblocking p2p,
/// wildcard receives, communicator dup/split, collectives on a subcomm, and
/// compute phases — so a recorded trace exercises most of the op vocabulary.
void mix_workload(mpi::Mpi& mpi) {
  auto& w = mpi.world();
  const int n = w.size();
  const int me = w.rank();
  const int to = (me + 1) % n;
  const int from = (me - 1 + n) % n;
  std::vector<std::int64_t> pay(32, me + 1);
  std::vector<std::int64_t> in(32, 0);
  mpi::Request r = mpi.irecv(in.data(), in.size(), mpi::Datatype::kLong, mpi::kAnySource,
                             mpi::kAnyTag, w);
  mpi.send(pay.data(), pay.size(), mpi::Datatype::kLong, to, 7, w);
  mpi.wait(r);
  mpi.compute(5'000 * (me + 1));
  mpi::Comm dup = mpi.dup(w);
  std::vector<std::int64_t> sum(32, 0);
  mpi.allreduce(pay.data(), sum.data(), pay.size(), mpi::Datatype::kLong, mpi::Op::kSum, dup);
  mpi::Comm half = mpi.split(w, me % 2, me);
  mpi.bcast(sum.data(), sum.size(), mpi::Datatype::kLong, 0, half);
  mpi.sendrecv(sum.data(), 8, to, 9, in.data(), 8, from, 9, mpi::Datatype::kLong, w);
  mpi.barrier(w);
}

int cmd_record(const Options& o) {
  const auto cfg = make_config(o);
  const int nodes = o.nodes > 0 ? o.nodes : 4;
  mpi::Machine m(cfg, nodes, o.backend);
  mpi::optrace::Recorder rec(nodes);
  mpi::optrace::attach(m, &rec);
  bool verified = true;
  if (o.workload == "ep" || o.workload == "is") {
    const bool is_is = o.workload == "is";
    m.run([&](mpi::Mpi& mpi) {
      const auto r = is_is ? nas::run_is(mpi, o.scale) : nas::run_ep(mpi, o.scale);
      if (!r.verified) verified = false;
    });
  } else if (o.workload == "mix") {
    m.run(mix_workload);
  } else {
    std::fprintf(stderr, "spsim: bad --workload: %s (want ep|is|mix)\n", o.workload.c_str());
    return 2;
  }
  if (!verified) {
    std::fprintf(stderr, "spsim: %s failed verification during recording\n",
                 o.workload.c_str());
    return 1;
  }
  const mpi::optrace::Trace t = rec.take(o.workload, o.scale);
  if (o.out.empty()) {
    mpi::optrace::save_text(t, std::cout);
  } else {
    std::ofstream os(o.out);
    if (!os) {
      std::fprintf(stderr, "spsim: cannot open %s\n", o.out.c_str());
      return 1;
    }
    mpi::optrace::save_text(t, os);
  }
  std::size_t total = 0;
  for (const auto& ops : t.per_rank) total += ops.size();
  std::fprintf(stderr, "recorded %s: %d ranks, %zu ops\n", t.workload.c_str(), t.ranks,
               total);
  return 0;
}

int cmd_replay(const Options& o) {
  if (o.in.empty()) {
    std::fprintf(stderr, "spsim: replay needs --in FILE\n");
    return 2;
  }
  std::ifstream is(o.in);
  if (!is) {
    std::fprintf(stderr, "spsim: cannot open %s\n", o.in.c_str());
    return 1;
  }
  mpi::optrace::Trace t;
  std::string err;
  if (!mpi::optrace::load_text(is, &t, &err)) {
    std::fprintf(stderr, "spsim: bad trace %s: %s\n", o.in.c_str(), err.c_str());
    return 1;
  }
  const auto cfg = make_config(o);
  const auto r = mpi::optrace::replay(t, cfg, o.backend);
  if (!r.ok) {
    std::fprintf(stderr, "spsim: replay failed: %s\n", r.error.c_str());
    return 1;
  }
  if (o.csv) {
    std::printf("workload,backend,digest,elapsed_ns,sim_events\n%s,%s,%016llx,%lld,%llu\n",
                t.workload.c_str(), mpi::backend_name(o.backend),
                static_cast<unsigned long long>(r.digest),
                static_cast<long long>(r.elapsed),
                static_cast<unsigned long long>(r.sim_events));
  } else {
    std::printf("replayed %s (%d ranks) on %s: digest %016llx, %.3f ms, %llu events\n",
                t.workload.c_str(), t.ranks, mpi::backend_name(o.backend),
                static_cast<unsigned long long>(r.digest), sim::to_us(r.elapsed) / 1000.0,
                static_cast<unsigned long long>(r.sim_events));
  }
  return 0;
}

int cmd_sweep(const Options& o) {
  std::vector<sweep::SweepJob> jobs = sweep::quick_matrix(o.quick ? o.sweep_seeds : 1);
  sweep::SweepOptions so;
  so.workers = o.workers;
  std::FILE* stream = stdout;
  if (!o.out.empty()) {
    stream = std::fopen(o.out.c_str(), "w");
    if (stream == nullptr) {
      std::fprintf(stderr, "spsim: cannot open %s\n", o.out.c_str());
      return 1;
    }
  }
  so.stream = stream;
  std::fprintf(stderr, "# sweep: %zu jobs\n", jobs.size());
  const sweep::SweepReport rep = sweep::run_sweep(jobs, so);
  if (stream != stdout) std::fclose(stream);
  if (!o.json_out.empty() && !sweep::write_bench_json(rep, o.json_out)) {
    std::fprintf(stderr, "spsim: cannot write %s\n", o.json_out.c_str());
    return 1;
  }
  int ok_jobs = 0;
  for (const auto& r : rep.results) ok_jobs += r.ok ? 1 : 0;
  std::fprintf(stderr, "# sweep: %d/%zu ok, %d workers, %llu steals, verified=%s\n",
               ok_jobs, rep.results.size(), rep.workers,
               static_cast<unsigned long long>(rep.steals),
               rep.all_verified() ? "yes" : "NO");
  for (const auto& row : rep.rows) {
    std::fprintf(stderr, "#   %-10s %-8s n=%-3d p50=%.3fms p90=%.3fms p99=%.3fms\n",
                 row.workload.c_str(), row.backend.c_str(), row.jobs, row.p50_ms, row.p90_ms,
                 row.p99_ms);
  }
  return rep.all_ok() && rep.all_verified() ? 0 : 1;
}

// Shared by trace/metrics: one message exchange from rank 0 to rank 1 with
// telemetry on. A one-node machine has no rank 1 to receive it.
std::unique_ptr<mpi::Machine> traced_run(const Options& o) {
  auto cfg = make_config(o);
  cfg.telemetry_enabled = true;
  const int nodes = o.nodes > 0 ? o.nodes : 2;
  if (nodes < 2) {
    std::fprintf(stderr, "spsim: %s needs --nodes >= 2\n", o.cmd.c_str());
    std::exit(2);
  }
  const std::size_t size = o.size > 0 ? o.size : 1024;
  auto m = std::make_unique<mpi::Machine>(cfg, nodes, o.backend);
  m->run([&](mpi::Mpi& mpi) {
    auto& w = mpi.world();
    std::vector<std::byte> buf(size);
    if (w.rank() == 0) {
      mpi.send(buf.data(), size, mpi::Datatype::kByte, 1, 0, w);
    } else if (w.rank() == 1) {
      mpi.recv(buf.data(), size, mpi::Datatype::kByte, 0, 0, w);
    }
  });
  return m;
}

int cmd_trace(const Options& o) {
  auto m = traced_run(o);
  std::FILE* out = stdout;
  if (!o.out.empty()) {
    out = std::fopen(o.out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "spsim: cannot open %s\n", o.out.c_str());
      return 1;
    }
  }
  if (o.format == "json") {
    m->telemetry()->export_chrome_json(out);
  } else if (o.format == "csv") {
    m->telemetry()->export_csv(out);
  } else {
    m->telemetry()->export_text(out);
  }
  if (out != stdout) std::fclose(out);
  return 0;
}

int cmd_metrics(const Options& o) {
  auto m = traced_run(o);
  m->telemetry()->print_metrics(stdout);
  m->print_stats(stdout);
  return 0;
}

int cmd_stats(const Options& o) {
  const auto cfg = make_config(o);
  const int nodes = o.nodes > 0 ? o.nodes : 2;
  const std::size_t size = o.size > 0 ? o.size : 4096;
  mpi::Machine m(cfg, nodes, o.backend);
  m.run([&](mpi::Mpi& mpi) {
    auto& w = mpi.world();
    std::vector<std::byte> buf(size);
    const int peer = (w.rank() + 1) % w.size();
    const int from = (w.rank() - 1 + w.size()) % w.size();
    for (int i = 0; i < o.iters; ++i) {
      mpi::Request r = mpi.irecv(buf.data(), size, mpi::Datatype::kByte, from, 0, w);
      mpi.send(buf.data(), size, mpi::Datatype::kByte, peer, 0, w);
      mpi.wait(r);
    }
    mpi.barrier(w);
  });
  m.print_stats(stdout);
  return 0;
}

/// Certificate JSON for the systematic mode: machine-readable enough for the
/// nightly jq gate (interleavings > 0, mismatches == 0), human-readable
/// enough to paste into a bug report. Empty path = stdout only (skipped).
bool write_certificate(const sim::SystematicReport& rep, const sim::SystematicOptions& so,
                       const std::string& coll_spec, const std::string& path) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"mode\": \"systematic\",\n");
  std::fprintf(f, "  \"backend\": \"%s\",\n", mpi::backend_name(so.backend));
  std::fprintf(f, "  \"ranks\": %d,\n", so.ranks);
  std::fprintf(f, "  \"msgs_per_rank\": %d,\n", so.msgs_per_rank);
  std::fprintf(f, "  \"msg_bytes\": %u,\n", so.msg_bytes);
  std::fprintf(f, "  \"depth\": %d,\n", so.depth);
  std::fprintf(f, "  \"window_ns\": %lld,\n", static_cast<long long>(so.window_ns));
  std::fprintf(f, "  \"coll_spec\": \"%s\",\n", coll_spec.c_str());
  std::fprintf(f, "  \"complete\": %s,\n", rep.complete ? "true" : "false");
  std::fprintf(f, "  \"depth_limited\": %s,\n", rep.depth_limited ? "true" : "false");
  std::fprintf(f, "  \"interleavings\": %ld,\n", rep.interleavings);
  std::fprintf(f, "  \"redundant\": %ld,\n", rep.redundant);
  std::fprintf(f, "  \"runs\": %ld,\n", rep.runs);
  std::fprintf(f, "  \"choice_points\": %ld,\n", rep.choice_points);
  std::fprintf(f, "  \"max_fanout\": %d,\n", rep.max_fanout);
  std::fprintf(f, "  \"fanout_capped\": %ld,\n", rep.fanout_capped);
  std::fprintf(f, "  \"distinct_outcomes\": %zu,\n", rep.distinct_outcomes);
  std::fprintf(f, "  \"certificate_digest\": \"%016llx\",\n",
               static_cast<unsigned long long>(rep.certificate_digest));
  std::fprintf(f, "  \"invariant_digest\": \"%016llx\",\n",
               static_cast<unsigned long long>(rep.invariant_digest));
  std::fprintf(f, "  \"mismatches\": %zu,\n", rep.mismatches.size());
  std::fprintf(f, "  \"repro_tokens\": [");
  for (std::size_t i = 0; i < rep.mismatches.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", rep.mismatches[i].token.c_str());
  }
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
  return true;
}

int cmd_explore(const Options& o) {
  sim::Explorer::Options eo;
  eo.nodes = o.nodes > 0 ? o.nodes : 4;
  eo.msgs_per_rank = o.msgs;
  eo.base_seed = o.seed_base;
  eo.seeds = o.explore_seeds;
  eo.max_runs = o.budget;
  eo.lapi_backend = o.backend == mpi::Backend::kNativePipes ? mpi::Backend::kLapiEnhanced
                                                            : o.backend;
  eo.inject_reack_bug = o.inject_reack_bug;
  eo.log = stdout;
  eo.base_config = o.tb3 ? sim::MachineConfig::tb3_p2sc() : sim::MachineConfig::tbmx_332();
  eo.base_config.eager_limit = o.eager;
  if (!o.topology.empty() &&
      !net::topology_from_name(o.topology, &eo.base_config.topology)) {
    std::fprintf(stderr, "spsim: bad --topology: %s\n", o.topology.c_str());
    return 2;
  }
  apply_coll_algo(o, eo.base_config);
  if (o.systematic && !o.coll_algo.empty() && !mpi::coll::any_algo_pinned(eo.base_config)) {
    std::fprintf(stderr,
                 "spsim: --coll-algo %s pins no algorithm; explore --systematic runs its "
                 "collective phase only under a pin\n",
                 o.coll_algo.c_str());
    return 2;
  }
  sim::Explorer ex(eo);

  if (!o.repro.empty()) {
    // Replay a single shrunken vector found by an earlier sweep.
    const auto p = sim::Perturbation::parse(o.repro);
    if (!p) {
      std::fprintf(stderr, "spsim: malformed repro token '%s'\n", o.repro.c_str());
      return 2;
    }
    const auto failure = ex.check(*p);
    std::printf("repro %s: %s\n", o.repro.c_str(),
                failure ? failure->c_str() : "conformant (no divergence)");
    const bool sys_token = (p->flags & sim::Perturbation::kFlagSystematic) != 0;
    if (!o.trace_out.empty() && sys_token) {
      std::fprintf(stderr,
                   "spsim: --trace-out is not supported for systematic (x5/x6) tokens\n");
    } else if (!o.trace_out.empty() &&
               !ex.export_trace(*p, eo.lapi_backend, o.trace_out)) {
      std::fprintf(stderr, "spsim: trace export to %s failed\n", o.trace_out.c_str());
    }
    return failure ? 1 : 0;
  }

  if (o.systematic) {
    sim::SystematicOptions so;
    so.ranks = o.nodes > 0 ? o.nodes : o.ranks;
    so.msgs_per_rank = o.msgs_set ? o.msgs : 1;
    so.msg_bytes = static_cast<std::uint32_t>(o.msg_bytes);
    so.depth = o.depth;
    so.window_ns = o.window;
    so.backend = o.backend;
    so.max_interleavings = o.interleavings;
    so.canonical_check = false;
    so.log = stdout;
    std::printf("# explore --systematic: %d ranks, %d msgs/rank, %lld-byte payloads, %s%s%s\n",
                so.ranks, so.msgs_per_rank, o.msg_bytes, mpi::backend_name(so.backend),
                o.coll_algo.empty() ? "" : ", coll ", o.coll_algo.c_str());
    const sim::SystematicReport rep = ex.explore_systematic(so);
    if (!write_certificate(rep, so, o.coll_algo, o.cert_out)) {
      std::fprintf(stderr, "spsim: writing certificate to %s failed\n", o.cert_out.c_str());
      return 2;
    }
    if (!rep.mismatches.empty()) {
      for (const auto& mm : rep.mismatches) {
        std::printf("MISMATCH: %s\n  repro: spsim explore --repro=%s\n", mm.reason.c_str(),
                    mm.token.c_str());
      }
      return 1;
    }
    std::printf("%s: %ld interleavings, %ld pruned, %zu distinct outcomes, "
                "certificate %016llx\n",
                rep.complete ? "certificate complete" : "enumeration INCOMPLETE",
                rep.interleavings, rep.redundant, rep.distinct_outcomes,
                static_cast<unsigned long long>(rep.certificate_digest));
    return 0;
  }

  std::printf("# explore: %d seeds from %llu, %d nodes, %d msgs/rank, pipes vs %s\n",
              eo.seeds, o.seed_base, eo.nodes, eo.msgs_per_rank,
              mpi::backend_name(eo.lapi_backend));
  const sim::Explorer::Report rep = ex.explore();
  std::printf("# %d seeds checked, %d machine runs\n", rep.seeds_run, rep.runs);
  if (rep.mismatches.empty()) {
    std::printf("conformant: no divergence between channels\n");
    return 0;
  }
  for (const auto& mm : rep.mismatches) {
    std::printf("MISMATCH (seed %llu): %s\n",
                static_cast<unsigned long long>(mm.original.seed), mm.reason.c_str());
    std::printf("  shrunk token: %s\n  repro: spsim explore --repro=%s\n", mm.token.c_str(),
                mm.token.c_str());
    if (!o.trace_out.empty() &&
        !ex.export_trace(mm.shrunk, eo.lapi_backend, o.trace_out)) {
      std::fprintf(stderr, "spsim: trace export to %s failed\n", o.trace_out.c_str());
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.cmd == "latency") return cmd_latency(o);
  if (o.cmd == "bandwidth") return cmd_bandwidth(o);
  if (o.cmd == "interrupt") return cmd_interrupt(o);
  if (o.cmd == "nas") return cmd_nas(o);
  if (o.cmd == "stats") return cmd_stats(o);
  if (o.cmd == "trace") return cmd_trace(o);
  if (o.cmd == "metrics") return cmd_metrics(o);
  if (o.cmd == "explore") return cmd_explore(o);
  if (o.cmd == "record") return cmd_record(o);
  if (o.cmd == "replay") return cmd_replay(o);
  if (o.cmd == "sweep") return cmd_sweep(o);
  usage();
}
