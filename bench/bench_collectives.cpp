// Collective-engine cutover sweep: every algorithm of every primitive, pinned
// via the MachineConfig knobs, across message sizes straddling the auto
// cutovers, on a 16-node enhanced-LAPI machine. Simulated time per operation
// is the metric (the cost model is deterministic, so one rep suffices); the
// per-primitive speedup rows compare the best non-seed algorithm against the
// seed algorithm at each size.
//
//   bench_collectives [--nodes N] [--iters N] [--quick] [--json FILE]
//
// Two RDMA-channel sections ride along (DESIGN.md §14): a barrier sweep
// comparing the NIC-resident barrier against the host dissemination barrier
// on the Pipes and LAPI channels across node counts, and a rendezvous
// crossover sweep comparing large-message ping-pong on the RDMA-read
// rendezvous against the LAPI-enhanced channel.
//
// A third section (DESIGN.md §16) scales a fat-tree machine to 128 nodes and
// compares the in-network combining allreduce/barrier against every host
// algorithm at a small payload, feeding the "in_network" JSON array.
//
// --quick keeps only the largest (acceptance) size per primitive, for the
// per-PR CI smoke. --json writes BENCH_collectives.json (see
// scripts/bench_json.sh), validated by CI with jq: at >= 256 KiB at least two
// primitives must show >= 1.3x over their seed algorithm, the NIC barrier
// must beat every host barrier at every node count, the RDMA rendezvous
// must beat LAPI-enhanced at >= 256 KiB, and the in-network allreduce and
// barrier must beat the best host algorithm at 128 nodes on the fat tree.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "mpi/coll.hpp"

namespace {

using namespace sp;

struct Case {
  const char* primitive;                     ///< apply_algo_spec key.
  std::vector<const char*> algorithms;       ///< First entry is the seed algorithm.
  std::vector<std::size_t> bytes;            ///< Last entry is the acceptance size.
};

struct Sample {
  const char* primitive;
  const char* algorithm;
  std::size_t bytes;
  double sim_us;
};

/// One barrier measurement: a (channel, algorithm) pair at one node count.
struct BarrierSample {
  int nodes;
  const char* channel;    ///< "pipes" | "enhanced" | "rdma".
  const char* algorithm;  ///< "dissemination" (host) or "nic" (adapter).
  double sim_us;
};

/// One large-message ping-pong measurement: rendezvous on one channel.
struct RdvSample {
  std::size_t bytes;
  const char* backend;  ///< "enhanced" | "rdma".
  double sim_us;
};

/// One at-scale measurement on the fat-tree fabric: the in-network combining
/// tables (DESIGN.md §16) against the host algorithms and the NIC offload.
struct ScaleSample {
  const char* primitive;  ///< "allreduce" | "barrier".
  const char* algorithm;
  int nodes;
  std::size_t bytes;  ///< 0 for barrier.
  double sim_us;
};

/// Simulated microseconds per operation with one algorithm pinned.
double run_case(const std::string& primitive, const std::string& algorithm, std::size_t bytes,
                int nodes, int iters) {
  sim::MachineConfig cfg;
  std::string err;
  if (!mpi::coll::apply_algo_spec(cfg, primitive + "=" + algorithm, &err)) {
    std::fprintf(stderr, "bench_collectives: %s\n", err.c_str());
    std::exit(2);
  }
  mpi::Machine m(cfg, nodes, mpi::Backend::kLapiEnhanced);
  double out = 0.0;
  m.run([&](mpi::Mpi& mpi) {
    auto& w = mpi.world();
    const auto n = static_cast<std::size_t>(w.size());
    const std::size_t count = bytes / sizeof(double);
    std::vector<double> a(std::max<std::size_t>(count, 1), w.rank() + 1.0);
    std::vector<double> b(std::max<std::size_t>(count, 1), 0.0);
    // Only alltoall moves a block per destination; reduce_scatter's `bytes`
    // is already the whole vector.
    const std::size_t vec = std::max<std::size_t>(count, 1) * (primitive == "alltoall" ? n : 1);
    std::vector<double> av(vec, w.rank() + 1.0);
    std::vector<double> bv(vec, 0.0);
    mpi.barrier(w);
    const double t0 = mpi.wtime();
    for (int i = 0; i < iters; ++i) {
      if (primitive == "bcast") {
        mpi.bcast(a.data(), count, mpi::Datatype::kDouble, 0, w);
      } else if (primitive == "allreduce") {
        mpi.allreduce(a.data(), b.data(), count, mpi::Datatype::kDouble, mpi::Op::kSum, w);
      } else if (primitive == "alltoall") {
        // `bytes` is the per-destination block here.
        mpi.alltoall(av.data(), count, bv.data(), mpi::Datatype::kDouble, w);
      } else if (primitive == "reduce_scatter") {
        // `bytes` is the total vector; each rank keeps bytes/n.
        mpi.reduce_scatter_block(av.data(), bv.data(), count / n, mpi::Datatype::kDouble,
                                 mpi::Op::kSum, w);
      } else if (primitive == "scan") {
        mpi.scan(a.data(), b.data(), count, mpi::Datatype::kDouble, mpi::Op::kSum, w);
      }
    }
    // Makespan, not rank 0's view: a rooted or chain algorithm lets early
    // ranks run ahead, so fold the slowest rank's elapsed time.
    double mine = mpi.wtime() - t0;
    double slowest = 0.0;
    mpi.allreduce(&mine, &slowest, 1, mpi::Datatype::kDouble, mpi::Op::kMax, w);
    if (w.rank() == 0) out = slowest * 1e6 / iters;
  });
  return out;
}

/// Simulated microseconds per barrier with one algorithm pinned on one
/// channel. The trailing max-allreduce folds the slowest rank's elapsed time
/// so a skewed release order cannot flatter the result.
double run_barrier(mpi::Backend backend, const std::string& algorithm, int nodes, int iters) {
  sim::MachineConfig cfg;
  std::string err;
  if (!mpi::coll::apply_algo_spec(cfg, "barrier=" + algorithm, &err)) {
    std::fprintf(stderr, "bench_collectives: %s\n", err.c_str());
    std::exit(2);
  }
  mpi::Machine m(cfg, nodes, backend);
  double out = 0.0;
  m.run([&](mpi::Mpi& mpi) {
    auto& w = mpi.world();
    mpi.barrier(w);
    const double t0 = mpi.wtime();
    for (int i = 0; i < iters; ++i) mpi.barrier(w);
    double mine = mpi.wtime() - t0;
    double slowest = 0.0;
    mpi.allreduce(&mine, &slowest, 1, mpi::Datatype::kDouble, mpi::Op::kMax, w);
    if (w.rank() == 0) out = slowest * 1e6 / iters;
  });
  return out;
}

/// Simulated microseconds per operation at scale on the fat-tree fabric with
/// one algorithm pinned. Used for the 128-node in-network cutover: the
/// combining tables finish in O(tree depth) switch hops while every host
/// algorithm pays O(log n) end-to-end message latencies.
double run_scale(mpi::Backend backend, const std::string& spec, const std::string& primitive,
                 std::size_t bytes, int nodes, int iters) {
  sim::MachineConfig cfg;
  cfg.topology = sim::TopologyKind::kFatTree;
  std::string err;
  if (!mpi::coll::apply_algo_spec(cfg, spec, &err)) {
    std::fprintf(stderr, "bench_collectives: %s\n", err.c_str());
    std::exit(2);
  }
  mpi::Machine m(cfg, nodes, backend);
  double out = 0.0;
  m.run([&](mpi::Mpi& mpi) {
    auto& w = mpi.world();
    const std::size_t count = std::max<std::size_t>(bytes / sizeof(double), 1);
    std::vector<double> a(count, w.rank() + 1.0);
    std::vector<double> b(count, 0.0);
    mpi.barrier(w);
    const double t0 = mpi.wtime();
    for (int i = 0; i < iters; ++i) {
      if (primitive == "allreduce") {
        mpi.allreduce(a.data(), b.data(), bytes / sizeof(double), mpi::Datatype::kDouble,
                      mpi::Op::kSum, w);
      } else {
        mpi.barrier(w);
      }
    }
    double mine = mpi.wtime() - t0;
    double slowest = 0.0;
    mpi.allreduce(&mine, &slowest, 1, mpi::Datatype::kDouble, mpi::Op::kMax, w);
    if (w.rank() == 0) out = slowest * 1e6 / iters;
  });
  return out;
}

/// Simulated microseconds per one-way message in a two-node ping-pong. Above
/// the eager limit this is a pure rendezvous measurement: LAPI-enhanced pays
/// the host RTS/CTS/data phases, the RDMA channel pulls with an RDMA read.
double run_pingpong(mpi::Backend backend, std::size_t bytes, int iters) {
  sim::MachineConfig cfg;
  mpi::Machine m(cfg, 2, backend);
  double out = 0.0;
  m.run([&](mpi::Mpi& mpi) {
    auto& w = mpi.world();
    std::vector<char> buf(bytes, static_cast<char>(w.rank()));
    mpi.barrier(w);
    const double t0 = mpi.wtime();
    for (int i = 0; i < iters; ++i) {
      if (w.rank() == 0) {
        mpi.send(buf.data(), buf.size(), mpi::Datatype::kByte, 1, i, w);
        mpi.recv(buf.data(), buf.size(), mpi::Datatype::kByte, 1, i, w);
      } else {
        mpi.recv(buf.data(), buf.size(), mpi::Datatype::kByte, 0, i, w);
        mpi.send(buf.data(), buf.size(), mpi::Datatype::kByte, 0, i, w);
      }
    }
    if (w.rank() == 0) out = (mpi.wtime() - t0) * 1e6 / (2.0 * iters);
  });
  return out;
}

void write_json(const char* path, int nodes, const std::vector<Sample>& samples,
                const std::vector<Case>& cases, const std::vector<BarrierSample>& barriers,
                const std::vector<RdvSample>& rendezvous,
                const std::vector<ScaleSample>& innet) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_collectives: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"collectives\",\n  \"nodes\": %d,\n", nodes);
  std::fprintf(f, "  \"backend\": \"enhanced\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"primitive\": \"%s\", \"algorithm\": \"%s\", \"bytes\": %zu, "
                 "\"sim_us\": %.3f}%s\n",
                 s.primitive, s.algorithm, s.bytes, s.sim_us,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedups\": [\n");
  // One row per (primitive, size): seed algorithm vs the best alternative.
  std::string rows;
  for (const Case& c : cases) {
    for (std::size_t bytes : c.bytes) {
      const Sample* seed = nullptr;
      const Sample* best = nullptr;
      for (const Sample& s : samples) {
        if (std::strcmp(s.primitive, c.primitive) != 0 || s.bytes != bytes) continue;
        if (std::strcmp(s.algorithm, c.algorithms[0]) == 0) {
          seed = &s;
        } else if (best == nullptr || s.sim_us < best->sim_us) {
          best = &s;
        }
      }
      if (seed == nullptr || best == nullptr) continue;
      char row[256];
      std::snprintf(row, sizeof(row),
                    "    {\"primitive\": \"%s\", \"bytes\": %zu, \"baseline\": \"%s\", "
                    "\"best\": \"%s\", \"speedup\": %.3f},\n",
                    c.primitive, bytes, seed->algorithm, best->algorithm,
                    seed->sim_us / best->sim_us);
      rows += row;
    }
  }
  if (!rows.empty()) rows.erase(rows.size() - 2, 1);  // drop the trailing comma
  std::fputs(rows.c_str(), f);
  std::fprintf(f, "  ],\n  \"barrier\": [\n");
  for (std::size_t i = 0; i < barriers.size(); ++i) {
    const BarrierSample& s = barriers[i];
    std::fprintf(f,
                 "    {\"nodes\": %d, \"channel\": \"%s\", \"algorithm\": \"%s\", "
                 "\"sim_us\": %.3f}%s\n",
                 s.nodes, s.channel, s.algorithm, s.sim_us,
                 i + 1 < barriers.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"rendezvous\": [\n");
  for (std::size_t i = 0; i < rendezvous.size(); ++i) {
    const RdvSample& s = rendezvous[i];
    std::fprintf(f, "    {\"bytes\": %zu, \"backend\": \"%s\", \"sim_us\": %.3f}%s\n",
                 s.bytes, s.backend, s.sim_us, i + 1 < rendezvous.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"in_network\": [\n");
  for (std::size_t i = 0; i < innet.size(); ++i) {
    const ScaleSample& s = innet[i];
    std::fprintf(f,
                 "    {\"primitive\": \"%s\", \"algorithm\": \"%s\", \"nodes\": %d, "
                 "\"bytes\": %zu, \"topology\": \"fattree\", \"sim_us\": %.3f}%s\n",
                 s.primitive, s.algorithm, s.nodes, s.bytes, s.sim_us,
                 i + 1 < innet.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  int nodes = 16;
  int iters = 8;
  bool quick = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_collectives [--nodes N] [--iters N] [--quick] [--json FILE]\n");
      return 2;
    }
  }
  if (quick) iters = std::min(iters, 2);

  std::vector<Case> cases = {
      // Sizes straddle the cutovers (bcast pipeline >= 32 KiB, Rabenseifner
      // >= 16 KiB, Bruck <= 1 KiB blocks, halving >= 8 KiB total); the last
      // size is the acceptance point.
      {"bcast", {"binomial", "pipelined", "scatter_allgather"},
       {8 * 1024, 32 * 1024, 64 * 1024, 256 * 1024}},
      // in_network serves sizes up to in_network_coll_max_bytes (2 KiB) from
      // the switch combining tables and falls back to the host auto table
      // above it — 1/2/16 KiB straddle that cap.
      {"allreduce", {"reduce_bcast", "recursive_doubling", "rabenseifner", "in_network"},
       {1 * 1024, 2 * 1024, 16 * 1024, 64 * 1024, 256 * 1024}},
      {"alltoall", {"pairwise", "bruck"}, {128, 512, 2 * 1024}},
      {"reduce_scatter", {"reduce_scatter", "recursive_halving"},
       {8 * 1024, 64 * 1024, 256 * 1024}},
      {"scan", {"linear", "binomial"}, {1 * 1024, 16 * 1024}},
  };
  if (quick) {
    for (Case& c : cases) c.bytes = {c.bytes.back()};
  }

  std::vector<Sample> samples;
  std::printf("Collective cutover sweep: %d nodes, enhanced LAPI, simulated us/op\n", nodes);
  for (const Case& c : cases) {
    std::printf("\n%s (bytes%s):\n%-12s", c.primitive,
                std::strcmp(c.primitive, "alltoall") == 0      ? " per block"
                : std::strcmp(c.primitive, "reduce_scatter") == 0 ? " total"
                                                                  : "",
                "bytes");
    for (const char* algo : c.algorithms) std::printf(" %20s", algo);
    std::printf("\n");
    for (std::size_t bytes : c.bytes) {
      std::printf("%-12zu", bytes);
      for (const char* algo : c.algorithms) {
        const double us = run_case(c.primitive, algo, bytes, nodes, iters);
        samples.push_back({c.primitive, algo, bytes, us});
        std::printf(" %20.1f", us);
      }
      std::printf("\n");
    }
  }

  std::printf("\nSpeedup at the acceptance size (seed algorithm / best alternative):\n");
  for (const Case& c : cases) {
    const std::size_t bytes = c.bytes.back();
    double seed_us = 0.0, best_us = 0.0;
    const char* best_name = "";
    for (const Sample& s : samples) {
      if (std::strcmp(s.primitive, c.primitive) != 0 || s.bytes != bytes) continue;
      if (std::strcmp(s.algorithm, c.algorithms[0]) == 0) {
        seed_us = s.sim_us;
      } else if (best_us == 0.0 || s.sim_us < best_us) {
        best_us = s.sim_us;
        best_name = s.algorithm;
      }
    }
    std::printf("%-16s %8zu B  %-20s %6.2fx\n", c.primitive, bytes, best_name,
                best_us > 0 ? seed_us / best_us : 0.0);
  }

  // Barrier: the NIC-resident barrier against host dissemination on every
  // channel, across node counts straddling powers of two. The CI gate asserts
  // the adapter wins at every size.
  struct BarrierCfg {
    const char* channel;
    mpi::Backend backend;
    const char* algorithm;
  };
  const std::vector<BarrierCfg> barrier_cfgs = {
      {"pipes", mpi::Backend::kNativePipes, "dissemination"},
      {"enhanced", mpi::Backend::kLapiEnhanced, "dissemination"},
      {"rdma", mpi::Backend::kRdma, "dissemination"},
      {"rdma", mpi::Backend::kRdma, "nic"},
  };
  std::vector<int> barrier_nodes = {4, 8, 16, 32};
  if (quick) barrier_nodes = {8, 16};
  std::vector<BarrierSample> barriers;
  std::printf("\nbarrier (us/op by channel/algorithm):\n%-12s", "nodes");
  for (const BarrierCfg& bc : barrier_cfgs) {
    std::printf(" %14s/%-4s", bc.channel, bc.algorithm[0] == 'n' ? "nic" : "diss");
  }
  std::printf("\n");
  for (int bn : barrier_nodes) {
    std::printf("%-12d", bn);
    for (const BarrierCfg& bc : barrier_cfgs) {
      const double us = run_barrier(bc.backend, bc.algorithm, bn, iters);
      barriers.push_back({bn, bc.channel, bc.algorithm, us});
      std::printf(" %19.1f", us);
    }
    std::printf("\n");
  }

  // In-network combining at scale (DESIGN.md §16): a 128-node fat-tree, the
  // switch-resident allreduce and barrier against every host algorithm and
  // the NIC-offload barrier. The CI gate asserts the combining tables beat
  // the best host algorithm on both primitives at this node count.
  const int scale_nodes = 128;
  const std::size_t scale_bytes = 1024;  // under the 2 KiB combining cap
  std::vector<ScaleSample> innet;
  {
    const std::vector<const char*> ar_algos = {"reduce_bcast", "recursive_doubling",
                                               "rabenseifner", "in_network"};
    std::printf("\nin-network cutover: %d-node fat-tree, allreduce %zu B (us/op):\n",
                scale_nodes, scale_bytes);
    for (const char* algo : ar_algos) {
      const double us = run_scale(mpi::Backend::kLapiEnhanced,
                                  std::string("allreduce=") + algo, "allreduce", scale_bytes,
                                  scale_nodes, iters);
      innet.push_back({"allreduce", algo, scale_nodes, scale_bytes, us});
      std::printf("  %-20s %10.1f\n", algo, us);
    }
    const std::vector<const char*> bar_algos = {"dissemination", "nic", "in_network"};
    std::printf("in-network cutover: %d-node fat-tree, barrier (us/op):\n", scale_nodes);
    for (const char* algo : bar_algos) {
      // The RDMA channel so the NIC-resident barrier is available too; the
      // combining tables do not depend on the channel.
      const double us = run_scale(mpi::Backend::kRdma, std::string("barrier=") + algo,
                                  "barrier", 0, scale_nodes, iters);
      innet.push_back({"barrier", algo, scale_nodes, 0, us});
      std::printf("  %-20s %10.1f\n", algo, us);
    }
  }

  // Rendezvous crossover: one-way large-message latency, LAPI-enhanced host
  // rendezvous vs the RDMA-read pull. The CI gate asserts the RDMA channel
  // wins at >= 256 KiB (the paper's host-copy elimination payoff).
  std::vector<std::size_t> rdv_bytes = {64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024,
                                        1024 * 1024};
  if (quick) rdv_bytes = {256 * 1024, 1024 * 1024};
  std::vector<RdvSample> rendezvous;
  std::printf("\nrendezvous ping-pong (one-way us):\n%-12s %14s %14s\n", "bytes", "enhanced",
              "rdma");
  for (std::size_t bytes : rdv_bytes) {
    const double enh = run_pingpong(mpi::Backend::kLapiEnhanced, bytes, iters);
    const double rdm = run_pingpong(mpi::Backend::kRdma, bytes, iters);
    rendezvous.push_back({bytes, "enhanced", enh});
    rendezvous.push_back({bytes, "rdma", rdm});
    std::printf("%-12zu %14.1f %14.1f\n", bytes, enh, rdm);
  }

  if (json_path != nullptr) {
    write_json(json_path, nodes, samples, cases, barriers, rendezvous, innet);
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}
