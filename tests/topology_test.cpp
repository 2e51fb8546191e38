// Topology zoo tests (DESIGN.md §13): routing invariants of every fabric,
// spray coverage, per-topology determinism, delivery batching, and the
// topology-keyed collective selection table.
//
// Routing invariants checked for each topology x node count:
//  * every (src, dst, r) expansion is a chain through the link graph — the
//    first link leaves src, consecutive links share a vertex, the last link
//    enters dst — and uses each link at most once (loop-free);
//  * paths are minimal, or one of the topology's allowed non-minimal shapes
//    (dragonfly Valiant detours);
//  * the round-robin spray visits every advertised route of a pair.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "mpi/coll.hpp"
#include "mpi/machine.hpp"
#include "net/switch_fabric.hpp"
#include "net/topology.hpp"
#include "test_harness.hpp"

namespace sp::net {
namespace {

using mpi::Backend;
using mpi::Machine;
using mpi::Mpi;
using sim::MachineConfig;
using sim::Simulator;
using sim::TopologyKind;

constexpr TopologyKind kAllKinds[] = {TopologyKind::kSpMultistage, TopologyKind::kFatTree,
                                      TopologyKind::kTorus2d, TopologyKind::kTorus3d,
                                      TopologyKind::kDragonfly};

MachineConfig config_for(TopologyKind kind) {
  MachineConfig cfg;
  cfg.topology = kind;
  return cfg;
}

/// Explicit torus dims per test size so minimality checks know the shape
/// (the auto-factorizer would pick the same values; pinning decouples the
/// test from it).
std::array<int, 3> torus_dims(TopologyKind kind, int nodes) {
  if (kind == TopologyKind::kTorus2d) return nodes == 8 ? std::array{4, 2, 1}
                                                        : std::array{8, 8, 1};
  return nodes == 8 ? std::array{2, 2, 2} : std::array{4, 4, 4};
}

MachineConfig config_for(TopologyKind kind, int nodes) {
  MachineConfig cfg = config_for(kind);
  if (kind == TopologyKind::kTorus2d || kind == TopologyKind::kTorus3d) {
    const auto d = torus_dims(kind, nodes);
    cfg.torus_x = d[0];
    cfg.torus_y = d[1];
    cfg.torus_z = d[2];
  }
  return cfg;
}

/// Walk every route of (src, dst) and check the chain/loop-free invariants.
/// Returns the hop counts seen (for per-topology minimality checks).
std::vector<int> check_pair_routes(const Topology& topo, int src, int dst) {
  std::vector<int> hop_counts;
  const int nroutes = topo.route_count(src, dst);
  EXPECT_GE(nroutes, 1);
  for (int r = 0; r < nroutes; ++r) {
    RouteBuf rb;
    topo.route(src, dst, r, rb);
    EXPECT_GE(rb.n, 1) << topo.name() << " (" << src << "," << dst << ") r=" << r;
    EXPECT_LE(rb.n, RouteBuf::kMaxHops);
    std::set<std::uint32_t> used;
    int at = src;
    for (int i = 0; i < rb.n; ++i) {
      const std::uint32_t link = rb.hops[i].link;
      EXPECT_LT(link, static_cast<std::uint32_t>(topo.num_links()))
          << topo.name() << " (" << src << "," << dst << ") r=" << r << " hop " << i;
      if (link >= static_cast<std::uint32_t>(topo.num_links())) break;
      EXPECT_TRUE(used.insert(link).second)
          << topo.name() << " reuses link " << link << " on (" << src << "," << dst
          << ") r=" << r;
      const LinkEnds ends = topo.link_ends(link);
      EXPECT_EQ(ends.from, at) << topo.name() << " (" << src << "," << dst << ") r=" << r
                               << " hop " << i << " does not chain";
      EXPECT_GE(ends.to, 0);
      EXPECT_LT(ends.to, topo.num_vertices());
      at = ends.to;
    }
    EXPECT_EQ(at, dst) << topo.name() << " (" << src << "," << dst << ") r=" << r
                       << " does not terminate at the destination";
    hop_counts.push_back(rb.n);
  }
  return hop_counts;
}

/// Minimal torus hop count: per-dimension shortest wrap distances (plus
/// nothing else — torus nodes are their own routers).
int torus_min_hops(int src, int dst, int dx, int dy, int dz) {
  const int cs[3] = {src % dx, (src / dx) % dy, src / (dx * dy)};
  const int cd[3] = {dst % dx, (dst / dx) % dy, dst / (dx * dy)};
  const int dims[3] = {dx, dy, dz};
  int hops = 0;
  for (int d = 0; d < 3; ++d) {
    const int fwd = ((cd[d] - cs[d]) % dims[d] + dims[d]) % dims[d];
    hops += std::min(fwd, dims[d] - fwd);
  }
  return hops;
}

class TopologyRouting : public ::testing::TestWithParam<std::tuple<TopologyKind, int>> {};

TEST_P(TopologyRouting, RoutesAreValidChains) {
  const auto [kind, nodes] = GetParam();
  const MachineConfig cfg = config_for(kind);
  const auto topo = make_topology(cfg, nodes);
  ASSERT_NE(topo, nullptr);
  EXPECT_EQ(topo->kind(), kind);
  EXPECT_EQ(topo->num_nodes(), nodes);
  // All pairs at 8 nodes; a stride-derived sample at 64 keeps it fast while
  // still crossing every leaf/pod/group boundary.
  const int stride = nodes <= 8 ? 1 : 7;
  for (int s = 0; s < nodes; ++s) {
    for (int d = (s + 1) % stride; d < nodes; d += stride) {
      if (s == d) continue;
      check_pair_routes(*topo, s, d);
    }
  }
}

TEST_P(TopologyRouting, PathsAreMinimalOrAllowedDetours) {
  const auto [kind, nodes] = GetParam();
  const MachineConfig cfg = config_for(kind, nodes);
  const auto topo = make_topology(cfg, nodes);
  for (int s = 0; s < nodes; ++s) {
    for (int d = 0; d < nodes; ++d) {
      if (s == d) continue;
      const std::vector<int> hops = check_pair_routes(*topo, s, d);
      switch (kind) {
        case TopologyKind::kSpMultistage:
          // Always node-leaf-spine-leaf-node, even within a leaf (the SP
          // switch has no leaf turnaround).
          for (int h : hops) EXPECT_EQ(h, 4);
          break;
        case TopologyKind::kFatTree:
          // Host up/down (2), + leaf turnaround (2), + core crossing (2).
          for (int h : hops) {
            EXPECT_TRUE(h == 2 || h == 4 || h == 6) << "fattree hops=" << h;
          }
          break;
        case TopologyKind::kTorus2d:
        case TopologyKind::kTorus3d: {
          // Every route is a minimal dimension-order path: hop count equals
          // the sum of per-dimension shortest wrap distances.
          const auto dims = torus_dims(kind, nodes);
          for (int h : hops) EXPECT_EQ(h, torus_min_hops(s, d, dims[0], dims[1], dims[2]));
          break;
        }
        case TopologyKind::kDragonfly:
          // Route 0 minimal (host-local-global-local-host at most); Valiant
          // detours add one extra group crossing.
          EXPECT_LE(hops[0], 5);
          for (std::size_t i = 1; i < hops.size(); ++i) EXPECT_LE(hops[i], 7);
          break;
      }
    }
  }
}

TEST_P(TopologyRouting, SprayVisitsAllRoutes) {
  const auto [kind, nodes] = GetParam();
  Simulator sim;
  const MachineConfig cfg = config_for(kind);
  SwitchFabric fab(sim, cfg, nodes);
  std::set<int> seen;
  for (int i = 0; i < nodes; ++i) {
    fab.attach(i, [&seen](Packet&& p) { seen.insert(p.route); });
  }
  const int src = 0;
  const int dst = nodes - 1;
  const int nroutes = fab.route_count(src, dst);
  sim.at(0, [&] {
    for (int i = 0; i < 2 * nroutes; ++i) {
      Packet p;
      p.src = src;
      p.dst = dst;
      p.frame.assign(64, std::byte{0x5a});
      fab.inject(std::move(p));
    }
  });
  sim.run();
  EXPECT_EQ(static_cast<int>(seen.size()), nroutes)
      << topology_name(kind) << " spray must use every advertised route";
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, TopologyRouting,
    ::testing::Combine(::testing::ValuesIn(kAllKinds), ::testing::Values(8, 64)),
    [](const auto& info) {
      return std::string(topology_name(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// --- fabric behavior on non-SP topologies ----------------------------------

TEST(TopologyFabric, BatchingDefaultsPerTopology) {
  Simulator sim;
  MachineConfig cfg;
  EXPECT_FALSE(SwitchFabric(sim, cfg, 4).delivery_batching())
      << "SP multistage must keep unbatched delivery (golden digests)";
  cfg.topology = TopologyKind::kFatTree;
  EXPECT_TRUE(SwitchFabric(sim, cfg, 4).delivery_batching());
  cfg.fabric_delivery_batching = 0;
  EXPECT_FALSE(SwitchFabric(sim, cfg, 4).delivery_batching());
  cfg.topology = TopologyKind::kSpMultistage;
  cfg.fabric_delivery_batching = 1;
  EXPECT_TRUE(SwitchFabric(sim, cfg, 4).delivery_batching());
}

TEST(TopologyFabric, BatchedDeliveryMatchesDirectOrderPerDestination) {
  // The per-destination heap must deliver in exactly the (time, inject seq)
  // order the direct mode produces for that destination.
  auto arrivals = [](int batching) {
    Simulator sim;
    MachineConfig cfg;
    cfg.topology = TopologyKind::kTorus2d;
    cfg.fabric_delivery_batching = batching;
    cfg.route_skew_ns = 700;  // force cross-route reordering
    SwitchFabric fab(sim, cfg, 8);
    std::vector<std::pair<sim::TimeNs, int>> got;
    for (int i = 0; i < 8; ++i) {
      fab.attach(i, [&got, &sim](Packet&& p) {
        got.emplace_back(sim.now(), static_cast<int>(p.frame[0]));
      });
    }
    sim.at(0, [&] {
      for (int i = 0; i < 24; ++i) {
        Packet p;
        p.src = i % 3;
        p.dst = 5;
        p.frame.assign(256, std::byte{0});
        p.frame[0] = static_cast<std::byte>(i);
        fab.inject(std::move(p));
      }
    });
    sim.run();
    return got;
  };
  const auto direct = arrivals(0);
  const auto batched = arrivals(1);
  ASSERT_EQ(direct.size(), 24u);
  EXPECT_EQ(direct, batched);
}

TEST(TopologyFabric, GlobalLinkKnobsChargeExtraCost) {
  // Two dragonfly nodes in different groups must see the configured extra
  // global-link latency relative to an unscaled run.
  auto arrival = [](sim::TimeNs extra) {
    Simulator sim;
    MachineConfig cfg;
    cfg.topology = TopologyKind::kDragonfly;
    cfg.topo_global_extra_latency_ns = extra;
    SwitchFabric fab(sim, cfg, 32);  // two groups of 16
    sim::TimeNs at = -1;
    for (int i = 0; i < 32; ++i) {
      fab.attach(i, [&at, &sim](Packet&&) { at = sim.now(); });
    }
    sim.at(0, [&] {
      Packet p;
      p.src = 0;
      p.dst = 31;  // other group: exactly one global hop on the minimal route
      p.frame.assign(128, std::byte{0x11});
      fab.inject(std::move(p));
    });
    sim.run();
    return at;
  };
  EXPECT_EQ(arrival(10'000) - arrival(0), 10'000);
}

// --- per-topology determinism ----------------------------------------------

/// Run the alltoall storm twice on one topology and digest the telemetry
/// stream; both runs must agree bit-for-bit, and results must verify.
std::uint64_t storm_digest(TopologyKind kind, int nodes) {
  MachineConfig cfg = config_for(kind);
  cfg.telemetry_enabled = true;
  Machine m(cfg, nodes, Backend::kLapiEnhanced);
  m.run([](Mpi& mpi) {
    auto& w = mpi.world();
    const auto n = static_cast<std::size_t>(w.size());
    std::vector<double> src(32 * n, 0.5), dst(32 * n, 0.0);
    for (int r = 0; r < 4; ++r) {
      mpi.alltoall(src.data(), 32, dst.data(), sp::mpi::Datatype::kDouble, w);
      for (double v : dst) {
        if (v != 0.5) std::abort();
      }
    }
  });
  return m.telemetry()->digest();
}

class TopologyDeterminism : public ::testing::TestWithParam<std::tuple<TopologyKind, int>> {};

TEST_P(TopologyDeterminism, RunTwiceDigestsAgree) {
  const auto [kind, nodes] = GetParam();
  const std::uint64_t first = storm_digest(kind, nodes);
  SCOPED_TRACE(testing::Message() << topology_name(kind) << " digest=0x" << std::hex << first);
  EXPECT_EQ(first, storm_digest(kind, nodes));
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, TopologyDeterminism,
    ::testing::Combine(::testing::ValuesIn(kAllKinds), ::testing::Values(8, 64)),
    [](const auto& info) {
      return std::string(topology_name(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(TopologyMpi, ResultsIdenticalAcrossTopologies) {
  // Topology choice perturbs schedules, never results: an allreduce checksum
  // must match on every fabric.
  std::vector<double> ref;
  for (TopologyKind kind : kAllKinds) {
    MachineConfig cfg = config_for(kind);
    Machine m(cfg, 16, Backend::kLapiEnhanced);
    std::vector<double> out(256, 0.0);
    m.run([&out](Mpi& mpi) {
      auto& w = mpi.world();
      std::vector<double> in(256);
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = static_cast<double>(w.rank() + 1) * static_cast<double>(i % 17);
      }
      std::vector<double> local(256, 0.0);
      mpi.allreduce(in.data(), local.data(), 256, sp::mpi::Datatype::kDouble,
                    sp::mpi::Op::kSum, w);
      if (w.rank() == 0) out = local;
    });
    if (ref.empty()) {
      ref = out;
    } else {
      EXPECT_EQ(ref, out) << "allreduce result changed on " << topology_name(kind);
    }
  }
}

// --- topology-keyed collective selection -----------------------------------

/// What a bcast / allreduce call runs on a rank with no offload engine.
mpi::coll::BcastAlgo plan_bcast(const MachineConfig& cfg, std::size_t bytes, int n) {
  return static_cast<mpi::coll::BcastAlgo>(mpi::coll::plan(
      cfg, mpi::coll::Primitive::kBcast, bytes, n, mpi::Datatype::kByte, {}));
}
mpi::coll::AllreduceAlgo plan_allreduce(const MachineConfig& cfg, std::size_t bytes, int n) {
  return static_cast<mpi::coll::AllreduceAlgo>(mpi::coll::plan(
      cfg, mpi::coll::Primitive::kAllreduce, bytes, n, mpi::Datatype::kDouble, {}));
}

TEST(TopologySelection, TorusPrefersPipelinedBcastEarlier) {
  MachineConfig sp_cfg;
  MachineConfig torus = config_for(TopologyKind::kTorus3d);
  // 48 KiB at 16 ranks: scatter-allgather on the crossbar, but the torus
  // halves the pipeline cutover and always streams the neighbor chain.
  EXPECT_EQ(plan_bcast(sp_cfg, 48 * 1024, 16),
            mpi::coll::BcastAlgo::kScatterAllgather);
  EXPECT_EQ(plan_bcast(torus, 48 * 1024, 16), mpi::coll::BcastAlgo::kPipelined);
  // 20 KiB sits under the SP cutover but above the torus's halved one.
  EXPECT_EQ(plan_bcast(sp_cfg, 20 * 1024, 16), mpi::coll::BcastAlgo::kBinomial);
  EXPECT_EQ(plan_bcast(torus, 20 * 1024, 16), mpi::coll::BcastAlgo::kPipelined);
}

TEST(TopologySelection, FatTreeLowersRabenseifnerCutover) {
  MachineConfig sp_cfg;
  MachineConfig ft = config_for(TopologyKind::kFatTree);
  EXPECT_EQ(plan_allreduce(sp_cfg, 12 * 1024, 16),
            mpi::coll::AllreduceAlgo::kRecursiveDoubling);
  EXPECT_EQ(plan_allreduce(ft, 12 * 1024, 16),
            mpi::coll::AllreduceAlgo::kRabenseifner);
}

TEST(TopologySelection, DragonflyRaisesBruckBlockCeiling) {
  MachineConfig sp_cfg;
  MachineConfig df = config_for(TopologyKind::kDragonfly);
  EXPECT_EQ(mpi::coll::select_alltoall(sp_cfg, 2 * 1024, 16),
            mpi::coll::AlltoallAlgo::kPairwise);
  EXPECT_EQ(mpi::coll::select_alltoall(df, 2 * 1024, 16), mpi::coll::AlltoallAlgo::kBruck);
}

TEST(TopologySelection, PinsOverrideTopologyRules) {
  MachineConfig torus = config_for(TopologyKind::kTorus2d);
  torus.coll_bcast_algo = static_cast<int>(mpi::coll::BcastAlgo::kBinomial);
  EXPECT_EQ(plan_bcast(torus, 1 << 20, 16), mpi::coll::BcastAlgo::kBinomial);
}

TEST(TopologySelection, CutoverDifferenceExercisedEndToEnd) {
  // The 48 KiB bcast must produce identical bytes on both fabrics even
  // though the selection table picks different algorithms.
  auto run = [](TopologyKind kind) {
    MachineConfig cfg = config_for(kind);
    Machine m(cfg, 16, Backend::kLapiEnhanced);
    std::vector<std::uint8_t> got(48 * 1024, 0);
    m.run([&got](Mpi& mpi) {
      auto& w = mpi.world();
      std::vector<std::uint8_t> buf(48 * 1024);
      if (w.rank() == 0) {
        for (std::size_t i = 0; i < buf.size(); ++i) {
          buf[i] = static_cast<std::uint8_t>(i * 7 + 3);
        }
      }
      mpi.bcast(buf.data(), buf.size(), sp::mpi::Datatype::kByte, 0, w);
      if (w.rank() == 5) got = buf;
    });
    return got;
  };
  EXPECT_EQ(run(TopologyKind::kSpMultistage), run(TopologyKind::kTorus3d));
}

}  // namespace
}  // namespace sp::net
