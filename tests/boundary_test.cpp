// Boundary-value sweep: message sizes at the edges of every protocol
// threshold (zero bytes, one byte, the packet MTU, the first-packet capacity
// after the envelope, the eager limit, multi-packet sizes) across every
// backend — the classic home of off-by-one reassembly bugs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "mpi/coll.hpp"
#include "mpi/machine.hpp"

namespace sp::mpi {
namespace {

using sim::MachineConfig;

struct BoundaryParam {
  std::size_t size;
  Backend backend;
};

class BoundarySizes : public ::testing::TestWithParam<BoundaryParam> {};

TEST_P(BoundarySizes, RoundTripIntact) {
  MachineConfig cfg;
  Machine m(cfg, 2, GetParam().backend);
  const std::size_t n = GetParam().size;
  m.run([&](Mpi& mpi) {
    Comm& w = mpi.world();
    std::vector<std::uint8_t> buf(n + 1, 0xEE);  // +1 sentinel
    if (w.rank() == 0) {
      for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<std::uint8_t>(i * 131 + 17);
      mpi.send(buf.data(), n, Datatype::kByte, 1, 0, w);
      mpi.recv(buf.data(), n, Datatype::kByte, 1, 1, w);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>((i * 131 + 17) ^ 0xFF)) << "offset " << i;
      }
    } else {
      Status st;
      mpi.recv(buf.data(), n, Datatype::kByte, 0, 0, w, &st);
      EXPECT_EQ(st.len, n);
      EXPECT_EQ(buf[n], 0xEE) << "receive must not write past the message";
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i * 131 + 17)) << "offset " << i;
      }
      for (std::size_t i = 0; i < n; ++i) buf[i] ^= 0xFF;
      mpi.send(buf.data(), n, Datatype::kByte, 0, 1, w);
    }
  });
}

std::vector<BoundaryParam> boundary_params() {
  const MachineConfig cfg;
  const std::size_t mtu = cfg.packet_mtu;
  const std::size_t first_cap = mtu - 32;  // first-packet payload after the envelope
  const std::size_t eager = cfg.eager_limit;
  std::vector<std::size_t> sizes = {
      0,         1,          2,          first_cap - 1, first_cap, first_cap + 1,
      mtu - 1,   mtu,        mtu + 1,    2 * mtu - 1,   2 * mtu,   2 * mtu + 1,
      eager - 1, eager,      eager + 1,  3 * mtu + 7,   8 * mtu + 1};
  std::vector<BoundaryParam> out;
  for (Backend b : {Backend::kNativePipes, Backend::kLapiBase, Backend::kLapiCounters,
                    Backend::kLapiEnhanced, Backend::kRdma}) {
    for (std::size_t s : sizes) out.push_back({s, b});
  }
  return out;
}

std::string boundary_name(const ::testing::TestParamInfo<BoundaryParam>& info) {
  const char* b = info.param.backend == Backend::kNativePipes   ? "Native"
                  : info.param.backend == Backend::kLapiBase    ? "Base"
                  : info.param.backend == Backend::kLapiCounters ? "Counters"
                  : info.param.backend == Backend::kRdma         ? "Rdma"
                                                                 : "Enhanced";
  return std::string(b) + "_" + std::to_string(info.param.size) + "B";
}

INSTANTIATE_TEST_SUITE_P(Edges, BoundarySizes, ::testing::ValuesIn(boundary_params()),
                         boundary_name);

// ---------------------------------------------------------------------------
// Collective edge cases for the in-network combining engine (DESIGN.md §16):
// zero counts, size-1 communicators, self-only sub-comms, and sizes
// straddling the combining-table byte cap. Each reuses the PR 5 tag-hoist
// audit: every call must consume exactly one collective tag on every rank,
// so mixed comm sizes stay in lockstep.
// ---------------------------------------------------------------------------

sim::MachineConfig innet_cfg() {
  sim::MachineConfig cfg;
  std::string err;
  EXPECT_TRUE(coll::apply_algo_spec(
      cfg, "bcast=in_network,allreduce=in_network,barrier=in_network", &err))
      << err;
  return cfg;
}

TEST(CollEdge, InNetworkZeroCountIsWellDefined) {
  Machine m(innet_cfg(), 4, Backend::kLapiEnhanced);
  m.run([&](Mpi& mpi) {
    Comm& w = mpi.world();
    // count == 0 (null buffers) through the combining tables: must neither
    // crash nor desync, and the machine stays healthy afterwards.
    mpi.bcast(nullptr, 0, Datatype::kInt, 0, w);
    mpi.allreduce(nullptr, nullptr, 0, Datatype::kLong, Op::kSum, w);
    mpi.barrier(w);
    long mine = w.rank() + 1, sum = 0;
    mpi.allreduce(&mine, &sum, 1, Datatype::kLong, Op::kSum, w);
    EXPECT_EQ(sum, static_cast<long>(w.size()) * (w.size() + 1) / 2);
  });
  EXPECT_GT(m.stats().innet_collectives, 0);
}

TEST(CollEdge, InNetworkSizeOneComm) {
  Machine m(innet_cfg(), 1, Backend::kLapiEnhanced);
  m.run([&](Mpi& mpi) {
    Comm& w = mpi.world();
    mpi.barrier(w);
    long v = 41;
    mpi.bcast(&v, 1, Datatype::kLong, 0, w);
    EXPECT_EQ(v, 41);
    long out = -1;
    mpi.allreduce(&v, &out, 1, Datatype::kLong, Op::kSum, w);
    EXPECT_EQ(out, 41);
  });
}

TEST(CollEdge, InNetworkSelfCommKeepsTagsAligned) {
  // Rank 0 sits alone in its split colour: its size-1 sub-comm collectives
  // must consume the same number of tags as the size-(n-1) ones, and the
  // world-wide in-network allreduce afterwards must still line up.
  Machine m(innet_cfg(), 5, Backend::kLapiEnhanced);
  m.run([&](Mpi& mpi) {
    Comm& w = mpi.world();
    Comm sub = mpi.split(w, w.rank() == 0 ? 0 : 1, w.rank());
    mpi.barrier(sub);
    std::vector<long> b(4, sub.rank() == 0 ? 19 : -1);
    mpi.bcast(b.data(), 4, Datatype::kLong, 0, sub);
    for (long x : b) EXPECT_EQ(x, 19);
    long mine = w.rank(), total = -1;
    mpi.allreduce(&mine, &total, 1, Datatype::kLong, Op::kSum, sub);
    long world_total = -1;
    mpi.allreduce(&mine, &world_total, 1, Datatype::kLong, Op::kSum, w);
    EXPECT_EQ(world_total, static_cast<long>(w.size()) * (w.size() - 1) / 2);
  });
  EXPECT_GT(m.stats().innet_collectives, 0);
}

TEST(CollEdge, InNetworkCapStraddleFallsBackCleanly) {
  // Vectors one element under, at, and over in_network_coll_max_bytes: the
  // over-cap call must fall back to the host engine on every rank (no rank
  // may disagree about the path) and all three must reduce correctly. With
  // telemetry on, each call must count exactly one algorithm per rank: the
  // over-cap fallback opens no in-network span before its host one.
  sim::MachineConfig cfg = innet_cfg();
  cfg.telemetry_enabled = true;
  const std::size_t cap = cfg.in_network_coll_max_bytes / sizeof(long);
  Machine m(cfg, 4, Backend::kLapiEnhanced);
  m.run([&](Mpi& mpi) {
    Comm& w = mpi.world();
    const int n = w.size();
    for (const std::size_t count : {cap - 1, cap, cap + 1}) {
      std::vector<long> in(count), out(count, -1);
      for (std::size_t i = 0; i < count; ++i) {
        in[i] = static_cast<long>(i) + w.rank() + 1;
      }
      mpi.allreduce(in.data(), out.data(), count, Datatype::kLong, Op::kSum, w);
      std::size_t bad = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const long want = static_cast<long>(n) * (static_cast<long>(i) + 1) +
                          static_cast<long>(n) * (n - 1) / 2;
        if (out[i] != want) ++bad;
      }
      EXPECT_EQ(bad, 0u) << "count=" << count << " rank=" << w.rank();
      std::vector<long> b(count, w.rank() == 0 ? 7 : -1);
      mpi.bcast(b.data(), count, Datatype::kLong, 0, w);
      EXPECT_EQ(std::count(b.begin(), b.end(), 7L), static_cast<long>(count));
    }
  });
  const auto s = m.stats();
  EXPECT_GT(s.innet_collectives, 0);  // the in-cap calls went in-network
  const sim::Telemetry& t = *m.telemetry();
  auto total = [&t](std::initializer_list<sim::CollAlgo> algos) {
    std::uint64_t sum = 0;
    for (sim::CollAlgo a : algos) sum += t.coll_count_total(a);
    return sum;
  };
  using A = sim::CollAlgo;
  // 3 calls of each primitive on 4 ranks; two fit the table, one falls back.
  EXPECT_EQ(total({A::kAllreduceInNetwork}), 8u);
  EXPECT_EQ(total({A::kAllreduceReduceBcast, A::kAllreduceRecursiveDoubling,
                   A::kAllreduceRabenseifner, A::kAllreduceNicOffload,
                   A::kAllreduceInNetwork}),
            12u);
  EXPECT_EQ(total({A::kBcastInNetwork}), 8u);
  EXPECT_EQ(total({A::kBcastBinomial, A::kBcastPipelined, A::kBcastScatterAllgather,
                   A::kBcastNicOffload, A::kBcastInNetwork}),
            12u);
}

}  // namespace
}  // namespace sp::mpi
