// Determinism golden tests: the simulator's (time, seq) total order.
//
// Every protocol decision in the simulator hangs off the event queue's
// processing order, which is required to be a total order over (timestamp,
// insertion sequence) — independent of heap arity, pooling, or any other
// implementation detail of the queue. The queue folds the (time, seq) of
// every event it runs into a schedule digest. These tests run full workloads
// twice with no instrumentation switched on and require identical digests;
// the digests are also pinned to golden values for every backend, so a queue
// or packet-path rework that silently perturbs event order fails here rather
// than in a subtly-shifted benchmark figure.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "mpi/machine.hpp"
#include "test_harness.hpp"

namespace {

using sp::mpi::Backend;
using sp::mpi::Machine;
using sp::mpi::Mpi;
using sp::sim::MachineConfig;

/// Fig. 11 ping-pong: 64 iterations of an 8 KiB bounce between two ranks.
std::unique_ptr<Machine> run_pingpong(const MachineConfig& cfg, Backend backend) {
  return sp::test::run_pingpong(cfg, backend, 64, 8 * 1024);
}

std::uint64_t pingpong_digest(Backend backend) {
  return run_pingpong(MachineConfig{}, backend)->schedule_digest();
}

/// Eight ranks, twelve rounds of MPI_Alltoall with 2 KiB blocks: a storm of
/// crossing messages exercising out-of-order arrival across all four routes.
std::unique_ptr<Machine> run_alltoall(const MachineConfig& cfg, Backend backend) {
  auto m = std::make_unique<Machine>(cfg, 8, backend);
  m->run([](Mpi& mpi) {
    auto& w = mpi.world();
    const auto n = static_cast<std::size_t>(w.size());
    std::vector<double> src(256 * n, 0.5), dst(256 * n, 0.0);
    for (int r = 0; r < 12; ++r) {
      mpi.alltoall(src.data(), 256, dst.data(), sp::mpi::Datatype::kDouble, w);
    }
  });
  return m;
}

std::uint64_t alltoall_digest(Backend backend) {
  return run_alltoall(MachineConfig{}, backend)->schedule_digest();
}

/// The four-rank early-arrival queue workout (test_harness.hpp).
std::uint64_t unexpected_digest(Backend backend) {
  return sp::test::run_early_arrival(MachineConfig{}, backend)->schedule_digest();
}

/// A lossy run's schedule digest plus the reliability counters of the
/// transport the backend's channel rides on (Pipes, LAPI or the RDMA NIC).
struct LossyGolden {
  std::uint64_t digest;
  std::int64_t retransmits;
  std::int64_t duplicates;
  std::int64_t acks;
  std::int64_t reacks_coalesced;

  bool operator==(const LossyGolden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const LossyGolden& g) {
  return os << "{0x" << std::hex << g.digest << std::dec << "ULL, " << g.retransmits << ", "
            << g.duplicates << ", " << g.acks << ", " << g.reacks_coalesced << "}";
}

LossyGolden lossy_golden(const Machine& m, Backend backend) {
  const Machine::Stats s = m.stats();
  switch (backend) {
    case Backend::kNativePipes:
      return {m.schedule_digest(), s.pipes_retransmits, s.pipes_duplicate_deliveries,
              s.pipes_acks, s.pipes_reacks_coalesced};
    case Backend::kRdma:
      return {m.schedule_digest(), s.rdma_retransmits, s.rdma_duplicate_deliveries, s.rdma_acks,
              s.rdma_reacks_coalesced};
    default:
      return {m.schedule_digest(), s.lapi_retransmits, s.lapi_duplicate_deliveries, s.lapi_acks,
              s.lapi_reacks_coalesced};
  }
}

// Golden schedule digests (FNV-1a over the (at, seq) of every event run),
// one row per backend. Every channel's protocol and matching charges land in
// its event timestamps, so a change to the event queue, the packet path or
// the shared matching layer that shifts any event on any channel fails here.
// The lossy columns rerun ping-pong and alltoall under lossy_config(0.02), so
// retransmits, duplicate filtering and re-ack coalescing are pinned too.
// If a *cost model* change legitimately moves timestamps, re-capture via
// --gtest_filter=Determinism.* (the failures log the measured values).
struct BackendGolden {
  Backend backend;
  std::uint64_t pingpong;
  std::uint64_t alltoall;
  std::uint64_t unexpected;
  LossyGolden lossy_pingpong;
  LossyGolden lossy_alltoall;
};
// Columns: ping-pong, alltoall, early-arrival; lossy ping-pong, lossy
// alltoall as {digest, retransmits, duplicates, acks, coalesced re-acks}.
constexpr BackendGolden kBackendGoldens[] = {
    {Backend::kNativePipes, 0x7b00e304de6a2725ULL, 0xebd25fe71036b699ULL,
     0x46e90cf08b9f1ab3ULL, {0x439286e4fa428e07ULL, 157, 111, 346, 69},
     {0x0257bc31b9dfb208ULL, 163, 86, 769, 28}},
    {Backend::kLapiBase, 0x0695e0754430b9f6ULL, 0x69553fb5cec49aafULL, 0xc8fe8d560be7d1daULL,
     {0xfa1c2cebe5160187ULL, 179, 132, 435, 84},
     {0x7615e85a5ccc71c1ULL, 170, 100, 769, 39}},
    {Backend::kLapiCounters, 0x6290f302c1193a49ULL, 0x7dda2b71aea17a15ULL,
     0x7aa3b3b832545feeULL, {0x23e6eefaa2686fbdULL, 186, 143, 355, 96},
     {0x4772e669a6bd9b1fULL, 167, 83, 769, 30}},
    {Backend::kLapiEnhanced, 0x2cb95b983dd51092ULL, 0xdd5350353698eb00ULL,
     0xc94eb735f63d09dbULL, {0xecb14b9482b20fd6ULL, 187, 146, 357, 95},
     {0x73c53e46849f07a5ULL, 166, 84, 766, 34}},
    {Backend::kRdma, 0xb5ceb2d2e92b1332ULL, 0xd5e49f72ced476e2ULL, 0x69d4ecdf598495afULL,
     {0xf8eb9e60b0e4ee7cULL, 131, 89, 342, 48},
     {0x3dc0f6dc7ab01af2ULL, 178, 117, 781, 53}},
};
constexpr const BackendGolden& kEnhanced = kBackendGoldens[3];

TEST(Determinism, PingPongTraceIsReproducible) {
  const std::uint64_t first = pingpong_digest(Backend::kLapiEnhanced);
  const std::uint64_t second = pingpong_digest(Backend::kLapiEnhanced);
  SCOPED_TRACE(testing::Message() << "digest=0x" << std::hex << first);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, kEnhanced.pingpong) << "event order changed: 0x" << std::hex << first;
}

TEST(Determinism, AlltoallTraceIsReproducible) {
  const std::uint64_t first = alltoall_digest(Backend::kLapiEnhanced);
  const std::uint64_t second = alltoall_digest(Backend::kLapiEnhanced);
  SCOPED_TRACE(testing::Message() << "digest=0x" << std::hex << first);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, kEnhanced.alltoall) << "event order changed: 0x" << std::hex << first;
}

TEST(Determinism, EveryBackendMatchesItsGoldenDigests) {
  for (const BackendGolden& g : kBackendGoldens) {
    SCOPED_TRACE(sp::mpi::backend_name(g.backend));
    const std::uint64_t pp = pingpong_digest(g.backend);
    const std::uint64_t a2a = alltoall_digest(g.backend);
    const std::uint64_t ea = unexpected_digest(g.backend);
    EXPECT_EQ(pp, g.pingpong) << "ping-pong event order changed: 0x" << std::hex << pp;
    EXPECT_EQ(a2a, g.alltoall) << "alltoall event order changed: 0x" << std::hex << a2a;
    EXPECT_EQ(ea, g.unexpected) << "early-arrival event order changed: 0x" << std::hex << ea;
  }
}

TEST(Determinism, EveryBackendMatchesItsLossyGoldens) {
  const MachineConfig lossy = sp::test::lossy_config(0.02);
  for (const BackendGolden& g : kBackendGoldens) {
    SCOPED_TRACE(sp::mpi::backend_name(g.backend));
    const LossyGolden pp = lossy_golden(*run_pingpong(lossy, g.backend), g.backend);
    const LossyGolden a2a = lossy_golden(*run_alltoall(lossy, g.backend), g.backend);
    EXPECT_GT(pp.retransmits, 0) << "the lossy ping-pong never retransmitted";
    EXPECT_GT(a2a.retransmits, 0) << "the lossy alltoall never retransmitted";
    EXPECT_EQ(pp, g.lossy_pingpong) << "lossy ping-pong changed";
    EXPECT_EQ(a2a, g.lossy_alltoall) << "lossy alltoall changed";
  }
}

TEST(Determinism, NativePipesTraceIsReproducible) {
  EXPECT_EQ(pingpong_digest(Backend::kNativePipes), pingpong_digest(Backend::kNativePipes));
  EXPECT_EQ(alltoall_digest(Backend::kNativePipes), alltoall_digest(Backend::kNativePipes));
}

}  // namespace
