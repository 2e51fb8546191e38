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
#include <vector>

#include "mpi/machine.hpp"
#include "test_harness.hpp"

namespace {

using sp::mpi::Backend;
using sp::mpi::Machine;
using sp::mpi::Mpi;
using sp::sim::MachineConfig;

/// Fig. 11 ping-pong: 64 iterations of an 8 KiB bounce between two ranks.
std::uint64_t pingpong_digest(Backend backend) {
  return sp::test::run_pingpong(MachineConfig{}, backend, 64, 8 * 1024)->schedule_digest();
}

/// Eight ranks, twelve rounds of MPI_Alltoall with 2 KiB blocks: a storm of
/// crossing messages exercising out-of-order arrival across all four routes.
std::uint64_t alltoall_digest(Backend backend) {
  Machine m(MachineConfig{}, 8, backend);
  m.run([](Mpi& mpi) {
    auto& w = mpi.world();
    const auto n = static_cast<std::size_t>(w.size());
    std::vector<double> src(256 * n, 0.5), dst(256 * n, 0.0);
    for (int r = 0; r < 12; ++r) {
      mpi.alltoall(src.data(), 256, dst.data(), sp::mpi::Datatype::kDouble, w);
    }
  });
  return m.schedule_digest();
}

/// The four-rank early-arrival queue workout (test_harness.hpp).
std::uint64_t unexpected_digest(Backend backend) {
  return sp::test::run_early_arrival(MachineConfig{}, backend)->schedule_digest();
}

// Golden schedule digests (FNV-1a over the (at, seq) of every event run),
// one row per backend. Every channel's protocol and matching charges land in
// its event timestamps, so a change to the event queue, the packet path or
// the shared matching layer that shifts any event on any channel fails here.
// If a *cost model* change legitimately moves timestamps, re-capture via
// --gtest_filter=Determinism.* (the failures log the measured values).
struct BackendGolden {
  Backend backend;
  std::uint64_t pingpong;
  std::uint64_t alltoall;
  std::uint64_t unexpected;
};
// Columns: ping-pong, alltoall, early-arrival.
constexpr BackendGolden kBackendGoldens[] = {
    {Backend::kNativePipes, 0x7b00e304de6a2725ULL, 0xebd25fe71036b699ULL,
     0x46e90cf08b9f1ab3ULL},
    {Backend::kLapiBase, 0x0695e0754430b9f6ULL, 0x69553fb5cec49aafULL, 0xc8fe8d560be7d1daULL},
    {Backend::kLapiCounters, 0x6290f302c1193a49ULL, 0x7dda2b71aea17a15ULL,
     0x7aa3b3b832545feeULL},
    {Backend::kLapiEnhanced, 0x2cb95b983dd51092ULL, 0xdd5350353698eb00ULL,
     0xc94eb735f63d09dbULL},
    {Backend::kRdma, 0xb5ceb2d2e92b1332ULL, 0xd5e49f72ced476e2ULL, 0x69d4ecdf598495afULL},
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

TEST(Determinism, NativePipesTraceIsReproducible) {
  EXPECT_EQ(pingpong_digest(Backend::kNativePipes), pingpong_digest(Backend::kNativePipes));
  EXPECT_EQ(alltoall_digest(Backend::kNativePipes), alltoall_digest(Backend::kNativePipes));
}

}  // namespace
