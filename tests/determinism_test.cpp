// Determinism golden tests: the simulator's (time, seq) total order.
//
// Every protocol decision in the simulator hangs off the event queue's
// processing order, which is required to be a total order over (timestamp,
// insertion sequence) — independent of heap arity, pooling, or any other
// implementation detail of the queue. These tests run full workloads twice
// with tracing on, hash the complete event timeline, and require identical
// digests; two of the digests are additionally pinned to golden values so a
// queue or packet-path rework that silently perturbs event order fails here
// rather than in a subtly-shifted benchmark figure.
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
using sp::test::trace_digest;

/// Fig. 11 ping-pong: 64 iterations of an 8 KiB bounce between two ranks.
std::uint64_t pingpong_digest(Backend backend) {
  MachineConfig cfg;
  cfg.trace_enabled = true;
  const auto m = sp::test::run_pingpong(cfg, backend, 64, 8 * 1024);
  return trace_digest(*m->trace());
}

/// Eight ranks, twelve rounds of MPI_Alltoall with 2 KiB blocks: a storm of
/// crossing messages exercising out-of-order arrival across all four routes.
std::uint64_t alltoall_digest(Backend backend) {
  MachineConfig cfg;
  cfg.trace_enabled = true;
  Machine m(cfg, 8, backend);
  m.run([](Mpi& mpi) {
    auto& w = mpi.world();
    const auto n = static_cast<std::size_t>(w.size());
    std::vector<double> src(256 * n, 0.5), dst(256 * n, 0.0);
    for (int r = 0; r < 12; ++r) {
      mpi.alltoall(src.data(), 256, dst.data(), sp::mpi::Datatype::kDouble, w);
    }
  });
  return trace_digest(*m.trace());
}

/// Four ranks: ranks 1-3 each start nine nonblocking sends to rank 0 (empty,
/// eager and rendezvous sizes over three tags) while rank 0 computes, so they
/// all land in the early-arrival queue. Rank 0 then drains the queue with
/// iprobe and receives by exact, then wildcard, selectors, one of them
/// truncating. Then rank 0 polls iprobe while a truncated eager streams into
/// a bound early-arrival entry, and while a burst of 24 mixed-size eagers
/// from rank 1 arrives (skewed routes reorder it, so on LAPI some park),
/// receiving half as they show up and the rest after a pause.
std::uint64_t unexpected_digest(Backend backend) {
  MachineConfig cfg;
  cfg.trace_enabled = true;
  cfg.route_skew_ns = 20'000;
  Machine m(cfg, 4, backend);
  m.run([](Mpi& mpi) {
    using sp::mpi::kAnySource;
    using sp::mpi::kAnyTag;
    auto& w = mpi.world();
    constexpr std::size_t kSizes[] = {0, 2048, 16384};
    std::vector<std::byte> buf(16384, std::byte{1});
    if (w.rank() != 0) {
      std::vector<sp::mpi::Request> reqs;
      for (int i = 0; i < 9; ++i) {
        reqs.push_back(
            mpi.isend(buf.data(), kSizes[i % 3], sp::mpi::Datatype::kByte, 0, i % 3, w));
      }
      mpi.waitall(reqs.data(), reqs.size());
      if (w.rank() != 1) return;
      mpi.recv(buf.data(), 1, sp::mpi::Datatype::kByte, 0, 8, w);
      mpi.send(buf.data(), 2048, sp::mpi::Datatype::kByte, 0, 7, w);
      mpi.recv(buf.data(), 1, sp::mpi::Datatype::kByte, 0, 8, w);
      reqs.clear();
      for (int i = 0; i < 24; ++i) {
        reqs.push_back(mpi.isend(buf.data(), 64 + 173 * static_cast<std::size_t>(i),
                                 sp::mpi::Datatype::kByte, 0, 9, w));
      }
      mpi.waitall(reqs.data(), reqs.size());
      return;
    }
    mpi.compute(500'000);
    sp::mpi::Status st;
    for (int i = 0; i < 27; ++i) {
      const int src = i < 6 ? 1 + i % 3 : kAnySource;
      const int tag = i < 6 ? i % 3 : kAnyTag;
      if (!mpi.iprobe(src, tag, w, &st)) mpi.probe(src, tag, w, &st);
      const std::size_t cap = i == 10 ? 1000 : buf.size();
      mpi.recv(buf.data(), cap, sp::mpi::Datatype::kByte, src, tag, w, &st);
    }
    auto trunc = mpi.irecv(buf.data(), 1000, sp::mpi::Datatype::kByte, 1, 7, w);
    mpi.send(buf.data(), 1, sp::mpi::Datatype::kByte, 1, 8, w);
    while (!mpi.test(trunc)) (void)mpi.iprobe(kAnySource, kAnyTag, w, &st);
    mpi.send(buf.data(), 1, sp::mpi::Datatype::kByte, 1, 8, w);
    for (int got = 0; got < 12;) {
      if (mpi.iprobe(kAnySource, 9, w, &st)) {
        mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, kAnySource, 9, w);
        ++got;
      }
    }
    mpi.compute(300'000);
    for (int i = 0; i < 12; ++i) {
      mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, kAnySource, kAnyTag, w);
    }
  });
  return trace_digest(*m.trace());
}

// Golden digests captured from the seed event engine (std::function +
// std::push_heap). Any change to the event queue or packet path must leave
// the processing order — and therefore these digests — bit-identical. If a
// *cost model* change legitimately moves timestamps, re-capture via
// --gtest_filter=Determinism.* (the test logs the measured values).
constexpr std::uint64_t kGoldenPingPongEnhanced = 0xdbcf285952ec3da0ULL;
constexpr std::uint64_t kGoldenAlltoallEnhanced = 0xc3c38118293de855ULL;

TEST(Determinism, PingPongTraceIsReproducible) {
  const std::uint64_t first = pingpong_digest(Backend::kLapiEnhanced);
  const std::uint64_t second = pingpong_digest(Backend::kLapiEnhanced);
  SCOPED_TRACE(testing::Message() << "digest=0x" << std::hex << first);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, kGoldenPingPongEnhanced)
      << "event order changed: 0x" << std::hex << first;
}

TEST(Determinism, AlltoallTraceIsReproducible) {
  const std::uint64_t first = alltoall_digest(Backend::kLapiEnhanced);
  const std::uint64_t second = alltoall_digest(Backend::kLapiEnhanced);
  SCOPED_TRACE(testing::Message() << "digest=0x" << std::hex << first);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, kGoldenAlltoallEnhanced)
      << "event order changed: 0x" << std::hex << first;
}

// Per-backend goldens for the three workloads, captured before the MPCI
// matching queues moved into the Channel base. Every channel's matching
// charge lands in its trace timestamps, so a change to the shared matching
// layer that shifts a charge on any channel fails here.
struct BackendGolden {
  Backend backend;
  std::uint64_t pingpong;
  std::uint64_t alltoall;
  std::uint64_t unexpected;
};
// Columns: ping-pong, alltoall, early-arrival.
constexpr BackendGolden kBackendGoldens[] = {
    {Backend::kNativePipes, 0x3f333bf1a8768d7cULL, 0x68c5cfbd86ab4256ULL,
     0x08921f677b4b28efULL},
    {Backend::kLapiBase, 0x1f97ebc81776ab27ULL, 0xee8fe08c88885c72ULL, 0xd0c95168b6b59fa8ULL},
    {Backend::kLapiCounters, 0x0b609ba452ec6d27ULL, 0x68b69362e3ac73b3ULL,
     0x5dd0bd6ccf9dfa88ULL},
    {Backend::kLapiEnhanced, kGoldenPingPongEnhanced, kGoldenAlltoallEnhanced,
     0x231634add2411628ULL},
    {Backend::kRdma, 0xd435c793485db02fULL, 0x0091fec7782b0306ULL, 0xbe2f8e0ef95f4657ULL},
};

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
