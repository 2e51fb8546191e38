// Shared test fixtures (deduplicated from the individual suites).
//
// Everything here is used by two or more of determinism_test, telemetry_test,
// fault_injection_test and the mpi_*_test files: the lossy-fabric config
// builder, the bounded-recovery assertion, and the Fig. 11 ping-pong and
// early-arrival workloads.
// Keep additions header-only (inline) — every test target includes this.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "mpi/machine.hpp"

namespace sp::test {

/// SP_FAULT_SOAK=1 (the `ctest -L soak` variant / CI nightly) scales the
/// lossy workloads up; the default keeps the tier-1 suite fast.
inline bool soak_mode() {
  static const bool on = std::getenv("SP_FAULT_SOAK") != nullptr;
  return on;
}

/// A lossy-but-survivable fabric: random drops plus burst loss, duplicate
/// deliveries and delivery jitter, with a tightened retransmit timeout so
/// recovery doesn't dominate simulated (or host) time.
inline sim::MachineConfig lossy_config(double drop) {
  sim::MachineConfig cfg;
  cfg.packet_drop_rate = drop;
  cfg.packet_dup_rate = 0.01;
  cfg.packet_jitter_ns = 2'000;
  cfg.burst_drop_len = 2;
  cfg.retransmit_timeout_ns = 400'000;
  return cfg;
}

/// Retransmits are go-back-N: one timeout resends at most a window's worth of
/// packets, and duplicated deliveries can trigger spurious-looking (but
/// correct) re-acks, so bound the total against the injected faults rather
/// than expecting a 1:1 ratio.
inline void expect_bounded_recovery(const mpi::Machine& m) {
  const auto s = m.stats();
  const std::int64_t injected = s.fabric_dropped + s.fabric_duplicated;
  const std::int64_t retx = s.lapi_retransmits + s.pipes_retransmits + s.rdma_retransmits;
  EXPECT_LE(retx, (injected + 1) * 64) << "retransmit storm: " << retx << " resends for "
                                       << injected << " injected faults";
}

/// Fig. 11 ping-pong body: `iters` bounces of a `bytes`-sized buffer between
/// ranks 0 and 1. Run it inside Machine::run on a two-rank machine.
inline void pingpong_workload(mpi::Mpi& mpi, int iters, std::size_t bytes) {
  auto& w = mpi.world();
  std::vector<std::byte> buf(bytes);
  for (int i = 0; i < iters; ++i) {
    if (w.rank() == 0) {
      mpi.send(buf.data(), buf.size(), sp::mpi::Datatype::kByte, 1, 0, w);
      mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, 1, 0, w);
    } else {
      mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, 0, 0, w);
      mpi.send(buf.data(), buf.size(), sp::mpi::Datatype::kByte, 0, 0, w);
    }
  }
}

/// Build a two-rank machine, run the ping-pong to completion and hand the
/// machine back for stats / trace / telemetry inspection.
inline std::unique_ptr<mpi::Machine> run_pingpong(const sim::MachineConfig& cfg,
                                                  mpi::Backend backend, int iters,
                                                  std::size_t bytes) {
  auto m = std::make_unique<mpi::Machine>(cfg, 2, backend);
  m->run([iters, bytes](mpi::Mpi& mpi) { pingpong_workload(mpi, iters, bytes); });
  return m;
}

/// Four ranks with skewed routes: ranks 1-3 each start nine nonblocking sends
/// to rank 0 (empty, eager and rendezvous sizes over three tags) while rank 0
/// computes, so they all land in the early-arrival queue. Rank 0 then drains
/// the queue with iprobe and receives by exact, then wildcard, selectors, one
/// of them truncating. Then rank 0 polls iprobe while a truncated eager
/// streams into a bound early-arrival entry, and while a burst of 24
/// mixed-size eagers from rank 1 arrives (skewed routes reorder it, so on
/// LAPI some park), receiving half as they show up and the rest after a pause.
inline std::unique_ptr<mpi::Machine> run_early_arrival(sim::MachineConfig cfg,
                                                       mpi::Backend backend) {
  cfg.route_skew_ns = 20'000;
  auto m = std::make_unique<mpi::Machine>(cfg, 4, backend);
  m->run([](mpi::Mpi& mpi) {
    using sp::mpi::Datatype;
    using sp::mpi::kAnySource;
    using sp::mpi::kAnyTag;
    auto& w = mpi.world();
    constexpr std::size_t kSizes[] = {0, 2048, 16384};
    std::vector<std::byte> buf(16384, std::byte{1});
    if (w.rank() != 0) {
      std::vector<sp::mpi::Request> reqs;
      for (int i = 0; i < 9; ++i) {
        reqs.push_back(mpi.isend(buf.data(), kSizes[i % 3], Datatype::kByte, 0, i % 3, w));
      }
      mpi.waitall(reqs.data(), reqs.size());
      if (w.rank() != 1) return;
      mpi.recv(buf.data(), 1, Datatype::kByte, 0, 8, w);
      mpi.send(buf.data(), 2048, Datatype::kByte, 0, 7, w);
      mpi.recv(buf.data(), 1, Datatype::kByte, 0, 8, w);
      reqs.clear();
      for (int i = 0; i < 24; ++i) {
        reqs.push_back(mpi.isend(buf.data(), 64 + 173 * static_cast<std::size_t>(i),
                                 Datatype::kByte, 0, 9, w));
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
      mpi.recv(buf.data(), cap, Datatype::kByte, src, tag, w, &st);
    }
    auto trunc = mpi.irecv(buf.data(), 1000, Datatype::kByte, 1, 7, w);
    mpi.send(buf.data(), 1, Datatype::kByte, 1, 8, w);
    while (!mpi.test(trunc)) (void)mpi.iprobe(kAnySource, kAnyTag, w, &st);
    mpi.send(buf.data(), 1, Datatype::kByte, 1, 8, w);
    for (int got = 0; got < 12;) {
      if (mpi.iprobe(kAnySource, 9, w, &st)) {
        mpi.recv(buf.data(), buf.size(), Datatype::kByte, kAnySource, 9, w);
        ++got;
      }
    }
    mpi.compute(300'000);
    for (int i = 0; i < 12; ++i) {
      mpi.recv(buf.data(), buf.size(), Datatype::kByte, kAnySource, kAnyTag, w);
    }
  });
  return m;
}

}  // namespace sp::test
