// Fault-injection soak tests: the reliability layers under fabric loss.
//
// The switch fabric can drop, duplicate, jitter and burst-drop packets
// (MachineConfig fault knobs, all seeded and deterministic). These tests run
// full MPI workloads — ping-pong, collectives, the NAS mini-kernels — to
// completion under 1–5% loss on every backend, verify the delivered data,
// bound the retransmit count against the injected loss, and pin the lossy
// event timeline to be bit-identical for a fixed seed. A LinkRig section
// unit-tests the transport fixes directly: duplicate re-ack coalescing, the
// owed-ack retry after a HAL-full failure, deadline-based retransmit timing
// and 32-bit wire sequence wrap.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lapi/reliable_link.hpp"
#include "lapi/wire.hpp"
#include "mpi/coll.hpp"
#include "mpi/machine.hpp"
#include "nas/kernels.hpp"
#include "test_harness.hpp"

namespace {

using sp::mpi::Backend;
using sp::mpi::Machine;
using sp::mpi::Mpi;
using sp::sim::MachineConfig;
using sp::test::expect_bounded_recovery;
using sp::test::lossy_config;
using sp::test::soak_mode;

struct SoakParam {
  Backend backend;
  double drop;
};

std::string soak_name(const ::testing::TestParamInfo<SoakParam>& info) {
  std::string b = info.param.backend == Backend::kNativePipes ? "Native"
                  : info.param.backend == Backend::kLapiBase  ? "Base"
                  : info.param.backend == Backend::kRdma      ? "Rdma"
                                                              : "Enhanced";
  return b + (info.param.drop < 0.03 ? "_drop1pct" : "_drop5pct");
}

class FaultSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(FaultSoak, PingPongCompletesWithDataIntact) {
  MachineConfig cfg = lossy_config(GetParam().drop);
  Machine m(cfg, 2, GetParam().backend);
  const int iters = soak_mode() ? 64 : 16;
  static constexpr std::size_t kLen = 8 * 1024;
  m.run([iters](Mpi& mpi) {
    auto& w = mpi.world();
    std::vector<std::uint8_t> buf(kLen);
    for (int i = 0; i < iters; ++i) {
      if (w.rank() == 0) {
        for (std::size_t k = 0; k < kLen; ++k) {
          buf[k] = static_cast<std::uint8_t>(k + static_cast<std::size_t>(i));
        }
        mpi.send(buf.data(), kLen, sp::mpi::Datatype::kByte, 1, 0, w);
        std::fill(buf.begin(), buf.end(), 0);
        mpi.recv(buf.data(), kLen, sp::mpi::Datatype::kByte, 1, 0, w);
      } else {
        mpi.recv(buf.data(), kLen, sp::mpi::Datatype::kByte, 0, 0, w);
        mpi.send(buf.data(), kLen, sp::mpi::Datatype::kByte, 0, 0, w);
      }
      // Both ranks hold the echoed buffer: verify every byte round-tripped.
      for (std::size_t k = 0; k < kLen; ++k) {
        ASSERT_EQ(buf[k], static_cast<std::uint8_t>(k + static_cast<std::size_t>(i)))
            << "iter " << i << " offset " << k;
      }
    }
  });
  const auto s = m.stats();
  EXPECT_GT(s.fabric_dropped, 0) << "fault injection never fired";
  expect_bounded_recovery(m);
}

TEST_P(FaultSoak, AlltoallCompletesWithDataIntact) {
  MachineConfig cfg = lossy_config(GetParam().drop);
  const int nodes = soak_mode() ? 8 : 4;
  const int rounds = soak_mode() ? 8 : 3;
  Machine m(cfg, nodes, GetParam().backend);
  m.run([rounds](Mpi& mpi) {
    auto& w = mpi.world();
    const auto n = static_cast<std::size_t>(w.size());
    const auto me = static_cast<std::size_t>(w.rank());
    std::vector<std::int64_t> src(512 * n), dst(512 * n);
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t k = 0; k < 512; ++k) {
          src[p * 512 + k] = static_cast<std::int64_t>(me * 1'000'000 + p * 1'000 + k + 7 *
                                                       static_cast<std::size_t>(r));
        }
      }
      std::fill(dst.begin(), dst.end(), -1);
      mpi.alltoall(src.data(), 512 * 8, dst.data(), sp::mpi::Datatype::kByte, w);
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t k = 0; k < 512; ++k) {
          ASSERT_EQ(dst[p * 512 + k],
                    static_cast<std::int64_t>(p * 1'000'000 + me * 1'000 + k + 7 *
                                              static_cast<std::size_t>(r)))
              << "round " << r << " from rank " << p << " word " << k;
        }
      }
    }
  });
  expect_bounded_recovery(m);
}

INSTANTIATE_TEST_SUITE_P(BackendsAndRates, FaultSoak,
                         ::testing::Values(SoakParam{Backend::kNativePipes, 0.01},
                                           SoakParam{Backend::kNativePipes, 0.05},
                                           SoakParam{Backend::kLapiBase, 0.05},
                                           SoakParam{Backend::kLapiEnhanced, 0.01},
                                           SoakParam{Backend::kLapiEnhanced, 0.05},
                                           SoakParam{Backend::kRdma, 0.01},
                                           SoakParam{Backend::kRdma, 0.05}),
                         soak_name);

TEST(FaultSoakNas, KernelsVerifyUnderLoss) {
  // The NAS mini-kernels self-verify, so a single lossy run checks both
  // progress (no hang) and end-to-end data integrity through collectives.
  for (double drop : {0.01, 0.05}) {
    for (Backend b : {Backend::kNativePipes, Backend::kLapiEnhanced, Backend::kRdma}) {
      int ran = 0;
      for (auto& [name, fn] : sp::nas::all_kernels()) {
        if (!soak_mode() && ++ran > 2) break;  // soak runs every kernel
        MachineConfig cfg = lossy_config(drop);
        // Telemetry with a deliberately small ring: the byte cap must hold
        // however much a lossy run emits, and must not perturb recovery.
        cfg.telemetry_enabled = true;
        cfg.telemetry_ring_bytes = 64 * 1024;
        cfg.telemetry_ring_bytes_per_node = 0;  // exact cap: no node floor
        Machine m(cfg, 4, b);
        sp::nas::KernelResult res;
        m.run([&, f = fn](Mpi& mpi) {
          auto r = f(mpi, 1);
          if (mpi.world().rank() == 0) res = r;
        });
        EXPECT_TRUE(res.verified)
            << name << " on " << sp::mpi::backend_name(b) << " at drop=" << drop;
        EXPECT_LE(m.telemetry()->ring_bytes_in_use(), cfg.telemetry_ring_bytes);
        expect_bounded_recovery(m);
      }
    }
  }
}

TEST(FaultSoak, PinnedCollectiveAlgorithmsSurviveLoss) {
  // Algorithm x loss sweep: every non-default collective algorithm, pinned
  // via the same spec strings `spsim --coll-algo` accepts, must deliver
  // bit-exact results under fabric loss and stay within the retransmit
  // budget. The quick tier samples one loss rate on the enhanced backend;
  // soak crosses every spec with both rates and both transports.
  // The NIC specs pin the adapter-resident algorithms: on the RDMA channel
  // they offload (size permitting), on host channels they resolve to the host
  // auto choice — either way the results must be bit-exact under loss.
  static const char* const kSpecs[] = {
      "bcast=pipelined",       "bcast=scatter_allgather",
      "allreduce=recursive_doubling", "allreduce=rabenseifner",
      "alltoall=bruck",        "reduce_scatter=recursive_halving",
      "scan=binomial",         "bcast=nic,allreduce=nic,barrier=nic",
      // The combining-table state machine must survive drop/dup/retransmit
      // without double-combining (the element seen-flags); big vectors fall
      // back to the host engine, the small ones below go through the switch.
      "bcast=in_network,allreduce=in_network,barrier=in_network"};
  const std::vector<double> drops =
      soak_mode() ? std::vector<double>{0.01, 0.05} : std::vector<double>{0.03};
  const std::vector<Backend> backends =
      soak_mode() ? std::vector<Backend>{Backend::kNativePipes, Backend::kLapiEnhanced,
                                         Backend::kRdma}
                  : std::vector<Backend>{Backend::kLapiEnhanced, Backend::kRdma};
  const int nodes = soak_mode() ? 8 : 5;  // 5 is non-power-of-two: pre-fold under loss
  for (const char* spec : kSpecs) {
    for (double drop : drops) {
      for (Backend b : backends) {
        MachineConfig cfg = lossy_config(drop);
        std::string err;
        ASSERT_TRUE(sp::mpi::coll::apply_algo_spec(cfg, spec, &err)) << spec << ": " << err;
        Machine m(cfg, nodes, b);
        int bad = 0;  // fibers are cooperative, so plain int aggregation is safe
        m.run([&](Mpi& mpi) {
          auto& w = mpi.world();
          const int n = w.size();
          const int me = w.rank();
          auto val = [](int r, std::size_t i) {
            return (static_cast<std::uint64_t>(r) + 1) * 1000003ULL + i * 97;
          };
          // 32 KiB of longs clears every large-message cutover even on auto.
          constexpr std::size_t kBig = 4096;
          constexpr std::size_t kSmall = 64;
          std::vector<std::uint64_t> in(kBig), out(kBig), ref(kBig);

          for (std::size_t i = 0; i < kBig; ++i) {
            in[i] = val(me, i);
            ref[i] = 0;
            for (int r = 0; r < n; ++r) ref[i] += val(r, i);
          }
          mpi.allreduce(in.data(), out.data(), kBig, sp::mpi::Datatype::kLong,
                        sp::mpi::Op::kSum, w);
          if (std::memcmp(out.data(), ref.data(), kBig * 8) != 0) ++bad;
          mpi.barrier(w);  // exercises barrier=nic / barrier=in_network under loss

          // Small (512 B) allreduce + bcast: fits the NIC and combining-table
          // caps, so offloaded pins run their actual protocol under loss.
          mpi.allreduce(in.data(), out.data(), kSmall, sp::mpi::Datatype::kLong,
                        sp::mpi::Op::kSum, w);
          for (std::size_t i = 0; i < kSmall; ++i) {
            if (out[i] != ref[i]) ++bad;
          }
          if (me == 0) {
            for (std::size_t i = 0; i < kSmall; ++i) out[i] = val(0, i) * 9 + 1;
          } else {
            std::fill(out.begin(), out.begin() + kSmall, 0);
          }
          mpi.bcast(out.data(), kSmall, sp::mpi::Datatype::kLong, 0, w);
          for (std::size_t i = 0; i < kSmall; ++i) {
            if (out[i] != val(0, i) * 9 + 1) ++bad;
          }

          if (me == n - 1) {
            for (std::size_t i = 0; i < kBig; ++i) out[i] = val(n - 1, i) * 5 + 3;
          } else {
            std::fill(out.begin(), out.end(), 0);
          }
          mpi.bcast(out.data(), kBig, sp::mpi::Datatype::kLong, n - 1, w);
          for (std::size_t i = 0; i < kBig; ++i) {
            if (out[i] != val(n - 1, i) * 5 + 3) ++bad;
          }

          mpi.scan(in.data(), out.data(), kSmall, sp::mpi::Datatype::kLong,
                   sp::mpi::Op::kSum, w);
          for (std::size_t i = 0; i < kSmall; ++i) {
            std::uint64_t want = 0;
            for (int r = 0; r <= me; ++r) want += val(r, i);
            if (out[i] != want) ++bad;
          }

          std::vector<std::uint64_t> blocks(kSmall * static_cast<std::size_t>(n));
          std::vector<std::uint64_t> gathered(kSmall * static_cast<std::size_t>(n));
          for (int d = 0; d < n; ++d) {
            for (std::size_t i = 0; i < kSmall; ++i) {
              blocks[static_cast<std::size_t>(d) * kSmall + i] =
                  val(me, i + static_cast<std::size_t>(d) * 131);
            }
          }
          mpi.alltoall(blocks.data(), kSmall * 8, gathered.data(),
                       sp::mpi::Datatype::kByte, w);
          for (int s = 0; s < n; ++s) {
            for (std::size_t i = 0; i < kSmall; ++i) {
              if (gathered[static_cast<std::size_t>(s) * kSmall + i] !=
                  val(s, i + static_cast<std::size_t>(me) * 131)) {
                ++bad;
              }
            }
          }

          for (std::size_t i = 0; i < blocks.size(); ++i) blocks[i] = val(me, i);
          std::vector<std::uint64_t> mine(kSmall);
          mpi.reduce_scatter_block(blocks.data(), mine.data(), kSmall,
                                   sp::mpi::Datatype::kLong, sp::mpi::Op::kSum, w);
          for (std::size_t i = 0; i < kSmall; ++i) {
            std::uint64_t want = 0;
            for (int r = 0; r < n; ++r) {
              want += val(r, static_cast<std::size_t>(me) * kSmall + i);
            }
            if (mine[i] != want) ++bad;
          }
        });
        EXPECT_EQ(bad, 0) << spec << " drop=" << drop << " on "
                          << sp::mpi::backend_name(b);
        EXPECT_GT(m.stats().fabric_dropped, 0) << "fault injection never fired";
        expect_bounded_recovery(m);
      }
    }
  }
}

TEST(FaultSoak, StatsAccountForInjectedFaults) {
  // At 5% drop + 5% dup every counter in the chain must move: fabric-level
  // drops and duplicates, transport retransmits, duplicate deliveries
  // filtered at the receiver, and explicit acks.
  MachineConfig cfg = lossy_config(0.05);
  cfg.packet_dup_rate = 0.05;
  Machine m(cfg, 2, Backend::kLapiEnhanced);
  m.run([](Mpi& mpi) { sp::test::pingpong_workload(mpi, 8, 64 * 1024); });
  const auto s = m.stats();
  EXPECT_GT(s.fabric_dropped, 0);
  EXPECT_GT(s.fabric_duplicated, 0);
  EXPECT_GT(s.lapi_retransmits, 0);
  EXPECT_GT(s.lapi_duplicate_deliveries, 0);
  EXPECT_GT(s.lapi_acks, 0);
}

TEST(FaultSoak, RdmaStatsAccountForInjectedFaults) {
  // Same chain on the RDMA channel: its RC-QP transport must retransmit,
  // filter duplicates and ack, and the 64 KiB bounces must go through the
  // RDMA-read rendezvous path.
  MachineConfig cfg = lossy_config(0.05);
  cfg.packet_dup_rate = 0.05;
  Machine m(cfg, 2, Backend::kRdma);
  m.run([](Mpi& mpi) { sp::test::pingpong_workload(mpi, 8, 64 * 1024); });
  const auto s = m.stats();
  EXPECT_GT(s.fabric_dropped, 0);
  EXPECT_GT(s.fabric_duplicated, 0);
  EXPECT_GT(s.rdma_retransmits, 0);
  EXPECT_GT(s.rdma_duplicate_deliveries, 0);
  EXPECT_GT(s.rdma_acks, 0);
  EXPECT_GT(s.rdma_reads, 0);
}

// --- lossy determinism ------------------------------------------------------

std::uint64_t lossy_digest(std::uint64_t seed) {
  MachineConfig cfg = lossy_config(0.03);
  cfg.fabric_seed = seed;
  Machine m(cfg, 4, Backend::kLapiEnhanced);
  m.run([](Mpi& mpi) {
    auto& w = mpi.world();
    const auto n = static_cast<std::size_t>(w.size());
    std::vector<double> src(256 * n, 0.25), dst(256 * n, 0.0);
    for (int r = 0; r < 4; ++r) {
      mpi.alltoall(src.data(), 256, dst.data(), sp::mpi::Datatype::kDouble, w);
    }
  });
  return m.schedule_digest();
}

TEST(FaultDeterminism, SameSeedSameLossyTimeline) {
  const std::uint64_t first = lossy_digest(0x100);
  const std::uint64_t second = lossy_digest(0x100);
  EXPECT_EQ(first, second) << "lossy run is not reproducible for a fixed seed";
}

TEST(FaultDeterminism, DifferentSeedDifferentLossPattern) {
  EXPECT_NE(lossy_digest(0x100), lossy_digest(0x101));
}

}  // namespace

// --- transport unit tests (the reliability fixes) ---------------------------

namespace sp::lapi {
namespace {

// LinkRig (the two-node ReliableLink fixture) now lives in test_harness.hpp.

TEST(ReliableLinkFix, DuplicateBurstEarnsOneImmediateReack) {
  // A go-back-N resend of a full window lands as a burst of duplicates at the
  // target. Each must be rejected, but re-advertising the cumulative position
  // once is enough — per-duplicate acks are the ack storm the coalescing
  // window exists to prevent.
  LinkRig rig;
  for (std::uint32_t s = 1; s <= 8; ++s) (void)rig.target->accept(s);
  const std::int64_t acks_after_fresh = rig.target->acks_sent();
  for (std::uint32_t s = 1; s <= 8; ++s) EXPECT_FALSE(rig.target->accept(s));
  EXPECT_EQ(rig.target->duplicates(), 8);
  EXPECT_EQ(rig.target->acks_sent(), acks_after_fresh + 1)
      << "a burst of 8 duplicates must trigger exactly one immediate re-ack";
  rig.sim.run();  // the rest of the burst folds into one delayed flush
  EXPECT_LE(rig.target->acks_sent(), acks_after_fresh + 2);
}

TEST(ReliableLinkFix, OwedReackRetriesAfterHalFull) {
  // A duplicate arrives with no fresh packets outstanding and the immediate
  // re-ack hits a full HAL send queue. The old code keyed the flush retry on
  // unacked_count_ (zero here), so the ack was dropped on the floor and the
  // origin spun on its retransmit timer; the pending-ack bit must survive.
  LinkRig rig;
  EXPECT_TRUE(rig.target->accept(1));
  rig.sim.run();  // delayed flush acks seq 1
  ASSERT_EQ(rig.target->acks_sent(), 1);

  // Exhaust node 1's HAL send buffers with harmless self-made ack packets.
  std::vector<std::byte> filler;
  PktHdr h;
  h.kind = static_cast<std::uint8_t>(Kind::kAck);
  h.pkt_seq = 0;
  append_hdr(filler, h);
  while (rig.hals[1]->send_buffers_in_use() < rig.cfg.hal_send_buffers) {
    ASSERT_TRUE(rig.hals[1]->send_packet(0, hal::kProtoLapi, filler));
  }

  EXPECT_FALSE(rig.target->accept(1));         // duplicate; re-ack owed
  EXPECT_EQ(rig.target->acks_sent(), 1);       // HAL full: nothing went out yet
  rig.sim.run();                               // buffers drain, flush retries
  EXPECT_EQ(rig.target->acks_sent(), 2) << "owed re-ack was lost after a HAL-full failure";
}

TEST(ReliableLinkFix, RetransmitFiresOneTimeoutAfterTheLostSend) {
  // Message A (seq 1) is delivered and acked; message B (seq 2), sent while
  // A's retransmit timer is still armed, is lost. Re-arming a full timeout
  // from the timer's fire time would delay B's resend to nearly 2x the
  // timeout; arming against the oldest unacked send must recover within ~1x.
  LinkRig rig;
  const sim::TimeNs timeout = rig.cfg.retransmit_timeout_ns;
  const sim::TimeNs sent_b = (timeout * 6) / 10;
  rig.drop_budget[2] = 1;
  rig.submit_at(0, 64);
  rig.submit_at(sent_b, 64);
  rig.sim.run();

  ASSERT_EQ(rig.origin->retransmits(), 1);
  EXPECT_TRUE(rig.origin->drained());
  sim::TimeNs second_arrival = -1;
  int seq2_seen = 0;
  for (const auto& [t, s] : rig.arrivals) {
    if (s == 2 && ++seq2_seen == 2) second_arrival = t;
  }
  ASSERT_GE(seq2_seen, 2) << "lost packet was never retransmitted";
  EXPECT_GE(second_arrival - sent_b, timeout);
  EXPECT_LE(second_arrival - sent_b, timeout + timeout / 10)
      << "retransmit lagged the timeout: lost packet lingered "
      << sim::to_us(second_arrival - sent_b) << "us";
}

TEST(ReliableLinkFix, SequenceNumbersSurviveWireWrap) {
  // Both cursors start just below 2^32; an 80-packet message crosses the
  // 32-bit wire wrap mid-stream. Every packet must be accepted exactly once
  // and acked, with no retransmits and no duplicates flagged.
  LinkRig rig;
  const std::uint64_t base = (1ULL << 32) - 40;
  rig.origin->fast_forward_seq(base);
  rig.target->fast_forward_seq(base);
  const std::size_t len = 80 * 1024;  // 80 MTU-sized packets
  rig.submit_at(0, len);
  rig.sim.run();
  EXPECT_EQ(rig.fresh_bytes, len);
  EXPECT_EQ(rig.target->duplicates(), 0);
  EXPECT_EQ(rig.origin->retransmits(), 0);
  EXPECT_TRUE(rig.origin->drained());
}

TEST(ReliableLinkFix, UnwrapSeqSerialArithmetic) {
  constexpr std::uint64_t kSpan = 1ULL << 32;
  // In-window forward references, including across the wrap.
  EXPECT_EQ(unwrap_seq(0, 1), 1u);
  EXPECT_EQ(unwrap_seq(100, 50), 50u);
  EXPECT_EQ(unwrap_seq(kSpan - 1, 5), kSpan + 5);
  EXPECT_EQ(unwrap_seq(kSpan - 1, 0xFFFFFFFEu), kSpan - 2);
  // Just past the wrap, a duplicate of the last pre-wrap packet.
  EXPECT_EQ(unwrap_seq(kSpan + 5, 0xFFFFFFFFu), kSpan - 1);
  // Deep into the second epoch both directions resolve near the cursor.
  EXPECT_EQ(unwrap_seq(3 * kSpan + 100, 90), 3 * kSpan + 90);
  EXPECT_EQ(unwrap_seq(3 * kSpan + 100, 110), 3 * kSpan + 110);
}

}  // namespace
}  // namespace sp::lapi
