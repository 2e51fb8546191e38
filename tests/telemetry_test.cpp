// Telemetry subsystem tests (DESIGN.md §10): ring-buffer bounds, histogram
// bucketing, the protocol timeline, exporter output, live snapshots — and the
// two determinism contracts: an enabled-telemetry run is bit-reproducible
// (digest-pinned), and enabling telemetry does not perturb the event
// schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mpi/machine.hpp"
#include "sim/telemetry.hpp"
#include "test_harness.hpp"

namespace {

using sp::mpi::Backend;
using sp::mpi::Machine;
using sp::mpi::Mpi;
using sp::sim::Ev;
using sp::sim::Hist;
using sp::sim::MachineConfig;
using sp::sim::Telemetry;
using sp::sim::TraceRecord;

// --- ring buffer ----------------------------------------------------------

TEST(TelemetryRing, WrapsOverwritingOldestAndCountsDrops) {
  // 64 bytes = room for exactly two 32-byte records.
  Telemetry t(1, 64);
  ASSERT_EQ(t.ring_capacity(), 2u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    t.emit(static_cast<sp::sim::TimeNs>(i * 10), 0, Ev::kPacketInject, i, 0);
  }
  EXPECT_EQ(t.records_emitted(), 5u);
  EXPECT_EQ(t.records_dropped(), 3u);
  EXPECT_EQ(t.ring_bytes_in_use(), 64u);

  // The two newest records survive, oldest first.
  const std::vector<TraceRecord> recs = t.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].a0, 3u);
  EXPECT_EQ(recs[1].a0, 4u);
  EXPECT_LT(recs[0].t, recs[1].t);

  // Counters see every emission, dropped or not.
  EXPECT_EQ(t.counter(0, Ev::kPacketInject), 5u);
  EXPECT_EQ(t.counter_total(Ev::kPacketInject), 5u);
}

TEST(TelemetryRing, TinyByteBudgetStillHoldsOneRecord) {
  Telemetry t(1, 1);  // sub-record budget rounds up to one slot
  ASSERT_EQ(t.ring_capacity(), 1u);
  t.emit(1, 0, Ev::kMatch, 7, 1);
  t.emit(2, 0, Ev::kMatch, 8, 0);
  EXPECT_EQ(t.records_dropped(), 1u);
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records()[0].a0, 8u);
}

// --- histograms -----------------------------------------------------------

TEST(TelemetryHist, BucketBoundaries) {
  using sp::sim::hist_bucket;
  using sp::sim::hist_bucket_floor;
  EXPECT_EQ(hist_bucket(0), 0);
  EXPECT_EQ(hist_bucket(1), 1);
  EXPECT_EQ(hist_bucket(2), 2);
  EXPECT_EQ(hist_bucket(3), 2);
  EXPECT_EQ(hist_bucket(4), 3);
  EXPECT_EQ(hist_bucket(1023), 10);
  EXPECT_EQ(hist_bucket(1024), 11);
  // Saturation: everything >= 2^46 lands in the last bucket.
  EXPECT_EQ(hist_bucket(std::uint64_t{1} << 46), sp::sim::kHistBuckets - 1);
  EXPECT_EQ(hist_bucket(~std::uint64_t{0}), sp::sim::kHistBuckets - 1);

  EXPECT_EQ(hist_bucket_floor(0), 0u);
  EXPECT_EQ(hist_bucket_floor(1), 1u);
  EXPECT_EQ(hist_bucket_floor(11), 1024u);
  // Floors and buckets agree: every floor maps into its own bucket.
  for (int b = 0; b < sp::sim::kHistBuckets; ++b) {
    EXPECT_EQ(hist_bucket(hist_bucket_floor(b)), b) << "bucket " << b;
  }
}

TEST(TelemetryHist, RecordAccumulatesPerNode) {
  Telemetry t(2, 1024);
  t.record_hist(Hist::kMsgBytes, 0, 100);  // bucket 7 ([64, 128))
  t.record_hist(Hist::kMsgBytes, 0, 100);
  t.record_hist(Hist::kMsgBytes, 1, 100);
  EXPECT_EQ(t.hist_count(0, Hist::kMsgBytes, 7), 2u);
  EXPECT_EQ(t.hist_count(1, Hist::kMsgBytes, 7), 1u);
  EXPECT_EQ(t.hist_count(0, Hist::kMsgBytes, 8), 0u);
}

// --- full-machine runs ----------------------------------------------------

/// Fig. 11-style ping-pong, with or without telemetry.
std::unique_ptr<Machine> traced_pingpong(bool telemetry,
                                         Backend backend = Backend::kLapiEnhanced) {
  MachineConfig cfg;
  cfg.telemetry_enabled = telemetry;
  return sp::test::run_pingpong(cfg, backend, 16, 8 * 1024);
}

/// The early-arrival workload (test_harness.hpp), with or without telemetry.
std::unique_ptr<Machine> traced_early_arrival(bool telemetry, Backend backend) {
  MachineConfig cfg;
  cfg.telemetry_enabled = telemetry;
  return sp::test::run_early_arrival(cfg, backend);
}

// Golden digest of the enabled-telemetry ping-pong timeline. Re-capture via
// --gtest_filter=TelemetryDeterminism.* if a cost-model change legitimately
// moves timestamps (the failure message logs the measured value).
constexpr std::uint64_t kGoldenTelemetryPingPong = 0x8bcf28eca28982e2ULL;

TEST(TelemetryDeterminism, TracedRunIsReproducible) {
  auto m1 = traced_pingpong(true);
  auto m2 = traced_pingpong(true);
  const std::uint64_t first = m1->telemetry()->digest();
  const std::uint64_t second = m2->telemetry()->digest();
  SCOPED_TRACE(testing::Message() << "digest=0x" << std::hex << first);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, kGoldenTelemetryPingPong)
      << "telemetry timeline changed: 0x" << std::hex << first;
}

TEST(TelemetryDeterminism, EnablingTelemetryDoesNotPerturbSchedule) {
  // The whole point of the one-branch discipline: the simulated event order
  // (the queue's schedule digest) is identical with telemetry on/off.
  constexpr Backend kBackends[] = {Backend::kNativePipes, Backend::kLapiBase,
                                   Backend::kLapiCounters, Backend::kLapiEnhanced,
                                   Backend::kRdma};
  for (const Backend b : kBackends) {
    SCOPED_TRACE(sp::mpi::backend_name(b));
    const auto pp_on = traced_pingpong(true, b);
    const auto pp_off = traced_pingpong(false, b);
    EXPECT_EQ(pp_off->telemetry(), nullptr);
    EXPECT_EQ(pp_on->schedule_digest(), pp_off->schedule_digest());
    EXPECT_EQ(pp_on->elapsed(), pp_off->elapsed());
    const auto ea_on = traced_early_arrival(true, b);
    const auto ea_off = traced_early_arrival(false, b);
    EXPECT_EQ(ea_on->schedule_digest(), ea_off->schedule_digest());
    EXPECT_EQ(ea_on->elapsed(), ea_off->elapsed());
  }
}

TEST(TelemetryMachine, CountersMatchMachineStats) {
  auto m = traced_pingpong(true);
  const Telemetry& t = *m->telemetry();
  const auto s = m->stats();
  // Adapter sends and eager sends are counted by both systems.
  EXPECT_EQ(t.counter_total(Ev::kDmaStart),
            static_cast<std::uint64_t>(s.packets_sent));
  EXPECT_EQ(t.counter_total(Ev::kEagerSend),
            static_cast<std::uint64_t>(s.eager_sends));
  // 16 blocking sends + 16 blocking recvs per rank -> 64 enter/exit pairs.
  EXPECT_EQ(t.counter_total(Ev::kMpiEnter), 64u);
  EXPECT_EQ(t.counter_total(Ev::kMpiEnter), t.counter_total(Ev::kMpiExit));
  EXPECT_EQ(t.counter_total(Ev::kRankStart), 2u);
  EXPECT_EQ(t.counter_total(Ev::kRankFinish), 2u);
}

// --- exporters ------------------------------------------------------------

std::string export_to_string(const Telemetry& t, void (Telemetry::*fn)(std::FILE*) const) {
  std::FILE* f = std::tmpfile();
  (t.*fn)(f);
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::rewind(f);
  std::string s(static_cast<std::size_t>(len), '\0');
  EXPECT_EQ(std::fread(s.data(), 1, s.size(), f), s.size());
  std::fclose(f);
  return s;
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TelemetryExport, ChromeJsonShape) {
  auto m = traced_pingpong(true);
  const std::string json = export_to_string(*m->telemetry(), &Telemetry::export_chrome_json);

  // Envelope and required metadata.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0), 0u);
  ASSERT_GE(json.size(), 3u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"node0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"node1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"mpi\"}"), std::string::npos);

  // MPI calls become balanced B/E span pairs named after the call.
  EXPECT_NE(json.find("\"name\":\"MPI_Send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"MPI_Recv\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), count_occurrences(json, "\"ph\":\"E\""));
  EXPECT_GT(count_occurrences(json, "\"ph\":\"i\""), 0u);

  // No dangling comma before the closing bracket, and braces balance.
  EXPECT_EQ(json.find(",\n]"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
}

TEST(TelemetryExport, CsvHeaderAndWidth) {
  auto m = traced_pingpong(true);
  const std::string csv = export_to_string(*m->telemetry(), &Telemetry::export_csv);
  EXPECT_EQ(csv.rfind("t_ns,node,layer,event,a0,a1\n", 0), 0u);
  // Every line has exactly five commas.
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < csv.size()) {
    const std::size_t end = csv.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(count_occurrences(csv.substr(start, end - start), ","), 5u);
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, m->telemetry()->records().size() + 1);
}

// --- protocol timeline (Fig. 2) --------------------------------------------

/// Rank 0 sends one `bytes`-sized message to rank 1 with telemetry on.
std::unique_ptr<Machine> one_message(Backend backend, std::size_t bytes,
                                     bool interrupt_mode = false) {
  MachineConfig cfg;
  cfg.telemetry_enabled = true;
  auto m = std::make_unique<Machine>(cfg, 2, backend);
  m->run([bytes, interrupt_mode](Mpi& mpi) {
    auto& w = mpi.world();
    if (interrupt_mode) mpi.set_interrupt_mode(true);
    std::vector<std::byte> buf(bytes);
    if (w.rank() == 0) {
      mpi.send(buf.data(), buf.size(), sp::mpi::Datatype::kByte, 1, 0, w);
    } else {
      mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, 0, 0, w);
    }
  });
  return m;
}

TEST(Trace, DisabledByDefault) {
  Machine m(MachineConfig{}, 2, Backend::kLapiEnhanced);
  EXPECT_EQ(m.telemetry(), nullptr);
}

TEST(Trace, RecordsProtocolEventsInTimeOrder) {
  const auto m = one_message(Backend::kLapiEnhanced, 512);
  const Telemetry& t = *m->telemetry();
  EXPECT_GE(t.counter_total(Ev::kDmaStart), 1u);
  EXPECT_GE(t.counter_total(Ev::kHalDeliver), 1u);
  EXPECT_GE(t.counter_total(Ev::kAmSend), 1u);
  EXPECT_GE(t.counter_total(Ev::kHeaderHandler), 1u);
  EXPECT_GE(t.counter_total(Ev::kCompletionInline), 1u);
  EXPECT_EQ(t.counter_total(Ev::kIrqEnter), 0u) << "polling mode takes no interrupts";

  sp::sim::TimeNs last = -1;
  for (const TraceRecord& r : t.records()) {
    EXPECT_GE(r.t, last) << "records must be time-ordered";
    last = r.t;
  }
}

TEST(Trace, BaseVariantShowsThreadCompletions) {
  const auto m = one_message(Backend::kLapiBase, sizeof(int));
  EXPECT_GE(m->telemetry()->counter_total(Ev::kCompletionThread), 1u);
  EXPECT_EQ(m->telemetry()->counter_total(Ev::kCompletionInline), 0u);
}

TEST(Trace, InterruptModeShowsInterrupts) {
  const auto m = one_message(Backend::kLapiEnhanced, sizeof(int), /*interrupt_mode=*/true);
  EXPECT_GE(m->telemetry()->counter_total(Ev::kIrqEnter), 1u);
}

TEST(Trace, DumpIsWellFormed) {
  const auto m = one_message(Backend::kLapiEnhanced, 512);
  const std::string text = export_to_string(*m->telemetry(), &Telemetry::export_text);
  EXPECT_FALSE(text.empty());
  EXPECT_NE(text.find("lapi.header_handler"), std::string::npos);
}

// --- live sampling --------------------------------------------------------

TEST(TelemetrySnapshot, DeltaAttributesPhaseActivity) {
  MachineConfig cfg;
  cfg.telemetry_enabled = true;
  Machine m(cfg, 2, Backend::kLapiEnhanced);
  Telemetry::Snapshot mid;
  m.run([&](Mpi& mpi) {
    auto& w = mpi.world();
    std::vector<std::byte> buf(1024);
    const int peer = 1 - w.rank();
    // Phase 1: four exchanges.
    for (int i = 0; i < 4; ++i) {
      if (w.rank() == 0) {
        mpi.send(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
        mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
      } else {
        mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
        mpi.send(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
      }
    }
    if (w.rank() == 0) mid = m.telemetry()->snapshot();
    // Phase 2: twelve more exchanges.
    for (int i = 0; i < 12; ++i) {
      if (w.rank() == 0) {
        mpi.send(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
        mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
      } else {
        mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
        mpi.send(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
      }
    }
  });
  const Telemetry::Snapshot end = m.telemetry()->snapshot();
  const Telemetry::Snapshot phase2 = Telemetry::delta(end, mid);

  const auto send_idx = static_cast<std::size_t>(Ev::kEagerSend);
  auto sends = [&](const Telemetry::Snapshot& s, int node) {
    return s.counters[static_cast<std::size_t>(node) * sp::sim::kNumEvents + send_idx];
  };
  // Each rank did 4 sends before the snapshot and 12 after.
  EXPECT_EQ(sends(mid, 0), 4u);
  EXPECT_EQ(sends(phase2, 0), 12u);
  EXPECT_EQ(sends(phase2, 0) + sends(phase2, 1), 24u);
  EXPECT_EQ(phase2.emitted, end.emitted - mid.emitted);
}

TEST(TelemetrySnapshot, MachineStatsDelta) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiEnhanced);
  Machine::Stats mid{};
  m.run([&](Mpi& mpi) {
    auto& w = mpi.world();
    std::vector<std::byte> buf(1024);
    const int peer = 1 - w.rank();
    if (w.rank() == 0) {
      mpi.send(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
    } else {
      mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
    }
    mpi.barrier(w);
    if (w.rank() == 0) mid = m.stats();
    for (int i = 0; i < 3; ++i) {
      if (w.rank() == 0) {
        mpi.send(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
      } else {
        mpi.recv(buf.data(), buf.size(), sp::mpi::Datatype::kByte, peer, 0, w);
      }
    }
  });
  const Machine::Stats total = m.stats();
  const Machine::Stats phase2 = m.stats_since(mid);
  EXPECT_EQ(phase2.eager_sends, 3);
  EXPECT_EQ(phase2.eager_sends + mid.eager_sends, total.eager_sends);
  EXPECT_GT(phase2.packets_sent, 0);
  EXPECT_EQ(Machine::stats_delta(total, total).packets_sent, 0);
}

// --- bounded memory under load --------------------------------------------

TEST(TelemetryRing, ByteCapHoldsUnderMachineTraffic) {
  MachineConfig cfg;
  cfg.telemetry_enabled = true;
  cfg.telemetry_ring_bytes = 4096;  // 128 records — far fewer than emitted
  cfg.telemetry_ring_bytes_per_node = 0;  // exact cap: no node-count floor
  Machine m(cfg, 4, Backend::kLapiEnhanced);
  m.run([](Mpi& mpi) {
    auto& w = mpi.world();
    const auto n = static_cast<std::size_t>(w.size());
    std::vector<double> src(64 * n, 1.0), dst(64 * n, 0.0);
    for (int r = 0; r < 8; ++r) {
      mpi.alltoall(src.data(), 64, dst.data(), sp::mpi::Datatype::kDouble, w);
    }
  });
  const Telemetry& t = *m.telemetry();
  EXPECT_LE(t.ring_bytes_in_use(), cfg.telemetry_ring_bytes);
  EXPECT_EQ(t.ring_capacity(), cfg.telemetry_ring_bytes / sizeof(TraceRecord));
  EXPECT_GT(t.records_dropped(), 0u);
  EXPECT_EQ(t.records_emitted(),
            t.records_dropped() + t.records().size());
}

}  // namespace
