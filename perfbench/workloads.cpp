// perfbench workloads: p2p2, coll256, nas16 and lossy16, plus the machine
// runner and the standalone sim/net drives they share.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>

#include "bench.hpp"
#include "mpi/optrace.hpp"
#include "nas/kernels.hpp"
#include "net/switch_fabric.hpp"
#include "sim/telemetry.hpp"

namespace pb {

using sp::mpi::Backend;
using sp::mpi::Comm;
using sp::mpi::Datatype;
using sp::mpi::Machine;
using sp::mpi::Mpi;
using sp::sim::Ev;
using sp::sim::MachineConfig;

double host_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans ----

int SpanRecorder::open(std::string name, int parent, std::int64_t sim_start) {
  Span s;
  s.name = std::move(name);
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.sim_start = sim_start;
  s.host_start = host_now();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::close(int id, std::int64_t sim_end) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.host_end = host_now();
  s.sim_end = sim_end;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double epoch = spans_.empty() ? 0.0 : spans_.front().host_start;
  char line[512];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"host_start_us\": %.3f, "
                  "\"host_end_us\": %.3f, \"sim_start_ns\": %lld, \"sim_end_ns\": %lld}\n",
                  s.id, s.parent, s.name.c_str(), (s.host_start - epoch) * 1e6,
                  (s.host_end - epoch) * 1e6, static_cast<long long>(s.sim_start),
                  static_cast<long long>(s.sim_end));
    out << line;
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- payloads ----

namespace {

/// A seeded payload: `bytes` pattern bytes whose first (up to) 8 bytes are
/// overwritten by a per-message key, so a stale buffer never verifies.
struct Payload {
  Payload(std::uint64_t seed, std::uint64_t stream, std::size_t bytes) : data(bytes) {
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xBF58476D1CE4E5B9ull;
    for (std::size_t i = 0; i < bytes; ++i) {
      x ^= x >> 27;
      x *= 0x94D049BB133111EBull;
      x += 0x632BE59BD9B4E019ull;
      data[i] = static_cast<std::byte>(x >> 56);
    }
  }
  void stamp(std::vector<std::byte>& buf, std::uint64_t key) const {
    std::memcpy(buf.data(), &key, std::min<std::size_t>(8, buf.size()));
  }
  [[nodiscard]] bool verify(const std::vector<std::byte>& buf, std::uint64_t key) const {
    const std::size_t k = std::min<std::size_t>(8, data.size());
    if (buf.size() < data.size() || std::memcmp(buf.data(), &key, k) != 0) return false;
    return std::memcmp(buf.data() + k, data.data() + k, data.size() - k) == 0;
  }
  std::vector<std::byte> data;
};

}  // namespace

// --------------------------------------------------------------- runner ----

namespace {

/// Telemetry ring bytes learned per machine name: a run whose ring dropped
/// records is rerun once with a ring that holds its whole (deterministic)
/// record stream, and later passes start from that size.
std::map<std::string, std::size_t>& learned_ring() {
  static std::map<std::string, std::size_t> m;
  return m;
}

constexpr std::size_t kMaxInjectsPerPass = 400'000;

void fold_stats(Pass& p, const Machine& m) {
  const Machine::Stats s = m.stats();
  auto add = [&p](const char* k, double v) { p.exact[k] += v; };
  add("sim.events", static_cast<double>(s.sim_events));
  add("sim.events_pushed", static_cast<double>(s.events_pushed));
  add("sim.pooled_actions",
      static_cast<double>(s.action_pool_hits + s.action_pool_misses + s.action_fallback_allocs));
  add("net.packets", static_cast<double>(s.fabric_packets));
  add("net.bytes", static_cast<double>(s.fabric_bytes));
  add("net.dropped", static_cast<double>(s.fabric_dropped));
  add("hal.packets_sent", static_cast<double>(s.packets_sent));
  add("hal.interrupts", static_cast<double>(s.interrupts));
  add("hal.frames_fresh", static_cast<double>(s.frames_fresh));
  add("hal.frames_recycled", static_cast<double>(s.frames_recycled));
  add("hal.staged_bytes", static_cast<double>(s.hal_staged_bytes));
  add("hal.rdma_writes", static_cast<double>(s.rdma_writes));
  add("hal.rdma_reads", static_cast<double>(s.rdma_reads));
  add("hal.rdma_retransmits", static_cast<double>(s.rdma_retransmits));
  add("pipes.acks", static_cast<double>(s.pipes_acks));
  add("pipes.retransmits", static_cast<double>(s.pipes_retransmits));
  add("pipes.reacks_coalesced", static_cast<double>(s.pipes_reacks_coalesced));
  add("lapi.messages", static_cast<double>(s.lapi_messages));
  add("lapi.acks", static_cast<double>(s.lapi_acks));
  add("lapi.retransmits", static_cast<double>(s.lapi_retransmits));
  add("lapi.completion_thread", static_cast<double>(s.completion_thread_dispatches));
  add("lapi.completion_inline", static_cast<double>(s.completion_inline_runs));
  add("mpci.eager_sends", static_cast<double>(s.eager_sends));
  add("mpci.rendezvous_sends", static_cast<double>(s.rendezvous_sends));
  add("mpci.early_arrivals", static_cast<double>(s.early_arrivals));
  add("mpci.ea_fallbacks", static_cast<double>(s.ea_fallbacks));
  add("mpci.ea_nacks", static_cast<double>(s.ea_nacks));
}

void fold_telemetry(Pass& p, const Machine& m, int nodes) {
  const sp::sim::Telemetry& t = *m.telemetry();
  p.telem["trace.records"] += static_cast<double>(t.records_emitted());
  p.telem["trace.records_dropped"] += static_cast<double>(t.records_dropped());
  p.telem["mpi.calls"] += static_cast<double>(t.counter_total(Ev::kMpiEnter));
  std::size_t budget = kMaxInjectsPerPass;
  for (const InjectStream& s : p.net_streams) budget -= std::min(budget, s.injects.size());
  InjectStream stream;
  stream.cfg = m.config();
  stream.cfg.telemetry_enabled = false;
  stream.nodes = nodes;
  for (const sp::sim::TraceRecord& r : t.records()) {
    switch (static_cast<Ev>(r.event)) {
      case Ev::kIrqExit: p.irq_service_ns.push_back(static_cast<double>(r.a0)); break;
      case Ev::kMatch: p.match_scanned.push_back(static_cast<double>(r.a0)); break;
      case Ev::kMpiExit: p.mpi_call_ns.push_back(static_cast<double>(r.a1)); break;
      case Ev::kPacketInject:
        if (stream.injects.size() < budget) {
          stream.injects.push_back(
              {r.t, r.node, static_cast<int>(r.a0), static_cast<std::uint32_t>(r.a1)});
        }
        break;
      default: break;
    }
  }
  if (!stream.injects.empty()) p.net_streams.push_back(std::move(stream));
}

/// The machine body: calls Machine::run or Machine::run_lapi.
using Body = std::function<void(Machine&)>;
/// Post-run verification; returns false on a wrong output.
using Verify = std::function<bool(Machine&)>;

/// Constructs a machine, runs `body`, verifies it and folds its statistics
/// into `p`. An exception (DeadlockError included) or a failed verification
/// counts as a failed operation. Returns the simulated elapsed ns, or -1.
std::int64_t run_machine(Pass& p, const std::string& name, MachineConfig cfg, int nodes,
                         Backend backend, const Body& body, const Verify& verify) {
  ++p.ops;
  cfg.telemetry_enabled = p.traced;
  if (p.traced) {
    // Start from the machine's own auto-size; learned sizes replace it.
    const auto it = learned_ring().find(name);
    if (it != learned_ring().end()) {
      cfg.telemetry_ring_bytes = it->second;
      cfg.telemetry_ring_bytes_per_node = 0;
    }
  }
  try {
    for (;;) {
      const int setup_span = p.spans != nullptr ? p.spans->open("setup:" + name, -1) : -1;
      const double t0 = host_now();
      Machine m(cfg, nodes, backend);
      const double t1 = host_now();
      if (setup_span >= 0) p.spans->close(setup_span);
      p.parent_span = p.spans != nullptr ? p.spans->open("run:" + name, -1, 0) : -1;
      body(m);
      const double t2 = host_now();
      if (p.parent_span >= 0) p.spans->close(p.parent_span, m.elapsed());
      p.parent_span = -1;
      if (p.traced && m.telemetry()->records_dropped() > 0 &&
          cfg.telemetry_ring_bytes_per_node != 0) {
        const std::size_t need =
            (m.telemetry()->records_emitted() + 1) * sizeof(sp::sim::TraceRecord);
        learned_ring()[name] = need;
        cfg.telemetry_ring_bytes = need;
        cfg.telemetry_ring_bytes_per_node = 0;
        continue;
      }
      p.setup_s += t1 - t0;
      p.wall_s += t2 - t1;
      p.ranks_built += nodes;
      p.max_nodes = std::max(p.max_nodes, nodes);
      p.run_ms[name] = (t2 - t1) * 1e3;
      fold_stats(p, m);
      if (p.traced) fold_telemetry(p, m, nodes);
      if (!verify(m)) {
        ++p.failed;
        p.errors.push_back(name + ": output check failed");
        return -1;
      }
      return m.elapsed();
    }
  } catch (const std::exception& e) {
    ++p.failed;
    p.errors.push_back(name + ": " + e.what());
  } catch (...) {
    ++p.failed;
    p.errors.push_back(name + ": unknown exception");
  }
  p.parent_span = -1;
  return -1;
}

/// Times one benchmark-issued MPI call in simulated time; on a traced pass it
/// records the call's span and adds its duration to the blocking time.
template <class F>
void mpi_call(Pass& p, Mpi& mpi, const char* name, F&& f) {
  if (!p.traced) {
    f();
    return;
  }
  const std::int64_t s0 = mpi.node().sim.now();
  const int id = p.spans != nullptr ? p.spans->open(name, p.parent_span, s0) : -1;
  f();
  const std::int64_t s1 = mpi.node().sim.now();
  p.blocked_ns += s1 - s0;
  if (id >= 0) p.spans->close(id, s1);
}

}  // namespace

double replay_fabric(const InjectStream& s, std::uint64_t* events) {
  sp::sim::Simulator sim;
  sp::net::SwitchFabric fabric(sim, s.cfg, s.nodes);
  for (int n = 0; n < s.nodes; ++n) {
    fabric.attach(n, [&fabric](sp::net::Packet&& pkt) {
      fabric.arena().release(std::move(pkt.frame));
    });
  }
  const std::size_t header = s.cfg.hal_header_bytes;
  const double t0 = host_now();
  for (const Inject& in : s.injects) {
    sim.at(in.t, [&fabric, &in, header] {
      sp::net::Packet pkt;
      pkt.src = in.src;
      pkt.dst = in.dst;
      pkt.frame = fabric.arena().acquire(header);
      pkt.modeled_bytes = in.bytes;
      fabric.inject(std::move(pkt));
    });
  }
  sim.run();
  const double dt = host_now() - t0;
  *events += sim.events_processed();
  return dt;
}

double sim_chain_ns_per_event(std::uint64_t events, int lanes) {
  sp::sim::Simulator sim;
  std::uint64_t left = events;
  struct Step {
    sp::sim::Simulator* sim;
    std::uint64_t* left;
    sp::sim::TimeNs dt;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      sim->after(dt, *this);
    }
  };
  const double t0 = host_now();
  for (int l = 0; l < lanes; ++l) sim.after(0, Step{&sim, &left, 100 + 7 * l});
  sim.run();
  const double dt = host_now() - t0;
  return dt * 1e9 / static_cast<double>(sim.events_processed());
}

// ----------------------------------------------------------------- p2p2 ----

namespace {

struct Chan {
  Backend backend;
  const char* name;
};
constexpr Chan kP2pChannels[] = {
    {Backend::kNativePipes, "native"}, {Backend::kLapiBase, "base"},
    {Backend::kLapiCounters, "counters"}, {Backend::kLapiEnhanced, "enhanced"},
    {Backend::kRdma, "rdma"},
};
struct SizeIters {
  std::size_t bytes;
  int iters;
};
constexpr SizeIters kPingSizes[] = {
    {8, 2000}, {1024, 200}, {4096, 200}, {64 * 1024, 16}, {1024 * 1024, 3},
};
constexpr int kPingWarmup = 2;
constexpr std::size_t kStreamBytes = 32 * 1024;
constexpr int kStreamWindow = 64;
constexpr int kStreamRounds = 2;
constexpr int kIrqIters = 100;

std::uint64_t msg_key(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return (seed * 0x2545F4914F6CDD1Dull) ^ (a << 32) ^ b ^ 0xA5A5A5A5ull;
}

/// Polling (or interrupt-mode) ping-pong; returns one-way simulated ns.
double pingpong(Pass& p, const Chan& ch, std::size_t bytes, int iters, bool irq) {
  const std::string name =
      std::string(irq ? "p2p2.irq." : "p2p2.ping.") + ch.name + "." + std::to_string(bytes);
  const Payload pay[2] = {Payload(p.seed, bytes * 2, bytes), Payload(p.seed, bytes * 2 + 1, bytes)};
  double one_way_ns = 0.0;
  bool bad = false;
  MachineConfig cfg;
  const auto prog = [&](Mpi& mpi) {
    Comm& w = mpi.world();
    const int me = w.rank();
    const int peer = 1 - me;
    std::vector<std::byte> sbuf = pay[me].data;
    std::vector<std::byte> rbuf(bytes);
    if (irq) mpi.set_interrupt_mode(true);
    auto recv = [&] {
      if (!irq) {
        mpi_call(p, mpi, "MPI_Recv", [&] { mpi.recv(rbuf.data(), bytes, Datatype::kByte, peer, 0, w); });
        return;
      }
      // Post, then poll completion outside the library: delivery needs the
      // interrupt path (the paper's §6.1 method).
      sp::mpi::Request r;
      mpi_call(p, mpi, "MPI_Irecv", [&] { r = mpi.irecv(rbuf.data(), bytes, Datatype::kByte, peer, 0, w); });
      mpi_call(p, mpi, "MPI_Test.poll", [&] {
        while (!mpi.test(r)) mpi.compute(cfg.spin_check_ns);
      });
    };
    auto send = [&] {
      mpi_call(p, mpi, "MPI_Send", [&] { mpi.send(sbuf.data(), bytes, Datatype::kByte, peer, 0, w); });
    };
    std::int64_t t0 = 0;
    for (int i = 0; i < kPingWarmup + iters; ++i) {
      if (i == kPingWarmup) t0 = mpi.node().sim.now();
      const std::uint64_t k0 = msg_key(p.seed, 2 * i, bytes);
      const std::uint64_t k1 = msg_key(p.seed, 2 * i + 1, bytes);
      if (me == 0) {
        pay[0].stamp(sbuf, k0);
        send();
        recv();
        bad |= !pay[1].verify(rbuf, k1);
      } else {
        recv();
        bad |= !pay[0].verify(rbuf, k0);
        pay[1].stamp(sbuf, k1);
        send();
      }
    }
    if (me == 0) one_way_ns = static_cast<double>(mpi.node().sim.now() - t0) / (2.0 * iters);
  };
  run_machine(p, name, cfg, 2, ch.backend, [&](Machine& m) { m.run(prog); },
              [&](Machine&) { return !bad; });
  return one_way_ns;
}

/// isend/irecv window of kStreamWindow messages; returns simulated MB/s.
double stream(Pass& p, const Chan& ch) {
  const std::string name = std::string("p2p2.stream.") + ch.name;
  const Payload pay(p.seed, 0x57, kStreamBytes);
  double mbs = 0.0;
  bool bad = false;
  const auto prog = [&](Mpi& mpi) {
    Comm& w = mpi.world();
    std::vector<std::vector<std::byte>> bufs(kStreamWindow, pay.data);
    std::vector<sp::mpi::Request> reqs(kStreamWindow);
    std::byte token{};
    const std::int64_t t0 = mpi.node().sim.now();
    for (int r = 0; r < kStreamRounds; ++r) {
      if (w.rank() == 0) {
        for (int j = 0; j < kStreamWindow; ++j) {
          pay.stamp(bufs[j], msg_key(p.seed, r, j));
          mpi_call(p, mpi, "MPI_Isend", [&] {
            reqs[j] = mpi.isend(bufs[j].data(), kStreamBytes, Datatype::kByte, 1, 0, w);
          });
        }
        mpi_call(p, mpi, "MPI_Waitall", [&] { mpi.waitall(reqs.data(), reqs.size()); });
        mpi_call(p, mpi, "MPI_Recv", [&] { mpi.recv(&token, 0, Datatype::kByte, 1, 1, w); });
      } else {
        for (int j = 0; j < kStreamWindow; ++j) {
          mpi_call(p, mpi, "MPI_Irecv", [&] {
            reqs[j] = mpi.irecv(bufs[j].data(), kStreamBytes, Datatype::kByte, 0, 0, w);
          });
        }
        mpi_call(p, mpi, "MPI_Waitall", [&] { mpi.waitall(reqs.data(), reqs.size()); });
        for (int j = 0; j < kStreamWindow; ++j) bad |= !pay.verify(bufs[j], msg_key(p.seed, r, j));
        mpi_call(p, mpi, "MPI_Send", [&] { mpi.send(&token, 0, Datatype::kByte, 0, 1, w); });
      }
    }
    if (w.rank() == 0) {
      const double dt_s = static_cast<double>(mpi.node().sim.now() - t0) * 1e-9;
      mbs = static_cast<double>(kStreamBytes) * kStreamWindow * kStreamRounds / 1e6 / dt_s;
    }
  };
  run_machine(p, name, MachineConfig{}, 2, ch.backend, [&](Machine& m) { m.run(prog); },
              [&](Machine&) { return !bad; });
  return mbs;
}

/// Raw LAPI put/waitcntr ping-pong at 8 B; returns one-way simulated ns.
double raw_lapi(Pass& p, int iters) {
  constexpr std::size_t kBytes = 8;
  const Payload pay[2] = {Payload(p.seed, 0x1A, kBytes), Payload(p.seed, 0x1B, kBytes)};
  double one_way_ns = 0.0;
  bool bad = false;
  const auto prog = [&](sp::lapi::Lapi& l) {
    const int me = l.task_id();
    const int peer = 1 - me;
    std::vector<std::byte> sbuf = pay[me].data;
    std::vector<std::byte> rbuf(kBytes);
    sp::lapi::Cntr arrival;
    sp::lapi::Cntr org;
    const auto bufs = l.address_init(1, sp::lapi::Lapi::token_of(rbuf.data()));
    const auto cntrs = l.address_init(2, sp::lapi::Lapi::token_of(&arrival));
    auto span = [&](const char* n) {
      return p.spans != nullptr ? p.spans->open(n, p.parent_span, l.runtime().sim.now()) : -1;
    };
    auto end = [&](int id) {
      if (id >= 0) p.spans->close(id, l.runtime().sim.now());
    };
    auto put = [&] {
      const int id = span("LAPI_Put");
      l.put(peer, bufs[static_cast<std::size_t>(peer)], sbuf.data(), kBytes,
            cntrs[static_cast<std::size_t>(peer)], &org, nullptr);
      end(id);
    };
    auto wait = [&] {
      const int id = span("LAPI_Waitcntr");
      l.waitcntr(arrival, 1);
      end(id);
    };
    std::int64_t t0 = 0;
    for (int i = 0; i < kPingWarmup + iters; ++i) {
      if (i == kPingWarmup) t0 = l.runtime().sim.now();
      const std::uint64_t k0 = msg_key(p.seed, 2 * i, 0x1A);
      const std::uint64_t k1 = msg_key(p.seed, 2 * i + 1, 0x1A);
      if (me == 0) {
        pay[0].stamp(sbuf, k0);
        put();
        wait();
        bad |= !pay[1].verify(rbuf, k1);
      } else {
        wait();
        bad |= !pay[0].verify(rbuf, k0);
        pay[1].stamp(sbuf, k1);
        put();
      }
      // The origin buffer is reused next iteration: wait until LAPI copied it.
      l.waitcntr(org, 1);
    }
    if (me == 0) one_way_ns = static_cast<double>(l.runtime().sim.now() - t0) / (2.0 * iters);
  };
  run_machine(p, "p2p2.lapi.8", MachineConfig{}, 2, Backend::kLapiEnhanced,
              [&](Machine& m) { m.run_lapi(prog); }, [&](Machine&) { return !bad; });
  return one_way_ns;
}

}  // namespace

void pass_p2p2(Pass& p) {
  std::map<std::string, double> lat8, irq8, bw;
  std::size_t lapi_stream = SIZE_MAX;  // index: net_streams grows after it
  for (const Chan& ch : kP2pChannels) {
    if (ch.backend == Backend::kLapiEnhanced) {
      // Raw LAPI runs right before Enhanced MPI at the same size and
      // iterations: the pair prices the mpci+mpi layers per message.
      const std::size_t streams = p.net_streams.size();
      p.exact["p2p2.lat_us.raw_lapi.8"] = raw_lapi(p, kPingSizes[0].iters) / 1e3;
      if (p.net_streams.size() > streams) lapi_stream = streams;
    }
    for (const SizeIters& s : kPingSizes) {
      const double ns = pingpong(p, ch, s.bytes, s.iters, false);
      p.exact[std::string("p2p2.lat_us.") + ch.name + "." + std::to_string(s.bytes)] = ns / 1e3;
      if (s.bytes == 8) lat8[ch.name] = ns / 1e3;
    }
    bw[ch.name] = stream(p, ch);
    irq8[ch.name] = pingpong(p, ch, 8, kIrqIters, true) / 1e3;
    p.exact[std::string("p2p2.bw_mbs.") + ch.name] = bw[ch.name];
    p.exact[std::string("p2p2.irq_lat_us.") + ch.name] = irq8[ch.name];
  }
  p.end_to_end["lat_us.native"] = lat8["native"];
  p.end_to_end["lat_us.enhanced"] = lat8["enhanced"];
  p.end_to_end["bw_mbs.native"] = bw["native"];
  p.end_to_end["bw_mbs.enhanced"] = bw["enhanced"];
  p.end_to_end["irq_lat_us.native"] = irq8["native"];
  p.end_to_end["irq_lat_us.enhanced"] = irq8["enhanced"];

  // Fidelity: the shapes EXPERIMENTS.md reports for Figs. 10-13. Counters
  // "tracks Enhanced" up to the eager limit (within 5% here) and pays the
  // handler thread above it.
  const auto lat = [&p](const char* ch, std::size_t bytes) {
    return p.exact[std::string("p2p2.lat_us.") + ch + "." + std::to_string(bytes)];
  };
  bool tracks = true;
  for (std::size_t b : {std::size_t{8}, std::size_t{1024}, std::size_t{4096}}) {
    tracks &= std::abs(lat("counters", b) - lat("enhanced", b)) <= 0.05 * lat("enhanced", b);
  }
  p.check("fidelity.lat8_base_gt_counters", lat8["base"] > lat8["counters"]);
  p.check("fidelity.counters_tracks_enhanced_to_4k", tracks);
  p.check("fidelity.lat64k_counters_ge_enhanced",
          lat("counters", 64 * 1024) >= lat("enhanced", 64 * 1024));
  p.check("fidelity.lat8_native_lt_enhanced", lat8["native"] < lat8["enhanced"]);
  p.check("fidelity.bw32k_enhanced_ge_native", bw["enhanced"] >= bw["native"]);
  p.check("fidelity.irq8_enhanced_lt_native", irq8["enhanced"] < irq8["native"]);

  // Host pricing of hal+lapi and mpci+mpi per message: the raw-LAPI run minus
  // a standalone replay of its own packets, and the Enhanced MPI run minus
  // the raw-LAPI run (same size, iterations and rank programs).
  if (lapi_stream != SIZE_MAX) {
    const double msgs = 2.0 * (kPingWarmup + kPingSizes[0].iters);
    std::uint64_t events = 0;
    const double replay_s = replay_fabric(p.net_streams[lapi_stream], &events);
    const double lapi_run = p.run_ms["p2p2.lapi.8"] * 1e6;
    const double mpi_run = p.run_ms["p2p2.ping.enhanced.8"] * 1e6;
    p.pinned["lapi.host_ns_per_msg"] = (lapi_run - replay_s * 1e9) / msgs;
    p.pinned["mpci.host_ns_per_msg"] = (mpi_run - lapi_run) / msgs;
  }
}

// -------------------------------------------------------------- coll256 ----

namespace {

constexpr int kCollNodes = 256;

struct CollSpec {
  const char* prim;
  int reps;
};

int algo_id(const sp::sim::Telemetry& t, std::initializer_list<std::pair<sp::sim::CollAlgo, int>> ids) {
  int id = 0;
  for (const auto& [a, n] : ids) {
    if (t.coll_count_total(a) > 0) id = id == 0 ? n : -1;  // -1: more than one picked
  }
  return id;
}

}  // namespace

void pass_coll256(Pass& p) {
  using sp::sim::CollAlgo;
  const int n = kCollNodes;
  MachineConfig cfg;  // SP multistage topology, auto algorithm selection

  // bcast 64 KiB from rank 0, twice.
  {
    constexpr std::size_t kBytes = 64 * 1024;
    constexpr int kReps = 2;
    bool bad = false;
    const Payload pay[kReps] = {Payload(p.seed, 0xB0, kBytes), Payload(p.seed, 0xB1, kBytes)};
    const auto prog = [&](Mpi& mpi) {
      Comm& w = mpi.world();
      std::vector<std::byte> buf(kBytes);
      for (int r = 0; r < kReps; ++r) {
        if (w.rank() == 0) buf = pay[r].data;
        mpi_call(p, mpi, "MPI_Bcast", [&] { mpi.bcast(buf.data(), kBytes, Datatype::kByte, 0, w); });
        bad |= buf != pay[r].data;
      }
    };
    const std::int64_t ns = run_machine(
        p, "coll256.bcast", cfg, n, Backend::kLapiEnhanced, [&](Machine& m) { m.run(prog); },
        [&](Machine& m) {
          if (p.traced) {
            p.pinned["mpi.coll.bcast.algo"] = algo_id(
                *m.telemetry(), {{CollAlgo::kBcastBinomial, 1}, {CollAlgo::kBcastPipelined, 2},
                                 {CollAlgo::kBcastScatterAllgather, 3},
                                 {CollAlgo::kBcastNicOffload, 4}, {CollAlgo::kBcastInNetwork, 5}});
          }
          return !bad;
        });
    p.end_to_end["coll_us.bcast"] = static_cast<double>(ns) / 1e3 / kReps;
  }
  // allreduce (sum) of 1024 integer-valued doubles, four times: exact in any
  // association, so it must equal the sequential rank-order reference.
  {
    constexpr std::size_t kCount = 1024;
    constexpr int kReps = 4;
    bool bad = false;
    auto value = [&](int rank, std::size_t i, int rep) {
      return static_cast<double>((p.seed * 131 + static_cast<std::uint64_t>(rank) * 1009 + i * 31 +
                                  static_cast<std::uint64_t>(rep) * 7) % 4096);
    };
    std::vector<std::vector<double>> ref(kReps, std::vector<double>(kCount, 0.0));
    for (int rep = 0; rep < kReps; ++rep) {
      for (int r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < kCount; ++i) ref[rep][i] += value(r, i, rep);
      }
    }
    const auto prog = [&](Mpi& mpi) {
      Comm& w = mpi.world();
      std::vector<double> in(kCount), out(kCount);
      for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i = 0; i < kCount; ++i) in[i] = value(w.rank(), i, rep);
        mpi_call(p, mpi, "MPI_Allreduce", [&] {
          mpi.allreduce(in.data(), out.data(), kCount, Datatype::kDouble, sp::mpi::Op::kSum, w);
        });
        bad |= out != ref[rep];
      }
    };
    const std::int64_t ns = run_machine(
        p, "coll256.allreduce", cfg, n, Backend::kLapiEnhanced, [&](Machine& m) { m.run(prog); },
        [&](Machine& m) {
          if (p.traced) {
            p.pinned["mpi.coll.allreduce.algo"] = algo_id(
                *m.telemetry(), {{CollAlgo::kAllreduceReduceBcast, 1},
                                 {CollAlgo::kAllreduceRecursiveDoubling, 2},
                                 {CollAlgo::kAllreduceRabenseifner, 3},
                                 {CollAlgo::kAllreduceNicOffload, 4},
                                 {CollAlgo::kAllreduceInNetwork, 5}});
          }
          return !bad;
        });
    p.end_to_end["coll_us.allreduce"] = static_cast<double>(ns) / 1e3 / kReps;
  }
  // barrier, eight times: no rank may leave before the last one entered.
  {
    constexpr int kReps = 8;
    std::vector<std::int64_t> enter(static_cast<std::size_t>(n) * kReps);
    std::vector<std::int64_t> leave(enter.size());
    const auto prog = [&](Mpi& mpi) {
      Comm& w = mpi.world();
      for (int rep = 0; rep < kReps; ++rep) {
        const std::size_t k = static_cast<std::size_t>(rep) * n + static_cast<std::size_t>(w.rank());
        enter[k] = mpi.node().sim.now();
        mpi_call(p, mpi, "MPI_Barrier", [&] { mpi.barrier(w); });
        leave[k] = mpi.node().sim.now();
      }
    };
    const std::int64_t ns = run_machine(
        p, "coll256.barrier", cfg, n, Backend::kLapiEnhanced, [&](Machine& m) { m.run(prog); },
        [&](Machine&) {
          for (int rep = 0; rep < kReps; ++rep) {
            const auto b = enter.begin() + static_cast<std::ptrdiff_t>(rep) * n;
            const auto e = leave.begin() + static_cast<std::ptrdiff_t>(rep) * n;
            if (*std::max_element(b, b + n) > *std::min_element(e, e + n)) return false;
          }
          return true;
        });
    p.end_to_end["coll_us.barrier"] = static_cast<double>(ns) / 1e3 / kReps;
  }
  // alltoall of 64 B blocks, twice.
  {
    constexpr std::size_t kBlock = 64;
    constexpr int kReps = 2;
    bool bad = false;
    // Block (s -> d) of repetition r sits at ((s * n) + d) * kBlock of
    // blocks[r], so rank s sends its row in place.
    const Payload blocks[kReps] = {Payload(p.seed, 0xA0, kBlock * n * n),
                                   Payload(p.seed, 0xA1, kBlock * n * n)};
    const auto prog = [&](Mpi& mpi) {
      Comm& w = mpi.world();
      const auto me = static_cast<std::size_t>(w.rank());
      std::vector<std::byte> out(kBlock * n);
      for (int rep = 0; rep < kReps; ++rep) {
        const std::byte* all = blocks[rep].data.data();
        mpi_call(p, mpi, "MPI_Alltoall", [&] {
          mpi.alltoall(all + me * n * kBlock, kBlock, out.data(), Datatype::kByte, w);
        });
        for (std::size_t src = 0; src < static_cast<std::size_t>(n); ++src) {
          bad |= std::memcmp(out.data() + kBlock * src, all + (src * n + me) * kBlock, kBlock) != 0;
        }
      }
    };
    const std::int64_t ns = run_machine(
        p, "coll256.alltoall", cfg, n, Backend::kLapiEnhanced, [&](Machine& m) { m.run(prog); },
        [&](Machine& m) {
          if (p.traced) {
            p.pinned["mpi.coll.alltoall.algo"] =
                algo_id(*m.telemetry(),
                        {{CollAlgo::kAlltoallPairwise, 1}, {CollAlgo::kAlltoallBruck, 2}});
          }
          return !bad;
        });
    p.end_to_end["coll_us.alltoall"] = static_cast<double>(ns) / 1e3 / kReps;
  }
  for (const char* prim : {"bcast", "allreduce", "barrier", "alltoall"}) {
    p.pinned[std::string("mpi.coll.") + prim + ".host_ms"] =
        p.run_ms[std::string("coll256.") + prim];
  }
}

// ---------------------------------------------------------------- nas16 ----

namespace {
constexpr int kNasNodes = 16;
constexpr int kNasScale = 2;
}  // namespace

void pass_nas16(Pass& p) {
  const auto kernels = sp::nas::all_kernels();
  struct Result {
    std::uint64_t checksum = 0;
    double ms = 0.0;
  };
  std::map<std::string, Result> res[2];
  const Chan chans[2] = {{Backend::kNativePipes, "native"}, {Backend::kLapiEnhanced, "enhanced"}};
  for (int c = 0; c < 2; ++c) {
    double total_ms = 0.0;
    for (const auto& [kname, kfn] : kernels) {
      const sp::nas::KernelFn fn = kfn;
      std::string lower = kname;
      for (char& ch : lower) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      std::vector<sp::nas::KernelResult> out(kNasNodes);
      std::vector<std::int64_t> span_ns(kNasNodes, 0);
      sp::mpi::optrace::Recorder rec(kNasNodes);
      const auto prog = [&](Mpi& mpi) {
        const int r = mpi.world().rank();
        const std::int64_t s0 = mpi.node().sim.now();
        const int id =
            p.spans != nullptr ? p.spans->open("nas." + lower, p.parent_span, s0) : -1;
        out[static_cast<std::size_t>(r)] = fn(mpi, kNasScale);
        span_ns[static_cast<std::size_t>(r)] = mpi.node().sim.now() - s0;
        if (id >= 0) p.spans->close(id, mpi.node().sim.now());
      };
      const std::string name = "nas16." + lower + "." + chans[c].name;
      const std::int64_t ns = run_machine(
          p, name, MachineConfig{}, kNasNodes, chans[c].backend,
          [&](Machine& m) {
            // The op recorder sees every Mpi::compute charge (traced passes only).
            if (p.traced) sp::mpi::optrace::attach(m, &rec);
            m.run(prog);
            if (p.traced) sp::mpi::optrace::attach(m, nullptr);
          },
          [&](Machine&) {
            for (const auto& k : out) {
              if (!k.verified || k.checksum != out[0].checksum) return false;
            }
            return true;
          });
      const double ms = static_cast<double>(ns) / 1e6;
      res[c][lower] = {out[0].checksum, ms};
      total_ms += ms;
      p.exact["nas." + lower + ".sim_ms." + chans[c].name] = ms;
      p.pinned["nas." + lower + ".sim_ms." + chans[c].name] = ms;
      if (p.traced) {
        std::int64_t compute = 0;
        const sp::mpi::optrace::Trace t = rec.take(name, kNasScale);
        for (const auto& ops : t.per_rank) {
          for (const auto& op : ops) {
            if (op.kind == sp::mpi::optrace::OpKind::kCompute) compute += op.count;
          }
        }
        std::int64_t in_kernels = 0;
        for (const std::int64_t s : span_ns) in_kernels += s;
        p.blocked_ns += in_kernels - compute;
        if (chans[c].backend == Backend::kLapiEnhanced) {
          p.pinned["nas.compute_us"] += static_cast<double>(compute) / 1e3;
          p.pinned["nas." + lower + ".comm_frac"] =
              in_kernels > 0 ? 1.0 - static_cast<double>(compute) / static_cast<double>(in_kernels)
                             : 0.0;
        }
      }
    }
    p.end_to_end[std::string("nas_ms.") + chans[c].name] = total_ms;
  }
  // Fidelity (EXPERIMENTS.md §6.2): MPI-LAPI improves LU, IS, CG, BT and FT;
  // EP, MG and SP stay "under the small threshold", taken here as at most 1%
  // slower. The strict per-kernel comparison is reported, not gated.
  bool same = true;
  bool gains = true;
  bool small = true;
  for (const auto& [k, r] : res[0]) {
    const Result& e = res[1][k];
    same &= r.checksum == e.checksum;
    if (k == "ep" || k == "mg" || k == "sp") {
      small &= e.ms <= 1.01 * r.ms;
    } else {
      gains &= e.ms < r.ms;
    }
    p.exact["nas." + k + ".enhanced_over_native"] = e.ms / r.ms;
  }
  p.check("nas.checksums_native_eq_enhanced", same);
  p.check("fidelity.nas_enhanced_gains_lu_is_cg_bt_ft", gains);
  p.check("fidelity.nas_enhanced_within_1pct_ep_mg_sp", small);
}

// -------------------------------------------------------------- lossy16 ----

namespace {
constexpr int kLossyNodes = 16;
constexpr int kLossySeeds = 48;
constexpr int kLossyRounds = 6;
constexpr std::size_t kLossyBytes = 8 * 1024;
constexpr std::size_t kLossyReduce = 256;
}  // namespace

void pass_lossy16(Pass& p) {
  const Chan chans[3] = {{Backend::kNativePipes, "native"},
                         {Backend::kLapiEnhanced, "enhanced"},
                         {Backend::kRdma, "rdma"}};
  std::vector<double> per_seed_ms;
  for (int k = 0; k < kLossySeeds; ++k) {
    MachineConfig cfg;
    cfg.packet_drop_rate = 0.01;
    cfg.fabric_seed = p.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k) + 1;
    // Ring payload of (src, round) at (round * n + src) * kLossyBytes.
    const Payload ring(p.seed ^ cfg.fabric_seed, 0x10, kLossyBytes * kLossyNodes * kLossyRounds);
    const auto payload = [&ring](int src, int round) {
      return ring.data.data() + (static_cast<std::size_t>(round) * kLossyNodes + src) * kLossyBytes;
    };
    double sum_ms = 0.0;
    for (const Chan& ch : chans) {
      const int n = kLossyNodes;
      bool bad = false;
      std::uint64_t sent = 0;
      std::uint64_t received = 0;
      const auto value = [&](int rank, std::size_t i, int round) {
        return static_cast<double>((cfg.fabric_seed + static_cast<std::uint64_t>(rank) * 613 +
                                    i * 17 + static_cast<std::uint64_t>(round)) % 1000);
      };
      const auto prog = [&](Mpi& mpi) {
        Comm& w = mpi.world();
        const int me = w.rank();
        const int right = (me + 1) % n;
        const int left = (me + n - 1) % n;
        std::vector<std::byte> rbuf(kLossyBytes);
        std::vector<double> in(kLossyReduce), out(kLossyReduce);
        for (int round = 0; round < kLossyRounds; ++round) {
          sp::mpi::Status st;
          mpi_call(p, mpi, "MPI_Sendrecv", [&] {
            mpi.sendrecv(payload(me, round), kLossyBytes, right, round, rbuf.data(), kLossyBytes,
                         left, round, Datatype::kByte, w, &st);
          });
          sent += kLossyBytes;
          received += st.len;
          bad |= std::memcmp(rbuf.data(), payload(left, round), kLossyBytes) != 0;
          for (std::size_t i = 0; i < kLossyReduce; ++i) in[i] = value(me, i, round);
          mpi_call(p, mpi, "MPI_Allreduce", [&] {
            mpi.allreduce(in.data(), out.data(), kLossyReduce, Datatype::kDouble,
                          sp::mpi::Op::kSum, w);
          });
          for (std::size_t i = 0; i < kLossyReduce; ++i) {
            double want = 0.0;
            for (int r = 0; r < n; ++r) want += value(r, i, round);
            bad |= out[i] != want;
          }
        }
      };
      const std::int64_t ns = run_machine(
          p, std::string("lossy16.") + ch.name + ".s" + std::to_string(k), cfg, n, ch.backend,
          [&](Machine& m) { m.run(prog); },
          [&](Machine&) { return !bad && sent == received; });
      sum_ms += static_cast<double>(ns) / 1e6;
    }
    per_seed_ms.push_back(sum_ms);
    p.exact["lossy16.sim_ms.s" + std::to_string(k)] = sum_ms;
  }
  // The mean over fabric seeds: loss makes each seed's time a draw, and the
  // mean of many draws repeats closely across --seed values.
  double sum = 0.0;
  for (double ms : per_seed_ms) sum += ms;
  p.end_to_end["lossy_sim_ms"] = sum / static_cast<double>(per_seed_ms.size());
}

}  // namespace pb
