// perfbench driver: runs one workload for a fixed host-time budget and prints
// one JSON object of named figures for perfbench/run.py.
//
//   perfbench --workload p2p2|coll256|nas16|lossy16 --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// Untraced (--trace 0): the workload's pass repeats until S seconds have gone
// (at least three times); host figures are medians over passes, simulated
// figures must be bit-identical on every pass. Then one reference pass of
// every other workload supplies the simulated end-to-end figures owned by
// those workloads, so every run reports every end-to-end metric.
//
// Traced (--trace 1): untraced and Telemetry-enabled passes alternate. The
// traced passes give the per-layer figures, their simulated results must
// equal the untraced ones, and the wall-time difference is the tracing
// overhead. Spans recorded on the first traced pass, on the reference passes
// and around the standalone sim/net drives are written to --spans.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

using pb::Pass;

struct Workload {
  const char* name;
  pb::PassFn fn;
};
constexpr Workload kWorkloads[] = {
    {"p2p2", pb::pass_p2p2},
    {"coll256", pb::pass_coll256},
    {"nas16", pb::pass_nas16},
    {"lossy16", pb::pass_lossy16},
};
constexpr int kMinPasses = 3;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double cpu_sys_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_stime.tv_sec) + static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Output {
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;
  std::map<std::string, bool> checks;  ///< name -> passed (ANDed over passes)
  int ops = 0;
  int failed = 0;
  std::vector<std::string> errors;

  void absorb(const Pass& p) {
    ops += p.ops;
    failed += p.failed;
    for (const auto& e : p.errors) {
      if (errors.size() < 20) errors.push_back(e);
    }
    for (const auto& [name, ok] : p.checks) check(name, ok);
  }
  void check(const std::string& name, bool ok) {
    auto it = checks.find(name);
    if (it == checks.end()) {
      checks[name] = ok;
    } else {
      it->second = it->second && ok;
    }
  }
  void print(const char* workload) const {
    std::printf("{\"workload\": \"%s\", \"ops\": %d, \"failed\": %d", workload, ops, failed);
    auto dump = [](const char* key, const std::map<std::string, double>& m) {
      std::printf(", \"%s\": {", key);
      const char* sep = "";
      for (const auto& [k, v] : m) {
        std::printf("%s\"%s\": %.17g", sep, k.c_str(), std::isfinite(v) ? v : 0.0);
        sep = ", ";
      }
      std::printf("}");
    };
    dump("metrics", metrics);
    dump("info", info);
    std::printf(", \"checks\": {");
    const char* sep = "";
    for (const auto& [k, ok] : checks) {
      std::printf("%s\"%s\": %s", sep, k.c_str(), ok ? "true" : "false");
      sep = ", ";
    }
    std::printf("}, \"errors\": [");
    sep = "";
    for (const auto& e : errors) {
      std::printf("%s\"%s\"", sep, json_escape(e).c_str());
      sep = ", ";
    }
    std::printf("]}\n");
  }
};

/// Per-layer figures of the workload's own traced passes (see run.py for the
/// end-to-end metric each should move).
void per_layer(Output& out, const std::vector<Pass>& untraced, const std::vector<Pass>& traced,
               double sys_per_pass, double rss_kb, pb::SpanRecorder& spans) {
  const Pass& t = traced.front();
  const Pass& u = untraced.front();
  auto x = [&t](const char* k) {
    const auto it = t.exact.find(k);
    return it != t.exact.end() ? it->second : 0.0;
  };
  std::vector<double> walls, twalls, setups;
  for (const Pass& p : untraced) {
    walls.push_back(p.wall_s);
    setups.push_back(p.setup_s);
  }
  for (const Pass& p : traced) twalls.push_back(p.wall_s);
  auto& m = out.metrics;

  // sim: a bare event chain as long as the pass, one lane per rank of its
  // largest machine.
  const int chain = spans.open("sim.drive", -1);
  const double ns_per_event = pb::sim_chain_ns_per_event(
      static_cast<std::uint64_t>(x("sim.events")), std::max(1, u.max_nodes));
  spans.close(chain);
  m["sim.events"] = x("sim.events");
  m["sim.events_per_s"] = ratio(x("sim.events"), median(walls));
  m["sim.pooled_action_ratio"] = ratio(x("sim.pooled_actions"), x("sim.events_pushed"));
  m["sim.sys_s"] = sys_per_pass;
  m["sim.rss_kb_per_rank"] = ratio(rss_kb, u.max_nodes);
  m["sim.setup_ms_per_rank"] = ratio(median(setups) * 1e3, u.ranks_built);
  m["sim.host_ns_per_event"] = ns_per_event;

  // net: the pass's own injections replayed through a standalone fabric,
  // less the simulator cost of the events the replay processed.
  const int drive = spans.open("net.drive", -1);
  double replay_s = 0.0;
  double packets = 0.0;
  std::uint64_t events = 0;
  for (const pb::InjectStream& s : t.net_streams) {
    replay_s += pb::replay_fabric(s, &events);
    packets += static_cast<double>(s.injects.size());
  }
  spans.close(drive);
  m["net.packets"] = x("net.packets");
  m["net.bytes"] = x("net.bytes");
  m["net.dropped"] = x("net.dropped");
  m["net.host_ns_per_packet"] =
      ratio(replay_s * 1e9 - static_cast<double>(events) * ns_per_event, packets);

  // hal
  m["hal.packets_sent"] = x("hal.packets_sent");
  m["hal.interrupts"] = x("hal.interrupts");
  m["hal.irq_service_us.p50"] = percentile(t.irq_service_ns, 0.50) / 1e3;
  m["hal.irq_service_us.p99"] = percentile(t.irq_service_ns, 0.99) / 1e3;
  m["hal.frames_fresh_ratio"] =
      ratio(x("hal.frames_fresh"), x("hal.frames_fresh") + x("hal.frames_recycled"));
  m["hal.staged_bytes"] = x("hal.staged_bytes");
  m["hal.rdma_writes"] = x("hal.rdma_writes");
  m["hal.rdma_reads"] = x("hal.rdma_reads");
  m["hal.rdma_retransmits"] = x("hal.rdma_retransmits");

  // pipes
  m["pipes.acks"] = x("pipes.acks");
  m["pipes.retransmits"] = x("pipes.retransmits");
  m["pipes.reacks_coalesced"] = x("pipes.reacks_coalesced");

  // lapi
  m["lapi.messages"] = x("lapi.messages");
  m["lapi.acks"] = x("lapi.acks");
  m["lapi.retransmits"] = x("lapi.retransmits");
  m["lapi.retransmit_ratio"] = ratio(x("lapi.retransmits"), x("lapi.messages"));
  m["lapi.completion_thread"] = x("lapi.completion_thread");
  m["lapi.completion_inline"] = x("lapi.completion_inline");

  // mpci
  m["mpci.eager_sends"] = x("mpci.eager_sends");
  m["mpci.rendezvous_sends"] = x("mpci.rendezvous_sends");
  m["mpci.early_arrivals"] = x("mpci.early_arrivals");
  m["mpci.ea_fallbacks"] = x("mpci.ea_fallbacks");
  m["mpci.ea_nacks"] = x("mpci.ea_nacks");
  m["mpci.match_scanned.mean"] = mean(t.match_scanned);
  m["mpci.match_scanned.p99"] = percentile(t.match_scanned, 0.99);

  // mpi
  m["mpi.calls"] = t.telem.count("mpi.calls") != 0 ? t.telem.at("mpi.calls") : 0.0;
  m["mpi.blocked_us"] = static_cast<double>(t.blocked_ns) / 1e3;
  m["mpi.call_us.p50"] = percentile(t.mpi_call_ns, 0.50) / 1e3;
  m["mpi.call_us.p99"] = percentile(t.mpi_call_ns, 0.99) / 1e3;

  // tracing itself
  m["trace.overhead_s"] = median(twalls) - median(walls);
  m["trace.records"] = t.telem.count("trace.records") != 0 ? t.telem.at("trace.records") : 0.0;
  m["trace.records_dropped"] =
      t.telem.count("trace.records_dropped") != 0 ? t.telem.at("trace.records_dropped") : 0.0;
  out.info["trace.wall_s"] = median(twalls);
  out.info["trace.untraced_wall_s"] = median(walls);
  out.info["net.replayed_packets"] = packets;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (workload == c.name) w = &c;
  }
  if (w == nullptr || (trace != 0 && trace != 1) || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload p2p2|coll256|nas16|lossy16 --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }

  pb::SpanRecorder spans;
  Output out;
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  auto run_pass = [&](const Workload& wl, bool tr, pb::SpanRecorder* rec) {
    Pass p;
    p.seed = seed;
    p.traced = tr;
    p.spans = rec;
    wl.fn(p);
    out.absorb(p);
    return p;
  };

  double rss_kb = 0.0;
  const double sys0 = cpu_sys_s();
  const double t_end = pb::host_now() + seconds;
  // Traced runs alternate in U T T U order, so slow drift in host speed and
  // the first pass's cold heap fall on both sides alike.
  do {
    const bool traced_first = trace == 1 && untraced.size() % 2 == 1;
    if (traced_first) traced.push_back(run_pass(*w, true, nullptr));
    untraced.push_back(run_pass(*w, false, nullptr));
    if (untraced.size() == 1) rss_kb = peak_rss_kb();
    if (trace == 1 && !traced_first) {
      traced.push_back(run_pass(*w, true, traced.empty() ? &spans : nullptr));
    }
  } while (pb::host_now() < t_end || untraced.size() < kMinPasses);
  const double sys_per_pass =
      (cpu_sys_s() - sys0) / static_cast<double>(untraced.size() + traced.size());

  // Exactness: every simulated result and model counter repeats bit for bit,
  // and enabling telemetry changes none of them.
  bool repeat = true;
  for (const Pass& p : untraced) {
    repeat &= p.exact == untraced.front().exact && p.end_to_end == untraced.front().end_to_end;
  }
  out.check("exact.repeat", repeat);
  if (trace == 1) {
    bool traced_repeat = true;
    for (const Pass& p : traced) {
      traced_repeat &= p.exact == traced.front().exact && p.telem == traced.front().telem &&
                       p.end_to_end == traced.front().end_to_end;
    }
    out.check("exact.traced_repeat", traced_repeat);
    out.check("exact.telemetry_on_equals_off",
              traced.front().exact == untraced.front().exact &&
                  traced.front().end_to_end == untraced.front().end_to_end);
    out.check("trace.no_records_dropped", traced.front().telem.count("trace.records_dropped") != 0 &&
                                              traced.front().telem.at("trace.records_dropped") == 0);
  }

  // Figures owned by one workload: the own workload's medians over its
  // traced passes, and one reference pass of each other workload.
  std::map<std::string, double> e2e = untraced.front().end_to_end;
  std::map<std::string, std::vector<double>> pinned;
  for (const Pass& p : traced) {
    for (const auto& [k, v] : p.pinned) pinned[k].push_back(v);
  }
  for (const Workload& other : kWorkloads) {
    if (&other == w) continue;
    const Pass r = run_pass(other, trace == 1, trace == 1 ? &spans : nullptr);
    e2e.insert(r.end_to_end.begin(), r.end_to_end.end());
    for (const auto& [k, v] : r.pinned) pinned[k].push_back(v);
  }

  std::vector<double> walls, setups;
  for (const Pass& p : untraced) {
    walls.push_back(p.wall_s);
    setups.push_back(p.setup_s);
  }
  if (trace == 0) {
    out.metrics = e2e;
    out.metrics["wall_s"] = median(walls);
    out.metrics["setup_s"] = median(setups);
    out.metrics["peak_rss_mb"] = rss_kb / 1024.0;
  } else {
    per_layer(out, untraced, traced, sys_per_pass, rss_kb, spans);
    for (const auto& [k, v] : pinned) out.metrics[k] = median(v);
    out.metrics["trace.spans"] = static_cast<double>(spans.size());
    if (!spans_path.empty()) out.check("trace.spans_written", spans.write_jsonl(spans_path));
  }
  out.info["passes"] = static_cast<double>(untraced.size());
  out.info["passes_traced"] = static_cast<double>(traced.size());
  out.info["wall_s.min"] = *std::min_element(walls.begin(), walls.end());
  out.info["wall_s.max"] = *std::max_element(walls.begin(), walls.end());
  out.info["setup_s.min"] = *std::min_element(setups.begin(), setups.end());
  out.info["setup_s.max"] = *std::max_element(setups.begin(), setups.end());
  out.info.insert(untraced.front().exact.begin(), untraced.front().exact.end());
  for (const auto& [k, v] : untraced.front().run_ms) out.info["run_ms." + k] = v;
  out.print(w->name);

  bool ok = out.failed == 0;
  for (const auto& [name, passed] : out.checks) ok &= passed;
  return ok ? 0 : 1;
}
