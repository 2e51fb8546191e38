// perfbench: shared types of the repository benchmark driver.
//
// One *pass* runs one workload once: a fixed list of machine runs, each one
// operation that is verified after it ends. A pass yields host times (setup,
// run), exact simulated results and model counters, and — on a traced pass —
// Telemetry-derived layer figures plus spans recorded on the benchmark's side
// of each layer's public entry points.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mpi/machine.hpp"

namespace pb {

/// Host seconds on a steady clock.
double host_now();

/// One span: a call into a layer's public entry point, timed in both domains.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  double host_start = 0.0;  ///< host_now() seconds.
  double host_end = 0.0;
  std::int64_t sim_start = -1;  ///< Simulated ns; -1 outside a machine.
  std::int64_t sim_end = -1;
};

/// In-memory span store, written out once when the benchmark ends.
class SpanRecorder {
 public:
  int open(std::string name, int parent, std::int64_t sim_start = -1);
  void close(int id, std::int64_t sim_end = -1);
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// A packet injection seen by Telemetry, replayed by the standalone net drive.
struct Inject {
  std::int64_t t = 0;
  int src = 0;
  int dst = 0;
  std::uint32_t bytes = 0;
};

/// The fabric configuration and injections of one traced machine run.
struct InjectStream {
  sp::sim::MachineConfig cfg;
  int nodes = 0;
  std::vector<Inject> injects;
};

struct Pass {
  // --- inputs ---
  std::uint64_t seed = 1;
  bool traced = false;
  SpanRecorder* spans = nullptr;  ///< Null: record no spans on this pass.
  int parent_span = -1;           ///< Span of the machine run in progress.

  // --- host domain ---
  double wall_s = 0.0;   ///< Sum of Machine::run / run_lapi host seconds.
  double setup_s = 0.0;  ///< Sum of Machine construction host seconds.
  int ranks_built = 0;   ///< Ranks over all machines constructed.
  int max_nodes = 0;     ///< Ranks of the pass's largest machine.
  std::map<std::string, double> run_ms;  ///< Host ms of each machine's run.

  // --- exact: identical on every pass, traced or not ---
  std::map<std::string, double> exact;
  /// The simulated end-to-end metrics this workload owns (final names).
  std::map<std::string, double> end_to_end;
  // --- traced passes only ---
  std::map<std::string, double> telem;  ///< Exact Telemetry-derived figures.
  std::vector<double> irq_service_ns;
  std::vector<double> match_scanned;
  std::vector<double> mpi_call_ns;
  std::int64_t blocked_ns = 0;  ///< Simulated ns inside MPI calls (see mpi_call).
  std::vector<InjectStream> net_streams;
  /// Per-layer figures owned by one workload (final metric names), e.g. the
  /// algorithm `auto` picks on coll256; every traced run reports them.
  std::map<std::string, double> pinned;

  // --- accounting ---
  int ops = 0;
  int failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, bool>> checks;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
};

/// Replays an injection stream through a standalone SwitchFabric. Returns
/// host seconds; adds the events processed to *events.
double replay_fabric(const InjectStream& s, std::uint64_t* events);

/// Host ns per event of a bare Simulator running `lanes` self-rescheduling
/// event chains for `events` events in total.
double sim_chain_ns_per_event(std::uint64_t events, int lanes);

// --- workloads (workloads.cpp) ---
using PassFn = void (*)(Pass&);
void pass_p2p2(Pass& p);
void pass_coll256(Pass& p);
void pass_nas16(Pass& p);
void pass_lossy16(Pass& p);

}  // namespace pb
