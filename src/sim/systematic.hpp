// Systematic schedule exploration: stateless DFS with sleep-set pruning over
// the event queue's same-window scheduling choices (DESIGN.md §15).
//
// Where the seeded explorer samples schedule space (one tie-break salt per
// seed), the systematic engine *enumerates* it for small machines: every
// point where two or more ready events could run next becomes a recorded
// decision, runs are replayed from decision prefixes (the simulator is
// deterministic, so a prefix reproduces exactly), and the independence
// relation from sim/sched.hpp prunes interleavings that only reorder
// commuting events. A complete enumeration yields a certificate — "all N
// non-equivalent interleavings conformant" — with a pinned digest; any run
// that breaks an MPI invariant is encoded as an `x5-` repro token (`x6-` when
// the barrier is pinned) that `spsim explore --repro=` replays standalone.
//
// The engine runs a wildcard-heavy workload (every receive is
// MPI_ANY_SOURCE, so the matching order genuinely depends on the schedule)
// and checks, per interleaving: status/payload integrity, per-source
// non-overtaking, and a schedule-invariant commutative fold of the received
// message set that must equal an analytically computed constant on every
// interleaving of every channel.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "mpi/machine.hpp"
#include "sim/config.hpp"

namespace sp::sim {

struct SystematicOptions {
  int ranks = 2;
  int msgs_per_rank = 1;
  /// Message payload length; > the eager limit forces the rendezvous path.
  std::uint32_t msg_bytes = 24;
  /// Maximum recorded choice points per run; deeper choices run canonically
  /// and mark the certificate depth-limited (incomplete).
  int depth = 64;
  /// Candidate-window width (see MachineConfig::sched_window_ns).
  TimeNs window_ns = 0;
  mpi::Backend backend = mpi::Backend::kNativePipes;
  /// Machine-execution budget for the DFS (0 = unlimited).
  long max_runs = 200'000;
  /// Stop after this many non-redundant interleavings (0 = unlimited).
  long max_interleavings = 0;
  /// Also compute a canonical trace digest per interleaving and count
  /// duplicates — the sleep-set non-redundancy check (O(events^2) per run,
  /// test-sized configs only).
  bool canonical_check = false;
  std::FILE* log = nullptr;
  /// Cost model. Fault knobs and telemetry are neutralised per run. When it
  /// pins any collective algorithm, the workload appends a collective phase
  /// (barrier + non-commutative allreduce + bcast after the wildcard phase),
  /// each checked in-fiber against the exact sequential reference on EVERY
  /// interleaving — pinning that the pinned algorithm is schedule-invariant.
  MachineConfig base_config{};
};

/// One machine execution under a forced decision prefix.
struct SystematicRunResult {
  bool completed = false;  ///< run() returned without throwing.
  std::string error;
  std::vector<std::string> violations;  ///< MPI-invariant breaks in this run.
  /// Ordered fold of each rank's wildcard match sequence — legitimately
  /// differs across interleavings; the certificate covers the *set*.
  std::uint64_t outcome_digest = 0;
  /// Commutative fold of the received message set — must equal
  /// systematic_expected_invariant() on every interleaving of every channel.
  std::uint64_t invariant_digest = 0;
  bool redundant = false;      ///< Sleep-set-blocked (covered elsewhere).
  bool depth_limited = false;  ///< Hit SystematicOptions::depth.
  int choice_points = 0;       ///< Decision points recorded in this run.
};

struct SystematicReport {
  /// Frontier drained with no depth/fanout truncation and no mismatch: the
  /// interleaving count and certificate digest are exhaustive.
  bool complete = false;
  bool depth_limited = false;
  long interleavings = 0;  ///< Non-redundant executions (the certificate N).
  long redundant = 0;      ///< Sleep-set-pruned executions.
  long runs = 0;           ///< Total machine executions.
  long choice_points = 0;  ///< choose() invocations across non-redundant runs.
  int max_fanout = 0;      ///< Widest choice point seen.
  long fanout_capped = 0;  ///< Points wider than the 16-way token encoding.
  /// Interleavings whose canonical trace digest was already seen; sleep-set
  /// pruning is non-redundant iff this stays 0 (canonical_check runs only).
  long duplicate_traces = 0;
  std::size_t distinct_outcomes = 0;
  /// Fold of (interleavings, sorted distinct outcome digests): the pinned
  /// certificate value.
  std::uint64_t certificate_digest = 0;
  std::uint64_t invariant_digest = 0;

  struct Mismatch {
    std::string reason;
    std::string token;           ///< Shrunk x5/x6 repro token.
    std::string original_token;  ///< Pre-shrink token of the failing run.
  };
  std::vector<Mismatch> mismatches;
};

/// The schedule-invariant digest every interleaving must produce, computed
/// analytically (no machine run) from the workload shape.
[[nodiscard]] std::uint64_t systematic_expected_invariant(int ranks, int msgs_per_rank,
                                                          std::uint32_t msg_bytes);

/// Replay one decision sequence (each entry indexes the sorted candidate list
/// at that choice point; past the end, the first non-sleeping candidate is
/// taken). One machine execution. Deterministic per (opts, decisions).
[[nodiscard]] SystematicRunResult systematic_replay(const SystematicOptions& opts,
                                                    const std::vector<std::uint8_t>& decisions);

/// Enumerate all non-equivalent interleavings by DFS with sleep sets.
/// Stops early on budget exhaustion or the first mismatch (complete=false).
[[nodiscard]] SystematicReport systematic_explore(const SystematicOptions& opts);

struct Perturbation;  // sim/explorer.hpp

/// The repro vector of one run: workload shape, backend and decisions from
/// `opts`, and the fabric seed, topology and collective pins of the config
/// the run used (Perturbation::capture); every other knob stays neutral. Its
/// token() is what systematic_explore reports for a failing run.
[[nodiscard]] Perturbation systematic_vector(const SystematicOptions& opts,
                                             const std::vector<std::uint8_t>& decisions);

/// The inverse: replay one systematic vector (Perturbation::kFlagSystematic, e.g. a parsed
/// x5/x6 token) on `base` overlaid with Perturbation::apply, as
/// Explorer::check does for differential vectors. One machine execution;
/// nullopt when conformant, otherwise the verdict systematic_explore would
/// report for the same run.
[[nodiscard]] std::optional<std::string> systematic_check(const Perturbation& p,
                                                          const MachineConfig& base);

}  // namespace sp::sim
