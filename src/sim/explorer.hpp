// Schedule-space explorer: differential Pipes <-> LAPI <-> RDMA conformance
// fuzzing.
//
// The paper's central claim is that MPI-LAPI preserves MPI two-sided
// semantics while replacing every layer underneath. The explorer tests that
// claim systematically: one master seed expands into a perturbation vector
// (fault knobs, route bias, delivery jitter, event tie-break salt, interrupt
// mode); the same deterministic mixed eager/rendezvous workload then runs on
// two or three of the channels (native Pipes, a LAPI channel, the RDMA
// channel — the vector's `channels` field picks the pairing) and the
// channel-invariant observables — received payloads, match order per
// (ctx, src, tag), MPI status fields, collective results under the vector's
// pinned algorithms, final rank buffers — must agree, while
// channel-specific transport counters must satisfy declared invariants
// (retransmit bounds, re-ack coalescing, telemetry ring accounting).
//
// On a failure the explorer shrinks: perturbation knobs are ablated to their
// neutral values and the survivors halved, then the workload itself is
// shrunk, yielding a minimal failing vector encoded as a repro token that
// `spsim explore --repro=<token>` replays standalone.
//
// Everything is deterministic: the same seed always produces the same
// perturbation, machine schedule, digests and shrink result (asserted by
// tests/explorer_test.cpp), so a token found by the nightly sweep reproduces
// anywhere.
//
// Lives in sp::sim but is compiled into the sp_mpi library: the explorer
// drives whole Machines, which sit at the top of the layer stack.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "mpi/machine.hpp"
#include "sim/config.hpp"
#include "sim/systematic.hpp"

namespace sp::sim {

/// One point in schedule space: every knob the explorer varies, in exactly
/// round-trippable integer form (rates are parts-per-million so tokens encode
/// losslessly). Derived from a master seed by Explorer::perturbation_for and
/// mutated only by shrinking.
struct Perturbation {
  std::uint64_t seed = 0;  ///< Master seed (identity; kept through shrinking).

  // Workload shape.
  int nodes = 4;
  int msgs_per_rank = 12;
  std::uint64_t workload_seed = 1;

  // Fabric fault + schedule knobs (neutral values = a clean machine).
  std::uint32_t drop_ppm = 0;        ///< packet_drop_rate * 1e6
  std::uint32_t dup_ppm = 0;         ///< packet_dup_rate * 1e6
  std::uint32_t route_bias_ppm = 0;  ///< route_bias * 1e6
  TimeNs jitter_ns = 0;
  TimeNs route_skew_ns = 0;
  int burst = 1;
  std::uint64_t fabric_seed = 0x5eed;
  std::uint64_t tie_break_salt = 0;  ///< Event-queue tie-break permutation.

  std::uint32_t flags = 0;
  /// Re-introduce the PR 2 re-ack coalescing bug (explorer self-test only).
  static constexpr std::uint32_t kFlagReackStormBug = 1u << 0;
  /// Run the workload in interrupt (rather than polling) mode.
  static constexpr std::uint32_t kFlagInterruptMode = 1u << 1;
  /// Systematic-mode vector (DESIGN.md §15): `sched` replays one enumerated
  /// interleaving of the wildcard workload on the backend encoded in bits
  /// [kBackendShift, kBackendShift+4). parse() requires the differential-mode
  /// knobs (drop, dup, route bias, jitter, skew, salt, channels, burst and the
  /// two flags above) to stay neutral: the systematic replay never reads them.
  static constexpr std::uint32_t kFlagSystematic = 1u << 2;
  static constexpr std::uint32_t kBackendShift = 4;
  static constexpr std::uint32_t kBackendMask = 0xFu << kBackendShift;

  /// Collective algorithm pins, one nibble per primitive (0 = auto), as the
  /// MachineConfig coll_*_algo values. apply() and capture() are the only
  /// code that knows the nibble layout; parse() rejects a pin that names no
  /// algorithm. Algorithm choice must never change the user-visible results,
  /// so the pins perturb schedules, not digests of collective outputs.
  std::uint32_t coll_algos = 0;

  /// Interconnect topology (TopologyKind as an integer; 0 = SP multistage).
  /// Topology choice perturbs packet schedules only — MPI results and
  /// collective output digests must be identical on every fabric, which the
  /// differential check enforces as an observable.
  std::uint32_t topology = 0;

  /// Which channels the differential check runs: 0 = the legacy pair (Pipes
  /// vs the configured LAPI backend), 1 = Pipes vs RDMA, 2 = LAPI vs RDMA,
  /// 3 = the full trio. Every pairing must produce identical conformance
  /// digests.
  std::uint32_t channels = 0;

  // Systematic-mode fields; parse() requires their defaults on a
  // non-systematic vector.
  TimeNs sched_window_ns = 0;       ///< Candidate-window width for choice points.
  std::uint32_t sys_msg_bytes = 24; ///< Wildcard payload length (> eager limit = rendezvous).
  /// Decision sequence, one lowercase hex digit per choice point (candidate
  /// index in canonical (at, seq) order); "" replays the canonical schedule.
  std::string sched;

  /// Barrier-algorithm pin (the sixth pin, kept apart from coll_algos
  /// because it arrived with a later token version).
  std::uint32_t coll_ext = 0;

  bool operator==(const Perturbation&) const = default;

  /// Overlay this vector on a base config (also enables telemetry: the
  /// explorer uses its digest and ring accounting as observables).
  [[nodiscard]] MachineConfig apply(MachineConfig base) const;

  /// Inverse of apply() for the fields a config carries exactly: set the
  /// fabric seed, topology and the six collective pins from `cfg`.
  void capture(const MachineConfig& cfg);

  /// Compact repro token: "xN" then lowercase-hex fields, one per entry of
  /// the token field table in explorer.cpp. Versions are append-only (x2
  /// seed .. coll_algos, x3 + topology, x4 + channels, x5 + the systematic
  /// fields, x6 + coll_ext); token() emits x4, x5 for a systematic vector,
  /// x6 when the barrier is pinned. parse() reads x2-x6 and round-trips it.
  [[nodiscard]] std::string token() const;
  [[nodiscard]] static std::optional<Perturbation> parse(const std::string& token);
};

class Explorer {
 public:
  struct Options {
    int nodes = 4;
    int msgs_per_rank = 12;
    std::uint64_t base_seed = 1;  ///< Seeds run are base_seed .. base_seed+seeds-1.
    int seeds = 256;
    /// Machine-execution budget across exploration + shrinking (2 per seed
    /// checked). 0 = seeds * 8, leaving room for the shrink loop.
    int max_runs = 0;
    /// LAPI side of the differential pair (the Pipes side is fixed).
    mpi::Backend lapi_backend = mpi::Backend::kLapiEnhanced;
    /// Force Perturbation::kFlagReackStormBug on every seed (self-test).
    bool inject_reack_bug = false;
    /// Progress/diagnostic log (null = silent).
    std::FILE* log = nullptr;
    /// Cost model the perturbations overlay.
    MachineConfig base_config{};
  };

  /// Everything observed from one (perturbation, channel) execution.
  struct RunOutcome {
    bool completed = false;  ///< run() returned without throwing.
    std::string error;       ///< Exception text when !completed.

    // Channel-invariant observables (must match across channels).
    std::uint64_t payload_digest = 0;   ///< Received bytes, posted-recv order.
    std::uint64_t status_digest = 0;    ///< waitall Status fields, posted order.
    std::uint64_t match_digest = 0;     ///< Per-(ctx,src,tag) match order.
    std::uint64_t wildcard_digest = 0;  ///< Order-insensitive wildcard fold.
    std::uint64_t coll_digest = 0;      ///< Collective results, folded in rank order.
    std::uint64_t checksum = 0;         ///< Allreduce total (same on all ranks).
    std::uint64_t conformance_digest = 0;  ///< Fold of all of the above.

    // Channel-specific observables (checked against invariants, not diffed).
    mpi::Machine::Stats stats{};
    std::uint64_t telemetry_digest = 0;
    TimeNs elapsed = 0;
    std::vector<std::string> invariant_violations;

    [[nodiscard]] bool ok() const noexcept {
      return completed && invariant_violations.empty();
    }
  };

  struct Mismatch {
    Perturbation original;  ///< As derived from the failing master seed.
    Perturbation shrunk;    ///< Minimal failing vector.
    std::string reason;     ///< First divergence / violation found.
    std::string token;      ///< shrunk.token(), for `spsim explore --repro=`.
  };

  struct Report {
    int seeds_run = 0;
    int runs = 0;  ///< Machine executions, including shrinking.
    std::vector<Mismatch> mismatches;
  };

  explicit Explorer(Options opts) : opts_(std::move(opts)) {}

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  /// Expand a master seed into its perturbation vector (pure function of the
  /// seed and the workload-shape options).
  [[nodiscard]] Perturbation perturbation_for(std::uint64_t seed) const;

  /// Execute the conformance workload under `p` on one channel and collect
  /// observables + invariant verdicts. Deterministic per (p, backend).
  [[nodiscard]] RunOutcome run_channel(const Perturbation& p, mpi::Backend backend) const;

  /// Differential check: run `p` on the channel set its `channels` field
  /// selects; nullopt when conformant, otherwise a human-readable failure
  /// reason. Counts one run per channel toward runs(). A systematic vector
  /// instead replays its one interleaving (systematic_check, one run).
  [[nodiscard]] std::optional<std::string> check(const Perturbation& p);

  /// Shrink a failing differential vector to a minimal one that still fails
  /// (any failure reason counts). Bounded by the remaining run budget.
  /// Systematic vectors shrink inside systematic_explore instead.
  [[nodiscard]] Perturbation shrink(Perturbation p);

  /// Sweep seeds until the budget or seed count is exhausted; shrink the
  /// first failure found and stop.
  [[nodiscard]] Report explore();

  /// Systematic mode (DESIGN.md §15): enumerate all non-equivalent
  /// interleavings of the wildcard workload by DFS with sleep sets. The
  /// explorer's run budget (max_runs) caps the enumeration unless `sopts`
  /// sets a tighter one; every machine execution counts toward runs().
  [[nodiscard]] SystematicReport explore_systematic(SystematicOptions sopts);

  /// Re-run `p` on `backend` with telemetry and write a Perfetto-loadable
  /// Chrome-JSON trace of the (deterministically reproduced) run.
  bool export_trace(const Perturbation& p, mpi::Backend backend, const std::string& path) const;

  /// Machine executions so far (exploration + shrinking).
  [[nodiscard]] int runs() const noexcept { return runs_; }

  /// Exact machine-execution cost of check(p): 1 for a systematic replay,
  /// 3 for a trio differential, otherwise 2. The explore/shrink loops admit
  /// a candidate only when this fits the remaining budget.
  [[nodiscard]] static int runs_for(const Perturbation& p) noexcept {
    if ((p.flags & Perturbation::kFlagSystematic) != 0) return 1;
    return p.channels == 3 ? 3 : 2;
  }

 private:
  [[nodiscard]] int max_runs() const noexcept {
    return opts_.max_runs > 0 ? opts_.max_runs : opts_.seeds * 8;
  }

  Options opts_;
  int runs_ = 0;
};

}  // namespace sp::sim
