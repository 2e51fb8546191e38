// Machine: one simulated RS/6000 SP system, fully wired.
//
// Owns the simulator, the switch fabric and, per node: the runtime, HAL,
// Pipes, LAPI, the selected MPCI channel and the MPI layer. Rank programs run
// on cooperative fibers (see sim/rank_thread.hpp); Machine::run() drives the
// event loop to completion, detecting deadlocks and propagating program
// errors.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hal/hal.hpp"
#include "hal/rdma_nic.hpp"
#include "lapi/lapi.hpp"
#include "mpci/lapi_channel.hpp"
#include "mpci/pipes_channel.hpp"
#include "mpci/rdma_channel.hpp"
#include "mpi/mpi.hpp"
#include "net/switch_fabric.hpp"
#include "pipes/pipes.hpp"
#include "sim/config.hpp"
#include "sim/node_runtime.hpp"
#include "sim/simulator.hpp"

namespace sp::mpi {

/// Which protocol stack the MPI layer runs on (Fig. 1 + §5 versions).
enum class Backend {
  kNativePipes,   ///< MPI -> MPCI -> Pipes -> HAL (Fig. 1a)
  kLapiBase,      ///< MPI -> new MPCI -> LAPI (completion-handler thread, §4)
  kLapiCounters,  ///< §5.2: eager completions through exchanged counters
  kLapiEnhanced,  ///< §5.3: inline predefined completion handlers
  kRdma,          ///< RDMA/NIC-offload adapter (DESIGN.md §14)
};

[[nodiscard]] constexpr const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::kNativePipes: return "Native MPI (Pipes)";
    case Backend::kLapiBase: return "MPI-LAPI Base";
    case Backend::kLapiCounters: return "MPI-LAPI Counters";
    case Backend::kLapiEnhanced: return "MPI-LAPI Enhanced";
    case Backend::kRdma: return "MPI-RDMA Offload";
  }
  return "?";
}

class Machine {
 public:
  Machine(const sim::MachineConfig& cfg, int num_tasks, Backend backend);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Run an SPMD MPI program on every task to completion.
  void run(const std::function<void(Mpi&)>& program);

  /// Run an SPMD program against the raw LAPI interface.
  void run_lapi(const std::function<void(lapi::Lapi&)>& program);

  /// Simulated time when the last run() finished.
  [[nodiscard]] sim::TimeNs elapsed() const noexcept { return elapsed_; }

  /// Digest of every event this machine has run, in order (the determinism
  /// goldens pin it; see sim::EventQueue::schedule_digest).
  [[nodiscard]] std::uint64_t schedule_digest() const noexcept {
    return sim_.schedule_digest();
  }

  /// Aggregate statistics over all nodes (diagnostics / the spsim tool).
  struct Stats {
    std::int64_t packets_sent = 0;
    std::int64_t packets_received = 0;
    std::int64_t interrupts = 0;
    std::int64_t fabric_packets = 0;
    std::int64_t fabric_bytes = 0;
    std::int64_t fabric_dropped = 0;
    std::int64_t fabric_duplicated = 0;  ///< Extra copies injected by the fabric.
    std::int64_t eager_sends = 0;
    std::int64_t rendezvous_sends = 0;
    std::int64_t early_arrivals = 0;
    std::int64_t ea_fallbacks = 0;  ///< Eagers demoted to rendezvous (credits/ring).
    std::int64_t ea_nacks = 0;      ///< Eagers refused at the receiver (EA full).
    std::int64_t rdma_writes = 0;
    std::int64_t rdma_reads = 0;
    std::int64_t nic_collectives = 0;  ///< Collectives completed on the adapter.
    std::int64_t innet_collectives = 0;    ///< Collectives combined in the switches.
    std::int64_t innet_combines = 0;       ///< Element-level child folds.
    std::int64_t innet_replications = 0;   ///< Downward replication fan-out.
    std::int64_t innet_dup_discards = 0;   ///< Duplicates stopped by the seen-flags.
    std::int64_t innet_retransmits = 0;    ///< Combining-tree hops retried after drops.
    std::int64_t innet_table_peak = 0;     ///< Peak live combining-table entries.
    std::int64_t rdma_retransmits = 0;
    std::int64_t rdma_acks = 0;
    std::int64_t rdma_duplicate_deliveries = 0;
    std::int64_t rdma_reacks_coalesced = 0;  ///< Dup re-acks folded into delayed flushes.
    std::int64_t lapi_messages = 0;
    std::int64_t lapi_retransmits = 0;
    std::int64_t lapi_duplicate_deliveries = 0;  ///< Dup packets filtered at LAPI targets.
    std::int64_t lapi_acks = 0;
    std::int64_t lapi_reacks_coalesced = 0;  ///< Dup re-acks folded into delayed flushes.
    std::int64_t pipes_retransmits = 0;
    std::int64_t pipes_duplicate_deliveries = 0;  ///< Dup packets filtered by Pipes.
    std::int64_t pipes_acks = 0;
    std::int64_t pipes_reacks_coalesced = 0;  ///< Dup re-acks folded into delayed flushes.
    std::int64_t completion_thread_dispatches = 0;
    std::int64_t completion_inline_runs = 0;
    std::uint64_t sim_events = 0;
    // Host-side perf counters: how well the simulator's own hot paths avoid
    // allocation. These measure the host implementation, not the SP model.
    std::uint64_t events_pushed = 0;
    std::uint64_t events_popped = 0;
    std::uint64_t actions_inline = 0;       ///< Event closures with inline captures.
    std::uint64_t action_pool_hits = 0;     ///< Oversize captures served from the pool.
    std::uint64_t action_pool_misses = 0;   ///< Oversize captures that grew the pool.
    std::uint64_t action_fallback_allocs = 0;  ///< Captures beyond the largest class.
    std::uint64_t frames_recycled = 0;      ///< Packet frames served from the arena.
    std::uint64_t frames_fresh = 0;         ///< Packet frames freshly allocated.
    std::int64_t hal_staged_bytes = 0;      ///< Un-modeled host memcpy into send frames.
  };
  [[nodiscard]] Stats stats() const;
  /// Field-wise `later - earlier`: attributes counter activity to the window
  /// between two stats() samples (e.g. retransmits during one soak phase).
  [[nodiscard]] static Stats stats_delta(const Stats& later, const Stats& earlier) noexcept;
  /// stats() relative to a baseline sampled earlier in the same run.
  [[nodiscard]] Stats stats_since(const Stats& baseline) const {
    return stats_delta(stats(), baseline);
  }
  /// Print a human-readable stats block to `out`.
  void print_stats(std::FILE* out) const;

  /// Structured telemetry (null unless cfg.telemetry_enabled).
  [[nodiscard]] sim::Telemetry* telemetry() noexcept { return telemetry_.get(); }
  [[nodiscard]] const sim::Telemetry* telemetry() const noexcept { return telemetry_.get(); }

  // --- component access (tests, benches) ---
  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] const sim::MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] int num_tasks() const noexcept { return num_tasks_; }
  [[nodiscard]] Backend backend() const noexcept { return backend_; }
  [[nodiscard]] net::SwitchFabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] hal::Hal& hal(int t) { return *nodes_[static_cast<std::size_t>(t)]->hal; }
  [[nodiscard]] pipes::Pipes& pipes(int t) { return *nodes_[static_cast<std::size_t>(t)]->pipes; }
  [[nodiscard]] lapi::Lapi& lapi(int t) { return *nodes_[static_cast<std::size_t>(t)]->lapi; }
  [[nodiscard]] mpci::Channel& channel(int t) {
    return *nodes_[static_cast<std::size_t>(t)]->channel;
  }
  /// The RDMA adapter (only wired on Backend::kRdma).
  [[nodiscard]] hal::RdmaNic& rdma(int t) { return *nodes_[static_cast<std::size_t>(t)]->rdma; }
  [[nodiscard]] Mpi& mpi(int t) { return *nodes_[static_cast<std::size_t>(t)]->mpi; }
  [[nodiscard]] sim::NodeRuntime& node(int t) {
    return *nodes_[static_cast<std::size_t>(t)]->runtime;
  }

 private:
  struct Node {
    std::unique_ptr<sim::NodeRuntime> runtime;
    std::unique_ptr<hal::Hal> hal;
    std::unique_ptr<pipes::Pipes> pipes;
    std::unique_ptr<lapi::Lapi> lapi;
    std::unique_ptr<hal::RdmaNic> rdma;  ///< Only on Backend::kRdma.
    std::unique_ptr<mpci::Channel> channel;
    std::unique_ptr<Mpi> mpi;
  };

  void run_threads(const std::function<void(int)>& body);

  sim::MachineConfig cfg_;
  int num_tasks_;
  Backend backend_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Telemetry> telemetry_;
  std::unique_ptr<net::SwitchFabric> fabric_;
  std::unique_ptr<lapi::LapiGroup> lapi_group_;
  std::vector<std::unique_ptr<Node>> nodes_;
  sim::TimeNs elapsed_ = 0;
};

}  // namespace sp::mpi
