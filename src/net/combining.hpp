// In-network combining collectives (DESIGN.md §16).
//
// The paper's LAPI-enhanced collectives — and even the PR 7 NIC-offloaded
// ones — pay per-hop host/adapter latency on every reduction step. The next
// rung (the NYU-Ultracomputer line, and modern SHArP-style switch reduction)
// moves the combine into the switch elements themselves: each element holds a
// combining-table entry per in-flight collective, folds its children's
// contributions, and forwards one partial up; the top element replicates the
// result down every subtree at once.
//
// Determinism is the hard part and the design rule here is simple: an element
// NEVER folds on arrival. It stashes each child's contribution in a
// fixed child-port slot and combines only when all expected children are
// present, always left-to-right in child-port order. Child ports cover
// contiguous communicator-rank ranges, so the fold is exactly the sequential
// rank-order reduction (v0 op v1 op ... op v_{n-1}, regrouped only by
// associativity) no matter which packet arrived first — bit-identical across
// schedules, channels and topologies, including for the non-commutative
// Op::kMat2x2 workloads the property tests pin.
//
// Fault interaction: hop transfers draw drop/duplicate/jitter from a
// dedicated seeded Pcg32 stream (fixed draw order: drop, jitter, dup — the
// user fabric's stream is untouched, so adding loss never perturbs a clean
// run's packet schedule). A dropped transfer is retransmitted after
// innet_retry_ns; a duplicated one delivers twice and the element's
// seen-flag discards the second copy, so combining state can never
// double-combine (counted in dup_discards()).
//
// The engine lives beside the SwitchFabric (one per machine) and is wired
// into every channel's Mpi by the Machine — unlike the NIC offload it is a
// property of the interconnect, not of one adapter type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/coll_op.hpp"
#include "net/topology.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"

namespace sp::net {

class CombiningEngine {
 public:
  CombiningEngine(sim::Simulator& sim, const sim::MachineConfig& cfg, const Topology& topo);

  void set_telemetry(sim::Telemetry* t) noexcept { telemetry_ = t; }

  /// Post one rank's share. Completion (`on_done`) always arrives via a
  /// scheduled event, never synchronously.
  void start(CollOp&& op);

  // --- statistics ----------------------------------------------------------
  /// Completed collectives.
  [[nodiscard]] std::int64_t ops() const noexcept { return ops_; }
  /// Element-level child folds (combine hits).
  [[nodiscard]] std::int64_t combines() const noexcept { return combines_; }
  /// Downward replication deliveries (total fan-out).
  [[nodiscard]] std::int64_t replications() const noexcept { return replications_; }
  /// Duplicate contributions discarded by an element's seen-flag.
  [[nodiscard]] std::int64_t dup_discards() const noexcept { return dup_discards_; }
  /// Hop transfers retransmitted after an injected drop.
  [[nodiscard]] std::int64_t retransmits() const noexcept { return retransmits_; }
  /// Peak concurrent combining-table entries (elements with live state).
  [[nodiscard]] std::int64_t table_peak() const noexcept { return table_peak_; }
  /// Live combining-table entries right now.
  [[nodiscard]] std::int64_t table_occupancy() const noexcept { return table_live_; }

 private:
  struct Element {
    int nchildren = 0;
    int seen = 0;
    /// Fixed child-port stash, one slot per child, folded left-to-right only
    /// once every slot is filled (the determinism invariant).
    std::vector<bool> present;
    std::vector<std::vector<std::byte>> stash;
  };

  struct RankSlot {
    bool registered = false;
    bool delivered = false;
    std::byte* buf = nullptr;
    std::function<void()> on_done;
  };

  struct Instance {
    int nranks = 0;
    int root = 0;
    std::size_t len = 0;
    bool reduce_phase = true;
    Combine combine;
    std::vector<int> tasks;
    /// levels[0] = leaf elements over ranks; last level has one element.
    std::vector<std::vector<Element>> levels;
    std::vector<RankSlot> ranks;
    std::vector<std::byte> result;
    bool result_ready = false;
    int delivered = 0;
  };

  using Key = std::uint64_t;
  static constexpr Key key(std::uint32_t ctx, std::uint32_t seq) noexcept {
    return (static_cast<Key>(ctx) << 32) | seq;
  }

  Instance& open(Key k, const CollOp& op);
  void contribute(Key k, int level, int elem, int slot,
                  std::shared_ptr<std::vector<std::byte>> data);
  void element_complete(Key k, int level, int elem);
  void root_done(Key k, std::vector<std::byte>&& result);
  void deliver(Key k, int rank);
  void finish(Key k, int rank);

  /// Schedule `fn` after `delay`, drawing drop/jitter/dup faults from the
  /// engine's private stream (fixed order; no draws when the rates are 0).
  void transfer(sim::TimeNs delay, std::function<void()> fn);

  [[nodiscard]] sim::TimeNs wire_ns(std::size_t bytes) const noexcept;
  [[nodiscard]] sim::TimeNs fold_ns(int children, std::size_t bytes) const noexcept;
  void note_table(std::int64_t delta) noexcept;

  sim::Simulator& sim_;
  const sim::MachineConfig& cfg_;
  int radix_;  ///< Element down-arity: SP/fat-tree leaf, torus quadrant, router.
  std::map<Key, Instance> table_;
  sim::Pcg32 rng_;
  sim::Telemetry* telemetry_ = nullptr;

  std::int64_t ops_ = 0;
  std::int64_t combines_ = 0;
  std::int64_t replications_ = 0;
  std::int64_t dup_discards_ = 0;
  std::int64_t retransmits_ = 0;
  std::int64_t table_live_ = 0;
  std::int64_t table_peak_ = 0;
};

}  // namespace sp::net
