// Per-node runtime shared by every protocol layer on one simulated node.
#pragma once

#include <cassert>

#include "sim/config.hpp"
#include "sim/rank_thread.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"
#include "sim/wake_gate.hpp"

namespace sp::sim {

struct NodeRuntime {
  NodeRuntime(Simulator& s, const MachineConfig& c, int node_id)
      : sim(s), cfg(c), node(node_id) {
    cpu.set_sched_key(sched_node_key(node_id));
  }

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  Simulator& sim;
  const MachineConfig& cfg;
  int node;
  /// Serializes protocol processing charged to this node's host CPU.
  NodeCpu cpu;
  /// Interrupt-handler completion-visibility gate (see wake_gate.hpp).
  WakeGate gate;
  /// The task's application thread; bound by the Machine before it starts.
  RankThread* thread = nullptr;
  /// Optional structured telemetry (shared across the machine); null =
  /// disabled. Emit through SP_TELEM/SP_TELEM_HIST (telemetry.hpp).
  Telemetry* telemetry = nullptr;

  /// Charge API-call overhead or computation to the calling application
  /// thread. Public LAPI/MPI entry points call this; they may only be
  /// invoked from the task's own rank thread (completion handlers use
  /// internal paths). The work occupies the node CPU: it queues behind any
  /// in-flight protocol processing (copies, matching, interrupt service) and
  /// protocol work queues behind it — one processor per node, as on the SP.
  void app_charge(TimeNs cost) {
    assert(thread != nullptr && "public API requires a bound rank thread");
    if (cost <= 0) return;
    const TimeNs now = sim.now();
    const TimeNs start = cpu.free_at() > now ? cpu.free_at() : now;
    const TimeNs until = start + cost;
    cpu.occupy_until(until);
    thread->advance(until - now);
  }

  /// Publish a completion through the gate.
  void publish(std::function<void()> visible) { gate.apply(std::move(visible)); }
};

}  // namespace sp::sim
