// The discrete-event simulator core.
//
// One Simulator owns simulated time for one simulated SP machine. Events are
// closures executed at their scheduled time; rank application programs run on
// cooperatively-scheduled fibers (see rank_thread.hpp) interleaved with event
// processing, so at every instant exactly one flow of control — the event
// loop or one rank fiber — is running. That makes whole-machine simulations
// deterministic and data-race-free even though rank programs are written as
// ordinary blocking code.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace sp::sim {

/// Thrown (by the driver) when the event queue drains while rank threads are
/// still blocked — i.e. the simulated program deadlocked.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown inside rank threads when the simulation is being torn down early
/// (e.g. another rank raised an error). Never escapes to user code.
struct AbortSimulation {};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimeNs now() const noexcept { return now_; }

  /// Schedule `action` at absolute simulated time `t` (clamped to now()).
  template <typename F>
  void at(TimeNs t, F&& action) {
    queue_.push(t < now_ ? now_ : t, std::forward<F>(action));
  }

  /// Same, carrying a schedule-class key for the systematic explorer's
  /// independence relation (sched.hpp; ignored outside controlled runs).
  template <typename F>
  void at(TimeNs t, SchedKey key, F&& action) {
    queue_.push(t < now_ ? now_ : t, key, std::forward<F>(action));
  }

  /// Schedule `action` `dt` nanoseconds from now (dt clamped to >= 0).
  template <typename F>
  void after(TimeNs dt, F&& action) {
    at(now_ + (dt < 0 ? 0 : dt), std::forward<F>(action));
  }

  template <typename F>
  void after(TimeNs dt, SchedKey key, F&& action) {
    at(now_ + (dt < 0 ? 0 : dt), key, std::forward<F>(action));
  }

  /// Execute the earliest pending event. Returns false if none is pending.
  bool step() {
    if (queue_.empty()) return false;
    auto [t, action] = queue_.pop();
    // max(): a ScheduleController with a nonzero window may run an event
    // whose timestamp precedes an already-executed one; time never rewinds.
    if (t > now_) now_ = t;
    ++events_processed_;
    action();
    return true;
  }

  /// Run until no events remain.
  void run() {
    while (step()) {
    }
  }

  /// Run until no events remain or simulated time would exceed `deadline`.
  /// Events scheduled beyond the deadline stay queued.
  void run_until(TimeNs deadline) {
    while (!queue_.empty() && queue_.next_time() <= deadline) {
      (void)step();
    }
  }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return events_processed_; }

  /// Perturb the same-timestamp event tie-break (see EventQueue); call before
  /// any event is scheduled. 0 (the default) keeps strict insertion order.
  void set_tie_break_salt(std::uint64_t salt) noexcept { queue_.set_tie_break_salt(salt); }

  /// Install a ScheduleController (systematic exploration; see sched.hpp).
  /// Call before any event is scheduled. nullptr restores normal pops.
  void set_schedule_controller(ScheduleController* c, TimeNs window_ns) {
    queue_.set_controller(c, window_ns);
  }

  /// Digest of the processing order so far (EventQueue::schedule_digest).
  [[nodiscard]] std::uint64_t schedule_digest() const noexcept {
    return queue_.schedule_digest();
  }

  /// Read-only view of the queue's host-side perf counters.
  [[nodiscard]] const EventQueue& queue() const noexcept { return queue_; }

 private:
  EventQueue queue_;
  TimeNs now_ = 0;
  std::uint64_t events_processed_ = 0;
};

/// Serializes protocol processing on one node's CPU: header handlers, packet
/// dispatch, matching and interrupt service all compete for the same host
/// processor, which is what bounds small-packet throughput on the real SP.
class NodeCpu {
 public:
  /// Occupy the CPU for `cost` starting no earlier than now, then run `fn`
  /// (in event context) at the completion time. Returns that time.
  template <typename F>
  TimeNs run(Simulator& sim, TimeNs cost, F&& fn) {
    const TimeNs start = sim.now() > free_at_ ? sim.now() : free_at_;
    const TimeNs done = start + (cost < 0 ? 0 : cost);
    free_at_ = done;
    sim.at(done, sched_key_, std::forward<F>(fn));
    return done;
  }

  /// Schedule class for this CPU's completions (sched_node_key of the owning
  /// node; set once by NodeRuntime). Everything a NodeCpu runs touches only
  /// that node's protocol state.
  void set_sched_key(SchedKey key) noexcept { sched_key_ = key; }

  /// Occupy the CPU without a continuation (pure cost accounting).
  TimeNs charge(Simulator& sim, TimeNs cost) {
    const TimeNs start = sim.now() > free_at_ ? sim.now() : free_at_;
    free_at_ = start + (cost < 0 ? 0 : cost);
    return free_at_;
  }

  [[nodiscard]] TimeNs free_at() const noexcept { return free_at_; }

  /// Mark the CPU busy until `t` (used when the *application thread* occupies
  /// it: on a single-CPU SP node, protocol processing and user computation
  /// contend for the same processor).
  void occupy_until(TimeNs t) noexcept {
    if (t > free_at_) free_at_ = t;
  }

 private:
  TimeNs free_at_ = 0;
  SchedKey sched_key_ = kSchedOpaque;
};

}  // namespace sp::sim
