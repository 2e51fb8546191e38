// Unit tests for the discrete-event engine: queue ordering, determinism,
// rank-thread baton handshake, conditions and the wake gate.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rank_thread.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/wake_gate.hpp"

namespace sp::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto [t, a] = q.pop();
    a();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(42, [&, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    auto [t, a] = q.pop();
    EXPECT_EQ(t, 42);
    a();
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ScheduleDigestFoldsRunOrder) {
  // Same events, same insertion order: same digest. A different tie-break
  // (the same events run in another order) must change it.
  auto digest_of = [](std::uint64_t salt) {
    EventQueue q;
    q.set_tie_break_salt(salt);
    for (int i = 0; i < 8; ++i) q.push(i % 2 == 0 ? 5 : 7, [] {});
    while (!q.empty()) q.pop().second();
    return q.schedule_digest();
  };
  EXPECT_NE(EventQueue{}.schedule_digest(), digest_of(0));
  EXPECT_EQ(digest_of(0), digest_of(0));
  EXPECT_NE(digest_of(0), digest_of(0x9e3779b97f4a7c15ULL));
}

TEST(Simulator, TimeAdvancesMonotonically) {
  Simulator sim;
  TimeNs last = -1;
  for (TimeNs t : {50, 10, 30, 10, 90}) {
    sim.at(t, [&sim, &last] {
      EXPECT_GE(sim.now(), last);
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(sim.now(), 90);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulator, NestedSchedulingFromEvents) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] {
    sim.after(5, [&] {
      EXPECT_EQ(sim.now(), 15);
      ++fired;
    });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  int fired = 0;
  sim.at(100, [&] {
    sim.at(5, [&] {
      EXPECT_EQ(sim.now(), 100);
      ++fired;
    });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(NodeCpu, SerializesWork) {
  Simulator sim;
  NodeCpu cpu;
  std::vector<TimeNs> done;
  sim.at(0, [&] {
    cpu.run(sim, 100, [&] { done.push_back(sim.now()); });
    cpu.run(sim, 50, [&] { done.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 100);
  EXPECT_EQ(done[1], 150);  // queued behind the first
}

TEST(NodeCpu, IdleGapsSkipAhead) {
  Simulator sim;
  NodeCpu cpu;
  TimeNs done = 0;
  sim.at(0, [&] { cpu.charge(sim, 10); });
  sim.at(1000, [&] { cpu.run(sim, 10, [&] { done = sim.now(); }); });
  sim.run();
  EXPECT_EQ(done, 1010);  // CPU was idle; starts at now, not at 10
}

TEST(RankThread, RunsBodyAndAdvancesTime) {
  Simulator sim;
  std::vector<TimeNs> stamps;
  RankThread rt(sim, 0, [&] {
    stamps.push_back(sim.now());
    rt.advance(100);
    stamps.push_back(sim.now());
    rt.advance(50);
    stamps.push_back(sim.now());
  });
  sim.after(0, [&] { rt.resume_from_sim(); });
  sim.run();
  EXPECT_TRUE(rt.finished());
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 0);
  EXPECT_EQ(stamps[1], 100);
  EXPECT_EQ(stamps[2], 150);
}

TEST(RankThread, TwoThreadsInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> trace;
  RankThread a(sim, 0, [&] {
    for (int i = 0; i < 3; ++i) {
      trace.push_back(0);
      a.advance(10);
    }
  });
  RankThread b(sim, 1, [&] {
    for (int i = 0; i < 3; ++i) {
      trace.push_back(1);
      b.advance(10);
    }
  });
  sim.after(0, [&] { a.resume_from_sim(); });
  sim.after(0, [&] { b.resume_from_sim(); });
  sim.run();
  // Identical advance steps -> strict alternation by scheduling order.
  EXPECT_EQ(trace, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(RankThread, ConditionWakeup) {
  Simulator sim;
  SimCondition cond;
  bool flag = false;
  TimeNs woke_at = -1;
  RankThread rt(sim, 0, [&] {
    cond.wait_until(rt, [&] { return flag; });
    woke_at = sim.now();
  });
  sim.after(0, [&] { rt.resume_from_sim(); });
  sim.at(500, [&] {
    flag = true;
    cond.notify_all(sim);
  });
  sim.run();
  EXPECT_TRUE(rt.finished());
  EXPECT_EQ(woke_at, 500);
}

TEST(RankThread, AbortOnDestructionDoesNotHang) {
  Simulator sim;
  SimCondition cond;
  {
    RankThread rt(sim, 0, [&] {
      cond.wait(rt);  // never notified
      FAIL() << "should not resume normally";
    });
    sim.after(0, [&] { rt.resume_from_sim(); });
    sim.run();
    EXPECT_FALSE(rt.finished());
  }  // destructor aborts the blocked thread
  SUCCEED();
}

TEST(RankThread, BodyExceptionIsCaptured) {
  Simulator sim;
  RankThread rt(sim, 0, [] { throw std::runtime_error("boom"); });
  sim.after(0, [&] { rt.resume_from_sim(); });
  sim.run();
  EXPECT_TRUE(rt.finished());
  ASSERT_TRUE(rt.error());
  EXPECT_THROW(std::rethrow_exception(rt.error()), std::runtime_error);
}

TEST(WakeGate, OpenRunsImmediately) {
  WakeGate g;
  int ran = 0;
  g.apply([&] { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(WakeGate, ClosedDefersUntilOpenInOrder) {
  WakeGate g;
  std::vector<int> order;
  g.close();
  g.apply([&] { order.push_back(1); });
  g.apply([&] { order.push_back(2); });
  EXPECT_TRUE(order.empty());
  g.open();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(WakeGate, NestedCloseNeedsMatchingOpens) {
  WakeGate g;
  int ran = 0;
  g.close();
  g.close();
  g.apply([&] { ++ran; });
  g.open();
  EXPECT_EQ(ran, 0);
  g.open();
  EXPECT_EQ(ran, 1);
}

TEST(Pcg32, DeterministicForSeed) {
  Pcg32 a(123), b(123), c(124);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Pcg32, BoundedAndUnitInterval) {
  Pcg32 r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(TimeHelpers, Conversions) {
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_sec(2 * kSec), 2.0);
  EXPECT_DOUBLE_EQ(to_mb_per_sec(1'000'000, kSec), 1.0);
  EXPECT_DOUBLE_EQ(to_mb_per_sec(100, 0), 0.0);
}

}  // namespace
}  // namespace sp::sim
