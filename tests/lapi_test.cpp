// LAPI library tests: the full Table-1 function set, counter semantics,
// header/completion handler behaviour, out-of-order reassembly, loss
// recovery and the §5.3 "Enhanced LAPI" inline completion switch.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mpi/machine.hpp"

namespace sp::lapi {
namespace {

using mpi::Backend;
using mpi::Machine;
using sim::MachineConfig;

TEST(Lapi, AmsendDeliversUhdrAndData) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);
  m.run_lapi([](Lapi& l) {
    std::vector<char> inbox(64, 0);
    std::string got_uhdr;
    Cntr tgt;
    const int h = l.register_header_handler(
        [&](int origin, const std::byte* uhdr, std::size_t uhdr_len, std::size_t total) {
          EXPECT_EQ(origin, 0);
          EXPECT_EQ(total, 6u);
          got_uhdr.assign(reinterpret_cast<const char*>(uhdr), uhdr_len);
          Lapi::HeaderHandlerResult r;
          r.buffer = reinterpret_cast<std::byte*>(inbox.data());
          return r;
        });
    auto cntrs = l.address_init(1, Lapi::token_of(&tgt));
    if (l.task_id() == 0) {
      Cntr org;
      l.amsend(1, h, "HDR", 3, "hello", 6, cntrs[1], &org, nullptr);
      l.waitcntr(org, 1);
    } else {
      l.waitcntr(tgt, 1);
      EXPECT_STREQ(inbox.data(), "hello");
      EXPECT_EQ(got_uhdr, "HDR");
    }
  });
}

TEST(Lapi, AmsendMultiPacketReassembly) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);
  static constexpr std::size_t kLen = 100'000;  // ~100 packets
  m.run_lapi([](Lapi& l) {
    std::vector<std::uint8_t> inbox(kLen, 0);
    Cntr tgt;
    const int h = l.register_header_handler(
        [&](int, const std::byte*, std::size_t, std::size_t total) {
          EXPECT_EQ(total, kLen);
          Lapi::HeaderHandlerResult r;
          r.buffer = reinterpret_cast<std::byte*>(inbox.data());
          return r;
        });
    auto cntrs = l.address_init(1, Lapi::token_of(&tgt));
    if (l.task_id() == 0) {
      std::vector<std::uint8_t> data(kLen);
      for (std::size_t i = 0; i < kLen; ++i) data[i] = static_cast<std::uint8_t>(i * 7 + 3);
      Cntr org;
      l.amsend(1, h, nullptr, 0, data.data(), kLen, cntrs[1], &org, nullptr);
      l.waitcntr(org, 1);
      l.fence(1);  // data must be fully delivered before `data` dies
    } else {
      l.waitcntr(tgt, 1);
      for (std::size_t i = 0; i < kLen; ++i) {
        ASSERT_EQ(inbox[i], static_cast<std::uint8_t>(i * 7 + 3)) << "offset " << i;
      }
    }
  });
}

TEST(Lapi, ReassemblyAtOffsetsUnderSevereRouteSkew) {
  MachineConfig cfg;
  cfg.route_skew_ns = 400'000;  // strongly out-of-order packets
  Machine m(cfg, 2, Backend::kLapiBase);
  static constexpr std::size_t kLen = 32'000;
  m.run_lapi([](Lapi& l) {
    std::vector<std::uint8_t> inbox(kLen, 0);
    Cntr tgt;
    const int h = l.register_header_handler(
        [&](int, const std::byte*, std::size_t, std::size_t) {
          Lapi::HeaderHandlerResult r;
          r.buffer = reinterpret_cast<std::byte*>(inbox.data());
          return r;
        });
    auto cntrs = l.address_init(1, Lapi::token_of(&tgt));
    if (l.task_id() == 0) {
      std::vector<std::uint8_t> data(kLen);
      for (std::size_t i = 0; i < kLen; ++i) data[i] = static_cast<std::uint8_t>(i % 251);
      Cntr org;
      l.amsend(1, h, nullptr, 0, data.data(), kLen, cntrs[1], &org, nullptr);
      l.waitcntr(org, 1);
      l.fence(1);
    } else {
      l.waitcntr(tgt, 1);
      for (std::size_t i = 0; i < kLen; ++i) {
        ASSERT_EQ(inbox[i], static_cast<std::uint8_t>(i % 251)) << "offset " << i;
      }
    }
  });
}

TEST(Lapi, CompletionHandlerRunsAfterAllDataAndCmplCntrFires) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);
  m.run_lapi([](Lapi& l) {
    std::vector<std::uint8_t> inbox(5000, 0);
    bool complete_saw_all = false;
    Cntr tgt;
    const int h = l.register_header_handler(
        [&](int, const std::byte*, std::size_t, std::size_t) {
          Lapi::HeaderHandlerResult r;
          r.buffer = reinterpret_cast<std::byte*>(inbox.data());
          r.cookie = &inbox;
          r.completion = [&complete_saw_all, &inbox](void* cookie) {
            EXPECT_EQ(cookie, &inbox);
            complete_saw_all = inbox[0] == 1 && inbox[4999] == 1;
          };
          return r;
        });
    auto cntrs = l.address_init(1, Lapi::token_of(&tgt));
    if (l.task_id() == 0) {
      std::vector<std::uint8_t> ones(5000, 1);
      Cntr org, cmpl;
      l.amsend(1, h, nullptr, 0, ones.data(), 5000, cntrs[1], &org, &cmpl);
      l.waitcntr(cmpl, 1);  // completion counter: remote handler has run
    } else {
      l.waitcntr(tgt, 1);
      EXPECT_TRUE(complete_saw_all);
    }
    EXPECT_GE(l.completion_thread_dispatches() + l.completion_inline_runs(), 0);
  });
  // Base LAPI: the completion handler must have gone to the handler thread.
  EXPECT_EQ(m.lapi(1).completion_inline_runs(), 0);
  EXPECT_GE(m.lapi(1).completion_thread_dispatches(), 1);
}

TEST(Lapi, EnhancedRunsPredefinedCompletionInline) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiEnhanced);
  m.run_lapi([](Lapi& l) {
    std::vector<std::uint8_t> inbox(128, 0);
    Cntr tgt;
    const int h = l.register_header_handler(
        [&](int, const std::byte*, std::size_t, std::size_t) {
          Lapi::HeaderHandlerResult r;
          r.buffer = reinterpret_cast<std::byte*>(inbox.data());
          r.completion = [](void*) {};
          r.inline_completion = true;
          return r;
        });
    auto cntrs = l.address_init(1, Lapi::token_of(&tgt));
    if (l.task_id() == 0) {
      std::uint8_t v = 9;
      Cntr org;
      l.amsend(1, h, nullptr, 0, &v, 1, cntrs[1], &org, nullptr);
      l.waitcntr(org, 1);
    } else {
      l.waitcntr(tgt, 1);
    }
  });
  EXPECT_EQ(m.lapi(1).completion_thread_dispatches(), 0);
  EXPECT_GE(m.lapi(1).completion_inline_runs(), 1);
}

TEST(Lapi, InlineCompletionFallsBackToThreadOnStockLapi) {
  // The same inline request on a non-enhanced LAPI must use the thread.
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);
  m.run_lapi([](Lapi& l) {
    std::vector<std::uint8_t> inbox(8, 0);
    Cntr tgt;
    const int h = l.register_header_handler(
        [&](int, const std::byte*, std::size_t, std::size_t) {
          Lapi::HeaderHandlerResult r;
          r.buffer = reinterpret_cast<std::byte*>(inbox.data());
          r.completion = [](void*) {};
          r.inline_completion = true;  // requested, but not allowed
          return r;
        });
    auto cntrs = l.address_init(1, Lapi::token_of(&tgt));
    if (l.task_id() == 0) {
      std::uint8_t v = 1;
      Cntr org;
      l.amsend(1, h, nullptr, 0, &v, 1, cntrs[1], &org, nullptr);
      l.waitcntr(org, 1);
    } else {
      l.waitcntr(tgt, 1);
    }
  });
  EXPECT_GE(m.lapi(1).completion_thread_dispatches(), 1);
  EXPECT_EQ(m.lapi(1).completion_inline_runs(), 0);
}

TEST(Lapi, PutGetRoundTrip) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);
  m.run_lapi([](Lapi& l) {
    std::int64_t window = 100 + l.task_id();
    Cntr tgt;
    auto wins = l.address_init(1, Lapi::token_of(&window));
    auto cntrs = l.address_init(2, Lapi::token_of(&tgt));
    if (l.task_id() == 0) {
      std::int64_t v = 4242;
      Cntr org, cmpl;
      l.put(1, wins[1], &v, sizeof v, cntrs[1], &org, &cmpl);
      l.waitcntr(org, 1);
      l.waitcntr(cmpl, 1);
      std::int64_t fetched = 0;
      Cntr got;
      l.get(1, wins[1], &fetched, sizeof fetched, 0, &got);
      l.waitcntr(got, 1);
      EXPECT_EQ(fetched, 4242);
    } else {
      l.waitcntr(tgt, 1);
      EXPECT_EQ(window, 4242);
    }
    l.gfence();
  });
}

TEST(Lapi, GetBumpsTargetCounterAtSource) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);
  m.run_lapi([](Lapi& l) {
    std::int64_t window = 7777;
    Cntr sourced;
    auto wins = l.address_init(1, Lapi::token_of(&window));
    auto cnts = l.address_init(2, Lapi::token_of(&sourced));
    if (l.task_id() == 0) {
      std::int64_t out = 0;
      Cntr got;
      l.get(1, wins[1], &out, sizeof out, cnts[1], &got);
      l.waitcntr(got, 1);
      EXPECT_EQ(out, 7777);
    } else {
      l.waitcntr(sourced, 1);  // fires when the target has sourced the data
    }
    l.gfence();
  });
}

TEST(Lapi, RmwAllFourOperations) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);
  m.run_lapi([](Lapi& l) {
    std::int64_t var = 10;
    auto vars = l.address_init(1, Lapi::token_of(&var));
    l.gfence();
    if (l.task_id() == 0) {
      std::int64_t prev = 0;
      Cntr c;
      l.rmw(1, RmwOp::kFetchAndAdd, vars[1], 5, 0, &prev, &c);
      l.waitcntr(c, 1);
      EXPECT_EQ(prev, 10);

      l.rmw(1, RmwOp::kFetchAndOr, vars[1], 0x40, 0, &prev, &c);
      l.waitcntr(c, 1);
      EXPECT_EQ(prev, 15);

      l.rmw(1, RmwOp::kCompareAndSwap, vars[1], 999, /*compare=*/0x4f, &prev, &c);
      l.waitcntr(c, 1);
      EXPECT_EQ(prev, 0x4f);

      l.rmw(1, RmwOp::kSwap, vars[1], 1, 0, &prev, &c);
      l.waitcntr(c, 1);
      EXPECT_EQ(prev, 999);
    }
    l.gfence();
    if (l.task_id() == 1) EXPECT_EQ(var, 1);
  });
}

TEST(Lapi, WaitcntrDecrementsByValue) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);
  m.run_lapi([](Lapi& l) {
    if (l.task_id() != 0) return;
    Cntr c;
    l.setcntr(c, 5);
    EXPECT_EQ(l.getcntr(c), 5);
    l.waitcntr(c, 3);  // must not block: already satisfied; decrements by 3
    EXPECT_EQ(l.getcntr(c), 2);
    l.waitcntr(c, 2);
    EXPECT_EQ(l.getcntr(c), 0);
  });
}

TEST(Lapi, FenceWaitsForDelivery) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);
  m.run_lapi([](Lapi& l) {
    std::vector<std::int64_t> window(1000, 0);
    auto wins = l.address_init(1, Lapi::token_of(window.data()));
    if (l.task_id() == 0) {
      std::vector<std::int64_t> vals(1000, 3);
      l.put(1, wins[1], vals.data(), vals.size() * 8, 0, nullptr, nullptr);
      l.fence(1);  // all packets transport-acknowledged
    }
    l.gfence();
    if (l.task_id() == 1) {
      EXPECT_EQ(window.front(), 3);
      EXPECT_EQ(window.back(), 3);
    }
  });
}

TEST(Lapi, GfenceIsABarrier) {
  MachineConfig cfg;
  Machine m(cfg, 4, Backend::kLapiBase);
  std::vector<sim::TimeNs> after(4);
  m.run_lapi([&after](Lapi& l) {
    // Task i "works" for (i+1)*100us, then everyone fences.
    l.runtime().app_charge((l.task_id() + 1) * 100 * sim::kUs);
    l.gfence();
    after[static_cast<std::size_t>(l.task_id())] = l.runtime().sim.now();
  });
  // No task may leave the barrier before the slowest task reached it.
  for (int t = 0; t < 4; ++t) EXPECT_GE(after[static_cast<std::size_t>(t)], 400 * sim::kUs);
}

TEST(Lapi, HeaderHandlerMayNotCallLapi) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);
  EXPECT_THROW(
      m.run_lapi([](Lapi& l) {
        Cntr tgt;
        const int h = l.register_header_handler(
            [&l](int, const std::byte*, std::size_t, std::size_t) {
              Cntr c;
              l.setcntr(c, 0);                               // allowed (utility)
              l.amsend(0, 0, nullptr, 0, nullptr, 0, 0, nullptr, nullptr);  // forbidden
              return Lapi::HeaderHandlerResult{};
            });
        auto cntrs = l.address_init(1, Lapi::token_of(&tgt));
        if (l.task_id() == 0) {
          Cntr org;
          l.amsend(1, h, nullptr, 0, nullptr, 0, cntrs[1], &org, nullptr);
          l.waitcntr(org, 1);
          l.fence(1);
        } else {
          l.waitcntr(tgt, 1);
        }
      }),
      LapiError);
}

TEST(Lapi, TransportRecoversFromLoss) {
  MachineConfig cfg;
  cfg.packet_drop_rate = 0.08;
  cfg.retransmit_timeout_ns = 250'000;
  Machine m(cfg, 2, Backend::kLapiBase);
  static constexpr std::size_t kLen = 40'000;
  m.run_lapi([](Lapi& l) {
    std::vector<std::uint8_t> inbox(kLen, 0);
    Cntr tgt;
    const int h = l.register_header_handler(
        [&](int, const std::byte*, std::size_t, std::size_t) {
          Lapi::HeaderHandlerResult r;
          r.buffer = reinterpret_cast<std::byte*>(inbox.data());
          return r;
        });
    auto cntrs = l.address_init(1, Lapi::token_of(&tgt));
    if (l.task_id() == 0) {
      std::vector<std::uint8_t> data(kLen);
      for (std::size_t i = 0; i < kLen; ++i) data[i] = static_cast<std::uint8_t>(i % 241);
      Cntr org;
      l.amsend(1, h, nullptr, 0, data.data(), kLen, cntrs[1], &org, nullptr);
      l.waitcntr(org, 1);
      l.fence(1);
    } else {
      l.waitcntr(tgt, 1);
      for (std::size_t i = 0; i < kLen; ++i) {
        ASSERT_EQ(inbox[i], static_cast<std::uint8_t>(i % 241));
      }
    }
  });
  EXPECT_GT(m.lapi(0).link_counters().retransmits + m.lapi(1).link_counters().retransmits, 0);
}

TEST(Lapi, PutvScattersBlocksRemotely) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiEnhanced);
  m.run_lapi([](Lapi& l) {
    // Target window: three disjoint regions of one array.
    std::vector<std::int64_t> window(64, 0);
    Cntr tgt;
    auto wins = l.address_init(1, Lapi::token_of(window.data()));
    auto cnts = l.address_init(2, Lapi::token_of(&tgt));
    if (l.task_id() == 0) {
      std::vector<std::int64_t> a(4, 11), b(2, 22), c(8, 33);
      const void* srcs[3] = {a.data(), b.data(), c.data()};
      const std::size_t lens[3] = {4 * 8, 2 * 8, 8 * 8};
      const Token base = wins[1];
      const Token addrs[3] = {base, base + 20 * 8, base + 50 * 8};
      Cntr org, cmpl;
      l.putv(1, 3, addrs, srcs, lens, cnts[1], &org, &cmpl);
      l.waitcntr(org, 1);
      l.waitcntr(cmpl, 1);
    } else {
      l.waitcntr(tgt, 1);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(window[static_cast<std::size_t>(i)], 11);
      for (int i = 20; i < 22; ++i) EXPECT_EQ(window[static_cast<std::size_t>(i)], 22);
      for (int i = 50; i < 58; ++i) EXPECT_EQ(window[static_cast<std::size_t>(i)], 33);
      EXPECT_EQ(window[10], 0);
      EXPECT_EQ(window[40], 0);
    }
    l.gfence();
  });
}

TEST(Lapi, GetvGathersBlocksFromRemote) {
  MachineConfig cfg;
  Machine m(cfg, 2, Backend::kLapiBase);  // also exercises the thread path
  m.run_lapi([](Lapi& l) {
    std::vector<std::int64_t> window(32);
    for (std::size_t i = 0; i < window.size(); ++i) {
      window[i] = static_cast<std::int64_t>(l.task_id() * 1000 + static_cast<int>(i));
    }
    auto wins = l.address_init(1, Lapi::token_of(window.data()));
    l.gfence();
    if (l.task_id() == 0) {
      std::int64_t d1[3] = {}, d2[5] = {};
      void* dsts[2] = {d1, d2};
      const std::size_t lens[2] = {3 * 8, 5 * 8};
      const Token addrs[2] = {wins[1] + 2 * 8, wins[1] + 20 * 8};
      Cntr org;
      l.getv(1, 2, addrs, dsts, lens, &org);
      l.waitcntr(org, 1);
      for (int i = 0; i < 3; ++i) EXPECT_EQ(d1[i], 1000 + 2 + i);
      for (int i = 0; i < 5; ++i) EXPECT_EQ(d2[i], 1000 + 20 + i);
    }
    l.gfence();
  });
}

TEST(Lapi, QenvReportsEnvironment) {
  MachineConfig cfg;
  Machine m(cfg, 3, Backend::kLapiEnhanced);
  m.run_lapi([](Lapi& l) {
    const auto env = l.qenv();
    EXPECT_EQ(env.task_id, l.task_id());
    EXPECT_EQ(env.num_tasks, 3);
    EXPECT_FALSE(env.interrupt_on);
    EXPECT_TRUE(env.inline_completion_allowed);
    l.senv_interrupt(true);
    EXPECT_TRUE(l.qenv().interrupt_on);
    l.senv_interrupt(false);
  });
}

TEST(Lapi, ManyConcurrentMessagesBetweenAllPairs) {
  MachineConfig cfg;
  Machine m(cfg, 4, Backend::kLapiEnhanced);
  m.run_lapi([](Lapi& l) {
    const int n = 4;
    const int me = l.task_id();
    std::vector<std::int64_t> inbox(static_cast<std::size_t>(n) * 8, -1);
    Cntr tgt;
    auto boxes = l.address_init(1, Lapi::token_of(inbox.data()));
    auto cntrs = l.address_init(2, Lapi::token_of(&tgt));
    std::vector<std::vector<std::int64_t>> payloads;
    Cntr org;
    int sent = 0;
    for (int peer = 0; peer < n; ++peer) {
      if (peer == me) continue;
      payloads.emplace_back(8, me * 100 + peer);
      l.put(peer, boxes[static_cast<std::size_t>(peer)] + static_cast<Token>(me) * 64,
            payloads.back().data(), 64, cntrs[static_cast<std::size_t>(peer)], &org, nullptr);
      ++sent;
    }
    l.waitcntr(org, sent);
    l.waitcntr(tgt, n - 1);
    for (int peer = 0; peer < n; ++peer) {
      if (peer == me) continue;
      for (int k = 0; k < 8; ++k) {
        EXPECT_EQ(inbox[static_cast<std::size_t>(peer) * 8 + static_cast<std::size_t>(k)],
                  peer * 100 + me);
      }
    }
    l.gfence();
  });
}

}  // namespace
}  // namespace sp::lapi
