// Unit tests for the Pipes reliable byte-stream layer: framing across packet
// boundaries, strict ordering over the multipath fabric, loss recovery,
// flow-control pacing and the first/last-16KiB copy rule's correctness.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "pipes/pipes.hpp"

namespace sp::pipes {
namespace {

using sim::MachineConfig;
using sim::NodeRuntime;
using sim::Simulator;

struct Rig {
  explicit Rig(MachineConfig c = {}, int nodes = 2) : cfg(c) {
    fabric = std::make_unique<net::SwitchFabric>(sim, cfg, nodes);
    for (int i = 0; i < nodes; ++i) {
      rts.push_back(std::make_unique<NodeRuntime>(sim, cfg, i));
      hals.push_back(std::make_unique<hal::Hal>(*rts.back(), *fabric));
      pipes.push_back(std::make_unique<Pipes>(*rts.back(), *hals.back()));
    }
  }
  MachineConfig cfg;
  Simulator sim;
  std::unique_ptr<net::SwitchFabric> fabric;
  std::vector<std::unique_ptr<NodeRuntime>> rts;
  std::vector<std::unique_ptr<hal::Hal>> hals;
  std::vector<std::unique_ptr<Pipes>> pipes;
};

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>((i * 31 + seed) & 0xff);
  return v;
}

TEST(Pipes, DeliversPrefixAndPayloadInOrder) {
  Rig rig;
  const auto prefix = pattern(32, 7);
  const auto body = pattern(100, 9);
  std::vector<std::byte> got;
  rig.pipes[1]->set_on_data([&](int src) {
    while (rig.pipes[1]->available(src) > 0) {
      std::byte b;
      rig.pipes[1]->consume(src, &b, 1);
      got.push_back(b);
    }
  });
  bool reusable = false;
  rig.sim.at(0, [&] {
    rig.pipes[0]->write(1, prefix, body.data(), body.size(), [&] { reusable = true; });
  });
  rig.sim.run();
  EXPECT_TRUE(reusable);
  ASSERT_EQ(got.size(), prefix.size() + body.size());
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), got.begin()));
  EXPECT_TRUE(std::equal(body.begin(), body.end(), got.begin() + 32));
}

TEST(Pipes, LargeTransferSpansManyPackets) {
  Rig rig;
  const std::size_t n = 200 * 1024;  // >> MTU, > 2x the 16 KiB copy span
  const auto body = pattern(n, 3);
  std::vector<std::byte> got;
  got.reserve(n);
  rig.pipes[1]->set_on_data([&](int src) {
    const std::size_t avail = rig.pipes[1]->available(src);
    const std::size_t old = got.size();
    got.resize(old + avail);
    rig.pipes[1]->consume(src, got.data() + old, avail);
  });
  bool reusable = false;
  rig.sim.at(0, [&] {
    rig.pipes[0]->write(1, {}, body.data(), body.size(), [&] { reusable = true; });
  });
  rig.sim.run();
  EXPECT_TRUE(reusable);
  EXPECT_EQ(got, body) << "byte stream must arrive intact and in order";
  EXPECT_GE(rig.pipes[0]->packets_sent(), static_cast<std::int64_t>(n / rig.cfg.packet_mtu));
}

TEST(Pipes, MiddleOfLargeMessagesIsSentDirectFromUserBuffer) {
  // on_reusable for a message larger than twice the copy span fires only
  // once the borrowed middle has been staged — i.e. NOT at write() time when
  // the middle exceeds what the transport window admits immediately.
  Rig rig;
  const std::size_t n = 8 * rig.cfg.pipe_copy_span_bytes;
  const auto body = pattern(n, 5);
  rig.pipes[1]->set_on_data([&](int src) {
    std::vector<std::byte> sink(rig.pipes[1]->available(src));
    rig.pipes[1]->consume(src, sink.data(), sink.size());
  });
  // `reusable` must outlive the at() event: on_reusable fires much later,
  // once acks admit the borrowed middle into the window.
  bool reusable = false;
  bool reusable_at_write = true;
  rig.sim.at(0, [&] {
    rig.pipes[0]->write(1, {}, body.data(), body.size(), [&reusable] { reusable = true; });
    reusable_at_write = reusable;
  });
  rig.sim.run();
  EXPECT_FALSE(reusable_at_write);
}

TEST(Pipes, SmallMessageReusableImmediately) {
  Rig rig;
  const auto body = pattern(1024, 5);
  rig.pipes[1]->set_on_data([&](int src) {
    std::vector<std::byte> sink(rig.pipes[1]->available(src));
    rig.pipes[1]->consume(src, sink.data(), sink.size());
  });
  bool reusable_at_write = false;
  rig.sim.at(0, [&] {
    bool reusable = false;
    rig.pipes[0]->write(1, {}, body.data(), body.size(), [&reusable] { reusable = true; });
    reusable_at_write = reusable;
  });
  rig.sim.run();
  EXPECT_TRUE(reusable_at_write) << "fully pipe-buffered message: reusable at write()";
}

TEST(Pipes, ManyMessagesKeepFraming) {
  Rig rig;
  // Stream of variable-size messages; parse [4-byte length][payload] frames.
  std::vector<std::size_t> sizes{1, 3, 1000, 1024, 1500, 17, 4096, 2, 64000};
  std::vector<std::vector<std::byte>> received;
  std::vector<std::byte> acc;
  rig.pipes[1]->set_on_data([&](int src) {
    const std::size_t old = acc.size();
    acc.resize(old + rig.pipes[1]->available(src));
    rig.pipes[1]->consume(src, acc.data() + old, acc.size() - old);
    for (;;) {
      if (acc.size() < 4) break;
      std::uint32_t len;
      std::memcpy(&len, acc.data(), 4);
      if (acc.size() < 4 + len) break;
      received.emplace_back(acc.begin() + 4, acc.begin() + 4 + len);
      acc.erase(acc.begin(), acc.begin() + 4 + len);
    }
  });
  std::vector<std::vector<std::byte>> bodies;
  for (std::size_t i = 0; i < sizes.size(); ++i) bodies.push_back(pattern(sizes[i], unsigned(i)));
  rig.sim.at(0, [&] {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::vector<std::byte> prefix(4);
      const auto len = static_cast<std::uint32_t>(sizes[i]);
      std::memcpy(prefix.data(), &len, 4);
      rig.pipes[0]->write(1, std::move(prefix), bodies[i].data(), bodies[i].size(), nullptr);
    }
  });
  rig.sim.run();
  ASSERT_EQ(received.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(received[i], bodies[i]) << "message " << i;
  }
}

TEST(Pipes, RecoversFromPacketLoss) {
  MachineConfig cfg;
  cfg.packet_drop_rate = 0.10;
  cfg.retransmit_timeout_ns = 300'000;
  Rig rig(cfg);
  const std::size_t n = 64 * 1024;
  const auto body = pattern(n, 11);
  std::vector<std::byte> got;
  rig.pipes[1]->set_on_data([&](int src) {
    const std::size_t old = got.size();
    got.resize(old + rig.pipes[1]->available(src));
    rig.pipes[1]->consume(src, got.data() + old, got.size() - old);
  });
  rig.sim.at(0, [&] { rig.pipes[0]->write(1, {}, body.data(), body.size(), nullptr); });
  rig.sim.run();
  EXPECT_EQ(got, body) << "stream must survive 10% packet loss";
  EXPECT_GT(rig.pipes[0]->link_counters().retransmits, 0);
}

TEST(Pipes, OrderingHoldsUnderRouteSkew) {
  MachineConfig cfg;
  cfg.route_skew_ns = 300'000;  // strongly out-of-order fabric
  Rig rig(cfg);
  const std::size_t n = 32 * 1024;
  const auto body = pattern(n, 13);
  std::vector<std::byte> got;
  rig.pipes[1]->set_on_data([&](int src) {
    const std::size_t old = got.size();
    got.resize(old + rig.pipes[1]->available(src));
    rig.pipes[1]->consume(src, got.data() + old, got.size() - old);
  });
  rig.sim.at(0, [&] { rig.pipes[0]->write(1, {}, body.data(), body.size(), nullptr); });
  rig.sim.run();
  EXPECT_EQ(got, body) << "the pipe must reorder multipath packets";
}

TEST(Pipes, BidirectionalStreamsDoNotInterfere) {
  Rig rig;
  const auto a = pattern(10'000, 21);
  const auto b = pattern(14'000, 22);
  std::vector<std::byte> got0, got1;
  rig.pipes[0]->set_on_data([&](int src) {
    const std::size_t old = got0.size();
    got0.resize(old + rig.pipes[0]->available(src));
    rig.pipes[0]->consume(src, got0.data() + old, got0.size() - old);
  });
  rig.pipes[1]->set_on_data([&](int src) {
    const std::size_t old = got1.size();
    got1.resize(old + rig.pipes[1]->available(src));
    rig.pipes[1]->consume(src, got1.data() + old, got1.size() - old);
  });
  rig.sim.at(0, [&] {
    rig.pipes[0]->write(1, {}, a.data(), a.size(), nullptr);
    rig.pipes[1]->write(0, {}, b.data(), b.size(), nullptr);
  });
  rig.sim.run();
  EXPECT_EQ(got1, a);
  EXPECT_EQ(got0, b);
}

TEST(Pipes, ThreeWayFanInStaysPerSourceOrdered) {
  Rig rig(MachineConfig{}, 4);
  std::vector<std::vector<std::byte>> got(4);
  rig.pipes[3]->set_on_data([&](int src) {
    auto& g = got[static_cast<std::size_t>(src)];
    const std::size_t old = g.size();
    g.resize(old + rig.pipes[3]->available(src));
    rig.pipes[3]->consume(src, g.data() + old, g.size() - old);
  });
  std::vector<std::vector<std::byte>> bodies;
  for (unsigned s = 0; s < 3; ++s) bodies.push_back(pattern(20'000, s + 40));
  rig.sim.at(0, [&] {
    for (int s = 0; s < 3; ++s) {
      rig.pipes[static_cast<std::size_t>(s)]->write(3, {}, bodies[static_cast<std::size_t>(s)].data(),
                                                    bodies[static_cast<std::size_t>(s)].size(), nullptr);
    }
  });
  rig.sim.run();
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(got[s], bodies[s]) << "source " << s;
}

}  // namespace
}  // namespace sp::pipes
