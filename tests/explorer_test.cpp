// Schedule-space explorer tests (DESIGN.md §11): repro-token round-trips,
// per-channel digest determinism, cross-run machine isolation, the clean
// 256-seed differential sweep from the acceptance criteria, and the
// self-test that re-introduces the PR 2 re-ack coalescing bug and requires
// the explorer to catch it and shrink it to a replayable token.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mpi/coll.hpp"
#include "sim/explorer.hpp"
#include "test_harness.hpp"

namespace sp::sim {
namespace {

using mpi::Backend;

/// A hand-built vector with every knob away from its default, so a token
/// round-trip exercises every field.
Perturbation busy_vector() {
  Perturbation p;
  p.seed = 0xdeadbeefcafe1234ULL;
  p.nodes = 6;
  p.msgs_per_rank = 9;
  p.workload_seed = 0x1122334455667788ULL;
  p.fabric_seed = 0x99aabbccddeeff00ULL;
  p.drop_ppm = 12'345;
  p.dup_ppm = 6'789;
  p.route_bias_ppm = 250'000;
  p.jitter_ns = 54'321;
  p.route_skew_ns = 2'222;
  p.burst = 3;
  p.tie_break_salt = 0xfeedf00d5eedULL;
  p.flags = Perturbation::kFlagInterruptMode;
  // Pin every primitive: scan=2, reduce_scatter=1, alltoall=2, allreduce=4
  // (NIC offload), bcast=2 — all in range for their nibbles.
  p.coll_algos = 0x21242;
  p.topology = 3;  // torus3d
  p.channels = 3;  // full pipes/lapi/rdma trio
  return p;
}

/// The token the re-ack self-test shrinks to (ExplorerShrink below).
constexpr const char* kReackToken =
    "x4-1-2-6-2d78fd0850bc5b9e-a7b31eb489ec9d7e-1-0-0-0-0-3-0-1-0-0-0";

/// Committed tokens of every version with the form token() re-emits and the
/// Explorer::check verdict ("" = conformant). x2/x3 tokens re-emit as x4; the
/// x5/x6 rows are systematic_vector() below without and with pins, whose
/// decision digits force an index past a choice point's candidates.
struct GoldenToken {
  const char* token;
  const char* emitted;
  const char* verdict;
};
constexpr const char* kReackVerdict =
    "pipes channel invariant violated: re-ack storm: 111 immediate re-acks for 111 duplicate "
    "deliveries (0 coalesced)";
constexpr const char* kForcedPastEnd =
    "systematic replay failed: forced decision index exceeds the candidate count at its choice "
    "point";
constexpr GoldenToken kGoldenTokens[] = {
    {kReackToken, kReackToken, kReackVerdict},
    {"x3-1-2-6-2d78fd0850bc5b9e-a7b31eb489ec9d7e-1-0-0-0-0-3-0-1-0-0", kReackToken,
     kReackVerdict},
    {"x2-1-2-6-2d78fd0850bc5b9e-a7b31eb489ec9d7e-1-0-0-0-0-3-0-1-0", kReackToken, kReackVerdict},
    {"x5-5c4ed-3-2-1-5eed-0-0-0-0-0-1-0-34-0-0-0-96-200-s10213",
     "x5-5c4ed-3-2-1-5eed-0-0-0-0-0-1-0-34-0-0-0-96-200-s10213", kForcedPastEnd},
    {"x6-5c4ed-3-2-1-5eed-0-0-0-0-0-1-0-34-55-0-0-96-200-s10213-1",
     "x6-5c4ed-3-2-1-5eed-0-0-0-0-0-1-0-34-55-0-0-96-200-s10213-1", kForcedPastEnd},
};

TEST(ExplorerToken, GoldenTokensReplayByteIdentically) {
  for (const GoldenToken& g : kGoldenTokens) {
    const auto p = Perturbation::parse(g.token);
    ASSERT_TRUE(p.has_value()) << g.token;
    EXPECT_EQ(p->token(), g.emitted);
    Explorer ex{Explorer::Options{}};
    EXPECT_EQ(ex.check(*p).value_or(""), g.verdict) << g.token;
  }
}

TEST(ExplorerToken, RoundTripsEveryField) {
  const Perturbation p = busy_vector();
  const std::optional<Perturbation> back = Perturbation::parse(p.token());
  ASSERT_TRUE(back.has_value()) << p.token();
  EXPECT_EQ(*back, p);

  // Defaults round-trip too (the all-neutral vector).
  const Perturbation neutral;
  const auto back2 = Perturbation::parse(neutral.token());
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(*back2, neutral);
}

TEST(ExplorerToken, RejectsMalformed) {
  const std::string good = busy_vector().token();
  EXPECT_TRUE(Perturbation::parse(good).has_value());

  EXPECT_FALSE(Perturbation::parse("").has_value());
  EXPECT_FALSE(Perturbation::parse("x2").has_value());
  EXPECT_FALSE(Perturbation::parse("x1" + good.substr(2)).has_value());  // old version
  EXPECT_FALSE(Perturbation::parse(good.substr(0, good.rfind('-'))).has_value());  // field missing
  EXPECT_FALSE(Perturbation::parse(good + "-0").has_value());                      // field extra
  EXPECT_FALSE(Perturbation::parse(good + "zz").has_value());                      // trailing junk

  // Out-of-bounds values parse as hex but fail validation.
  auto reject = [](Perturbation p) {
    EXPECT_FALSE(Perturbation::parse(p.token()).has_value()) << p.token();
  };
  Perturbation p = busy_vector();
  p.nodes = 1;
  reject(p);
  p = busy_vector();
  p.nodes = 65;
  reject(p);
  p = busy_vector();
  p.msgs_per_rank = 0;
  reject(p);
  p = busy_vector();
  p.burst = 0;
  reject(p);
  p = busy_vector();
  p.drop_ppm = 600'000;  // > 50% loss is not survivable
  reject(p);
  p = busy_vector();
  p.route_bias_ppm = 1'000'001;
  reject(p);
  p = busy_vector();
  p.coll_algos = 0x6;  // bcast nibble past the in-network combining id
  reject(p);
  p = busy_vector();
  p.coll_algos = 0x60;  // allreduce nibble past the in-network combining id
  reject(p);
  p = busy_vector();
  p.coll_algos = 0x30000;  // scan nibble past its last algorithm
  reject(p);
  p = busy_vector();
  p.coll_algos = 0x100000;  // bits above the scan nibble
  reject(p);
  p = busy_vector();
  p.topology = 5;  // past kDragonfly
  reject(p);
  p = busy_vector();
  p.channels = 4;  // past the trio
  reject(p);
}

TEST(ExplorerToken, LegacyTokenVersionsParseWithDefaults) {
  // Tokens minted before the topology field ("x2", 14 data fields) and
  // before the channel-pairing field ("x3", 15 fields) must keep replaying
  // with those fields at their defaults (SP multistage, legacy pipes<->lapi
  // differential pair).
  Perturbation p = busy_vector();
  p.topology = 0;
  p.channels = 0;
  std::string tok = p.token();
  ASSERT_EQ(tok.substr(0, 3), "x4-");
  const std::string x3 = "x3-" + tok.substr(3, tok.rfind('-') - 3);
  const auto back3 = Perturbation::parse(x3);
  ASSERT_TRUE(back3.has_value()) << x3;
  EXPECT_EQ(*back3, p);
  const std::string x2 = "x2-" + x3.substr(3, x3.rfind('-') - 3);
  const auto back2 = Perturbation::parse(x2);
  ASSERT_TRUE(back2.has_value()) << x2;
  EXPECT_EQ(*back2, p);
  // A token with an extra field for its version (or one missing a field) is
  // malformed.
  EXPECT_FALSE(Perturbation::parse(x2 + "-0").has_value());
  EXPECT_FALSE(Perturbation::parse(x3 + "-0").has_value());
  EXPECT_FALSE(Perturbation::parse(tok.substr(0, tok.rfind('-'))).has_value());
}

TEST(ExplorerConformance, TopologyChoiceNeverChangesMpiResults) {
  // The topology field perturbs packet schedules only: the differential
  // check (Pipes vs LAPI, plus sequential references) must stay conformant
  // on every fabric with an otherwise-clean vector.
  Explorer::Options eo;
  eo.nodes = 6;
  eo.msgs_per_rank = 6;
  Explorer ex(eo);
  for (std::uint32_t topo = 0; topo < static_cast<std::uint32_t>(kTopologyKinds); ++topo) {
    Perturbation p;
    p.seed = 77;
    p.nodes = 6;
    p.msgs_per_rank = 6;
    p.topology = topo;
    const auto failure = ex.check(p);
    EXPECT_FALSE(failure.has_value())
        << "topology " << topo << " diverged: " << failure.value_or("");
  }
}

TEST(ExplorerDeterminism, SeedExpandsToTheSameVectorEveryTime) {
  Explorer::Options opts;
  const Explorer ex(opts);
  for (std::uint64_t seed : {1ULL, 42ULL, 0xabcdefULL}) {
    const Perturbation a = ex.perturbation_for(seed);
    const Perturbation b = ex.perturbation_for(seed);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.seed, seed);
  }
  EXPECT_NE(ex.perturbation_for(1), ex.perturbation_for(2));
}

TEST(ExplorerDeterminism, RunChannelDigestIsReproducible) {
  // Same seed + same perturbation vector => identical digest (acceptance
  // criterion), on both channels, under active fault + schedule knobs.
  Explorer::Options opts;
  const Explorer ex(opts);
  Perturbation p;
  p.nodes = 4;
  p.msgs_per_rank = 8;
  p.drop_ppm = 20'000;
  p.dup_ppm = 5'000;
  p.jitter_ns = 50'000;
  p.burst = 2;
  p.tie_break_salt = 0x5a17;
  for (Backend b : {Backend::kNativePipes, Backend::kLapiEnhanced}) {
    const auto first = ex.run_channel(p, b);
    const auto second = ex.run_channel(p, b);
    ASSERT_TRUE(first.completed) << first.error;
    EXPECT_TRUE(first.ok()) << (first.invariant_violations.empty()
                                    ? ""
                                    : first.invariant_violations[0]);
    EXPECT_EQ(first.conformance_digest, second.conformance_digest);
    EXPECT_EQ(first.telemetry_digest, second.telemetry_digest);
    EXPECT_EQ(first.elapsed, second.elapsed);
  }
}

TEST(ExplorerIsolation, BackToBackMachineRunsMatchFreshRuns) {
  // The explorer re-runs many Machines inside one process; any residual
  // static/global state (telemetry ring, stats baselines, fabric PRNG) would
  // make a run's digest depend on what ran before it. Observe vector B
  // first, then run two unrelated perturbed machines, then B again: every
  // observable must be bit-identical.
  Explorer::Options opts;
  const Explorer ex(opts);
  Perturbation b;
  b.nodes = 4;
  b.msgs_per_rank = 6;
  b.drop_ppm = 15'000;
  b.tie_break_salt = 7;
  Perturbation a;
  a.nodes = 3;
  a.msgs_per_rank = 10;
  a.workload_seed = 99;
  a.fabric_seed = 0xf00d;
  a.dup_ppm = 30'000;
  a.jitter_ns = 80'000;

  const auto fresh = ex.run_channel(b, Backend::kNativePipes);
  (void)ex.run_channel(a, Backend::kNativePipes);
  (void)ex.run_channel(a, Backend::kLapiEnhanced);
  const auto again = ex.run_channel(b, Backend::kNativePipes);

  ASSERT_TRUE(fresh.completed) << fresh.error;
  EXPECT_EQ(fresh.conformance_digest, again.conformance_digest);
  EXPECT_EQ(fresh.telemetry_digest, again.telemetry_digest);
  EXPECT_EQ(fresh.elapsed, again.elapsed);
  EXPECT_EQ(fresh.stats.packets_sent, again.stats.packets_sent);
  EXPECT_EQ(fresh.stats.fabric_dropped, again.stats.fabric_dropped);
}

TEST(ExplorerConformance, TieBreakSaltPermutesTimelineNotResults) {
  // The tie-break salt reorders same-timestamp event processing — a pure
  // schedule perturbation. Conformance observables must not move.
  Explorer::Options opts;
  Explorer ex(opts);
  Perturbation p;
  p.nodes = 4;
  p.msgs_per_rank = 8;
  const auto base = ex.run_channel(p, Backend::kLapiEnhanced);
  ASSERT_TRUE(base.ok());
  for (std::uint64_t salt : {0x1111ULL, 0x222222ULL}) {
    Perturbation q = p;
    q.tie_break_salt = salt;
    const auto salted = ex.run_channel(q, Backend::kLapiEnhanced);
    ASSERT_TRUE(salted.completed) << salted.error;
    EXPECT_EQ(salted.conformance_digest, base.conformance_digest) << "salt " << salt;
    // And the full differential check passes under the salt.
    EXPECT_EQ(ex.check(q), std::nullopt);
  }
}

TEST(ExplorerConformance, AlgorithmChoiceNeverChangesCollectiveResults) {
  // The collective-engine observable: pinning any algorithm combination
  // reroutes the wire traffic (so the match digest legitimately moves) but
  // must leave the user-visible collective results — and therefore the
  // cross-rank checksum — bit-identical to auto selection, and each pinned
  // vector must still pass the full Pipes/LAPI differential check.
  Explorer::Options opts;
  Explorer ex(opts);
  Perturbation p;
  p.nodes = 5;  // non-power-of-two: exercises the pre-fold paths
  p.msgs_per_rank = 6;
  const auto base = ex.run_channel(p, Backend::kLapiEnhanced);
  ASSERT_TRUE(base.ok()) << (base.invariant_violations.empty()
                                 ? base.error
                                 : base.invariant_violations[0]);
  for (std::uint32_t pins : {0x11111u,   // binomial/reduce_bcast/pairwise/via-reduce/linear
                             0x21232u,   // the "new" algorithms for every primitive
                             0x02222u,   // pipelined/rec-doubling/bruck/halving, auto scan
                             0x00030u,   // only allreduce pinned (Rabenseifner)
                             0x00055u}) {  // bcast+allreduce through the switch tables
    Perturbation q = p;
    q.coll_algos = pins;
    if (pins == 0x00055u) q.coll_ext = 5;  // and the in-network barrier
    const auto pinned = ex.run_channel(q, Backend::kLapiEnhanced);
    ASSERT_TRUE(pinned.ok()) << "pins=0x" << std::hex << pins << ": "
                             << (pinned.invariant_violations.empty()
                                     ? pinned.error
                                     : pinned.invariant_violations[0]);
    EXPECT_EQ(pinned.coll_digest, base.coll_digest) << "pins=0x" << std::hex << pins;
    EXPECT_EQ(pinned.checksum, base.checksum) << "pins=0x" << std::hex << pins;
    EXPECT_EQ(ex.check(q), std::nullopt) << "pins=0x" << std::hex << pins;
  }
}

TEST(ExplorerConformance, CleanSweepFindsNoMismatches) {
  // Acceptance criterion: 256 seeds on the 4-node mixed eager/rendezvous
  // workload across the channel pairings each vector selects, zero
  // conformance mismatches. The soak tier widens the sweep.
  Explorer::Options opts;
  opts.nodes = 4;
  opts.msgs_per_rank = 12;
  opts.seeds = sp::test::soak_mode() ? 1024 : 256;
  Explorer ex(opts);
  const Explorer::Report rep = ex.explore();
  EXPECT_EQ(rep.seeds_run, opts.seeds);
  // Each seed costs one run per channel in its differential set (2 or 3).
  int expected_runs = 0;
  for (int s = 0; s < opts.seeds; ++s) {
    const Perturbation p = ex.perturbation_for(opts.base_seed + static_cast<std::uint64_t>(s));
    expected_runs += p.channels == 3 ? 3 : 2;
  }
  EXPECT_EQ(rep.runs, expected_runs);
  EXPECT_TRUE(rep.mismatches.empty())
      << "first mismatch: " << rep.mismatches[0].reason
      << " token=" << rep.mismatches[0].token;
}

TEST(ExplorerShrink, ReintroducedReackBugIsCaughtAndShrunk) {
  // Acceptance criterion: with the PR 2 re-ack coalescing bug re-introduced
  // via the hidden knob, the sweep must catch it in under 200 seeds and
  // shrink to a replayable minimal token.
  Explorer::Options opts;
  opts.seeds = 200;
  opts.inject_reack_bug = true;
  Explorer ex(opts);
  const Explorer::Report rep = ex.explore();
  ASSERT_EQ(rep.mismatches.size(), 1u) << "bug not caught within 200 seeds";
  const Explorer::Mismatch& mm = rep.mismatches[0];
  EXPECT_LE(rep.seeds_run, 200);

  // The shrunken vector kept the bug knob and still names a re-ack failure.
  EXPECT_NE(mm.shrunk.flags & Perturbation::kFlagReackStormBug, 0u);
  EXPECT_LE(mm.shrunk.nodes, mm.original.nodes);
  EXPECT_LE(mm.shrunk.msgs_per_rank, mm.original.msgs_per_rank);

  // The token replays standalone: parse it back, verify it still fails, and
  // verify the same vector with the bug knob cleared is conformant (so the
  // failure is attributable to the re-introduced bug, nothing else).
  // The minted token and the run count are pinned: the shrink order, the
  // token layout and the budget accounting must all stay byte-identical.
  EXPECT_EQ(mm.token, kReackToken);
  EXPECT_EQ(rep.runs, 42);
  const auto parsed = Perturbation::parse(mm.token);
  ASSERT_TRUE(parsed.has_value()) << mm.token;
  EXPECT_EQ(*parsed, mm.shrunk);
  Explorer replay{Explorer::Options{}};
  EXPECT_TRUE(replay.check(*parsed).has_value()) << "shrunken token no longer fails";
  Perturbation fixed = *parsed;
  fixed.flags &= ~Perturbation::kFlagReackStormBug;
  EXPECT_EQ(replay.check(fixed), std::nullopt) << "failure not attributable to the bug knob";
}

/// A systematic vector exercising every x5 field away from its default.
Perturbation systematic_vector() {
  Perturbation p;
  p.seed = 0x5c4ed;
  p.nodes = 3;
  p.msgs_per_rank = 2;
  p.flags = Perturbation::kFlagSystematic |
            (static_cast<std::uint32_t>(mpi::Backend::kLapiEnhanced)
             << Perturbation::kBackendShift);
  p.sched_window_ns = 150;
  p.sys_msg_bytes = 512;
  p.sched = "10213";
  return p;
}

TEST(ExplorerToken, SystematicTokensRoundTrip) {
  const Perturbation p = systematic_vector();
  const std::string tok = p.token();
  ASSERT_EQ(tok.substr(0, 3), "x5-") << tok;
  const auto back = Perturbation::parse(tok);
  ASSERT_TRUE(back.has_value()) << tok;
  EXPECT_EQ(*back, p);

  // The canonical-schedule vector (empty decision string) round-trips too.
  Perturbation canon = p;
  canon.sched.clear();
  canon.sched_window_ns = 0;
  const auto back2 = Perturbation::parse(canon.token());
  ASSERT_TRUE(back2.has_value()) << canon.token();
  EXPECT_EQ(*back2, canon);

  // Non-systematic vectors keep emitting byte-identical x4 tokens: the flag
  // alone gates the extended fields.
  EXPECT_EQ(busy_vector().token().substr(0, 3), "x4-");
}

TEST(ExplorerToken, RejectsMalformedSystematic) {
  const Perturbation p = systematic_vector();
  const std::string good = p.token();
  ASSERT_TRUE(Perturbation::parse(good).has_value());

  // Version/flag coherence: the x5 tail requires the systematic flag. A
  // token carrying x5 fields but flagged non-systematic is incoherent —
  // splice the x5 tail onto the flag-stripped vector's x4 token.
  {
    Perturbation noflag = p;
    noflag.flags &= ~Perturbation::kFlagSystematic;
    std::string x4_tok = noflag.token();
    ASSERT_EQ(x4_tok.substr(0, 3), "x4-");
    std::size_t tail = good.size();
    for (int cut = 0; cut < 3; ++cut) tail = good.rfind('-', tail - 1);
    const std::string spliced = "x5" + x4_tok.substr(2) + good.substr(tail);
    EXPECT_FALSE(Perturbation::parse(spliced).has_value()) << spliced;
    // And an x5 token truncated down to the x4 field count must fail: no
    // prefix of a token is a token.
    EXPECT_FALSE(Perturbation::parse(good.substr(0, tail)).has_value());
  }

  // Decision-string shape: missing 's' sentinel, uppercase, non-hex.
  auto with_tail = [&](const std::string& tail) {
    std::string tok = good;
    tok = tok.substr(0, tok.rfind('-') + 1) + tail;
    return tok;
  };
  EXPECT_FALSE(Perturbation::parse(with_tail("10213")).has_value());   // no 's'
  EXPECT_FALSE(Perturbation::parse(with_tail("S10213")).has_value());  // wrong case
  EXPECT_FALSE(Perturbation::parse(with_tail("s102G3")).has_value());  // non-hex
  EXPECT_FALSE(Perturbation::parse(with_tail("s10 13")).has_value());  // whitespace
  EXPECT_TRUE(Perturbation::parse(with_tail("s")).has_value());        // empty sched ok

  // Field validation on the extended fields.
  auto reject = [](Perturbation q) {
    EXPECT_FALSE(Perturbation::parse(q.token()).has_value()) << q.token();
  };
  Perturbation q = p;
  q.flags = (q.flags & ~Perturbation::kBackendMask) |
            (5u << Perturbation::kBackendShift);  // past kRdma
  reject(q);
  q = p;
  q.sys_msg_bytes = 0;
  reject(q);
  q = p;
  q.sys_msg_bytes = 70'000;
  reject(q);
  q = p;
  q.msgs_per_rank = 300;  // decision indices assume small workloads
  reject(q);
  q = p;
  q.sched.assign(5000, '0');  // unshrunk runaway schedule
  reject(q);

  // Each mode's unused fields must be at their defaults. A systematic replay
  // reads none of the differential-mode knobs...
  const std::vector<void (*)(Perturbation&)> differential_only = {
      [](Perturbation& v) { v.drop_ppm = 100'000; },
      [](Perturbation& v) { v.dup_ppm = 100'000; },
      [](Perturbation& v) { v.route_bias_ppm = 250'000; },
      [](Perturbation& v) { v.jitter_ns = 1'000; },
      [](Perturbation& v) { v.route_skew_ns = 1'000; },
      [](Perturbation& v) { v.tie_break_salt = 0xff; },
      [](Perturbation& v) { v.channels = 3; },
      [](Perturbation& v) { v.burst = 2; },
      [](Perturbation& v) { v.flags |= Perturbation::kFlagInterruptMode; },
      [](Perturbation& v) { v.flags |= Perturbation::kFlagReackStormBug; },
  };
  for (const auto set : differential_only) {
    q = p;
    set(q);
    reject(q);
  }
  // ...and a differential x6 vector reads none of the systematic fields.
  Perturbation diff = busy_vector();
  diff.coll_ext = 1;
  ASSERT_TRUE(Perturbation::parse(diff.token()).has_value()) << diff.token();
  const std::vector<void (*)(Perturbation&)> systematic_only = {
      [](Perturbation& v) { v.sched_window_ns = 150; },
      [](Perturbation& v) { v.sys_msg_bytes = 512; },
      [](Perturbation& v) { v.sched.push_back('1'); },
  };
  for (const auto set : systematic_only) {
    q = diff;
    set(q);
    reject(q);
  }
}

TEST(ExplorerToken, X6TokensRoundTripAndValidate) {
  // The barrier-pin field ("x6", appended after the systematic fields per
  // the append-only rule) round-trips for both systematic and
  // non-systematic vectors, and only when it is non-zero — an unpinned
  // barrier keeps every older token byte-identical.
  Perturbation p = busy_vector();
  p.coll_algos = 0x00055u;  // bcast and allreduce through the switch tables
  p.coll_ext = 5;           // in-network barrier
  const std::string tok = p.token();
  ASSERT_EQ(tok.substr(0, 3), "x6-") << tok;
  const auto back = Perturbation::parse(tok);
  ASSERT_TRUE(back.has_value()) << tok;
  EXPECT_EQ(*back, p);
  EXPECT_EQ(back->token(), tok);

  Perturbation sp = systematic_vector();
  sp.coll_algos = 0x55;
  sp.coll_ext = 1;  // dissemination barrier
  const std::string stok = sp.token();
  ASSERT_EQ(stok.substr(0, 3), "x6-") << stok;
  const auto sback = Perturbation::parse(stok);
  ASSERT_TRUE(sback.has_value()) << stok;
  EXPECT_EQ(*sback, sp);
  EXPECT_EQ(sback->token(), stok);

  // Every strict prefix of an x6 token fails to parse: unlike x5, the
  // decision digits are not the trailing field, so a truncation can never be
  // mistaken for a shorter valid schedule.
  for (std::size_t cut = 0; cut < stok.size(); ++cut) {
    EXPECT_FALSE(Perturbation::parse(stok.substr(0, cut)).has_value())
        << "prefix " << stok.substr(0, cut);
  }
  EXPECT_FALSE(Perturbation::parse(tok + "-0").has_value());  // field extra

  auto reject = [](Perturbation q) {
    EXPECT_FALSE(Perturbation::parse(q.token()).has_value()) << q.token();
  };
  // Barrier ids 2-3 do not exist; 6 is past the in-network id.
  for (std::uint32_t bad : {2u, 3u, 6u, 0x15u}) {
    Perturbation q = p;
    q.coll_ext = bad;
    reject(q);
  }
  // A non-systematic x6 vector must carry the systematic fields inert: a
  // decision string without the flag is a corrupted token.
  Perturbation q = p;
  q.sched = "102";
  reject(q);
}

TEST(ExplorerToken, EveryPinRoundTripsThroughTheToken) {
  // Every valid value of each of the six pins, set by name through
  // apply_algo_spec, survives config -> capture() -> token() -> parse() ->
  // apply() unchanged — alone, and with every primitive pinned at once.
  const std::vector<std::pair<std::string, std::vector<std::string>>> kPins = {
      {"bcast", {"auto", "binomial", "pipelined", "scatter_allgather", "nic", "in_network"}},
      {"allreduce",
       {"auto", "reduce_bcast", "recursive_doubling", "rabenseifner", "nic", "in_network"}},
      {"alltoall", {"auto", "pairwise", "bruck"}},
      {"reduce_scatter", {"auto", "reduce_scatter", "recursive_halving"}},
      {"scan", {"auto", "linear", "binomial"}},
      {"barrier", {"auto", "dissemination", "nic", "in_network"}},
  };
  const auto pins = [](const MachineConfig& c) {
    return std::vector<int>{c.coll_bcast_algo,          c.coll_allreduce_algo,
                            c.coll_alltoall_algo,       c.coll_reduce_scatter_algo,
                            c.coll_scan_algo,           c.coll_barrier_algo};
  };
  const auto round_trip = [&](const std::string& spec) {
    MachineConfig cfg;
    std::string err;
    ASSERT_TRUE(mpi::coll::apply_algo_spec(cfg, spec, &err)) << err;
    Perturbation p;
    p.capture(cfg);
    const auto back = Perturbation::parse(p.token());
    ASSERT_TRUE(back.has_value()) << spec << " -> " << p.token();
    EXPECT_EQ(pins(back->apply(MachineConfig{})), pins(cfg)) << spec;
  };
  std::string all;
  for (const auto& [prim, names] : kPins) {
    for (const std::string& name : names) round_trip(prim + "=" + name);
    all += (all.empty() ? "" : ",") + prim + "=" + names.back();
  }
  round_trip(all);
}

TEST(ExplorerToken, RejectsGarbageHexFields) {
  // Perturbation::parse used to lean on strtoull, which silently accepted
  // leading whitespace, sign characters, "0x" prefixes, and values that wrap
  // past 64 bits — so corrupted tokens could replay as a *different* vector
  // instead of failing. Strict lowercase-hex parsing rejects them all.
  const std::string good = busy_vector().token();
  auto corrupt_field = [&](int field, const std::string& repl) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t dash = good.find('-'); dash != std::string::npos;
         dash = good.find('-', start)) {
      parts.push_back(good.substr(start, dash - start));
      start = dash + 1;
    }
    parts.push_back(good.substr(start));
    parts[static_cast<std::size_t>(field)] = repl;
    std::string out = parts[0];
    for (std::size_t i = 1; i < parts.size(); ++i) out += "-" + parts[i];
    return out;
  };
  for (int field = 1; field <= 16; ++field) {
    EXPECT_FALSE(Perturbation::parse(corrupt_field(field, "")).has_value())
        << "empty field " << field;
    EXPECT_FALSE(Perturbation::parse(corrupt_field(field, " 1")).has_value())
        << "whitespace field " << field;
    EXPECT_FALSE(Perturbation::parse(corrupt_field(field, "0x1")).has_value())
        << "0x prefix field " << field;
    EXPECT_FALSE(Perturbation::parse(corrupt_field(field, "12345678901234567"))
                     .has_value())
        << "overlong field " << field;
  }
  // '+' and '-' signs can't survive the dash-split as part of a field, but a
  // 'g' (just past the hex alphabet) can.
  EXPECT_FALSE(Perturbation::parse(corrupt_field(3, "1g")).has_value());
}

TEST(ExplorerToken, FuzzParseTokenRoundTrip) {
  // Deterministic fuzz: random vectors must round-trip token() <-> parse()
  // exactly, and every truncation of a valid token must be rejected (no
  // prefix of a token is itself a token).
  std::uint64_t lcg = 0xabcdef1234567890ULL;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 16;
  };
  for (int trial = 0; trial < 64; ++trial) {
    Perturbation p;
    p.seed = next();
    p.nodes = 2 + static_cast<int>(next() % 7);
    p.msgs_per_rank = 1 + static_cast<int>(next() % 16);
    p.workload_seed = next();
    p.fabric_seed = next();
    p.drop_ppm = static_cast<std::uint32_t>(next() % 500'000);
    p.dup_ppm = static_cast<std::uint32_t>(next() % 500'000);
    p.route_bias_ppm = static_cast<std::uint32_t>(next() % 1'000'000);
    p.jitter_ns = static_cast<TimeNs>(next() % 100'000);
    p.route_skew_ns = static_cast<TimeNs>(next() % 10'000);
    p.burst = 1 + static_cast<int>(next() % 4);
    p.tie_break_salt = next();
    p.flags = Perturbation::kFlagInterruptMode * static_cast<std::uint32_t>(next() & 1);
    p.topology = static_cast<std::uint32_t>(next() % 5);
    p.channels = static_cast<std::uint32_t>(next() % 4);
    if (next() & 1) {
      // Any in-range pin combination, including the in-network id (5) on the
      // bcast/allreduce nibbles.
      p.coll_algos = static_cast<std::uint32_t>(next() % 6) |
                     (static_cast<std::uint32_t>(next() % 6) << 4) |
                     (static_cast<std::uint32_t>(next() % 3) << 8) |
                     (static_cast<std::uint32_t>(next() % 3) << 12) |
                     (static_cast<std::uint32_t>(next() % 3) << 16);
    }
    {
      static constexpr std::uint32_t kExt[] = {0, 0, 1, 4, 5};  // half stay x4/x5
      p.coll_ext = kExt[next() % 5];
    }
    if (next() & 1) {
      p.flags |= Perturbation::kFlagSystematic |
                 (static_cast<std::uint32_t>(next() % 5) << Perturbation::kBackendShift);
      p.nodes = 2 + static_cast<int>(next() % 3);
      p.msgs_per_rank = 1 + static_cast<int>(next() % 4);
      p.sched_window_ns = static_cast<TimeNs>(next() % 1000);
      p.sys_msg_bytes = 1 + static_cast<std::uint32_t>(next() % 10'000);
      const int len = static_cast<int>(next() % 12);
      p.sched.clear();
      for (int i = 0; i < len; ++i)
        p.sched.push_back("0123456789abcdef"[next() % 16]);
      // The differential-mode knobs drawn above are unused by a systematic
      // replay, so a token carrying them is rejected; neutralised, the same
      // vector goes through the checks below.
      EXPECT_FALSE(Perturbation::parse(p.token()).has_value()) << p.token();
      p.drop_ppm = p.dup_ppm = p.route_bias_ppm = 0;
      p.jitter_ns = p.route_skew_ns = 0;
      p.burst = 1;
      p.tie_break_salt = 0;
      p.channels = 0;
      p.flags &= ~Perturbation::kFlagInterruptMode;
    }
    const std::string tok = p.token();
    const auto back = Perturbation::parse(tok);
    ASSERT_TRUE(back.has_value()) << tok;
    EXPECT_EQ(*back, p) << tok;
    EXPECT_EQ(back->token(), tok);

    // Truncations: a strict prefix must fail to parse — except an x5 prefix
    // cut inside the trailing decision digits, which is a structurally valid
    // shorter schedule (the shrinker relies on exactly that). x6 tokens put
    // the barrier-pin field after the digits, so no x6 prefix is a token.
    const std::size_t sched_start =
        (p.flags & Perturbation::kFlagSystematic) != 0 && p.coll_ext == 0
            ? tok.rfind('s') + 1
            : tok.size();
    for (std::size_t cut = 0; cut < tok.size(); cut += 1 + tok.size() / 23) {
      const std::string prefix = tok.substr(0, cut);
      const auto parsed = Perturbation::parse(prefix);
      if (cut >= sched_start) {
        ASSERT_TRUE(parsed.has_value()) << "prefix " << prefix;
        EXPECT_EQ(parsed->sched, p.sched.substr(0, cut - sched_start));
      } else {
        EXPECT_FALSE(parsed.has_value()) << "prefix " << prefix;
      }
    }
    // Suffix garbage must fail too.
    EXPECT_FALSE(Perturbation::parse(tok + "-ff").has_value());
    EXPECT_FALSE(Perturbation::parse(tok + "q").has_value());
  }
}

TEST(ExplorerBudget, TrioSeedBudgetIsExact) {
  // A channels==3 seed costs exactly three machine runs. The explorer used
  // to admit a seed whenever two runs fit, so a trio seed at the budget edge
  // overshot max_runs by one; admission now charges the true cost up front.
  Explorer::Options probe_opts;
  Explorer probe(probe_opts);
  std::uint64_t trio_seed = 0;
  for (std::uint64_t s = 1; s < 64; ++s) {
    if (probe.perturbation_for(s).channels == 3) {
      trio_seed = s;
      break;
    }
  }
  ASSERT_NE(trio_seed, 0u) << "no trio seed in the first 64";

  Explorer::Options opts;
  opts.base_seed = trio_seed;
  opts.seeds = 1;
  opts.max_runs = 2;  // can't afford the trio
  Explorer ex(opts);
  const Explorer::Report rep = ex.explore();
  EXPECT_EQ(rep.seeds_run, 0);
  EXPECT_EQ(rep.runs, 0);

  Explorer::Options opts3 = opts;
  opts3.max_runs = 3;  // exactly affordable
  Explorer ex3(opts3);
  const Explorer::Report rep3 = ex3.explore();
  EXPECT_EQ(rep3.seeds_run, 1);
  EXPECT_EQ(rep3.runs, 3);
}

TEST(ExplorerSystematic, ReplayTokensPassCheck) {
  // Pinned regression coverage for the sweep's hot spots: the RDMA
  // early-arrival wildcard re-match path (2 ranks, 6 messages of eager
  // pressure) and the eager->rendezvous demote path (payload above the 4096
  // eager limit), each replayed through Explorer::check as a real x5 vector.
  Explorer ex{Explorer::Options{}};

  Perturbation rdma;
  rdma.nodes = 2;
  rdma.msgs_per_rank = 6;
  rdma.flags = Perturbation::kFlagSystematic |
               (static_cast<std::uint32_t>(Backend::kRdma) << Perturbation::kBackendShift);
  rdma.sched = "1";  // diverge from the canonical schedule at the first point
  const auto rdma_tok = Perturbation::parse(rdma.token());
  ASSERT_TRUE(rdma_tok.has_value());
  EXPECT_EQ(ex.check(*rdma_tok), std::nullopt) << rdma.token();

  Perturbation demote;
  demote.nodes = 2;
  demote.msgs_per_rank = 1;
  demote.sys_msg_bytes = 8192;  // forces the rendezvous protocol
  demote.flags = Perturbation::kFlagSystematic |
                 (static_cast<std::uint32_t>(Backend::kLapiEnhanced)
                  << Perturbation::kBackendShift);
  demote.sched = "11";
  const auto demote_tok = Perturbation::parse(demote.token());
  ASSERT_TRUE(demote_tok.has_value());
  EXPECT_EQ(ex.check(*demote_tok), std::nullopt) << demote.token();

  // Collective pins ride in the token (x6: the barrier pin), so a pinned
  // vector replays the in-network collective phase in the same single run.
  Perturbation innet;
  innet.nodes = 2;
  innet.msgs_per_rank = 1;
  innet.flags = Perturbation::kFlagSystematic |
                (static_cast<std::uint32_t>(Backend::kLapiEnhanced) << Perturbation::kBackendShift);
  innet.coll_algos = 0x55;  // bcast=in_network, allreduce=in_network
  innet.coll_ext = 5;       // barrier=in_network
  innet.sched = "1";
  const auto innet_tok = Perturbation::parse(innet.token());
  ASSERT_TRUE(innet_tok.has_value());
  EXPECT_EQ(ex.check(*innet_tok), std::nullopt) << innet.token();
  // The phase adds choice points (21 -> 35 on this channel): a forced digit
  // at point 25 is out of range only when the pins brought the phase in.
  Perturbation deep = *innet_tok;
  deep.sched = std::string(25, '0') + "f";
  EXPECT_NE(ex.check(deep), std::nullopt) << deep.token();
  deep.coll_algos = 0;
  deep.coll_ext = 0;
  EXPECT_EQ(ex.check(deep), std::nullopt) << deep.token();

  // Each systematic check costs exactly one machine run.
  EXPECT_EQ(ex.runs(), 5);
}

TEST(ExplorerSystematic, MintedTokensCarryTheConfigTheyRan) {
  // systematic_vector() is the token systematic_explore mints for a failing
  // run. It must carry the run's pins, topology and fabric seed, so the
  // token replays the same machine on a default base config.
  SystematicOptions so;
  so.ranks = 2;
  so.backend = Backend::kRdma;
  so.base_config.topology = TopologyKind::kFatTree;
  so.base_config.fabric_seed = 0x1234;
  std::string err;
  ASSERT_TRUE(mpi::coll::apply_algo_spec(
      so.base_config, "bcast=in_network,allreduce=in_network,barrier=in_network", &err))
      << err;
  const std::vector<std::uint8_t> decisions{1, 0, 1, 1};
  const auto p = Perturbation::parse(systematic_vector(so, decisions).token());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->sched, "1011");
  const MachineConfig ran = p->apply(MachineConfig{});
  EXPECT_EQ(ran.topology, so.base_config.topology);
  EXPECT_EQ(ran.fabric_seed, so.base_config.fabric_seed);
  EXPECT_EQ(ran.coll_bcast_algo, so.base_config.coll_bcast_algo);
  EXPECT_EQ(ran.coll_allreduce_algo, so.base_config.coll_allreduce_algo);
  EXPECT_EQ(ran.coll_barrier_algo, so.base_config.coll_barrier_algo);
  Explorer ex{Explorer::Options{}};
  EXPECT_EQ(ex.check(*p), std::nullopt);
}

TEST(ExplorerSystematic, ExplorerBudgetGatesSystematicRuns) {
  // explore_systematic draws from the same machine-run budget as the seeded
  // sweep; an exhausted budget yields an empty (incomplete) report rather
  // than unlimited enumeration.
  Explorer::Options opts;
  opts.max_runs = 10;
  Explorer ex(opts);
  SystematicOptions sopts;
  sopts.ranks = 3;  // needs ~1800 runs to complete
  const SystematicReport rep = ex.explore_systematic(sopts);
  EXPECT_FALSE(rep.complete);
  EXPECT_LE(rep.runs, 10);
  EXPECT_EQ(ex.runs(), rep.runs);

  // A second call with the budget spent runs nothing.
  Explorer::Options spent_opts;
  spent_opts.max_runs = 10;
  Explorer spent(spent_opts);
  SystematicOptions tiny;
  tiny.ranks = 2;
  (void)spent.explore_systematic(tiny);  // burns 10 runs (needs 39)
  const SystematicReport empty = spent.explore_systematic(tiny);
  EXPECT_EQ(empty.runs, 0);
  EXPECT_FALSE(empty.complete);
}

}  // namespace
}  // namespace sp::sim
