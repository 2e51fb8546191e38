// Systematic schedule exploration (DESIGN.md §15): pinned certificates,
// sleep-set non-redundancy, replay determinism, and the random-schedule
// cross-check against the enumerated outcome set.
//
// The pinned constants below are the certificate values for the tbmx-332
// cost model with the default 4096-byte eager limit — the same configuration
// `spsim explore --systematic` runs. They are deterministic: any drift means
// either the scheduler semantics or the independence relation changed, and
// the new value must be re-derived and justified, not just re-pinned.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "mpi/coll.hpp"
#include "sim/systematic.hpp"
#include "test_harness.hpp"

namespace {

using sp::sim::MachineConfig;
using sp::sim::SystematicOptions;
using sp::sim::SystematicReport;
using sp::sim::SystematicRunResult;
using sp::sim::systematic_expected_invariant;
using sp::sim::systematic_explore;
using sp::sim::systematic_replay;

SystematicOptions base_opts(sp::mpi::Backend backend, int ranks, int msgs = 1) {
  SystematicOptions so;
  so.base_config = MachineConfig::tbmx_332();
  so.base_config.eager_limit = 4096;
  so.backend = backend;
  so.ranks = ranks;
  so.msgs_per_rank = msgs;
  return so;
}

// The 2-rank/1-message wildcard workload enumerates exhaustively on every
// channel and every channel must produce the *same* certificate: the
// interleaving structure below the MPI layer differs (hence the differing
// redundant-run counts), but the set of distinguishable MPI outcomes cannot.
constexpr std::uint64_t kCert2Rank = 0x2265cf4272d772b7ULL;
constexpr std::uint64_t kInvariant2Rank = 0x7b0288a824fbdcaeULL;
constexpr std::uint64_t kCert3Rank = 0xde0a036cf4cff0f9ULL;

TEST(Systematic, PinnedCertificateTwoRankPipes) {
  const SystematicReport rep = systematic_explore(base_opts(sp::mpi::Backend::kNativePipes, 2));
  ASSERT_TRUE(rep.mismatches.empty()) << rep.mismatches[0].reason
                                      << " token=" << rep.mismatches[0].token;
  EXPECT_TRUE(rep.complete);
  EXPECT_FALSE(rep.depth_limited);
  EXPECT_EQ(rep.fanout_capped, 0);
  EXPECT_EQ(rep.interleavings, 4);
  EXPECT_EQ(rep.distinct_outcomes, 1u);
  EXPECT_EQ(rep.certificate_digest, kCert2Rank);
  EXPECT_EQ(rep.invariant_digest, kInvariant2Rank);
  // Budget accounting: every machine execution is either a certificate
  // interleaving or a sleep-set-pruned redundant run.
  EXPECT_EQ(rep.runs, rep.interleavings + rep.redundant);
}

TEST(Systematic, CertificateIsChannelInvariant) {
  for (const auto backend : {sp::mpi::Backend::kLapiEnhanced, sp::mpi::Backend::kRdma}) {
    const SystematicReport rep = systematic_explore(base_opts(backend, 2));
    ASSERT_TRUE(rep.mismatches.empty()) << rep.mismatches[0].reason;
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(rep.interleavings, 4) << static_cast<int>(backend);
    EXPECT_EQ(rep.certificate_digest, kCert2Rank) << static_cast<int>(backend);
    EXPECT_EQ(rep.invariant_digest, kInvariant2Rank) << static_cast<int>(backend);
  }
}

TEST(Systematic, PinnedCertificateThreeRank) {
  // 144 non-equivalent interleavings, 4 distinguishable wildcard match
  // orders — identical on the native and offloaded channels.
  const SystematicReport native = systematic_explore(base_opts(sp::mpi::Backend::kNativePipes, 3));
  ASSERT_TRUE(native.mismatches.empty()) << native.mismatches[0].reason;
  EXPECT_TRUE(native.complete);
  EXPECT_EQ(native.interleavings, 144);
  EXPECT_EQ(native.distinct_outcomes, 4u);
  EXPECT_EQ(native.certificate_digest, kCert3Rank);

  if (sp::test::soak_mode()) {
    const SystematicReport rdma = systematic_explore(base_opts(sp::mpi::Backend::kRdma, 3));
    ASSERT_TRUE(rdma.mismatches.empty());
    EXPECT_TRUE(rdma.complete);
    EXPECT_EQ(rdma.certificate_digest, kCert3Rank);
  }
}

// ---------------------------------------------------------------------------
// In-network combining certificates (DESIGN.md §16). Pinning collectives in
// base_config appends barrier + non-commutative kMat2x2 allreduce + bcast —
// all pinned through the switch combining tables — after the wildcard storm, and checks
// each against the exact sequential reference on EVERY interleaving. A single
// distinct outcome is the stash-then-fold determinism claim in certificate
// form: no arrival interleaving below the MPI layer can change what the
// tables deliver.
// ---------------------------------------------------------------------------

constexpr const char* kInNetworkSpec = "bcast=in_network,allreduce=in_network,barrier=in_network";
constexpr std::uint64_t kCertInNetwork2Rank = 0x485505051df207bfULL;
constexpr std::uint64_t kCertInNetwork3RankPrefix = 0xe016609bb9068d79ULL;

SystematicOptions innet_opts(sp::mpi::Backend backend, int ranks) {
  SystematicOptions so = base_opts(backend, ranks);
  std::string err;
  EXPECT_TRUE(sp::mpi::coll::apply_algo_spec(so.base_config, kInNetworkSpec, &err)) << err;
  return so;
}

TEST(Systematic, PinnedInNetworkCertificateTwoRankIsChannelInvariant) {
  // Exhaustive at 2 ranks on all three channels: 256 non-equivalent
  // interleavings (the combining engine's opaque events widen the space from
  // the plain workload's 4), every one conformant, and exactly one
  // distinguishable outcome — bit-identical across native, LAPI and RDMA.
  for (const auto backend : {sp::mpi::Backend::kNativePipes, sp::mpi::Backend::kLapiEnhanced,
                             sp::mpi::Backend::kRdma}) {
    const SystematicReport rep = systematic_explore(innet_opts(backend, 2));
    ASSERT_TRUE(rep.mismatches.empty())
        << rep.mismatches[0].reason << " token=" << rep.mismatches[0].token;
    EXPECT_TRUE(rep.complete) << static_cast<int>(backend);
    EXPECT_EQ(rep.interleavings, 256) << static_cast<int>(backend);
    EXPECT_EQ(rep.distinct_outcomes, 1u) << static_cast<int>(backend);
    EXPECT_EQ(rep.certificate_digest, kCertInNetwork2Rank) << static_cast<int>(backend);
    // The collective phase folds into the outcome digest only; the wildcard
    // message-set invariant is untouched by it.
    EXPECT_EQ(rep.invariant_digest, kInvariant2Rank) << static_cast<int>(backend);
  }
}

TEST(Systematic, PinnedInNetworkCertificateThreeRankPrefix) {
  // The 3-rank space with the collective phase is too large to drain in a
  // tier-1 test (~10^5+ interleavings), so pin a deterministic DFS prefix:
  // the first 1500 non-equivalent interleavings, all conformant, still one
  // distinct outcome. Completeness is explicitly not claimed.
  SystematicOptions so = innet_opts(sp::mpi::Backend::kLapiEnhanced, 3);
  so.max_interleavings = 1500;
  const SystematicReport rep = systematic_explore(so);
  ASSERT_TRUE(rep.mismatches.empty())
      << rep.mismatches[0].reason << " token=" << rep.mismatches[0].token;
  EXPECT_FALSE(rep.complete);
  EXPECT_EQ(rep.interleavings, 1500);
  EXPECT_EQ(rep.distinct_outcomes, 1u);
  EXPECT_EQ(rep.certificate_digest, kCertInNetwork3RankPrefix);
}

TEST(Systematic, InNetworkReplayMatchesHostReference) {
  // Replay determinism with the collective phase on: identical decision
  // prefixes reproduce identical digests, and a divergent prefix still
  // passes every in-fiber collective check (violations stay empty on
  // arbitrary schedules, not just the canonical one).
  const SystematicOptions so = innet_opts(sp::mpi::Backend::kRdma, 2);
  for (const std::vector<std::uint8_t>& decisions :
       {std::vector<std::uint8_t>{}, std::vector<std::uint8_t>{1},
        std::vector<std::uint8_t>{1, 0, 1, 1}}) {
    const SystematicRunResult a = systematic_replay(so, decisions);
    const SystematicRunResult b = systematic_replay(so, decisions);
    ASSERT_TRUE(a.completed) << a.error;
    EXPECT_TRUE(a.violations.empty()) << a.violations[0];
    EXPECT_EQ(a.outcome_digest, b.outcome_digest);
    EXPECT_EQ(a.invariant_digest, systematic_expected_invariant(2, 1, 24));
  }
}

TEST(Systematic, SleepSetPruningIsNonRedundant) {
  // With canonical trace digests enabled, no two executed interleavings may
  // reduce to the same canonical order — sleep sets must prune *exactly* the
  // equivalent reorderings, never execute one twice.
  for (const auto backend : {sp::mpi::Backend::kNativePipes, sp::mpi::Backend::kLapiEnhanced}) {
    SystematicOptions so = base_opts(backend, 2);
    so.canonical_check = true;
    const SystematicReport rep = systematic_explore(so);
    ASSERT_TRUE(rep.complete);
    EXPECT_EQ(rep.duplicate_traces, 0) << static_cast<int>(backend);
  }
  SystematicOptions so3 = base_opts(sp::mpi::Backend::kNativePipes, 3);
  so3.canonical_check = true;
  const SystematicReport rep3 = systematic_explore(so3);
  ASSERT_TRUE(rep3.complete);
  EXPECT_EQ(rep3.duplicate_traces, 0);
}

TEST(Systematic, ReplayIsDeterministic) {
  const SystematicOptions so = base_opts(sp::mpi::Backend::kLapiEnhanced, 3);
  const std::vector<std::uint8_t> decisions{1, 0, 1};
  const SystematicRunResult a = systematic_replay(so, decisions);
  const SystematicRunResult b = systematic_replay(so, decisions);
  ASSERT_TRUE(a.completed) << a.error;
  EXPECT_TRUE(a.violations.empty());
  EXPECT_EQ(a.outcome_digest, b.outcome_digest);
  EXPECT_EQ(a.invariant_digest, b.invariant_digest);
  EXPECT_EQ(a.choice_points, b.choice_points);
}

TEST(Systematic, AnalyticInvariantMatchesExecution) {
  // The schedule-invariant is computed without running any machine; every
  // actual execution must reproduce it bit-exactly.
  for (int ranks : {2, 3}) {
    const SystematicRunResult run =
        systematic_replay(base_opts(sp::mpi::Backend::kNativePipes, ranks), {});
    ASSERT_TRUE(run.completed) << run.error;
    EXPECT_EQ(run.invariant_digest, systematic_expected_invariant(ranks, 1, 24)) << ranks;
  }
}

TEST(Systematic, RandomSchedulesFallInsideEnumeratedOutcomes) {
  // Cross-check between the sampling and enumerating modes: arbitrary
  // decision strings (indices past the recorded frontier take the canonical
  // branch) must land on outcomes the complete enumeration already covers,
  // and must always satisfy the analytic invariant. With the complete 2-rank
  // certificate reporting exactly one distinct outcome, every random replay
  // must reproduce that single outcome digest.
  const SystematicOptions so = base_opts(sp::mpi::Backend::kNativePipes, 2);
  const SystematicRunResult canonical = systematic_replay(so, {});
  ASSERT_TRUE(canonical.completed) << canonical.error;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::uint8_t> decisions;
    for (int d = 0; d < 6; ++d) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      // Keep indices small so most stay in range; an in-range forced index
      // is always honored, a past-the-end position falls back to canonical.
      decisions.push_back(static_cast<std::uint8_t>((lcg >> 60) & 1));
    }
    const SystematicRunResult run = systematic_replay(so, decisions);
    ASSERT_TRUE(run.completed) << run.error;
    EXPECT_TRUE(run.violations.empty());
    EXPECT_EQ(run.invariant_digest, kInvariant2Rank);
    EXPECT_EQ(run.outcome_digest, canonical.outcome_digest) << "trial " << trial;
  }
}

TEST(Systematic, BudgetBoundsAreRespected) {
  // max_runs is a hard ceiling; an exhausted budget voids completeness
  // without crashing or mis-counting.
  SystematicOptions so = base_opts(sp::mpi::Backend::kNativePipes, 3);
  so.max_runs = 20;
  const SystematicReport rep = systematic_explore(so);
  EXPECT_FALSE(rep.complete);
  EXPECT_LE(rep.runs, 20);
  EXPECT_GT(rep.interleavings, 0);
  EXPECT_TRUE(rep.mismatches.empty());

  SystematicOptions capped = base_opts(sp::mpi::Backend::kNativePipes, 2);
  capped.max_interleavings = 2;
  const SystematicReport rep2 = systematic_explore(capped);
  EXPECT_FALSE(rep2.complete);
  EXPECT_EQ(rep2.interleavings, 2);
}

TEST(Systematic, RendezvousSoakStaysConformant) {
  // Above the eager limit the schedule space explodes (per-packet decision
  // points), so rendezvous runs as a budget-bounded soak rather than an
  // exhaustive certificate: no mismatch and a single distinct outcome within
  // the budget, completeness not claimed.
  SystematicOptions so = base_opts(sp::mpi::Backend::kLapiEnhanced, 2);
  so.msg_bytes = 8192;
  so.max_runs = sp::test::soak_mode() ? 5000 : 400;
  const SystematicReport rep = systematic_explore(so);
  EXPECT_TRUE(rep.mismatches.empty());
  EXPECT_GT(rep.interleavings, 0);
  EXPECT_EQ(rep.distinct_outcomes, 1u);
  EXPECT_EQ(rep.invariant_digest, systematic_expected_invariant(2, 1, 8192));
}

}  // namespace
