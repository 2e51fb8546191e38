#include "sim/explorer.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <limits>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "mpci/channel.hpp"
#include "mpi/coll.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"

namespace sp::sim {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] constexpr std::uint64_t fnv(std::uint64_t h, std::uint64_t v) noexcept {
  // Word-at-a-time FNV-1a variant: enough mixing for equality digests.
  return (h ^ v) * kFnvPrime;
}

/// One message of the conformance soup, derived identically on every rank.
struct SoupMsg {
  int src = 0, dst = 0, tag = 0;
  std::uint32_t len = 0;
};

/// The deterministic mixed eager/rendezvous schedule for a perturbation.
[[nodiscard]] std::vector<SoupMsg> build_schedule(const Perturbation& p) {
  Pcg32 g(p.workload_seed, /*stream=*/0x5c4edc1eULL);
  std::vector<SoupMsg> schedule;
  schedule.reserve(static_cast<std::size_t>(p.nodes) *
                   static_cast<std::size_t>(p.msgs_per_rank));
  for (int s = 0; s < p.nodes; ++s) {
    for (int k = 0; k < p.msgs_per_rank; ++k) {
      SoupMsg m;
      m.src = s;
      m.dst = static_cast<int>(g.next_below(static_cast<std::uint32_t>(p.nodes)));
      m.tag = static_cast<int>(g.next_below(3));
      // Mix of eager (<= 4096) and rendezvous sizes.
      const std::uint32_t cls = g.next_below(4);
      m.len = cls == 0   ? 1 + g.next_below(64)
              : cls == 1 ? 64 + g.next_below(2048)
              : cls == 2 ? 2048 + g.next_below(6144)
                         : 8192 + g.next_below(24576);
      schedule.push_back(m);
    }
  }
  return schedule;
}

/// Payload byte `i` of schedule entry `idx` — both sides compute it.
[[nodiscard]] constexpr std::uint8_t payload_byte(const SoupMsg& m, int idx, std::size_t i) {
  return static_cast<std::uint8_t>(m.src * 7 + m.dst * 13 + m.tag * 3 + idx * 31 +
                                   static_cast<int>(i));
}

constexpr int kWildcardTag = 77;

/// Per-rank observables collected on the rank fiber during the run.
struct RankObs {
  std::uint64_t payload = kFnvBasis;
  std::uint64_t status = kFnvBasis;
  std::uint64_t wildcard = 0;  ///< Commutative (summed) fold.
  std::uint64_t coll = kFnvBasis;
  std::uint64_t checksum = 0;
  bool payload_ok = true;
  bool coll_ok = true;
};

void conformance_workload(const Perturbation& p, const std::vector<SoupMsg>& schedule,
                          mpi::Mpi& mpi, std::vector<RankObs>& obs) {
  using mpi::Datatype;
  using mpi::Request;
  using mpi::Status;
  auto& w = mpi.world();
  const int me = w.rank();
  RankObs& o = obs[static_cast<std::size_t>(me)];
  if ((p.flags & Perturbation::kFlagInterruptMode) != 0) mpi.set_interrupt_mode(true);

  // Phase A: message soup. Receives are posted in global schedule order,
  // which per (src, tag) is exactly send order — the posted-recv sequence is
  // therefore channel-invariant and so are the folds below.
  std::vector<Request> recvs;
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> rbufs;
  std::vector<int> ridx;
  for (int i = 0; i < static_cast<int>(schedule.size()); ++i) {
    const SoupMsg& m = schedule[static_cast<std::size_t>(i)];
    if (m.dst != me) continue;
    rbufs.push_back(std::make_unique<std::vector<std::uint8_t>>(m.len, 0));
    recvs.push_back(mpi.irecv(rbufs.back()->data(), m.len, Datatype::kByte, m.src, m.tag, w));
    ridx.push_back(i);
  }
  std::vector<Request> sends;
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> sbufs;
  for (int i = 0; i < static_cast<int>(schedule.size()); ++i) {
    const SoupMsg& m = schedule[static_cast<std::size_t>(i)];
    if (m.src != me) continue;
    auto buf = std::make_unique<std::vector<std::uint8_t>>(m.len);
    for (std::size_t b = 0; b < buf->size(); ++b) (*buf)[b] = payload_byte(m, i, b);
    sbufs.push_back(std::move(buf));
    sends.push_back(mpi.isend(sbufs.back()->data(), m.len, Datatype::kByte, m.dst, m.tag, w));
  }
  std::vector<Status> rsts(recvs.size());
  mpi.waitall(recvs.data(), recvs.size(), rsts.data());
  mpi.waitall(sends.data(), sends.size());

  for (std::size_t k = 0; k < ridx.size(); ++k) {
    const SoupMsg& m = schedule[static_cast<std::size_t>(ridx[k])];
    const Status& st = rsts[k];
    o.status = fnv(o.status, static_cast<std::uint64_t>(st.source));
    o.status = fnv(o.status, static_cast<std::uint64_t>(st.tag));
    o.status = fnv(o.status, st.len);
    for (std::size_t b = 0; b < rbufs[k]->size(); ++b) {
      const std::uint8_t got = (*rbufs[k])[b];
      if (got != payload_byte(m, ridx[k], b)) o.payload_ok = false;
      o.payload = fnv(o.payload, got);
    }
  }

  // Phase B: wildcard receives. Arrival order across sources is legitimately
  // channel-dependent, so fold order-insensitively (commutative sum).
  // A wildcard recv matches whichever tag-77 message arrives next, so every
  // buffer must have capacity for the largest sender; verify Status::len bytes.
  std::vector<Request> wrecvs;
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> wbufs;
  const std::size_t wcap = 32 + static_cast<std::size_t>(p.nodes);
  for (int s = 0; s < p.nodes; ++s) {
    if (s == me) continue;
    wbufs.push_back(std::make_unique<std::vector<std::uint8_t>>(wcap, 0));
    wrecvs.push_back(
        mpi.irecv(wbufs.back()->data(), wcap, Datatype::kByte, mpi::kAnySource, kWildcardTag, w));
  }
  std::vector<Request> wsends;
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> wsbufs;
  for (int d = 0; d < p.nodes; ++d) {
    if (d == me) continue;
    const std::size_t len = 32 + static_cast<std::size_t>(me);
    auto buf = std::make_unique<std::vector<std::uint8_t>>(len);
    for (std::size_t b = 0; b < len; ++b) {
      (*buf)[b] = static_cast<std::uint8_t>(me * 29 + d * 11 + static_cast<int>(b));
    }
    wsbufs.push_back(std::move(buf));
    wsends.push_back(
        mpi.isend(wsbufs.back()->data(), len, Datatype::kByte, d, kWildcardTag, w));
  }
  std::vector<Status> wsts(wrecvs.size());
  mpi.waitall(wrecvs.data(), wrecvs.size(), wsts.data());
  mpi.waitall(wsends.data(), wsends.size());
  for (std::size_t k = 0; k < wrecvs.size(); ++k) {
    const int src = wsts[k].source;
    const std::size_t got = wsts[k].len;
    std::uint64_t h = kFnvBasis;
    h = fnv(h, static_cast<std::uint64_t>(src));
    h = fnv(h, got);
    if (got != 32 + static_cast<std::size_t>(src) || got > wcap) o.payload_ok = false;
    for (std::size_t b = 0; b < got && b < wcap; ++b) {
      const std::uint8_t byte = (*wbufs[k])[b];
      h = fnv(h, byte);
      if (byte != static_cast<std::uint8_t>(src * 29 + me * 11 + static_cast<int>(b))) {
        o.payload_ok = false;
      }
    }
    o.wildcard += h;  // commutative
  }

  // Phase C: collectives under the vector's algorithm pins. Every input is a
  // pure function of (rank, workload_seed), so each rank also computes the
  // exact wrapping-integer sequential reference locally and verifies against
  // it in place — no extra machine runs. The folded results feed the
  // conformance digest: algorithm choice must never change what the user
  // sees, and Pipes and LAPI must agree bit-for-bit.
  {
    using mpi::Op;
    const int n = p.nodes;
    Pcg32 cg(p.workload_seed, /*stream=*/0xc0117ULL);
    // Sizes straddle the engine's cutovers (small stays on the latency
    // algorithms; large crosses the 16 KiB Rabenseifner threshold) and are
    // granule-4 so Op::kMat2x2 is always legal.
    const std::size_t small = 4 * (1 + cg.next_below(4));
    const std::size_t large = 4 * (256 + cg.next_below(512));
    const int root = static_cast<int>(cg.next_below(static_cast<std::uint32_t>(n)));
    const auto val = [&](int r, std::size_t i) {
      return (static_cast<std::uint64_t>(r) + 1) * 0x9e3779b97f4a7c15ULL + i * 1000003 +
             p.workload_seed;
    };
    const auto fold = [&](const std::uint64_t* v, std::size_t cnt) {
      for (std::size_t i = 0; i < cnt; ++i) o.coll = fnv(o.coll, v[i]);
    };
    std::vector<std::uint64_t> in(large), out(large), ref(large);

    // Wrapping-sum allreduce at the large size.
    for (std::size_t i = 0; i < large; ++i) {
      in[i] = val(me, i);
      ref[i] = 0;
      for (int r = 0; r < n; ++r) ref[i] += val(r, i);
    }
    mpi.allreduce(in.data(), out.data(), large, Datatype::kLong, Op::kSum, w);
    if (std::memcmp(out.data(), ref.data(), large * 8) != 0) o.coll_ok = false;
    fold(out.data(), large);

    // Non-commutative 2x2 matrix product: whichever allreduce algorithm the
    // vector pinned must preserve rank order exactly.
    std::vector<std::uint64_t> mat(small), mref(small), tmp(small);
    for (std::size_t i = 0; i < small; ++i) mat[i] = val(me, i) | 1;
    for (std::size_t i = 0; i < small; ++i) mref[i] = val(0, i) | 1;
    for (int r = 1; r < n; ++r) {
      for (std::size_t i = 0; i < small; ++i) tmp[i] = val(r, i) | 1;
      mpi::reduce_apply(Op::kMat2x2, Datatype::kLong, tmp.data(), mref.data(), small);
    }
    mpi.allreduce(mat.data(), out.data(), small, Datatype::kLong, Op::kMat2x2, w);
    if (std::memcmp(out.data(), mref.data(), small * 8) != 0) o.coll_ok = false;
    fold(out.data(), small);

    // Inclusive prefix sum; each rank checks its own prefix.
    for (std::size_t i = 0; i < small; ++i) in[i] = val(me, i);
    mpi.scan(in.data(), out.data(), small, Datatype::kLong, Op::kSum, w);
    for (std::size_t i = 0; i < small; ++i) {
      std::uint64_t want = 0;
      for (int r = 0; r <= me; ++r) want += val(r, i);
      if (out[i] != want) o.coll_ok = false;
    }
    fold(out.data(), small);

    // Large bcast from a seed-chosen root.
    if (me == root) {
      for (std::size_t i = 0; i < large; ++i) out[i] = val(root, i) * 3 + 1;
    } else {
      std::fill(out.begin(), out.end(), 0);
    }
    mpi.bcast(out.data(), large, Datatype::kLong, root, w);
    for (std::size_t i = 0; i < large; ++i) {
      if (out[i] != val(root, i) * 3 + 1) o.coll_ok = false;
    }
    fold(out.data(), large);

    // Alltoall with per-(src,dst) payloads.
    std::vector<std::uint64_t> a2a_in(small * static_cast<std::size_t>(n));
    std::vector<std::uint64_t> a2a_out(small * static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      for (std::size_t i = 0; i < small; ++i) {
        a2a_in[static_cast<std::size_t>(d) * small + i] =
            val(me, i + static_cast<std::size_t>(d) * 131);
      }
    }
    mpi.alltoall(a2a_in.data(), small * 8, a2a_out.data(), Datatype::kByte, w);
    for (int s = 0; s < n; ++s) {
      for (std::size_t i = 0; i < small; ++i) {
        if (a2a_out[static_cast<std::size_t>(s) * small + i] !=
            val(s, i + static_cast<std::size_t>(me) * 131)) {
          o.coll_ok = false;
        }
      }
    }
    fold(a2a_out.data(), a2a_out.size());

    // Reduce-scatter-block: each rank checks its own sum block.
    std::vector<std::uint64_t> rs_in(small * static_cast<std::size_t>(n));
    std::vector<std::uint64_t> rs_out(small);
    for (std::size_t i = 0; i < rs_in.size(); ++i) rs_in[i] = val(me, i);
    mpi.reduce_scatter_block(rs_in.data(), rs_out.data(), small, Datatype::kLong, Op::kSum, w);
    for (std::size_t i = 0; i < small; ++i) {
      std::uint64_t want = 0;
      for (int r = 0; r < n; ++r) want += val(r, static_cast<std::size_t>(me) * small + i);
      if (rs_out[i] != want) o.coll_ok = false;
    }
    fold(rs_out.data(), small);
  }

  // Phase D: a reduction over the per-rank folds — every rank must agree on
  // the total, and the total must match across channels.
  std::uint64_t local = o.payload ^ o.wildcard ^ o.coll;
  std::uint64_t total = 0;
  mpi.allreduce(&local, &total, 1, Datatype::kLong, mpi::Op::kSum, w);
  o.checksum = total;
  mpi.barrier(w);
}

/// Fold the per-node match logs into a channel-invariant digest: group by
/// (ctx, src, tag), order each group by envelope seq (the matching order MPI
/// non-overtaking mandates), and fold groups in sorted-key order.
///
/// Two channel-specific details are deliberately excluded. Collective-internal
/// matches (tags >= mpi::kCollTagBase) are dropped: NIC offload completes
/// collectives without any channel messages, so their envelopes are a
/// scheduling artifact of the host algorithms, not an MPI observable
/// (collective *results* are covered by coll_digest / checksum). And raw seq
/// values are folded as within-group positions, not values: offloaded
/// collectives no longer advance the per-peer seq counters, shifting the
/// absolute seqs of later user messages while leaving their relative order —
/// the thing non-overtaking constrains — intact.
[[nodiscard]] std::uint64_t fold_match_logs(
    const std::vector<std::vector<mpci::Channel::MatchRecord>>& logs) {
  std::uint64_t total = kFnvBasis;
  for (std::size_t r = 0; r < logs.size(); ++r) {
    std::map<std::tuple<std::uint16_t, std::uint16_t, std::int32_t>,
             std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        groups;
    for (const auto& rec : logs[r]) {
      if (rec.tag >= mpi::kCollTagBase) continue;
      groups[{rec.ctx, rec.src, rec.tag}].emplace_back(rec.seq, rec.len);
    }
    total = fnv(total, r);
    for (auto& [key, v] : groups) {
      std::sort(v.begin(), v.end());
      total = fnv(total, std::get<0>(key));
      total = fnv(total, std::get<1>(key));
      total = fnv(total, static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::get<2>(key))));
      for (std::size_t i = 0; i < v.size(); ++i) {
        total = fnv(total, i);
        total = fnv(total, v[i].second);
      }
    }
  }
  return total;
}

/// The transport the backend actually exercises; the other must stay silent.
struct TransportCounters {
  std::int64_t retransmits = 0;
  std::int64_t duplicates = 0;
  std::int64_t acks = 0;
  std::int64_t reacks_coalesced = 0;
};

[[nodiscard]] TransportCounters pipes_transport(const mpi::Machine::Stats& s) {
  return {s.pipes_retransmits, s.pipes_duplicate_deliveries, s.pipes_acks,
          s.pipes_reacks_coalesced};
}
[[nodiscard]] TransportCounters lapi_transport(const mpi::Machine::Stats& s) {
  return {s.lapi_retransmits, s.lapi_duplicate_deliveries, s.lapi_acks,
          s.lapi_reacks_coalesced};
}
[[nodiscard]] TransportCounters rdma_transport(const mpi::Machine::Stats& s) {
  return {s.rdma_retransmits, s.rdma_duplicate_deliveries, s.rdma_acks,
          s.rdma_reacks_coalesced};
}

[[nodiscard]] TransportCounters active_transport(mpi::Backend b, const mpi::Machine::Stats& s) {
  if (b == mpi::Backend::kNativePipes) return pipes_transport(s);
  if (b == mpi::Backend::kRdma) return rdma_transport(s);
  return lapi_transport(s);
}

/// Sum of the transports the backend does NOT use (all must stay silent).
[[nodiscard]] TransportCounters idle_transport(mpi::Backend b, const mpi::Machine::Stats& s) {
  TransportCounters t;
  auto add = [&t](const TransportCounters& o) {
    t.retransmits += o.retransmits;
    t.duplicates += o.duplicates;
    t.acks += o.acks;
    t.reacks_coalesced += o.reacks_coalesced;
  };
  if (b != mpi::Backend::kNativePipes) add(pipes_transport(s));
  if (b == mpi::Backend::kNativePipes || b == mpi::Backend::kRdma) add(lapi_transport(s));
  if (b != mpi::Backend::kRdma) add(rdma_transport(s));
  return t;
}

void check_invariants(mpi::Backend backend, const mpi::Machine& machine,
                      Explorer::RunOutcome& out) {
  auto violate = [&](const std::string& what) { out.invariant_violations.push_back(what); };
  std::ostringstream os;
  const mpi::Machine::Stats& s = out.stats;
  const TransportCounters act = active_transport(backend, s);
  const TransportCounters idle = idle_transport(backend, s);

  // The transport the backend does not use must carry no traffic at all.
  if (idle.retransmits != 0 || idle.duplicates != 0 || idle.acks != 0) {
    os.str("");
    os << "idle transport shows traffic: retx=" << idle.retransmits
       << " dups=" << idle.duplicates << " acks=" << idle.acks;
    violate(os.str());
  }

  // Retransmit runaway bound, derived from the protocol: per pair, a timeout
  // expiry resends at most one window and expiries are >= one timeout apart,
  // so legitimate timeout-driven retransmits (acks can stall behind bulk data
  // for >2 ms while a receiver is CPU-busy copying) never exceed
  // window * pairs * ceil(elapsed / timeout). Injected faults add go-back-N
  // trains on top. Anything past the sum is a retransmit-timer bug.
  const MachineConfig& cfg = machine.config();
  const std::int64_t faults = s.fabric_dropped + s.fabric_duplicated;
  const std::int64_t pairs =
      static_cast<std::int64_t>(machine.num_tasks()) * machine.num_tasks();
  const std::int64_t windows =
      1 + static_cast<std::int64_t>(out.elapsed / cfg.retransmit_timeout_ns);
  const std::int64_t timeout_bound = windows * cfg.sliding_window_packets * pairs;
  if (act.retransmits > (faults + 1) * 64 + timeout_bound) {
    os.str("");
    os << "retransmit runaway: " << act.retransmits << " retx for " << faults
       << " injected faults (timeout budget " << timeout_bound << ", elapsed_ns="
       << out.elapsed << ")";
    violate(os.str());
  }

  // The PR 2 re-ack coalescing invariant: duplicate deliveries arrive mostly
  // in go-back-N bursts, so most of them must fold into delayed flushes (one
  // immediate re-ack per ack_delay window; measured healthy ratio is ~25-30%
  // immediate). An ack storm (the re-introduced bug) answers every duplicate
  // immediately — immediate == dups — so a 50% threshold separates the two
  // with margin on both sides.
  if (act.duplicates >= 48) {
    const std::int64_t immediate = act.duplicates - act.reacks_coalesced;
    if (immediate > act.duplicates / 2 + 16) {
      os.str("");
      os << "re-ack storm: " << immediate << " immediate re-acks for " << act.duplicates
         << " duplicate deliveries (" << act.reacks_coalesced << " coalesced)";
      violate(os.str());
    }
  }

  // Telemetry ring accounting: overwrite-oldest must retain exactly
  // min(emitted, capacity) records and count the rest as dropped.
  if (const Telemetry* t = machine.telemetry()) {
    const std::uint64_t cap = t->ring_capacity();
    const std::uint64_t retained = t->ring_bytes_in_use() / sizeof(TraceRecord);
    const std::uint64_t expect_retained = std::min<std::uint64_t>(t->records_emitted(), cap);
    if (retained != expect_retained ||
        t->records_dropped() != t->records_emitted() - retained) {
      os.str("");
      os << "telemetry ring accounting broken: emitted=" << t->records_emitted()
         << " retained=" << retained << " dropped=" << t->records_dropped()
         << " cap=" << cap;
      violate(os.str());
    }
  }
}

constexpr const char* kHexDigits = "0123456789abcdef";

/// One repro-token field. Token versions are append-only: an "xN" token is
/// the tag followed by every field whose `since` is <= N, in table order;
/// fields a version predates keep their Perturbation defaults.
struct TokenField {
  int since;         ///< Token version that introduced the field.
  bool decisions;    ///< "s" + one hex digit per decision (Perturbation::sched).
  std::uint64_t lo;  ///< Inclusive value range (for decisions, hi is the
  std::uint64_t hi;  ///< maximum digit count).
  std::uint64_t (*get)(const Perturbation&);
  void (*set)(Perturbation&, std::uint64_t);
};

template <auto M>
using FieldType = std::remove_cvref_t<decltype(std::declval<Perturbation&>().*M)>;
template <auto M>
using WireType = std::make_unsigned_t<FieldType<M>>;

/// A lowercase-hex field; the default range is the member's full width.
template <auto M>
constexpr TokenField hex(int since, std::uint64_t lo = 0,
                         std::uint64_t hi = std::numeric_limits<WireType<M>>::max()) {
  return {since, false, lo, hi,
          [](const Perturbation& p) { return static_cast<std::uint64_t>(WireType<M>(p.*M)); },
          [](Perturbation& p, std::uint64_t v) { p.*M = static_cast<FieldType<M>>(v); }};
}

constexpr TokenField kTokenFields[] = {
    hex<&Perturbation::seed>(2),
    hex<&Perturbation::nodes>(2, 2, 64),
    hex<&Perturbation::msgs_per_rank>(2, 1, 4096),
    hex<&Perturbation::workload_seed>(2),
    hex<&Perturbation::fabric_seed>(2),
    hex<&Perturbation::drop_ppm>(2, 0, 500'000),  // > 50% loss is not survivable
    hex<&Perturbation::dup_ppm>(2, 0, 500'000),
    hex<&Perturbation::route_bias_ppm>(2, 0, 1'000'000),
    hex<&Perturbation::jitter_ns>(2),
    hex<&Perturbation::route_skew_ns>(2),
    hex<&Perturbation::burst>(2, 1, 64),
    hex<&Perturbation::tie_break_salt>(2),
    hex<&Perturbation::flags>(2),
    hex<&Perturbation::coll_algos>(2),  // pin bounds: valid_vector
    hex<&Perturbation::topology>(3, 0, kTopologyKinds - 1),
    hex<&Perturbation::channels>(4, 0, 3),
    hex<&Perturbation::sched_window_ns>(5),
    hex<&Perturbation::sys_msg_bytes>(5, 1, 65536),
    {5, true, 0, 4096, nullptr, nullptr},  // an unshrunk runaway schedule is corrupt
    hex<&Perturbation::coll_ext>(6),       // pin bounds: valid_vector
};

/// Strict lowercase hex, 1-16 digits. strtoull alone would silently accept
/// leading whitespace, '+'/'-', "0x" prefixes and wrap values past 16
/// digits — all of which turn a corrupted token into a plausible-looking
/// different vector instead of a parse error.
[[nodiscard]] bool parse_hex(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 16 || s.find_first_not_of(kHexDigits) != std::string::npos) {
    return false;
  }
  out = std::strtoull(s.c_str(), nullptr, 16);
  return true;
}

/// The cross-field rules of a token of `version`; per-field ranges are in
/// kTokenFields.
[[nodiscard]] bool valid_vector(const Perturbation& p, int version) {
  // Version/flag coherence: x5 is the systematic version, x6 serves both
  // modes, and x2-x4 predate the flag.
  const bool sys = (p.flags & Perturbation::kFlagSystematic) != 0;
  if (sys ? version < 5 : version == 5) return false;
  // Each mode's unused fields must be at their defaults, so a replay never
  // silently ignores a field of its token.
  const Perturbation d;
  Perturbation neutral = p;
  if (sys) {
    neutral.drop_ppm = d.drop_ppm;
    neutral.dup_ppm = d.dup_ppm;
    neutral.route_bias_ppm = d.route_bias_ppm;
    neutral.jitter_ns = d.jitter_ns;
    neutral.route_skew_ns = d.route_skew_ns;
    neutral.burst = d.burst;
    neutral.tie_break_salt = d.tie_break_salt;
    neutral.channels = d.channels;
    neutral.flags &= ~(Perturbation::kFlagReackStormBug | Perturbation::kFlagInterruptMode);
    // The backend nibble must name a real backend; systematic workloads are
    // bounded (k rides in one byte).
    const std::uint32_t backend = (p.flags & Perturbation::kBackendMask) >>
                                  Perturbation::kBackendShift;
    if (backend > static_cast<std::uint32_t>(mpi::Backend::kRdma) || p.msgs_per_rank > 255) {
      return false;
    }
  } else {
    neutral.sched_window_ns = d.sched_window_ns;
    neutral.sys_msg_bytes = d.sys_msg_bytes;
    neutral.sched = d.sched;
  }
  if (!(neutral == p)) return false;
  // Pins: apply() then capture() must give them back (no bits outside the
  // six nibbles), and each must name an algorithm. Bcast/allreduce have
  // three host algorithms, NIC offload (4) and in-network combining (5);
  // alltoall/reduce_scatter/scan have two; barrier has dissemination (1),
  // NIC (4) and in-network (5).
  const MachineConfig c = p.apply(MachineConfig{});
  Perturbation back = p;
  back.capture(c);
  const int bar = c.coll_barrier_algo;
  return back == p && c.coll_bcast_algo <= 5 && c.coll_allreduce_algo <= 5 &&
         c.coll_alltoall_algo <= 2 && c.coll_reduce_scatter_algo <= 2 &&
         c.coll_scan_algo <= 2 && bar != 2 && bar != 3 && bar <= 5;
}

}  // namespace

MachineConfig Perturbation::apply(MachineConfig cfg) const {
  cfg.packet_drop_rate = static_cast<double>(drop_ppm) * 1e-6;
  cfg.packet_dup_rate = static_cast<double>(dup_ppm) * 1e-6;
  cfg.route_bias = static_cast<double>(route_bias_ppm) * 1e-6;
  cfg.packet_jitter_ns = jitter_ns;
  cfg.route_skew_ns = route_skew_ns;
  cfg.burst_drop_len = burst;
  cfg.fabric_seed = fabric_seed;
  cfg.event_tie_break_salt = tie_break_salt;
  cfg.debug_disable_reack_coalescing = (flags & kFlagReackStormBug) != 0;
  // Collective algorithm pins, one nibble per primitive (0 keeps auto).
  cfg.coll_bcast_algo = static_cast<int>(coll_algos & 0xF);
  cfg.coll_allreduce_algo = static_cast<int>((coll_algos >> 4) & 0xF);
  cfg.coll_alltoall_algo = static_cast<int>((coll_algos >> 8) & 0xF);
  cfg.coll_reduce_scatter_algo = static_cast<int>((coll_algos >> 12) & 0xF);
  cfg.coll_scan_algo = static_cast<int>((coll_algos >> 16) & 0xF);
  cfg.coll_barrier_algo = static_cast<int>(coll_ext & 0xF);
  cfg.topology = static_cast<TopologyKind>(topology);
  // Lossy runs use the soak timeout so go-back-N recovery happens promptly.
  if (drop_ppm > 0) cfg.retransmit_timeout_ns = 400'000;
  // Telemetry feeds the determinism digest, the ring invariant and the
  // failing-run trace export.
  cfg.telemetry_enabled = true;
  return cfg;
}

void Perturbation::capture(const MachineConfig& cfg) {
  const auto pin = [](int algo) { return static_cast<std::uint32_t>(algo) & 0xF; };
  fabric_seed = cfg.fabric_seed;
  topology = static_cast<std::uint32_t>(cfg.topology);
  coll_algos = pin(cfg.coll_bcast_algo) | pin(cfg.coll_allreduce_algo) << 4 |
               pin(cfg.coll_alltoall_algo) << 8 | pin(cfg.coll_reduce_scatter_algo) << 12 |
               pin(cfg.coll_scan_algo) << 16;
  coll_ext = pin(cfg.coll_barrier_algo);
}

std::string Perturbation::token() const {
  // The smallest version that holds the vector; never x2/x3, so every
  // minted token carries the topology and channel fields.
  const int version = coll_ext != 0 ? 6 : (flags & kFlagSystematic) != 0 ? 5 : 4;
  std::string t = "x" + std::to_string(version);
  for (const TokenField& f : kTokenFields) {
    if (f.since > version) break;
    if (f.decisions) {
      t += "-s" + sched;
      continue;
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "-%" PRIx64, f.get(*this));
    t += buf;
  }
  return t;
}

std::optional<Perturbation> Perturbation::parse(const std::string& token) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : token) {
    if (c == '-') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(cur);
  const std::string& tag = parts[0];
  if (tag.size() != 2 || tag[0] != 'x' || tag[1] < '2' || tag[1] > '6') return std::nullopt;
  const int version = tag[1] - '0';
  Perturbation p;
  std::size_t i = 1;
  for (const TokenField& f : kTokenFields) {
    if (f.since > version) break;
    if (i == parts.size()) return std::nullopt;
    const std::string& s = parts[i++];
    if (f.decisions) {
      if (s.empty() || s[0] != 's' || s.size() - 1 > f.hi ||
          s.find_first_not_of(kHexDigits, 1) != std::string::npos) {
        return std::nullopt;
      }
      p.sched = s.substr(1);
      continue;
    }
    std::uint64_t v = 0;
    if (!parse_hex(s, v) || v < f.lo || v > f.hi) return std::nullopt;
    f.set(p, v);
  }
  if (i != parts.size() || !valid_vector(p, version)) return std::nullopt;
  return p;
}

Perturbation Explorer::perturbation_for(std::uint64_t seed) const {
  Pcg32 g(seed, /*stream=*/0xe17015ULL);
  auto u64 = [&g] { return (static_cast<std::uint64_t>(g.next()) << 32) | g.next(); };

  Perturbation p;
  p.seed = seed;
  p.nodes = opts_.nodes;
  p.msgs_per_rank = opts_.msgs_per_rank;
  // The fabric seed, topology and collective pins are drawn into a config
  // and read back with capture(), the inverse of apply().
  MachineConfig drawn;
  p.workload_seed = u64();
  drawn.fabric_seed = u64();

  // Fault profile classes keep a quarter of the space clean-ish so schedule
  // perturbations (salt/bias/jitter) are also explored without loss noise.
  const std::uint32_t profile = g.next_below(4);
  if (profile == 1 || profile == 3) {
    p.drop_ppm = 2'000 + g.next_below(38'000);  // 0.2% .. 4%
    p.burst = 1 + static_cast<int>(g.next_below(3));
  }
  if (profile == 2 || profile == 3) {
    p.dup_ppm = 2'000 + g.next_below(28'000);  // 0.2% .. 3%
  }
  if (g.next_below(2) != 0) p.jitter_ns = static_cast<TimeNs>(g.next_below(120'000));
  if (g.next_below(2) != 0) p.route_bias_ppm = 100'000 + g.next_below(700'000);
  if (g.next_below(2) != 0) p.route_skew_ns = static_cast<TimeNs>(g.next_below(4'000));
  if (g.next_below(2) != 0) p.tie_break_salt = u64() | 1;  // never 0 when on
  if (g.next_below(4) == 0) p.flags |= Perturbation::kFlagInterruptMode;
  // Half the space pins collective algorithms (0 = auto within each draw
  // too) so the sweep differentials every algorithm pairing against both
  // channels and the sequential references. Bcast/allreduce draw from 5
  // values: 4 = NIC offload, which host-only channels resolve to the host
  // auto table (the pin must stay conformant on every channel either way).
  if (g.next_below(2) != 0) {
    drawn.coll_bcast_algo = static_cast<int>(g.next_below(5));
    drawn.coll_allreduce_algo = static_cast<int>(g.next_below(5));
    drawn.coll_alltoall_algo = static_cast<int>(g.next_below(3));
    drawn.coll_reduce_scatter_algo = static_cast<int>(g.next_below(3));
    drawn.coll_scan_algo = static_cast<int>(g.next_below(3));
  }
  // Half the space runs on a non-SP fabric (drawn last so older fields stay
  // seed-stable); topology must never change MPI results, only schedules.
  // A non-default base-config topology (spsim explore --topology) becomes the
  // other half's default, so nightly sweeps can soak one fabric directly.
  drawn.topology = opts_.base_config.topology;
  if (g.next_below(2) != 0) {
    drawn.topology =
        static_cast<TopologyKind>(1 + g.next_below(static_cast<std::uint32_t>(kTopologyKinds - 1)));
  }
  // Half the space brings the RDMA channel into the differential set (drawn
  // after topology so earlier fields stay seed-stable): evenly split between
  // pipes<->rdma, lapi<->rdma and the full trio.
  if (g.next_below(2) != 0) p.channels = 1 + g.next_below(3);
  // In-network draws, kept last so every earlier field stays seed-stable:
  // when collectives are pinned, an eighth of the space upgrades the bcast
  // and/or allreduce pin to switch combining (5), and a quarter of the whole
  // space pins the barrier algorithm (dissemination 1, NIC 4, in-network 5;
  // there is no host-algorithm choice beyond dissemination).
  if (mpi::coll::any_algo_pinned(drawn)) {
    if (g.next_below(8) == 0) drawn.coll_bcast_algo = 5;
    if (g.next_below(8) == 0) drawn.coll_allreduce_algo = 5;
  }
  if (g.next_below(4) == 0) {
    static constexpr int kBarrierIds[] = {1, 4, 5};
    drawn.coll_barrier_algo = kBarrierIds[g.next_below(3)];
  }
  p.capture(drawn);
  if (opts_.inject_reack_bug) p.flags |= Perturbation::kFlagReackStormBug;
  return p;
}

Explorer::RunOutcome Explorer::run_channel(const Perturbation& p, mpi::Backend backend) const {
  RunOutcome out;
  const MachineConfig cfg = p.apply(opts_.base_config);
  const std::vector<SoupMsg> schedule = build_schedule(p);
  std::vector<std::vector<mpci::Channel::MatchRecord>> logs(
      static_cast<std::size_t>(p.nodes));
  std::vector<RankObs> obs(static_cast<std::size_t>(p.nodes));
  try {
    mpi::Machine m(cfg, p.nodes, backend);
    for (int t = 0; t < p.nodes; ++t) {
      m.channel(t).set_match_log(&logs[static_cast<std::size_t>(t)]);
    }
    m.run([&](mpi::Mpi& mpi) { conformance_workload(p, schedule, mpi, obs); });
    out.completed = true;
    out.stats = m.stats();
    out.elapsed = m.elapsed();
    if (m.telemetry() != nullptr) out.telemetry_digest = m.telemetry()->digest();
    check_invariants(backend, m, out);
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }

  out.payload_digest = kFnvBasis;
  out.status_digest = kFnvBasis;
  out.wildcard_digest = 0;
  out.coll_digest = kFnvBasis;
  bool payload_ok = true;
  bool coll_ok = true;
  for (const RankObs& o : obs) {
    out.payload_digest = fnv(out.payload_digest, o.payload);
    out.status_digest = fnv(out.status_digest, o.status);
    out.wildcard_digest += o.wildcard;
    out.coll_digest = fnv(out.coll_digest, o.coll);
    payload_ok = payload_ok && o.payload_ok;
    coll_ok = coll_ok && o.coll_ok;
  }
  out.checksum = obs.empty() ? 0 : obs[0].checksum;
  for (const RankObs& o : obs) {
    if (o.checksum != out.checksum) {
      out.invariant_violations.push_back("allreduce totals disagree across ranks");
      break;
    }
  }
  if (!payload_ok) out.invariant_violations.push_back("received payload bytes corrupted");
  if (!coll_ok) {
    out.invariant_violations.push_back(
        "collective results diverge from the sequential reference");
  }
  out.match_digest = fold_match_logs(logs);
  std::uint64_t d = kFnvBasis;
  d = fnv(d, out.payload_digest);
  d = fnv(d, out.status_digest);
  d = fnv(d, out.match_digest);
  d = fnv(d, out.wildcard_digest);
  d = fnv(d, out.coll_digest);
  d = fnv(d, out.checksum);
  out.conformance_digest = d;
  return out;
}

std::optional<std::string> Explorer::check(const Perturbation& p) {
  // Systematic vectors replay one enumerated interleaving: conformance is
  // absolute (MPI invariants + the analytic schedule-invariant digest), not
  // differential, so the check costs exactly one machine execution.
  if ((p.flags & Perturbation::kFlagSystematic) != 0) {
    ++runs_;
    return systematic_check(p, opts_.base_config);
  }

  // The channels field picks the differential set; every member must agree
  // with the first on every channel-invariant observable.
  struct Side {
    const char* name;
    mpi::Backend backend;
  };
  std::vector<Side> sides;
  const Side pipes_side{"pipes", mpi::Backend::kNativePipes};
  const Side rdma_side{"rdma", mpi::Backend::kRdma};
  // `spsim explore --backend rdma` points the configured side at the RDMA
  // channel; pairings that need a genuine LAPI side then use Enhanced so no
  // seed degenerates into comparing the RDMA channel with itself.
  const bool lapi_is_rdma = opts_.lapi_backend == mpi::Backend::kRdma;
  const Side cfg_side{lapi_is_rdma ? "rdma" : "lapi", opts_.lapi_backend};
  const Side lapi_side{"lapi",
                       lapi_is_rdma ? mpi::Backend::kLapiEnhanced : opts_.lapi_backend};
  switch (p.channels) {
    case 1: sides = {pipes_side, rdma_side}; break;
    case 2: sides = {lapi_side, rdma_side}; break;
    case 3: sides = {pipes_side, lapi_side, rdma_side}; break;
    default: sides = {pipes_side, cfg_side}; break;
  }

  std::vector<RunOutcome> outs;
  outs.reserve(sides.size());
  for (const Side& s : sides) {
    outs.push_back(run_channel(p, s.backend));
    ++runs_;
  }

  for (std::size_t i = 0; i < sides.size(); ++i) {
    const RunOutcome& o = outs[i];
    if (!o.completed) return std::string(sides[i].name) + " channel run failed: " + o.error;
    if (!o.invariant_violations.empty()) {
      return std::string(sides[i].name) +
             " channel invariant violated: " + o.invariant_violations[0];
    }
  }

  for (std::size_t i = 1; i < sides.size(); ++i) {
    auto diff = [&](const char* what, std::uint64_t a,
                    std::uint64_t b) -> std::optional<std::string> {
      if (a == b) return std::nullopt;
      std::ostringstream os;
      os << "conformance mismatch in " << what << ": " << sides[0].name << "=" << std::hex << a
         << " " << sides[i].name << "=" << b;
      return os.str();
    };
    const RunOutcome& a = outs[0];
    const RunOutcome& b = outs[i];
    if (auto f = diff("payload digest", a.payload_digest, b.payload_digest)) return f;
    if (auto f = diff("status fields", a.status_digest, b.status_digest)) return f;
    if (auto f = diff("match order", a.match_digest, b.match_digest)) return f;
    if (auto f = diff("wildcard fold", a.wildcard_digest, b.wildcard_digest)) return f;
    if (auto f = diff("collective results", a.coll_digest, b.coll_digest)) return f;
    if (auto f = diff("allreduce checksum", a.checksum, b.checksum)) return f;
  }
  return std::nullopt;
}

Perturbation Explorer::shrink(Perturbation p) {
  auto fails = [this](const Perturbation& q) { return check(q).has_value(); };
  // Exact per-candidate cost (2 pair / 3 trio) so shrinking a trio cannot
  // overspend the budget and shrinking a pair doesn't stop a run early.
  auto budget_left = [this](const Perturbation& q) {
    return runs_ + runs_for(q) <= max_runs();
  };

  // Phase 1: ablate knobs to neutral, iterating to a fixpoint — failures
  // often depend on one or two knobs only.
  bool changed = true;
  while (changed) {
    changed = false;
    const auto ablations = [&]() {
      std::vector<Perturbation> c;
      auto with = [&](auto mut) {
        Perturbation q = p;
        mut(q);
        if (!(q == p)) c.push_back(q);
      };
      with([](Perturbation& q) { q.topology = 0; });
      // A trio failure that survives on a pair is a smaller repro; one that
      // survives on the legacy pair doesn't involve the RDMA channel at all.
      with([](Perturbation& q) { q.channels = 0; });
      with([](Perturbation& q) { if (q.channels == 3) q.channels = 1; });
      with([](Perturbation& q) { q.drop_ppm = 0; q.burst = 1; });
      with([](Perturbation& q) { q.dup_ppm = 0; });
      with([](Perturbation& q) { q.jitter_ns = 0; });
      with([](Perturbation& q) { q.route_bias_ppm = 0; });
      with([](Perturbation& q) { q.route_skew_ns = 0; });
      with([](Perturbation& q) { q.tie_break_salt = 0; });
      with([](Perturbation& q) { q.flags &= ~Perturbation::kFlagInterruptMode; });
      with([](Perturbation& q) { q.coll_algos = 0; });
      with([](Perturbation& q) { q.coll_ext = 0; });
      return c;
    }();
    for (const Perturbation& q : ablations) {
      if (!budget_left(q)) continue;
      if (fails(q)) {
        p = q;
        changed = true;
        break;  // re-derive the candidate list from the smaller vector
      }
    }
  }

  // Phase 2: halve surviving magnitudes while the failure persists.
  auto halve = [&](auto get, auto set, std::uint64_t floor) {
    while (true) {
      const std::uint64_t cur = get(p);
      if (cur <= floor) break;
      Perturbation q = p;
      set(q, std::max<std::uint64_t>(floor, cur / 2));
      if (q == p || !budget_left(q) || !fails(q)) break;
      p = q;
    }
  };
  halve([](const Perturbation& q) { return static_cast<std::uint64_t>(q.drop_ppm); },
        [](Perturbation& q, std::uint64_t v) { q.drop_ppm = static_cast<std::uint32_t>(v); }, 0);
  halve([](const Perturbation& q) { return static_cast<std::uint64_t>(q.dup_ppm); },
        [](Perturbation& q, std::uint64_t v) { q.dup_ppm = static_cast<std::uint32_t>(v); }, 0);
  halve([](const Perturbation& q) { return static_cast<std::uint64_t>(q.route_bias_ppm); },
        [](Perturbation& q, std::uint64_t v) { q.route_bias_ppm = static_cast<std::uint32_t>(v); },
        0);
  halve([](const Perturbation& q) { return static_cast<std::uint64_t>(q.jitter_ns); },
        [](Perturbation& q, std::uint64_t v) { q.jitter_ns = static_cast<TimeNs>(v); }, 0);
  halve([](const Perturbation& q) { return static_cast<std::uint64_t>(q.route_skew_ns); },
        [](Perturbation& q, std::uint64_t v) { q.route_skew_ns = static_cast<TimeNs>(v); }, 0);

  // Phase 3: shrink the workload itself (fewer messages, then fewer nodes).
  halve([](const Perturbation& q) { return static_cast<std::uint64_t>(q.msgs_per_rank); },
        [](Perturbation& q, std::uint64_t v) { q.msgs_per_rank = static_cast<int>(v); }, 1);
  halve([](const Perturbation& q) { return static_cast<std::uint64_t>(q.nodes); },
        [](Perturbation& q, std::uint64_t v) { q.nodes = static_cast<int>(v); }, 2);
  return p;
}

Explorer::Report Explorer::explore() {
  Report rep;
  for (int i = 0; i < opts_.seeds; ++i) {
    const std::uint64_t seed = opts_.base_seed + static_cast<std::uint64_t>(i);
    const Perturbation p = perturbation_for(seed);
    // Exact admission: a trio vector needs 3 executions, not the historic
    // flat 2, so the budget can no longer be overspent by one run.
    if (runs_ + runs_for(p) > max_runs()) break;
    const std::optional<std::string> failure = check(p);
    ++rep.seeds_run;
    if (opts_.log != nullptr && (rep.seeds_run % 32 == 0 || failure)) {
      std::fprintf(opts_.log, "explore: seed %" PRIu64 " (%d/%d, %d runs)%s%s\n", seed,
                   rep.seeds_run, opts_.seeds, runs_, failure ? " FAILED: " : " ok",
                   failure ? failure->c_str() : "");
    }
    if (failure) {
      Mismatch mm;
      mm.original = p;
      mm.reason = *failure;
      mm.shrunk = shrink(p);
      mm.token = mm.shrunk.token();
      if (opts_.log != nullptr) {
        std::fprintf(opts_.log, "explore: shrunk to %s after %d runs\n  repro: spsim explore --repro=%s\n",
                     mm.token.c_str(), runs_, mm.token.c_str());
      }
      rep.mismatches.push_back(std::move(mm));
      break;  // one shrunken repro is the deliverable; stop the sweep
    }
  }
  rep.runs = runs_;
  return rep;
}

SystematicReport Explorer::explore_systematic(SystematicOptions sopts) {
  if (sopts.log == nullptr) sopts.log = opts_.log;
  sopts.base_config = opts_.base_config;
  // The explorer's budget is authoritative unless the caller set a tighter
  // one; runs() stays exact across both exploration modes.
  const long remaining = static_cast<long>(max_runs()) - runs_;
  if (remaining <= 0) return SystematicReport{};  // budget already spent
  if (sopts.max_runs == 0 || sopts.max_runs > remaining) sopts.max_runs = remaining;
  SystematicReport rep = systematic_explore(sopts);
  runs_ += static_cast<int>(rep.runs);
  return rep;
}

bool Explorer::export_trace(const Perturbation& p, mpi::Backend backend,
                            const std::string& path) const {
  const MachineConfig cfg = p.apply(opts_.base_config);
  const std::vector<SoupMsg> schedule = build_schedule(p);
  std::vector<RankObs> obs(static_cast<std::size_t>(p.nodes));
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  bool ok = true;
  try {
    mpi::Machine m(cfg, p.nodes, backend);
    try {
      m.run([&](mpi::Mpi& mpi) { conformance_workload(p, schedule, mpi, obs); });
    } catch (const std::exception&) {
      // A failing run is exactly what we want a trace of; export what the
      // ring retained up to the failure.
    }
    if (m.telemetry() != nullptr) {
      m.telemetry()->export_chrome_json(out);
    } else {
      ok = false;
    }
  } catch (const std::exception&) {
    ok = false;
  }
  std::fclose(out);
  return ok;
}

}  // namespace sp::sim
