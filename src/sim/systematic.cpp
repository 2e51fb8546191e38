#include "sim/systematic.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "mpi/coll.hpp"
#include "sim/explorer.hpp"
#include "sim/sched.hpp"

namespace sp::sim {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] constexpr std::uint64_t fnv(std::uint64_t h, std::uint64_t v) noexcept {
  return (h ^ v) * kFnvPrime;
}

constexpr int kSysTag = 5;
/// Widest choice point a repro token can encode (one hex digit per decision).
constexpr std::size_t kMaxFanout = 16;

/// Expected payload of message #k from src to dst. Byte 0 carries k so the
/// receiver of a wildcard match can recover which message it got.
[[nodiscard]] constexpr std::uint8_t sys_payload_byte(int src, int dst, int k, std::size_t b) {
  if (b == 0) return static_cast<std::uint8_t>(k);
  return static_cast<std::uint8_t>(src * 31 + dst * 17 + k * 7 + static_cast<int>(b) * 3 + 5);
}

/// Commutative per-message term of the schedule-invariant digest.
[[nodiscard]] std::uint64_t sys_msg_hash(int src, int dst, int k, std::size_t len) {
  std::uint64_t h = kFnvBasis;
  h = fnv(h, static_cast<std::uint64_t>(src));
  h = fnv(h, static_cast<std::uint64_t>(k));
  for (std::size_t b = 0; b < len; ++b) h = fnv(h, sys_payload_byte(src, dst, k, b));
  return h;
}

/// The DFS worker installed on one Machine's event queue: replays a forced
/// decision prefix, then extends it (first non-sleeping candidate) while
/// recording every choice point, its candidates and the sleep set at entry,
/// so the driver can expand unexplored siblings after the run.
///
/// Sleep sets (Godefroid): a transition is "asleep" when every continuation
/// that starts with it is trace-equivalent to a run explored from an earlier
/// sibling branch. Entering branch j of a point puts the point's earlier
/// non-sleeping siblings (explored first, left-to-right) to sleep; executing
/// any event wakes (removes) every sleeping transition that is *dependent*
/// on it, because the executed event invalidates the commutation argument.
/// Executing a transition that is still asleep proves the rest of the run
/// redundant.
class DfsController final : public ScheduleController {
 public:
  struct Point {
    std::vector<Choice> cands;                   ///< Canonical (at, seq) order.
    std::vector<std::uint64_t> sleep_at_entry;   ///< Seqs asleep on entry.
    std::size_t chosen = 0;
  };

  DfsController(std::vector<std::uint8_t> forced, int depth, bool record_trace)
      : forced_(std::move(forced)), depth_(depth), record_trace_(record_trace) {}

  std::size_t choose(const std::vector<Choice>& cands) override {
    if (cands.size() > max_fanout_) max_fanout_ = cands.size();
    const std::size_t i = points_.size();
    std::size_t j;
    if (i < forced_.size()) {
      j = forced_[i];
      if (j >= cands.size()) {
        // A hand-edited token can force an index the schedule never offers;
        // surface it as a failed run rather than asserting.
        forced_out_of_range_ = true;
        j = 0;
      }
    } else if (static_cast<int>(i) >= depth_) {
      depth_limited_ = true;
      return first_awake(cands);  // run on canonically, unrecorded
    } else {
      j = first_awake(cands);
      if (asleep(cands[j].seq)) return j;  // all asleep: redundant, unrecorded
    }
    Point pt;
    pt.cands = cands;
    pt.sleep_at_entry.reserve(sleep_.size());
    for (const Choice& s : sleep_) pt.sleep_at_entry.push_back(s.seq);
    pt.chosen = j;
    // Left-to-right sibling order: branches k < j are explored before this
    // one, so their first transitions join the sleep set for the subtree.
    for (std::size_t k = 0; k < j; ++k) {
      if (!asleep(cands[k].seq)) sleep_.push_back(cands[k]);
    }
    points_.push_back(std::move(pt));
    return j;
  }

  void on_execute(const Choice& e) override {
    if (record_trace_) trace_.push_back(e);
    if (asleep(e.seq) && !redundant_) {
      redundant_ = true;
      redundant_boundary_ = points_.size();
    }
    // Wake every sleeping transition dependent on the executed event (the
    // executed transition itself is dependent on itself and always leaves).
    sleep_.erase(std::remove_if(sleep_.begin(), sleep_.end(),
                                [&](const Choice& s) {
                                  return !sched_independent(s.at, s.key, e.at, e.key);
                                }),
                 sleep_.end());
  }

  [[nodiscard]] const std::vector<Point>& points() const noexcept { return points_; }
  [[nodiscard]] bool redundant() const noexcept { return redundant_; }
  [[nodiscard]] std::size_t redundant_boundary() const noexcept { return redundant_boundary_; }
  [[nodiscard]] bool depth_limited() const noexcept { return depth_limited_; }
  [[nodiscard]] bool forced_out_of_range() const noexcept { return forced_out_of_range_; }
  [[nodiscard]] std::size_t max_fanout() const noexcept { return max_fanout_; }

  /// Canonical (trace-equivalence-invariant) digest of the executed event
  /// sequence: greedy minimum-label linearization of the dependence DAG.
  /// Same-(at, key) events get an occurrence index assigned in *push* (seq)
  /// order, not execution order: same-key events are only ever pushed from a
  /// mutually dependent chain (same node stream, or an opaque event), so
  /// their push order is invariant across a trace-equivalence class — while
  /// execution order is not. Indexing by execution order would relabel a
  /// genuine dependent swap (two packets on the same src→dst stream) so both
  /// orders collapsed to one digest; seq-order indexing keeps each event's
  /// label stable, so equivalent interleavings agree and dependent
  /// reorderings differ.
  [[nodiscard]] std::uint64_t canonical_trace_digest() const {
    const std::size_t n = trace_.size();
    std::vector<std::uint32_t> occ(n);
    {
      // Group trace positions by (at, key); within a group, rank by seq.
      std::map<std::pair<TimeNs, SchedKey>, std::vector<std::size_t>> groups;
      for (std::size_t i = 0; i < n; ++i) groups[{trace_[i].at, trace_[i].key}].push_back(i);
      for (auto& [label, members] : groups) {
        std::sort(members.begin(), members.end(), [&](std::size_t a, std::size_t b) {
          return trace_[a].seq < trace_[b].seq;
        });
        for (std::size_t r = 0; r < members.size(); ++r) {
          occ[members[r]] = static_cast<std::uint32_t>(r);
        }
      }
    }
    std::vector<std::uint32_t> indeg(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (!sched_independent(trace_[i].at, trace_[i].key, trace_[j].at, trace_[j].key)) {
          ++indeg[j];
        }
      }
    }
    using Label = std::tuple<TimeNs, SchedKey, std::uint32_t, std::size_t>;
    std::priority_queue<Label, std::vector<Label>, std::greater<Label>> ready;
    for (std::size_t j = 0; j < n; ++j) {
      if (indeg[j] == 0) ready.push({trace_[j].at, trace_[j].key, occ[j], j});
    }
    std::uint64_t d = kFnvBasis;
    while (!ready.empty()) {
      const auto [at, key, o, i] = ready.top();
      ready.pop();
      d = fnv(fnv(fnv(d, static_cast<std::uint64_t>(at)), key), o);
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!sched_independent(trace_[i].at, trace_[i].key, trace_[j].at, trace_[j].key)) {
          if (--indeg[j] == 0) ready.push({trace_[j].at, trace_[j].key, occ[j], j});
        }
      }
    }
    return d;
  }

 private:
  [[nodiscard]] bool asleep(std::uint64_t seq) const {
    for (const Choice& s : sleep_) {
      if (s.seq == seq) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t first_awake(const std::vector<Choice>& cands) const {
    for (std::size_t k = 0; k < cands.size(); ++k) {
      if (!asleep(cands[k].seq)) return k;
    }
    return 0;
  }

  std::vector<std::uint8_t> forced_;
  int depth_;
  bool record_trace_;
  std::vector<Point> points_;
  std::vector<Choice> sleep_;
  std::vector<Choice> trace_;
  std::size_t redundant_boundary_ = 0;
  std::size_t max_fanout_ = 0;
  bool redundant_ = false;
  bool depth_limited_ = false;
  bool forced_out_of_range_ = false;
};

/// Per-rank observables, collected on the rank fiber.
struct SysObs {
  std::uint64_t outcome = kFnvBasis;  ///< Ordered (match-order) fold.
  std::uint64_t invariant = 0;        ///< Commutative message-set fold.
  bool status_ok = true;
  bool payload_ok = true;
  bool order_ok = true;  ///< Per-source non-overtaking.
  bool coll_ok = true;   ///< Collective-phase results == sequential reference.
};

/// Wildcard-heavy workload: every receive is MPI_ANY_SOURCE, so which sender
/// each posted receive matches is exactly the scheduling decision the DFS
/// enumerates. Senders post message k to every peer before k+1, so per
/// (source, tag) the matched k sequence must be 0..m-1 in order.
void systematic_workload(const SystematicOptions& o, mpi::Mpi& mpi, std::vector<SysObs>& obs) {
  using mpi::Datatype;
  using mpi::Request;
  using mpi::Status;
  auto& w = mpi.world();
  const int me = w.rank();
  const int n = o.ranks;
  const int m = o.msgs_per_rank;
  const std::size_t len = o.msg_bytes;
  SysObs& so = obs[static_cast<std::size_t>(me)];

  const int nrecv = (n - 1) * m;
  std::vector<Request> recvs;
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> rbufs;
  for (int i = 0; i < nrecv; ++i) {
    rbufs.push_back(std::make_unique<std::vector<std::uint8_t>>(len, 0));
    recvs.push_back(
        mpi.irecv(rbufs.back()->data(), len, Datatype::kByte, mpi::kAnySource, kSysTag, w));
  }
  std::vector<Request> sends;
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> sbufs;
  for (int k = 0; k < m; ++k) {
    for (int d = 0; d < n; ++d) {
      if (d == me) continue;
      auto buf = std::make_unique<std::vector<std::uint8_t>>(len);
      for (std::size_t b = 0; b < len; ++b) (*buf)[b] = sys_payload_byte(me, d, k, b);
      sbufs.push_back(std::move(buf));
      sends.push_back(mpi.isend(sbufs.back()->data(), len, Datatype::kByte, d, kSysTag, w));
    }
  }
  std::vector<Status> rsts(recvs.size());
  mpi.waitall(recvs.data(), recvs.size(), rsts.data());
  mpi.waitall(sends.data(), sends.size());

  // Identical wildcards match in posting order, so rsts is the match order.
  std::vector<int> next_k(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < rsts.size(); ++i) {
    const Status& st = rsts[i];
    const int src = st.source;
    if (st.tag != kSysTag || st.len != len || src < 0 || src >= n || src == me) {
      so.status_ok = false;
      continue;
    }
    const int k = (*rbufs[i])[0];
    for (std::size_t b = 0; b < len; ++b) {
      if ((*rbufs[i])[b] != sys_payload_byte(src, me, k, b)) so.payload_ok = false;
    }
    if (k == next_k[static_cast<std::size_t>(src)]) {
      ++next_k[static_cast<std::size_t>(src)];
    } else {
      so.order_ok = false;
    }
    so.outcome = fnv(fnv(so.outcome, static_cast<std::uint64_t>(src)),
                     static_cast<std::uint64_t>(k));
    so.invariant += sys_msg_hash(src, me, k, len);
  }
  for (int s = 0; s < n; ++s) {
    if (s != me && next_k[static_cast<std::size_t>(s)] != m) so.order_ok = false;
  }

  // Pinned-collective phase (any pin in base_config): barrier +
  // non-commutative allreduce + bcast after the wildcard storm, each checked
  // in-fiber against the exact sequential reference. Because the check runs on
  // EVERY enumerated interleaving, any schedule-dependence in the pinned
  // algorithm (e.g. an in-network combining table folding children in arrival
  // order instead of port order) surfaces as a coll_ok violation with a
  // shrunk repro token.
  if (mpi::coll::any_algo_pinned(o.base_config)) {
    mpi.barrier(w);
    // kMat2x2 is associative but not commutative: operand-order mistakes
    // cannot cancel the way they can under kSum.
    std::int64_t in4[4], out4[4] = {0, 0, 0, 0};
    for (int j = 0; j < 4; ++j) in4[j] = static_cast<std::int64_t>(me * 4 + j + 2);
    mpi.allreduce(in4, out4, 4, Datatype::kLong, mpi::Op::kMat2x2, w);
    std::int64_t ref4[4] = {0, 0, 0, 0};
    for (int r = 0; r < n; ++r) {
      std::int64_t contrib[4];
      for (int j = 0; j < 4; ++j) contrib[j] = static_cast<std::int64_t>(r * 4 + j + 2);
      if (r == 0) {
        std::memcpy(ref4, contrib, sizeof ref4);
      } else {
        mpi::reduce_apply(mpi::Op::kMat2x2, Datatype::kLong, contrib, ref4, 4);
      }
    }
    for (int j = 0; j < 4; ++j) {
      if (out4[j] != ref4[j]) so.coll_ok = false;
      so.outcome = fnv(so.outcome, static_cast<std::uint64_t>(out4[j]));
    }
    std::int64_t b4[4];
    for (int j = 0; j < 4; ++j) b4[j] = me == 0 ? 1000 + j * 37 : -1;
    mpi.bcast(b4, 4, Datatype::kLong, 0, w);
    for (int j = 0; j < 4; ++j) {
      if (b4[j] != 1000 + j * 37) so.coll_ok = false;
      so.outcome = fnv(so.outcome, static_cast<std::uint64_t>(b4[j]));
    }
  }
}

[[nodiscard]] MachineConfig clean_config(const SystematicOptions& opts,
                                         DfsController* ctrl) {
  MachineConfig cfg = opts.base_config;
  // Enumeration demands a noise-free machine: with all fault knobs neutral
  // the fabric draws no randomness, so (config, decisions) fully determines
  // the execution and replayed prefixes reproduce exactly.
  cfg.packet_drop_rate = 0;
  cfg.packet_dup_rate = 0;
  cfg.packet_jitter_ns = 0;
  cfg.route_bias = 0;
  cfg.route_skew_ns = 0;
  cfg.burst_drop_len = 1;
  cfg.event_tie_break_salt = 0;
  cfg.telemetry_enabled = false;
  cfg.sched_controller = ctrl;
  cfg.sched_window_ns = opts.window_ns;
  return cfg;
}

[[nodiscard]] SystematicRunResult run_one(const SystematicOptions& opts, DfsController& ctrl) {
  SystematicRunResult r;
  const MachineConfig cfg = clean_config(opts, &ctrl);
  std::vector<SysObs> obs(static_cast<std::size_t>(opts.ranks));
  try {
    mpi::Machine m(cfg, opts.ranks, opts.backend);
    m.run([&](mpi::Mpi& mpi) { systematic_workload(opts, mpi, obs); });
    r.completed = true;
  } catch (const std::exception& e) {
    r.error = e.what();
    return r;
  }
  if (ctrl.forced_out_of_range()) {
    r.completed = false;
    r.error = "forced decision index exceeds the candidate count at its choice point";
    return r;
  }
  r.outcome_digest = kFnvBasis;
  r.invariant_digest = kFnvBasis;
  bool status_ok = true, payload_ok = true, order_ok = true, coll_ok = true;
  for (const SysObs& o : obs) {
    r.outcome_digest = fnv(r.outcome_digest, o.outcome);
    r.invariant_digest = fnv(r.invariant_digest, o.invariant);
    status_ok = status_ok && o.status_ok;
    payload_ok = payload_ok && o.payload_ok;
    order_ok = order_ok && o.order_ok;
    coll_ok = coll_ok && o.coll_ok;
  }
  if (!status_ok) r.violations.push_back("wildcard status fields corrupt (tag/len/source)");
  if (!payload_ok) r.violations.push_back("received payload bytes corrupted");
  if (!order_ok) {
    r.violations.push_back("per-source non-overtaking violated (k sequence out of order)");
  }
  if (!coll_ok) {
    r.violations.push_back("pinned collective result diverged from the sequential reference");
  }
  r.redundant = ctrl.redundant();
  r.depth_limited = ctrl.depth_limited();
  r.choice_points = static_cast<int>(ctrl.points().size());
  return r;
}

/// The one systematic verdict: nullopt when the run completed, broke no MPI
/// invariant and folded its received message set to `expect`.
[[nodiscard]] std::optional<std::string> verdict(const SystematicRunResult& r,
                                                 std::uint64_t expect) {
  if (!r.completed) return "systematic replay failed: " + r.error;
  if (!r.violations.empty()) return "MPI invariant violated: " + r.violations[0];
  if (r.invariant_digest != expect) {
    std::ostringstream os;
    os << "schedule-invariant digest diverged: got " << std::hex << r.invariant_digest
       << " want " << expect;
    return os.str();
  }
  return std::nullopt;
}

}  // namespace

// The Perturbation <-> SystematicOptions mapping: systematic_vector encodes a
// run, systematic_check decodes and replays one.

Perturbation systematic_vector(const SystematicOptions& opts,
                               const std::vector<std::uint8_t>& decisions) {
  Perturbation p;
  p.capture(clean_config(opts, nullptr));
  p.nodes = opts.ranks;
  p.msgs_per_rank = opts.msgs_per_rank;
  p.flags = Perturbation::kFlagSystematic |
            ((static_cast<std::uint32_t>(opts.backend) & 0xF) << Perturbation::kBackendShift);
  p.sched_window_ns = opts.window_ns;
  p.sys_msg_bytes = opts.msg_bytes;
  for (std::uint8_t d : decisions) p.sched.push_back("0123456789abcdef"[d & 0xF]);
  return p;
}

std::optional<std::string> systematic_check(const Perturbation& p, const MachineConfig& base) {
  SystematicOptions so;
  so.ranks = p.nodes;
  so.msgs_per_rank = p.msgs_per_rank;
  so.msg_bytes = p.sys_msg_bytes;
  so.window_ns = p.sched_window_ns;
  so.backend = static_cast<mpi::Backend>((p.flags & Perturbation::kBackendMask) >>
                                         Perturbation::kBackendShift);
  so.base_config = p.apply(base);
  std::vector<std::uint8_t> decisions;
  for (char c : p.sched) {
    decisions.push_back(static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10));
  }
  return verdict(systematic_replay(so, decisions),
                 systematic_expected_invariant(so.ranks, so.msgs_per_rank, so.msg_bytes));
}

std::uint64_t systematic_expected_invariant(int ranks, int msgs_per_rank,
                                            std::uint32_t msg_bytes) {
  std::uint64_t d = kFnvBasis;
  for (int me = 0; me < ranks; ++me) {
    std::uint64_t sum = 0;
    for (int src = 0; src < ranks; ++src) {
      if (src == me) continue;
      for (int k = 0; k < msgs_per_rank; ++k) sum += sys_msg_hash(src, me, k, msg_bytes);
    }
    d = fnv(d, sum);
  }
  return d;
}

SystematicRunResult systematic_replay(const SystematicOptions& opts,
                                      const std::vector<std::uint8_t>& decisions) {
  DfsController ctrl(decisions, opts.depth, /*record_trace=*/false);
  return run_one(opts, ctrl);
}

SystematicReport systematic_explore(const SystematicOptions& opts) {
  SystematicReport rep;
  const std::uint64_t expect =
      systematic_expected_invariant(opts.ranks, opts.msgs_per_rank, opts.msg_bytes);
  rep.invariant_digest = expect;
  std::set<std::uint64_t> outcomes;
  std::set<std::uint64_t> traces;
  std::vector<std::vector<std::uint8_t>> stack;
  stack.push_back({});
  bool truncated = false;

  while (!stack.empty()) {
    if ((opts.max_runs > 0 && rep.runs >= opts.max_runs) ||
        (opts.max_interleavings > 0 && rep.interleavings >= opts.max_interleavings)) {
      truncated = true;
      break;
    }
    std::vector<std::uint8_t> decisions = std::move(stack.back());
    stack.pop_back();
    DfsController ctrl(decisions, opts.depth, opts.canonical_check);
    const SystematicRunResult r = run_one(opts, ctrl);
    ++rep.runs;
    if (static_cast<int>(ctrl.max_fanout()) > rep.max_fanout) {
      rep.max_fanout = static_cast<int>(ctrl.max_fanout());
    }

    if (const std::optional<std::string> fail = verdict(r, expect)) {
      // Full decision record reproduces this exact run; shrink by dropping
      // trailing decisions while the replay still fails the same way.
      std::vector<std::uint8_t> full;
      full.reserve(ctrl.points().size());
      for (const DfsController::Point& pt : ctrl.points()) {
        full.push_back(static_cast<std::uint8_t>(pt.chosen));
      }
      SystematicReport::Mismatch mm;
      mm.reason = *fail;
      mm.original_token = systematic_vector(opts, full).token();
      std::vector<std::uint8_t> cur = full;
      while (!cur.empty() && (opts.max_runs == 0 || rep.runs < opts.max_runs)) {
        std::vector<std::uint8_t> cand(cur.begin(), cur.end() - 1);
        const SystematicRunResult rr = systematic_replay(opts, cand);
        ++rep.runs;
        if (!verdict(rr, expect)) break;
        cur = std::move(cand);
      }
      mm.token = systematic_vector(opts, cur).token();
      if (opts.log != nullptr) {
        std::fprintf(opts.log,
                     "systematic: FAILED after %ld runs: %s\n  repro: spsim explore --repro=%s\n",
                     rep.runs, mm.reason.c_str(), mm.token.c_str());
      }
      rep.mismatches.push_back(std::move(mm));
      break;  // the certificate is void; one shrunk repro is the deliverable
    }

    if (r.redundant) {
      ++rep.redundant;
    } else {
      ++rep.interleavings;
      rep.choice_points += r.choice_points;
      outcomes.insert(r.outcome_digest);
      if (r.depth_limited) rep.depth_limited = true;
      if (opts.canonical_check && !r.depth_limited) {
        if (!traces.insert(ctrl.canonical_trace_digest()).second) ++rep.duplicate_traces;
      }
    }

    // Expand unexplored siblings of every fresh choice point (the forced
    // prefix's alternatives were queued by ancestor runs). Points at or past
    // a sleep-block are inside a subtree already covered elsewhere.
    const std::vector<DfsController::Point>& pts = ctrl.points();
    const std::size_t lo = decisions.size();
    std::size_t hi = pts.size();
    if (ctrl.redundant() && ctrl.redundant_boundary() < hi) hi = ctrl.redundant_boundary();
    for (std::size_t i = lo; i < hi; ++i) {
      const DfsController::Point& pt = pts[i];
      std::size_t fan = pt.cands.size();
      if (fan > kMaxFanout) {
        ++rep.fanout_capped;
        fan = kMaxFanout;
      }
      // Reverse order: the stack then pops deepest-point, smallest-index
      // branches first — depth-first, left-to-right.
      for (std::size_t j = fan; j-- > pt.chosen + 1;) {
        const std::uint64_t seq = pt.cands[j].seq;
        if (std::find(pt.sleep_at_entry.begin(), pt.sleep_at_entry.end(), seq) !=
            pt.sleep_at_entry.end()) {
          continue;
        }
        std::vector<std::uint8_t> child;
        child.reserve(i + 1);
        for (std::size_t k = 0; k < i; ++k) {
          child.push_back(static_cast<std::uint8_t>(pts[k].chosen));
        }
        child.push_back(static_cast<std::uint8_t>(j));
        stack.push_back(std::move(child));
      }
    }

    if (opts.log != nullptr && rep.runs % 256 == 0) {
      std::fprintf(opts.log,
                   "systematic: %ld runs, %ld interleavings, %ld redundant, frontier %zu\n",
                   rep.runs, rep.interleavings, rep.redundant, stack.size());
    }
  }

  rep.distinct_outcomes = outcomes.size();
  std::uint64_t d = kFnvBasis;
  d = fnv(d, static_cast<std::uint64_t>(rep.interleavings));
  for (std::uint64_t o : outcomes) d = fnv(d, o);  // std::set: ascending
  rep.certificate_digest = d;
  rep.complete = stack.empty() && !truncated && !rep.depth_limited && rep.fanout_capped == 0 &&
                 rep.mismatches.empty();
  if (opts.log != nullptr) {
    std::fprintf(opts.log,
                 "systematic: %s — %ld interleavings (%ld redundant pruned, %ld runs), "
                 "%zu distinct outcomes, certificate %016llx\n",
                 rep.complete ? "complete" : "INCOMPLETE", rep.interleavings, rep.redundant,
                 rep.runs, rep.distinct_outcomes,
                 static_cast<unsigned long long>(rep.certificate_digest));
  }
  return rep;
}

}  // namespace sp::sim
