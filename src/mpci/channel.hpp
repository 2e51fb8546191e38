// MPCI channel interface: the point-to-point message layer with matching and
// early-arrival buffering. The matching engine — the posted-receive queue,
// the early-arrival (EA) queue and the operations on them — lives here, once,
// as in §4 of the paper; three transports implement the rest, mirroring
// Fig. 1: PipesChannel (the native stack, Fig. 1a), LapiChannel (the new thin
// MPCI over LAPI, Fig. 1c, in its Base / Counters / Enhanced versions) and
// RdmaChannel (an RDMA/NIC-offload adapter, DESIGN.md §14).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "lapi/wire.hpp"
#include "mpci/bsend_pool.hpp"
#include "mpci/envelope.hpp"
#include "mpci/request.hpp"
#include "sim/node_runtime.hpp"

namespace sp::mpci {

/// Raised for unrecoverable MPI errors (e.g. ready-mode send with no posted
/// receive — the paper's Error_handler(FATAL, "Recv not posted")).
class FatalMpiError : public std::runtime_error {
 public:
  explicit FatalMpiError(const std::string& what) : std::runtime_error(what) {}
};

class Channel {
 public:
  Channel(sim::NodeRuntime& node, int num_tasks) : node_(node), num_tasks_(num_tasks) {}
  virtual ~Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Begin a send; `req` must be pre-filled (dst/ctx/tag/buf/len/mode/...)
  /// and stay alive until complete.
  virtual void start_send(SendReq& req) = 0;

  /// Post a receive; `req` must be pre-filled and stay alive until complete.
  virtual void post_recv(RecvReq& req) = 0;

  /// Called from the waiting application thread to push work that the paper
  /// assigns to the blocking path (e.g. the rendezvous data phase after the
  /// CTS arrives, Fig. 6).
  virtual void progress(SendReq& req) = 0;

  /// Collective per-rank initialisation, run on the rank thread before user
  /// code (e.g. the Counters version's counter-ring address exchange).
  virtual void on_thread_start() {}

  /// Nonblocking probe: is a matchable unexpected message pending? Fills
  /// `st` (source, tag, length) without consuming the message. Selects the
  /// same entry post_recv would (select_ea).
  [[nodiscard]] bool iprobe(int ctx, int src_sel, int tag_sel, Status* st);

  /// Notified (through the wake gate) whenever a new envelope becomes
  /// matchable — MPI_Probe blocks on this.
  [[nodiscard]] sim::SimCondition& arrival_cond() noexcept { return arrival_cond_; }

  /// One completed receive, as observed by the conformance explorer. The
  /// envelope sequence (per source task -> destination task, shared across
  /// contexts) orders one source's messages to this task, so grouping
  /// records by (ctx, src, tag) and sorting by seq recovers the match order
  /// MPI non-overtaking mandates — a channel-invariant observable, unlike the
  /// global cross-source completion interleaving.
  struct MatchRecord {
    std::uint16_t ctx = 0;
    std::uint16_t src = 0;
    std::int32_t tag = 0;
    std::uint32_t seq = 0;
    std::uint32_t len = 0;
  };

  /// Record every receive completion into `log` (null disables; the default).
  /// The log must outlive the channel's traffic.
  void set_match_log(std::vector<MatchRecord>* log) noexcept { match_log_ = log; }

 protected:
  /// Channels call this when a new unexpected envelope becomes matchable.
  void publish_arrival() {
    node_.publish([this] { arrival_cond_.notify_all(node_.sim); });
  }

 public:

  [[nodiscard]] BsendPool& bsend_pool() noexcept { return bsend_; }
  [[nodiscard]] sim::NodeRuntime& node() noexcept { return node_; }

  // --- statistics ---
  [[nodiscard]] std::int64_t eager_sends() const noexcept { return eager_sends_; }
  [[nodiscard]] std::int64_t rendezvous_sends() const noexcept { return rendezvous_sends_; }
  [[nodiscard]] std::int64_t early_arrivals() const noexcept { return early_arrivals_; }
  [[nodiscard]] std::size_t early_arrival_bytes_in_use() const noexcept { return ea_bytes_; }
  /// Eager sends demoted to rendezvous by the sender-side EA credit check.
  [[nodiscard]] std::int64_t ea_fallbacks() const noexcept { return ea_fallbacks_; }
  /// Eagers refused by the receiver (EA pool full) and failed over to
  /// sender-served rendezvous; counted at the sender when the NACK arrives.
  [[nodiscard]] std::int64_t ea_nacks() const noexcept { return ea_nacks_; }

 protected:
  // --- Matching engine ----------------------------------------------------

  /// An unexpected (early-arrival) message, a rendezvous request-to-send
  /// waiting for its receive, or a matched message detoured through an EA
  /// buffer (truncation / matched while its payload is still arriving).
  struct EaEntry {
    Envelope env;
    int src_task = 0;               ///< Sender's task id (transport address).
    std::vector<std::byte> data{};  ///< EA buffer (eager payload).
    bool arrived = false;           ///< Payload fully received.
    bool is_rts = false;            ///< RTS, or a NACKed eager turned pseudo-RTS.
    bool matchable = true;          ///< LAPI: false while parked for sequence order.
    bool counted = false;           ///< Whether `data` is EA-accounted.
    RecvReq* bound = nullptr;       ///< Receive that matched while arriving.
    lapi::Cntr* watch = nullptr;    ///< LAPI Counters: arrival signal.
    lapi::Token token = 0;          ///< RDMA RTS: sender's registered region.
  };

  /// Match an arriving envelope against the posted receives (first posted
  /// wins); removes and returns the receive, or null. Charges the scan.
  [[nodiscard]] RecvReq* match_posted(const Envelope& env);

  /// Choose the EA entry a receive or probe with these selectors takes, or
  /// ea_.end(); charges a scan of the whole queue. Parked and bound entries
  /// never match. The rule: take the first matching entry in queue order,
  /// then replace it by any matching entry from the same source task with
  /// a lower seq — i.e. the lowest-seq match from the first-matching source.
  /// For [A5, B1, A3] that is A3, not B1: legal MPI, since only per-source
  /// order is mandated. On the ordered transports (Pipes stream, RC-QP) one
  /// source's entries already sit in ascending seq order, so the rule
  /// reduces to first match there.
  [[nodiscard]] std::list<EaEntry>::iterator select_ea(int ctx, int src_sel, int tag_sel);

  /// Queue an entry; publishes the arrival unless it is parked or bound.
  EaEntry& queue_ea(EaEntry&& e);

  /// Remove `e` from the EA queue, releasing its EA bytes and returning the
  /// sender's credit for a consumed eager or NACK-served data.
  void erase_ea(EaEntry& e);

  /// Copy a (fully arrived) EA payload into the receive, complete it and
  /// erase the entry.
  void deliver_from_ea(RecvReq& req, EaEntry& e, bool app_context);

  /// deliver_from_ea if the payload has arrived, else bind the receive so
  /// the arrival delivers it.
  void deliver_or_bind(RecvReq& req, EaEntry& e, bool app_context);

  /// Complete `req` with `env` (visible through the wake gate); truncated
  /// when the message is longer than the receive buffer.
  void publish_recv_complete(RecvReq& req, const Envelope& env);

  /// Tell the sender of `sreq` that its message was fully received.
  void send_recv_done(int src_task, std::uint32_t sreq);

  /// Charge the cost of scanning `entries` queue entries plus locking.
  void charge_match_event(int entries) {
    note_match(entries);
    node_.cpu.charge(node_.sim, node_.cfg.match_base_ns +
                                    node_.cfg.match_per_entry_ns * entries +
                                    node_.cfg.lock_pair_ns);
  }
  void charge_match_app(int entries) {
    note_match(entries);
    node_.app_charge(node_.cfg.match_base_ns + node_.cfg.match_per_entry_ns * entries +
                     node_.cfg.lock_pair_ns);
  }

  /// Telemetry for one matching attempt over `entries` queue entries.
  void note_match(int entries) {
    SP_TELEM(node_, sim::Ev::kMatch, static_cast<std::uint64_t>(entries));
    SP_TELEM_HIST(node_, sim::Hist::kMatchScanned, static_cast<std::uint64_t>(entries));
  }

  /// Count one eager/rendezvous send (statistics + telemetry).
  void note_eager_send(int dst, std::size_t bytes) {
    ++eager_sends_;
    SP_TELEM(node_, sim::Ev::kEagerSend, static_cast<std::uint64_t>(dst), bytes);
    SP_TELEM_HIST(node_, sim::Hist::kMsgBytes, bytes);
  }
  void note_rendezvous_send(int dst, std::size_t bytes) {
    ++rendezvous_sends_;
    SP_TELEM(node_, sim::Ev::kRendezvousSend, static_cast<std::uint64_t>(dst), bytes);
    SP_TELEM_HIST(node_, sim::Hist::kMsgBytes, bytes);
  }

  /// Channels call this as a receive completes (one call per completed recv).
  void note_recv_complete(std::uint16_t ctx, std::uint16_t src, std::int32_t tag,
                          std::uint32_t seq, std::uint32_t len) {
    if (match_log_ != nullptr) match_log_->push_back(MatchRecord{ctx, src, tag, seq, len});
  }

  /// Early-arrival buffer accounting. Returns false when the pool cannot
  /// admit `bytes`; the caller NACKs the eager back into a sender-served
  /// rendezvous (ea_issue_nack) instead of dying — the seed treated this as
  /// fatal, which a lossy soak could trigger at will.
  [[nodiscard]] bool try_ea_reserve(std::size_t bytes) {
    if (ea_bytes_ + bytes > node_.cfg.early_arrival_bytes) return false;
    ea_bytes_ += bytes;
    ++early_arrivals_;
    SP_TELEM(node_, sim::Ev::kEarlyArrival, bytes);
    return true;
  }
  void ea_release(std::size_t bytes) noexcept { ea_bytes_ -= bytes; }

  /// Send a control-only envelope (EA credit / NACK) to a peer task over
  /// whatever control path the transport has.
  virtual void send_control_env(int dst_task, const Envelope& env) = 0;

  // --- Early-arrival flow control -----------------------------------------
  //
  // Senders bound the eager bytes they may have uncredited toward each
  // destination (`ea_sender_limit`; the auto default is a fair share of the
  // peer's EA pool, under which try_ea_reserve provably cannot fail) and
  // demote further eagers to rendezvous. Receivers NACK eagers that lose the
  // admission race anyway — reachable only when ea_sender_limit_bytes
  // overrides the fair share — converting them to a pseudo-RTS served from a
  // sender-side retained copy.
  //
  // Uncredited bytes are decremented ONLY by returned credits: every
  // non-ready, non-empty eager eventually earns exactly one credit covering
  // its length. Credits are per-message (carrying the sreq, which also
  // garbage-collects the retained copy) in override mode, and batched deltas
  // gated on the kFlagWantCredit pressure signal in auto mode — a quiet run
  // exchanges no credit traffic at all, keeping digests stable.

  [[nodiscard]] std::size_t ea_sender_limit() const noexcept {
    if (node_.cfg.ea_sender_limit_bytes != 0) return node_.cfg.ea_sender_limit_bytes;
    return node_.cfg.early_arrival_bytes /
           static_cast<std::size_t>(std::max(1, num_tasks_ - 1));
  }
  /// Retained sender-side copies (for NACK service) exist only under the
  /// override; the auto fair share cannot NACK, so nothing is retained.
  [[nodiscard]] bool retention_active() const noexcept {
    return node_.cfg.ea_sender_limit_bytes != 0;
  }

  /// protocol_for plus the sender-side credit check: an eager that would push
  /// this destination's uncredited bytes past the limit falls back to
  /// rendezvous (counted in ea_fallbacks).
  [[nodiscard]] Protocol choose_protocol(Mode mode, std::size_t len, int dst) {
    Protocol p = protocol_for(mode, len, node_.cfg.eager_limit);
    if (p == Protocol::kEager && mode != Mode::kReady && len > 0 &&
        ea_inflight_[dst] + len > ea_sender_limit()) {
      ++ea_fallbacks_;
      p = Protocol::kRendezvous;
    }
    return p;
  }

  /// Sender-side accounting at eager departure. Must run after `env` is
  /// fully built and before it is packed: it raises kFlagWantCredit past
  /// half the share and, in override mode, retains a service copy.
  void ea_note_eager_departure(int dst, Envelope& env, const std::byte* buf) {
    if (env.len == 0 || (env.flags & kFlagReady) != 0) return;
    auto& inflight = ea_inflight_[dst];
    inflight += env.len;
    if (inflight * 2 >= ea_sender_limit()) env.flags |= kFlagWantCredit;
    if (retention_active()) {
      retained_.emplace(env.sreq,
                        RetainedEager{env, std::vector<std::byte>(buf, buf + env.len)});
    }
  }

  /// Receiver-side: a message from `src_task` is fully consumed. If it was
  /// an eager (or the rendezvous data serving a NACKed eager), return credit
  /// per the mode; other kinds earn none.
  void ea_note_retired(int src_task, const Envelope& env) {
    const bool eager = env.kind == static_cast<std::uint8_t>(EnvKind::kEager);
    if (!eager && (env.flags & kFlagNackServed) == 0) return;
    if (env.len == 0 || (env.flags & kFlagReady) != 0) return;
    Envelope c;
    c.kind = static_cast<std::uint8_t>(EnvKind::kEaCredit);
    if (retention_active()) {
      c.sreq = env.sreq;
      c.len = env.len;
      send_control_env(src_task, c);
      return;
    }
    auto& peer = ea_credit_owed_[src_task];
    peer.owed += env.len;
    if ((env.flags & kFlagWantCredit) != 0) peer.flagged = true;
    if (peer.flagged) {
      c.sreq = 0;
      c.len = static_cast<std::uint32_t>(peer.owed);
      send_control_env(src_task, c);
      peer.owed = 0;
      peer.flagged = false;
    }
  }

  /// Receiver-side: EA admission failed — tell the sender its eager was
  /// dropped and will be pulled as rendezvous data via the pseudo-RTS.
  void ea_issue_nack(int src_task, const Envelope& env) {
    Envelope n;
    n.kind = static_cast<std::uint8_t>(EnvKind::kEaNack);
    n.sreq = env.sreq;
    n.len = env.len;
    send_control_env(src_task, n);
  }

  // Sender-side handlers for the two control kinds.
  void ea_on_credit(int peer_task, const Envelope& env) {
    auto& inflight = ea_inflight_[peer_task];
    inflight -= std::min<std::size_t>(inflight, env.len);
    if (env.sreq != 0) retained_.erase(env.sreq);
  }
  void ea_on_nack(const Envelope&) { ++ea_nacks_; }

  /// The retained copy for a NACKed eager (null if unknown — a protocol
  /// error unless retention is off, which cannot NACK).
  struct RetainedEager {
    Envelope env;
    std::vector<std::byte> data;
  };
  [[nodiscard]] const RetainedEager* ea_retained(std::uint32_t sreq) const {
    auto it = retained_.find(sreq);
    return it == retained_.end() ? nullptr : &it->second;
  }

  sim::NodeRuntime& node_;
  int num_tasks_;
  std::list<RecvReq*> posted_;
  std::list<EaEntry> ea_;
  BsendPool bsend_;
  sim::SimCondition arrival_cond_;
  std::vector<MatchRecord>* match_log_ = nullptr;
  std::int64_t eager_sends_ = 0;
  std::int64_t rendezvous_sends_ = 0;
  std::int64_t early_arrivals_ = 0;
  std::size_t ea_bytes_ = 0;

  // Early-arrival flow control state.
  std::map<int, std::size_t> ea_inflight_;  ///< dst task -> uncredited eager bytes.
  struct CreditPeer {
    std::size_t owed = 0;  ///< Bytes retired but not yet credited back.
    bool flagged = false;  ///< A kFlagWantCredit was seen since the last credit.
  };
  std::map<int, CreditPeer> ea_credit_owed_;          ///< Keyed by src task.
  std::map<std::uint32_t, RetainedEager> retained_;   ///< Keyed by sreq (override mode).
  std::int64_t ea_fallbacks_ = 0;
  std::int64_t ea_nacks_ = 0;
};

}  // namespace sp::mpci
