// The go-back-N reliability engine shared by every transport above the HAL
// (Pipes, LAPI and the RDMA adapter).
//
// One ReliableLink per (node, peer) pair. The origin side paces data packets
// with a sliding window, stores sent packets for retransmission, frees them
// on cumulative acknowledgement and resends everything unacknowledged when
// the oldest packet times out. The target side filters duplicates and
// generates coalesced acks. Packets are handed upward as they arrive, in any
// order: Pipes reorders them into its byte stream, LAPI reassembles at
// offsets, so only the reliability bookkeeping is ordered here.
//
// A transport derives from ReliableLink and supplies the packets
// (has_packet/build_packet); the link decides when they go out and owns
// everything after. Every wire packet starts with a LinkHdr, which the link
// writes and the transport's HAL upcall reads back (parse_link_hdr): acks are
// a bare LinkHdr, data packets carry the transport's own bytes after it.
//
// MessageLink below is the transport half shared by LAPI and RDMA: whole
// messages cut into packets that each carry a full PktHdr.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "hal/hal.hpp"
#include "sim/node_runtime.hpp"

namespace sp::hal {

/// Reconstruct a full 64-bit sequence number from its 32-bit wire form,
/// choosing the value congruent to `wire` (mod 2^32) nearest to `ref`
/// (RFC 1982-style serial-number arithmetic). The link window is tiny
/// compared to the 2^31 ambiguity radius, so reliability bookkeeping keeps
/// working when the 32-bit wire counter wraps.
[[nodiscard]] constexpr std::uint64_t unwrap_seq(std::uint64_t ref, std::uint32_t wire) noexcept {
  constexpr std::uint64_t kSpan = 1ULL << 32;
  constexpr std::uint64_t kHalf = 1ULL << 31;
  std::uint64_t candidate = (ref & ~(kSpan - 1)) | wire;
  if (candidate + kHalf < ref) return candidate + kSpan;
  if (candidate > ref + kHalf && candidate >= kSpan) return candidate - kSpan;
  return candidate;
}

/// The link's own wire fields, at offset 0 of every reliable packet.
struct LinkHdr {
  std::uint32_t seq = 0;  ///< Data: packet seq (low 32 bits). Ack: cumulative seq.
  std::uint32_t ack = 0;  ///< Nonzero on acks (which carry nothing else).
};

[[nodiscard]] inline LinkHdr parse_link_hdr(std::span<const std::byte> frame) {
  LinkHdr h;
  std::memcpy(&h, frame.data(), sizeof(LinkHdr));
  return h;
}

class ReliableLink {
 public:
  /// Transport personality; every field is fixed in code per transport.
  /// `nic_context` (the RDMA adapter, DESIGN.md §14) sends through the NIC
  /// path and drops every host CPU charge: the engine gathers straight from
  /// registered memory and sinks acks itself.
  struct Profile {
    ProtoId proto;
    bool nic_context;
    sim::Ev retransmit_ev;     ///< a0 = peer, a1 = packet seq
    sim::Ev dup_ev;            ///< a0 = peer, a1 = packet seq
    sim::Ev ack_ev;            ///< a0 = peer, a1 = cumulative seq
    std::size_t header_bytes;  ///< Modeled wire header of every packet (acks too).
  };

  struct Counters {
    std::int64_t packets = 0;      ///< Data packets put on the wire (first sends only).
    std::int64_t retransmits = 0;  ///< Go-back-N resends.
    /// Duplicate deliveries filtered (fabric dups and go-back-N re-deliveries).
    std::int64_t duplicates = 0;
    std::int64_t acks = 0;  ///< Acks put on the wire.
    /// Duplicate deliveries folded into the delayed ack flush instead of each
    /// earning an immediate re-ack (the conformance explorer asserts this
    /// stays proportional to duplicates).
    std::int64_t reacks_coalesced = 0;

    Counters& operator+=(const Counters& o) noexcept {
      packets += o.packets;
      retransmits += o.retransmits;
      duplicates += o.duplicates;
      acks += o.acks;
      reacks_coalesced += o.reacks_coalesced;
      return *this;
    }
  };

  ReliableLink(sim::NodeRuntime& node, Hal& hal, int peer, const Profile& profile)
      : node_(node), hal_(hal), profile_(profile), peer_(peer) {}
  virtual ~ReliableLink() = default;

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  /// Send packets while the transport has one, the window is open and the
  /// HAL has a free send buffer (otherwise a one-shot space waiter re-pumps).
  void pump();

  // --- target side ---
  // A data packet is taken in two steps so each transport keeps its own
  // charge order around them (Pipes copies in between; LAPI does not).
  /// Step 1: unwrap the 32-bit wire seq against the receive cursor. Returns
  /// the full seq of a fresh packet. A duplicate returns nullopt and
  /// re-advertises our cumulative position, coalesced to at most one
  /// immediate re-ack per duplicate burst.
  [[nodiscard]] std::optional<std::uint64_t> classify(std::uint32_t wire_seq);
  /// Step 2: count a fresh packet toward the next ack.
  void count_fresh();
  /// Both steps back to back; true if the packet is fresh.
  [[nodiscard]] bool accept(std::uint32_t wire_seq) {
    if (!classify(wire_seq)) return false;
    count_fresh();
    return true;
  }
  /// Process an acknowledgement for everything <= cum (32-bit wire form).
  void on_ack(std::uint32_t cum);

  /// Every packet up to and including this seq has been received.
  [[nodiscard]] std::uint64_t received_through() const noexcept { return cum_in_; }

  /// True when nothing is queued or awaiting acknowledgement (fence support).
  [[nodiscard]] bool drained() const { return store_.empty() && !has_packet(); }
  sim::SimCondition& drained_cond() noexcept { return drained_cond_; }

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] int peer() const noexcept { return peer_; }

  /// Test hook: start both reliability cursors at `base` as if `base` packets
  /// had already been exchanged (exercises 32-bit wire wrap). Call on the
  /// origin-side link and the matching target-side link before any traffic.
  void fast_forward_seq(std::uint64_t base) noexcept {
    next_seq_ = base + 1;
    acked_ = base;
    cum_in_ = base;
  }

 protected:
  [[nodiscard]] sim::NodeRuntime& node() const noexcept { return node_; }
  [[nodiscard]] const Profile& profile() const noexcept { return profile_; }
  /// Data bytes (as returned by build_packet) sent and not yet acknowledged.
  [[nodiscard]] std::size_t in_flight_bytes() const noexcept { return in_flight_bytes_; }

 private:
  /// A packet is queued and the transport's own limits admit it.
  [[nodiscard]] virtual bool has_packet() const = 0;
  /// Append the next packet's bytes to `payload` (which already holds the
  /// LinkHdr), charging the transport's copies. Returns its data bytes: the
  /// modeled packet is profile().header_bytes plus that.
  virtual std::size_t build_packet(std::vector<std::byte>& payload) = 0;
  /// The packet just built is on the wire and stored for retransmission.
  virtual void packet_sent(std::size_t /*data_bytes*/) {}

  struct Stored {
    std::vector<std::byte> payload;  ///< Arena-backed, released on ack.
    std::size_t modeled_bytes = 0;
    sim::TimeNs sent_at = 0;
  };

  void send_next();
  void send_ack();
  void schedule_ack_flush();
  void schedule_retransmit_check();
  [[nodiscard]] bool hal_send(std::span<const std::byte> payload, std::size_t modeled);

  sim::NodeRuntime& node_;
  Hal& hal_;
  Profile profile_;
  int peer_;

  // Origin side. Sequence bookkeeping is 64-bit internally; the wire carries
  // the low 32 bits and receivers unwrap, so the protocol survives wrap.
  bool retransmit_scheduled_ = false;
  bool waiting_for_space_ = false;  ///< A one-shot HAL space waiter is armed.
  std::map<std::uint64_t, Stored> store_;  ///< Unacked, keyed by seq.
  std::uint64_t next_seq_ = 1;
  std::uint64_t acked_ = 0;  ///< Highest cumulatively acked seq.
  std::size_t in_flight_bytes_ = 0;
  sim::SimCondition drained_cond_;

  // Target side.
  bool ack_pending_ = false;  ///< An ack send is owed (fresh data or dup re-ack).
  bool ack_flush_scheduled_ = false;
  int unacked_count_ = 0;     ///< Fresh packets since the last ack (coalescing).
  std::uint64_t cum_in_ = 0;  ///< Highest contiguous seq received.
  std::set<std::uint64_t> ooo_in_;
  /// When the last immediate duplicate re-ack went out; further duplicates
  /// within ack_delay_ns coalesce into the delayed flush instead of each
  /// triggering an ack (a go-back-N burst would otherwise ack-storm).
  sim::TimeNs last_reack_at_ = kNeverReacked;
  static constexpr sim::TimeNs kNeverReacked = -(1LL << 62);

  Counters counters_;
};

/// Counter/address tokens are raw pointers in the single simulator address
/// space, exchanged up-front via LAPI_Address_init exactly as on the real
/// machine (where they are virtual addresses in the peer task).
using Token = std::uint64_t;

enum PktFlags : std::uint8_t {
  kFlagFirst = 1,  ///< Carries the user header (offset 0 packet of a message)
};

/// Message header of LAPI and RDMA packets, after the LinkHdr. Every packet
/// carries a full PktHdr so any packet of a message can create reassembly
/// state when packets arrive out of order across the four switch routes.
/// Time is charged for the Profile's modeled header size, not the struct size.
struct PktHdr {
  std::uint64_t msg_id = 0;    ///< Per-origin-task unique message id.
  std::uint32_t offset = 0;    ///< Byte offset of this packet's data.
  std::uint32_t data_len = 0;  ///< Data bytes in this packet.
  std::uint32_t total_len = 0; ///< Total message data length.
  std::uint8_t kind = 0;    ///< lapi::Kind or RdmaKind.
  std::uint8_t flags = 0;   ///< Per-packet flags; rewritten by MessageLink.
  std::uint8_t op = 0;      ///< Kind-specific opcode (e.g. the Rmw operation).
  std::uint8_t pad_ = 0;
  std::uint16_t uhdr_len = 0;
  std::uint32_t origin = 0;    ///< Origin task id.
  Token handler_or_addr = 0;   ///< Am: header-handler id. Put/GetRep: target address.
  Token tgt_cntr = 0;          ///< Target counter (target address space).
  Token org_cntr = 0;          ///< Origin counter token (used by replies).
  Token cmpl_cntr = 0;         ///< Completion counter (origin address space).
  Token aux = 0;               ///< GetReq: origin buffer. Rmw: operand/out ptr.
  Token aux2 = 0;              ///< Rmw: extra operand.
};

inline constexpr std::size_t kPktHdrBytes = sizeof(PktHdr);

inline void append_hdr(std::vector<std::byte>& out, const PktHdr& h) {
  const auto* p = reinterpret_cast<const std::byte*>(&h);
  out.insert(out.end(), p, p + sizeof(PktHdr));
}

[[nodiscard]] inline PktHdr parse_hdr(std::span<const std::byte> in) {
  PktHdr h;
  std::memcpy(&h, in.data(), sizeof(PktHdr));
  return h;
}

/// A reliable link carrying whole messages (LAPI, RDMA). Packets are built
/// lazily, as the window admits them: a submitted message borrows its data
/// buffer, each packet charges the single origin-side copy into HAL staging
/// (none in NIC context), and `on_origin_done` fires once the last byte has
/// been copied out and the origin buffer is safe to reuse — exactly LAPI's
/// org_cntr semantics.
class MessageLink final : public ReliableLink {
 public:
  using ReliableLink::ReliableLink;

  struct Message {
    PktHdr meta;                   ///< Template: kind/msg_id/total_len/tokens set by caller.
    std::vector<std::byte> uhdr;   ///< User header (first packet only; may be empty).
    const std::byte* data = nullptr;  ///< Borrowed data; must stay valid until on_origin_done.
    std::size_t len = 0;
    std::vector<std::byte> owned;  ///< Alternative owned data (control messages).
    std::function<void()> on_origin_done;  ///< Fires when data fully copied out.
  };

  /// Queue a message for transmission (FIFO per link).
  void submit(Message&& msg) {
    queue_.push_back(Pending{std::move(msg), 0, false});
    pump();
  }

 private:
  struct Pending {
    Message msg;
    std::size_t next_offset = 0;
    bool first_sent = false;

    [[nodiscard]] std::size_t size() const noexcept {
      return msg.owned.empty() ? msg.len : msg.owned.size();
    }
  };

  [[nodiscard]] bool has_packet() const override { return !queue_.empty(); }
  std::size_t build_packet(std::vector<std::byte>& payload) override;
  /// Once a message's last packet is on the wire, retire it and fire
  /// on_origin_done.
  void packet_sent(std::size_t data_bytes) override;

  std::deque<Pending> queue_;
};

}  // namespace sp::hal
