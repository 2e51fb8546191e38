// RdmaNic: one-sided put/get DMA verbs plus NIC-resident collectives
// (DESIGN.md §14) — the adapter model behind sp::mpci::RdmaChannel.
//
// The NIC is the successor line of the paper's LAPI port: MPICH2-over-
// InfiniBand-style RDMA-write eager rings and RDMA-read rendezvous, and
// Quadrics/Myrinet-style collectives that run to completion on the adapter
// processor. Everything here executes in *NIC context*: sends go out via
// Hal::send_packet_nic (no host handshake), inbound frames arrive through the
// HAL's NIC-protocol bypass (no per-packet host charge, no interrupts), and
// the reliability engine is the same go-back-N link (hal/reliable_link.hpp)
// that LAPI and Pipes use, parameterized with a Profile that drops every host
// CPU charge. Host time is charged only by the channel above (doorbells and
// completion-queue reaps).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "hal/hal.hpp"
#include "hal/reliable_link.hpp"
#include "sim/node_runtime.hpp"

namespace sp::hal {

/// Wire kinds carried in PktHdr::kind on kProtoRdma frames. Values start
/// well above LAPI's kinds so a misrouted frame asserts instead of aliasing.
enum class RdmaKind : std::uint8_t {
  kWrite = 32,     ///< RDMA write with immediate (imm = channel envelope).
  kReadReq = 33,   ///< RDMA read request (single packet; token + length).
  kReadResp = 34,  ///< RDMA read response data (scattered straight to offset).
  kColl = 35,      ///< NIC-resident collective message (reduce / release).
};

class RdmaNic {
 public:
  /// Completed inbound RDMA write: immediate data plus the reassembled
  /// payload (moved to the handler — the ring slot is recycled immediately).
  using WriteHandler =
      std::function<void(int src, std::span<const std::byte> imm, std::vector<std::byte>&& data)>;
  /// Rank-order combine for the NIC allreduce: fold `from` (the higher-rank
  /// operand) into `into` (the lower-rank accumulator), element order exact.
  using Combine = std::function<void(std::byte* into, const std::byte* from, std::size_t len)>;

  /// One offloaded collective: a binomial reduce to vrank 0 (phase 0, when
  /// `reduce_phase`) followed by a binomial release/broadcast from vrank 0
  /// (phase 1). Barrier = both phases with len 0; allreduce = both phases
  /// with a combine; bcast = release phase only, vranked around `root`.
  struct CollOp {
    std::uint32_t ctx = 0;   ///< Communicator context id.
    std::uint32_t seq = 0;   ///< Per-context collective sequence number.
    int rank = 0;            ///< Caller's rank in the communicator.
    int root = 0;            ///< Must be 0 when reduce_phase (rank-order combine).
    std::vector<int> tasks;  ///< rank -> task id map (communicator group).
    std::byte* buf = nullptr;
    std::size_t len = 0;
    bool reduce_phase = true;
    Combine combine;              ///< Null for barrier / bcast.
    std::function<void()> on_done;  ///< Fires in NIC/event context.
  };

  RdmaNic(sim::NodeRuntime& node, Hal& hal);

  RdmaNic(const RdmaNic&) = delete;
  RdmaNic& operator=(const RdmaNic&) = delete;

  void set_write_handler(WriteHandler fn) { write_handler_ = std::move(fn); }

  /// RDMA write with immediate. `data` is borrowed until `on_origin_done`
  /// fires (the NIC gathers directly from registered memory — no host copy).
  void post_write(int dst, std::vector<std::byte> imm, const std::byte* data, std::size_t len,
                  std::function<void()> on_origin_done);
  /// RDMA write whose payload the NIC owns (control traffic, NACK service).
  void post_write_owned(int dst, std::vector<std::byte> imm, std::vector<std::byte> data,
                        std::function<void()> on_origin_done = nullptr);

  /// Expose `len` bytes at `data` for remote RDMA reads; the returned token
  /// travels in the channel's RTS. Valid until deregister_region.
  [[nodiscard]] Token register_region(const std::byte* data, std::size_t len);
  void deregister_region(Token token);

  /// RDMA read: pull `len` bytes of peer `src`'s region `token` straight
  /// into `local` (scatter at offset, zero host copies). `on_done` fires in
  /// NIC/event context when the last byte lands.
  void post_read(int src, Token token, std::byte* local, std::size_t len,
                 std::function<void()> on_done);

  /// Start one offloaded collective. All members must call with the same
  /// (ctx, seq) in posting order; early messages for a not-yet-posted
  /// collective are stashed on the adapter.
  void coll_start(CollOp&& op);

  // --- statistics ---
  [[nodiscard]] std::int64_t writes() const noexcept { return writes_; }
  [[nodiscard]] std::int64_t reads() const noexcept { return reads_; }
  [[nodiscard]] std::int64_t nic_colls() const noexcept { return nic_colls_; }
  /// Reliability counters summed over this adapter's links (one per peer).
  [[nodiscard]] ReliableLink::Counters link_counters() const noexcept;

 private:
  struct Reassembly {
    std::uint8_t kind = 0;
    std::vector<std::byte> uhdr;
    std::vector<std::byte> data;
    std::size_t received = 0;
    std::size_t total = 0;
    std::uint64_t order = 0;  ///< kWrite: per-(src->dst) post order (RC QP).
    bool have_first = false;
  };
  /// Per-source RC ordering state: writes whose reassembly finished ahead of
  /// an earlier write (multipath reordering) wait here.
  struct WriteOrder {
    std::uint64_t expected = 1;
    std::map<std::uint64_t, Reassembly> held;
  };
  struct PendingRead {
    std::byte* local = nullptr;
    std::size_t len = 0;
    std::size_t received = 0;
    std::function<void()> on_done;
  };
  struct Region {
    const std::byte* data = nullptr;
    std::size_t len = 0;
  };
  struct CollState {
    CollOp op;
    bool bound = false;
    bool up_sent = false;      ///< Reduce contribution forwarded (or root done).
    std::uint32_t next_mask = 1;  ///< Next child mask to fold (rank order).
    /// (phase << 16 | from_vrank) -> payload, stashed until consumable.
    std::map<std::uint32_t, std::vector<std::byte>> stash;
  };

  MessageLink& link(int peer);
  void on_hal_packet(int src, std::span<const std::byte> bytes);
  void dispatch_message(int src, Reassembly&& m);
  void dispatch_write_in_order(int src, Reassembly&& m);
  void handle_read_req(int src, const PktHdr& h);
  void send_coll(int dst_task, std::uint32_t ctx, std::uint32_t seq, std::uint8_t phase,
                 std::uint16_t from_vrank, const std::byte* data, std::size_t len);
  void handle_coll(std::span<const std::byte> uhdr, std::vector<std::byte>&& data);
  void coll_progress(std::uint64_t key);

  sim::NodeRuntime& node_;
  Hal& hal_;
  WriteHandler write_handler_;

  std::map<int, std::unique_ptr<MessageLink>> links_;
  std::map<std::pair<int, std::uint64_t>, Reassembly> reassembly_;  ///< (src, msg_id).
  std::map<std::uint32_t, PendingRead> pending_reads_;
  std::map<Token, Region> regions_;
  std::map<std::uint64_t, CollState> colls_;  ///< (ctx << 32 | seq).
  std::map<int, std::uint64_t> write_seq_out_;  ///< Per-destination post order.
  std::map<int, WriteOrder> write_order_in_;

  std::uint64_t next_msg_id_ = 1;
  std::uint32_t next_read_id_ = 1;
  Token next_region_token_ = 1;

  std::int64_t writes_ = 0;
  std::int64_t reads_ = 0;
  std::int64_t nic_colls_ = 0;
};

}  // namespace sp::hal
