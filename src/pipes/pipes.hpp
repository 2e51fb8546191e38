// Pipes: the native MPI stack's reliable byte-stream layer (§2 of the paper).
//
// One logical pipe per destination provides an *ordered* reliable byte
// stream. Reliability — the sliding window, cumulative acks and go-back-N
// retransmission — is the shared hal::ReliableLink, one per peer. Packets the
// link hands up out of order (the switch has four routes per node pair) are
// held in a reorder buffer keyed by packet seq and delivered to the reader
// strictly in stream order.
//
// Copy accounting — the heart of the paper's argument:
//   send:    the first and last `pipe_copy_span_bytes` (16 KiB) of a message
//            are copied user buffer -> pipe buffer at write() time, then pipe
//            buffer -> HAL per packet (two copies); the middle of larger
//            messages is fed to HAL directly from the user buffer (one copy).
//   receive: every arriving packet is copied HAL buffer -> pipe buffer, and
//            the reader's consume() copies pipe buffer -> destination (user
//            or early-arrival buffer): always two copies.
// The LAPI stack replaces this layer and pays exactly one copy per side.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "hal/reliable_link.hpp"
#include "sim/node_runtime.hpp"

namespace sp::pipes {

class Pipes {
 public:
  Pipes(sim::NodeRuntime& node, hal::Hal& hal);

  Pipes(const Pipes&) = delete;
  Pipes& operator=(const Pipes&) = delete;

  /// Write one framed message to the stream toward `dst`: `prefix` (owned;
  /// typically the MPCI envelope) followed by `len` bytes at `data`
  /// (borrowed; must stay valid until `on_reusable` fires). `on_reusable`
  /// fires when the user buffer may be modified again.
  void write(int dst, std::vector<std::byte> prefix, const std::byte* data, std::size_t len,
             std::function<void()> on_reusable);

  /// Bytes currently readable, in order, from `src`.
  [[nodiscard]] std::size_t available(int src) const;

  /// Consume `n` bytes from the `src` stream into `out` (the pipe->user /
  /// pipe->early-arrival copy is charged). Precondition: n <= available(src).
  void consume(int src, std::byte* out, std::size_t n);

  /// Callback invoked (in event context) when new in-order bytes become
  /// readable from `src`.
  void set_on_data(std::function<void(int src)> fn) { on_data_ = std::move(fn); }

  /// Reliability counters summed over this node's pipes (one link per peer).
  [[nodiscard]] hal::ReliableLink::Counters link_counters() const;
  /// Data packets put on the wire (first sends; retransmits not included).
  [[nodiscard]] std::int64_t packets_sent() const { return link_counters().packets; }

  /// Test hook: the reliable link toward `peer`.
  [[nodiscard]] hal::ReliableLink& link_for_test(int peer) { return link(peer); }

 private:
  /// A span of one written message queued for transmission.
  struct OutSpan {
    std::vector<std::byte> owned;        ///< Pipe-buffered bytes (prefix/head/tail).
    const std::byte* borrowed = nullptr; ///< Direct-from-user middle span.
    std::size_t len = 0;
    std::function<void()> on_done;       ///< Fires when the span is fully staged.
  };

  /// One peer's pipe, both directions, over its reliable link.
  class Link final : public hal::ReliableLink {
   public:
    Link(sim::NodeRuntime& node, hal::Hal& hal, int peer);

    std::deque<OutSpan> queue;
    std::size_t span_next = 0;  ///< Bytes of the front span already staged.
    /// Packets that arrived ahead of a gap, keyed by seq.
    std::map<std::uint64_t, std::vector<std::byte>> reorder;
    std::deque<std::byte> rx;  ///< In-order readable bytes.

   private:
    /// Queued bytes, within the pipe_buffer_bytes budget of unacked data.
    [[nodiscard]] bool has_packet() const override;
    std::size_t build_packet(std::vector<std::byte>& payload) override;
    void packet_sent(std::size_t data_bytes) override;
  };

  Link& link(int peer);
  void on_hal_packet(int src, std::span<const std::byte> frame);

  sim::NodeRuntime& node_;
  hal::Hal& hal_;
  std::vector<std::unique_ptr<Link>> links_;
  std::function<void(int)> on_data_;
};

}  // namespace sp::pipes
