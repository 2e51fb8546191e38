// HAL: the packet layer over the switch adapter (Fig. 1 of the paper).
//
// Upper layers (Pipes, LAPI) hand the HAL one packet's worth of serialized
// bytes; the HAL charges the host-side handshake with the adapter microcode,
// models the adapter DMA engine (per-packet setup + per-byte transfer, one
// packet at a time), and injects the frame into the switch fabric. Inbound,
// frames are DMAed from the adapter into pinned HAL receive buffers and
// delivered to the registered protocol either immediately (polling mode — the
// paper's experiments poll inside blocking calls) or through the interrupt
// controller (interrupt mode), which reproduces the native stack's interrupt
// hysteresis scheme.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "net/switch_fabric.hpp"
#include "sim/node_runtime.hpp"

namespace sp::hal {

using ProtoId = std::uint8_t;
inline constexpr ProtoId kProtoPipes = 1;
inline constexpr ProtoId kProtoLapi = 2;
inline constexpr ProtoId kProtoRdma = 3;
inline constexpr int kMaxProto = 4;

class Hal {
 public:
  /// Upcall delivering one received packet's upper-layer bytes. The span
  /// views the pinned HAL receive buffer and is valid only for the duration
  /// of the call — protocols must copy what they keep (and charge that copy,
  /// which is exactly the paper's per-stack copy accounting).
  using RecvFn = std::function<void(int src, std::span<const std::byte>)>;

  Hal(sim::NodeRuntime& node, net::SwitchFabric& fabric);

  Hal(const Hal&) = delete;
  Hal& operator=(const Hal&) = delete;

  /// Register the receive upcall for protocol `proto`.
  void register_protocol(ProtoId proto, RecvFn fn);
  /// The upcall registered for `proto` (lets a test rig interpose on delivery).
  [[nodiscard]] const RecvFn& protocol(ProtoId proto) const { return protocols_[proto]; }

  /// Register a NIC-resident protocol (DESIGN.md §14). Inbound frames for a
  /// NIC protocol never touch the host: the adapter DMA uses the pre-posted
  /// descriptor cost (rdma_nic_pkt_ns) instead of the host-driven setup, the
  /// per-packet host handshake and the interrupt path are both skipped, and
  /// the upcall runs in adapter context at the moment the DMA lands.
  void register_nic_protocol(ProtoId proto, RecvFn fn);

  /// NIC-originated variant of send_packet: descriptors are pre-posted by the
  /// adapter engine, so no host CPU is charged and the per-packet DMA setup
  /// is rdma_nic_pkt_ns instead of adapter_packet_setup_ns. Shares the send
  /// DMA engine, the pinned-buffer pool, and wait_send_space with the host
  /// path.
  [[nodiscard]] bool send_packet_nic(int dst, ProtoId proto, std::span<const std::byte> payload,
                                     std::size_t modeled_payload_bytes = 0);

  /// Queue one packet for transmission. Returns false if all pinned HAL send
  /// buffers are in use (caller must retry from its on_send_space callback).
  /// `payload` is the upper layer's serialized header + data for ONE packet;
  /// it must fit the MTU plus the upper layer's own header allowance.
  /// `modeled_payload_bytes` is the size time is charged for (0 = real size);
  /// see net::Packet::modeled_bytes.
  [[nodiscard]] bool send_packet(int dst, ProtoId proto, std::span<const std::byte> payload,
                                 std::size_t modeled_payload_bytes = 0);

  /// Register a ONE-SHOT callback invoked (in event context) the next time a
  /// send buffer frees up. The waiter list is swapped and drained before the
  /// callbacks run, so a waiter that is still blocked simply re-registers and
  /// takes its turn at the *next* freed buffer — later registrants cannot be
  /// starved by an earlier one re-grabbing every buffer.
  void wait_send_space(std::function<void()> fn) {
    send_space_waiters_.push_back(std::move(fn));
  }

  /// Switch between polling delivery and interrupt delivery.
  void set_interrupt_mode(bool on) noexcept { interrupt_mode_ = on; }
  [[nodiscard]] bool interrupt_mode() const noexcept { return interrupt_mode_; }

  /// Enable the native stack's interrupt hysteresis (LAPI leaves it off).
  void set_hysteresis_enabled(bool on) noexcept { hysteresis_enabled_ = on; }

  [[nodiscard]] int node() const noexcept { return node_.node; }
  [[nodiscard]] sim::NodeRuntime& runtime() noexcept { return node_; }

  /// The machine-wide frame recycler (owned by the fabric). Upper layers may
  /// use it for buffers with packet-like lifetimes (e.g. retransmit stores).
  [[nodiscard]] net::FrameArena& arena() noexcept { return fabric_.arena(); }

  // --- statistics ---
  [[nodiscard]] std::int64_t packets_sent() const noexcept { return packets_sent_; }
  [[nodiscard]] std::int64_t packets_received() const noexcept { return packets_received_; }
  [[nodiscard]] std::int64_t interrupts_taken() const noexcept { return interrupts_taken_; }
  [[nodiscard]] int send_buffers_in_use() const noexcept { return send_buffers_in_use_; }
  /// Host bytes memcpy'd staging payloads into send frames (an un-modeled
  /// host-side copy; the modeled copies are charged by the upper layers).
  [[nodiscard]] std::int64_t staged_bytes() const noexcept { return staged_bytes_; }

 private:
  void on_frame_from_fabric(net::Packet&& pkt);
  void deliver_to_protocol(net::Packet&& pkt);
  void enter_interrupt();
  void interrupt_drain_and_maybe_wait(sim::TimeNs window);

  sim::NodeRuntime& node_;
  net::SwitchFabric& fabric_;

  void notify_send_space();

  [[nodiscard]] bool send_packet_impl(int dst, ProtoId proto, std::span<const std::byte> payload,
                                      std::size_t modeled_payload_bytes, bool nic_context);

  std::vector<RecvFn> protocols_;
  std::array<bool, kMaxProto> nic_proto_{};
  std::vector<std::function<void()>> send_space_waiters_;

  // Send side: adapter DMA engine availability and pinned-buffer pool.
  sim::TimeNs send_dma_free_at_ = 0;
  int send_buffers_in_use_ = 0;

  // Receive side.
  sim::TimeNs recv_dma_free_at_ = 0;
  std::deque<net::Packet> recv_pending_;  // arrived, not yet serviced (interrupt mode)
  bool interrupt_mode_ = false;
  bool hysteresis_enabled_ = false;
  bool interrupt_active_ = false;
  sim::TimeNs irq_entered_at_ = 0;  // start of the current interrupt episode

  std::int64_t packets_sent_ = 0;
  std::int64_t packets_received_ = 0;
  std::int64_t interrupts_taken_ = 0;
  std::int64_t staged_bytes_ = 0;
};

}  // namespace sp::hal
