#include "hal/hal.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>

namespace sp::hal {

namespace {
[[nodiscard]] sim::TimeNs dma_time(const sim::MachineConfig& cfg, std::size_t bytes,
                                   bool nic_context = false) {
  // NIC-resident protocols run on pre-posted descriptors: the per-packet
  // setup collapses to the cut-through cost; the per-byte engine is shared.
  const sim::TimeNs setup = nic_context ? cfg.rdma_nic_pkt_ns : cfg.adapter_packet_setup_ns;
  return setup +
         static_cast<sim::TimeNs>(std::llround(cfg.adapter_ns_per_byte * static_cast<double>(bytes)));
}
}  // namespace

Hal::Hal(sim::NodeRuntime& node, net::SwitchFabric& fabric)
    : node_(node), fabric_(fabric), protocols_(kMaxProto) {
  fabric_.attach(node_.node, [this](net::Packet&& pkt) { on_frame_from_fabric(std::move(pkt)); });
}

void Hal::register_protocol(ProtoId proto, RecvFn fn) {
  assert(proto < kMaxProto);
  protocols_[proto] = std::move(fn);
}

void Hal::register_nic_protocol(ProtoId proto, RecvFn fn) {
  assert(proto < kMaxProto);
  protocols_[proto] = std::move(fn);
  nic_proto_[proto] = true;
}

bool Hal::send_packet(int dst, ProtoId proto, std::span<const std::byte> payload,
                      std::size_t modeled_payload_bytes) {
  return send_packet_impl(dst, proto, payload, modeled_payload_bytes, /*nic_context=*/false);
}

bool Hal::send_packet_nic(int dst, ProtoId proto, std::span<const std::byte> payload,
                          std::size_t modeled_payload_bytes) {
  return send_packet_impl(dst, proto, payload, modeled_payload_bytes, /*nic_context=*/true);
}

bool Hal::send_packet_impl(int dst, ProtoId proto, std::span<const std::byte> payload,
                           std::size_t modeled_payload_bytes, bool nic_context) {
  assert(payload.size() <= node_.cfg.packet_mtu + 512 && "packet exceeds MTU allowance");
  if (send_buffers_in_use_ >= node_.cfg.hal_send_buffers) return false;
  ++send_buffers_in_use_;
  ++packets_sent_;

  // Host-side handshake with the adapter microcode. NIC-originated packets
  // skip it: the adapter engine works from pre-posted descriptors.
  const sim::TimeNs cpu_done =
      nic_context ? node_.sim.now() : node_.cpu.charge(node_.sim, node_.cfg.hal_per_packet_cpu_ns);

  // Build the wire frame: HAL header (modelled as cfg.hal_header_bytes on the
  // wire; carries the protocol id) followed by the upper layer's bytes. The
  // payload is borrowed, so it must be staged into the frame before return.
  net::Packet pkt;
  pkt.src = node_.node;
  pkt.dst = dst;
  pkt.frame = fabric_.arena().acquire(node_.cfg.hal_header_bytes + payload.size());
  pkt.frame[0] = static_cast<std::byte>(proto);
  if (!payload.empty()) {
    std::memcpy(pkt.frame.data() + node_.cfg.hal_header_bytes, payload.data(), payload.size());
    staged_bytes_ += static_cast<std::int64_t>(payload.size());
  }
  if (modeled_payload_bytes != 0) {
    pkt.modeled_bytes = node_.cfg.hal_header_bytes + modeled_payload_bytes;
  }

  // Adapter DMA: one packet at a time, starting when both the descriptor is
  // posted (cpu_done) and the engine is free.
  const sim::TimeNs start = cpu_done > send_dma_free_at_ ? cpu_done : send_dma_free_at_;
  const sim::TimeNs injected_at = start + dma_time(node_.cfg, pkt.wire_bytes(), nic_context);
  send_dma_free_at_ = injected_at;

  SP_TELEM(node_, sim::Ev::kDmaStart, static_cast<std::uint64_t>(dst), pkt.wire_bytes());
  node_.sim.at(injected_at, [this, p = std::move(pkt)]() mutable {
    SP_TELEM(node_, sim::Ev::kDmaEnd, static_cast<std::uint64_t>(p.dst), p.wire_bytes());
    fabric_.inject(std::move(p));
    --send_buffers_in_use_;
    notify_send_space();
  });
  return true;
}

void Hal::notify_send_space() {
  if (send_space_waiters_.empty()) return;
  // Swap-and-drain: waiters registered *during* the callbacks (still-blocked
  // senders re-arming) land on the fresh list and wait for the next freed
  // buffer instead of being swept again in this round.
  auto waiters = std::move(send_space_waiters_);
  send_space_waiters_.clear();
  for (auto& fn : waiters) fn();
}

void Hal::on_frame_from_fabric(net::Packet&& pkt) {
  // DMA from adapter SRAM into a pinned HAL receive buffer. NIC-resident
  // protocols land in adapter SRAM rings on pre-posted descriptors (cheaper
  // setup) and are consumed by the adapter engine the moment the DMA ends —
  // no host handshake, no interrupt.
  assert(!pkt.frame.empty());
  const bool nic = nic_proto_[static_cast<ProtoId>(pkt.frame[0]) % kMaxProto];
  const sim::TimeNs now = node_.sim.now();
  const sim::TimeNs start = now > recv_dma_free_at_ ? now : recv_dma_free_at_;
  const sim::TimeNs host_visible = start + dma_time(node_.cfg, pkt.wire_bytes(), nic);
  recv_dma_free_at_ = host_visible;

  node_.sim.at(host_visible, sim::sched_node_key(node_.node),
               [this, nic, p = std::move(pkt)]() mutable {
    ++packets_received_;
    SP_TELEM(node_, sim::Ev::kRecvDma, static_cast<std::uint64_t>(p.src), p.wire_bytes());
    if (nic) {
      deliver_to_protocol(std::move(p));
    } else if (!interrupt_mode_) {
      // Polling mode: the paper's experiments poll inside blocking calls, so
      // dispatch proceeds as soon as the host CPU is free.
      node_.cpu.run(node_.sim, node_.cfg.hal_per_packet_cpu_ns,
                    [this, q = std::move(p)]() mutable { deliver_to_protocol(std::move(q)); });
    } else {
      recv_pending_.push_back(std::move(p));
      if (!interrupt_active_) {
        interrupt_active_ = true;
        node_.sim.after(node_.cfg.interrupt_latency_ns, sim::sched_node_key(node_.node),
                        [this] { enter_interrupt(); });
      }
    }
  });
}

void Hal::deliver_to_protocol(net::Packet&& pkt) {
  assert(!pkt.frame.empty());
  const auto proto = static_cast<ProtoId>(pkt.frame[0]);
  assert(proto < kMaxProto && protocols_[proto] && "frame for unregistered protocol");
  SP_TELEM(node_, sim::Ev::kHalDeliver, static_cast<std::uint64_t>(pkt.src), proto);
  // Zero-copy dispatch: the protocol sees the bytes in place in the pinned
  // receive buffer; the frame is recycled once the upcall returns.
  const std::span<const std::byte> upper{
      pkt.frame.data() + node_.cfg.hal_header_bytes,
      pkt.frame.size() - node_.cfg.hal_header_bytes};
  protocols_[proto](pkt.src, upper);
  fabric_.arena().release(std::move(pkt.frame));
}

void Hal::enter_interrupt() {
  ++interrupts_taken_;
  irq_entered_at_ = node_.sim.now();
  SP_TELEM(node_, sim::Ev::kIrqEnter, recv_pending_.size());
  // The handler (and its hysteresis busy-wait) occupies the CPU; completions
  // become visible to application threads only when it returns.
  node_.gate.close();
  node_.cpu.charge(node_.sim, node_.cfg.interrupt_service_ns);
  const sim::TimeNs window = hysteresis_enabled_ ? node_.cfg.interrupt_hysteresis_ns : 0;
  interrupt_drain_and_maybe_wait(window);
}

void Hal::interrupt_drain_and_maybe_wait(sim::TimeNs window) {
  // Service everything that has arrived.
  bool serviced_any = false;
  while (!recv_pending_.empty()) {
    serviced_any = true;
    net::Packet pkt = std::move(recv_pending_.front());
    recv_pending_.pop_front();
    node_.cpu.charge(node_.sim, node_.cfg.hal_per_packet_cpu_ns);
    deliver_to_protocol(std::move(pkt));
  }
  if (window > 0) {
    // Hysteresis: busy-wait `window` for more packets before returning. If
    // packets did arrive, service them and wait a grown window again.
    node_.sim.after(window, sim::sched_node_key(node_.node), [this, window, serviced_any] {
      if (!recv_pending_.empty()) {
        sim::TimeNs grown = static_cast<sim::TimeNs>(
            static_cast<double>(window) * node_.cfg.interrupt_hysteresis_growth);
        if (grown > node_.cfg.interrupt_hysteresis_max_ns) grown = node_.cfg.interrupt_hysteresis_max_ns;
        interrupt_drain_and_maybe_wait(grown);
      } else {
        (void)serviced_any;
        interrupt_active_ = false;
        const auto service_ns = static_cast<std::uint64_t>(node_.sim.now() - irq_entered_at_);
        SP_TELEM(node_, sim::Ev::kIrqExit, service_ns);
        SP_TELEM_HIST(node_, sim::Hist::kIrqServiceNs, service_ns);
        node_.gate.open();  // handler returns; completions become visible
      }
    });
  } else {
    interrupt_active_ = false;
    const auto service_ns = static_cast<std::uint64_t>(node_.sim.now() - irq_entered_at_);
    SP_TELEM(node_, sim::Ev::kIrqExit, service_ns);
    SP_TELEM_HIST(node_, sim::Hist::kIrqServiceNs, service_ns);
    node_.gate.open();
  }
}

}  // namespace sp::hal
