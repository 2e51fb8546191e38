#include "pipes/pipes.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sp::pipes {

Pipes::Link::Link(sim::NodeRuntime& node, hal::Hal& hal, int peer)
    : hal::ReliableLink(node, hal, peer,
                        Profile{.proto = hal::kProtoPipes,
                                .nic_context = false,
                                .retransmit_ev = sim::Ev::kPipeRetransmit,
                                .dup_ev = sim::Ev::kPipeDupRecv,
                                .ack_ev = sim::Ev::kPipeAck,
                                .header_bytes = node.cfg.pipe_header_bytes}) {}

Pipes::Pipes(sim::NodeRuntime& node, hal::Hal& hal)
    : node_(node), hal_(hal) {
  hal_.register_protocol(hal::kProtoPipes,
                         [this](int src, std::span<const std::byte> b) { on_hal_packet(src, b); });
  // No global send-space sweep: each destination pipe arms a one-shot HAL
  // waiter when (and only when) it actually stalls on send-buffer pressure.
}

Pipes::Link& Pipes::link(int peer) {
  const auto i = static_cast<std::size_t>(peer);
  if (links_.size() <= i) links_.resize(i + 1);
  if (!links_[i]) links_[i] = std::make_unique<Link>(node_, hal_, peer);
  return *links_[i];
}

hal::ReliableLink::Counters Pipes::link_counters() const {
  hal::ReliableLink::Counters sum;
  for (const auto& l : links_) {
    if (l) sum += l->counters();
  }
  return sum;
}

void Pipes::write(int dst, std::vector<std::byte> prefix, const std::byte* data, std::size_t len,
                  std::function<void()> on_reusable) {
  Link& l = link(dst);
  node_.cpu.charge(node_.sim, node_.cfg.pipe_call_overhead_ns);

  // Envelope span (owned, built by the caller).
  if (!prefix.empty()) {
    OutSpan env;
    env.len = prefix.size();
    env.owned = std::move(prefix);
    l.queue.push_back(std::move(env));
  }

  const std::size_t span = node_.cfg.pipe_copy_span_bytes;
  if (len <= 2 * span) {
    // Whole message goes through the pipe buffer: user -> pipe copy now.
    if (len > 0) {
      node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, len));
      OutSpan s;
      s.owned.assign(data, data + len);
      s.len = len;
      l.queue.push_back(std::move(s));
    }
    // User buffer already copied out: immediately reusable.
    if (on_reusable) on_reusable();
  } else {
    // Head and tail are pipe-buffered; the middle streams straight from the
    // user buffer to HAL (Snir et al.'s first/last-16 KiB rule).
    node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, 2 * span));
    OutSpan head;
    head.owned.assign(data, data + span);
    head.len = span;

    OutSpan mid;
    mid.borrowed = data + span;
    mid.len = len - 2 * span;
    mid.on_done = std::move(on_reusable);  // safe once the middle is staged

    OutSpan tail;
    tail.owned.assign(data + len - span, data + len);
    tail.len = span;

    l.queue.push_back(std::move(head));
    l.queue.push_back(std::move(mid));
    l.queue.push_back(std::move(tail));
  }
  l.pump();
}

bool Pipes::Link::has_packet() const {
  return !queue.empty() && in_flight_bytes() < node().cfg.pipe_buffer_bytes;
}

std::size_t Pipes::Link::build_packet(std::vector<std::byte>& payload) {
  // Fill one packet with up to MTU bytes, packing across span boundaries so
  // an envelope and a short payload share a packet (as the byte stream does).
  const std::size_t mtu = node().cfg.packet_mtu;
  std::size_t data_bytes = 0;
  while (!queue.empty() && data_bytes < mtu) {
    OutSpan& s = queue.front();
    const std::size_t chunk = std::min(s.len - span_next, mtu - data_bytes);
    const std::byte* src = (s.borrowed != nullptr ? s.borrowed : s.owned.data()) + span_next;
    payload.insert(payload.end(), src, src + chunk);
    data_bytes += chunk;
    span_next += chunk;
    if (span_next >= s.len) {
      auto done = std::move(s.on_done);
      queue.pop_front();
      span_next = 0;
      if (done) done();
    }
  }
  assert(data_bytes > 0);
  // The pipe/user -> HAL copy plus per-packet bookkeeping.
  node().cpu.charge(node().sim, sim::copy_cost(node().cfg, data_bytes) + node().cfg.pipe_packet_ns);
  return data_bytes;
}

void Pipes::Link::packet_sent(std::size_t data_bytes) {
  SP_TELEM(node(), sim::Ev::kPipeSend, static_cast<std::uint64_t>(peer()), data_bytes);
}

void Pipes::on_hal_packet(int src, std::span<const std::byte> frame) {
  const hal::LinkHdr lh = hal::parse_link_hdr(frame);
  Link& l = link(src);
  if (lh.ack != 0) {
    l.on_ack(lh.seq);
    return;
  }

  node_.cpu.charge(node_.sim, node_.cfg.pipe_packet_ns);
  // A duplicate (retransmission raced the ack) is re-acked by the link.
  const std::optional<std::uint64_t> seq = l.classify(lh.seq);
  if (!seq) return;

  // HAL buffer -> pipe buffer copy (always paid by the native stack). The
  // modeled copy is the same either way; on the host side, in-order packets
  // go straight from the receive frame into the stream buffer, and only
  // out-of-order ones need their own parking allocation.
  const std::span<const std::byte> body = frame.subspan(sizeof(hal::LinkHdr));
  node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, body.size()));
  if (*seq <= l.received_through()) {
    // Next in stream order: append it, then every parked packet it unblocked.
    l.rx.insert(l.rx.end(), body.begin(), body.end());
    while (!l.reorder.empty() && l.reorder.begin()->first <= l.received_through()) {
      auto it = l.reorder.begin();
      l.rx.insert(l.rx.end(), it->second.begin(), it->second.end());
      l.reorder.erase(it);
    }
  } else {
    // Out of order: park until the gap fills (ordering enforcement, §2).
    l.reorder.emplace(*seq, std::vector<std::byte>(body.begin(), body.end()));
  }

  SP_TELEM(node_, sim::Ev::kPipeDeliver, static_cast<std::uint64_t>(src), body.size());
  l.count_fresh();
  if (on_data_ && available(src) > 0) on_data_(src);
}

std::size_t Pipes::available(int src) const {
  const auto i = static_cast<std::size_t>(src);
  return i < links_.size() && links_[i] ? links_[i]->rx.size() : 0;
}

void Pipes::consume(int src, std::byte* out, std::size_t n) {
  Link& l = *links_[static_cast<std::size_t>(src)];
  assert(l.rx.size() >= n);
  // Pipe buffer -> destination copy (user buffer or early-arrival buffer).
  node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, n));
  std::copy(l.rx.begin(), l.rx.begin() + static_cast<std::ptrdiff_t>(n), out);
  l.rx.erase(l.rx.begin(), l.rx.begin() + static_cast<std::ptrdiff_t>(n));
}

}  // namespace sp::pipes
