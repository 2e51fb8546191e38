#include "hal/reliable_link.hpp"

#include <cassert>
#include <utility>

namespace sp::hal {

namespace {
/// Floor when re-arming the retransmit timer: an already-expired deadline
/// (e.g. a HAL-full retry) must not respin at the current instant.
constexpr sim::TimeNs kMinRetryDelayNs = 1'000;
}  // namespace

bool ReliableLink::hal_send(std::span<const std::byte> payload, std::size_t modeled) {
  return profile_.nic_context ? hal_.send_packet_nic(peer_, profile_.proto, payload, modeled)
                              : hal_.send_packet(peer_, profile_.proto, payload, modeled);
}

void ReliableLink::pump() {
  const auto window = static_cast<std::uint64_t>(node_.cfg.sliding_window_packets);
  while (has_packet() && (next_seq_ - 1) - acked_ < window) {
    if (hal_.send_buffers_in_use() >= node_.cfg.hal_send_buffers) {
      // Blocked on HAL send buffers (not the window): arm a one-shot waiter
      // so only links that actually stalled get woken when a buffer frees.
      if (!waiting_for_space_) {
        waiting_for_space_ = true;
        hal_.wait_send_space([this] {
          waiting_for_space_ = false;
          pump();
        });
      }
      break;
    }
    send_next();
  }
}

void ReliableLink::send_next() {
  const std::uint64_t seq = next_seq_++;
  std::vector<std::byte> payload = hal_.arena().acquire(sizeof(LinkHdr));
  const LinkHdr lh{static_cast<std::uint32_t>(seq), 0};
  std::memcpy(payload.data(), &lh, sizeof(LinkHdr));
  const std::size_t data_bytes = build_packet(payload);

  const std::size_t modeled = profile_.header_bytes + data_bytes;
  const bool sent = hal_send(payload, modeled);
  assert(sent && "pump() checked for HAL space");
  (void)sent;
  ++counters_.packets;
  in_flight_bytes_ += data_bytes;

  store_.emplace(seq, Stored{std::move(payload), modeled, node_.sim.now()});
  schedule_retransmit_check();
  packet_sent(data_bytes);
}

void ReliableLink::on_ack(std::uint32_t cum_wire) {
  if (!profile_.nic_context) node_.cpu.charge(node_.sim, node_.cfg.ack_processing_ns);
  const std::uint64_t cum = unwrap_seq(acked_, cum_wire);
  if (cum > acked_) acked_ = cum;
  const auto last = store_.upper_bound(cum);
  for (auto it = store_.begin(); it != last; ++it) {
    in_flight_bytes_ -= it->second.modeled_bytes - profile_.header_bytes;
    hal_.arena().release(std::move(it->second.payload));
  }
  store_.erase(store_.begin(), last);
  pump();
  if (drained()) drained_cond_.notify_all(node_.sim);
}

std::optional<std::uint64_t> ReliableLink::classify(std::uint32_t wire_seq) {
  const std::uint64_t seq = unwrap_seq(cum_in_, wire_seq);
  if (seq <= cum_in_ || ooo_in_.count(seq) != 0) {
    ++counters_.duplicates;
    SP_TELEM(node_, profile_.dup_ev, static_cast<std::uint64_t>(peer_), seq);
    // Re-advertise our cumulative position so the origin's retransmit loop
    // terminates, but coalesce: a go-back-N burst of N duplicates earns one
    // immediate re-ack; the rest fold into the delayed flush.
    // debug_disable_reack_coalescing re-introduces the per-duplicate re-ack
    // storm for the conformance explorer's self-test; it must never be set
    // otherwise.
    ack_pending_ = true;
    if (node_.cfg.debug_disable_reack_coalescing ||
        node_.sim.now() - last_reack_at_ >= node_.cfg.ack_delay_ns) {
      last_reack_at_ = node_.sim.now();
      send_ack();
    } else {
      ++counters_.reacks_coalesced;
      schedule_ack_flush();
    }
    return std::nullopt;
  }
  ooo_in_.insert(seq);
  while (!ooo_in_.empty() && *ooo_in_.begin() == cum_in_ + 1) {
    ooo_in_.erase(ooo_in_.begin());
    ++cum_in_;
  }
  return seq;
}

void ReliableLink::count_fresh() {
  ++unacked_count_;
  ack_pending_ = true;
  if (unacked_count_ >= node_.cfg.ack_every_packets) {
    send_ack();
  } else {
    schedule_ack_flush();
  }
}

void ReliableLink::send_ack() {
  const LinkHdr h{static_cast<std::uint32_t>(cum_in_), 1};
  if (!profile_.nic_context) node_.cpu.charge(node_.sim, node_.cfg.ack_processing_ns);
  // The HAL stages the payload into its frame before returning.
  if (hal_send(std::as_bytes(std::span(&h, 1)), profile_.header_bytes)) {
    unacked_count_ = 0;
    ack_pending_ = false;
    ++counters_.acks;
    SP_TELEM(node_, profile_.ack_ev, static_cast<std::uint64_t>(peer_), cum_in_);
  } else {
    // HAL full: the ack stays owed; retry from the flush timer. ack_pending_
    // (not unacked_count_) records the debt so a duplicate re-ack — which
    // arrives with unacked_count_ == 0 — is retried too, instead of leaving
    // the origin stuck on its retransmit timer.
    ack_pending_ = true;
    schedule_ack_flush();
  }
}

void ReliableLink::schedule_ack_flush() {
  if (ack_flush_scheduled_) return;
  ack_flush_scheduled_ = true;
  node_.sim.after(node_.cfg.ack_delay_ns, sim::sched_node_key(node_.node), [this] {
    ack_flush_scheduled_ = false;
    if (ack_pending_) send_ack();
  });
}

void ReliableLink::schedule_retransmit_check() {
  if (retransmit_scheduled_ || store_.empty()) return;
  retransmit_scheduled_ = true;
  // Fire when the *oldest* unacked packet reaches its timeout — re-arming a
  // full timeout from now would let a loss linger for up to 2x the timeout.
  // The floor keeps a HAL-full retry from spinning at the current instant.
  const sim::TimeNs deadline =
      store_.begin()->second.sent_at + node_.cfg.retransmit_timeout_ns;
  sim::TimeNs delay = deadline - node_.sim.now();
  if (delay < kMinRetryDelayNs) delay = kMinRetryDelayNs;
  node_.sim.after(delay, sim::sched_node_key(node_.node), [this] {
    retransmit_scheduled_ = false;
    if (store_.empty()) return;
    const sim::TimeNs age = node_.sim.now() - store_.begin()->second.sent_at;
    if (age >= node_.cfg.retransmit_timeout_ns) {
      // Go-back-N: resend everything unacknowledged.
      for (auto& [seq, s] : store_) {
        if (hal_send(s.payload, s.modeled_bytes)) {
          s.sent_at = node_.sim.now();
          ++counters_.retransmits;
          SP_TELEM(node_, profile_.retransmit_ev, static_cast<std::uint64_t>(peer_), seq);
        } else {
          break;  // HAL full; the rescheduled check will retry
        }
      }
    }
    schedule_retransmit_check();
  });
}

// --- MessageLink ------------------------------------------------------------

std::size_t MessageLink::build_packet(std::vector<std::byte>& payload) {
  assert(!queue_.empty());
  Pending& p = queue_.front();
  const std::byte* data = p.msg.owned.empty() ? p.msg.data : p.msg.owned.data();
  const std::size_t total = p.size();
  const bool first = !p.first_sent;
  const std::size_t uhdr_len = first ? p.msg.uhdr.size() : 0;
  const std::size_t mtu = node().cfg.packet_mtu;
  assert(uhdr_len <= mtu && "user header exceeds packet capacity");
  const std::size_t remaining = total - p.next_offset;
  const std::size_t chunk = remaining < mtu - uhdr_len ? remaining : mtu - uhdr_len;

  PktHdr h = p.msg.meta;
  h.offset = static_cast<std::uint32_t>(p.next_offset);
  h.data_len = static_cast<std::uint32_t>(chunk);
  h.total_len = static_cast<std::uint32_t>(total);
  h.flags = first ? kFlagFirst : 0;
  h.uhdr_len = static_cast<std::uint16_t>(uhdr_len);

  payload.reserve(payload.size() + sizeof(PktHdr) + uhdr_len + chunk);
  append_hdr(payload, h);
  payload.insert(payload.end(), p.msg.uhdr.begin(), p.msg.uhdr.begin() + uhdr_len);
  if (chunk > 0) {
    const std::byte* src = data + p.next_offset;
    payload.insert(payload.end(), src, src + chunk);
  }
  // The single origin-side copy: user buffer -> HAL staging. The NIC
  // profile gathers straight from registered memory (zero host copies).
  if (!profile().nic_context) {
    node().cpu.charge(node().sim, sim::copy_cost(node().cfg, chunk + uhdr_len));
  }

  p.first_sent = true;
  p.next_offset += chunk;
  return uhdr_len + chunk;
}

void MessageLink::packet_sent(std::size_t /*data_bytes*/) {
  Pending& p = queue_.front();
  if (p.next_offset < p.size()) return;
  auto done = std::move(p.msg.on_origin_done);
  queue_.pop_front();
  if (done) done();
}

}  // namespace sp::hal
