#include "hal/rdma_nic.hpp"

#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

namespace sp::hal {

namespace {
/// Immediate header of a NIC collective message (serialized as the uhdr).
struct CollWire {
  std::uint32_t ctx = 0;
  std::uint32_t seq = 0;
  std::uint16_t from = 0;  ///< Sender's vrank.
  std::uint8_t phase = 0;  ///< 0 = reduce, 1 = release/broadcast.
  std::uint8_t pad_ = 0;
};
static_assert(sizeof(CollWire) == 12);

[[nodiscard]] std::uint64_t coll_key(std::uint32_t ctx, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(ctx) << 32) | seq;
}
}  // namespace

RdmaNic::RdmaNic(sim::NodeRuntime& node, Hal& hal) : node_(node), hal_(hal) {
  hal_.register_nic_protocol(kProtoRdma, [this](int src, std::span<const std::byte> bytes) {
    on_hal_packet(src, bytes);
  });
}

MessageLink& RdmaNic::link(int peer) {
  auto it = links_.find(peer);
  if (it == links_.end()) {
    // Link events report under the lapi.* telemetry kinds: the adapter speaks
    // LAPI's message framing.
    const ReliableLink::Profile prof{.proto = kProtoRdma,
                                     .nic_context = true,
                                     .retransmit_ev = sim::Ev::kLapiRetransmit,
                                     .dup_ev = sim::Ev::kLapiDupRecv,
                                     .ack_ev = sim::Ev::kLapiAck,
                                     .header_bytes = node_.cfg.rdma_header_bytes};
    it = links_.emplace(peer, std::make_unique<MessageLink>(node_, hal_, peer, prof)).first;
  }
  return *it->second;
}

void RdmaNic::post_write(int dst, std::vector<std::byte> imm, const std::byte* data,
                         std::size_t len, std::function<void()> on_origin_done) {
  ++writes_;
  MessageLink::Message m;
  m.meta.kind = static_cast<std::uint8_t>(RdmaKind::kWrite);
  m.meta.msg_id = next_msg_id_++;
  m.meta.origin = static_cast<std::uint32_t>(hal_.node());
  m.meta.aux = ++write_seq_out_[dst];
  m.uhdr = std::move(imm);
  m.data = data;
  m.len = len;
  m.on_origin_done = std::move(on_origin_done);
  link(dst).submit(std::move(m));
}

void RdmaNic::post_write_owned(int dst, std::vector<std::byte> imm, std::vector<std::byte> data,
                               std::function<void()> on_origin_done) {
  ++writes_;
  MessageLink::Message m;
  m.meta.kind = static_cast<std::uint8_t>(RdmaKind::kWrite);
  m.meta.msg_id = next_msg_id_++;
  m.meta.origin = static_cast<std::uint32_t>(hal_.node());
  m.meta.aux = ++write_seq_out_[dst];
  m.uhdr = std::move(imm);
  m.owned = std::move(data);
  m.on_origin_done = std::move(on_origin_done);
  link(dst).submit(std::move(m));
}

Token RdmaNic::register_region(const std::byte* data, std::size_t len) {
  const Token t = next_region_token_++;
  regions_.emplace(t, Region{data, len});
  return t;
}

void RdmaNic::deregister_region(Token token) { regions_.erase(token); }

void RdmaNic::post_read(int src, Token token, std::byte* local, std::size_t len,
                        std::function<void()> on_done) {
  ++reads_;
  if (len == 0) {
    if (on_done) node_.sim.after(0, sim::sched_node_key(node_.node), std::move(on_done));
    return;
  }
  const std::uint32_t req_id = next_read_id_++;
  pending_reads_.emplace(req_id, PendingRead{local, len, 0, std::move(on_done)});
  MessageLink::Message m;
  m.meta.kind = static_cast<std::uint8_t>(RdmaKind::kReadReq);
  m.meta.msg_id = next_msg_id_++;
  m.meta.origin = static_cast<std::uint32_t>(hal_.node());
  m.meta.org_cntr = req_id;
  m.meta.aux = token;
  m.meta.aux2 = len;
  link(src).submit(std::move(m));
}

void RdmaNic::on_hal_packet(int src, std::span<const std::byte> frame) {
  const LinkHdr lh = parse_link_hdr(frame);
  if (lh.ack != 0) {
    link(src).on_ack(lh.seq);
    return;
  }
  if (!link(src).accept(lh.seq)) return;  // duplicate

  const std::span<const std::byte> bytes = frame.subspan(sizeof(LinkHdr));
  assert(bytes.size() >= kPktHdrBytes);
  const PktHdr h = parse_hdr(bytes);
  const std::size_t uhdr_off = kPktHdrBytes;
  const bool first = (h.flags & kFlagFirst) != 0;
  const std::size_t uhdr_len = first ? h.uhdr_len : 0;
  const std::span<const std::byte> uhdr = bytes.subspan(uhdr_off, uhdr_len);
  const std::span<const std::byte> data = bytes.subspan(uhdr_off + uhdr_len, h.data_len);

  switch (static_cast<RdmaKind>(h.kind)) {
    case RdmaKind::kReadResp: {
      // Scatter straight to offset in the reader's destination buffer: the
      // defining zero-copy property of the RDMA-read rendezvous.
      auto it = pending_reads_.find(static_cast<std::uint32_t>(h.org_cntr));
      assert(it != pending_reads_.end() && "read response without a pending read");
      PendingRead& r = it->second;
      assert(h.offset + h.data_len <= r.len);
      if (h.data_len > 0) std::memcpy(r.local + h.offset, data.data(), h.data_len);
      r.received += h.data_len;
      if (r.received >= r.len) {
        auto done = std::move(r.on_done);
        pending_reads_.erase(it);
        if (done) done();
      }
      return;
    }
    case RdmaKind::kReadReq:
      handle_read_req(src, h);
      return;
    case RdmaKind::kWrite:
    case RdmaKind::kColl: {
      auto [it, fresh] = reassembly_.try_emplace(std::make_pair(src, h.msg_id));
      Reassembly& r = it->second;
      if (fresh) {
        r.kind = h.kind;
        r.total = h.total_len;
        r.order = h.aux;
        r.data.resize(h.total_len);
      }
      if (first) {
        r.have_first = true;
        r.uhdr.assign(uhdr.begin(), uhdr.end());
      }
      if (h.data_len > 0) {
        std::memcpy(r.data.data() + h.offset, data.data(), h.data_len);
        r.received += h.data_len;
      }
      if (r.have_first && r.received >= r.total) {
        Reassembly done = std::move(r);
        reassembly_.erase(it);
        dispatch_message(src, std::move(done));
      }
      return;
    }
  }
  assert(false && "unknown RDMA wire kind");
}

void RdmaNic::dispatch_message(int src, Reassembly&& m) {
  if (m.kind == static_cast<std::uint8_t>(RdmaKind::kWrite)) {
    dispatch_write_in_order(src, std::move(m));
    return;
  }
  // Collective messages cost one NIC-processor dispatch before they act.
  node_.sim.after(node_.cfg.rdma_nic_msg_ns, sim::sched_node_key(node_.node),
                  [this, uhdr = std::move(m.uhdr), data = std::move(m.data)]() mutable {
                    handle_coll(uhdr, std::move(data));
                  });
}

void RdmaNic::dispatch_write_in_order(int src, Reassembly&& m) {
  // RC-QP ordering: the multipath fabric can finish reassembling two writes
  // in the opposite of their post order. Deliver to the channel strictly in
  // post order per source so envelope matching stays non-overtaking without
  // any parking logic above.
  WriteOrder& w = write_order_in_[src];
  if (m.order != w.expected) {
    w.held.emplace(m.order, std::move(m));
    return;
  }
  ++w.expected;
  assert(write_handler_ && "RDMA write with no channel handler");
  write_handler_(src, m.uhdr, std::move(m.data));
  while (!w.held.empty() && w.held.begin()->first == w.expected) {
    Reassembly next = std::move(w.held.begin()->second);
    w.held.erase(w.held.begin());
    ++w.expected;
    write_handler_(src, next.uhdr, std::move(next.data));
  }
}

void RdmaNic::handle_read_req(int src, const PktHdr& h) {
  // Served entirely by the target adapter: fetch the pre-registered region
  // descriptor and stream it back. The target host never runs.
  node_.sim.after(node_.cfg.rdma_nic_msg_ns, sim::sched_node_key(node_.node),
                  [this, src, token = h.aux, req_id = h.org_cntr, len = h.aux2] {
    auto it = regions_.find(token);
    assert(it != regions_.end() && "RDMA read of an unregistered region");
    const Region& region = it->second;
    const std::size_t n = len < region.len ? static_cast<std::size_t>(len) : region.len;
    MessageLink::Message m;
    m.meta.kind = static_cast<std::uint8_t>(RdmaKind::kReadResp);
    m.meta.msg_id = next_msg_id_++;
    m.meta.origin = static_cast<std::uint32_t>(hal_.node());
    m.meta.org_cntr = req_id;
    m.data = region.data;
    m.len = n;
    link(src).submit(std::move(m));
  });
}

void RdmaNic::send_coll(int dst_task, std::uint32_t ctx, std::uint32_t seq, std::uint8_t phase,
                        std::uint16_t from_vrank, const std::byte* data, std::size_t len) {
  CollWire w;
  w.ctx = ctx;
  w.seq = seq;
  w.from = from_vrank;
  w.phase = phase;
  std::vector<std::byte> uhdr(sizeof(CollWire));
  std::memcpy(uhdr.data(), &w, sizeof(CollWire));
  MessageLink::Message m;
  m.meta.kind = static_cast<std::uint8_t>(RdmaKind::kColl);
  m.meta.msg_id = next_msg_id_++;
  m.meta.origin = static_cast<std::uint32_t>(hal_.node());
  m.uhdr = std::move(uhdr);
  // Owned copy: the user vector keeps mutating (combine / release overwrite)
  // while lazily-materialized packets may still be queued behind the window.
  if (len > 0) m.owned.assign(data, data + len);
  link(dst_task).submit(std::move(m));
}

void RdmaNic::handle_coll(std::span<const std::byte> uhdr, std::vector<std::byte>&& data) {
  assert(uhdr.size() == sizeof(CollWire));
  CollWire w;
  std::memcpy(&w, uhdr.data(), sizeof(CollWire));
  const std::uint64_t key = coll_key(w.ctx, w.seq);
  CollState& st = colls_[key];  // may create an unbound stash-only state
  st.stash[(static_cast<std::uint32_t>(w.phase) << 16) | w.from] = std::move(data);
  coll_progress(key);
}

void RdmaNic::coll_start(CollOp&& op) {
  const std::uint64_t key = coll_key(op.ctx, op.seq);
  assert(!op.reduce_phase || op.root == 0);
  CollState& st = colls_[key];
  st.op = std::move(op);
  st.bound = true;
  if (static_cast<int>(st.op.tasks.size()) <= 1) {
    auto done = std::move(st.op.on_done);
    ++nic_colls_;
    colls_.erase(key);
    if (done) done();
    return;
  }
  coll_progress(key);
}

void RdmaNic::coll_progress(std::uint64_t key) {
  auto it = colls_.find(key);
  if (it == colls_.end() || !it->second.bound) return;
  CollState& st = it->second;
  CollOp& op = st.op;
  const int n = static_cast<int>(op.tasks.size());
  const int v = (op.rank - op.root + n) % n;  // vrank; == rank when reduce_phase
  auto task_of_vrank = [&](int u) { return op.tasks[static_cast<std::size_t>((u + op.root) % n)]; };

  if (op.reduce_phase && !st.up_sent) {
    // Binomial reduce toward vrank 0: fold children in increasing-mask order
    // (exact rank order — acc covers [v, v+mask), the child [v+mask, v+2mask)).
    while (true) {
      const int mask = static_cast<int>(st.next_mask);
      if (mask >= n) {
        st.up_sent = true;  // v == 0: the full reduction is in op.buf
        break;
      }
      if ((v & mask) != 0) {
        send_coll(task_of_vrank(v - mask), op.ctx, op.seq, 0, static_cast<std::uint16_t>(v),
                  op.buf, op.len);
        st.up_sent = true;
        break;
      }
      const int child = v + mask;
      if (child < n) {
        auto s = st.stash.find(static_cast<std::uint32_t>(child));
        if (s == st.stash.end()) return;  // wait for this child's partial
        if (op.combine && op.len > 0) {
          assert(s->second.size() == op.len);
          op.combine(op.buf, s->second.data(), op.len);
        }
        st.stash.erase(s);
      }
      st.next_mask <<= 1;
    }
  }

  // Release / broadcast phase (binomial from vrank 0).
  if (v == 0) {
    if (op.reduce_phase && !st.up_sent) return;
    for (std::uint32_t k = std::bit_ceil(static_cast<std::uint32_t>(n)) >> 1; k >= 1; k >>= 1) {
      if (static_cast<int>(k) < n) {
        send_coll(task_of_vrank(static_cast<int>(k)), op.ctx, op.seq, 1, 0, op.buf, op.len);
      }
    }
  } else {
    // Parent in the release tree is v with its LOWEST set bit cleared: the
    // root seeds vranks 2^i, and a node that came in on bit m fans out to
    // v + m/2 ... v + 1 (first divergence from the highest-bit formula is
    // v = 3, whose parent is 2, not 1).
    const int m = v & -v;
    auto s = st.stash.find((1u << 16) | static_cast<std::uint32_t>(v - m));
    if (s == st.stash.end()) return;  // wait for the parent's release
    if (op.len > 0) {
      assert(s->second.size() == op.len);
      std::memcpy(op.buf, s->second.data(), op.len);
    }
    st.stash.erase(s);
    for (std::uint32_t k = static_cast<std::uint32_t>(m) >> 1; k >= 1; k >>= 1) {
      if (v + static_cast<int>(k) < n) {
        send_coll(task_of_vrank(v + static_cast<int>(k)), op.ctx, op.seq, 1,
                  static_cast<std::uint16_t>(v), op.buf, op.len);
      }
    }
  }

  assert(st.stash.empty() && "collective completed with unconsumed messages");
  auto done = std::move(op.on_done);
  ++nic_colls_;
  colls_.erase(it);
  if (done) done();
}

ReliableLink::Counters RdmaNic::link_counters() const noexcept {
  ReliableLink::Counters sum;
  for (const auto& [peer, l] : links_) sum += l->counters();
  return sum;
}

}  // namespace sp::hal
