#include "lapi/lapi.hpp"

#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

namespace sp::lapi {

Lapi::Lapi(sim::NodeRuntime& node, hal::Hal& hal, LapiGroup& group, int task_id)
    : node_(node), hal_(hal), group_(group), task_id_(task_id),
      links_(static_cast<std::size_t>(group.size())) {
  group_.attach(task_id, this);
  hal_.register_protocol(hal::kProtoLapi,
                         [this](int src, std::span<const std::byte> b) { on_hal_packet(src, b); });
  // No global send-space sweep: each ReliableLink arms a one-shot HAL waiter
  // when (and only when) it actually stalls on send-buffer backpressure.
  // Handler id 0 is reserved for LAPI-internal control (gfence barrier).
  internal_barrier_handler_ = register_header_handler(
      [](int, const std::byte*, std::size_t, std::size_t) { return HeaderHandlerResult{}; });

  // Handler id 1: vector put. The user header carries the block table; the
  // payload is the packed concatenation, assembled into a scratch buffer and
  // scattered by the (predefined) completion handler.
  internal_vec_put_handler_ = register_header_handler(
      [this](int, const std::byte* uhdr, std::size_t, std::size_t total) {
        std::uint32_t n = 0;
        std::memcpy(&n, uhdr, 4);
        std::vector<std::pair<Token, std::uint64_t>> table(n);
        std::memcpy(table.data(), uhdr + 4, n * sizeof(table[0]));
        auto scratch = std::make_shared<std::vector<std::byte>>(total);
        HeaderHandlerResult res;
        res.buffer = scratch->data();
        res.inline_completion = true;
        res.completion = [this, table = std::move(table), scratch](void*) {
          std::size_t off = 0;
          std::size_t bytes = 0;
          for (const auto& [addr, len] : table) {
            std::memcpy(reinterpret_cast<std::byte*>(addr), scratch->data() + off, len);
            off += len;
            bytes += len;
          }
          node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, bytes));  // the scatter
        };
        return res;
      });

  // Handler id 2: vector-get reply; scatter into the pending request's
  // destination blocks at the origin, then fire its org counter.
  internal_getv_reply_handler_ = register_header_handler(
      [this](int, const std::byte* uhdr, std::size_t, std::size_t total) {
        std::uint32_t req_id = 0;
        std::memcpy(&req_id, uhdr, 4);
        auto scratch = std::make_shared<std::vector<std::byte>>(total);
        HeaderHandlerResult res;
        res.buffer = scratch->data();
        res.inline_completion = true;
        res.completion = [this, req_id, scratch](void*) {
          auto it = pending_getv_.find(req_id);
          assert(it != pending_getv_.end() && "getv reply for unknown request");
          std::size_t off = 0;
          std::size_t bytes = 0;
          for (std::size_t k = 0; k < it->second.dsts.size(); ++k) {
            std::memcpy(it->second.dsts[k], scratch->data() + off, it->second.lens[k]);
            off += it->second.lens[k];
            bytes += it->second.lens[k];
          }
          node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, bytes));
          bump_local(it->second.org);
          pending_getv_.erase(it);
        };
        return res;
      });
}

hal::ReliableLink::Profile Lapi::link_profile(const sim::MachineConfig& cfg) {
  return {.proto = hal::kProtoLapi,
          .nic_context = false,
          .retransmit_ev = sim::Ev::kLapiRetransmit,
          .dup_ev = sim::Ev::kLapiDupRecv,
          .ack_ev = sim::Ev::kLapiAck,
          .header_bytes = cfg.lapi_header_bytes};
}

hal::MessageLink& Lapi::link(int peer) {
  auto& l = links_[static_cast<std::size_t>(peer)];
  if (!l) l = std::make_unique<hal::MessageLink>(node_, hal_, peer, link_profile(node_.cfg));
  return *l;
}

int Lapi::register_header_handler(HeaderHandler fn) {
  handlers_.push_back(std::move(fn));
  return static_cast<int>(handlers_.size()) - 1;
}

void Lapi::maybe_app_charge(sim::TimeNs cost) {
  if (in_callback_ || in_header_handler_) return;
  node_.app_charge(cost);
}

void Lapi::check_not_in_header_handler(const char* fn) const {
  if (in_header_handler_) {
    throw LapiError(std::string("LAPI function called from a header handler: ") + fn);
  }
}

// --------------------------------------------------------------------------
// Origin-side operations
// --------------------------------------------------------------------------

void Lapi::amsend(int tgt, int handler_id, const void* uhdr, std::size_t uhdr_len,
                  const void* udata, std::size_t udata_len, Token tgt_cntr, Cntr* org_cntr,
                  Cntr* cmpl_cntr) {
  check_not_in_header_handler("LAPI_Amsend");
  assert(handler_id >= 0 && "unregistered header handler");
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns);

  hal::MessageLink::Message m;
  m.meta.kind = static_cast<std::uint8_t>(Kind::kAm);
  m.meta.msg_id = next_msg_id_++;
  m.meta.origin = static_cast<std::uint32_t>(task_id_);
  m.meta.handler_or_addr = static_cast<Token>(handler_id);
  m.meta.tgt_cntr = tgt_cntr;
  m.meta.cmpl_cntr = token_of(cmpl_cntr);
  if (uhdr_len > 0) {
    const auto* p = static_cast<const std::byte*>(uhdr);
    m.uhdr.assign(p, p + uhdr_len);
  }
  m.data = static_cast<const std::byte*>(udata);
  m.len = udata_len;
  if (org_cntr != nullptr) {
    m.on_origin_done = [this, org_cntr] { bump_local(org_cntr); };
  }
  ++messages_sent_;
  SP_TELEM(node_, sim::Ev::kAmSend, static_cast<std::uint64_t>(tgt), udata_len);
  link(tgt).submit(std::move(m));
}

void Lapi::put(int tgt, Token tgt_addr, const void* src, std::size_t len, Token tgt_cntr,
               Cntr* org_cntr, Cntr* cmpl_cntr) {
  check_not_in_header_handler("LAPI_Put");
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns);

  hal::MessageLink::Message m;
  m.meta.kind = static_cast<std::uint8_t>(Kind::kPut);
  m.meta.msg_id = next_msg_id_++;
  m.meta.origin = static_cast<std::uint32_t>(task_id_);
  m.meta.handler_or_addr = tgt_addr;
  m.meta.tgt_cntr = tgt_cntr;
  m.meta.cmpl_cntr = token_of(cmpl_cntr);
  m.data = static_cast<const std::byte*>(src);
  m.len = len;
  if (org_cntr != nullptr) {
    m.on_origin_done = [this, org_cntr] { bump_local(org_cntr); };
  }
  ++messages_sent_;
  link(tgt).submit(std::move(m));
}

void Lapi::get(int tgt, Token tgt_addr, void* origin_buf, std::size_t len, Token tgt_cntr,
               Cntr* org_cntr) {
  check_not_in_header_handler("LAPI_Get");
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns);

  PktHdr h;
  h.kind = static_cast<std::uint8_t>(Kind::kGetReq);
  h.origin = static_cast<std::uint32_t>(task_id_);
  h.handler_or_addr = tgt_addr;
  h.aux = token_of(static_cast<std::byte*>(origin_buf));
  h.org_cntr = token_of(org_cntr);
  h.tgt_cntr = tgt_cntr;
  h.total_len = 0;  // the request itself carries no data
  h.aux2 = static_cast<Token>(len);
  ++messages_sent_;
  send_internal(tgt, h, {});
}

void Lapi::rmw(int tgt, RmwOp op, Token tgt_var, std::int64_t in_val, std::int64_t cas_compare,
               std::int64_t* prev_out, Cntr* org_cntr) {
  check_not_in_header_handler("LAPI_Rmw");
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns);

  PktHdr h;
  h.kind = static_cast<std::uint8_t>(Kind::kRmwReq);
  h.origin = static_cast<std::uint32_t>(task_id_);
  h.handler_or_addr = tgt_var;
  h.op = static_cast<std::uint8_t>(op);
  h.aux = std::bit_cast<Token>(in_val);
  h.aux2 = std::bit_cast<Token>(cas_compare);
  h.tgt_cntr = token_of(prev_out);  // repurposed: where the reply writes prev
  h.org_cntr = token_of(org_cntr);
  ++messages_sent_;
  send_internal(tgt, h, {});
}

void Lapi::putv(int tgt, int n, const Token* tgt_addrs, const void* const* srcs,
                const std::size_t* lens, Token tgt_cntr, Cntr* org_cntr, Cntr* cmpl_cntr) {
  check_not_in_header_handler("LAPI_Putv");
  assert(n >= 0 && n <= kMaxVecBlocks && "block table must fit one packet");
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns);

  // Block table (user header) + packed payload (the origin-side gather).
  std::vector<std::byte> uhdr(4 + static_cast<std::size_t>(n) * 16);
  const auto n32 = static_cast<std::uint32_t>(n);
  std::memcpy(uhdr.data(), &n32, 4);
  std::size_t total = 0;
  for (int k = 0; k < n; ++k) {
    const std::uint64_t addr = tgt_addrs[k];
    const std::uint64_t len = lens[k];
    std::memcpy(uhdr.data() + 4 + static_cast<std::size_t>(k) * 16, &addr, 8);
    std::memcpy(uhdr.data() + 4 + static_cast<std::size_t>(k) * 16 + 8, &len, 8);
    total += lens[k];
  }
  std::vector<std::byte> packed(total);
  std::size_t off = 0;
  for (int k = 0; k < n; ++k) {
    std::memcpy(packed.data() + off, srcs[k], lens[k]);
    off += lens[k];
  }
  maybe_app_charge(sim::copy_cost(node_.cfg, total));  // the gather

  hal::MessageLink::Message m;
  m.meta.kind = static_cast<std::uint8_t>(Kind::kAm);
  m.meta.msg_id = next_msg_id_++;
  m.meta.origin = static_cast<std::uint32_t>(task_id_);
  m.meta.handler_or_addr = static_cast<Token>(internal_vec_put_handler_);
  m.meta.tgt_cntr = tgt_cntr;
  m.meta.cmpl_cntr = token_of(cmpl_cntr);
  m.uhdr = std::move(uhdr);
  m.owned = std::move(packed);
  if (org_cntr != nullptr) {
    m.on_origin_done = [this, org_cntr] { bump_local(org_cntr); };
  }
  ++messages_sent_;
  link(tgt).submit(std::move(m));
}

void Lapi::getv(int tgt, int n, const Token* tgt_addrs, void* const* dsts,
                const std::size_t* lens, Cntr* org_cntr) {
  check_not_in_header_handler("LAPI_Getv");
  assert(n >= 0 && n <= kMaxVecBlocks && "block table must fit one packet");
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns);

  const std::uint32_t req_id = next_getv_id_++;
  GetvPending pend;
  pend.dsts.assign(dsts, dsts + n);
  pend.lens.assign(lens, lens + n);
  pend.org = org_cntr;
  pending_getv_.emplace(req_id, std::move(pend));

  std::vector<std::byte> table(static_cast<std::size_t>(n) * 16);
  for (int k = 0; k < n; ++k) {
    const std::uint64_t addr = tgt_addrs[k];
    const std::uint64_t len = lens[k];
    std::memcpy(table.data() + static_cast<std::size_t>(k) * 16, &addr, 8);
    std::memcpy(table.data() + static_cast<std::size_t>(k) * 16 + 8, &len, 8);
  }
  PktHdr h;
  h.kind = static_cast<std::uint8_t>(Kind::kGetvReq);
  h.origin = static_cast<std::uint32_t>(task_id_);
  h.aux = static_cast<Token>(req_id);
  h.aux2 = static_cast<Token>(n);
  ++messages_sent_;
  send_internal(tgt, h, std::move(table));
}

void Lapi::handle_getv_request(const PktHdr& h, const std::byte* body) {
  const auto n = static_cast<std::size_t>(h.aux2);
  // Gather the requested blocks (target-side read).
  std::size_t total = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> table(n);
  std::memcpy(table.data(), body, n * 16);
  for (const auto& [addr, len] : table) total += len;
  std::vector<std::byte> packed(total);
  std::size_t off = 0;
  for (const auto& [addr, len] : table) {
    std::memcpy(packed.data() + off, reinterpret_cast<const std::byte*>(addr), len);
    off += len;
  }
  node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, total));

  // Reply as an internal active message to the origin's scatter handler.
  hal::MessageLink::Message m;
  m.meta.kind = static_cast<std::uint8_t>(Kind::kAm);
  m.meta.msg_id = next_msg_id_++;
  m.meta.origin = static_cast<std::uint32_t>(task_id_);
  m.meta.handler_or_addr = static_cast<Token>(internal_getv_reply_handler_);
  m.uhdr.resize(4);
  const auto req_id = static_cast<std::uint32_t>(h.aux);
  std::memcpy(m.uhdr.data(), &req_id, 4);
  m.owned = std::move(packed);
  link(static_cast<int>(h.origin)).submit(std::move(m));
}

void Lapi::send_internal(int tgt, PktHdr meta, std::vector<std::byte> owned_data) {
  meta.msg_id = next_msg_id_++;
  hal::MessageLink::Message m;
  m.meta = meta;
  m.owned = std::move(owned_data);
  link(tgt).submit(std::move(m));
}

// --------------------------------------------------------------------------
// Counters
// --------------------------------------------------------------------------

void Lapi::setcntr(Cntr& c, int value) {
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns / 4);
  c.value = value;
  c.cond.notify_all(node_.sim);
}

int Lapi::getcntr(const Cntr& c) {
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns / 4);
  return c.value;
}

void Lapi::waitcntr(Cntr& c, int value) {
  check_not_in_header_handler("LAPI_Waitcntr");
  if (in_callback_) {
    throw LapiError("LAPI_Waitcntr may not block inside a completion handler");
  }
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns / 4);
  assert(node_.thread != nullptr);
  while (c.value < value) {
    c.cond.wait(*node_.thread);
  }
  c.value -= value;
}

void Lapi::bump_local(Cntr* c) {
  if (c == nullptr) return;
  node_.publish([this, c] {
    ++c->value;
    c->cond.notify_all(node_.sim);
    if (c->on_bump) c->on_bump();
  });
}

void Lapi::bump_local_token(Token t) {
  bump_local(reinterpret_cast<Cntr*>(t));
}

// --------------------------------------------------------------------------
// Utility: address exchange, fences, environment
// --------------------------------------------------------------------------

std::vector<Token> Lapi::address_init(std::uint64_t exchange_id, Token mine) {
  check_not_in_header_handler("LAPI_Address_init");
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns);
  auto& ex = group_.exchanges_[exchange_id];
  if (ex.slots.empty()) ex.slots.resize(static_cast<std::size_t>(group_.size()), 0);
  ex.slots[static_cast<std::size_t>(task_id_)] = mine;
  ++ex.contributed;
  if (ex.contributed == group_.size()) {
    ex.done.notify_all(node_.sim);
  } else {
    assert(node_.thread != nullptr);
    ex.done.wait_until(*node_.thread, [&ex, this] { return ex.contributed >= group_.size(); });
  }
  return ex.slots;
}

void Lapi::fence(int tgt) {
  check_not_in_header_handler("LAPI_Fence");
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns);
  auto& l = link(tgt);
  assert(node_.thread != nullptr);
  l.drained_cond().wait_until(*node_.thread, [&l] { return l.drained(); });
}

void Lapi::gfence() {
  check_not_in_header_handler("LAPI_Gfence");
  const int n = group_.size();
  for (int t = 0; t < n; ++t) {
    if (t != task_id_) fence(t);
  }
  // Dissemination barrier over internal 0-data active messages whose target
  // counters are the per-round barrier counters of the peer task.
  int rounds = 0;
  for (int span = 1; span < n; span <<= 1) ++rounds;
  for (int r = 0; r < rounds; ++r) {
    const int partner = (task_id_ + (1 << r)) % n;
    Lapi* peer = group_.task(partner);
    assert(peer != nullptr);
    amsend(partner, internal_barrier_handler_, nullptr, 0, nullptr, 0,
           token_of(&peer->barrier_cntrs_[static_cast<std::size_t>(r)]), nullptr, nullptr);
    waitcntr(barrier_cntrs_[static_cast<std::size_t>(r)], 1);
  }
}

Lapi::Env Lapi::qenv() const {
  Env e;
  e.task_id = task_id_;
  e.num_tasks = group_.size();
  e.interrupt_on = hal_.interrupt_mode();
  e.max_uhdr_bytes = node_.cfg.packet_mtu - 128;
  e.max_data_bytes = static_cast<std::size_t>(1) << 31;
  e.inline_completion_allowed = inline_completion_allowed_;
  return e;
}

void Lapi::senv_interrupt(bool on) {
  maybe_app_charge(node_.cfg.lapi_call_overhead_ns / 4);
  hal_.set_interrupt_mode(on);
}

hal::ReliableLink::Counters Lapi::link_counters() const {
  hal::ReliableLink::Counters sum;
  for (const auto& l : links_) {
    if (l) sum += l->counters();
  }
  return sum;
}

// --------------------------------------------------------------------------
// Target-side dispatch
// --------------------------------------------------------------------------

void Lapi::on_hal_packet(int src, std::span<const std::byte> frame) {
  const hal::LinkHdr lh = hal::parse_link_hdr(frame);
  if (lh.ack != 0) {
    link(src).on_ack(lh.seq);
    return;
  }
  if (!link(src).accept(lh.seq)) {
    return;  // duplicate (retransmission already delivered)
  }
  const std::span<const std::byte> bytes = frame.subspan(sizeof(hal::LinkHdr));
  assert(bytes.size() >= sizeof(PktHdr));
  const PktHdr h = parse_hdr(bytes);
  const auto kind = static_cast<Kind>(h.kind);
  node_.cpu.charge(node_.sim, node_.cfg.lapi_dispatch_packet_ns);

  switch (kind) {
    case Kind::kAm:
    case Kind::kPut:
    case Kind::kGetRep:
      on_data_packet(h, bytes);
      break;
    case Kind::kGetReq:
      handle_get_request(h);
      break;
    case Kind::kGetvReq:
      handle_getv_request(h, bytes.data() + sizeof(PktHdr) + h.uhdr_len);
      break;
    case Kind::kRmwReq:
      handle_rmw_request(h);
      break;
    case Kind::kRmwRep: {
      if (h.tgt_cntr != 0) {
        *reinterpret_cast<std::int64_t*>(h.tgt_cntr) = std::bit_cast<std::int64_t>(h.aux);
      }
      bump_local_token(h.org_cntr);
      break;
    }
    case Kind::kCmplNotify:
      bump_local_token(h.handler_or_addr);
      break;
  }
}

void Lapi::handle_get_request(const PktHdr& h) {
  // Source the data and ship it back as a Put into the origin's buffer. The
  // origin-side org counter rides along as the reply's target counter (it is
  // bumped at the reply's destination — the origin).
  const auto len = static_cast<std::size_t>(h.aux2);
  PktHdr rep;
  rep.kind = static_cast<std::uint8_t>(Kind::kGetRep);
  rep.origin = static_cast<std::uint32_t>(task_id_);
  rep.handler_or_addr = h.aux;    // origin buffer address
  rep.tgt_cntr = h.org_cntr;      // bumped at origin on completion
  const auto* src = reinterpret_cast<const std::byte*>(h.handler_or_addr);
  std::vector<std::byte> data(src, src + len);
  bump_local_token(h.tgt_cntr);   // data has been sourced at the target
  send_internal(static_cast<int>(h.origin), rep, std::move(data));
}

void Lapi::handle_rmw_request(const PktHdr& h) {
  auto* var = reinterpret_cast<std::int64_t*>(h.handler_or_addr);
  const auto in_val = std::bit_cast<std::int64_t>(h.aux);
  const auto compare = std::bit_cast<std::int64_t>(h.aux2);
  const std::int64_t prev = *var;
  switch (static_cast<RmwOp>(h.op)) {
    case RmwOp::kFetchAndAdd: *var = prev + in_val; break;
    case RmwOp::kFetchAndOr: *var = prev | in_val; break;
    case RmwOp::kSwap: *var = in_val; break;
    case RmwOp::kCompareAndSwap:
      if (prev == compare) *var = in_val;
      break;
  }
  PktHdr rep;
  rep.kind = static_cast<std::uint8_t>(Kind::kRmwRep);
  rep.origin = static_cast<std::uint32_t>(task_id_);
  rep.tgt_cntr = h.tgt_cntr;  // where to write prev at the origin
  rep.org_cntr = h.org_cntr;
  rep.aux = std::bit_cast<Token>(prev);
  send_internal(static_cast<int>(h.origin), rep, {});
}

void Lapi::on_data_packet(const PktHdr& h, std::span<const std::byte> payload) {
  const auto key = std::make_pair(h.origin, h.msg_id);
  auto [it, created] = reass_.try_emplace(key);
  Reassembly& r = it->second;
  if (created) {
    r.total = h.total_len;
    r.meta = h;
  }

  const std::byte* body = payload.data() + sizeof(PktHdr) + h.uhdr_len;
  const auto kind = static_cast<Kind>(h.kind);

  if (kind == Kind::kPut || kind == Kind::kGetRep) {
    if (!r.resolved) {
      r.buffer = reinterpret_cast<std::byte*>(h.handler_or_addr);
      r.resolved = true;
    }
  } else if (kind == Kind::kAm && !r.resolved) {
    if ((h.flags & kFlagFirst) != 0) {
      // Run the header handler (Fig. 2 step 2) in dispatcher context.
      ++header_handlers_run_;
      SP_TELEM(node_, sim::Ev::kHeaderHandler, h.origin, h.total_len);
      node_.cpu.charge(node_.sim, node_.cfg.header_handler_ns);
      const auto id = static_cast<std::size_t>(h.handler_or_addr);
      assert(id < handlers_.size() && "unknown header handler id");
      in_header_handler_ = true;
      HeaderHandlerResult res =
          handlers_[id](static_cast<int>(h.origin),
                        h.uhdr_len > 0 ? payload.data() + sizeof(PktHdr) : nullptr,
                        h.uhdr_len, h.total_len);
      in_header_handler_ = false;
      r.buffer = res.buffer;
      r.completion = std::move(res.completion);
      r.cookie = res.cookie;
      r.inline_completion = res.inline_completion;
      r.resolved = true;
      r.meta = h;  // the first packet carries the authoritative tokens
      // Drain any packets that overtook the first one across routes.
      for (auto& [off, bytes] : r.stash) {
        place_data(r, off, bytes.data(), bytes.size());
      }
      r.stash.clear();
    } else {
      // Arrived before the first packet: stash until the header handler runs.
      node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, h.data_len));
      r.stash.emplace_back(h.offset,
                           std::vector<std::byte>(body, body + h.data_len));
      return;
    }
  }

  place_data(r, h.offset, body, h.data_len);
  if (r.resolved && r.received >= r.total) {
    finish_message(h.origin, h.msg_id);
  }
}

void Lapi::place_data(Reassembly& r, std::uint32_t offset, const std::byte* data,
                      std::size_t len) {
  if (len > 0) {
    // The single LAPI target-side copy: HAL receive buffer -> user buffer,
    // directly at the right offset (out-of-order packets need no reordering).
    node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, len));
    if (r.buffer != nullptr) {
      std::memcpy(r.buffer + offset, data, len);
    }
  }
  r.received += len;
}

void Lapi::finish_message(std::uint64_t key_origin, std::uint64_t msg_id) {
  const auto key = std::make_pair(static_cast<std::uint32_t>(key_origin), msg_id);
  auto it = reass_.find(key);
  assert(it != reass_.end());
  Reassembly r = std::move(it->second);
  reass_.erase(it);

  auto post_steps = [this, meta = r.meta] {
    bump_local_token(meta.tgt_cntr);
    if (meta.cmpl_cntr != 0) {
      PktHdr n;
      n.kind = static_cast<std::uint8_t>(Kind::kCmplNotify);
      n.origin = static_cast<std::uint32_t>(task_id_);
      n.handler_or_addr = meta.cmpl_cntr;
      send_internal(static_cast<int>(meta.origin), n, {});
    }
  };

  if (r.completion) {
    if (r.inline_completion && inline_completion_allowed_) {
      // Enhanced LAPI (§5.3): predefined completion handler in dispatcher
      // context — no thread switch on the critical path.
      ++completion_inline_runs_;
      SP_TELEM(node_, sim::Ev::kCompletionInline);
      node_.cpu.charge(node_.sim, node_.cfg.completion_inline_ns);
      in_callback_ = true;
      r.completion(r.cookie);
      in_callback_ = false;
      post_steps();
    } else {
      // Stock LAPI: completion handlers run on a separate thread; the two
      // context switches dominate the Base MPI-LAPI's overhead (§5.1).
      ++completion_thread_dispatches_;
      SP_TELEM(node_, sim::Ev::kCompletionThread);
      node_.sim.after(node_.cfg.completion_thread_switch_ns, sim::sched_node_key(node_.node),
                      [this, completion = std::move(r.completion), cookie = r.cookie,
                       post_steps]() mutable {
                        in_callback_ = true;
                        completion(cookie);
                        in_callback_ = false;
                        post_steps();
                      });
    }
  } else {
    post_steps();
  }
}

}  // namespace sp::lapi
