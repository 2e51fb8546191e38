#include "mpci/rdma_channel.hpp"

#include <cassert>
#include <cstring>
#include <utility>

namespace sp::mpci {

namespace {
/// RTS immediate: envelope + the sender's 8-byte region token.
[[nodiscard]] std::vector<std::byte> pack_rts(const Envelope& env, lapi::Token token) {
  std::vector<std::byte> imm(sizeof(Envelope) + sizeof(token));
  std::memcpy(imm.data(), &env, sizeof(Envelope));
  std::memcpy(imm.data() + sizeof(Envelope), &token, sizeof(token));
  return imm;
}
}  // namespace

RdmaChannel::RdmaChannel(sim::NodeRuntime& node, hal::RdmaNic& nic, int my_task, int num_tasks)
    : Channel(node, num_tasks),
      nic_(nic),
      my_task_(my_task),
      send_seq_(static_cast<std::size_t>(num_tasks), 0) {
  nic_.set_write_handler(
      [this](int src, std::span<const std::byte> imm, std::vector<std::byte>&& data) {
        on_write(src, imm, std::move(data));
      });
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

void RdmaChannel::start_send(SendReq& req) {
  node_.app_charge(node_.cfg.rdma_doorbell_ns);  // ring the doorbell
  req.proto = choose_protocol(req.mode, req.len, req.dst);
  if (req.proto == Protocol::kEager && req.mode != Mode::kReady && req.len > 0) {
    // Eager ring admission: one pre-posted slot per non-ready eager. Out of
    // slots -> the message travels as rendezvous instead (the receiver will
    // pull it; no retry traffic). Ready-mode bypasses the ring: its payload
    // lands straight in the posted receive buffer.
    auto [it, fresh] = ring_credits_.try_emplace(req.dst, node_.cfg.rdma_ring_slots);
    if (it->second == 0) {
      ++ea_fallbacks_;
      req.proto = Protocol::kRendezvous;
    } else {
      --it->second;
    }
  }
  req.id = next_sreq_++;

  Envelope env;
  env.ctx = static_cast<std::uint16_t>(req.ctx);
  env.src = static_cast<std::uint16_t>(req.src_in_comm);
  env.tag = req.tag;
  req.seq = send_seq_[static_cast<std::size_t>(req.dst)]++;
  env.seq = req.seq;
  env.len = static_cast<std::uint32_t>(req.len);
  env.sreq = req.id;
  if (req.mode == Mode::kReady) env.flags |= kFlagReady;
  if (req.bsend_slot >= 0) env.flags |= kFlagNotifyDone;

  if (req.proto == Protocol::kEager) {
    note_eager_send(req.dst, req.len);
    env.kind = static_cast<std::uint8_t>(EnvKind::kEager);
    ea_note_eager_departure(req.dst, env, req.buf);
    if (req.bsend_slot >= 0) sreqs_.emplace(req.id, &req);
    nic_.post_write(req.dst, pack(env), req.buf, req.len, [this, &req] {
      node_.publish([this, &req] {
        req.reusable = true;
        maybe_complete_send(req);
      });
    });
  } else {
    note_rendezvous_send(req.dst, req.len);
    sreqs_.emplace(req.id, &req);
    env.kind = static_cast<std::uint8_t>(EnvKind::kRts);
    lapi::Token token = 0;
    if (req.len > 0) {
      token = nic_.register_region(req.buf, req.len);
      send_regions_.emplace(req.id, token);
    }
    nic_.post_write(req.dst, pack_rts(env, token), nullptr, 0, nullptr);
  }

  if (req.bsend_slot >= 0) {
    // Buffered sends complete immediately: the payload lives in the attach
    // buffer (which RDMA reads can pull from); the slot is reclaimed when
    // the FIN / kRecvDone arrives.
    req.reusable = true;
    req.complete = true;
  }
}

void RdmaChannel::progress(SendReq&) {
  // Nothing for the application thread to push: the rendezvous data phase is
  // the *receiver's* RDMA read, and completion arrives with the FIN.
}

void RdmaChannel::maybe_complete_send(SendReq& req) {
  if (req.complete) {
    req.cond.notify_all(node_.sim);
    return;
  }
  const bool done = (req.proto == Protocol::kEager) ? req.reusable
                                                    : (req.data_sent && req.reusable);
  if (done) {
    req.complete = true;
    req.cond.notify_all(node_.sim);
  }
}

void RdmaChannel::send_control_env(int dst_task, const Envelope& env) {
  // Control envelopes are immediate-only RDMA writes: NIC context end to
  // end, no host charge (safe from both rank-fiber and event context).
  nic_.post_write(dst_task, pack(env), nullptr, 0, nullptr);
}

void RdmaChannel::serve_nacked(int dst_task, std::uint32_t sreq, std::uint32_t rreq) {
  const RetainedEager* ret = ea_retained(sreq);
  assert(ret != nullptr && "CTS for unknown send request (no retained NACK copy)");
  Envelope env = ret->env;
  env.kind = static_cast<std::uint8_t>(EnvKind::kRtsData);
  env.rreq = rreq;
  env.flags |= kFlagNackServed;
  // The retained vector lives until the receiver's credit retires it, which
  // is strictly after this data lands — safe to borrow.
  nic_.post_write(dst_task, pack(env), ret->data.data(), ret->data.size(), nullptr);
}

void RdmaChannel::ring_slot_freed(int src) {
  auto& freed = ring_freed_[src];
  ++freed;
  const std::size_t batch = std::max<std::size_t>(1, node_.cfg.rdma_ring_slots / 4);
  if (freed >= batch) {
    Envelope c;
    c.kind = static_cast<std::uint8_t>(EnvKind::kRingCredit);
    c.len = static_cast<std::uint32_t>(freed);
    send_control_env(src, c);
    freed = 0;
  }
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void RdmaChannel::on_write(int src, std::span<const std::byte> imm,
                           std::vector<std::byte>&& data) {
  assert(imm.size() >= sizeof(Envelope) && "RDMA write without an envelope immediate");
  const Envelope env = unpack(imm.data());
  // Reap one completion-queue entry per delivered message.
  node_.cpu.charge(node_.sim, node_.cfg.rdma_cq_ns);

  switch (static_cast<EnvKind>(env.kind)) {
    case EnvKind::kEager:
      handle_eager(src, env, std::move(data));
      return;

    case EnvKind::kRts: {
      lapi::Token token = 0;
      assert(imm.size() >= sizeof(Envelope) + sizeof(token));
      std::memcpy(&token, imm.data() + sizeof(Envelope), sizeof(token));
      RecvReq* r = match_posted(env);
      if (r != nullptr) {
        start_read(*r, env, src, token, /*app_context=*/false);
      } else {
        queue_ea(
            {.env = env, .src_task = src, .arrived = true, .is_rts = true, .token = token});
      }
      return;
    }

    case EnvKind::kRtsData: {
      // Only NACK-served data travels this way (normal rendezvous is a read).
      auto it = rreqs_.find(env.rreq);
      assert(it != rreqs_.end() && "rendezvous data for unknown receive");
      RecvReq* r = it->second;
      rreqs_.erase(it);
      receive_direct(src, env, *r, data);
      return;
    }

    case EnvKind::kCts: {
      // Normal rendezvous never sends a CTS here; this is the receiver
      // clearing a NACKed eager to be re-sent from the retained copy.
      serve_nacked(src, env.sreq, env.rreq);
      return;
    }

    case EnvKind::kRecvDone: {
      auto it = sreqs_.find(env.sreq);
      assert(it != sreqs_.end() && "RecvDone for unknown send request");
      SendReq* s = it->second;
      sreqs_.erase(it);
      if (s->proto == Protocol::kRendezvous) {
        auto rt = send_regions_.find(s->id);
        if (rt != send_regions_.end()) {
          nic_.deregister_region(rt->second);
          send_regions_.erase(rt);
        }
        s->data_sent = true;
      }
      node_.publish([this, s] {
        if (s->bsend_slot >= 0) bsend_.release(s->bsend_slot);
        s->bsend_released = true;
        s->reusable = true;
        maybe_complete_send(*s);
        s->cond.notify_all(node_.sim);
      });
      return;
    }

    case EnvKind::kEaCredit:
      ea_on_credit(src, env);
      return;

    case EnvKind::kEaNack:
      ea_on_nack(env);
      return;

    case EnvKind::kRingCredit: {
      auto [it, fresh] = ring_credits_.try_emplace(src, node_.cfg.rdma_ring_slots);
      if (!fresh) it->second += env.len;
      return;
    }
  }
  assert(false && "unknown envelope kind on the RDMA channel");
}

void RdmaChannel::handle_eager(int src, const Envelope& env, std::vector<std::byte>&& data) {
  // The payload just left the ring (moved to us): recycle the slot now,
  // regardless of what happens to the message.
  if ((env.flags & kFlagReady) == 0 && env.len > 0) ring_slot_freed(src);

  RecvReq* r = match_posted(env);
  if (r != nullptr) {
    receive_direct(src, env, *r, data);
    return;
  }

  if ((env.flags & kFlagReady) != 0) {
    throw FatalMpiError("ready-mode message arrived before its receive was posted");
  }

  if (!try_ea_reserve(env.len)) {
    // EA pool exhausted: drop the payload, NACK the sender, and leave the
    // envelope behind as a pseudo-RTS — once matched, a CTS clears the
    // sender to re-send from its retained copy (previously this was fatal).
    ea_issue_nack(src, env);
    queue_ea({.env = env, .src_task = src, .arrived = true, .is_rts = true});
    return;
  }

  queue_ea({.env = env,
            .src_task = src,
            .data = std::move(data),
            .arrived = true,
            .counted = true});
  // The payload is safely buffered: the sender's attach slot can go.
  if ((env.flags & kFlagNotifyDone) != 0) send_recv_done(src, env.sreq);
}

void RdmaChannel::receive_direct(int src, const Envelope& env, RecvReq& r,
                                 const std::vector<std::byte>& data) {
  const std::size_t n = std::min<std::size_t>(env.len, r.cap);
  node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, n));
  if (n > 0) std::memcpy(r.buf, data.data(), n);
  publish_recv_complete(r, env);
  ea_note_retired(src, env);
  if ((env.flags & kFlagNotifyDone) != 0) send_recv_done(src, env.sreq);
}

void RdmaChannel::start_read(RecvReq& req, const Envelope& env, int src, lapi::Token token,
                             bool app_context) {
  req.id = next_rreq_++;
  req.status = Status{env.src, env.tag, env.len};  // provisional
  const std::size_t n = std::min<std::size_t>(env.len, req.cap);
  if (n == 0) {
    publish_recv_complete(req, env);
    send_recv_done(src, env.sreq);
    return;
  }
  // Post the read descriptor (a host doorbell), then the NIC pulls the
  // payload straight into the user buffer — zero host copies on both sides.
  if (app_context) {
    node_.app_charge(node_.cfg.rdma_doorbell_ns);
  } else {
    node_.cpu.charge(node_.sim, node_.cfg.rdma_doorbell_ns);
  }
  nic_.post_read(src, token, req.buf, n, [this, &req, env, src] {
    node_.cpu.charge(node_.sim, node_.cfg.rdma_cq_ns);  // reap the read CQE
    publish_recv_complete(req, env);
    send_recv_done(src, env.sreq);
  });
}

void RdmaChannel::post_recv(RecvReq& req) {
  auto it = select_ea(req.ctx, req.src_sel, req.tag_sel);
  if (it == ea_.end()) {
    posted_.push_back(&req);
    return;
  }
  if (!it->is_rts) {
    deliver_from_ea(req, *it, /*app_context=*/true);
    return;
  }
  const Envelope env = it->env;
  const int src = it->src_task;
  const lapi::Token token = it->token;
  erase_ea(*it);
  if (env.kind == static_cast<std::uint8_t>(EnvKind::kRts)) {
    // Real RTS: pull the payload ourselves.
    start_read(req, env, src, token, /*app_context=*/true);
    return;
  }
  // NACKed eager turned pseudo-RTS: clear the sender to re-send.
  req.id = next_rreq_++;
  rreqs_.emplace(req.id, &req);
  req.status = Status{env.src, env.tag, env.len};
  Envelope cts;
  cts.kind = static_cast<std::uint8_t>(EnvKind::kCts);
  cts.sreq = env.sreq;
  cts.rreq = req.id;
  send_control_env(src, cts);
}

}  // namespace sp::mpci
