#include "mpci/pipes_channel.hpp"

#include <cassert>
#include <memory>
#include <utility>

namespace sp::mpci {

PipesChannel::PipesChannel(sim::NodeRuntime& node, pipes::Pipes& pipes, int my_task,
                           int num_tasks)
    : Channel(node, num_tasks),
      pipes_(pipes),
      my_task_(my_task),
      parsers_(static_cast<std::size_t>(num_tasks)),
      send_seq_(static_cast<std::size_t>(num_tasks), 0) {
  pipes_.set_on_data([this](int src) { on_data(src); });
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

void PipesChannel::start_send(SendReq& req) {
  req.proto = choose_protocol(req.mode, req.len, req.dst);
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
    const bool needs_done = req.bsend_slot >= 0;
    if (needs_done) sreqs_.emplace(req.id, &req);
    pipes_.write(req.dst, pack(env), req.buf, req.len, [this, &req] {
      node_.publish([this, &req] {
        req.reusable = true;
        maybe_complete_send(req);
      });
    });
  } else {
    note_rendezvous_send(req.dst, req.len);
    sreqs_.emplace(req.id, &req);
    env.kind = static_cast<std::uint8_t>(EnvKind::kRts);
    pipes_.write(req.dst, pack(env), nullptr, 0, nullptr);
  }

  if (req.bsend_slot >= 0) {
    // Buffered sends complete immediately: the payload already lives in the
    // attach buffer; the slot is reclaimed when kRecvDone arrives.
    req.reusable = true;
    req.complete = true;
  }
}

void PipesChannel::progress(SendReq& req) {
  // The blocking rendezvous path (Fig. 6): the application thread, woken by
  // the CTS, pushes the data phase itself.
  if (req.proto == Protocol::kRendezvous && req.cts_received && !req.data_sent) {
    send_data_phase(req, req.rreq_cache);
  }
}

void PipesChannel::send_data_phase(SendReq& req, std::uint32_t rreq) {
  if (req.data_sent) return;  // progress() and the CTS path can race
  req.data_sent = true;
  Envelope env;
  env.ctx = static_cast<std::uint16_t>(req.ctx);
  env.src = static_cast<std::uint16_t>(req.src_in_comm);
  env.tag = req.tag;
  env.seq = req.seq;
  env.len = static_cast<std::uint32_t>(req.len);
  env.kind = static_cast<std::uint8_t>(EnvKind::kRtsData);
  env.sreq = req.id;
  env.rreq = rreq;
  if (req.bsend_slot >= 0) env.flags |= kFlagNotifyDone;
  pipes_.write(req.dst, pack(env), req.buf, req.len, [this, &req] {
    node_.publish([this, &req] {
      req.reusable = true;
      maybe_complete_send(req);
    });
  });
  if (req.bsend_slot < 0) sreqs_.erase(req.id);
}

void PipesChannel::maybe_complete_send(SendReq& req) {
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

void PipesChannel::send_control_env(int dst_task, const Envelope& env) {
  pipes_.write(dst_task, pack(env), nullptr, 0, nullptr);
}

void PipesChannel::send_cts(int dst_task, const Envelope& rts, RecvReq& r) {
  r.id = next_rreq_++;
  rreqs_.emplace(r.id, &r);
  r.status = Status{rts.src, rts.tag, rts.len};  // provisional
  Envelope cts;
  cts.kind = static_cast<std::uint8_t>(EnvKind::kCts);
  cts.sreq = rts.sreq;
  cts.rreq = r.id;
  send_control_env(dst_task, cts);
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void PipesChannel::on_data(int src) {
  Parser& p = parsers_[static_cast<std::size_t>(src)];
  for (;;) {
    if (p.in_payload) {
      const std::size_t n = std::min(p.remaining, pipes_.available(src));
      if (n == 0) return;
      pipes_.consume(src, p.sink, n);
      p.sink += n;
      p.remaining -= n;
      if (p.remaining > 0) return;
      p.in_payload = false;
      auto done = std::move(p.on_complete);
      if (done) done();
    } else {
      if (pipes_.available(src) < sizeof(Envelope)) return;
      std::byte raw[sizeof(Envelope)];
      pipes_.consume(src, raw, sizeof(Envelope));
      dispatch_envelope(src, unpack(raw), p);
    }
  }
}

void PipesChannel::receive_direct(int src, const Envelope& env, RecvReq& r, Parser& p) {
  auto done = [this, &r, env, src] {
    publish_recv_complete(r, env);
    ea_note_retired(src, env);
    if ((env.flags & kFlagNotifyDone) != 0) send_recv_done(src, env.sreq);
  };
  if (env.len == 0) {
    done();
    return;
  }
  p.in_payload = true;
  p.remaining = env.len;
  p.sink = r.buf;
  p.on_complete = std::move(done);
}

void PipesChannel::receive_into_ea(EaEntry& e, Parser& p) {
  p.in_payload = true;
  p.remaining = e.env.len;
  p.sink = e.data.data();
  p.on_complete = [this, ep = &e] {
    node_.publish([this, ep] {
      ep->arrived = true;
      if ((ep->env.flags & kFlagNotifyDone) != 0) send_recv_done(ep->src_task, ep->env.sreq);
      if (ep->bound != nullptr) deliver_from_ea(*ep->bound, *ep, /*app_context=*/false);
    });
  };
}

void PipesChannel::dispatch_envelope(int src, const Envelope& env, Parser& p) {
  switch (static_cast<EnvKind>(env.kind)) {
    case EnvKind::kEager: {
      RecvReq* r = match_posted(env);
      if (r != nullptr && env.len <= r->cap) {
        // Direct path: pipe buffer -> user buffer as bytes arrive.
        receive_direct(src, env, *r, p);
        return;
      }
      if (r == nullptr && (env.flags & kFlagReady) != 0) {
        throw FatalMpiError("ready-mode message arrived before its receive was posted");
      }
      if (r == nullptr && !try_ea_reserve(env.len)) {
        // EA pool exhausted: refuse the eager and fail it over to rendezvous.
        // The in-flight payload drains to scratch; the envelope stays behind
        // as a pseudo-RTS that, once matched, clears the *sender* to re-send
        // the data from its retained copy (previously this was fatal).
        ea_issue_nack(src, env);
        queue_ea({.env = env, .src_task = src, .arrived = true, .is_rts = true});
        if (env.len > 0) {
          auto scratch = std::make_shared<std::vector<std::byte>>(env.len);
          p.in_payload = true;
          p.remaining = env.len;
          p.sink = scratch->data();
          p.on_complete = [scratch] {};  // scratch outlives the drain, then drops
        }
        return;
      }
      // Early arrival (or truncation detour): stream into an EA buffer. An
      // empty message only gets here unmatched (it fits any receive), and
      // is complete at once.
      EaEntry& e = queue_ea({.env = env,
                             .src_task = src,
                             .data = std::vector<std::byte>(env.len),
                             .arrived = env.len == 0,
                             .counted = r == nullptr,  // the try_ea_reserve above succeeded
                             .bound = r});             // non-null on the truncation detour
      if (env.len > 0) receive_into_ea(e, p);
      return;
    }

    case EnvKind::kRts: {
      RecvReq* r = match_posted(env);
      if (r != nullptr) {
        send_cts(src, env, *r);
      } else {
        // An RTS carries no payload.
        queue_ea({.env = env, .src_task = src, .arrived = true, .is_rts = true});
      }
      return;
    }

    case EnvKind::kCts: {
      auto it = sreqs_.find(env.sreq);
      if (it == sreqs_.end() || it->second->proto == Protocol::kEager) {
        // A CTS for an eager send: the receiver NACKed it into a pseudo-RTS
        // and is now clearing us to re-send from the retained copy. (A plain
        // eager isn't in sreqs_ at all; a buffered one still is, waiting for
        // its kRecvDone, which the rendezvous completion will trigger.)
        serve_nacked(src, env.sreq, env.rreq);
        return;
      }
      SendReq* s = it->second;
      s->cts_received = true;
      s->rreq_cache = env.rreq;
      if (s->blocking) {
        // Wake the blocked sender; it pushes the data phase (Fig. 6).
        node_.publish([this, s] { s->cond.notify_all(node_.sim); });
      } else {
        send_data_phase(*s, env.rreq);
      }
      return;
    }

    case EnvKind::kRtsData: {
      auto it = rreqs_.find(env.rreq);
      assert(it != rreqs_.end() && "rendezvous data for unknown receive");
      RecvReq* r = it->second;
      rreqs_.erase(it);
      if (env.len <= r->cap) {
        receive_direct(src, env, *r, p);
      } else {
        receive_into_ea(queue_ea({.env = env,
                                  .src_task = src,
                                  .data = std::vector<std::byte>(env.len),
                                  .bound = r}),
                        p);
      }
      return;
    }

    case EnvKind::kRecvDone: {
      auto it = sreqs_.find(env.sreq);
      assert(it != sreqs_.end() && "RecvDone for unknown send request");
      SendReq* s = it->second;
      sreqs_.erase(it);
      node_.publish([this, s] {
        if (s->bsend_slot >= 0) bsend_.release(s->bsend_slot);
        s->bsend_released = true;
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

    case EnvKind::kRingCredit:
      assert(false && "ring credits are RDMA-channel traffic");
      return;
  }
}

void PipesChannel::serve_nacked(int dst_task, std::uint32_t sreq, std::uint32_t rreq) {
  const RetainedEager* ret = ea_retained(sreq);
  assert(ret != nullptr && "CTS for unknown send request (no retained NACK copy)");
  Envelope env = ret->env;
  env.kind = static_cast<std::uint8_t>(EnvKind::kRtsData);
  env.rreq = rreq;
  env.flags |= kFlagNackServed;
  // The retained vector stays alive until the receiver's credit retires it,
  // which is strictly after this data lands — safe to borrow.
  pipes_.write(dst_task, pack(env), ret->data.data(), ret->data.size(), nullptr);
}

void PipesChannel::post_recv(RecvReq& req) {
  auto it = select_ea(req.ctx, req.src_sel, req.tag_sel);
  if (it == ea_.end()) {
    posted_.push_back(&req);
    return;
  }
  if (it->is_rts) {
    // The sender is waiting for us: clear it to send (Fig. 9).
    send_cts(it->src_task, it->env, req);
    erase_ea(*it);
    return;
  }
  // Complete (and copy) now, or when the payload finishes arriving.
  deliver_or_bind(req, *it, /*app_context=*/true);
}

}  // namespace sp::mpci
