#include "mpci/lapi_channel.hpp"

#include <cassert>
#include <utility>

namespace sp::mpci {

namespace {
constexpr std::uint64_t kRingExchangeBase = 0xC0DE0000ULL;
}  // namespace

LapiChannel::LapiChannel(sim::NodeRuntime& node, lapi::Lapi& lapi, LapiVariant variant,
                         int my_task, int num_tasks)
    : Channel(node, num_tasks),
      lapi_(lapi),
      variant_(variant),
      my_task_(my_task),
      send_seq_(static_cast<std::size_t>(num_tasks), 0),
      expected_(static_cast<std::size_t>(num_tasks), 0),
      parked_(static_cast<std::size_t>(num_tasks)),
      drain_scheduled_(static_cast<std::size_t>(num_tasks), false),
      ring_out_(static_cast<std::size_t>(num_tasks), 0),
      slot_next_(static_cast<std::size_t>(num_tasks), 0) {
  // The paper's §5.3 enhancement is a property of the LAPI library itself.
  lapi_.set_inline_completion_allowed(variant_ == LapiVariant::kEnhanced);

  if (variant_ == LapiVariant::kCounters) {
    ring_in_.reserve(static_cast<std::size_t>(num_tasks));
    for (int s = 0; s < num_tasks; ++s) {
      ring_in_.emplace_back(static_cast<std::size_t>(node_.cfg.counter_ring_slots));
    }
  }

  hh_eager_id_ = lapi_.register_header_handler(
      [this](int origin, const std::byte* uhdr, std::size_t uhdr_len, std::size_t total) {
        return hh_eager(origin, uhdr, uhdr_len, total);
      });
  hh_cts_id_ = lapi_.register_header_handler(
      [this](int origin, const std::byte* uhdr, std::size_t uhdr_len, std::size_t total) {
        return hh_cts(origin, uhdr, uhdr_len, total);
      });
  hh_rtsdata_id_ = lapi_.register_header_handler(
      [this](int origin, const std::byte* uhdr, std::size_t uhdr_len, std::size_t total) {
        return hh_rtsdata(origin, uhdr, uhdr_len, total);
      });
}

void LapiChannel::on_thread_start() {
  if (variant_ != LapiVariant::kCounters) return;
  // §5.2: "a set of counters whose addresses are exchanged among the
  // participating MPI processes during initialization".
  for (int s = 0; s < num_tasks_; ++s) {
    auto table = lapi_.address_init(kRingExchangeBase + static_cast<std::uint64_t>(s),
                                    lapi::Lapi::token_of(ring_in_[static_cast<std::size_t>(s)].data()));
    if (s == my_task_) ring_out_ = table;
  }
}

lapi::Token LapiChannel::ring_token(int dst, std::uint16_t slot) const {
  return ring_out_[static_cast<std::size_t>(dst)] +
         static_cast<lapi::Token>(slot) * sizeof(lapi::Cntr);
}

lapi::Cntr* LapiChannel::ring_slot(int src, std::uint16_t slot) {
  return &ring_in_[static_cast<std::size_t>(src)][slot];
}

LapiChannel::SReqState& LapiChannel::sstate(SendReq& req) {
  auto it = sstates_.find(req.id);
  if (it == sstates_.end()) {
    it = sstates_.emplace(req.id, std::make_unique<SReqState>()).first;
  }
  return *it->second;
}

void LapiChannel::gc_sstate(std::uint32_t id) { sstates_.erase(id); }

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

void LapiChannel::start_send(SendReq& req) {
  req.proto = choose_protocol(req.mode, req.len, req.dst);
  req.id = next_sreq_++;

  Envelope env;
  env.ctx = static_cast<std::uint16_t>(req.ctx);
  env.src = static_cast<std::uint16_t>(req.src_in_comm);
  env.tag = req.tag;
  env.len = static_cast<std::uint32_t>(req.len);
  env.sreq = req.id;
  if (req.mode == Mode::kReady) env.flags |= kFlagReady;

  SReqState& st = sstate(req);
  st.org.on_bump = [this, &req] {
    req.reusable = true;
    maybe_complete_send(req);
  };
  lapi::Cntr* cmpl = nullptr;
  if (req.bsend_slot >= 0) {
    cmpl = &st.cmpl;
    st.cmpl.on_bump = [this, &req] {
      bsend_.release(req.bsend_slot);
      req.bsend_released = true;
      req.cond.notify_all(node_.sim);
      if (req.complete) {
        // Deferred: the counter whose hook is running lives in this state.
        node_.sim.after(0, sim::sched_node_key(node_.node),
                        [this, id = req.id] { gc_sstate(id); });
      }
    };
  }

  if (req.proto == Protocol::kEager) {
    note_eager_send(req.dst, req.len);
    env.kind = static_cast<std::uint8_t>(EnvKind::kEager);
    req.seq = send_seq_[static_cast<std::size_t>(req.dst)]++;
    env.seq = req.seq;
    lapi::Token tgt = 0;
    if (variant_ == LapiVariant::kCounters) {
      env.cntr_slot = static_cast<std::uint16_t>(
          slot_next_[static_cast<std::size_t>(req.dst)]++ %
          static_cast<std::uint32_t>(node_.cfg.counter_ring_slots));
      tgt = ring_token(req.dst, env.cntr_slot);
    }
    ea_note_eager_departure(req.dst, env, req.buf);
    auto uhdr = pack(env);
    lapi_.amsend(req.dst, hh_eager_id_, uhdr.data(), uhdr.size(), req.buf, req.len, tgt,
                 &st.org, cmpl);
  } else {
    note_rendezvous_send(req.dst, req.len);
    sreqs_.emplace(req.id, &req);
    env.kind = static_cast<std::uint8_t>(EnvKind::kRts);
    req.seq = send_seq_[static_cast<std::size_t>(req.dst)]++;
    env.seq = req.seq;
    auto uhdr = pack(env);
    // Fig. 4a: the request-to-send carries no data.
    lapi_.amsend(req.dst, hh_eager_id_, uhdr.data(), uhdr.size(), nullptr, 0, 0, nullptr,
                 nullptr);
  }

  if (req.bsend_slot >= 0) {
    req.reusable = true;
    req.complete = true;
  }
}

void LapiChannel::progress(SendReq& req) {
  if (req.proto == Protocol::kRendezvous && req.cts_received && !req.data_sent) {
    send_data_phase(req);
  }
}

void LapiChannel::send_data_phase(SendReq& req) {
  if (req.data_sent) return;  // progress() and the CTS handler can race
  req.data_sent = true;
  Envelope env;
  env.ctx = static_cast<std::uint16_t>(req.ctx);
  env.src = static_cast<std::uint16_t>(req.src_in_comm);
  env.tag = req.tag;
  env.seq = req.seq;
  env.len = static_cast<std::uint32_t>(req.len);
  env.kind = static_cast<std::uint8_t>(EnvKind::kRtsData);
  env.sreq = req.id;
  env.rreq = req.rreq_cache;

  SReqState& st = sstate(req);
  lapi::Token tgt = 0;
  if (variant_ == LapiVariant::kCounters) {
    env.cntr_slot = static_cast<std::uint16_t>(
        slot_next_[static_cast<std::size_t>(req.dst)]++ %
        static_cast<std::uint32_t>(node_.cfg.counter_ring_slots));
    tgt = ring_token(req.dst, env.cntr_slot);
  }
  lapi::Cntr* cmpl = req.bsend_slot >= 0 ? &st.cmpl : nullptr;
  auto uhdr = pack(env);
  lapi_.amsend(req.dst, hh_rtsdata_id_, uhdr.data(), uhdr.size(), req.buf, req.len, tgt,
               &st.org, cmpl);
  sreqs_.erase(req.id);
}

void LapiChannel::maybe_complete_send(SendReq& req) {
  if (req.complete) {
    req.cond.notify_all(node_.sim);
    return;
  }
  const bool done = (req.proto == Protocol::kEager) ? req.reusable
                                                    : (req.data_sent && req.reusable);
  if (done) {
    req.complete = true;
    req.cond.notify_all(node_.sim);
    if (req.bsend_slot < 0 || req.bsend_released) {
      // Deferred: this is called from the org counter's own bump hook.
      node_.sim.after(0, sim::sched_node_key(node_.node),
                      [this, id = req.id] { gc_sstate(id); });
    }
  }
}

void LapiChannel::send_cts(int dst_task, std::uint32_t sreq, RecvReq& r) {
  r.id = next_rreq_++;
  rreqs_.emplace(r.id, &r);
  Envelope cts;
  cts.kind = static_cast<std::uint8_t>(EnvKind::kCts);
  cts.sreq = sreq;
  cts.rreq = r.id;
  auto uhdr = pack(cts);
  lapi_.amsend(dst_task, hh_cts_id_, uhdr.data(), uhdr.size(), nullptr, 0, 0, nullptr,
               nullptr);
}

// ---------------------------------------------------------------------------
// Receive side: header handlers
// ---------------------------------------------------------------------------

lapi::Lapi::HeaderHandlerResult LapiChannel::hh_eager(int origin, const std::byte* uhdr,
                                                      std::size_t uhdr_len,
                                                      std::size_t total) {
  assert(uhdr != nullptr && uhdr_len >= sizeof(Envelope));
  (void)uhdr_len;
  const Envelope env = unpack(uhdr);
  auto& expected = expected_[static_cast<std::size_t>(origin)];

  if (env.seq == expected) {
    ++expected;
    auto res = process_in_order(env, origin, total);
    // Later-sequence envelopes may already be parked; make them matchable —
    // outside header-handler context, since matching an RTS sends a CTS.
    if (!parked_[static_cast<std::size_t>(origin)].empty() &&
        !drain_scheduled_[static_cast<std::size_t>(origin)]) {
      drain_scheduled_[static_cast<std::size_t>(origin)] = true;
      node_.sim.after(0, sim::sched_node_key(node_.node),
                      [this, origin] { drain_parked(origin); });
    }
    return res;
  }

  // Out of order: park. The payload still reassembles into an EA buffer; the
  // envelope becomes matchable only when its predecessors have been seen.
  auto& parked = parked_[static_cast<std::size_t>(origin)];
  const bool is_rts = env.kind == static_cast<std::uint8_t>(EnvKind::kRts);
  if (is_rts || !try_ea_reserve(env.len)) {
    // An RTS carries no payload. An eager refused because the EA pool is
    // exhausted parks as a pseudo-RTS (the sequence gate still applies); its
    // payload reassembles into scratch that is dropped, and the sender
    // re-sends from its retained copy once the pseudo-RTS matches.
    parked.emplace(env.seq, &queue_ea({.env = env,
                                       .src_task = origin,
                                       .arrived = true,
                                       .is_rts = true,
                                       .matchable = false}));
    return is_rts ? lapi::Lapi::HeaderHandlerResult{} : nack_result(origin, env, total);
  }
  EaEntry& e = queue_ea({.env = env,
                         .src_task = origin,
                         .data = std::vector<std::byte>(env.len),
                         .matchable = false,
                         .counted = true});
  parked.emplace(env.seq, &e);
  return reassemble_into_ea(e);
}

lapi::Lapi::HeaderHandlerResult LapiChannel::process_in_order(const Envelope& env,
                                                              int origin,
                                                              std::size_t total) {
  lapi::Lapi::HeaderHandlerResult res;

  if (env.kind == static_cast<std::uint8_t>(EnvKind::kRts)) {
    RecvReq* r = match_posted(env);
    if (r != nullptr) {
      r->status = Status{static_cast<int>(env.src), env.tag, env.len};
      // Fig. 4c: the CTS goes back from the completion handler (which may
      // make LAPI calls). Enhanced runs it inline; Base/Counters pay the
      // completion-handler thread switch.
      res.inline_completion = variant_ == LapiVariant::kEnhanced;
      res.completion = [this, origin, sreq = env.sreq, r](void*) { send_cts(origin, sreq, *r); };
    } else {
      // An RTS carries no payload.
      queue_ea({.env = env, .src_task = origin, .arrived = true, .is_rts = true});
    }
    return res;
  }

  // Eager message.
  assert(env.kind == static_cast<std::uint8_t>(EnvKind::kEager));
  RecvReq* r = match_posted(env);
  if (r != nullptr && env.len <= r->cap) return reassemble_into_recv(*r, origin, env);
  if (r == nullptr && (env.flags & kFlagReady) != 0) {
    throw FatalMpiError("ready-mode message arrived before its receive was posted");
  }
  if (r == nullptr && !try_ea_reserve(env.len)) {
    // EA pool exhausted: refuse the eager — it stays behind as a matchable
    // pseudo-RTS served from the sender's retained copy (previously fatal).
    queue_ea({.env = env, .src_task = origin, .arrived = true, .is_rts = true});
    return nack_result(origin, env, total);
  }

  // Early arrival (or truncation detour).
  return reassemble_into_ea(queue_ea({.env = env,
                                      .src_task = origin,
                                      .data = std::vector<std::byte>(total),
                                      .counted = r == nullptr,  // the try_ea_reserve above succeeded
                                      .bound = r}));            // non-null on truncation
}

void LapiChannel::drain_parked(int origin) {
  // Runs as a simulator event: any LAPI call made while matching parked
  // envelopes (e.g. a CTS for a parked RTS) is dispatcher-context work.
  lapi::Lapi::CallbackScope scope(lapi_);
  drain_scheduled_[static_cast<std::size_t>(origin)] = false;
  auto& parked = parked_[static_cast<std::size_t>(origin)];
  auto& expected = expected_[static_cast<std::size_t>(origin)];
  while (true) {
    auto it = parked.find(expected);
    if (it == parked.end()) break;
    EaEntry* e = it->second;
    parked.erase(it);
    ++expected;
    e->matchable = true;
    RecvReq* r = match_posted(e->env);
    if (r != nullptr) {
      take_ea(*r, *e, /*app_context=*/false);
      continue;
    }
    if (!e->is_rts && (e->env.flags & kFlagReady) != 0) {
      throw FatalMpiError("ready-mode message arrived before its receive was posted");
    }
    publish_arrival();  // stays in the EA queue, now matchable
  }
}

void LapiChannel::take_ea(RecvReq& req, EaEntry& e, bool app_context) {
  if (e.is_rts) {
    req.status = Status{static_cast<int>(e.env.src), e.env.tag, e.env.len};
    send_cts(e.src_task, e.env.sreq, req);
    erase_ea(e);
    return;
  }
  if (variant_ == LapiVariant::kCounters) {
    bind_counters_ea(req, e);
    return;
  }
  deliver_or_bind(req, e, app_context);
}

lapi::Lapi::HeaderHandlerResult LapiChannel::hh_cts(int origin, const std::byte* uhdr,
                                                    std::size_t uhdr_len, std::size_t) {
  assert(uhdr != nullptr && uhdr_len >= sizeof(Envelope));
  (void)uhdr_len;
  const Envelope env = unpack(uhdr);
  lapi::Lapi::HeaderHandlerResult res;

  // EA flow-control traffic rides this handler too (header-only, no reply).
  if (env.kind == static_cast<std::uint8_t>(EnvKind::kEaCredit)) {
    ea_on_credit(origin, env);
    return res;
  }
  if (env.kind == static_cast<std::uint8_t>(EnvKind::kEaNack)) {
    ea_on_nack(env);
    return res;
  }

  auto it = sreqs_.find(env.sreq);
  if (it == sreqs_.end() || it->second->proto == Protocol::kEager) {
    // A CTS for an eager send: the receiver NACKed it into a pseudo-RTS and
    // is clearing us to re-send from the retained copy. (A plain eager isn't
    // in sreqs_; a buffered one still is, awaiting its kRecvDone.)
    res.inline_completion = variant_ == LapiVariant::kEnhanced;
    res.completion = [this, origin, env](void*) { serve_nacked(origin, env.sreq, env.rreq); };
    return res;
  }
  SendReq* s = it->second;
  s->cts_received = true;
  s->rreq_cache = env.rreq;

  if (s->blocking) {
    // Fig. 6: wake the blocked sender; it pushes the data from app context.
    node_.publish([this, s] { s->cond.notify_all(node_.sim); });
  } else {
    // Fig. 7: the data phase is issued from the completion handler. A
    // concurrent MPI_Wait/Test may push it first via progress(), after which
    // the request may already be gone — re-resolve it by id.
    res.inline_completion = variant_ == LapiVariant::kEnhanced;
    res.completion = [this, id = env.sreq](void*) {
      auto sit = sreqs_.find(id);
      if (sit != sreqs_.end()) send_data_phase(*sit->second);
    };
  }
  return res;
}

lapi::Lapi::HeaderHandlerResult LapiChannel::hh_rtsdata(int origin, const std::byte* uhdr,
                                                        std::size_t uhdr_len,
                                                        std::size_t total) {
  assert(uhdr != nullptr && uhdr_len >= sizeof(Envelope));
  (void)uhdr_len;
  const Envelope env = unpack(uhdr);
  auto it = rreqs_.find(env.rreq);
  assert(it != rreqs_.end() && "rendezvous data for unknown receive");
  RecvReq* r = it->second;
  rreqs_.erase(it);

  if (env.len <= r->cap) return reassemble_into_recv(*r, origin, env);
  // Truncation detour.
  return reassemble_into_ea(queue_ea(
      {.env = env, .src_task = origin, .data = std::vector<std::byte>(total), .bound = r}));
}

// ---------------------------------------------------------------------------
// Completion plumbing
// ---------------------------------------------------------------------------

lapi::Lapi::HeaderHandlerResult LapiChannel::reassemble_into_recv(RecvReq& r, int origin,
                                                                  const Envelope& env) {
  lapi::Lapi::HeaderHandlerResult res;
  res.buffer = r.buf;
  if (variant_ == LapiVariant::kCounters) {
    setup_counters_recv(r, origin, env);
    return res;
  }
  res.inline_completion = variant_ == LapiVariant::kEnhanced;
  res.completion = [this, &r, env, origin](void*) {
    publish_recv_complete(r, env);
    ea_note_retired(origin, env);
  };
  return res;
}

lapi::Lapi::HeaderHandlerResult LapiChannel::reassemble_into_ea(EaEntry& e) {
  lapi::Lapi::HeaderHandlerResult res;
  res.buffer = e.data.data();
  if (variant_ == LapiVariant::kCounters) {
    e.watch = ring_slot(e.src_task, e.env.cntr_slot);
    if (e.bound != nullptr) bind_counters_ea(*e.bound, e);
    return res;
  }
  res.inline_completion = variant_ == LapiVariant::kEnhanced;
  res.completion = [this, ep = &e](void*) {
    node_.publish([this, ep] {
      ep->arrived = true;
      if (ep->bound != nullptr) deliver_from_ea(*ep->bound, *ep, /*app_context=*/false);
    });
  };
  return res;
}

void LapiChannel::setup_counters_recv(RecvReq& req, int origin, const Envelope& env) {
  req.watch = ring_slot(origin, env.cntr_slot);
  req.status = Status{static_cast<int>(env.src), env.tag, env.len};  // provisional
  // A waiter may already be blocked on req.cond; wake it so it re-evaluates
  // and switches to waiting on the counter.
  node_.publish([this, &req] { req.cond.notify_all(node_.sim); });
  req.poll = [this, &req, env, origin]() {
    if (req.watch->value <= 0) return false;
    --req.watch->value;
    req.complete = true;
    req.truncated = env.len > req.cap;
    req.status = Status{static_cast<int>(env.src), env.tag,
                        std::min<std::size_t>(env.len, req.cap)};
    note_recv_complete(env.ctx, env.src, env.tag, env.seq, env.len);
    ea_note_retired(origin, env);
    return true;
  };
}

void LapiChannel::bind_counters_ea(RecvReq& req, EaEntry& e) {
  req.watch = e.watch;
  e.bound = &req;
  node_.publish([this, &req] { req.cond.notify_all(node_.sim); });
  EaEntry* ep = &e;
  req.poll = [this, &req, ep]() {
    if (req.watch->value <= 0) return false;
    --req.watch->value;
    deliver_from_ea(req, *ep, /*app_context=*/true);
    return true;
  };
}

void LapiChannel::send_control_env(int dst_task, const Envelope& env) {
  // Credits and NACKs are dispatcher-context control traffic: no app-side
  // LAPI call charge regardless of which context retired the message.
  lapi::Lapi::CallbackScope scope(lapi_);
  auto uhdr = pack(env);
  lapi_.amsend(dst_task, hh_cts_id_, uhdr.data(), uhdr.size(), nullptr, 0, 0, nullptr,
               nullptr);
}

void LapiChannel::serve_nacked(int dst_task, std::uint32_t sreq, std::uint32_t rreq) {
  const RetainedEager* ret = ea_retained(sreq);
  assert(ret != nullptr && "CTS for unknown send request (no retained NACK copy)");
  Envelope env = ret->env;
  env.kind = static_cast<std::uint8_t>(EnvKind::kRtsData);
  env.rreq = rreq;
  env.flags |= kFlagNackServed;
  lapi::Token tgt = 0;
  if (variant_ == LapiVariant::kCounters) {
    env.cntr_slot = static_cast<std::uint16_t>(
        slot_next_[static_cast<std::size_t>(dst_task)]++ %
        static_cast<std::uint32_t>(node_.cfg.counter_ring_slots));
    tgt = ring_token(dst_task, env.cntr_slot);
  }
  // The retained vector stays alive until the receiver's credit retires it,
  // strictly after this data lands — safe to borrow.
  auto uhdr = pack(env);
  lapi_.amsend(dst_task, hh_rtsdata_id_, uhdr.data(), uhdr.size(), ret->data.data(),
               ret->data.size(), tgt, nullptr, nullptr);
}

lapi::Lapi::HeaderHandlerResult LapiChannel::nack_result(int origin, const Envelope& env,
                                                         std::size_t total) {
  // The refused payload still reassembles — into scratch owned by the
  // completion closure, which then issues the NACK (completion context may
  // make LAPI calls) and drops the bytes.
  auto scratch = std::make_shared<std::vector<std::byte>>(std::max<std::size_t>(total, 1));
  lapi::Lapi::HeaderHandlerResult res;
  res.buffer = scratch->data();
  res.inline_completion = variant_ == LapiVariant::kEnhanced;
  res.completion = [this, origin, env, scratch](void*) {
    if (variant_ == LapiVariant::kCounters) absorb_ring_bump(origin, env.cntr_slot);
    ea_issue_nack(origin, env);
  };
  return res;
}

void LapiChannel::absorb_ring_bump(int origin, std::uint16_t slot_idx) {
  lapi::Cntr* slot = ring_slot(origin, slot_idx);
  // The refused eager's target-counter bump is still in flight (completion
  // handlers run before the bump publishes). Chain a one-shot hook that
  // swallows exactly one bump so a later receive reusing this ring slot
  // doesn't complete before its own data. Counter values are fungible: if
  // the hook fires on a different message's bump first, the stale bump
  // repays that debt when it lands.
  auto done = std::make_shared<bool>(false);
  slot->on_bump = [slot, done, prev = std::move(slot->on_bump)] {
    if (*done) {
      if (prev) prev();
      return;
    }
    *done = true;
    --slot->value;
  };
}

// ---------------------------------------------------------------------------
// post_recv
// ---------------------------------------------------------------------------

void LapiChannel::post_recv(RecvReq& req) {
  auto it = select_ea(req.ctx, req.src_sel, req.tag_sel);
  if (it == ea_.end()) {
    posted_.push_back(&req);
    return;
  }
  take_ea(req, *it, /*app_context=*/true);
}

}  // namespace sp::mpci
