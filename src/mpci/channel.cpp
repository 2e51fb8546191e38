#include "mpci/channel.hpp"

#include <cassert>
#include <cstring>
#include <utility>

namespace sp::mpci {

namespace {
[[nodiscard]] bool selects(int ctx, int src_sel, int tag_sel, const Envelope& env) {
  return env.ctx == ctx && (src_sel == kAnySource || src_sel == env.src) &&
         (tag_sel == kAnyTag || tag_sel == env.tag);
}
}  // namespace

bool Channel::iprobe(int ctx, int src_sel, int tag_sel, Status* st) {
  auto it = select_ea(ctx, src_sel, tag_sel);
  if (it == ea_.end()) return false;
  if (st != nullptr) *st = Status{static_cast<int>(it->env.src), it->env.tag, it->env.len};
  return true;
}

RecvReq* Channel::match_posted(const Envelope& env) {
  int scanned = 0;
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    ++scanned;
    RecvReq* r = *it;
    if (selects(r->ctx, r->src_sel, r->tag_sel, env)) {
      posted_.erase(it);
      charge_match_event(scanned);
      return r;
    }
  }
  charge_match_event(scanned);
  return nullptr;
}

std::list<Channel::EaEntry>::iterator Channel::select_ea(int ctx, int src_sel, int tag_sel) {
  charge_match_app(static_cast<int>(ea_.size()));
  auto chosen = ea_.end();
  for (auto it = ea_.begin(); it != ea_.end(); ++it) {
    if (!it->matchable || it->bound != nullptr || !selects(ctx, src_sel, tag_sel, it->env)) {
      continue;
    }
    if (chosen == ea_.end() ||
        (it->src_task == chosen->src_task && it->env.seq < chosen->env.seq)) {
      chosen = it;
    }
  }
  return chosen;
}

Channel::EaEntry& Channel::queue_ea(EaEntry&& e) {
  EaEntry& q = ea_.emplace_back(std::move(e));
  if (q.matchable && q.bound == nullptr) publish_arrival();
  return q;
}

void Channel::erase_ea(EaEntry& e) {
  for (auto it = ea_.begin(); it != ea_.end(); ++it) {
    if (&*it != &e) continue;
    if (e.counted) ea_release(e.env.len);
    // A pseudo-RTS (a NACKed eager, still kind kEager) is credited later,
    // when its rendezvous data lands; a real RTS earns no credit.
    if (!e.is_rts) ea_note_retired(e.src_task, e.env);
    ea_.erase(it);
    return;
  }
  assert(false && "erase_ea: entry not found");
}

void Channel::deliver_from_ea(RecvReq& req, EaEntry& e, bool app_context) {
  const std::size_t n = std::min<std::size_t>(e.env.len, req.cap);
  const sim::TimeNs cost = sim::copy_cost(node_.cfg, n);
  if (app_context) {
    node_.app_charge(cost);
  } else {
    node_.cpu.charge(node_.sim, cost);
  }
  if (n > 0) std::memcpy(req.buf, e.data.data(), n);
  publish_recv_complete(req, e.env);
  erase_ea(e);
}

void Channel::deliver_or_bind(RecvReq& req, EaEntry& e, bool app_context) {
  if (e.arrived) {
    deliver_from_ea(req, e, app_context);
  } else {
    e.bound = &req;
  }
}

void Channel::publish_recv_complete(RecvReq& req, const Envelope& env) {
  node_.publish([this, &req, env] {
    req.complete = true;
    req.truncated = env.len > req.cap;
    req.status = Status{static_cast<int>(env.src), env.tag,
                        std::min<std::size_t>(env.len, req.cap)};
    note_recv_complete(env.ctx, env.src, env.tag, env.seq, env.len);
    req.cond.notify_all(node_.sim);
  });
}

void Channel::send_recv_done(int src_task, std::uint32_t sreq) {
  Envelope d;
  d.kind = static_cast<std::uint8_t>(EnvKind::kRecvDone);
  d.sreq = sreq;
  send_control_env(src_task, d);
}

}  // namespace sp::mpci
