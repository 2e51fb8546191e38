#include "net/combining.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace sp::net {
namespace {

/// Stream constant for the engine's private fault RNG: distinct from the
/// SwitchFabric's default stream so enabling loss on the combining path never
/// perturbs the user fabric's fault schedule (and vice versa).
constexpr std::uint64_t kInnetRngStream = 0xc0b1e5ULL;

/// Switch element down-arity per topology: how many children one combining
/// element folds. Matches each topology's natural attachment group — the SP
/// leaf crossbar holds 4 nodes, a fat-tree leaf holds down[0], a dragonfly
/// router holds hosts_per_router; the torus has no switches, so elements
/// model quadrant combiners over consecutive node ids.
int combining_radix(const sim::MachineConfig& cfg, sim::TopologyKind kind) noexcept {
  switch (kind) {
    case sim::TopologyKind::kFatTree: return std::max(2, cfg.fattree_down[0]);
    case sim::TopologyKind::kDragonfly: return std::max(2, cfg.df_hosts_per_router);
    default: return 4;  // SP multistage leaf arity; torus quadrant combiner
  }
}

}  // namespace

CombiningEngine::CombiningEngine(sim::Simulator& sim, const sim::MachineConfig& cfg,
                                 const Topology& topo)
    : sim_(sim),
      cfg_(cfg),
      radix_(combining_radix(cfg, topo.kind())),
      rng_(cfg.fabric_seed, kInnetRngStream) {}

sim::TimeNs CombiningEngine::wire_ns(std::size_t bytes) const noexcept {
  // One end-to-end cut-through serialization: the vector streams through the
  // combining tree at link rate, paying per-element pipeline latency but not
  // per-level store-and-forward (the modeled payoff over host trees).
  return static_cast<sim::TimeNs>(static_cast<double>(bytes) * cfg_.link_ns_per_byte);
}

sim::TimeNs CombiningEngine::fold_ns(int children, std::size_t bytes) const noexcept {
  const auto folds = static_cast<sim::TimeNs>(std::max(0, children - 1));
  return folds * (cfg_.innet_combine_ns +
                  static_cast<sim::TimeNs>(static_cast<double>(bytes) *
                                           cfg_.innet_combine_ns_per_byte));
}

void CombiningEngine::note_table(std::int64_t delta) noexcept {
  table_live_ += delta;
  table_peak_ = std::max(table_peak_, table_live_);
}

CombiningEngine::Instance& CombiningEngine::open(Key k, const CollOp& op) {
  auto it = table_.find(k);
  if (it != table_.end()) return it->second;
  Instance inst;
  inst.nranks = static_cast<int>(op.tasks.size());
  inst.root = op.root;
  inst.len = op.len;
  inst.reduce_phase = op.reduce_phase;
  inst.combine = op.combine;
  inst.tasks = op.tasks;
  inst.ranks.resize(static_cast<std::size_t>(inst.nranks));
  // Level 0 elements cover radix_ consecutive comm ranks each; every higher
  // level groups radix_ consecutive elements, down to a single top element.
  // Contiguity is what makes the fixed child-port fold equal the sequential
  // rank-order reduction.
  int width = inst.nranks;
  do {
    const int elems = (width + radix_ - 1) / radix_;
    std::vector<Element> level(static_cast<std::size_t>(elems));
    for (int e = 0; e < elems; ++e) {
      const int kids = std::min(radix_, width - e * radix_);
      level[static_cast<std::size_t>(e)].nchildren = kids;
      level[static_cast<std::size_t>(e)].present.assign(static_cast<std::size_t>(kids), false);
      level[static_cast<std::size_t>(e)].stash.resize(static_cast<std::size_t>(kids));
    }
    inst.levels.push_back(std::move(level));
    width = elems;
  } while (width > 1);
  return table_.emplace(k, std::move(inst)).first->second;
}

void CombiningEngine::start(CollOp&& op) {
  const Key k = key(op.ctx, op.seq);
  Instance& inst = open(k, op);
  assert(op.rank >= 0 && op.rank < inst.nranks);
  RankSlot& slot = inst.ranks[static_cast<std::size_t>(op.rank)];
  assert(!slot.registered && "duplicate post for one (ctx, seq, rank)");
  slot.registered = true;
  slot.buf = op.buf;
  slot.on_done = std::move(op.on_done);

  if (inst.reduce_phase) {
    // Contribution climbs one hop to the rank's leaf element; the payload
    // pays its single cut-through serialization here.
    auto data = std::make_shared<std::vector<std::byte>>();
    if (inst.len > 0) data->assign(op.buf, op.buf + inst.len);
    const int elem = op.rank / radix_;
    const int port = op.rank % radix_;
    transfer(cfg_.innet_hop_ns + wire_ns(inst.len),
             [this, k, elem, port, data] { contribute(k, 0, elem, port, data); });
    return;
  }

  // Bcast: only the root contributes data; everyone else just parks a
  // delivery slot. The root's payload climbs the whole spine to the top
  // element, which then replicates down every subtree at once.
  if (op.rank == inst.root) {
    auto data = std::make_shared<std::vector<std::byte>>();
    if (inst.len > 0) data->assign(op.buf, op.buf + inst.len);
    const auto depth = static_cast<sim::TimeNs>(inst.levels.size());
    transfer(depth * cfg_.innet_hop_ns + wire_ns(inst.len),
             [this, k, data] { root_done(k, std::move(*data)); });
    // The root's buffer is reusable as soon as the injection is on the wire.
    sim_.after(cfg_.innet_hop_ns, [this, k] {
      auto it = table_.find(k);
      if (it != table_.end()) finish(k, it->second.root);
    });
  } else if (inst.result_ready) {
    // Straggler: the replication wave already passed; deliver immediately.
    const int r = op.rank;
    sim_.after(0, [this, k, r] { deliver(k, r); });
  }
}

void CombiningEngine::contribute(Key k, int level, int elem,
                                 int slot, std::shared_ptr<std::vector<std::byte>> data) {
  auto it = table_.find(k);
  if (it == table_.end()) {
    // A trailing duplicate outlived its collective; the table entry is gone
    // and the copy is simply discarded.
    ++dup_discards_;
    return;
  }
  Instance& inst = it->second;
  Element& e = inst.levels[static_cast<std::size_t>(level)][static_cast<std::size_t>(elem)];
  if (e.present[static_cast<std::size_t>(slot)]) {
    ++dup_discards_;  // duplicate contribution on an already-filled port
    return;
  }
  if (e.seen == 0) note_table(+1);  // first arrival opens the table entry
  e.present[static_cast<std::size_t>(slot)] = true;
  e.stash[static_cast<std::size_t>(slot)] = std::move(*data);
  if (++e.seen == e.nchildren) element_complete(k, level, elem);
}

void CombiningEngine::element_complete(Key k, int level, int elem) {
  Instance& inst = table_.at(k);
  Element& e = inst.levels[static_cast<std::size_t>(level)][static_cast<std::size_t>(elem)];
  // Deterministic combine: left-to-right in child-port order, which is
  // communicator rank order by construction — never arrival order.
  auto acc = std::make_shared<std::vector<std::byte>>(std::move(e.stash[0]));
  for (int j = 1; j < e.nchildren; ++j) {
    if (inst.combine && inst.len > 0) {
      inst.combine(acc->data(), e.stash[static_cast<std::size_t>(j)].data(), inst.len);
    }
    ++combines_;
  }
  e.stash.clear();
  note_table(-1);
  if (telemetry_ != nullptr) {
    // Attribute the fold to the lowest-rank node the element covers.
    int stride = radix_;
    for (int l = 0; l < level; ++l) stride *= radix_;
    const int first_rank = std::min(elem * stride, inst.nranks - 1);
    telemetry_->emit(sim_.now(), inst.tasks[static_cast<std::size_t>(first_rank)],
                     sim::Ev::kInnetCombine, static_cast<std::uint64_t>(e.nchildren),
                     inst.len);
  }
  const sim::TimeNs cost = fold_ns(e.nchildren, inst.len);
  if (level + 1 == static_cast<int>(inst.levels.size())) {
    sim_.after(cost, [this, k, acc] { root_done(k, std::move(*acc)); });
  } else {
    const int parent = elem / radix_;
    const int port = elem % radix_;
    transfer(cost + cfg_.innet_hop_ns,
             [this, k, level, parent, port, acc] {
               contribute(k, level + 1, parent, port, acc);
             });
  }
}

void CombiningEngine::root_done(Key k, std::vector<std::byte>&& result) {
  auto it = table_.find(k);
  if (it == table_.end()) return;  // duplicate of an already-finished spine climb
  Instance& inst = it->second;
  if (inst.result_ready) {
    ++dup_discards_;
    return;
  }
  inst.result = std::move(result);
  inst.result_ready = true;
  ++ops_;
  // Replicate down every subtree in parallel: each copy pays the downward
  // pipeline latency plus one serialization onto its host link.
  const auto depth = static_cast<sim::TimeNs>(inst.levels.size());
  const sim::TimeNs down = depth * cfg_.innet_hop_ns + wire_ns(inst.len);
  int fanout = 0;
  for (int r = 0; r < inst.nranks; ++r) {
    if (!inst.reduce_phase && r == inst.root) continue;  // bcast root keeps its copy
    const RankSlot& slot = inst.ranks[static_cast<std::size_t>(r)];
    if (!slot.registered || slot.delivered) continue;
    ++fanout;
    transfer(down, [this, k, r] { deliver(k, r); });
  }
  replications_ += fanout;
  if (telemetry_ != nullptr) {
    telemetry_->emit(sim_.now(), inst.tasks[0], sim::Ev::kInnetReplicate,
                     static_cast<std::uint64_t>(fanout), inst.len);
  }
  if (inst.delivered == inst.nranks) table_.erase(k);
}

void CombiningEngine::deliver(Key k, int rank) {
  auto it = table_.find(k);
  if (it == table_.end()) {
    ++dup_discards_;
    return;
  }
  Instance& inst = it->second;
  RankSlot& slot = inst.ranks[static_cast<std::size_t>(rank)];
  if (slot.delivered) {
    ++dup_discards_;  // a duplicated replication copy
    return;
  }
  if (inst.len > 0) std::memcpy(slot.buf, inst.result.data(), inst.len);
  finish(k, rank);
}

void CombiningEngine::finish(Key k, int rank) {
  Instance& inst = table_.at(k);
  RankSlot& slot = inst.ranks[static_cast<std::size_t>(rank)];
  if (slot.delivered) return;
  slot.delivered = true;
  ++inst.delivered;
  auto done = std::move(slot.on_done);
  const bool last = inst.delivered == inst.nranks &&
                    (inst.result_ready || !inst.reduce_phase);
  if (last && inst.result_ready) table_.erase(k);
  if (done) done();
}

void CombiningEngine::transfer(sim::TimeNs delay, std::function<void()> fn) {
  sim::TimeNs t = delay;
  // Fixed draw order — drop(s), jitter, dup — so a given seed yields a
  // bit-identical fault schedule. No knob set, no draw made: clean runs
  // consume no randomness and stay bit-identical with the pre-engine fabric.
  if (cfg_.packet_drop_rate > 0.0) {
    int tries = 0;  // bounded so a pathological rate ~1.0 cannot livelock
    while (tries++ < 64 && rng_.chance(cfg_.packet_drop_rate)) {
      ++retransmits_;
      t += cfg_.innet_retry_ns;  // link-level retry, not an end-to-end timeout
    }
  }
  if (cfg_.packet_jitter_ns > 0) {
    t += static_cast<sim::TimeNs>(
        rng_.next_below(static_cast<std::uint32_t>(cfg_.packet_jitter_ns)));
  }
  const bool dup = cfg_.packet_dup_rate > 0.0 && rng_.chance(cfg_.packet_dup_rate);
  if (dup) {
    auto copy = fn;
    sim_.after(t + cfg_.innet_hop_ns, std::move(copy));  // the duplicate trails
  }
  sim_.after(t, std::move(fn));
}

}  // namespace sp::net
