#include "mpi/machine.hpp"

#include <cstdio>
#include <exception>
#include <sstream>

namespace sp::mpi {

Machine::Machine(const sim::MachineConfig& cfg, int num_tasks, Backend backend)
    : cfg_(cfg), num_tasks_(num_tasks), backend_(backend) {
  // Must precede any event scheduling: the salt participates in heap order,
  // and a schedule controller asserts it is installed on an empty queue.
  sim_.set_tie_break_salt(cfg_.event_tie_break_salt);
  if (cfg_.sched_controller != nullptr) {
    sim_.set_schedule_controller(cfg_.sched_controller, cfg_.sched_window_ns);
  }
  if (cfg_.telemetry_enabled) {
    // Auto-size the ring from the node count so traced runs at scale keep
    // zero drops: per-node floor, explicit knob as the minimum, hard cap so a
    // 1024-node machine doesn't silently pin gigabytes of host memory. The
    // default per-node floor leaves 2-node machines at the legacy 4 MiB (the
    // pinned traced digests depend on ring capacity).
    constexpr std::size_t kRingCapBytes = std::size_t{128} * 1024 * 1024;
    std::size_t ring = cfg_.telemetry_ring_bytes;
    const std::size_t scaled =
        static_cast<std::size_t>(num_tasks_) * cfg_.telemetry_ring_bytes_per_node;
    if (scaled > ring) ring = scaled;
    if (ring > kRingCapBytes) ring = kRingCapBytes;
    telemetry_ = std::make_unique<sim::Telemetry>(num_tasks_, ring);
  }
  fabric_ = std::make_unique<net::SwitchFabric>(sim_, cfg_, num_tasks_);
  fabric_->set_telemetry(telemetry_.get());
  lapi_group_ = std::make_unique<lapi::LapiGroup>(num_tasks_);

  for (int t = 0; t < num_tasks_; ++t) {
    auto n = std::make_unique<Node>();
    n->runtime = std::make_unique<sim::NodeRuntime>(sim_, cfg_, t);
    n->runtime->telemetry = telemetry_.get();
    n->hal = std::make_unique<hal::Hal>(*n->runtime, *fabric_);
    // Both transports always exist (the real SP ran them side by side); the
    // backend selects which one MPCI uses, and only the native stack enables
    // the interrupt-handler hysteresis the paper criticises.
    n->pipes = std::make_unique<pipes::Pipes>(*n->runtime, *n->hal);
    n->lapi = std::make_unique<lapi::Lapi>(*n->runtime, *n->hal, *lapi_group_, t);
    n->hal->set_hysteresis_enabled(backend_ == Backend::kNativePipes);

    switch (backend_) {
      case Backend::kNativePipes:
        n->channel = std::make_unique<mpci::PipesChannel>(*n->runtime, *n->pipes, t, num_tasks_);
        break;
      case Backend::kLapiBase:
        n->channel = std::make_unique<mpci::LapiChannel>(*n->runtime, *n->lapi,
                                                         mpci::LapiVariant::kBase, t, num_tasks_);
        break;
      case Backend::kLapiCounters:
        n->channel = std::make_unique<mpci::LapiChannel>(
            *n->runtime, *n->lapi, mpci::LapiVariant::kCounters, t, num_tasks_);
        break;
      case Backend::kLapiEnhanced:
        n->channel = std::make_unique<mpci::LapiChannel>(
            *n->runtime, *n->lapi, mpci::LapiVariant::kEnhanced, t, num_tasks_);
        break;
      case Backend::kRdma:
        n->rdma = std::make_unique<hal::RdmaNic>(*n->runtime, *n->hal);
        n->channel = std::make_unique<mpci::RdmaChannel>(*n->runtime, *n->rdma, t, num_tasks_);
        break;
    }
    n->mpi = std::make_unique<Mpi>(*n->runtime, *n->channel, t, num_tasks_);
    hal::Hal* hal_ptr = n->hal.get();
    n->mpi->set_interrupt_hook([hal_ptr](bool on) { hal_ptr->set_interrupt_mode(on); });
    // Every backend gets the switch combining engine: in-network collectives
    // are a property of the interconnect, not of one adapter type.
    n->mpi->set_combining(&fabric_->combining());
    nodes_.push_back(std::move(n));
  }
}

Machine::~Machine() = default;

void Machine::run_threads(const std::function<void(int)>& body) {
  std::vector<std::unique_ptr<sim::RankThread>> threads;
  threads.reserve(static_cast<std::size_t>(num_tasks_));
  for (int t = 0; t < num_tasks_; ++t) {
    sim::NodeRuntime* nrt = nodes_[static_cast<std::size_t>(t)]->runtime.get();
    threads.push_back(std::make_unique<sim::RankThread>(sim_, t, [&body, nrt, t] {
      SP_TELEM(*nrt, sim::Ev::kRankStart, static_cast<std::uint64_t>(t));
      body(t);
      SP_TELEM(*nrt, sim::Ev::kRankFinish, static_cast<std::uint64_t>(t));
    }));
    nodes_[static_cast<std::size_t>(t)]->runtime->thread = threads.back().get();
    sim::RankThread* rt = threads.back().get();
    sim_.after(0, sim::sched_node_key(t), [rt] { rt->resume_from_sim(); });
  }

  std::exception_ptr fatal;
  try {
    sim_.run();
  } catch (...) {
    fatal = std::current_exception();
  }
  elapsed_ = sim_.now();

  // Collect per-thread errors before tearing threads down.
  std::exception_ptr thread_error;
  bool all_finished = true;
  sim::TimeNs last_finish = 0;
  for (auto& th : threads) {
    if (!th->finished()) all_finished = false;
    if (th->finished() && th->finished_at() > last_finish) last_finish = th->finished_at();
    if (!thread_error && th->error()) thread_error = th->error();
  }
  // Elapsed time is when the *program* ended, not when the queue drained:
  // housekeeping timers (delayed-ack flushes, retransmit checks) keep firing
  // as no-ops after the last rank returns and would otherwise quantize the
  // measurement to timer-period multiples.
  if (all_finished && !fatal) elapsed_ = last_finish;
  for (auto& th : threads) {
    nodes_[static_cast<std::size_t>(th->id())]->runtime->thread = nullptr;
  }
  threads.clear();  // aborts any still-blocked threads

  if (fatal) std::rethrow_exception(fatal);
  if (thread_error) std::rethrow_exception(thread_error);
  if (!all_finished) {
    std::ostringstream os;
    os << "simulation deadlock: event queue drained with rank thread(s) still blocked at t="
       << sim::to_us(elapsed_) << "us";
    throw sim::DeadlockError(os.str());
  }
}

Machine::Stats Machine::stats() const {
  Stats s;
  hal::ReliableLink::Counters rdma, lapi, pipes;
  for (const auto& n : nodes_) {
    s.packets_sent += n->hal->packets_sent();
    s.packets_received += n->hal->packets_received();
    s.interrupts += n->hal->interrupts_taken();
    s.eager_sends += n->channel->eager_sends();
    s.rendezvous_sends += n->channel->rendezvous_sends();
    s.early_arrivals += n->channel->early_arrivals();
    s.ea_fallbacks += n->channel->ea_fallbacks();
    s.ea_nacks += n->channel->ea_nacks();
    if (n->rdma) {
      s.rdma_writes += n->rdma->writes();
      s.rdma_reads += n->rdma->reads();
      s.nic_collectives += n->rdma->nic_colls();
      rdma += n->rdma->link_counters();
    }
    s.lapi_messages += n->lapi->messages_sent();
    lapi += n->lapi->link_counters();
    pipes += n->pipes->link_counters();
    s.completion_thread_dispatches += n->lapi->completion_thread_dispatches();
    s.completion_inline_runs += n->lapi->completion_inline_runs();
  }
  for (const auto& n : nodes_) {
    s.hal_staged_bytes += n->hal->staged_bytes();
  }
  s.rdma_retransmits = rdma.retransmits;
  s.rdma_acks = rdma.acks;
  s.rdma_duplicate_deliveries = rdma.duplicates;
  s.rdma_reacks_coalesced = rdma.reacks_coalesced;
  s.lapi_retransmits = lapi.retransmits;
  s.lapi_duplicate_deliveries = lapi.duplicates;
  s.lapi_acks = lapi.acks;
  s.lapi_reacks_coalesced = lapi.reacks_coalesced;
  s.pipes_retransmits = pipes.retransmits;
  s.pipes_duplicate_deliveries = pipes.duplicates;
  s.pipes_acks = pipes.acks;
  s.pipes_reacks_coalesced = pipes.reacks_coalesced;
  const net::CombiningEngine& ce = fabric_->combining();
  s.innet_collectives = ce.ops();
  s.innet_combines = ce.combines();
  s.innet_replications = ce.replications();
  s.innet_dup_discards = ce.dup_discards();
  s.innet_retransmits = ce.retransmits();
  s.innet_table_peak = ce.table_peak();
  s.fabric_packets = fabric_->packets_delivered();
  s.fabric_bytes = fabric_->bytes_carried();
  s.fabric_dropped = fabric_->packets_dropped();
  s.fabric_duplicated = fabric_->packets_duplicated();
  s.sim_events = sim_.events_processed();
  const sim::EventQueue& q = sim_.queue();
  s.events_pushed = q.pushed();
  s.events_popped = q.popped();
  s.actions_inline = q.inline_actions();
  s.action_pool_hits = q.pool().pool_hits();
  s.action_pool_misses = q.pool().pool_misses();
  s.action_fallback_allocs = q.pool().fallback_allocs();
  s.frames_recycled = fabric_->arena().recycled();
  s.frames_fresh = fabric_->arena().fresh();
  return s;
}

Machine::Stats Machine::stats_delta(const Stats& later, const Stats& earlier) noexcept {
  Stats d;
  d.packets_sent = later.packets_sent - earlier.packets_sent;
  d.packets_received = later.packets_received - earlier.packets_received;
  d.interrupts = later.interrupts - earlier.interrupts;
  d.fabric_packets = later.fabric_packets - earlier.fabric_packets;
  d.fabric_bytes = later.fabric_bytes - earlier.fabric_bytes;
  d.fabric_dropped = later.fabric_dropped - earlier.fabric_dropped;
  d.fabric_duplicated = later.fabric_duplicated - earlier.fabric_duplicated;
  d.eager_sends = later.eager_sends - earlier.eager_sends;
  d.rendezvous_sends = later.rendezvous_sends - earlier.rendezvous_sends;
  d.early_arrivals = later.early_arrivals - earlier.early_arrivals;
  d.ea_fallbacks = later.ea_fallbacks - earlier.ea_fallbacks;
  d.ea_nacks = later.ea_nacks - earlier.ea_nacks;
  d.rdma_writes = later.rdma_writes - earlier.rdma_writes;
  d.rdma_reads = later.rdma_reads - earlier.rdma_reads;
  d.nic_collectives = later.nic_collectives - earlier.nic_collectives;
  d.innet_collectives = later.innet_collectives - earlier.innet_collectives;
  d.innet_combines = later.innet_combines - earlier.innet_combines;
  d.innet_replications = later.innet_replications - earlier.innet_replications;
  d.innet_dup_discards = later.innet_dup_discards - earlier.innet_dup_discards;
  d.innet_retransmits = later.innet_retransmits - earlier.innet_retransmits;
  d.innet_table_peak = later.innet_table_peak;  // a peak, not a counter
  d.rdma_retransmits = later.rdma_retransmits - earlier.rdma_retransmits;
  d.rdma_acks = later.rdma_acks - earlier.rdma_acks;
  d.rdma_duplicate_deliveries =
      later.rdma_duplicate_deliveries - earlier.rdma_duplicate_deliveries;
  d.rdma_reacks_coalesced = later.rdma_reacks_coalesced - earlier.rdma_reacks_coalesced;
  d.lapi_messages = later.lapi_messages - earlier.lapi_messages;
  d.lapi_retransmits = later.lapi_retransmits - earlier.lapi_retransmits;
  d.lapi_duplicate_deliveries =
      later.lapi_duplicate_deliveries - earlier.lapi_duplicate_deliveries;
  d.lapi_acks = later.lapi_acks - earlier.lapi_acks;
  d.lapi_reacks_coalesced = later.lapi_reacks_coalesced - earlier.lapi_reacks_coalesced;
  d.pipes_retransmits = later.pipes_retransmits - earlier.pipes_retransmits;
  d.pipes_duplicate_deliveries =
      later.pipes_duplicate_deliveries - earlier.pipes_duplicate_deliveries;
  d.pipes_acks = later.pipes_acks - earlier.pipes_acks;
  d.pipes_reacks_coalesced = later.pipes_reacks_coalesced - earlier.pipes_reacks_coalesced;
  d.completion_thread_dispatches =
      later.completion_thread_dispatches - earlier.completion_thread_dispatches;
  d.completion_inline_runs = later.completion_inline_runs - earlier.completion_inline_runs;
  d.sim_events = later.sim_events - earlier.sim_events;
  d.events_pushed = later.events_pushed - earlier.events_pushed;
  d.events_popped = later.events_popped - earlier.events_popped;
  d.actions_inline = later.actions_inline - earlier.actions_inline;
  d.action_pool_hits = later.action_pool_hits - earlier.action_pool_hits;
  d.action_pool_misses = later.action_pool_misses - earlier.action_pool_misses;
  d.action_fallback_allocs = later.action_fallback_allocs - earlier.action_fallback_allocs;
  d.frames_recycled = later.frames_recycled - earlier.frames_recycled;
  d.frames_fresh = later.frames_fresh - earlier.frames_fresh;
  d.hal_staged_bytes = later.hal_staged_bytes - earlier.hal_staged_bytes;
  return d;
}

void Machine::print_stats(std::FILE* out) const {
  const Stats s = stats();
  std::fprintf(out, "--- %s, %d tasks, t=%.1f us ---\n", backend_name(backend_), num_tasks_,
               sim::to_us(elapsed_));
  std::fprintf(out, "fabric: %lld packets, %lld bytes, %lld dropped, %lld duplicated\n",
               static_cast<long long>(s.fabric_packets), static_cast<long long>(s.fabric_bytes),
               static_cast<long long>(s.fabric_dropped),
               static_cast<long long>(s.fabric_duplicated));
  std::fprintf(out, "hal:    %lld sent, %lld received, %lld interrupts\n",
               static_cast<long long>(s.packets_sent),
               static_cast<long long>(s.packets_received), static_cast<long long>(s.interrupts));
  std::fprintf(out, "mpci:   %lld eager, %lld rendezvous, %lld early arrivals, "
               "%lld ea-fallbacks, %lld ea-nacks\n",
               static_cast<long long>(s.eager_sends),
               static_cast<long long>(s.rendezvous_sends),
               static_cast<long long>(s.early_arrivals),
               static_cast<long long>(s.ea_fallbacks), static_cast<long long>(s.ea_nacks));
  if (backend_ == Backend::kRdma) {
    std::fprintf(out, "rdma:   %lld writes, %lld reads, %lld nic-colls, %lld retx, "
                 "%lld acks, %lld dup-rcvd\n",
                 static_cast<long long>(s.rdma_writes), static_cast<long long>(s.rdma_reads),
                 static_cast<long long>(s.nic_collectives),
                 static_cast<long long>(s.rdma_retransmits),
                 static_cast<long long>(s.rdma_acks),
                 static_cast<long long>(s.rdma_duplicate_deliveries));
  }
  if (s.innet_collectives > 0) {
    std::fprintf(out, "innet:  %lld colls, %lld combines, %lld replications, "
                 "%lld dup-discards, %lld retx, %lld table-peak\n",
                 static_cast<long long>(s.innet_collectives),
                 static_cast<long long>(s.innet_combines),
                 static_cast<long long>(s.innet_replications),
                 static_cast<long long>(s.innet_dup_discards),
                 static_cast<long long>(s.innet_retransmits),
                 static_cast<long long>(s.innet_table_peak));
  }
  std::fprintf(out, "lapi:   %lld messages, %lld retx, %lld dup-rcvd, %lld acks "
               "(%lld re-acks coalesced); completions: %lld thread, %lld inline\n",
               static_cast<long long>(s.lapi_messages),
               static_cast<long long>(s.lapi_retransmits),
               static_cast<long long>(s.lapi_duplicate_deliveries),
               static_cast<long long>(s.lapi_acks),
               static_cast<long long>(s.lapi_reacks_coalesced),
               static_cast<long long>(s.completion_thread_dispatches),
               static_cast<long long>(s.completion_inline_runs));
  std::fprintf(out, "pipes:  %lld retx, %lld dup-rcvd, %lld acks (%lld re-acks coalesced); "
               "simulator: %llu events\n",
               static_cast<long long>(s.pipes_retransmits),
               static_cast<long long>(s.pipes_duplicate_deliveries),
               static_cast<long long>(s.pipes_acks),
               static_cast<long long>(s.pipes_reacks_coalesced),
               static_cast<unsigned long long>(s.sim_events));
  std::fprintf(out, "sched:  digest 0x%016llx\n",
               static_cast<unsigned long long>(schedule_digest()));
  std::fprintf(out, "host:   %llu events pushed, %llu popped; actions: %llu inline, "
               "%llu pooled, %llu pool-miss, %llu fallback\n",
               static_cast<unsigned long long>(s.events_pushed),
               static_cast<unsigned long long>(s.events_popped),
               static_cast<unsigned long long>(s.actions_inline),
               static_cast<unsigned long long>(s.action_pool_hits),
               static_cast<unsigned long long>(s.action_pool_misses),
               static_cast<unsigned long long>(s.action_fallback_allocs));
  std::fprintf(out, "host:   frames: %llu recycled, %llu fresh; %lld bytes staged (un-modeled)\n",
               static_cast<unsigned long long>(s.frames_recycled),
               static_cast<unsigned long long>(s.frames_fresh),
               static_cast<long long>(s.hal_staged_bytes));
}

void Machine::run(const std::function<void(Mpi&)>& program) {
  run_threads([this, &program](int t) {
    nodes_[static_cast<std::size_t>(t)]->channel->on_thread_start();
    program(*nodes_[static_cast<std::size_t>(t)]->mpi);
  });
}

void Machine::run_lapi(const std::function<void(lapi::Lapi&)>& program) {
  run_threads([this, &program](int t) { program(*nodes_[static_cast<std::size_t>(t)]->lapi); });
}

}  // namespace sp::mpi
