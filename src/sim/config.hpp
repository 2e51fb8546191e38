// MachineConfig: the calibrated cost model of the simulated RS/6000 SP.
//
// Every constant a protocol layer charges lives here so experiments can sweep
// them (the ablation benches do). Defaults are calibrated to be plausible for
// the paper's testbed — 332 MHz Power-PC 604e SMP nodes with the TBMX switch
// adapter, August 1998 software levels — and to reproduce the *shapes* of the
// paper's figures (see EXPERIMENTS.md for the calibration notes).
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace sp::sim {

class ScheduleController;  // sim/sched.hpp

/// Interconnect selector (DESIGN.md §13). kSpMultistage is the paper's switch
/// and the default; the others are the scale-study topology zoo.
enum class TopologyKind : int {
  kSpMultistage = 0,
  kFatTree = 1,
  kTorus2d = 2,
  kTorus3d = 3,
  kDragonfly = 4,
};
inline constexpr int kTopologyKinds = 5;

struct MachineConfig {
  // --- Switch fabric -------------------------------------------------------
  /// Per-link serialization cost. 150 MB/s links give the ~160 MB/s
  /// bi-directional node-pair figure the paper quotes.
  double link_ns_per_byte = 1e3 / 150.0;  // ~6.67 ns/B = 150 MB/s
  /// Latency through one switch element / cable hop.
  TimeNs hop_latency_ns = 150;
  /// Number of spine switch elements = distinct routes per node pair.
  int num_routes = 4;
  /// Probability that the fabric drops a packet (fault injection; 0 = none).
  double packet_drop_rate = 0.0;
  /// Probability that the fabric delivers a second copy of a packet (fault
  /// injection; models adapter-level re-delivery after a spurious CRC retry).
  double packet_dup_rate = 0.0;
  /// Maximum extra per-delivery delay drawn uniformly from [0, jitter)
  /// (fault injection; widens cross-route reordering windows). 0 = none.
  TimeNs packet_jitter_ns = 0;
  /// When a random drop fires, drop this many *consecutive* packets of the
  /// same (src, dst) pair (per-link burst loss). 1 = independent drops.
  int burst_drop_len = 1;
  /// RNG seed for the fabric (route perturbation, drops, dup, jitter).
  std::uint64_t fabric_seed = 0x5eed;
  /// Extra latency added per route index (route r adds r * route_skew_ns).
  /// 0 on the real machine; tests raise it to force out-of-order arrival
  /// deterministically even without cross-traffic.
  TimeNs route_skew_ns = 0;
  /// Probability that a packet abandons the round-robin route choice and
  /// takes a seeded random route instead (schedule-space exploration; skews
  /// per-route load so some routes congest and reorder harder). 0 = pure
  /// round-robin, and no randomness is drawn.
  double route_bias = 0.0;
  /// Salt for the event-queue tie-break among same-timestamp events. 0 keeps
  /// strict insertion order (the default, pinned by the golden digests); any
  /// other value applies a seeded bijective permutation to the insertion
  /// sequence, exploring alternative handler-dispatch interleavings while
  /// remaining a deterministic total order per salt.
  std::uint64_t event_tie_break_salt = 0;
  /// Systematic-exploration hook (DESIGN.md §15): when non-null, installed on
  /// the event queue so this controller picks among same-window ready events.
  /// Not owned; must outlive the Machine. Normal runs leave it null.
  ScheduleController* sched_controller = nullptr;
  /// Candidate-window width for the controller (events with
  /// at <= min_at + window form one choice point). 0 = same-timestamp only.
  TimeNs sched_window_ns = 0;

  // --- Topology zoo (DESIGN.md §13) ----------------------------------------
  /// Which interconnect the fabric models. The SP multistage default is
  /// bit-exact with the pre-topology fabric (golden digests pin it).
  TopologyKind topology = TopologyKind::kSpMultistage;
  /// Fat-tree shape: levels (0 = auto: 2 up to 64 nodes, else 3), and
  /// per-level {down children, up parents, up-link multiplicity}. Index 0 is
  /// the leaf level, index 1 the aggregation level (3-level only).
  int fattree_levels = 0;
  std::array<int, 2> fattree_down = {8, 4};
  std::array<int, 2> fattree_up = {4, 4};
  std::array<int, 2> fattree_mult = {1, 1};
  /// Torus shape; 0 = auto (near-cubic factorization of the node count).
  int torus_x = 0;
  int torus_y = 0;
  int torus_z = 0;
  /// Dragonfly shape: a routers per group, h hosts per router (groups =
  /// ceil(N / (a*h))), and how many Valiant detour routes augment the
  /// minimal route for inter-group spray.
  int df_routers_per_group = 4;
  int df_hosts_per_router = 4;
  int df_valiant_routes = 3;
  /// Per-link-class cost scaling: local (leaf/agg/torus/intra-group) and
  /// global (core/inter-group) links relative to the host-link baseline
  /// (link_ns_per_byte / hop_latency_ns). Global cables also add a fixed
  /// latency (long optical runs). 1.0 / 0 keep all classes identical — the
  /// SP multistage path requires that for digest stability.
  double topo_local_bw_scale = 1.0;
  double topo_global_bw_scale = 1.0;
  TimeNs topo_global_extra_latency_ns = 0;
  /// Per-destination delivery batching (one outstanding wake event per dst
  /// draining a pending min-heap, instead of one queue entry per in-flight
  /// packet): -1 = auto (on for every topology except SP multistage, whose
  /// event order the golden digests pin), 0 = off, 1 = on.
  int fabric_delivery_batching = -1;

  // --- Adapter (TB3/TBMX) --------------------------------------------------
  /// Fixed cost to DMA one packet descriptor between host and adapter.
  TimeNs adapter_packet_setup_ns = 700;
  /// Per-byte DMA cost host memory <-> adapter SRAM. The TBMX adapter, not
  /// the 150 MB/s link, bounds achievable node-pair bandwidth (~90 MB/s).
  double adapter_ns_per_byte = 10.0;
  /// Wire-level packet payload capacity (the SP switch uses 1 KiB packets).
  std::size_t packet_mtu = 1024;
  /// HAL header prepended to every wire packet.
  std::size_t hal_header_bytes = 16;
  /// Number of pinned HAL send buffers (outstanding packets) per node.
  int hal_send_buffers = 64;
  /// Host CPU cost of the HAL <-> microcode handshake per packet.
  TimeNs hal_per_packet_cpu_ns = 500;

  // --- Host memory ---------------------------------------------------------
  /// Per-byte cost of a protocol memcpy (~250 MB/s on a 604e).
  double copy_ns_per_byte = 4.0;
  /// Fixed cost per protocol memcpy call.
  TimeNs copy_call_ns = 200;

  // --- Interrupts ----------------------------------------------------------
  /// Dispatch latency from packet arrival to interrupt handler entry.
  TimeNs interrupt_latency_ns = 12'000;
  /// CPU cost of taking + retiring one interrupt.
  TimeNs interrupt_service_ns = 6'000;
  /// Native-MPI hysteresis: after servicing packets the handler busy-waits
  /// this long for more packets before returning (0 disables; LAPI uses 0).
  TimeNs interrupt_hysteresis_ns = 60'000;
  /// Hysteresis growth factor applied when more packets do arrive in-window.
  double interrupt_hysteresis_growth = 2.0;
  /// Cap on the grown hysteresis window.
  TimeNs interrupt_hysteresis_max_ns = 240'000;

  // --- Reliability (both Pipes and LAPI transports) -------------------------
  TimeNs retransmit_timeout_ns = 2 * kMs;
  int sliding_window_packets = 32;
  /// CPU cost to generate or process an ack packet.
  TimeNs ack_processing_ns = 400;
  /// Acks are piggybacked/coalesced: send an explicit ack after this many
  /// unacknowledged packets (or on timeout).
  int ack_every_packets = 8;
  /// Delayed-ack flush: send a pending ack at most this long after the first
  /// unacknowledged packet.
  TimeNs ack_delay_ns = 100'000;

  // --- LAPI ----------------------------------------------------------------
  /// Fixed software overhead of one LAPI API call (parameter checking of the
  /// exposed interface — the paper blames this for the short-message gap).
  TimeNs lapi_call_overhead_ns = 1'800;
  /// Cost of running a header handler (dispatcher context).
  TimeNs header_handler_ns = 900;
  /// Cost of running a *predefined* completion handler inline in the
  /// dispatcher (the paper's "Enhanced LAPI").
  TimeNs completion_inline_ns = 350;
  /// Cost of dispatching a completion handler to the separate completion
  /// handler thread and switching back (two thread context switches plus
  /// scheduler latency) — the dominant overhead of the Base MPI-LAPI.
  TimeNs completion_thread_switch_ns = 26'000;
  /// Dispatcher cost per received packet (reassembly bookkeeping).
  TimeNs lapi_dispatch_packet_ns = 450;
  /// LAPI message header (carried in the first packet of each message).
  std::size_t lapi_header_bytes = 40;

  // --- RDMA adapter (NIC-offload third channel, DESIGN.md §14) --------------
  /// Host CPU cost of ringing the adapter doorbell (posting one work request
  /// from the rank fiber). The only host charge on the RDMA fast path.
  TimeNs rdma_doorbell_ns = 600;
  /// NIC-side per-packet descriptor cost. Replaces adapter_packet_setup_ns on
  /// NIC-originated sends: descriptors are pre-posted and the engine cuts
  /// through, so the per-packet setup is a fraction of the host-driven path.
  TimeNs rdma_nic_pkt_ns = 150;
  /// Host CPU cost of reaping one completion-queue entry (polled; the RDMA
  /// channel has no header-handler dispatch and no interrupt path).
  TimeNs rdma_cq_ns = 300;
  /// NIC processor cost per offloaded-collective message (Elan/Quadrics-style
  /// thread on the adapter; charged as event latency, never host CPU).
  TimeNs rdma_nic_msg_ns = 200;
  /// Pre-posted eager ring-buffer slots per (source, destination) pair.
  /// Senders consume one slot per eager write and fall back to rendezvous
  /// when the ring is exhausted (credit-based flow control).
  int rdma_ring_slots = 64;
  /// RDMA message header (smaller than LAPI's: no AM dispatch block).
  std::size_t rdma_header_bytes = 28;
  /// Largest payload the NIC-resident collectives accept; bigger vectors fall
  /// back to the host-side algorithm engine.
  std::size_t rdma_nic_coll_max_bytes = 2048;

  // --- In-network combining collectives (sp::net, DESIGN.md §16) -----------
  /// Largest payload the switch combining tables accept; bigger vectors fall
  /// back to the host-side algorithm engine (table SRAM is scarce on real
  /// combining switches, so the cap mirrors rdma_nic_coll_max_bytes).
  std::size_t in_network_coll_max_bytes = 2048;
  /// Per-topology auto-selection enablement: bit (1 << TopologyKind) allows
  /// the selection engine to pick in_network on that fabric when unpinned.
  /// Default 0: auto never selects it (every pinned digest predates the
  /// engine); an explicit pin (coll id 5 / --coll-algo in_network) always
  /// works regardless of the mask.
  unsigned in_network_topology_mask = 0;
  /// Per-level pipeline latency through one combining element (cut-through:
  /// paid per level, but the payload is serialized only once end-to-end).
  TimeNs innet_hop_ns = 120;
  /// Fixed cost of folding one child contribution into an element's
  /// accumulator, plus a per-byte term for the vector ALU.
  TimeNs innet_combine_ns = 80;
  double innet_combine_ns_per_byte = 0.5;
  /// Host-side cost of posting one combining-collective descriptor (doorbell
  /// + table-entry install) and of reaping its completion.
  TimeNs innet_post_ns = 300;
  /// Link-level retry interval when fault injection drops a combining-tree
  /// hop (the table entry persists; the retransmit re-offers the same
  /// contribution and the element's seen-flag makes re-combining impossible).
  TimeNs innet_retry_ns = 2'000;

  // --- Early-arrival flow control (all channels) ----------------------------
  /// Sender-side cap on eager bytes in flight per destination before the
  /// sender falls back to rendezvous (counted in Machine::stats.ea_fallbacks).
  /// 0 = auto: early_arrival_bytes / max(1, num_tasks - 1), which provably
  /// cannot overflow the receiver's early-arrival buffer. A nonzero override
  /// can oversubscribe it; in-flight eagers that find the buffer full are
  /// then NACKed back into the rendezvous path instead of dying.
  std::size_t ea_sender_limit_bytes = 0;

  // --- Pipes (native MPI byte-stream transport) ------------------------------
  /// Fixed software overhead of one internal Pipes call (not an exposed
  /// interface; cheaper than a LAPI call).
  TimeNs pipe_call_overhead_ns = 900;
  /// Pipe buffer size per destination.
  std::size_t pipe_buffer_bytes = 64 * 1024;
  /// The native stack copies only the first and last `pipe_copy_span_bytes`
  /// of each message through the pipe buffers (Snir et al.; §2 of the paper);
  /// the middle of large messages is fed to HAL directly.
  std::size_t pipe_copy_span_bytes = 16 * 1024;
  /// Per-packet CPU cost of pipe seq/ack bookkeeping.
  TimeNs pipe_packet_ns = 350;
  /// Pipe wire header per packet (smaller than LAPI's: internal interface).
  std::size_t pipe_header_bytes = 24;

  // --- MPCI / MPI ----------------------------------------------------------
  /// Base cost of attempting to match one envelope against a queue.
  TimeNs match_base_ns = 450;
  /// Additional matching cost per queue entry scanned.
  TimeNs match_per_entry_ns = 60;
  /// Cost of one lock/unlock pair on MPI-level shared structures.
  TimeNs lock_pair_ns = 250;
  /// Fixed software overhead of one MPI call.
  TimeNs mpi_call_overhead_ns = 1'200;
  /// Eager/rendezvous switchover (MP_EAGER_LIMIT; paper default).
  std::size_t eager_limit = 4096;
  /// Counter-ring slots per (source, destination) pair for the MPI-LAPI
  /// "Counters" version (§5.2). Must greatly exceed the transport window.
  int counter_ring_slots = 1024;
  /// Early-arrival buffer capacity per task.
  std::size_t early_arrival_bytes = 1 * 1024 * 1024;

  // --- Collective algorithm engine (sp::mpi::coll, DESIGN.md §12) -----------
  // Per-primitive algorithm pins. 0 = auto (size/topology selection below);
  // nonzero values index the primitive's algorithm enum in src/mpi/coll.hpp
  // (e.g. bcast: 1=binomial, 2=pipelined, 3=scatter_allgather). Benchmarks
  // and the conformance matrix pin concrete algorithms through these.
  int coll_bcast_algo = 0;
  int coll_allreduce_algo = 0;
  /// Barrier: 0 = auto (NIC-offloaded when the channel has an adapter-
  /// resident barrier, else host dissemination), 1 = host dissemination,
  /// 4 = NIC offload (falls back to dissemination off the RDMA channel),
  /// 5 = in-network switch combining (DESIGN.md §16).
  int coll_barrier_algo = 0;
  int coll_alltoall_algo = 0;
  int coll_reduce_scatter_algo = 0;
  int coll_scan_algo = 0;
  /// Auto-selection cutovers. A bcast at least this large uses the pipelined
  /// segmented binomial tree (latency ~ T + (log2 n - 1) * T_seg instead of
  /// log2 n * T).
  std::size_t coll_bcast_pipeline_min_bytes = 32 * 1024;
  /// Segment size for pipelined collectives; a few packets per segment keeps
  /// per-segment overhead amortized while segments still overlap tree hops.
  std::size_t coll_segment_bytes = 16 * 1024;
  /// An allreduce at least this large uses Rabenseifner (reduce-scatter +
  /// allgather, ~2 * (n-1)/n vector volume per node instead of the reduce +
  /// bcast tree's log2 n full-vector hops); below it, recursive doubling
  /// (log2 n rounds, one message each) beats the two-phase tree.
  std::size_t coll_allreduce_rabenseifner_min_bytes = 16 * 1024;
  /// An alltoall with per-block payload at most this uses Bruck (log2 n
  /// rounds of aggregated blocks instead of n-1 pairwise exchanges). The
  /// default stays below the 2 KiB blocks of the pinned determinism workload
  /// so seed schedules keep the pairwise exchange.
  std::size_t coll_alltoall_bruck_max_bytes = 1024;
  /// A reduce_scatter_block whose full input vector is at least this large
  /// uses recursive halving instead of reduce + scatter through rank 0.
  std::size_t coll_reduce_scatter_halving_min_bytes = 8 * 1024;

  // --- Simulation ----------------------------------------------------------
  /// Quantum a spinning rank thread advances between memory probes.
  TimeNs spin_check_ns = 500;
  /// Record structured telemetry (Machine::telemetry()); off by default.
  /// Costs one branch per emission site when off and draws no randomness
  /// either way, so simulated timelines are identical on or off.
  bool telemetry_enabled = false;
  /// Byte cap for the telemetry ring buffer (32-byte records; oldest records
  /// are overwritten beyond the cap and counted as dropped).
  std::size_t telemetry_ring_bytes = 4 * 1024 * 1024;
  /// Per-node floor for the telemetry ring: the effective ring is
  /// max(telemetry_ring_bytes, num_tasks * telemetry_ring_bytes_per_node),
  /// capped at 128 MiB, so traced runs at scale keep zero drops without
  /// hand-tuning. The default leaves 2-node runs at the 4 MiB legacy size
  /// (pinned traced digests depend on the ring capacity).
  std::size_t telemetry_ring_bytes_per_node = 2 * 1024 * 1024;

  // --- Debug / fault re-introduction -----------------------------------------
  /// Re-introduce the PR 2 ack-storm bug: every duplicate delivery answers
  /// with an immediate re-ack instead of coalescing a burst into one. Exists
  /// only so the conformance explorer can prove it catches the regression
  /// (tests/explorer_test.cpp); never enable outside tests.
  bool debug_disable_reack_coalescing = false;

  // --- Testbed presets (§1: the two SP node/adapter generations) -----------
  /// 332 MHz Power-PC SMP nodes with the TBMX adapter — the paper's
  /// evaluation testbed. This is the default configuration.
  [[nodiscard]] static MachineConfig tbmx_332() { return MachineConfig{}; }

  /// Power2-Super (P2SC) uniprocessor nodes with the TB3 adapter: slower
  /// clock but a stronger memory system and a faster adapter, so copies cost
  /// less and the adapter ceiling sits higher (~2x the TBMX path).
  [[nodiscard]] static MachineConfig tb3_p2sc() {
    MachineConfig cfg;
    cfg.adapter_ns_per_byte = 6.0;    // TB3 DMA ~2x TBMX
    cfg.adapter_packet_setup_ns = 550;
    cfg.copy_ns_per_byte = 3.0;       // P2SC memory pipes
    cfg.copy_call_ns = 180;
    cfg.interrupt_latency_ns = 15'000;  // slower clock, pricier kernel entry
    cfg.interrupt_service_ns = 8'000;
    return cfg;
  }
};

/// Modeled cost of one host memcpy of `bytes`: the per-call overhead plus the
/// per-byte rate. Every copy the paper counts is charged through here.
[[nodiscard]] inline TimeNs copy_cost(const MachineConfig& cfg, std::size_t bytes) {
  return cfg.copy_call_ns +
         static_cast<TimeNs>(std::llround(cfg.copy_ns_per_byte * static_cast<double>(bytes)));
}

}  // namespace sp::sim
