// Telemetry: the structured observability subsystem (DESIGN.md §10).
//
// Replaces ad-hoc string tracing on the hot path with fixed-size binary
// records (timestamp, node, layer, event id, two u64 args) appended to a
// bounded ring buffer, plus per-node/per-event counter and log2-bucket
// latency-histogram registries that can be snapshotted live. Exporters
// (Chrome trace-event JSON, CSV, human-readable text) turn the ring into the
// protocol timelines the paper reads its argument off (Figs. 10-13).
//
// Cost discipline: with telemetry disabled every emission site pays exactly
// one pointer test (see SP_TELEM); enabled emission allocates nothing and
// consumes no randomness, so the simulated event order — and the golden
// determinism digests — are identical with telemetry on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "sim/time.hpp"

namespace sp::sim {

/// The eight libraries of the stack (Fig. 1), lowest first.
enum class Layer : std::uint8_t { kSim, kNet, kHal, kPipes, kLapi, kMpci, kMpi, kNas };
inline constexpr int kNumLayers = 8;

[[nodiscard]] const char* layer_name(Layer l) noexcept;

/// Every instrumented protocol point. Names (see event_name) follow the
/// "layer.point" convention, e.g. "lapi.header_handler".
enum class Ev : std::uint16_t {
  // sim
  kRankStart,        ///< a0 = rank
  kRankFinish,       ///< a0 = rank
  // net (switch fabric)
  kPacketInject,     ///< a0 = dst, a1 = wire bytes
  kPacketDrop,       ///< a0 = dst, a1 = wire bytes
  kPacketDup,        ///< a0 = dst, a1 = wire bytes
  // hal (adapter)
  kDmaStart,         ///< send descriptor posted; a0 = dst, a1 = wire bytes
  kDmaEnd,           ///< frame injected into the fabric; a0 = dst, a1 = wire bytes
  kRecvDma,          ///< frame DMA'd into a pinned host buffer; a0 = src, a1 = wire bytes
  kHalDeliver,       ///< dispatch to the protocol layer; a0 = src, a1 = proto id
  kIrqEnter,         ///< a0 = packets pending
  kIrqExit,          ///< a0 = service ns (also recorded in Hist::kIrqServiceNs)
  // pipes (native byte-stream transport)
  kPipeSend,         ///< a0 = dst, a1 = payload bytes
  kPipeDeliver,      ///< a0 = src, a1 = payload bytes
  kPipeRetransmit,   ///< a0 = dst, a1 = stream offset
  kPipeAck,          ///< a0 = peer, a1 = cumulative offset
  kPipeDupRecv,      ///< a0 = src, a1 = stream offset
  // lapi (reliable active-message transport)
  kAmSend,           ///< a0 = tgt, a1 = udata bytes
  kHeaderHandler,    ///< a0 = origin, a1 = message bytes
  kCompletionInline, ///< Enhanced LAPI: predefined handler in dispatcher context
  kCompletionThread, ///< Base LAPI: dispatch to the completion-handler thread
  kLapiRetransmit,   ///< a0 = peer, a1 = packet seq
  kLapiAck,          ///< a0 = peer, a1 = cumulative seq
  kLapiDupRecv,      ///< a0 = peer, a1 = packet seq
  // mpci (matching layer)
  kMatch,            ///< a0 = queue entries scanned, a1 = 1 if matched
  kEarlyArrival,     ///< a0 = buffered bytes
  kEagerSend,        ///< a0 = dst, a1 = bytes
  kRendezvousSend,   ///< a0 = dst, a1 = bytes
  // mpi (semantics layer)
  kMpiEnter,         ///< a0 = MpiCall
  kMpiExit,          ///< a0 = MpiCall, a1 = call duration ns
  // nas (workloads)
  kKernelBegin,      ///< a0 = NasKernel, a1 = scale
  kKernelEnd,        ///< a0 = NasKernel, a1 = 1 if verified
  // mpi collective algorithm engine (appended so earlier event ids — and the
  // pinned telemetry digests of runs that emit none of these — stay stable)
  kCollBegin,        ///< a0 = CollAlgo, a1 = payload bytes
  kCollEnd,          ///< a0 = CollAlgo, a1 = span duration ns
  // in-network combining engine (appended; same digest-stability rule)
  kInnetCombine,     ///< a0 = children folded, a1 = payload bytes
  kInnetReplicate,   ///< a0 = replication fan-out, a1 = payload bytes
};
inline constexpr int kNumEvents = static_cast<int>(Ev::kInnetReplicate) + 1;

[[nodiscard]] const char* event_name(Ev e) noexcept;
[[nodiscard]] Layer event_layer(Ev e) noexcept;

/// MPI public entry points, carried in a0 of kMpiEnter/kMpiExit.
enum class MpiCall : std::uint8_t {
  kSend, kSsend, kRsend, kBsend, kRecv, kSendrecv,
  kIsend, kIssend, kIrsend, kIbsend, kIrecv,
  kWait, kTest, kWaitall, kWaitany, kTestall,
  kProbe, kIprobe,
  kBarrier, kBcast, kReduce, kAllreduce, kGather, kScatter, kAllgather,
  kAlltoall, kAlltoallv, kScan, kExscan, kGatherv, kScatterv,
  kReduceScatter, kStart,
};
inline constexpr int kNumMpiCalls = static_cast<int>(MpiCall::kStart) + 1;
[[nodiscard]] const char* mpi_call_name(MpiCall c) noexcept;

/// NAS mini-kernels, carried in a0 of kKernelBegin/kKernelEnd.
enum class NasKernel : std::uint8_t { kEp, kIs, kCg, kMg, kFt, kLu, kBt, kSp };
[[nodiscard]] const char* nas_kernel_name(NasKernel k) noexcept;

/// Every (collective, algorithm) pair of the sp::mpi::coll engine, carried in
/// a0 of kCollBegin/kCollEnd and counted per node by Telemetry::record_coll.
/// Lives in the sim layer (like MpiCall) so exporters can name the spans.
enum class CollAlgo : std::uint8_t {
  kBcastBinomial, kBcastPipelined, kBcastScatterAllgather,
  kAllreduceReduceBcast, kAllreduceRecursiveDoubling, kAllreduceRabenseifner,
  kAlltoallPairwise, kAlltoallBruck,
  kReduceScatterReduceScatter, kReduceScatterRecursiveHalving,
  kScanLinear, kScanBinomial,
  kExscanLinear, kExscanBinomial,
  // NIC-offloaded variants (appended so runs that emit none of these keep
  // their pinned digests — same append-only rule as Ev).
  kBcastNicOffload, kAllreduceNicOffload, kBarrierNicOffload,
  // In-network switch-combining variants (appended; same rule).
  kBcastInNetwork, kAllreduceInNetwork, kBarrierInNetwork,
};
inline constexpr int kNumCollAlgos = static_cast<int>(CollAlgo::kBarrierInNetwork) + 1;
[[nodiscard]] const char* coll_algo_name(CollAlgo a) noexcept;

/// Live latency/size distributions, log2-bucketed (HDR style).
enum class Hist : std::uint8_t {
  kMpiCallNs,    ///< duration of each MPI public call
  kIrqServiceNs, ///< interrupt entry -> handler return
  kMatchScanned, ///< queue entries scanned per matching attempt
  kMsgBytes,     ///< MPCI message sizes (eager + rendezvous)
};
inline constexpr int kNumHists = 4;
inline constexpr int kHistBuckets = 48;
[[nodiscard]] const char* hist_name(Hist h) noexcept;

/// Bucket 0 holds value 0; bucket b >= 1 holds [2^(b-1), 2^b).
[[nodiscard]] constexpr int hist_bucket(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const int b = 64 - __builtin_clzll(v);  // floor(log2(v)) + 1
  return b < kHistBuckets ? b : kHistBuckets - 1;
}
/// Inclusive lower bound of bucket `b` (upper bound is lower_bound(b+1) - 1).
[[nodiscard]] constexpr std::uint64_t hist_bucket_floor(int b) noexcept {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

/// One timeline entry: 32 bytes, fixed layout, no indirection.
struct TraceRecord {
  TimeNs t = 0;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::int32_t node = 0;
  std::uint16_t event = 0;  ///< Ev
  std::uint8_t layer = 0;   ///< Layer (redundant with event; kept for exporters)
  std::uint8_t reserved = 0;
};
static_assert(sizeof(TraceRecord) == 32, "trace records must stay fixed-size");

class Telemetry {
 public:
  /// `ring_bytes` bounds the timeline buffer; counters/histograms are O(nodes).
  Telemetry(int num_nodes, std::size_t ring_bytes);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Append a record (overwriting the oldest when full) and bump the
  /// per-(node, event) counter. Allocation-free.
  void emit(TimeNs t, int node, Ev e, std::uint64_t a0 = 0, std::uint64_t a1 = 0) noexcept {
    ++counters_[counter_index(node, e)];
    ++emitted_;
    if (full()) ++dropped_;
    ring_[head_] = TraceRecord{t, a0, a1, node, static_cast<std::uint16_t>(e),
                               static_cast<std::uint8_t>(event_layer(e)), 0};
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) ++size_;
  }

  /// Record a value in a per-node log2 histogram. Allocation-free.
  void record_hist(Hist h, int node, std::uint64_t value) noexcept {
    ++hist_[hist_index(node, h, hist_bucket(value))];
  }

  /// Bump the per-(node, collective-algorithm) counter. Allocation-free;
  /// emitted by the collective engine alongside its kCollBegin span.
  void record_coll(int node, CollAlgo a) noexcept {
    ++coll_counters_[coll_index(node, a)];
  }

  // --- queries -------------------------------------------------------------
  [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::size_t ring_capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t ring_bytes_in_use() const noexcept {
    return size_ * sizeof(TraceRecord);
  }
  [[nodiscard]] std::uint64_t records_emitted() const noexcept { return emitted_; }
  [[nodiscard]] std::uint64_t records_dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t counter(int node, Ev e) const noexcept {
    return counters_[counter_index(node, e)];
  }
  [[nodiscard]] std::uint64_t counter_total(Ev e) const noexcept;
  [[nodiscard]] std::uint64_t hist_count(int node, Hist h, int bucket) const noexcept {
    return hist_[hist_index(node, h, bucket)];
  }
  [[nodiscard]] std::uint64_t coll_count(int node, CollAlgo a) const noexcept {
    return coll_counters_[coll_index(node, a)];
  }
  [[nodiscard]] std::uint64_t coll_count_total(CollAlgo a) const noexcept;

  /// The retained timeline, oldest record first.
  [[nodiscard]] std::vector<TraceRecord> records() const;

  /// FNV-1a over the retained records plus the drop count — the determinism
  /// digest for traced runs.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  // --- live sampling -------------------------------------------------------
  /// A copyable point-in-time view of every counter and histogram. Two
  /// snapshots bracket a phase; delta() attributes activity to it.
  struct Snapshot {
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
    std::vector<std::uint64_t> counters;  ///< [node * kNumEvents + event]
    std::vector<std::uint64_t> hist;      ///< [(node * kNumHists + h) * kHistBuckets + b]
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Element-wise `later - earlier`; both must come from the same Telemetry.
  [[nodiscard]] static Snapshot delta(const Snapshot& later, const Snapshot& earlier);

  // --- exporters -----------------------------------------------------------
  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto):
  /// pid = node, tid = layer; MPI calls and NAS kernels become B/E spans,
  /// everything else instant events.
  void export_chrome_json(std::FILE* out) const;
  /// One record per line: t_ns,node,layer,event,a0,a1.
  void export_csv(std::FILE* out) const;
  /// Human dump, one record per line: time (us), node, event name, a0, a1.
  void export_text(std::FILE* out) const;
  /// Counter + histogram tables (aggregated and per node).
  void print_metrics(std::FILE* out) const;

 private:
  [[nodiscard]] bool full() const noexcept { return size_ == ring_.size(); }
  [[nodiscard]] std::size_t counter_index(int node, Ev e) const noexcept {
    return static_cast<std::size_t>(node) * kNumEvents + static_cast<std::size_t>(e);
  }
  [[nodiscard]] std::size_t hist_index(int node, Hist h, int bucket) const noexcept {
    return (static_cast<std::size_t>(node) * kNumHists + static_cast<std::size_t>(h)) *
               kHistBuckets +
           static_cast<std::size_t>(bucket);
  }
  [[nodiscard]] std::size_t coll_index(int node, CollAlgo a) const noexcept {
    return static_cast<std::size_t>(node) * kNumCollAlgos + static_cast<std::size_t>(a);
  }

  int num_nodes_;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  ///< Next write position.
  std::size_t size_ = 0;  ///< Records currently retained.
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::uint64_t> counters_;
  std::vector<std::uint64_t> hist_;
  std::vector<std::uint64_t> coll_counters_;
};

}  // namespace sp::sim

/// Emission macro: `rt` is a NodeRuntime(-like) object exposing `.telemetry`
/// (Telemetry*), `.sim` and `.node`. Disabled telemetry costs exactly the one
/// null test; arguments are not evaluated when disabled beyond what the call
/// site already computed.
#define SP_TELEM(rt, ev, ...)                                                \
  do {                                                                       \
    if ((rt).telemetry != nullptr)                                           \
      (rt).telemetry->emit((rt).sim.now(), (rt).node, (ev), ##__VA_ARGS__);  \
  } while (0)

/// Histogram variant of SP_TELEM.
#define SP_TELEM_HIST(rt, h, value)                                     \
  do {                                                                  \
    if ((rt).telemetry != nullptr)                                      \
      (rt).telemetry->record_hist((h), (rt).node, (value));             \
  } while (0)
