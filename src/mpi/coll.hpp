// sp::mpi::coll — the collective algorithm engine (DESIGN.md §12).
//
// Each collective primitive has several point-to-point decompositions with
// different latency/bandwidth trade-offs; a per-(primitive, message-size,
// comm-size, topology) selection table picks one at call time. Barrier,
// bcast and allreduce can also run on an offload engine (the RDMA adapter or
// the switch combining tables); for those three, plan() returns the final
// choice, offload or host, so the Mpi layer only dispatches on it. Cutover
// thresholds and per-primitive pins live in MachineConfig (spsim --coll-algo
// overrides them), so benchmarks and the conformance matrix can force any
// algorithm.
//
// Every algorithm here preserves MPI reduction semantics exactly: operands
// combine in communicator rank order (v0 op v1 op ... op v_{n-1}, regrouped
// only by associativity), so non-commutative operators such as Op::kMat2x2
// give bit-identical results no matter which algorithm the table selects.
// tests/mpi_collectives_test.cpp holds the golden-model conformance matrix
// that every algorithm must pass before auto-selection may choose it.
//
// Tag discipline: the public Mpi collective allocates exactly ONE collective
// tag per call (uniformly, even for size-1 communicators and zero counts —
// see the tag-desync audit in the tests) and multi-phase algorithms derive
// per-phase tags via phase_tag(), so ranks living in different-sized split()
// sub-communicators never let their collective sequence numbers drift apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "sim/config.hpp"
#include "sim/telemetry.hpp"

namespace sp::mpi {
class Mpi;
}  // namespace sp::mpi

namespace sp::mpi::coll {

// Per-primitive algorithm ids. Value 0 is always "auto" (resolve from the
// MachineConfig cutover table); the MachineConfig pins store these as ints.
// Two ids are offload engines rather than host decompositions, with the same
// value on every primitive: kNicOffload = 4 runs the operation on the RDMA
// adapter (DESIGN.md §14.3) and kInNetwork = 5 in the switch combining
// tables (net::CombiningEngine, DESIGN.md §16).
enum class BcastAlgo : int {
  kAuto = 0, kBinomial, kPipelined, kScatterAllgather, kNicOffload, kInNetwork
};
enum class AllreduceAlgo : int {
  kAuto = 0, kReduceBcast, kRecursiveDoubling, kRabenseifner, kNicOffload, kInNetwork
};
enum class AlltoallAlgo : int { kAuto = 0, kPairwise, kBruck };
enum class ReduceScatterAlgo : int { kAuto = 0, kReduceScatter, kRecursiveHalving };
enum class ScanAlgo : int { kAuto = 0, kLinear, kBinomial };
/// Barrier pins (cfg.coll_barrier_algo): host dissemination is the only host
/// algorithm, so the enum exists mainly to name the offload pins.
enum class BarrierAlgo : int {
  kAuto = 0, kDissemination = 1, kNicOffload = 4, kInNetwork = 5
};

// --- dispatch plan for the offload-capable primitives ----------------------

enum class Primitive : std::uint8_t { kBarrier, kBcast, kAllreduce };

/// Offload engines the calling rank can reach: the RDMA adapter (only the
/// rdma backend has one) and the switch combining tables.
struct Caps {
  bool nic = false;
  bool innet = false;
};

/// The algorithm one barrier, bcast or allreduce call runs, as the
/// primitive's algorithm id (a BarrierAlgo, BcastAlgo or AllreduceAlgo value;
/// never kAuto). Every decline is applied here, so the caller only
/// dispatches: an offload needs its engine, n > 1 and `bytes` within the
/// engine's cap (rdma_nic_coll_max_bytes, in_network_coll_max_bytes); a
/// pinned offload that cannot run takes the host auto table instead. Auto
/// prefers the switch (when in_network_topology_mask enables the topology),
/// then the adapter, then the host table, and offloads an allreduce only
/// for bitwise-exact element types. Pure: depends on its arguments only.
[[nodiscard]] int plan(const sim::MachineConfig& cfg, Primitive p, std::size_t bytes, int n,
                       Datatype d, Caps caps);

// --- selection table for the host-only primitives (resolves kAuto) ---------
[[nodiscard]] AlltoallAlgo select_alltoall(const sim::MachineConfig& cfg,
                                           std::size_t block_bytes, int n);
[[nodiscard]] ReduceScatterAlgo select_reduce_scatter(const sim::MachineConfig& cfg,
                                                      std::size_t total_bytes, int n);
[[nodiscard]] ScanAlgo select_scan(const sim::MachineConfig& cfg, std::size_t bytes, int n);

// Telemetry ids (sim::CollAlgo) for the resolved choices.
[[nodiscard]] sim::CollAlgo telem_id(BcastAlgo a) noexcept;
[[nodiscard]] sim::CollAlgo telem_id(AllreduceAlgo a) noexcept;
[[nodiscard]] sim::CollAlgo telem_id(AlltoallAlgo a) noexcept;
[[nodiscard]] sim::CollAlgo telem_id(ReduceScatterAlgo a) noexcept;
[[nodiscard]] sim::CollAlgo telem_id(ScanAlgo a, bool exclusive) noexcept;

/// Apply a `--coll-algo` spec to the config pins. The spec is a comma list of
/// `primitive=algorithm` entries, e.g.
/// "bcast=pipelined,allreduce=rabenseifner,alltoall=bruck,scan=binomial";
/// `primitive=auto` restores size-based selection and `all=auto` clears every
/// pin. Returns false (and fills *err when non-null) on an unknown name.
bool apply_algo_spec(sim::MachineConfig& cfg, const std::string& spec, std::string* err);

/// Whether any primitive (barrier included) is pinned to an algorithm.
[[nodiscard]] bool any_algo_pinned(const sim::MachineConfig& cfg) noexcept;

/// Derive the tag of phase `phase` of a multi-phase algorithm from the single
/// collective tag the public call allocated. Phases stay inside the reserved
/// collective tag space and never collide with the per-call sequence tags.
[[nodiscard]] constexpr int phase_tag(int tag, int phase) noexcept {
  return tag + 4096 * phase;
}

/// Element-group size an operator reduces over: Op::kMat2x2 combines disjoint
/// groups of 4 elements, so vector splits must align to it (all others are
/// element-wise).
[[nodiscard]] constexpr std::size_t op_granule(Op op) noexcept {
  return op == Op::kMat2x2 ? 4 : 1;
}

// --- algorithm implementations ---------------------------------------------
// All take the communicator-rank-space arguments of their public counterpart
// plus the collective tag; multi-phase algorithms consume phase_tag(tag, p).

void bcast_binomial(Mpi& mpi, void* buf, std::size_t count, Datatype d, int root,
                    const Comm& c, int tag);
void bcast_pipelined(Mpi& mpi, void* buf, std::size_t count, Datatype d, int root,
                     const Comm& c, int tag, std::size_t segment_bytes);
void bcast_scatter_allgather(Mpi& mpi, void* buf, std::size_t count, Datatype d, int root,
                             const Comm& c, int tag);

/// Rank-ordered binomial reduction tree rooted at rank 0; when root != 0 the
/// result takes one extra hop 0 -> root (phase 1). This keeps operand order
/// equal to communicator rank order for every root — the seed tree rotated
/// ranks around the root, which silently reordered non-commutative operands.
void reduce_binomial(Mpi& mpi, const void* sendb, void* recvb, std::size_t count, Datatype d,
                     Op op, int root, const Comm& c, int tag);

void allreduce_reduce_bcast(Mpi& mpi, const void* sendb, void* recvb, std::size_t count,
                            Datatype d, Op op, const Comm& c, int tag);
void allreduce_recursive_doubling(Mpi& mpi, const void* sendb, void* recvb, std::size_t count,
                                  Datatype d, Op op, const Comm& c, int tag);
void allreduce_rabenseifner(Mpi& mpi, const void* sendb, void* recvb, std::size_t count,
                            Datatype d, Op op, const Comm& c, int tag);

void alltoall_pairwise(Mpi& mpi, const void* sendb, std::size_t count, void* recvb, Datatype d,
                       const Comm& c, int tag);
void alltoall_bruck(Mpi& mpi, const void* sendb, std::size_t count, void* recvb, Datatype d,
                    const Comm& c, int tag);

void reduce_scatter_via_reduce(Mpi& mpi, const void* sendb, void* recvb, std::size_t count,
                               Datatype d, Op op, const Comm& c, int tag);
void reduce_scatter_recursive_halving(Mpi& mpi, const void* sendb, void* recvb,
                                      std::size_t count, Datatype d, Op op, const Comm& c,
                                      int tag);

void scan_linear(Mpi& mpi, const void* sendb, void* recvb, std::size_t count, Datatype d,
                 Op op, const Comm& c, int tag);
void scan_binomial(Mpi& mpi, const void* sendb, void* recvb, std::size_t count, Datatype d,
                   Op op, const Comm& c, int tag);
void exscan_linear(Mpi& mpi, const void* sendb, void* recvb, std::size_t count, Datatype d,
                   Op op, const Comm& c, int tag);
void exscan_binomial(Mpi& mpi, const void* sendb, void* recvb, std::size_t count, Datatype d,
                     Op op, const Comm& c, int tag);

}  // namespace sp::mpi::coll
