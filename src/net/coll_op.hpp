// One offloaded collective, as both offload engines take it: the RDMA adapter
// (hal::RdmaNic, DESIGN.md §14.3) and the switch combining tables
// (net::CombiningEngine, DESIGN.md §16). The Mpi layer builds one CollOp per
// call and hands it to whichever engine coll::plan picked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace sp::net {

/// Rank-order combine: fold `from` (the higher-rank operand) into `into` (the
/// lower-rank accumulator), element order exact.
using Combine = std::function<void(std::byte* into, const std::byte* from, std::size_t len)>;

/// One rank's share of one collective: a reduce toward rank 0 (when
/// `reduce_phase`) followed by a release/broadcast. Barrier = reduce phase
/// with len 0; allreduce = reduce phase with a combine; bcast = release only,
/// from `root`. Every member of (ctx, seq) posts the same shape; `seq` is the
/// per-call collective tag, identical across the communicator.
struct CollOp {
  std::uint32_t ctx = 0;   ///< Communicator context id.
  std::uint32_t seq = 0;   ///< Per-context collective sequence number.
  int rank = 0;            ///< Caller's communicator rank.
  int root = 0;            ///< Bcast root; 0 when reduce_phase.
  std::vector<int> tasks;  ///< Comm members as world task ids, rank order.
  std::byte* buf = nullptr;  ///< Contribution in, result out (len bytes).
  std::size_t len = 0;
  bool reduce_phase = true;  ///< true: allreduce/barrier; false: bcast.
  Combine combine;           ///< Null for barrier/bcast (pure data movement).
  std::function<void()> on_done;  ///< Fires in event context at completion.
};

}  // namespace sp::net
