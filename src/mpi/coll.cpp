// Collective algorithm implementations (see coll.hpp for the contract).
//
// Ordering discipline: reduce_apply(op, d, in, inout, n) computes
// `inout = inout OP in` — inout is the LEFT operand. Whenever two partial
// results merge, the partial covering the lower communicator ranks must end
// up on the left, so every merge site below either calls reduce_apply
// directly (partial-for-lower-ranks already in the accumulator) or goes
// through combine_left (incoming partial covers lower ranks). The recursive
// doubling/halving algorithms additionally keep every merge group contiguous
// in rank order (masks ascend from 1), because a contiguous group is the only
// shape an associative-but-non-commutative fold can produce.
#include "mpi/coll.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/mpi.hpp"

namespace sp::mpi::coll {
namespace {

/// Largest power of two <= n (n >= 1).
[[nodiscard]] int pow2_below(int n) {
  int p = 1;
  while (p * 2 <= n) p <<= 1;
  return p;
}

/// acc = incoming OP acc, where `incoming` is the partial for the LOWER rank
/// group. scratch must hold count elements.
void combine_left(Op op, Datatype d, const std::byte* incoming, std::byte* acc,
                  std::byte* scratch, std::size_t count, std::size_t esz) {
  if (count == 0) return;
  std::memcpy(scratch, incoming, count * esz);
  reduce_apply(op, d, acc, scratch, count);
  std::memcpy(acc, scratch, count * esz);
}

/// Near-even split of `count` elements into `parts` chunks, aligned so no
/// chunk boundary cuts through an operator granule (Op::kMat2x2 groups).
struct Chunks {
  std::vector<std::size_t> off, len;  ///< In elements.
};

[[nodiscard]] Chunks split_granule(std::size_t count, int parts, std::size_t granule) {
  Chunks ch;
  ch.off.resize(static_cast<std::size_t>(parts));
  ch.len.resize(static_cast<std::size_t>(parts));
  const std::size_t groups = count / granule;
  const std::size_t base = groups / static_cast<std::size_t>(parts);
  const std::size_t extra = groups % static_cast<std::size_t>(parts);
  std::size_t o = 0;
  for (int i = 0; i < parts; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    ch.off[ii] = o;
    ch.len[ii] = granule * (base + (ii < extra ? 1 : 0));
    o += ch.len[ii];
  }
  // Elements past the last whole granule ride in the final chunk (only
  // reachable for granule > 1 with a count reduce_apply would reject anyway).
  ch.len[static_cast<std::size_t>(parts - 1)] += count - o;
  return ch;
}

[[nodiscard]] std::size_t chunk_elems(const Chunks& ch, const std::vector<int>& idx) {
  std::size_t n = 0;
  for (int i : idx) n += ch.len[static_cast<std::size_t>(i)];
  return n;
}

void pack_chunks(const std::byte* base, const Chunks& ch, const std::vector<int>& idx,
                 std::size_t esz, std::byte* dst) {
  for (int i : idx) {
    const auto ii = static_cast<std::size_t>(i);
    if (ch.len[ii] == 0) continue;
    std::memcpy(dst, base + ch.off[ii] * esz, ch.len[ii] * esz);
    dst += ch.len[ii] * esz;
  }
}

void unpack_chunks(const std::byte* src, const Chunks& ch, const std::vector<int>& idx,
                   std::size_t esz, std::byte* base) {
  for (int i : idx) {
    const auto ii = static_cast<std::size_t>(i);
    if (ch.len[ii] == 0) continue;
    std::memcpy(base + ch.off[ii] * esz, src, ch.len[ii] * esz);
    src += ch.len[ii] * esz;
  }
}

/// Map an active (relabelled) rank back to its communicator rank after the
/// non-power-of-two pre-fold: the first 2*rem ranks fold pairwise (even
/// survivor j represents original ranks {2j, 2j+1}), the rest shift by rem.
/// The map is strictly increasing, so relabelled order == rank order and
/// merge groups that are contiguous in newrank space cover contiguous
/// communicator rank ranges — the property the ordering discipline needs.
[[nodiscard]] constexpr int orig_rank(int newrank, int rem) noexcept {
  return newrank < rem ? newrank * 2 : newrank + rem;
}

/// Pre-fold for non-power-of-two communicators: odd ranks below 2*rem send
/// their full vector to their even neighbour and drop out (returns -1); the
/// survivor combines (lower rank on the left). Returns the relabelled rank.
int prefold(Mpi& mpi, std::vector<std::byte>& acc, std::size_t count, Datatype d, Op op,
            const Comm& c, int tag, int rem, std::vector<std::byte>& tmp) {
  const int me = c.rank();
  if (me < 2 * rem) {
    if (me % 2 == 1) {
      mpi.send(acc.data(), count, d, me - 1, tag, c);
      return -1;
    }
    mpi.recv(tmp.data(), count, d, me + 1, tag, c);
    if (count > 0) reduce_apply(op, d, tmp.data(), acc.data(), count);
    return me / 2;
  }
  return me - rem;
}

/// Rank-ordered reduce-scatter over the pow2 active ranks: on return, acc
/// holds the fully reduced values for exactly chunk `newrank` (all other
/// chunk regions hold partial garbage). Masks ascend so merge groups stay
/// contiguous in rank order; the price is that each rank's held chunk set is
/// strided, so exchanged chunks are packed through scratch buffers.
/// Returns nothing; the caller knows the final chunk is `newrank`.
void ordered_reduce_scatter_pow2(Mpi& mpi, std::byte* acc, std::size_t /*count*/, Datatype d,
                                 Op op, const Comm& c, int tag, int pow2, int rem, int newrank,
                                 const Chunks& chunks, std::vector<std::byte>& sendpack,
                                 std::vector<std::byte>& recvpack,
                                 std::vector<std::byte>& scratch) {
  const std::size_t esz = datatype_size(d);
  std::vector<int> mine(static_cast<std::size_t>(pow2));
  std::iota(mine.begin(), mine.end(), 0);
  std::vector<int> keep, give;
  for (int bit = 1; bit < pow2; bit <<= 1) {
    const int pn = newrank ^ bit;
    const int partner = orig_rank(pn, rem);
    keep.clear();
    give.clear();
    for (int chk : mine) {
      ((chk & bit) == (newrank & bit) ? keep : give).push_back(chk);
    }
    const std::size_t give_n = chunk_elems(chunks, give);
    const std::size_t keep_n = chunk_elems(chunks, keep);
    pack_chunks(acc, chunks, give, esz, sendpack.data());
    mpi.sendrecv(sendpack.data(), give_n, partner, tag, recvpack.data(), keep_n, partner, tag,
                 d, c);
    // Partner's give set == my keep set, packed in ascending chunk order.
    const std::byte* p = recvpack.data();
    for (int chk : keep) {
      const auto ci = static_cast<std::size_t>(chk);
      if (chunks.len[ci] == 0) continue;
      std::byte* dst = acc + chunks.off[ci] * esz;
      if (pn < newrank) {
        combine_left(op, d, p, dst, scratch.data(), chunks.len[ci], esz);
      } else {
        reduce_apply(op, d, p, dst, chunks.len[ci]);
      }
      p += chunks.len[ci] * esz;
    }
    mine.swap(keep);
  }
}

/// Recursive-doubling allgather over the chunk space: inverse of the strided
/// reduce-scatter above. Pure data movement, so ordering is not a concern.
void chunk_allgather_pow2(Mpi& mpi, std::byte* acc, Datatype d, const Comm& c, int tag,
                          int pow2, int rem, int newrank, const Chunks& chunks,
                          std::vector<std::byte>& sendpack, std::vector<std::byte>& recvpack) {
  const std::size_t esz = datatype_size(d);
  std::vector<int> mine{newrank};
  std::vector<int> theirs;
  for (int bit = pow2 >> 1; bit >= 1; bit >>= 1) {
    const int pn = newrank ^ bit;
    const int partner = orig_rank(pn, rem);
    theirs.clear();
    for (int chk : mine) theirs.push_back(chk ^ bit);
    std::sort(theirs.begin(), theirs.end());
    const std::size_t mine_n = chunk_elems(chunks, mine);
    pack_chunks(acc, chunks, mine, esz, sendpack.data());
    // Symmetric sets: partner holds mine ^ bit, so counts match mine_n only
    // when chunk sizes agree across the XOR — they need not (uneven split),
    // so size the receive from the partner's actual set.
    const std::size_t theirs_n = chunk_elems(chunks, theirs);
    mpi.sendrecv(sendpack.data(), mine_n, partner, tag, recvpack.data(), theirs_n, partner,
                 tag, d, c);
    unpack_chunks(recvpack.data(), chunks, theirs, esz, acc);
    mine.insert(mine.end(), theirs.begin(), theirs.end());
    std::sort(mine.begin(), mine.end());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Selection table
//
// Keyed by message size, communicator size, AND topology (DESIGN.md §13):
// cutovers derived on the SP multistage crossbar shift on fabrics with a
// different diameter/bisection profile. Explicit host-algorithm pins always
// win — the conformance explorer relies on pins overriding every auto rule;
// an offload pin that cannot run (plan) takes the host auto table instead.
//  * torus: neighbor links are the only cheap links, so the chain pipeline
//    (rank r -> r+1 maps onto torus neighbors under the default row-major
//    node ids) earns its keep at half the usual size, and the
//    scatter-allgather butterfly (mostly non-neighbor pairs) is skipped.
//  * fat-tree: full-ish bisection makes the bandwidth-optimal Rabenseifner
//    reduce-scatter/allgather pay off at half the usual vector size.
//  * dragonfly: every non-minimal packet crosses a scarce global link, so
//    Bruck's log2(n) aggregated rounds beat n-1 pairwise exchanges up to 4x
//    the usual block size.
// ---------------------------------------------------------------------------

namespace {
[[nodiscard]] bool is_torus(const sim::MachineConfig& cfg) noexcept {
  return cfg.topology == sim::TopologyKind::kTorus2d ||
         cfg.topology == sim::TopologyKind::kTorus3d;
}

[[nodiscard]] BcastAlgo bcast_host(const sim::MachineConfig& cfg, std::size_t bytes, int n) {
  std::size_t pipeline_min = cfg.coll_bcast_pipeline_min_bytes;
  if (is_torus(cfg)) pipeline_min /= 2;
  if (n <= 2 || bytes < pipeline_min) return BcastAlgo::kBinomial;
  if (is_torus(cfg)) return BcastAlgo::kPipelined;
  // Large messages: the root's injected volume dominates. Scatter-allgather
  // injects ~bytes at the root; the chain pipeline streams S = bytes/segment
  // segments through n-1 hops in ~(n - 2 + S) segment times, so it overtakes
  // scatter-allgather once the pipeline is deeper than the chain (S >= n).
  if (bytes >= static_cast<std::size_t>(n) * cfg.coll_segment_bytes) {
    return BcastAlgo::kPipelined;
  }
  return n >= 8 ? BcastAlgo::kScatterAllgather : BcastAlgo::kPipelined;
}

[[nodiscard]] AllreduceAlgo allreduce_host(const sim::MachineConfig& cfg, std::size_t bytes,
                                           int n) {
  std::size_t rab_min = cfg.coll_allreduce_rabenseifner_min_bytes;
  if (cfg.topology == sim::TopologyKind::kFatTree) rab_min /= 2;
  if (n <= 2 || bytes < rab_min) return AllreduceAlgo::kRecursiveDoubling;
  return AllreduceAlgo::kRabenseifner;
}

/// The host algorithm auto-selection picks when nothing is offloaded.
[[nodiscard]] int host_auto(const sim::MachineConfig& cfg, Primitive p, std::size_t bytes,
                            int n) {
  switch (p) {
    case Primitive::kBarrier: return static_cast<int>(BarrierAlgo::kDissemination);
    case Primitive::kBcast: return static_cast<int>(bcast_host(cfg, bytes, n));
    case Primitive::kAllreduce: break;
  }
  return static_cast<int>(allreduce_host(cfg, bytes, n));
}
}  // namespace

int plan(const sim::MachineConfig& cfg, Primitive p, std::size_t bytes, int n, Datatype d,
         Caps caps) {
  // The offload ids are shared by every primitive (coll.hpp).
  constexpr int kNic = static_cast<int>(BcastAlgo::kNicOffload);
  constexpr int kInNet = static_cast<int>(BcastAlgo::kInNetwork);
  const int pin = p == Primitive::kBarrier ? cfg.coll_barrier_algo
                  : p == Primitive::kBcast ? cfg.coll_bcast_algo
                                           : cfg.coll_allreduce_algo;
  const bool innet_fits = caps.innet && n > 1 && bytes <= cfg.in_network_coll_max_bytes;
  const bool nic_fits = caps.nic && n > 1 && bytes <= cfg.rdma_nic_coll_max_bytes;
  if (pin == kInNet) return innet_fits ? kInNet : host_auto(cfg, p, bytes, n);
  if (pin == kNic) return nic_fits ? kNic : host_auto(cfg, p, bytes, n);
  if (pin != 0) return pin;
  // Auto offloads an allreduce only for bitwise-exact element types: both
  // engines fold in rank order, but in a different grouping from the host
  // trees, and float/double addition is not associative, so offloading
  // those would break cross-backend numeric equality. A pin runs any type.
  const bool exact = p != Primitive::kAllreduce || d == Datatype::kByte ||
                     d == Datatype::kInt || d == Datatype::kLong;
  // The switch tree is strictly shallower than the adapter's, so it wins
  // when the topology mask enables it.
  const bool innet_on =
      ((cfg.in_network_topology_mask >> static_cast<int>(cfg.topology)) & 1u) != 0;
  if (exact && innet_fits && innet_on) return kInNet;
  if (exact && nic_fits) return kNic;
  return host_auto(cfg, p, bytes, n);
}

AlltoallAlgo select_alltoall(const sim::MachineConfig& cfg, std::size_t block_bytes, int n) {
  if (cfg.coll_alltoall_algo != 0) return static_cast<AlltoallAlgo>(cfg.coll_alltoall_algo);
  std::size_t bruck_max = cfg.coll_alltoall_bruck_max_bytes;
  if (cfg.topology == sim::TopologyKind::kDragonfly) bruck_max *= 4;
  if (n <= 2 || block_bytes > bruck_max) return AlltoallAlgo::kPairwise;
  return AlltoallAlgo::kBruck;
}

ReduceScatterAlgo select_reduce_scatter(const sim::MachineConfig& cfg, std::size_t total_bytes,
                                        int n) {
  if (cfg.coll_reduce_scatter_algo != 0) {
    return static_cast<ReduceScatterAlgo>(cfg.coll_reduce_scatter_algo);
  }
  if (n <= 1 || total_bytes < cfg.coll_reduce_scatter_halving_min_bytes) {
    return ReduceScatterAlgo::kReduceScatter;
  }
  return ReduceScatterAlgo::kRecursiveHalving;
}

ScanAlgo select_scan(const sim::MachineConfig& cfg, std::size_t /*bytes*/, int n) {
  if (cfg.coll_scan_algo != 0) return static_cast<ScanAlgo>(cfg.coll_scan_algo);
  return n > 2 ? ScanAlgo::kBinomial : ScanAlgo::kLinear;
}

sim::CollAlgo telem_id(BcastAlgo a) noexcept {
  switch (a) {
    case BcastAlgo::kPipelined: return sim::CollAlgo::kBcastPipelined;
    case BcastAlgo::kScatterAllgather: return sim::CollAlgo::kBcastScatterAllgather;
    case BcastAlgo::kNicOffload: return sim::CollAlgo::kBcastNicOffload;
    case BcastAlgo::kInNetwork: return sim::CollAlgo::kBcastInNetwork;
    default: return sim::CollAlgo::kBcastBinomial;
  }
}
sim::CollAlgo telem_id(AllreduceAlgo a) noexcept {
  switch (a) {
    case AllreduceAlgo::kRecursiveDoubling: return sim::CollAlgo::kAllreduceRecursiveDoubling;
    case AllreduceAlgo::kRabenseifner: return sim::CollAlgo::kAllreduceRabenseifner;
    case AllreduceAlgo::kNicOffload: return sim::CollAlgo::kAllreduceNicOffload;
    case AllreduceAlgo::kInNetwork: return sim::CollAlgo::kAllreduceInNetwork;
    default: return sim::CollAlgo::kAllreduceReduceBcast;
  }
}
sim::CollAlgo telem_id(AlltoallAlgo a) noexcept {
  return a == AlltoallAlgo::kBruck ? sim::CollAlgo::kAlltoallBruck
                                   : sim::CollAlgo::kAlltoallPairwise;
}
sim::CollAlgo telem_id(ReduceScatterAlgo a) noexcept {
  return a == ReduceScatterAlgo::kRecursiveHalving
             ? sim::CollAlgo::kReduceScatterRecursiveHalving
             : sim::CollAlgo::kReduceScatterReduceScatter;
}
sim::CollAlgo telem_id(ScanAlgo a, bool exclusive) noexcept {
  if (exclusive) {
    return a == ScanAlgo::kBinomial ? sim::CollAlgo::kExscanBinomial
                                    : sim::CollAlgo::kExscanLinear;
  }
  return a == ScanAlgo::kBinomial ? sim::CollAlgo::kScanBinomial : sim::CollAlgo::kScanLinear;
}

bool apply_algo_spec(sim::MachineConfig& cfg, const std::string& spec, std::string* err) {
  auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what;
    return false;
  };
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) return fail("expected primitive=algorithm: " + entry);
    const std::string prim = entry.substr(0, eq);
    const std::string algo = entry.substr(eq + 1);
    auto pick = [&](std::initializer_list<const char*> names, int* out) {
      int v = 0;
      for (const char* name : names) {
        if (algo == name) {
          *out = v;
          return true;
        }
        ++v;
      }
      return false;
    };
    bool ok = false;
    if (prim == "all") {
      if (algo != "auto") return fail("all= accepts only 'auto'");
      cfg.coll_bcast_algo = cfg.coll_allreduce_algo = cfg.coll_alltoall_algo =
          cfg.coll_reduce_scatter_algo = cfg.coll_scan_algo = cfg.coll_barrier_algo = 0;
      ok = true;
    } else if (prim == "bcast") {
      ok = pick({"auto", "binomial", "pipelined", "scatter_allgather", "nic", "in_network"},
                &cfg.coll_bcast_algo);
    } else if (prim == "allreduce") {
      ok = pick({"auto", "reduce_bcast", "recursive_doubling", "rabenseifner", "nic",
                 "in_network"},
                &cfg.coll_allreduce_algo);
    } else if (prim == "barrier") {
      // "nic" is id 4 and "in_network" id 5 on every primitive; barrier has
      // no ids 2-3.
      ok = pick({"auto", "dissemination"}, &cfg.coll_barrier_algo);
      if (!ok && algo == "nic") {
        cfg.coll_barrier_algo = static_cast<int>(BarrierAlgo::kNicOffload);
        ok = true;
      } else if (!ok && algo == "in_network") {
        cfg.coll_barrier_algo = static_cast<int>(BarrierAlgo::kInNetwork);
        ok = true;
      }
    } else if (prim == "alltoall") {
      ok = pick({"auto", "pairwise", "bruck"}, &cfg.coll_alltoall_algo);
    } else if (prim == "reduce_scatter") {
      ok = pick({"auto", "reduce_scatter", "recursive_halving"}, &cfg.coll_reduce_scatter_algo);
    } else if (prim == "scan") {
      ok = pick({"auto", "linear", "binomial"}, &cfg.coll_scan_algo);
    } else {
      return fail("unknown primitive: " + prim);
    }
    if (!ok) return fail("unknown algorithm for " + prim + ": " + algo);
    if (comma == spec.size()) break;
  }
  return true;
}

bool any_algo_pinned(const sim::MachineConfig& cfg) noexcept {
  return cfg.coll_bcast_algo != 0 || cfg.coll_allreduce_algo != 0 ||
         cfg.coll_alltoall_algo != 0 || cfg.coll_reduce_scatter_algo != 0 ||
         cfg.coll_scan_algo != 0 || cfg.coll_barrier_algo != 0;
}

// ---------------------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------------------

void bcast_binomial(Mpi& mpi, void* buf, std::size_t count, Datatype d, int root,
                    const Comm& c, int tag) {
  const int n = c.size();
  if (n <= 1) return;
  // Binomial tree rooted at `root`; ranks are rotated so root becomes 0.
  // (Pure data movement — rotation cannot reorder anything user-visible.)
  const int vrank = (c.rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((vrank & mask) != 0) {
      const int vsrc = vrank - mask;
      mpi.recv(buf, count, d, (vsrc + root) % n, tag, c);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n && (vrank & (mask - 1)) == 0 && (vrank & mask) == 0) {
      const int vdst = vrank + mask;
      mpi.send(buf, count, d, (vdst + root) % n, tag, c);
    }
    mask >>= 1;
  }
}

void bcast_pipelined(Mpi& mpi, void* buf, std::size_t count, Datatype d, int root,
                     const Comm& c, int tag, std::size_t segment_bytes) {
  const int n = c.size();
  if (n <= 1 || count == 0) return;
  const std::size_t esz = datatype_size(d);
  const std::size_t seg = std::max<std::size_t>(1, segment_bytes / esz);

  // Chain pipeline in root-rotated rank order: root -> root+1 -> ... A tree
  // cannot beat plain binomial at large sizes (its root still sends the full
  // message once per child); the chain sends every byte exactly once per hop
  // and streams S segments through the n-1 hops in ~(n - 2 + S) segment
  // times instead of the tree's S * fan-out.
  const int vrank = (c.rank() - root + n) % n;
  const int parent = vrank == 0 ? -1 : (c.rank() - 1 + n) % n;
  const int child = vrank + 1 < n ? (c.rank() + 1) % n : -1;

  // Double-buffered: while segment k forwards downstream, segment k+1's
  // receive is already posted, so the hop latency overlaps the transfer.
  auto* bb = static_cast<std::byte*>(buf);
  Request next;
  Request fwd;
  if (parent >= 0) next = mpi.irecv(bb, std::min(seg, count), d, parent, tag, c);
  for (std::size_t off = 0; off < count; off += seg) {
    const std::size_t len = std::min(seg, count - off);
    if (parent >= 0) {
      mpi.wait(next);
      const std::size_t noff = off + len;
      if (noff < count) {
        next = mpi.irecv(bb + noff * esz, std::min(seg, count - noff), d, parent, tag, c);
      }
    }
    if (child >= 0) {
      if (fwd.valid()) mpi.wait(fwd);
      fwd = mpi.isend(bb + off * esz, len, d, child, tag, c);
    }
  }
  if (fwd.valid()) mpi.wait(fwd);
}

void bcast_scatter_allgather(Mpi& mpi, void* buf, std::size_t count, Datatype d, int root,
                             const Comm& c, int tag) {
  const int n = c.size();
  if (n <= 1) return;
  const std::size_t esz = datatype_size(d);
  const int me = c.rank();
  const Chunks ch = split_granule(count, n, 1);
  auto* bb = static_cast<std::byte*>(buf);
  const int t_ag = phase_tag(tag, 1);

  // Phase 0: root scatters chunk r to rank r (root's own chunk is in place).
  if (me == root) {
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      const auto ri = static_cast<std::size_t>(r);
      mpi.send(bb + ch.off[ri] * esz, ch.len[ri], d, r, tag, c);
    }
  } else {
    const auto mi = static_cast<std::size_t>(me);
    mpi.recv(bb + ch.off[mi] * esz, ch.len[mi], d, root, tag, c);
  }

  // Phase 1: ring allgather over the per-rank chunks (uneven lengths).
  for (int k = 0; k < n - 1; ++k) {
    const int to = (me + 1) % n;
    const int from = (me - 1 + n) % n;
    const auto sb = static_cast<std::size_t>((me - k + n) % n);
    const auto rb = static_cast<std::size_t>((me - k - 1 + n) % n);
    mpi.sendrecv(bb + ch.off[sb] * esz, ch.len[sb], to, t_ag, bb + ch.off[rb] * esz,
                 ch.len[rb], from, t_ag, d, c);
  }
}

// ---------------------------------------------------------------------------
// Reduce / Allreduce
// ---------------------------------------------------------------------------

void reduce_binomial(Mpi& mpi, const void* sendb, void* recvb, std::size_t count, Datatype d,
                     Op op, int root, const Comm& c, int tag) {
  const int n = c.size();
  const int me = c.rank();
  const std::size_t bytes = count * datatype_size(d);
  std::vector<std::byte> acc(bytes);
  if (bytes > 0) std::memcpy(acc.data(), sendb, bytes);
  if (n > 1) {
    std::vector<std::byte> incoming(bytes);
    // Binomial tree toward rank 0 in true rank space: rank r merges the
    // partial of r + mask (covering [r+mask, r+2*mask)) onto the right of its
    // own (covering [r, r+mask)) — communicator rank order, any root.
    int mask = 1;
    while (mask < n) {
      if ((me & mask) != 0) {
        mpi.send(acc.data(), count, d, me - mask, tag, c);
        break;
      }
      const int src = me + mask;
      if (src < n) {
        mpi.recv(incoming.data(), count, d, src, tag, c);
        if (count > 0) reduce_apply(op, d, incoming.data(), acc.data(), count);
      }
      mask <<= 1;
    }
  }
  if (root == 0) {
    if (me == 0 && bytes > 0) std::memcpy(recvb, acc.data(), bytes);
  } else {
    // One extra hop delivers the rank-ordered result to the requested root.
    const int t1 = phase_tag(tag, 1);
    if (me == 0) {
      mpi.send(acc.data(), count, d, root, t1, c);
    } else if (me == root) {
      mpi.recv(recvb, count, d, 0, t1, c);
    }
  }
}

void allreduce_reduce_bcast(Mpi& mpi, const void* sendb, void* recvb, std::size_t count,
                            Datatype d, Op op, const Comm& c, int tag) {
  reduce_binomial(mpi, sendb, recvb, count, d, op, 0, c, tag);
  bcast_binomial(mpi, recvb, count, d, 0, c, phase_tag(tag, 1));
}

void allreduce_recursive_doubling(Mpi& mpi, const void* sendb, void* recvb, std::size_t count,
                                  Datatype d, Op op, const Comm& c, int tag) {
  const int n = c.size();
  const std::size_t esz = datatype_size(d);
  const std::size_t bytes = count * esz;
  std::vector<std::byte> acc(bytes);
  if (bytes > 0) std::memcpy(acc.data(), sendb, bytes);
  if (n > 1) {
    const int pow2 = pow2_below(n);
    const int rem = n - pow2;
    const int t_ex = phase_tag(tag, 1);
    const int t_unfold = phase_tag(tag, 2);
    std::vector<std::byte> tmp(bytes), scratch(bytes);
    const int newrank = prefold(mpi, acc, count, d, op, c, tag, rem, tmp);
    if (newrank >= 0) {
      for (int mask = 1; mask < pow2; mask <<= 1) {
        const int pn = newrank ^ mask;
        const int partner = orig_rank(pn, rem);
        mpi.sendrecv(acc.data(), count, partner, t_ex, tmp.data(), count, partner, t_ex, d, c);
        if (pn < newrank) {
          combine_left(op, d, tmp.data(), acc.data(), scratch.data(), count, esz);
        } else if (count > 0) {
          reduce_apply(op, d, tmp.data(), acc.data(), count);
        }
      }
    }
    const int me = c.rank();
    if (me < 2 * rem) {
      if (me % 2 == 0) {
        mpi.send(acc.data(), count, d, me + 1, t_unfold, c);
      } else {
        mpi.recv(acc.data(), count, d, me - 1, t_unfold, c);
      }
    }
  }
  if (bytes > 0) std::memcpy(recvb, acc.data(), bytes);
}

void allreduce_rabenseifner(Mpi& mpi, const void* sendb, void* recvb, std::size_t count,
                            Datatype d, Op op, const Comm& c, int tag) {
  const int n = c.size();
  const std::size_t esz = datatype_size(d);
  const std::size_t bytes = count * esz;
  std::vector<std::byte> acc(bytes);
  if (bytes > 0) std::memcpy(acc.data(), sendb, bytes);
  if (n > 1) {
    const int pow2 = pow2_below(n);
    const int rem = n - pow2;
    const int t_rs = phase_tag(tag, 1);
    const int t_ag = phase_tag(tag, 2);
    const int t_unfold = phase_tag(tag, 3);
    std::vector<std::byte> tmp(bytes), scratch(bytes), sendpack(bytes), recvpack(bytes);
    const int newrank = prefold(mpi, acc, count, d, op, c, tag, rem, tmp);
    if (newrank >= 0) {
      const Chunks ch = split_granule(count, pow2, op_granule(op));
      ordered_reduce_scatter_pow2(mpi, acc.data(), count, d, op, c, t_rs, pow2, rem, newrank,
                                  ch, sendpack, recvpack, scratch);
      chunk_allgather_pow2(mpi, acc.data(), d, c, t_ag, pow2, rem, newrank, ch, sendpack,
                           recvpack);
    }
    const int me = c.rank();
    if (me < 2 * rem) {
      if (me % 2 == 0) {
        mpi.send(acc.data(), count, d, me + 1, t_unfold, c);
      } else {
        mpi.recv(acc.data(), count, d, me - 1, t_unfold, c);
      }
    }
  }
  if (bytes > 0) std::memcpy(recvb, acc.data(), bytes);
}

// ---------------------------------------------------------------------------
// Alltoall
// ---------------------------------------------------------------------------

void alltoall_pairwise(Mpi& mpi, const void* sendb, std::size_t count, void* recvb, Datatype d,
                       const Comm& c, int tag) {
  const int n = c.size();
  const std::size_t bytes = count * datatype_size(d);
  const auto* in = static_cast<const std::byte*>(sendb);
  auto* out = static_cast<std::byte*>(recvb);
  const int me = c.rank();
  if (bytes > 0) {
    std::memcpy(out + static_cast<std::size_t>(me) * bytes,
                in + static_cast<std::size_t>(me) * bytes, bytes);
  }
  // Pairwise exchange with a rotating partner schedule.
  for (int k = 1; k < n; ++k) {
    const int to = (me + k) % n;
    const int from = (me - k + n) % n;
    mpi.sendrecv(in + static_cast<std::size_t>(to) * bytes, count, to, tag,
                 out + static_cast<std::size_t>(from) * bytes, count, from, tag, d, c);
  }
}

void alltoall_bruck(Mpi& mpi, const void* sendb, std::size_t count, void* recvb, Datatype d,
                    const Comm& c, int tag) {
  const int n = c.size();
  const std::size_t esz = datatype_size(d);
  const std::size_t bytes = count * esz;
  const auto* in = static_cast<const std::byte*>(sendb);
  auto* out = static_cast<std::byte*>(recvb);
  const int me = c.rank();
  if (n <= 1) {
    if (bytes > 0) std::memcpy(out, in, bytes);
    return;
  }
  // Phase 1: local rotation — slot i holds the block destined for me+i.
  std::vector<std::byte> tmp(static_cast<std::size_t>(n) * bytes);
  for (int i = 0; i < n; ++i) {
    if (bytes == 0) break;
    std::memcpy(tmp.data() + static_cast<std::size_t>(i) * bytes,
                in + static_cast<std::size_t>((me + i) % n) * bytes, bytes);
  }
  // Phase 2: log2(n) rounds; round k ships every slot whose index has bit k.
  std::vector<std::byte> sendpack, recvpack;
  std::vector<int> marked;
  for (int k = 1; k < n; k <<= 1) {
    const int to = (me + k) % n;
    const int from = (me - k + n) % n;
    marked.clear();
    for (int i = 0; i < n; ++i) {
      if ((i & k) != 0) marked.push_back(i);
    }
    const std::size_t m = marked.size();
    sendpack.resize(m * bytes);
    recvpack.resize(m * bytes);
    for (std::size_t j = 0; j < m; ++j) {
      if (bytes == 0) break;
      std::memcpy(sendpack.data() + j * bytes,
                  tmp.data() + static_cast<std::size_t>(marked[j]) * bytes, bytes);
    }
    mpi.sendrecv(sendpack.data(), m * count, to, tag, recvpack.data(), m * count, from, tag, d,
                 c);
    for (std::size_t j = 0; j < m; ++j) {
      if (bytes == 0) break;
      std::memcpy(tmp.data() + static_cast<std::size_t>(marked[j]) * bytes,
                  recvpack.data() + j * bytes, bytes);
    }
  }
  // Phase 3: inverse rotation — slot i came from rank me-i.
  for (int i = 0; i < n; ++i) {
    if (bytes == 0) break;
    std::memcpy(out + static_cast<std::size_t>((me - i + n) % n) * bytes,
                tmp.data() + static_cast<std::size_t>(i) * bytes, bytes);
  }
}

// ---------------------------------------------------------------------------
// Reduce-scatter
// ---------------------------------------------------------------------------

void reduce_scatter_via_reduce(Mpi& mpi, const void* sendb, void* recvb, std::size_t count,
                               Datatype d, Op op, const Comm& c, int tag) {
  const int n = c.size();
  const std::size_t esz = datatype_size(d);
  const std::size_t total = count * static_cast<std::size_t>(n);
  std::vector<std::byte> full(total * esz);
  reduce_binomial(mpi, sendb, full.data(), total, d, op, 0, c, tag);
  // Scatter block r to rank r (seed shape, phase tag).
  const int t_sc = phase_tag(tag, 1);
  const std::size_t bytes = count * esz;
  if (c.rank() == 0) {
    for (int r = 1; r < n; ++r) {
      mpi.send(full.data() + static_cast<std::size_t>(r) * bytes, count, d, r, t_sc, c);
    }
    if (bytes > 0) std::memcpy(recvb, full.data(), bytes);
  } else {
    mpi.recv(recvb, count, d, 0, t_sc, c);
  }
}

void reduce_scatter_recursive_halving(Mpi& mpi, const void* sendb, void* recvb,
                                      std::size_t count, Datatype d, Op op, const Comm& c,
                                      int tag) {
  const int n = c.size();
  const std::size_t esz = datatype_size(d);
  const std::size_t total = count * static_cast<std::size_t>(n);
  const std::size_t total_bytes = total * esz;
  const std::size_t bytes = count * esz;
  std::vector<std::byte> acc(total_bytes);
  if (total_bytes > 0) std::memcpy(acc.data(), sendb, total_bytes);
  if (n == 1) {
    if (bytes > 0) std::memcpy(recvb, acc.data(), bytes);
    return;
  }
  const int pow2 = pow2_below(n);
  const int rem = n - pow2;
  const int t_rs = phase_tag(tag, 1);
  const int t_redist = phase_tag(tag, 2);
  std::vector<std::byte> tmp(total_bytes), scratch(total_bytes), sendpack(total_bytes),
      recvpack(total_bytes);
  const int newrank = prefold(mpi, acc, total, d, op, c, tag, rem, tmp);
  const int me = c.rank();
  if (newrank >= 0) {
    // Chunk j = the contiguous block range active rank j represents: folded
    // survivors j < rem own blocks {2j, 2j+1}, the rest own block {j + rem}.
    Chunks ch;
    ch.off.resize(static_cast<std::size_t>(pow2));
    ch.len.resize(static_cast<std::size_t>(pow2));
    for (int j = 0; j < pow2; ++j) {
      const auto ji = static_cast<std::size_t>(j);
      ch.off[ji] = static_cast<std::size_t>(orig_rank(j, rem)) * count;
      ch.len[ji] = (j < rem ? 2 : 1) * count;
    }
    ordered_reduce_scatter_pow2(mpi, acc.data(), total, d, op, c, t_rs, pow2, rem, newrank, ch,
                                sendpack, recvpack, scratch);
    // Redistribute: survivor j < rem holds blocks {2j, 2j+1}; block 2j+1
    // belongs to the folded odd rank.
    if (newrank < rem) {
      if (bytes > 0) {
        std::memcpy(recvb, acc.data() + static_cast<std::size_t>(2 * newrank) * bytes, bytes);
      }
      mpi.send(acc.data() + static_cast<std::size_t>(2 * newrank + 1) * bytes, count, d,
               me + 1, t_redist, c);
    } else if (bytes > 0) {
      std::memcpy(recvb, acc.data() + static_cast<std::size_t>(me) * bytes, bytes);
    }
  } else {
    mpi.recv(recvb, count, d, me - 1, t_redist, c);
  }
}

// ---------------------------------------------------------------------------
// Scan / Exscan
// ---------------------------------------------------------------------------

void scan_linear(Mpi& mpi, const void* sendb, void* recvb, std::size_t count, Datatype d,
                 Op op, const Comm& c, int tag) {
  const std::size_t bytes = count * datatype_size(d);
  const int me = c.rank();
  // Linear chain: result_r = v_0 op ... op v_r, accumulated left to right.
  if (bytes > 0) std::memcpy(recvb, sendb, bytes);
  if (me > 0) {
    std::vector<std::byte> acc(bytes), mine(bytes);
    mpi.recv(acc.data(), count, d, me - 1, tag, c);
    // recvb = acc op mine (operand order matters for non-commutative ops).
    if (bytes > 0) {
      std::memcpy(mine.data(), recvb, bytes);
      std::memcpy(recvb, acc.data(), bytes);
      reduce_apply(op, d, mine.data(), recvb, count);
    }
  }
  if (me + 1 < c.size()) {
    mpi.send(recvb, count, d, me + 1, tag, c);
  }
}

void scan_binomial(Mpi& mpi, const void* sendb, void* recvb, std::size_t count, Datatype d,
                   Op op, const Comm& c, int tag) {
  const int n = c.size();
  const int me = c.rank();
  const std::size_t esz = datatype_size(d);
  const std::size_t bytes = count * esz;
  // Inclusive binomial (Hillis-Steele) scan: log2(n) rounds; in round `mask`
  // each rank ships its running partial to me+mask and folds the partial from
  // me-mask onto the LEFT of both its result and its forwarded partial (the
  // incoming partial covers a contiguous range of strictly lower ranks).
  std::vector<std::byte> partial(bytes), sendcopy(bytes), tmp(bytes), scratch(bytes);
  if (bytes > 0) {
    std::memcpy(partial.data(), sendb, bytes);
    std::memcpy(recvb, sendb, bytes);
  }
  for (int mask = 1; mask < n; mask <<= 1) {
    Request sreq;
    const bool sending = me + mask < n;
    if (sending) {
      if (bytes > 0) std::memcpy(sendcopy.data(), partial.data(), bytes);
      sreq = mpi.isend(sendcopy.data(), count, d, me + mask, tag, c);
    }
    if (me - mask >= 0) {
      mpi.recv(tmp.data(), count, d, me - mask, tag, c);
      combine_left(op, d, tmp.data(), static_cast<std::byte*>(recvb), scratch.data(), count,
                   esz);
      combine_left(op, d, tmp.data(), partial.data(), scratch.data(), count, esz);
    }
    if (sending) mpi.wait(sreq);
  }
}

void exscan_linear(Mpi& mpi, const void* sendb, void* recvb, std::size_t count, Datatype d,
                   Op op, const Comm& c, int tag) {
  const std::size_t bytes = count * datatype_size(d);
  const int me = c.rank();
  std::vector<std::byte> carry(bytes);  // v_0 op ... op v_me (to forward)
  if (bytes > 0) std::memcpy(carry.data(), sendb, bytes);
  if (me > 0) {
    std::vector<std::byte> acc(bytes);
    mpi.recv(acc.data(), count, d, me - 1, tag, c);
    if (bytes > 0) {
      std::memcpy(recvb, acc.data(), bytes);  // exclusive prefix
      reduce_apply(op, d, sendb, acc.data(), count);
    }
    carry = std::move(acc);
  }
  if (me + 1 < c.size()) {
    mpi.send(carry.data(), count, d, me + 1, tag, c);
  }
}

void exscan_binomial(Mpi& mpi, const void* sendb, void* recvb, std::size_t count, Datatype d,
                     Op op, const Comm& c, int tag) {
  const int n = c.size();
  const int me = c.rank();
  const std::size_t esz = datatype_size(d);
  const std::size_t bytes = count * esz;
  // Exclusive variant of the binomial scan: the result accumulates only
  // received partials (recvb stays undefined on rank 0, as MPI specifies).
  std::vector<std::byte> partial(bytes), sendcopy(bytes), tmp(bytes), scratch(bytes);
  if (bytes > 0) std::memcpy(partial.data(), sendb, bytes);
  bool have_result = false;
  for (int mask = 1; mask < n; mask <<= 1) {
    Request sreq;
    const bool sending = me + mask < n;
    if (sending) {
      if (bytes > 0) std::memcpy(sendcopy.data(), partial.data(), bytes);
      sreq = mpi.isend(sendcopy.data(), count, d, me + mask, tag, c);
    }
    if (me - mask >= 0) {
      mpi.recv(tmp.data(), count, d, me - mask, tag, c);
      if (have_result) {
        combine_left(op, d, tmp.data(), static_cast<std::byte*>(recvb), scratch.data(), count,
                     esz);
      } else if (bytes > 0) {
        std::memcpy(recvb, tmp.data(), bytes);
      }
      have_result = true;
      combine_left(op, d, tmp.data(), partial.data(), scratch.data(), count, esz);
    }
    if (sending) mpi.wait(sreq);
  }
}

}  // namespace sp::mpi::coll
