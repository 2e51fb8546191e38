// The MPI semantics layer (Fig. 1: "MPI - MPI semantics layer").
//
// One Mpi object per task provides the MPI-subset public API of this library:
// the four send modes (standard/synchronous/buffered/ready) in blocking and
// nonblocking versions, receive, wait/test, buffer attach/detach,
// communicator management (dup/split) and the collectives the NAS kernels
// need — all implemented over MPCI point-to-point messages, exactly as the
// paper describes ("It breaks down all collective communication calls into a
// series of point-to-point message passing calls in MPCI").
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <vector>

#include "mpci/channel.hpp"
#include "mpi/coll.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "mpi/derived_datatype.hpp"
#include "net/coll_op.hpp"
#include "sim/node_runtime.hpp"

namespace sp::hal {
class RdmaNic;
}  // namespace sp::hal

namespace sp::net {
class CombiningEngine;
}  // namespace sp::net

namespace sp::mpi {

namespace optrace {
class Recorder;
}  // namespace optrace

using Status = mpci::Status;

/// Reserved tag space for collective-internal traffic (user tags must stay
/// below this). Public so observers (the explorer's match-log digest) can
/// tell user point-to-point matches from collective plumbing, which NIC
/// offload legitimately elides from the channel.
constexpr int kCollTagBase = 1 << 20;

/// A nonblocking-operation handle. Move-only; must be waited/tested to
/// completion before destruction (as in MPI).
class Request {
 public:
  Request() = default;
  Request(Request&&) noexcept = default;
  Request& operator=(Request&&) noexcept = default;

  [[nodiscard]] bool valid() const noexcept { return send_ != nullptr || recv_ != nullptr; }
  /// Persistent request (MPI_Send_init/MPI_Recv_init) not currently started.
  [[nodiscard]] bool persistent() const noexcept { return persistent_ != nullptr; }

 private:
  friend class Mpi;
  /// Parameters of a persistent operation, re-armed by Mpi::start().
  struct PersistentSpec {
    bool is_send = false;
    const void* sbuf = nullptr;
    void* rbuf = nullptr;
    std::size_t bytes = 0;
    int peer = 0;  // dst or src selector
    int tag = 0;
    Comm comm;
    mpci::Mode mode = mpci::Mode::kStandard;
  };

  std::unique_ptr<mpci::SendReq> send_;
  std::unique_ptr<mpci::RecvReq> recv_;
  std::unique_ptr<PersistentSpec> persistent_;
  /// Index of this op in the attached optrace stream (-1 when not recorded).
  std::int64_t trace_idx_ = -1;
  /// Typed operations: staging buffer for packed bytes (lives until wait).
  std::unique_ptr<std::vector<std::byte>> staging_;
  /// Run at completion (e.g. unpack a derived datatype into the user layout).
  std::function<void()> on_complete_;
};

class Mpi {
 public:
  /// `nic` and `combining` are the collective offload engines this rank can
  /// reach (DESIGN.md §14.3, §16): the RDMA adapter (null unless the channel
  /// runs on one) and the fabric's switch combining tables.
  Mpi(sim::NodeRuntime& node, mpci::Channel& channel, int task_id, int num_tasks,
      hal::RdmaNic* nic, net::CombiningEngine* combining);

  Mpi(const Mpi&) = delete;
  Mpi& operator=(const Mpi&) = delete;

  [[nodiscard]] Comm& world() noexcept { return world_; }
  [[nodiscard]] int task_id() const noexcept { return task_id_; }

  // --- blocking point-to-point ---
  void send(const void* buf, std::size_t count, Datatype d, int dst, int tag, const Comm& c);
  void ssend(const void* buf, std::size_t count, Datatype d, int dst, int tag, const Comm& c);
  void rsend(const void* buf, std::size_t count, Datatype d, int dst, int tag, const Comm& c);
  void bsend(const void* buf, std::size_t count, Datatype d, int dst, int tag, const Comm& c);
  void recv(void* buf, std::size_t count, Datatype d, int src, int tag, const Comm& c,
            Status* st = nullptr);
  void sendrecv(const void* sbuf, std::size_t scount, int dst, int stag, void* rbuf,
                std::size_t rcount, int src, int rtag, Datatype d, const Comm& c,
                Status* st = nullptr);

  // --- nonblocking point-to-point ---
  [[nodiscard]] Request isend(const void* buf, std::size_t count, Datatype d, int dst, int tag,
                              const Comm& c);
  [[nodiscard]] Request issend(const void* buf, std::size_t count, Datatype d, int dst,
                               int tag, const Comm& c);
  [[nodiscard]] Request irsend(const void* buf, std::size_t count, Datatype d, int dst,
                               int tag, const Comm& c);
  [[nodiscard]] Request ibsend(const void* buf, std::size_t count, Datatype d, int dst,
                               int tag, const Comm& c);
  [[nodiscard]] Request irecv(void* buf, std::size_t count, Datatype d, int src, int tag,
                              const Comm& c);

  void wait(Request& r, Status* st = nullptr);
  [[nodiscard]] bool test(Request& r, Status* st = nullptr);
  void waitall(Request* reqs, std::size_t n);
  /// Status-array overload: `sts[i]` receives the completion status of
  /// `reqs[i]` (source/tag/count for receives, an empty status otherwise),
  /// matching waitany's per-request behaviour.
  void waitall(Request* reqs, std::size_t n, Status* sts);
  /// Blocks until one active request completes; returns its index.
  [[nodiscard]] std::size_t waitany(Request* reqs, std::size_t n, Status* st = nullptr);
  [[nodiscard]] bool testall(Request* reqs, std::size_t n);
  /// Status-array overload: on a true return, `sts[i]` receives the
  /// completion status of `reqs[i]`; on false nothing is consumed.
  [[nodiscard]] bool testall(Request* reqs, std::size_t n, Status* sts);

  // --- probe ---
  void probe(int src, int tag, const Comm& c, Status* st);
  [[nodiscard]] bool iprobe(int src, int tag, const Comm& c, Status* st);
  /// Element count held in a status for datatype `d` (MPI_Get_count).
  [[nodiscard]] static std::size_t get_count(const Status& st, Datatype d) {
    return st.len / datatype_size(d);
  }

  // --- derived (non-contiguous) datatypes: the paper's future work ---
  void send(const void* buf, std::size_t count, const DerivedDatatype& t, int dst, int tag,
            const Comm& c);
  void recv(void* buf, std::size_t count, const DerivedDatatype& t, int src, int tag,
            const Comm& c, Status* st = nullptr);
  [[nodiscard]] Request isend(const void* buf, std::size_t count, const DerivedDatatype& t,
                              int dst, int tag, const Comm& c);
  [[nodiscard]] Request irecv(void* buf, std::size_t count, const DerivedDatatype& t, int src,
                              int tag, const Comm& c);
  /// Collective over a derived layout: packs at the root, broadcasts the
  /// packed bytes through the algorithm engine, unpacks everywhere else.
  void bcast(void* buf, std::size_t count, const DerivedDatatype& t, int root, const Comm& c);

  // --- persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start) ---
  [[nodiscard]] Request send_init(const void* buf, std::size_t count, Datatype d, int dst,
                                  int tag, const Comm& c);
  [[nodiscard]] Request recv_init(void* buf, std::size_t count, Datatype d, int src, int tag,
                                  const Comm& c);
  void start(Request& r);
  void startall(Request* reqs, std::size_t n);

  // --- buffered mode ---
  void buffer_attach(void* buf, std::size_t len);
  /// Blocks until all buffered sends drain, then returns the buffer.
  void* buffer_detach();

  // --- collectives (pt-to-pt based) ---
  void barrier(const Comm& c);
  void bcast(void* buf, std::size_t count, Datatype d, int root, const Comm& c);
  void reduce(const void* sendb, void* recvb, std::size_t count, Datatype d, Op op, int root,
              const Comm& c);
  void allreduce(const void* sendb, void* recvb, std::size_t count, Datatype d, Op op,
                 const Comm& c);
  void gather(const void* sendb, std::size_t count, void* recvb, Datatype d, int root,
              const Comm& c);
  void scatter(const void* sendb, std::size_t count, void* recvb, Datatype d, int root,
               const Comm& c);
  void allgather(const void* sendb, std::size_t count, void* recvb, Datatype d, const Comm& c);
  void alltoall(const void* sendb, std::size_t count, void* recvb, Datatype d, const Comm& c);
  void alltoallv(const void* sendb, const std::size_t* scounts, const std::size_t* sdispls,
                 void* recvb, const std::size_t* rcounts, const std::size_t* rdispls,
                 Datatype d, const Comm& c);
  void reduce_scatter_block(const void* sendb, void* recvb, std::size_t count, Datatype d,
                            Op op, const Comm& c);
  /// Inclusive prefix reduction (MPI_Scan).
  void scan(const void* sendb, void* recvb, std::size_t count, Datatype d, Op op,
            const Comm& c);
  /// Exclusive prefix reduction (MPI_Exscan; recvb undefined on rank 0).
  void exscan(const void* sendb, void* recvb, std::size_t count, Datatype d, Op op,
              const Comm& c);
  void gatherv(const void* sendb, std::size_t scount, void* recvb,
               const std::size_t* rcounts, const std::size_t* displs, Datatype d, int root,
               const Comm& c);
  void scatterv(const void* sendb, const std::size_t* scounts, const std::size_t* displs,
                void* recvb, std::size_t rcount, Datatype d, int root, const Comm& c);

  // --- communicator management ---
  [[nodiscard]] Comm dup(const Comm& c);
  [[nodiscard]] Comm split(const Comm& c, int color, int key);

  // --- environment / simulation hooks ---
  /// Simulated wall-clock (MPI_Wtime), in seconds.
  [[nodiscard]] double wtime() const;
  /// Model `ns` of local computation.
  void compute(sim::TimeNs ns);
  /// Toggle interrupt-mode message delivery (MP_CSS_INTERRUPT).
  void set_interrupt_mode(bool on);
  /// Wired by the Machine: flips the HAL delivery mode.
  void set_interrupt_hook(std::function<void(bool)> fn) { interrupt_hook_ = std::move(fn); }
  /// Attach (or detach, with null) an op-trace recorder. Only top-level calls
  /// record: collectives' internal point-to-point traffic is depth-suppressed.
  void set_recorder(optrace::Recorder* rec) noexcept {
    rec_ = rec;
    rec_depth_ = 0;
  }

  [[nodiscard]] mpci::Channel& channel() noexcept { return channel_; }
  [[nodiscard]] sim::NodeRuntime& node() noexcept { return node_; }

 private:
  /// coll::plan for this rank's engines: the algorithm id the call runs.
  [[nodiscard]] int plan(coll::Primitive p, std::size_t bytes, int n, Datatype d) const;
  /// Run one collective on an offload engine, the switch combining tables
  /// when `in_network` and the adapter otherwise, and park the rank fiber
  /// until it completes. `buf` is contribution in / result out.
  void offload(bool in_network, const Comm& c, int tag, int root, void* buf, std::size_t len,
               bool reduce_phase, net::Combine combine);

  void start_send_common(mpci::SendReq& req, const void* buf, std::size_t bytes, int dst,
                         int tag, const Comm& c, mpci::Mode mode, bool blocking);
  void start_bsend(mpci::SendReq& req, const void* buf, std::size_t bytes, int dst, int tag,
                   const Comm& c, bool blocking);
  void wait_send(mpci::SendReq& req);
  void wait_recv(mpci::RecvReq& req, Status* st);
  void finish_request(Request& r, Status* st);
  [[nodiscard]] bool check_complete(Request& r);
  void gc_orphans();
  [[nodiscard]] int coll_tag();

  sim::NodeRuntime& node_;
  mpci::Channel& channel_;
  int task_id_;
  Comm world_;
  int next_ctx_ = 1;
  std::uint32_t coll_seq_ = 0;
  /// Buffered sends without a user-visible request, kept until drained.
  std::list<std::unique_ptr<mpci::SendReq>> orphans_;
  std::function<void(bool)> interrupt_hook_;
  hal::RdmaNic* nic_;
  net::CombiningEngine* combining_;
  optrace::Recorder* rec_ = nullptr;
  /// Nesting depth of public Mpi calls; only depth-0 entries record.
  int rec_depth_ = 0;
};

}  // namespace sp::mpi
