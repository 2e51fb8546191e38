#include "mpi/mpi.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

#include "hal/rdma_nic.hpp"
#include "mpi/coll.hpp"
#include "mpi/optrace.hpp"
#include "net/combining.hpp"

namespace sp::mpi {

namespace {
/// RAII scope turning one MPI public call into a kMpiEnter/kMpiExit telemetry
/// span plus a Hist::kMpiCallNs sample. With telemetry disabled each end of
/// the scope costs exactly one null test; nested calls (collectives issuing
/// sends) nest correctly in the Chrome exporter.
class MpiCallScope {
 public:
  MpiCallScope(sim::NodeRuntime& node, sim::MpiCall call) noexcept
      : node_(node), call_(call) {
    if (node_.telemetry != nullptr) {
      start_ = node_.sim.now();
      node_.telemetry->emit(start_, node_.node, sim::Ev::kMpiEnter,
                            static_cast<std::uint64_t>(call_));
    }
  }
  ~MpiCallScope() {
    if (node_.telemetry != nullptr) {
      const sim::TimeNs now = node_.sim.now();
      const auto dur = static_cast<std::uint64_t>(now - start_);
      node_.telemetry->emit(now, node_.node, sim::Ev::kMpiExit,
                            static_cast<std::uint64_t>(call_), dur);
      node_.telemetry->record_hist(sim::Hist::kMpiCallNs, node_.node, dur);
    }
  }
  MpiCallScope(const MpiCallScope&) = delete;
  MpiCallScope& operator=(const MpiCallScope&) = delete;

 private:
  sim::NodeRuntime& node_;
  sim::MpiCall call_;
  sim::TimeNs start_ = 0;
};

/// RAII span for one resolved collective algorithm: a kCollBegin/kCollEnd
/// telemetry span (nested inside the MpiCallScope of the public call) plus
/// the per-algorithm invocation counter. Free with telemetry disabled.
class CollScope {
 public:
  CollScope(sim::NodeRuntime& node, sim::CollAlgo algo, std::uint64_t payload_bytes) noexcept
      : node_(node), algo_(algo) {
    if (node_.telemetry != nullptr) {
      start_ = node_.sim.now();
      node_.telemetry->record_coll(node_.node, algo_);
      node_.telemetry->emit(start_, node_.node, sim::Ev::kCollBegin,
                            static_cast<std::uint64_t>(algo_), payload_bytes);
    }
  }
  ~CollScope() {
    if (node_.telemetry != nullptr) {
      const sim::TimeNs now = node_.sim.now();
      node_.telemetry->emit(now, node_.node, sim::Ev::kCollEnd,
                            static_cast<std::uint64_t>(algo_),
                            static_cast<std::uint64_t>(now - start_));
    }
  }
  CollScope(const CollScope&) = delete;
  CollScope& operator=(const CollScope&) = delete;

 private:
  sim::NodeRuntime& node_;
  sim::CollAlgo algo_;
  sim::TimeNs start_ = 0;
};

/// Depth guard for op-trace recording (DESIGN.md §17): only the outermost
/// public MPI call records. The point-to-point traffic collectives issue
/// internally is suppressed, so a replay re-runs whatever algorithm the
/// what-if config selects instead of the one that happened to run here.
class RecordScope {
 public:
  RecordScope(optrace::Recorder* rec, int& depth) noexcept
      : armed_(rec != nullptr && depth == 0), depth_(depth) {
    ++depth_;
  }
  ~RecordScope() { --depth_; }
  [[nodiscard]] bool armed() const noexcept { return armed_; }
  RecordScope(const RecordScope&) = delete;
  RecordScope& operator=(const RecordScope&) = delete;

 private:
  bool armed_;
  int& depth_;
};

std::int64_t rec_p2p(optrace::Recorder* rec, int rank, optrace::OpKind k, const Comm& c,
                     int peer, int tag, Datatype d, std::size_t count) {
  optrace::Op op;
  op.kind = k;
  op.comm = rec->comm_index(rank, c.ctx());
  op.peer = peer;
  op.tag = tag;
  op.dtype = static_cast<std::int32_t>(d);
  op.count = static_cast<std::int64_t>(count);
  return rec->push(rank, op);
}

void rec_coll(optrace::Recorder* rec, int rank, optrace::OpKind k, const Comm& c, int root,
              Datatype d, Op redop, std::size_t count, std::vector<std::int64_t> vec = {}) {
  optrace::Op op;
  op.kind = k;
  op.comm = rec->comm_index(rank, c.ctx());
  op.peer = root;
  op.dtype = static_cast<std::int32_t>(d);
  op.redop = static_cast<std::int32_t>(redop);
  op.count = static_cast<std::int64_t>(count);
  op.vec = std::move(vec);
  rec->push(rank, op);
}

void rec_wait(optrace::Recorder* rec, int rank, std::int64_t target) {
  optrace::Op op;
  op.kind = optrace::OpKind::kWait;
  op.target = target;
  rec->push(rank, op);
}
}  // namespace

#define SP_MPI_CALL(name) MpiCallScope sp_mpi_call_scope_(node_, sim::MpiCall::name)

Mpi::Mpi(sim::NodeRuntime& node, mpci::Channel& channel, int task_id, int num_tasks,
         hal::RdmaNic* nic, net::CombiningEngine* combining)
    : node_(node), channel_(channel), task_id_(task_id), nic_(nic), combining_(combining) {
  std::vector<int> tasks(static_cast<std::size_t>(num_tasks));
  std::iota(tasks.begin(), tasks.end(), 0);
  world_ = Comm(0, std::move(tasks), task_id);
}

int Mpi::coll_tag() { return kCollTagBase + static_cast<int>(coll_seq_++ % 4096); }

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

void Mpi::start_send_common(mpci::SendReq& req, const void* buf, std::size_t bytes, int dst,
                            int tag, const Comm& c, mpci::Mode mode, bool blocking) {
  node_.app_charge(node_.cfg.mpi_call_overhead_ns);
  req.dst = c.task_of(dst);
  req.src_in_comm = c.rank();
  req.ctx = c.ctx();
  req.tag = tag;
  req.buf = static_cast<const std::byte*>(buf);
  req.len = bytes;
  req.mode = mode;
  req.blocking = blocking;
  channel_.start_send(req);
}

void Mpi::start_bsend(mpci::SendReq& req, const void* buf, std::size_t bytes, int dst, int tag,
                      const Comm& c, bool blocking) {
  node_.app_charge(node_.cfg.mpi_call_overhead_ns);
  std::byte* slot_buf = nullptr;
  const int slot = channel_.bsend_pool().alloc(bytes, &slot_buf);
  if (slot < 0) {
    throw mpci::FatalMpiError("MPI_Bsend: attach buffer exhausted (MPI_ERR_BUFFER)");
  }
  // The buffered-mode copy into the attach buffer (Fig. 8).
  node_.app_charge(sim::copy_cost(node_.cfg, bytes));
  if (bytes > 0) std::memcpy(slot_buf, buf, bytes);
  req.bsend_slot = slot;
  req.dst = c.task_of(dst);
  req.src_in_comm = c.rank();
  req.ctx = c.ctx();
  req.tag = tag;
  req.buf = slot_buf;
  req.len = bytes;
  req.mode = mpci::Mode::kBuffered;
  req.blocking = blocking;
  channel_.start_send(req);
}

void Mpi::wait_send(mpci::SendReq& req) {
  assert(node_.thread != nullptr);
  while (!req.complete) {
    channel_.progress(req);
    if (req.complete) break;
    req.cond.wait(*node_.thread);
  }
}

void Mpi::wait_recv(mpci::RecvReq& req, Status* st) {
  assert(node_.thread != nullptr);
  while (!req.complete) {
    if (req.poll && req.poll()) break;
    req.wait_cond().wait(*node_.thread);
  }
  if (st != nullptr) {
    *st = req.status;
    st->truncated = req.truncated;
  }
}

void Mpi::send(const void* buf, std::size_t count, Datatype d, int dst, int tag,
               const Comm& c) {
  SP_MPI_CALL(kSend);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) rec_p2p(rec_, task_id_, optrace::OpKind::kSend, c, dst, tag, d, count);
  mpci::SendReq req;
  start_send_common(req, buf, count * datatype_size(d), dst, tag, c, mpci::Mode::kStandard,
                    /*blocking=*/true);
  wait_send(req);
}

void Mpi::ssend(const void* buf, std::size_t count, Datatype d, int dst, int tag,
                const Comm& c) {
  SP_MPI_CALL(kSsend);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) rec_p2p(rec_, task_id_, optrace::OpKind::kSsend, c, dst, tag, d, count);
  mpci::SendReq req;
  start_send_common(req, buf, count * datatype_size(d), dst, tag, c, mpci::Mode::kSync,
                    /*blocking=*/true);
  wait_send(req);
}

void Mpi::rsend(const void* buf, std::size_t count, Datatype d, int dst, int tag,
                const Comm& c) {
  SP_MPI_CALL(kRsend);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) rec_p2p(rec_, task_id_, optrace::OpKind::kRsend, c, dst, tag, d, count);
  mpci::SendReq req;
  start_send_common(req, buf, count * datatype_size(d), dst, tag, c, mpci::Mode::kReady,
                    /*blocking=*/true);
  wait_send(req);
}

void Mpi::bsend(const void* buf, std::size_t count, Datatype d, int dst, int tag,
                const Comm& c) {
  SP_MPI_CALL(kBsend);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) rec_p2p(rec_, task_id_, optrace::OpKind::kBsend, c, dst, tag, d, count);
  gc_orphans();
  auto req = std::make_unique<mpci::SendReq>();
  start_bsend(*req, buf, count * datatype_size(d), dst, tag, c, /*blocking=*/false);
  orphans_.push_back(std::move(req));
}

void Mpi::recv(void* buf, std::size_t count, Datatype d, int src, int tag, const Comm& c,
               Status* st) {
  SP_MPI_CALL(kRecv);
  RecordScope rs(rec_, rec_depth_);
  std::int64_t tidx = -1;
  if (rs.armed()) {
    tidx = rec_p2p(rec_, task_id_, optrace::OpKind::kRecv, c, src, tag, d, count);
  }
  node_.app_charge(node_.cfg.mpi_call_overhead_ns);
  mpci::RecvReq req;
  req.ctx = c.ctx();
  req.src_sel = src;
  req.tag_sel = tag;
  req.buf = static_cast<std::byte*>(buf);
  req.cap = count * datatype_size(d);
  channel_.post_recv(req);
  if (tidx >= 0) {
    // Capture the concrete match so a replay can re-post wildcards exactly.
    Status matched;
    wait_recv(req, &matched);
    rec_->set_matched(task_id_, tidx, matched);
    if (st != nullptr) *st = matched;
  } else {
    wait_recv(req, st);
  }
}

void Mpi::sendrecv(const void* sbuf, std::size_t scount, int dst, int stag, void* rbuf,
                   std::size_t rcount, int src, int rtag, Datatype d, const Comm& c,
                   Status* st) {
  SP_MPI_CALL(kSendrecv);
  Request r = irecv(rbuf, rcount, d, src, rtag, c);
  send(sbuf, scount, d, dst, stag, c);
  wait(r, st);
}

Request Mpi::isend(const void* buf, std::size_t count, Datatype d, int dst, int tag,
                   const Comm& c) {
  SP_MPI_CALL(kIsend);
  RecordScope rs(rec_, rec_depth_);
  Request r;
  if (rs.armed()) {
    r.trace_idx_ = rec_p2p(rec_, task_id_, optrace::OpKind::kIsend, c, dst, tag, d, count);
  }
  r.send_ = std::make_unique<mpci::SendReq>();
  start_send_common(*r.send_, buf, count * datatype_size(d), dst, tag, c,
                    mpci::Mode::kStandard, /*blocking=*/false);
  return r;
}

Request Mpi::issend(const void* buf, std::size_t count, Datatype d, int dst, int tag,
                    const Comm& c) {
  SP_MPI_CALL(kIssend);
  RecordScope rs(rec_, rec_depth_);
  Request r;
  if (rs.armed()) {
    r.trace_idx_ = rec_p2p(rec_, task_id_, optrace::OpKind::kIssend, c, dst, tag, d, count);
  }
  r.send_ = std::make_unique<mpci::SendReq>();
  start_send_common(*r.send_, buf, count * datatype_size(d), dst, tag, c, mpci::Mode::kSync,
                    /*blocking=*/false);
  return r;
}

Request Mpi::irsend(const void* buf, std::size_t count, Datatype d, int dst, int tag,
                    const Comm& c) {
  SP_MPI_CALL(kIrsend);
  RecordScope rs(rec_, rec_depth_);
  Request r;
  if (rs.armed()) {
    r.trace_idx_ = rec_p2p(rec_, task_id_, optrace::OpKind::kIrsend, c, dst, tag, d, count);
  }
  r.send_ = std::make_unique<mpci::SendReq>();
  start_send_common(*r.send_, buf, count * datatype_size(d), dst, tag, c, mpci::Mode::kReady,
                    /*blocking=*/false);
  return r;
}

Request Mpi::ibsend(const void* buf, std::size_t count, Datatype d, int dst, int tag,
                    const Comm& c) {
  SP_MPI_CALL(kIbsend);
  RecordScope rs(rec_, rec_depth_);
  Request r;
  if (rs.armed()) {
    r.trace_idx_ = rec_p2p(rec_, task_id_, optrace::OpKind::kIbsend, c, dst, tag, d, count);
  }
  r.send_ = std::make_unique<mpci::SendReq>();
  start_bsend(*r.send_, buf, count * datatype_size(d), dst, tag, c, /*blocking=*/false);
  return r;
}

Request Mpi::irecv(void* buf, std::size_t count, Datatype d, int src, int tag, const Comm& c) {
  SP_MPI_CALL(kIrecv);
  RecordScope rs(rec_, rec_depth_);
  node_.app_charge(node_.cfg.mpi_call_overhead_ns);
  Request r;
  if (rs.armed()) {
    r.trace_idx_ = rec_p2p(rec_, task_id_, optrace::OpKind::kIrecv, c, src, tag, d, count);
  }
  r.recv_ = std::make_unique<mpci::RecvReq>();
  r.recv_->ctx = c.ctx();
  r.recv_->src_sel = src;
  r.recv_->tag_sel = tag;
  r.recv_->buf = static_cast<std::byte*>(buf);
  r.recv_->cap = count * datatype_size(d);
  channel_.post_recv(*r.recv_);
  return r;
}

void Mpi::finish_request(Request& r, Status* st) {
  if (r.send_) {
    if (r.send_->bsend_slot >= 0 && !r.send_->bsend_released) {
      // MPI_Wait on an ibsend completes once the message is buffered, but the
      // request object must survive until the slot drains; orphan it.
      orphans_.push_back(std::move(r.send_));
    }
    r.send_.reset();
    // MPI defines the status of a completed send as "empty"; leaving the
    // caller's struct untouched (stale stack garbage) was a real gap the ABI
    // conformance suite flushed out.
    if (st != nullptr) *st = Status{};
  } else if (r.recv_) {
    if (rec_ != nullptr && r.trace_idx_ >= 0) {
      Status matched = r.recv_->status;
      matched.truncated = r.recv_->truncated;
      rec_->set_matched(task_id_, r.trace_idx_, matched);
    }
    if (st != nullptr) {
      *st = r.recv_->status;
      st->truncated = r.recv_->truncated;
    }
    r.recv_.reset();
  }
  if (r.on_complete_) {
    auto fn = std::move(r.on_complete_);
    r.on_complete_ = nullptr;
    fn();
  }
  r.staging_.reset();
  r.trace_idx_ = -1;
}

void Mpi::wait(Request& r, Status* st) {
  SP_MPI_CALL(kWait);
  RecordScope rs(rec_, rec_depth_);
  node_.app_charge(node_.cfg.mpi_call_overhead_ns / 2);
  if (!r.send_ && !r.recv_) {
    // Inactive persistent requests complete immediately (MPI semantics),
    // with an empty status.
    assert(r.persistent() && "wait on an inactive request");
    if (st != nullptr) *st = Status{};
    return;
  }
  if (rs.armed() && r.trace_idx_ >= 0) rec_wait(rec_, task_id_, r.trace_idx_);
  if (r.send_) {
    wait_send(*r.send_);
  } else {
    wait_recv(*r.recv_, nullptr);
  }
  finish_request(r, st);
}

bool Mpi::check_complete(Request& r) {
  if (r.send_) {
    channel_.progress(*r.send_);
    return r.send_->complete;
  }
  if (r.recv_) {
    return r.recv_->complete || (r.recv_->poll && r.recv_->poll());
  }
  return true;  // inactive
}

bool Mpi::test(Request& r, Status* st) {
  SP_MPI_CALL(kTest);
  RecordScope rs(rec_, rec_depth_);
  node_.app_charge(node_.cfg.mpi_call_overhead_ns / 2);
  if (!r.send_ && !r.recv_) {
    assert(r.persistent() && "test on an inactive request");
    if (st != nullptr) *st = Status{};
    return true;
  }
  if (!check_complete(r)) return false;
  // Only a successful test records: the false polls are no-ops to a replay.
  if (rs.armed() && r.trace_idx_ >= 0) rec_wait(rec_, task_id_, r.trace_idx_);
  finish_request(r, st);
  return true;
}

void Mpi::waitall(Request* reqs, std::size_t n) {
  waitall(reqs, n, static_cast<Status*>(nullptr));
}

void Mpi::waitall(Request* reqs, std::size_t n, Status* sts) {
  SP_MPI_CALL(kWaitall);
  for (std::size_t i = 0; i < n; ++i) {
    if (sts != nullptr) sts[i] = Status{};  // empty for sends / inactive
    if (reqs[i].valid()) wait(reqs[i], sts != nullptr ? &sts[i] : nullptr);
  }
}

std::size_t Mpi::waitany(Request* reqs, std::size_t n, Status* st) {
  SP_MPI_CALL(kWaitany);
  RecordScope rs(rec_, rec_depth_);
  node_.app_charge(node_.cfg.mpi_call_overhead_ns / 2);
  assert(node_.thread != nullptr);
  for (;;) {
    bool any_active = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!reqs[i].valid()) continue;
      any_active = true;
      if (check_complete(reqs[i])) {
        // Record the completion the program actually observed, so the replay
        // waits in the same order.
        if (rs.armed() && reqs[i].trace_idx_ >= 0) {
          rec_wait(rec_, task_id_, reqs[i].trace_idx_);
        }
        finish_request(reqs[i], st);
        return i;
      }
    }
    if (!any_active) return n;  // MPI_UNDEFINED analogue
    // Block until any of the active requests' conditions fires. Stale
    // registrations only cause harmless spurious wakeups.
    for (std::size_t i = 0; i < n; ++i) {
      if (!reqs[i].valid()) continue;
      if (reqs[i].send_) {
        reqs[i].send_->cond.add_waiter(node_.thread);
      } else {
        reqs[i].recv_->wait_cond().add_waiter(node_.thread);
      }
    }
    node_.thread->yield_to_sim();
  }
}

bool Mpi::testall(Request* reqs, std::size_t n) {
  return testall(reqs, n, static_cast<Status*>(nullptr));
}

bool Mpi::testall(Request* reqs, std::size_t n, Status* sts) {
  SP_MPI_CALL(kTestall);
  RecordScope rs(rec_, rec_depth_);
  node_.app_charge(node_.cfg.mpi_call_overhead_ns / 2);
  for (std::size_t i = 0; i < n; ++i) {
    if (reqs[i].valid() && !check_complete(reqs[i])) return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (sts != nullptr) sts[i] = Status{};  // empty for sends / inactive
    if (reqs[i].valid()) {
      if (rs.armed() && reqs[i].trace_idx_ >= 0) {
        rec_wait(rec_, task_id_, reqs[i].trace_idx_);
      }
      finish_request(reqs[i], sts != nullptr ? &sts[i] : nullptr);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

bool Mpi::iprobe(int src, int tag, const Comm& c, Status* st) {
  SP_MPI_CALL(kIprobe);
  node_.app_charge(node_.cfg.mpi_call_overhead_ns / 2);
  return channel_.iprobe(c.ctx(), src, tag, st);
}

void Mpi::probe(int src, int tag, const Comm& c, Status* st) {
  SP_MPI_CALL(kProbe);
  node_.app_charge(node_.cfg.mpi_call_overhead_ns / 2);
  assert(node_.thread != nullptr);
  while (!channel_.iprobe(c.ctx(), src, tag, st)) {
    channel_.arrival_cond().wait(*node_.thread);
  }
}

// ---------------------------------------------------------------------------
// Derived datatypes (pack / unpack at the MPI layer — the paper's future work)
// ---------------------------------------------------------------------------

void Mpi::send(const void* buf, std::size_t count, const DerivedDatatype& t, int dst, int tag,
               const Comm& c) {
  const std::size_t packed = t.packed_bytes() * count;
  std::vector<std::byte> stage(packed);
  node_.app_charge(sim::copy_cost(node_.cfg, packed));  // pack
  t.pack(buf, stage.data(), count);
  send(stage.data(), packed, Datatype::kByte, dst, tag, c);
}

void Mpi::recv(void* buf, std::size_t count, const DerivedDatatype& t, int src, int tag,
               const Comm& c, Status* st) {
  const std::size_t packed = t.packed_bytes() * count;
  std::vector<std::byte> stage(packed);
  recv(stage.data(), packed, Datatype::kByte, src, tag, c, st);
  node_.app_charge(sim::copy_cost(node_.cfg, packed));  // unpack
  t.unpack(stage.data(), buf, count);
}

Request Mpi::isend(const void* buf, std::size_t count, const DerivedDatatype& t, int dst,
                   int tag, const Comm& c) {
  const std::size_t packed = t.packed_bytes() * count;
  auto stage = std::make_unique<std::vector<std::byte>>(packed);
  node_.app_charge(sim::copy_cost(node_.cfg, packed));
  t.pack(buf, stage->data(), count);
  Request r = isend(stage->data(), packed, Datatype::kByte, dst, tag, c);
  r.staging_ = std::move(stage);
  return r;
}

Request Mpi::irecv(void* buf, std::size_t count, const DerivedDatatype& t, int src, int tag,
                   const Comm& c) {
  const std::size_t packed = t.packed_bytes() * count;
  auto stage = std::make_unique<std::vector<std::byte>>(packed);
  Request r = irecv(stage->data(), packed, Datatype::kByte, src, tag, c);
  auto* stage_ptr = stage.get();
  r.staging_ = std::move(stage);
  r.on_complete_ = [this, stage_ptr, buf, count, t] {
    node_.app_charge(sim::copy_cost(node_.cfg, t.packed_bytes() * count));
    t.unpack(stage_ptr->data(), buf, count);
  };
  return r;
}

// ---------------------------------------------------------------------------
// Persistent requests
// ---------------------------------------------------------------------------

Request Mpi::send_init(const void* buf, std::size_t count, Datatype d, int dst, int tag,
                       const Comm& c) {
  Request r;
  r.persistent_ = std::make_unique<Request::PersistentSpec>();
  r.persistent_->is_send = true;
  r.persistent_->sbuf = buf;
  r.persistent_->bytes = count * datatype_size(d);
  r.persistent_->peer = dst;
  r.persistent_->tag = tag;
  r.persistent_->comm = c;
  return r;
}

Request Mpi::recv_init(void* buf, std::size_t count, Datatype d, int src, int tag,
                       const Comm& c) {
  Request r;
  r.persistent_ = std::make_unique<Request::PersistentSpec>();
  r.persistent_->is_send = false;
  r.persistent_->rbuf = buf;
  r.persistent_->bytes = count * datatype_size(d);
  r.persistent_->peer = src;
  r.persistent_->tag = tag;
  r.persistent_->comm = c;
  return r;
}

void Mpi::start(Request& r) {
  SP_MPI_CALL(kStart);
  RecordScope rs(rec_, rec_depth_);
  assert(r.persistent() && "start on a non-persistent request");
  assert(!r.send_ && !r.recv_ && "start on an already-active request");
  const auto& p = *r.persistent_;
  if (rs.armed()) {
    // A started persistent op is indistinguishable from a fresh nonblocking
    // one; record it as such (byte-typed, the spec already pre-multiplied).
    r.trace_idx_ = rec_p2p(rec_, task_id_,
                           p.is_send ? optrace::OpKind::kIsend : optrace::OpKind::kIrecv,
                           p.comm, p.peer, p.tag, Datatype::kByte, p.bytes);
  }
  if (p.is_send) {
    r.send_ = std::make_unique<mpci::SendReq>();
    start_send_common(*r.send_, p.sbuf, p.bytes, p.peer, p.tag, p.comm, p.mode,
                      /*blocking=*/false);
  } else {
    node_.app_charge(node_.cfg.mpi_call_overhead_ns);
    r.recv_ = std::make_unique<mpci::RecvReq>();
    r.recv_->ctx = p.comm.ctx();
    r.recv_->src_sel = p.peer;
    r.recv_->tag_sel = p.tag;
    r.recv_->buf = static_cast<std::byte*>(p.rbuf);
    r.recv_->cap = p.bytes;
    channel_.post_recv(*r.recv_);
  }
}

void Mpi::startall(Request* reqs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) start(reqs[i]);
}

void Mpi::gc_orphans() {
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    if ((*it)->complete && ((*it)->bsend_slot < 0 || (*it)->bsend_released)) {
      it = orphans_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Buffered mode
// ---------------------------------------------------------------------------

void Mpi::buffer_attach(void* buf, std::size_t len) {
  node_.app_charge(node_.cfg.mpi_call_overhead_ns / 2);
  channel_.bsend_pool().drained.sim = &node_.sim;
  channel_.bsend_pool().attach(static_cast<std::byte*>(buf), len);
}

void* Mpi::buffer_detach() {
  node_.app_charge(node_.cfg.mpi_call_overhead_ns / 2);
  auto& pool = channel_.bsend_pool();
  assert(node_.thread != nullptr);
  pool.drained.cond.wait_until(*node_.thread, [&pool] { return pool.empty(); });
  gc_orphans();
  return pool.detach();
}

// ---------------------------------------------------------------------------
// Collectives (decomposed into point-to-point, as the paper's MPI layer does)
// ---------------------------------------------------------------------------

// Tag discipline (see coll.hpp): every collective allocates exactly ONE
// sequence tag per call, before any early return, so ranks that live in
// different-sized split() sub-communicators — where n <= 1 holds for some
// members and not others — keep their coll_seq_ counters in lockstep.

int Mpi::plan(coll::Primitive p, std::size_t bytes, int n, Datatype d) const {
  return coll::plan(node_.cfg, p, bytes, n, d, {nic_ != nullptr, combining_ != nullptr});
}

void Mpi::offload(bool in_network, const Comm& c, int tag, int root, void* buf,
                  std::size_t len, bool reduce_phase, net::Combine combine) {
  // Install the op (switch table entry, or the adapter's doorbell), park the
  // rank fiber until the engine's completion event fires, then reap it.
  const sim::MachineConfig& cfg = node_.cfg;
  node_.app_charge(in_network ? cfg.innet_post_ns : cfg.rdma_doorbell_ns);
  bool done = false;
  sim::SimCondition cond;
  net::CollOp op;
  op.ctx = static_cast<std::uint32_t>(c.ctx());
  op.seq = static_cast<std::uint32_t>(tag);
  op.rank = c.rank();
  op.root = root;
  op.tasks = c.tasks();
  op.buf = static_cast<std::byte*>(buf);
  op.len = len;
  op.reduce_phase = reduce_phase;
  op.combine = std::move(combine);
  op.on_done = [this, &done, &cond] {
    node_.publish([this, &done, &cond] {
      done = true;
      cond.notify_all(node_.sim);
    });
  };
  if (in_network) {
    combining_->start(std::move(op));
  } else {
    nic_->coll_start(std::move(op));
  }
  assert(node_.thread != nullptr);
  while (!done) cond.wait(*node_.thread);
  node_.app_charge(in_network ? cfg.innet_post_ns : cfg.rdma_cq_ns);
}

void Mpi::barrier(const Comm& c) {
  SP_MPI_CALL(kBarrier);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kBarrier, c, 0, Datatype::kByte, Op::kSum, 0);
  }
  const int n = c.size();
  const int tag = coll_tag();
  if (n <= 1) return;
  const int me = c.rank();
  // Offloaded barrier (DESIGN.md §14.3, §16): a zero-byte reduce phase
  // through the adapter's or the switch's combining tree.
  const auto algo = static_cast<coll::BarrierAlgo>(plan(coll::Primitive::kBarrier, 0, n,
                                                        Datatype::kByte));
  if (algo == coll::BarrierAlgo::kNicOffload || algo == coll::BarrierAlgo::kInNetwork) {
    const bool in_network = algo == coll::BarrierAlgo::kInNetwork;
    CollScope span(node_,
                   in_network ? sim::CollAlgo::kBarrierInNetwork
                              : sim::CollAlgo::kBarrierNicOffload,
                   0);
    offload(in_network, c, tag, 0, nullptr, 0, /*reduce_phase=*/true, nullptr);
    return;
  }
  // Dissemination barrier: log2(n) rounds of sendrecv.
  for (int span = 1; span < n; span <<= 1) {
    const int to = (me + span) % n;
    const int from = (me - span % n + n) % n;
    std::byte token{};
    std::byte in{};
    sendrecv(&token, 1, to, tag, &in, 1, from, tag, Datatype::kByte, c);
  }
}

void Mpi::bcast(void* buf, std::size_t count, Datatype d, int root, const Comm& c) {
  SP_MPI_CALL(kBcast);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kBcast, c, root, d, Op::kSum, count);
  }
  const int n = c.size();
  const int tag = coll_tag();
  if (n <= 1) return;
  const std::size_t bytes = count * datatype_size(d);
  const auto algo = static_cast<coll::BcastAlgo>(plan(coll::Primitive::kBcast, bytes, n, d));
  CollScope span(node_, coll::telem_id(algo), bytes);
  switch (algo) {
    case coll::BcastAlgo::kNicOffload:
    case coll::BcastAlgo::kInNetwork:
      // Pure data movement: bitwise identical to any host tree.
      offload(algo == coll::BcastAlgo::kInNetwork, c, tag, root, buf, bytes,
              /*reduce_phase=*/false, nullptr);
      break;
    case coll::BcastAlgo::kPipelined:
      coll::bcast_pipelined(*this, buf, count, d, root, c, tag, node_.cfg.coll_segment_bytes);
      break;
    case coll::BcastAlgo::kScatterAllgather:
      coll::bcast_scatter_allgather(*this, buf, count, d, root, c, tag);
      break;
    default: coll::bcast_binomial(*this, buf, count, d, root, c, tag); break;
  }
}

void Mpi::bcast(void* buf, std::size_t count, const DerivedDatatype& t, int root,
                const Comm& c) {
  // Pack at the root, broadcast the packed bytes (the nested call runs the
  // algorithm engine and owns the tag), unpack into the user layout.
  const std::size_t bytes = t.packed_bytes() * count;
  node_.app_charge(sim::copy_cost(node_.cfg, bytes));
  std::vector<std::byte> staging(bytes);
  if (c.rank() == root) t.pack(buf, staging.data(), count);
  bcast(staging.data(), bytes, Datatype::kByte, root, c);
  if (c.rank() != root) t.unpack(staging.data(), buf, count);
}

void Mpi::reduce(const void* sendb, void* recvb, std::size_t count, Datatype d, Op op,
                 int root, const Comm& c) {
  SP_MPI_CALL(kReduce);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kReduce, c, root, d, op, count);
  }
  const int tag = coll_tag();
  coll::reduce_binomial(*this, sendb, recvb, count, d, op, root, c, tag);
}

void Mpi::allreduce(const void* sendb, void* recvb, std::size_t count, Datatype d, Op op,
                    const Comm& c) {
  SP_MPI_CALL(kAllreduce);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kAllreduce, c, 0, d, op, count);
  }
  const int n = c.size();
  const int tag = coll_tag();
  const std::size_t bytes = count * datatype_size(d);
  const auto algo =
      static_cast<coll::AllreduceAlgo>(plan(coll::Primitive::kAllreduce, bytes, n, d));
  CollScope span(node_, coll::telem_id(algo), bytes);
  switch (algo) {
    case coll::AllreduceAlgo::kNicOffload:
    case coll::AllreduceAlgo::kInNetwork: {
      // Both engines fold the contributions in communicator rank order.
      if (bytes > 0) {
        node_.app_charge(sim::copy_cost(node_.cfg, bytes));
        std::memcpy(recvb, sendb, bytes);
      }
      auto combine = [op, d](std::byte* into, const std::byte* from, std::size_t len) {
        reduce_apply(op, d, from, into, len / datatype_size(d));
      };
      offload(algo == coll::AllreduceAlgo::kInNetwork, c, tag, 0, recvb, bytes,
              /*reduce_phase=*/true, std::move(combine));
      break;
    }
    case coll::AllreduceAlgo::kRecursiveDoubling:
      coll::allreduce_recursive_doubling(*this, sendb, recvb, count, d, op, c, tag);
      break;
    case coll::AllreduceAlgo::kRabenseifner:
      coll::allreduce_rabenseifner(*this, sendb, recvb, count, d, op, c, tag);
      break;
    default: coll::allreduce_reduce_bcast(*this, sendb, recvb, count, d, op, c, tag); break;
  }
}

void Mpi::gather(const void* sendb, std::size_t count, void* recvb, Datatype d, int root,
                 const Comm& c) {
  SP_MPI_CALL(kGather);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kGather, c, root, d, Op::kSum, count);
  }
  const std::size_t bytes = count * datatype_size(d);
  const int tag = coll_tag();
  if (c.rank() == root) {
    auto* out = static_cast<std::byte*>(recvb);
    for (int r = 0; r < c.size(); ++r) {
      if (r == root) {
        if (bytes > 0) std::memcpy(out + static_cast<std::size_t>(r) * bytes, sendb, bytes);
      } else {
        recv(out + static_cast<std::size_t>(r) * bytes, count, d, r, tag, c);
      }
    }
  } else {
    send(sendb, count, d, root, tag, c);
  }
}

void Mpi::scatter(const void* sendb, std::size_t count, void* recvb, Datatype d, int root,
                  const Comm& c) {
  SP_MPI_CALL(kScatter);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kScatter, c, root, d, Op::kSum, count);
  }
  const std::size_t bytes = count * datatype_size(d);
  const int tag = coll_tag();
  if (c.rank() == root) {
    const auto* in = static_cast<const std::byte*>(sendb);
    for (int r = 0; r < c.size(); ++r) {
      if (r == root) {
        if (bytes > 0) std::memcpy(recvb, in + static_cast<std::size_t>(r) * bytes, bytes);
      } else {
        send(in + static_cast<std::size_t>(r) * bytes, count, d, r, tag, c);
      }
    }
  } else {
    recv(recvb, count, d, root, tag, c);
  }
}

void Mpi::allgather(const void* sendb, std::size_t count, void* recvb, Datatype d,
                    const Comm& c) {
  SP_MPI_CALL(kAllgather);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kAllgather, c, 0, d, Op::kSum, count);
  }
  const int n = c.size();
  const std::size_t bytes = count * datatype_size(d);
  auto* out = static_cast<std::byte*>(recvb);
  const int me = c.rank();
  const int tag = coll_tag();
  if (bytes > 0) std::memcpy(out + static_cast<std::size_t>(me) * bytes, sendb, bytes);
  if (n <= 1) return;
  // Ring: in step k, forward the block received in step k-1.
  for (int k = 0; k < n - 1; ++k) {
    const int to = (me + 1) % n;
    const int from = (me - 1 + n) % n;
    const int send_block = (me - k + n) % n;
    const int recv_block = (me - k - 1 + n) % n;
    sendrecv(out + static_cast<std::size_t>(send_block) * bytes, count, to, tag,
             out + static_cast<std::size_t>(recv_block) * bytes, count, from, tag, d, c);
  }
}

void Mpi::alltoall(const void* sendb, std::size_t count, void* recvb, Datatype d,
                   const Comm& c) {
  SP_MPI_CALL(kAlltoall);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kAlltoall, c, 0, d, Op::kSum, count);
  }
  const int n = c.size();
  const int tag = coll_tag();
  const std::size_t bytes = count * datatype_size(d);
  const coll::AlltoallAlgo algo = coll::select_alltoall(node_.cfg, bytes, n);
  CollScope span(node_, coll::telem_id(algo), bytes * static_cast<std::uint64_t>(n));
  if (algo == coll::AlltoallAlgo::kBruck) {
    coll::alltoall_bruck(*this, sendb, count, recvb, d, c, tag);
  } else {
    coll::alltoall_pairwise(*this, sendb, count, recvb, d, c, tag);
  }
}

void Mpi::alltoallv(const void* sendb, const std::size_t* scounts, const std::size_t* sdispls,
                    void* recvb, const std::size_t* rcounts, const std::size_t* rdispls,
                    Datatype d, const Comm& c) {
  SP_MPI_CALL(kAlltoallv);
  RecordScope rs(rec_, rec_depth_);
  const int n = c.size();
  if (rs.armed()) {
    std::vector<std::int64_t> v;
    v.reserve(2 * static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) v.push_back(static_cast<std::int64_t>(scounts[r]));
    for (int r = 0; r < n; ++r) v.push_back(static_cast<std::int64_t>(rcounts[r]));
    rec_coll(rec_, task_id_, optrace::OpKind::kAlltoallv, c, 0, d, Op::kSum, 0, std::move(v));
  }
  const std::size_t esz = datatype_size(d);
  const auto* in = static_cast<const std::byte*>(sendb);
  auto* out = static_cast<std::byte*>(recvb);
  const int me = c.rank();
  if (scounts[me] > 0) {
    std::memcpy(out + rdispls[me] * esz, in + sdispls[me] * esz, scounts[me] * esz);
  }
  const int tag = coll_tag();
  for (int k = 1; k < n; ++k) {
    const int to = (me + k) % n;
    const int from = (me - k + n) % n;
    Request r = irecv(out + rdispls[from] * esz, rcounts[from], d, from, tag, c);
    send(in + sdispls[to] * esz, scounts[to], d, to, tag, c);
    wait(r);
  }
}

void Mpi::scan(const void* sendb, void* recvb, std::size_t count, Datatype d, Op op,
               const Comm& c) {
  SP_MPI_CALL(kScan);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kScan, c, 0, d, op, count);
  }
  const int n = c.size();
  const int tag = coll_tag();
  const std::size_t bytes = count * datatype_size(d);
  const coll::ScanAlgo algo = coll::select_scan(node_.cfg, bytes, n);
  CollScope span(node_, coll::telem_id(algo, /*exclusive=*/false), bytes);
  if (algo == coll::ScanAlgo::kBinomial) {
    coll::scan_binomial(*this, sendb, recvb, count, d, op, c, tag);
  } else {
    coll::scan_linear(*this, sendb, recvb, count, d, op, c, tag);
  }
}

void Mpi::exscan(const void* sendb, void* recvb, std::size_t count, Datatype d, Op op,
                 const Comm& c) {
  SP_MPI_CALL(kExscan);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kExscan, c, 0, d, op, count);
  }
  const int n = c.size();
  const int tag = coll_tag();
  const std::size_t bytes = count * datatype_size(d);
  const coll::ScanAlgo algo = coll::select_scan(node_.cfg, bytes, n);
  CollScope span(node_, coll::telem_id(algo, /*exclusive=*/true), bytes);
  if (algo == coll::ScanAlgo::kBinomial) {
    coll::exscan_binomial(*this, sendb, recvb, count, d, op, c, tag);
  } else {
    coll::exscan_linear(*this, sendb, recvb, count, d, op, c, tag);
  }
}

void Mpi::gatherv(const void* sendb, std::size_t scount, void* recvb,
                  const std::size_t* rcounts, const std::size_t* displs, Datatype d, int root,
                  const Comm& c) {
  SP_MPI_CALL(kGatherv);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    // Per-rank receive counts are only meaningful (or even valid to read) at
    // the root; non-roots record their send count alone.
    std::vector<std::int64_t> v;
    if (c.rank() == root) {
      for (int r = 0; r < c.size(); ++r) {
        v.push_back(static_cast<std::int64_t>(rcounts[static_cast<std::size_t>(r)]));
      }
    }
    rec_coll(rec_, task_id_, optrace::OpKind::kGatherv, c, root, d, Op::kSum, scount,
             std::move(v));
  }
  const std::size_t esz = datatype_size(d);
  const int tag = coll_tag();
  if (c.rank() == root) {
    auto* out = static_cast<std::byte*>(recvb);
    for (int r = 0; r < c.size(); ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (r == root) {
        if (rcounts[ri] > 0) std::memcpy(out + displs[ri] * esz, sendb, rcounts[ri] * esz);
      } else {
        recv(out + displs[ri] * esz, rcounts[ri], d, r, tag, c);
      }
    }
  } else {
    send(sendb, scount, d, root, tag, c);
  }
}

void Mpi::scatterv(const void* sendb, const std::size_t* scounts, const std::size_t* displs,
                   void* recvb, std::size_t rcount, Datatype d, int root, const Comm& c) {
  SP_MPI_CALL(kScatterv);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    std::vector<std::int64_t> v;
    if (c.rank() == root) {
      for (int r = 0; r < c.size(); ++r) {
        v.push_back(static_cast<std::int64_t>(scounts[static_cast<std::size_t>(r)]));
      }
    }
    rec_coll(rec_, task_id_, optrace::OpKind::kScatterv, c, root, d, Op::kSum, rcount,
             std::move(v));
  }
  const std::size_t esz = datatype_size(d);
  const int tag = coll_tag();
  if (c.rank() == root) {
    const auto* in = static_cast<const std::byte*>(sendb);
    for (int r = 0; r < c.size(); ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (r == root) {
        if (scounts[ri] > 0) std::memcpy(recvb, in + displs[ri] * esz, scounts[ri] * esz);
      } else {
        send(in + displs[ri] * esz, scounts[ri], d, r, tag, c);
      }
    }
  } else {
    recv(recvb, rcount, d, root, tag, c);
  }
}

void Mpi::reduce_scatter_block(const void* sendb, void* recvb, std::size_t count, Datatype d,
                               Op op, const Comm& c) {
  SP_MPI_CALL(kReduceScatter);
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    rec_coll(rec_, task_id_, optrace::OpKind::kReduceScatterBlock, c, 0, d, op, count);
  }
  const int n = c.size();
  const int tag = coll_tag();
  const std::size_t total_bytes = count * static_cast<std::size_t>(n) * datatype_size(d);
  const coll::ReduceScatterAlgo algo = coll::select_reduce_scatter(node_.cfg, total_bytes, n);
  CollScope span(node_, coll::telem_id(algo), total_bytes);
  if (algo == coll::ReduceScatterAlgo::kRecursiveHalving) {
    coll::reduce_scatter_recursive_halving(*this, sendb, recvb, count, d, op, c, tag);
  } else {
    coll::reduce_scatter_via_reduce(*this, sendb, recvb, count, d, op, c, tag);
  }
}

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------

Comm Mpi::dup(const Comm& c) {
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    optrace::Op op;
    op.kind = optrace::OpKind::kDup;
    op.comm = rec_->comm_index(task_id_, c.ctx());
    rec_->push(task_id_, op);
  }
  // Collective: every member allocates the same new context deterministically.
  barrier(c);
  const int ctx = next_ctx_++;
  if (rs.armed()) rec_->register_comm(task_id_, ctx);
  return Comm(ctx, c.tasks(), c.rank());
}

Comm Mpi::split(const Comm& c, int color, int key) {
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    optrace::Op op;
    op.kind = optrace::OpKind::kSplit;
    op.comm = rec_->comm_index(task_id_, c.ctx());
    op.peer = key;
    op.tag = color;
    rec_->push(task_id_, op);
  }
  const int n = c.size();
  // Gather (color, key) from every member.
  std::vector<std::int32_t> mine{color, key};
  std::vector<std::int32_t> all(static_cast<std::size_t>(n) * 2);
  allgather(mine.data(), 2, all.data(), Datatype::kInt, c);

  // Distinct colors, sorted, determine context ids deterministically.
  std::vector<int> colors;
  for (int r = 0; r < n; ++r) colors.push_back(all[static_cast<std::size_t>(r) * 2]);
  std::vector<int> uniq = colors;
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

  const auto color_idx = static_cast<int>(
      std::lower_bound(uniq.begin(), uniq.end(), color) - uniq.begin());
  const int ctx = next_ctx_ + color_idx;
  next_ctx_ += static_cast<int>(uniq.size());
  if (rs.armed()) rec_->register_comm(task_id_, ctx);

  // Members of my color, ordered by (key, rank).
  std::vector<std::pair<int, int>> members;  // (key, rank)
  for (int r = 0; r < n; ++r) {
    if (colors[static_cast<std::size_t>(r)] == color) {
      members.emplace_back(all[static_cast<std::size_t>(r) * 2 + 1], r);
    }
  }
  std::sort(members.begin(), members.end());
  std::vector<int> tasks;
  int my_new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    tasks.push_back(c.task_of(members[i].second));
    if (members[i].second == c.rank()) my_new_rank = static_cast<int>(i);
  }
  return Comm(ctx, std::move(tasks), my_new_rank);
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

double Mpi::wtime() const { return sim::to_sec(node_.sim.now()); }

void Mpi::compute(sim::TimeNs ns) {
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    optrace::Op op;
    op.kind = optrace::OpKind::kCompute;
    op.count = ns;
    rec_->push(task_id_, op);
  }
  node_.app_charge(ns);
}

void Mpi::set_interrupt_mode(bool on) {
  RecordScope rs(rec_, rec_depth_);
  if (rs.armed()) {
    optrace::Op op;
    op.kind = optrace::OpKind::kInterrupt;
    op.count = on ? 1 : 0;
    rec_->push(task_id_, op);
  }
  node_.app_charge(node_.cfg.mpi_call_overhead_ns / 2);
  // The interrupt switch lives in the HAL; reach it through the runtime.
  assert(interrupt_hook_ && "interrupt hook not wired by the Machine");
  interrupt_hook_(on);
}

}  // namespace sp::mpi
