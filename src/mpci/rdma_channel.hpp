// MPCI over the RDMA/NIC-offload adapter (DESIGN.md §14) — the third channel
// beside PipesChannel and LapiChannel, modeling the post-LAPI generation of
// SP messaging hardware.
//
// Point-to-point protocols:
//  * Eager: RDMA write with immediate (imm = envelope) into the receiver's
//    pre-posted per-peer ring. Admission is credit based — each non-ready,
//    non-empty eager consumes one of `rdma_ring_slots` slots toward that
//    peer; slots are recycled when the message leaves the ring at CQ
//    dispatch and returned in batches as kRingCredit envelopes. A sender out
//    of slots demotes the message to rendezvous (counted in ea_fallbacks).
//  * Rendezvous: RDMA *read*. The RTS carries an 8-byte region token after
//    the envelope; the receiver, once matched, pulls the payload straight
//    into the user buffer (zero copies on either host) and FINs with
//    kRecvDone so the sender can deregister and complete. No CTS, no
//    sender-pushed data phase.
//
// The NIC delivers whole messages in per-source post order (RC-QP
// semantics), so the channel needs no stream parsing and no sequence
// parking. Host time is charged only for doorbells (rank-fiber entry
// points), completion-queue reaps, and the eager ring -> user-buffer copy.
//
// Collectives: nic_barrier / nic_bcast / nic_allreduce run entirely on the
// adapter (RdmaNic::coll_start); the rank fiber blocks on a condition until
// the NIC reports completion — the host never executes per-message work.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "hal/rdma_nic.hpp"
#include "mpci/channel.hpp"
#include "mpci/envelope.hpp"

namespace sp::mpci {

class RdmaChannel : public Channel {
 public:
  RdmaChannel(sim::NodeRuntime& node, hal::RdmaNic& nic, int my_task, int num_tasks);

  void start_send(SendReq& req) override;
  void post_recv(RecvReq& req) override;
  void progress(SendReq& req) override;

  [[nodiscard]] bool nic_offload() const noexcept override { return true; }
  bool nic_barrier(int ctx, std::uint32_t seq, int rank, const std::vector<int>& tasks) override;
  bool nic_bcast(int ctx, std::uint32_t seq, int rank, int root, const std::vector<int>& tasks,
                 std::byte* buf, std::size_t len) override;
  bool nic_allreduce(int ctx, std::uint32_t seq, int rank, const std::vector<int>& tasks,
                     std::byte* buf, std::size_t len, NicCombine combine) override;

 private:
  void on_write(int src, std::span<const std::byte> imm, std::vector<std::byte>&& data);
  void handle_eager(int src, const Envelope& env, std::vector<std::byte>&& data);
  /// Copy a whole arrived payload into the matched receive and complete it.
  void receive_direct(int src, const Envelope& env, RecvReq& r,
                      const std::vector<std::byte>& data);
  /// Receiver side of the rendezvous: pull the payload via RDMA read, then
  /// complete the receive and FIN the sender.
  void start_read(RecvReq& req, const Envelope& env, int src, lapi::Token token,
                  bool app_context);
  /// Serve a NACKed eager's retained copy as rendezvous data (EA failover).
  void serve_nacked(int dst_task, std::uint32_t sreq, std::uint32_t rreq);
  void send_control_env(int dst_task, const Envelope& env) override;
  /// One eager left the ring: recycle the slot, batch a credit home.
  void ring_slot_freed(int src);
  /// Blocking driver shared by the three adapter-resident collectives.
  bool run_nic_coll(hal::RdmaNic::CollOp&& op);
  void maybe_complete_send(SendReq& req);

  hal::RdmaNic& nic_;
  int my_task_;

  std::map<std::uint32_t, SendReq*> sreqs_;
  std::map<std::uint32_t, RecvReq*> rreqs_;  ///< NACK-service rendezvous only.
  std::map<std::uint32_t, lapi::Token> send_regions_;  ///< sreq -> RTS region.
  std::map<int, std::size_t> ring_credits_;  ///< dst -> free eager-ring slots.
  std::map<int, std::size_t> ring_freed_;    ///< src -> slots freed, uncredited.
  std::vector<std::uint32_t> send_seq_;
  std::uint32_t next_sreq_ = 1;
  std::uint32_t next_rreq_ = 1;
};

}  // namespace sp::mpci
