// The new, thin MPCI over LAPI — the paper's contribution (Fig. 1c, §4-5).
//
// Point-to-point MPI messages ride on LAPI_Amsend: the MPCI envelope travels
// as the LAPI user header; the registered header handlers perform matching
// and early-arrival handling at the target, returning the user (or EA)
// buffer for LAPI to reassemble into — no receive-side staging copy.
//
// Three versions reproduce §5:
//  * kBase     — completion handlers (on the LAPI completion-handler thread)
//                mark receives complete / send control messages. The two
//                thread context switches dominate latency (§5.1).
//  * kCounters — eager-protocol completions are signalled through a
//                pre-exchanged ring of target counters (LAPI_Address_init at
//                startup); no completion handler for eager traffic (§5.2).
//                Rendezvous control still pays the handler thread.
//  * kEnhanced — the paper's LAPI enhancement: predefined completion handlers
//                run inline in dispatcher context for all traffic (§5.3).
//
// MPI non-overtaking over the out-of-order transport: matching envelopes
// (kEager/kRts) carry a per-(source task) sequence number; an envelope whose
// predecessors have not yet been seen is parked in the early-arrival queue
// (its payload still reassembles concurrently) and becomes matchable only in
// sequence order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "lapi/lapi.hpp"
#include "mpci/channel.hpp"
#include "mpci/envelope.hpp"

namespace sp::mpci {

enum class LapiVariant : std::uint8_t { kBase, kCounters, kEnhanced };

class LapiChannel : public Channel {
 public:
  LapiChannel(sim::NodeRuntime& node, lapi::Lapi& lapi, LapiVariant variant, int my_task,
              int num_tasks);

  void start_send(SendReq& req) override;
  void post_recv(RecvReq& req) override;
  void progress(SendReq& req) override;
  void on_thread_start() override;

  [[nodiscard]] LapiVariant variant() const noexcept { return variant_; }

 private:
  /// Sender-side per-request LAPI counters (org / cmpl) with bump hooks.
  struct SReqState {
    lapi::Cntr org;
    lapi::Cntr cmpl;
  };

  // Header handlers (registered in construction order; ids must agree across
  // tasks, which the Machine guarantees by building channels identically).
  lapi::Lapi::HeaderHandlerResult hh_eager(int origin, const std::byte* uhdr,
                                           std::size_t uhdr_len, std::size_t total);
  lapi::Lapi::HeaderHandlerResult hh_cts(int origin, const std::byte* uhdr,
                                         std::size_t uhdr_len, std::size_t total);
  lapi::Lapi::HeaderHandlerResult hh_rtsdata(int origin, const std::byte* uhdr,
                                             std::size_t uhdr_len, std::size_t total);

  /// In-order processing of a matching envelope (eager or RTS).
  lapi::Lapi::HeaderHandlerResult process_in_order(const Envelope& env, int origin,
                                                   std::size_t total);
  /// Drain parked envelopes that have become in-order (runs outside the
  /// header handler so it may make LAPI calls).
  void drain_parked(int origin);
  /// Give EA entry `e` to receive `req`: clear an RTS sender to send, bind
  /// a Counters receive to the ring slot, or deliver / bind the payload.
  void take_ea(RecvReq& req, EaEntry& e, bool app_context);
  /// Header-handler result reassembling a matched message into `r`.
  [[nodiscard]] lapi::Lapi::HeaderHandlerResult reassemble_into_recv(RecvReq& r, int origin,
                                                                     const Envelope& env);
  /// Header-handler result reassembling into EA entry `e`, which delivers
  /// itself on arrival if bound.
  [[nodiscard]] lapi::Lapi::HeaderHandlerResult reassemble_into_ea(EaEntry& e);

  void send_data_phase(SendReq& req);
  void send_cts(int dst_task, std::uint32_t sreq, RecvReq& r);
  /// Serve a NACKed eager's retained copy as rendezvous data (EA failover).
  void serve_nacked(int dst_task, std::uint32_t sreq, std::uint32_t rreq);
  /// Control envelopes (EA credits / NACKs) ride the CTS header handler.
  void send_control_env(int dst_task, const Envelope& env) override;
  /// Counters variant: absorb the stale ring-slot bump of a refused eager.
  void absorb_ring_bump(int origin, std::uint16_t slot_idx);
  /// Header-handler result for a refused eager: scratch reassembly + NACK.
  [[nodiscard]] lapi::Lapi::HeaderHandlerResult nack_result(int origin, const Envelope& env,
                                                            std::size_t total);
  void maybe_complete_send(SendReq& req);
  void setup_counters_recv(RecvReq& req, int origin, const Envelope& env);
  void bind_counters_ea(RecvReq& req, EaEntry& e);

  [[nodiscard]] lapi::Token ring_token(int dst, std::uint16_t slot) const;
  [[nodiscard]] lapi::Cntr* ring_slot(int src, std::uint16_t slot);
  [[nodiscard]] SReqState& sstate(SendReq& req);
  void gc_sstate(std::uint32_t id);

  lapi::Lapi& lapi_;
  LapiVariant variant_;
  int my_task_;

  int hh_eager_id_ = -1;
  int hh_cts_id_ = -1;
  int hh_rtsdata_id_ = -1;

  std::map<std::uint32_t, SendReq*> sreqs_;
  std::map<std::uint32_t, RecvReq*> rreqs_;
  std::map<std::uint32_t, std::unique_ptr<SReqState>> sstates_;

  // Sequence gating (per source task / per destination task).
  std::vector<std::uint32_t> send_seq_;
  std::vector<std::uint32_t> expected_;
  std::vector<std::map<std::uint32_t, EaEntry*>> parked_;
  std::vector<bool> drain_scheduled_;

  // Counters version: per-source inbound counter rings and outbound tokens.
  std::vector<std::vector<lapi::Cntr>> ring_in_;
  std::vector<lapi::Token> ring_out_;
  std::vector<std::uint32_t> slot_next_;

  std::uint32_t next_sreq_ = 1;
  std::uint32_t next_rreq_ = 1;
};

}  // namespace sp::mpci
