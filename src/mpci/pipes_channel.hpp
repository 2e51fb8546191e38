// The native MPCI: point-to-point messaging over the Pipes byte stream
// (Fig. 1a). Messages are framed as [Envelope][payload] on the ordered
// stream; the eager/rendezvous protocols live here, over the matching engine
// in Channel.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "mpci/channel.hpp"
#include "mpci/envelope.hpp"
#include "pipes/pipes.hpp"

namespace sp::mpci {

class PipesChannel : public Channel {
 public:
  PipesChannel(sim::NodeRuntime& node, pipes::Pipes& pipes, int my_task, int num_tasks);

  void start_send(SendReq& req) override;
  void post_recv(RecvReq& req) override;
  void progress(SendReq& req) override;

 private:
  /// Per-source stream parser state.
  struct Parser {
    bool in_payload = false;
    std::size_t remaining = 0;
    std::byte* sink = nullptr;
    std::function<void()> on_complete;
  };

  void on_data(int src);
  void dispatch_envelope(int src, const Envelope& env, Parser& p);
  /// Stream a matched message's payload straight into the receive buffer.
  void receive_direct(int src, const Envelope& env, RecvReq& r, Parser& p);
  /// Stream a payload into EA entry `e`; delivers it on arrival if bound.
  void receive_into_ea(EaEntry& e, Parser& p);
  /// Clear the sender of RTS `rts` to send its data into `r` (Fig. 9).
  void send_cts(int dst_task, const Envelope& rts, RecvReq& r);
  void send_data_phase(SendReq& req, std::uint32_t rreq);
  /// Serve a NACKed eager's retained copy as rendezvous data (EA failover).
  void serve_nacked(int dst_task, std::uint32_t sreq, std::uint32_t rreq);
  void maybe_complete_send(SendReq& req);
  void send_control_env(int dst_task, const Envelope& env) override;

  pipes::Pipes& pipes_;
  int my_task_;

  std::map<std::uint32_t, SendReq*> sreqs_;
  std::map<std::uint32_t, RecvReq*> rreqs_;
  std::vector<Parser> parsers_;
  std::vector<std::uint32_t> send_seq_;
  std::uint32_t next_sreq_ = 1;
  std::uint32_t next_rreq_ = 1;
};

}  // namespace sp::mpci
