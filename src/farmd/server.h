// FarmdServer: the tmsim-farmd daemon core — one SimFarm behind a TCP
// listener, multiplexing N client connections onto the wire protocol
// (net/wire.h) with spill-to-disk admission overflow (farmd/spill.h).
//
// ## Thread model
//
//   - accept thread     — owns the Listener; spawns one reader per
//                         connection.
//   - per-conn reader   — parses frames, answers submit/cancel/fetch/
//                         introspect inline (all are short), flips the
//                         subscribe flag.
//   - per-client writer — drains the client's bounded outbox of
//                         terminal remote ids into Result frames on the
//                         client's *current* connection. One per client
//                         name (not per connection): the outbox — and
//                         therefore the result stream — survives
//                         disconnect/reconnect.
//   - result pump       — reads every farm completion once, in publish
//                         order, through its own ResultStore cursor
//                         (next_batch) and routes it to the owning
//                         client's outbox; a slow pump falls behind but
//                         loses nothing.
//   - spill refill      — readmits spilled records FIFO-per-class into
//                         the farm as admission capacity frees up.
//
// ## Identity and ordering
//
// Clients are identified by the durable name in their Hello — a second
// connection with the same name takes the session over (the old socket
// is shut down) and inherits the undelivered outbox. Jobs get a
// server-scoped `remote_id` (what clients see; results are rewritten to
// carry it) mapped to the farm's job id once admitted. A class whose
// spill segment is non-empty routes *all* new submissions of that class
// through the segment, so spilled work is never overtaken by later
// same-class submissions (the per-class FIFO the admission queue
// guarantees in RAM, extended to disk).
//
// ## Backpressure
//
// kQueueFull never reaches a remote client as a reject: the spec spills
// and the SubmitReply says accepted+spilled (with the farm's depth/
// capacity/retry-after hint attached as advisory load information).
// Every other farm reject (invalid spec, too large, stopped) passes
// through verbatim. The bounded per-client outbox drops *oldest* on
// overflow (counted in net.outbox.dropped); a dropped notification is
// recoverable through Fetch, because the farm's ResultStore keeps every
// result.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "farm/farm.h"
#include "farmd/spill.h"
#include "net/socket.h"
#include "net/wire.h"

namespace tmsim::farmd {

struct FarmdOptions {
  /// Listener port on 127.0.0.1 (0 = ephemeral; see FarmdServer::port).
  std::uint16_t port = 0;
  /// The farm the daemon fronts. `metrics` (when set) also receives the
  /// daemon's net.* counters; introspect() gains a "net" section.
  farm::FarmOptions farm;
  /// Directory for spill segment files (created if missing).
  std::string spill_dir = "farmd_spill";
  /// Per-client outbox bound (drop-oldest beyond it).
  std::size_t outbox_capacity = 4096;
};

class FarmdServer {
 public:
  explicit FarmdServer(FarmdOptions opt);
  /// Graceful drain: stop intake, readmit the whole spill backlog, wait
  /// for every accepted job's result, flush connected subscribers'
  /// outboxes, then close.
  ~FarmdServer();
  FarmdServer(const FarmdServer&) = delete;
  FarmdServer& operator=(const FarmdServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  farm::SimFarm& farm() { return farm_; }
  const SpillQueue& spill() const { return spill_; }

  /// The destructor's drain, callable early. Idempotent.
  void shutdown();

  /// The daemon's ingress snapshot (also installed as the farm's
  /// introspect "net" section): listener, per-client connection/outbox
  /// state, spill segment stats, lifetime counters.
  std::string ingress_json() const;

 private:
  struct ClientState;

  /// One live TCP connection. `client` is set by Hello; `dead` flips on
  /// any send/recv failure or takeover, after which the writer must not
  /// touch the socket.
  struct Conn {
    net::Socket sock;
    std::mutex send_mu;
    std::shared_ptr<ClientState> client;
    std::atomic<bool> dead{false};
    std::uint64_t ordinal = 0;
  };

  struct ClientState {
    std::string name;
    std::mutex mu;
    std::condition_variable cv;
    /// Terminal remote ids awaiting streaming, FIFO, bounded by
    /// outbox_capacity (drop-oldest, counted).
    std::deque<std::uint64_t> outbox;
    std::uint64_t outbox_dropped = 0;
    std::uint64_t results_streamed = 0;
    bool subscribed = false;  ///< reset on every new connection
    std::shared_ptr<Conn> active;
    std::thread writer;
  };

  /// Server-side record of one remote submission.
  struct RemoteJob {
    std::shared_ptr<ClientState> owner;
    farm::Priority cls = farm::Priority::kNormal;
    std::uint64_t farm_id = 0;  ///< 0 while spilled
    bool spilled = false;
    bool cancel_requested = false;
    bool terminal = false;
    /// The failed result the daemon gave a spill record the farm would
    /// not take (farm_id stays 0); see refuse_spilled().
    std::optional<farm::JobResult> refused;
  };

  void accept_main();
  void conn_main(std::shared_ptr<Conn> conn);
  void writer_main(std::shared_ptr<ClientState> client);
  void pump_main();
  void refill_main();

  /// Looks up (or creates, spawning its writer thread) the ClientState
  /// for a durable client name. Used by Hello and by the refill thread
  /// when a recovered spill record names a client with no state yet.
  std::shared_ptr<ClientState> client_for_name(const std::string& name,
                                               bool* resumed);
  /// Joins reader threads whose conn_main already returned (they park
  /// their ids in finished_conn_ids_ on the way out), so a long-running
  /// daemon does not accumulate one unjoined thread per connection.
  void reap_finished_readers();

  bool handle_hello(Conn& conn, const net::Frame& frame);
  void handle_submit(Conn& conn, const net::Frame& frame);
  void handle_cancel(Conn& conn, const net::Frame& frame);
  void handle_fetch(Conn& conn, const net::Frame& frame);
  void handle_subscribe(Conn& conn, const net::Frame& frame);
  void handle_introspect(Conn& conn, const net::Frame& frame);
  void send_error(Conn& conn, std::uint64_t req_id, net::WireErrorCode code,
                  const std::string& detail);
  void send_frame(Conn& conn, net::FrameType type,
                  const std::vector<std::uint8_t>& payload);

  /// Routes one farm completion into its owner's outbox (exactly once).
  void route_farm_result(std::uint64_t farm_id);
  void push_outbox(const std::shared_ptr<ClientState>& client,
                   std::uint64_t remote_id);
  /// Readmits one spill record into the farm (retrying on kQueueFull
  /// until admitted or hard-stopped).
  void readmit(const SpillRecord& rec, farm::Priority cls);
  /// Ends a spill record the farm will never run (its spec no longer
  /// decodes or admits) with a failed result routed to its owner, so the
  /// client still gets exactly one terminal result.
  void refuse_spilled(const SpillRecord& rec, const std::string& why);
  void bump(const char* counter, std::uint64_t n = 1);

  FarmdOptions opt_;
  farm::SimFarm farm_;
  SpillQueue spill_;
  net::Listener listener_;

  // Remote-job table. One mutex: every touch is a handful of map ops.
  mutable std::mutex jobs_mu_;
  std::unordered_map<std::uint64_t, RemoteJob> jobs_;
  std::unordered_map<std::uint64_t, std::uint64_t> farm_to_remote_;
  /// Farm ids whose completion arrived before the submit path published
  /// the mapping (the admit/complete race) — resolved at mapping insert.
  std::unordered_set<std::uint64_t> unrouted_farm_;
  std::atomic<std::uint64_t> next_remote_{1};

  mutable std::mutex clients_mu_;
  std::map<std::string, std::shared_ptr<ClientState>> clients_;
  std::uint64_t next_ordinal_ = 1;

  /// Per-class flag: the refill thread holds a taken-but-unadmitted
  /// record of this class, so same-class submissions must keep routing
  /// through the spill segment to preserve FIFO.
  std::atomic<bool> refill_holding_[farm::kNumPriorities] = {};

  // Lifetime counters (leaf mutex; also mirrored to farm metrics).
  mutable std::mutex net_mu_;
  std::uint64_t conns_accepted_ = 0;
  std::uint64_t conns_closed_ = 0;
  std::uint64_t submits_accepted_ = 0;
  std::uint64_t submits_spilled_ = 0;
  std::uint64_t submits_rejected_ = 0;
  std::uint64_t results_streamed_ = 0;
  std::uint64_t wire_errors_ = 0;

  /// Submit handlers currently between their stopping_ check and their
  /// reply (seq_cst-paired with shutdown()'s stopping_ store, so the
  /// drain can wait out any submit that might still spill a record).
  std::atomic<std::uint64_t> submits_inflight_{0};

  std::atomic<bool> stopping_{false};
  std::atomic<bool> refill_stop_{false};
  std::atomic<bool> pump_stop_{false};
  std::atomic<bool> writers_stop_{false};
  std::atomic<bool> shut_down_{false};

  std::thread accept_thread_;
  std::thread pump_thread_;
  std::thread refill_thread_;
  std::mutex conns_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::shared_ptr<Conn>> conns_;
  /// Thread ids of readers that finished (guarded by conns_mu_); the
  /// accept loop joins and drops them via reap_finished_readers().
  std::vector<std::thread::id> finished_conn_ids_;
};

}  // namespace tmsim::farmd
