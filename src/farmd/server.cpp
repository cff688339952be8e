#include "farmd/server.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"

namespace tmsim::farmd {

using namespace std::chrono_literals;

/// Most farm completions the result pump routes per next_batch call.
constexpr std::size_t kPumpBatch = 256;

FarmdServer::FarmdServer(FarmdOptions opt)
    : opt_(std::move(opt)),
      farm_(opt_.farm),
      spill_(opt_.spill_dir),
      listener_(opt_.port) {
  // Recovered spill records keep the remote ids the previous daemon
  // run assigned; fresh ids must start above them, or a new submission
  // could collide with a recovered job and readmit() would rewire that
  // job's result routing to the wrong client.
  next_remote_.store(spill_.max_recovered_remote_id() + 1,
                     std::memory_order_relaxed);
  farm_.set_ingress_provider([this] { return ingress_json(); });
  pump_thread_ = std::thread([this] { pump_main(); });
  refill_thread_ = std::thread([this] { refill_main(); });
  accept_thread_ = std::thread([this] { accept_main(); });
}

FarmdServer::~FarmdServer() { shutdown(); }

void FarmdServer::bump(const char* counter, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(net_mu_);
  if (opt_.farm.metrics != nullptr) {
    opt_.farm.metrics->counter(counter).add(n);
  }
}

// --- accept / connection lifecycle -----------------------------------------

void FarmdServer::reap_finished_readers() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (finished_conn_ids_.empty()) {
      return;
    }
    for (auto it = conn_threads_.begin(); it != conn_threads_.end();) {
      const auto fit = std::find(finished_conn_ids_.begin(),
                                 finished_conn_ids_.end(), it->get_id());
      if (fit != finished_conn_ids_.end()) {
        finished_conn_ids_.erase(fit);
        done.push_back(std::move(*it));
        it = conn_threads_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside conns_mu_: the exiting reader parks its id as its very
  // last action, so these joins only wait for a function return.
  for (std::thread& t : done) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void FarmdServer::accept_main() {
  for (;;) {
    std::optional<net::Socket> sock = listener_.accept_next();
    reap_finished_readers();
    if (!sock.has_value()) {
      return;  // listener shut down
    }
    if (stopping_.load(std::memory_order_acquire)) {
      return;  // stop racing accepts during shutdown
    }
    auto conn = std::make_shared<Conn>();
    conn->sock = std::move(*sock);
    {
      std::lock_guard<std::mutex> lock(net_mu_);
      ++conns_accepted_;
    }
    bump("net.connections.accepted");
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    conn_threads_.emplace_back([this, conn] { conn_main(conn); });
  }
}

std::shared_ptr<FarmdServer::ClientState> FarmdServer::client_for_name(
    const std::string& name, bool* resumed) {
  std::lock_guard<std::mutex> lock(clients_mu_);
  auto it = clients_.find(name);
  if (it != clients_.end()) {
    if (resumed != nullptr) {
      *resumed = true;
    }
    return it->second;
  }
  auto client = std::make_shared<ClientState>();
  client->name = name;
  clients_.emplace(name, client);
  client->writer = std::thread([this, client] { writer_main(client); });
  if (resumed != nullptr) {
    *resumed = false;
  }
  return client;
}

bool FarmdServer::handle_hello(Conn& conn, const net::Frame& frame) {
  const net::HelloMsg hello = net::HelloMsg::decode(frame.payload);
  TMSIM_CHECK_MSG(!hello.client_name.empty(), "client name must not be empty");
  if (stopping_.load(std::memory_order_acquire)) {
    // Draining: a session created now could slip past shutdown()'s
    // writer-join passes and leak an unjoinable thread. Refuse with a
    // Goodbye (the client's handshake throws); the re-join pass after
    // readers are joined covers the narrow race where stopping_ flips
    // right after this check.
    net::GoodbyeMsg bye;
    bye.reason = "server draining";
    send_frame(conn, net::FrameType::kGoodbye, bye.encode());
    return false;
  }
  bool resumed = false;
  std::shared_ptr<ClientState> client =
      client_for_name(hello.client_name, &resumed);
  std::uint64_t ordinal = 0;
  std::shared_ptr<Conn> displaced;
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    ordinal = next_ordinal_++;
  }
  // Takeover: the name is the session. A new connection for an active
  // name displaces the old one (its reader sees the shutdown as EOF);
  // the outbox — undelivered results included — carries over.
  {
    std::lock_guard<std::mutex> lock(client->mu);
    displaced = client->active;
    // `conn` is owned by conn_main's shared_ptr; find it in conns_ is
    // unnecessary — the caller passes the same object.
    client->active = nullptr;  // set below once the ack went out
    client->subscribed = false;
  }
  if (displaced) {
    displaced->dead.store(true, std::memory_order_release);
    displaced->sock.shutdown_both();
  }
  conn.client = client;
  conn.ordinal = ordinal;
  net::HelloAckMsg ack;
  ack.session_ordinal = ordinal;
  ack.resumed = resumed ? 1 : 0;
  send_frame(conn, net::FrameType::kHelloAck, ack.encode());
  return true;
}

void FarmdServer::conn_main(std::shared_ptr<Conn> conn) {
  try {
    // First frame must be Hello.
    std::optional<net::Frame> first = conn->sock.recv_frame();
    if (first.has_value()) {
      if (first->type != net::FrameType::kHello) {
        send_error(*conn, 0, net::WireErrorCode::kProtocol,
                   "expected hello, got " +
                       std::string(net::frame_type_name(first->type)));
      } else if (handle_hello(*conn, *first)) {
        // Publish the connection as the client's active one only after
        // the ack — the writer never races the handshake.
        {
          std::lock_guard<std::mutex> lock(conn->client->mu);
          conn->client->active = conn;
        }
        conn->client->cv.notify_all();
        for (;;) {
          std::optional<net::Frame> frame = conn->sock.recv_frame();
          if (!frame.has_value()) {
            break;  // clean EOF
          }
          bool goodbye = false;
          try {
            switch (frame->type) {
              case net::FrameType::kSubmit:
                handle_submit(*conn, *frame);
                break;
              case net::FrameType::kCancel:
                handle_cancel(*conn, *frame);
                break;
              case net::FrameType::kFetch:
                handle_fetch(*conn, *frame);
                break;
              case net::FrameType::kSubscribe:
                handle_subscribe(*conn, *frame);
                break;
              case net::FrameType::kIntrospect:
                handle_introspect(*conn, *frame);
                break;
              case net::FrameType::kGoodbye:
                goodbye = true;
                break;
              default:
                send_error(*conn, 0, net::WireErrorCode::kUnknownType,
                           std::string("server does not accept ") +
                               net::frame_type_name(frame->type));
                break;
            }
          } catch (const std::exception& e) {
            // A known frame type whose payload failed to decode: tell
            // the client and keep the connection — the framing layer
            // (CRC) already proved the bytes arrived as sent, so this
            // is a client bug, not line noise.
            {
              std::lock_guard<std::mutex> lock(net_mu_);
              ++wire_errors_;
            }
            // The error send happens outside net_mu_: a client that
            // stops reading (full send buffer) while triggering decode
            // errors must block only its own connection, not every
            // submit counter and introspection snapshot in the daemon.
            try {
              net::ErrorMsg err;
              err.code =
                  static_cast<std::uint8_t>(net::WireErrorCode::kMalformedFrame);
              err.detail = e.what();
              std::lock_guard<std::mutex> slock(conn->send_mu);
              conn->sock.send_frame(net::FrameType::kError, err.encode());
            } catch (const std::exception&) {
              break;
            }
          }
          if (goodbye) {
            break;
          }
        }
      }
    }
  } catch (const std::exception&) {
    // recv/send failure or a torn/corrupt frame: drop the connection.
    std::lock_guard<std::mutex> lock(net_mu_);
    ++wire_errors_;
  }
  conn->dead.store(true, std::memory_order_release);
  if (conn->client) {
    std::shared_ptr<ClientState> client = conn->client;
    {
      std::lock_guard<std::mutex> lock(client->mu);
      if (client->active == conn) {
        client->active = nullptr;
        client->subscribed = false;
      }
    }
    client->cv.notify_all();
  }
  // Wake the peer's recv, but do NOT close here: a writer, a takeover,
  // or shutdown() may still hold this Conn and call shutdown_both() on
  // it — the fd must stay reserved until the last reference drops (a
  // closed fd number can be recycled by the kernel immediately).
  // Removing the conn from conns_ makes the Socket destructor, at last
  // shared_ptr release, the single closer.
  conn->sock.shutdown_both();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
  }
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    ++conns_closed_;
  }
  bump("net.connections.closed");
  // Park this thread's id for the accept loop to reap — without this a
  // long-running daemon accumulates one exited-but-unjoined thread per
  // connection ever accepted. Must be the very last action: the reaper
  // may join this thread the moment the id is visible.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    finished_conn_ids_.push_back(std::this_thread::get_id());
  }
}

void FarmdServer::send_frame(Conn& conn,
                             net::FrameType type,
                             const std::vector<std::uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(conn.send_mu);
  conn.sock.send_frame(type, payload);
}

void FarmdServer::send_error(Conn& conn, std::uint64_t req_id,
                             net::WireErrorCode code,
                             const std::string& detail) {
  net::ErrorMsg err;
  err.req_id = req_id;
  err.code = static_cast<std::uint8_t>(code);
  err.detail = detail;
  send_frame(conn, net::FrameType::kError, err.encode());
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    ++wire_errors_;
  }
}

// --- request handlers ------------------------------------------------------

void FarmdServer::handle_submit(Conn& conn, const net::Frame& frame) {
  // In-flight accounting pairs with shutdown(): the increment is
  // seq_cst-ordered before the stopping_ load, and shutdown() stores
  // stopping_ before waiting for the count to drain — so every submit
  // either sees stopping_ and refuses, or finishes (spill append
  // included) before shutdown checks spill emptiness. Without this, a
  // submit racing shutdown could append a record *after* the drain
  // check and be answered accepted=1 yet never run.
  submits_inflight_.fetch_add(1, std::memory_order_seq_cst);
  struct InflightGuard {
    std::atomic<std::uint64_t>& count;
    ~InflightGuard() { count.fetch_sub(1, std::memory_order_seq_cst); }
  } inflight{submits_inflight_};
  const net::SubmitMsg m = net::SubmitMsg::decode(frame.payload);
  net::SubmitReplyMsg reply;
  reply.req_id = m.req_id;
  if (stopping_.load(std::memory_order_seq_cst)) {
    reply.accepted = 0;
    reply.reason = static_cast<std::uint8_t>(farm::RejectReason::kStopped);
    reply.detail = "server draining";
    send_frame(conn, net::FrameType::kSubmitReply, reply.encode());
    bump("net.submits.rejected");
    {
      std::lock_guard<std::mutex> lock(net_mu_);
      ++submits_rejected_;
    }
    return;
  }
  farm::JobSpec spec;
  try {
    spec = farm::JobSpec::deserialize(m.spec_text);
    spec.validate();
  } catch (const std::exception& e) {
    reply.accepted = 0;
    reply.reason =
        static_cast<std::uint8_t>(farm::RejectReason::kInvalidSpec);
    reply.detail = e.what();
    send_frame(conn, net::FrameType::kSubmitReply, reply.encode());
    bump("net.submits.rejected");
    {
      std::lock_guard<std::mutex> lock(net_mu_);
      ++submits_rejected_;
    }
    return;
  }
  if (spec.cycles > farm_.options().max_job_cycles) {
    // Checked here (not only farm-side) because the spill path must
    // never durably accept a spec the farm will later refuse.
    reply.accepted = 0;
    reply.reason = static_cast<std::uint8_t>(farm::RejectReason::kTooLarge);
    reply.detail = "cycle budget exceeds the farm ceiling";
    send_frame(conn, net::FrameType::kSubmitReply, reply.encode());
    bump("net.submits.rejected");
    {
      std::lock_guard<std::mutex> lock(net_mu_);
      ++submits_rejected_;
    }
    return;
  }

  const farm::Priority cls = spec.priority;
  const auto cls_idx = static_cast<std::size_t>(cls);
  const std::uint64_t remote_id =
      next_remote_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceContext remote_ctx;
  remote_ctx.trace_id = m.client_trace_id;
  remote_ctx.span_id = m.client_span_id;

  // FIFO-per-class across RAM and disk: while this class has spilled
  // records (or the refill thread holds one mid-readmit), new work of
  // the class must queue *behind* them in the segment. The pending
  // check is ordered after any refill take by the segment mutex, and
  // refill_holding_ is raised before the take — so the window where
  // both read false is exactly when the class truly has nothing ahead.
  bool to_spill =
      spill_.pending(cls) > 0 ||
      refill_holding_[cls_idx].load(std::memory_order_seq_cst);
  farm::SubmitOutcome out;
  if (!to_spill) {
    out = farm_.submit(spec,
                       m.client_trace_id != 0 ? &remote_ctx : nullptr);
    if (out.accepted) {
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        RemoteJob job;
        job.owner = conn.client;
        job.cls = cls;
        job.farm_id = out.job_id;
        jobs_.emplace(remote_id, job);
        farm_to_remote_.emplace(out.job_id, remote_id);
      }
      // The job may already have completed (and been seen by the pump)
      // before the mapping existed; resolve the race now.
      bool was_unrouted = false;
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        was_unrouted = unrouted_farm_.erase(out.job_id) > 0;
      }
      if (was_unrouted) {
        route_farm_result(out.job_id);
      }
      reply.accepted = 1;
      reply.remote_id = remote_id;
      reply.queue_depth = out.queue_depth;
      reply.queue_capacity = out.queue_capacity;
      reply.server_trace_id = out.trace.trace_id;
      send_frame(conn, net::FrameType::kSubmitReply, reply.encode());
      bump("net.submits.accepted");
      {
        std::lock_guard<std::mutex> lock(net_mu_);
        ++submits_accepted_;
      }
      return;
    }
    if (out.reason != farm::RejectReason::kQueueFull) {
      reply.accepted = 0;
      reply.reason = static_cast<std::uint8_t>(out.reason);
      reply.detail = out.detail;
      reply.queue_depth = out.queue_depth;
      reply.queue_capacity = out.queue_capacity;
      send_frame(conn, net::FrameType::kSubmitReply, reply.encode());
      bump("net.submits.rejected");
      {
        std::lock_guard<std::mutex> lock(net_mu_);
        ++submits_rejected_;
      }
      return;
    }
    to_spill = true;  // kQueueFull: overflow to disk, never reject
  }

  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    RemoteJob job;
    job.owner = conn.client;
    job.cls = cls;
    job.spilled = true;
    jobs_.emplace(remote_id, job);
  }
  SpillRecord rec;
  rec.remote_id = remote_id;
  rec.client = conn.client->name;
  rec.trace_id = m.client_trace_id;
  rec.span_id = m.client_span_id;
  rec.spec_text = m.spec_text;
  spill_.append(cls, rec);
  reply.accepted = 1;
  reply.spilled = 1;
  reply.remote_id = remote_id;
  // Advisory load info for well-behaved clients (admission is already
  // guaranteed; this only says "expect latency").
  reply.queue_depth = out.queue_depth;
  reply.queue_capacity = out.queue_capacity;
  reply.retry_after_us = out.retry_after_us;
  send_frame(conn, net::FrameType::kSubmitReply, reply.encode());
  bump("net.submits.spilled");
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    ++submits_spilled_;
  }
}

void FarmdServer::handle_cancel(Conn& conn, const net::Frame& frame) {
  const net::CancelMsg m = net::CancelMsg::decode(frame.payload);
  net::CancelReplyMsg reply;
  reply.req_id = m.req_id;
  std::uint64_t farm_id = 0;
  bool known = false;
  bool refused = false;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(m.remote_id);
    if (it != jobs_.end() && it->second.owner == conn.client) {
      known = true;
      if (it->second.farm_id != 0) {
        farm_id = it->second.farm_id;
      } else if (it->second.refused.has_value()) {
        refused = true;
      } else {
        // Still spilled: remember the intent; the refill thread cancels
        // the job the moment it is admitted, so exactly-one-result
        // holds (the farm publishes the kCancelled result).
        it->second.cancel_requested = true;
      }
    }
  }
  if (!known) {
    reply.outcome =
        static_cast<std::uint8_t>(farm::CancelResult::kUnknownJob);
  } else if (farm_id != 0) {
    reply.outcome = static_cast<std::uint8_t>(farm_.cancel(farm_id));
  } else if (refused) {
    reply.outcome =
        static_cast<std::uint8_t>(farm::CancelResult::kAlreadyFinished);
  } else {
    reply.outcome =
        static_cast<std::uint8_t>(farm::CancelResult::kRequested);
  }
  send_frame(conn, net::FrameType::kCancelReply, reply.encode());
}

void FarmdServer::handle_fetch(Conn& conn, const net::Frame& frame) {
  const net::FetchMsg m = net::FetchMsg::decode(frame.payload);
  net::FetchReplyMsg reply;
  reply.req_id = m.req_id;
  std::uint64_t farm_id = 0;
  bool known = false;
  bool spilled = false;
  std::optional<farm::JobResult> refused;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(m.remote_id);
    if (it != jobs_.end() && it->second.owner == conn.client) {
      known = true;
      farm_id = it->second.farm_id;
      spilled = it->second.farm_id == 0 && it->second.spilled;
      refused = it->second.refused;
    }
  }
  if (!known) {
    reply.state = static_cast<std::uint8_t>(net::RemoteJobState::kUnknown);
  } else if (refused.has_value()) {
    reply.state = static_cast<std::uint8_t>(net::RemoteJobState::kTerminal);
    reply.result = std::move(refused);
  } else if (spilled) {
    reply.state = static_cast<std::uint8_t>(net::RemoteJobState::kSpilled);
  } else {
    std::optional<farm::JobResult> res = farm_.results().get(farm_id);
    if (res.has_value()) {
      res->job_id = m.remote_id;  // clients think in remote ids
      reply.state =
          static_cast<std::uint8_t>(net::RemoteJobState::kTerminal);
      reply.result = std::move(res);
    } else {
      reply.state = static_cast<std::uint8_t>(net::RemoteJobState::kQueued);
    }
  }
  send_frame(conn, net::FrameType::kFetchReply, reply.encode());
}

void FarmdServer::handle_subscribe(Conn& conn, const net::Frame& frame) {
  net::SubscribeMsg::decode(frame.payload);  // validates shape
  std::shared_ptr<ClientState> client = conn.client;
  {
    std::lock_guard<std::mutex> lock(client->mu);
    client->subscribed = true;
  }
  client->cv.notify_all();
}

void FarmdServer::handle_introspect(Conn& conn, const net::Frame& frame) {
  const net::IntrospectMsg m = net::IntrospectMsg::decode(frame.payload);
  net::IntrospectReplyMsg reply;
  reply.req_id = m.req_id;
  reply.json = farm_.introspect();
  send_frame(conn, net::FrameType::kIntrospectReply, reply.encode());
}

// --- result routing --------------------------------------------------------

void FarmdServer::push_outbox(const std::shared_ptr<ClientState>& client,
                              std::uint64_t remote_id) {
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(client->mu);
    if (client->outbox.size() >= opt_.outbox_capacity) {
      client->outbox.pop_front();  // drop-oldest; recoverable via fetch
      ++client->outbox_dropped;
      dropped = true;
    }
    client->outbox.push_back(remote_id);
  }
  client->cv.notify_all();
  if (dropped) {
    bump("net.outbox.dropped");
  }
}

void FarmdServer::route_farm_result(std::uint64_t farm_id) {
  std::shared_ptr<ClientState> owner;
  std::uint64_t remote_id = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto mapped = farm_to_remote_.find(farm_id);
    if (mapped == farm_to_remote_.end()) {
      // Completion raced the submit path's mapping insert; the submit
      // path checks this set right after inserting.
      unrouted_farm_.insert(farm_id);
      return;
    }
    remote_id = mapped->second;
    auto it = jobs_.find(remote_id);
    if (it == jobs_.end() || it->second.terminal) {
      return;  // already routed
    }
    it->second.terminal = true;
    owner = it->second.owner;
  }
  push_outbox(owner, remote_id);
}

void FarmdServer::pump_main() {
  farm::ResultStore::Cursor cursor;
  while (!pump_stop_.load(std::memory_order_acquire)) {
    for (const std::uint64_t id :
         farm_.results().next_batch(cursor, kPumpBatch, 100ms)) {
      route_farm_result(id);
    }
  }
  // Final pass: everything published by the time the pump was asked to
  // stop (shutdown drains the farm first) gets routed.
  for (const std::uint64_t id : farm_.results().next_batch(cursor, 0, 0ms)) {
    route_farm_result(id);
  }
}

// --- spill refill ----------------------------------------------------------

void FarmdServer::readmit(const SpillRecord& rec, farm::Priority cls) {
  // A record recovered from a previous daemon run has no jobs_ entry —
  // the table died with the process. Rebuild the routing state from the
  // record itself: resolve (or create) the owning client from the
  // stored name, so the result reaches a client that reconnects under
  // it exactly like a live submission's would. Live submissions always
  // have an entry (handle_submit creates it before the append), so this
  // only fires for recovered work.
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    known = jobs_.find(rec.remote_id) != jobs_.end();
  }
  if (!known) {
    std::shared_ptr<ClientState> owner = client_for_name(rec.client, nullptr);
    std::lock_guard<std::mutex> lock(jobs_mu_);
    RemoteJob job;
    job.owner = std::move(owner);
    job.cls = cls;
    job.spilled = true;
    jobs_.emplace(rec.remote_id, job);
  }
  // The spec was validated before it was spilled, but perhaps by an
  // older daemon whose format or admission rules this one no longer
  // shares; such a record fails instead of taking the daemon down.
  farm::JobSpec spec;
  try {
    spec = farm::JobSpec::deserialize(rec.spec_text);
  } catch (const std::exception& e) {
    refuse_spilled(rec, e.what());
    return;
  }
  obs::TraceContext remote_ctx;
  remote_ctx.trace_id = rec.trace_id;
  remote_ctx.span_id = rec.span_id;
  for (;;) {
    const farm::SubmitOutcome out =
        farm_.submit(spec, rec.trace_id != 0 ? &remote_ctx : nullptr);
    if (out.accepted) {
      bool cancel_now = false;
      bool was_unrouted = false;
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        auto it = jobs_.find(rec.remote_id);
        if (it != jobs_.end()) {
          it->second.farm_id = out.job_id;
          it->second.spilled = false;
          cancel_now = it->second.cancel_requested;
        }
        farm_to_remote_.emplace(out.job_id, rec.remote_id);
        was_unrouted = unrouted_farm_.erase(out.job_id) > 0;
      }
      if (cancel_now) {
        // Cancel arrived while the job sat on disk: flip the token the
        // moment the farm knows the job, so it resolves kCancelled
        // without burning simulation cycles.
        farm_.cancel(out.job_id);
      }
      if (was_unrouted) {
        route_farm_result(out.job_id);
      }
      bump("net.spill.readmitted");
      return;
    }
    if (out.reason == farm::RejectReason::kQueueFull) {
      std::this_thread::sleep_for(200us);
      continue;
    }
    if (out.reason == farm::RejectReason::kStopped) {
      // Hard shutdown before the backlog drained: the record stays
      // accounted as a known remote job; synthesize nothing — the
      // graceful path drains the spill before stopping the farm, so
      // this only happens when the process is going down anyway.
      return;
    }
    // kInvalidSpec or kTooLarge: admitted under an older daemon's rules
    // or a higher cycle ceiling, never runnable here.
    refuse_spilled(rec, out.detail);
    return;
  }
}

void FarmdServer::refuse_spilled(const SpillRecord& rec,
                                 const std::string& why) {
  farm::JobResult res;
  res.job_id = rec.remote_id;
  res.status = farm::JobStatus::kFailed;
  res.error = why;
  res.failure.kind = farm::FailureKind::kEngineError;
  res.failure.message = why;
  res.failure.replay = rec.spec_text;
  std::shared_ptr<ClientState> owner;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(rec.remote_id);
    if (it == jobs_.end() || it->second.terminal) {
      return;
    }
    it->second.spilled = false;
    it->second.terminal = true;
    it->second.refused = std::move(res);
    owner = it->second.owner;
  }
  push_outbox(owner, rec.remote_id);
  bump("net.spill.refused");
}

void FarmdServer::refill_main() {
  while (!refill_stop_.load(std::memory_order_acquire)) {
    bool any = false;
    for (std::size_t c = 0; c < farm::kNumPriorities; ++c) {
      const auto cls = static_cast<farm::Priority>(c);
      if (spill_.pending(cls) == 0) {
        continue;
      }
      any = true;
      // Raise the holding flag *before* the take: submitters order
      // their pending-check after our take (segment mutex), so they
      // can never observe pending==0 && holding==false while this
      // record is in flight.
      refill_holding_[c].store(true, std::memory_order_seq_cst);
      std::optional<SpillRecord> rec = spill_.take(cls);
      if (rec.has_value()) {
        readmit(*rec, cls);
      }
      refill_holding_[c].store(false, std::memory_order_seq_cst);
      break;  // re-check from the highest class: strict priority
    }
    if (!any) {
      spill_.wait_pending(50ms);
    }
  }
}

// --- introspection ---------------------------------------------------------

std::string FarmdServer::ingress_json() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"listening_port\": " << listener_.port();
  std::vector<std::shared_ptr<ClientState>> clients;
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    for (const auto& [name, c] : clients_) {
      clients.push_back(c);
    }
  }
  std::size_t connected = 0;
  os << ", \"clients\": [";
  for (std::size_t i = 0; i < clients.size(); ++i) {
    ClientState& c = *clients[i];
    std::lock_guard<std::mutex> lock(c.mu);
    const bool live = c.active != nullptr;
    connected += live ? 1 : 0;
    os << (i > 0 ? ", " : "") << "{\"name\": \"" << obs::json_escape(c.name)
       << "\", \"connected\": " << (live ? "true" : "false")
       << ", \"subscribed\": " << (c.subscribed ? "true" : "false")
       << ", \"outbox_depth\": " << c.outbox.size()
       << ", \"outbox_dropped\": " << c.outbox_dropped
       << ", \"results_streamed\": " << c.results_streamed << "}";
  }
  os << "], \"connections\": " << connected;
  const SpillQueue::Stats sp = spill_.stats();
  os << ", \"spill\": {\"pending\": " << sp.pending
     << ", \"bytes\": " << sp.bytes << ", \"segments\": " << sp.segments
     << ", \"appended\": " << sp.appended
     << ", \"readmitted\": " << sp.readmitted << "}";
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    os << ", \"counters\": {\"conns_accepted\": " << conns_accepted_
       << ", \"conns_closed\": " << conns_closed_
       << ", \"submits_accepted\": " << submits_accepted_
       << ", \"submits_spilled\": " << submits_spilled_
       << ", \"submits_rejected\": " << submits_rejected_
       << ", \"results_streamed\": " << results_streamed_
       << ", \"wire_errors\": " << wire_errors_ << "}";
  }
  os << "}";
  return os.str();
}

// --- streaming writer ------------------------------------------------------

void FarmdServer::writer_main(std::shared_ptr<ClientState> client) {
  for (;;) {
    std::uint64_t remote_id = 0;
    std::shared_ptr<Conn> conn;
    {
      std::unique_lock<std::mutex> lock(client->mu);
      client->cv.wait(lock, [&] {
        const bool deliverable = !client->outbox.empty() &&
                                 client->subscribed &&
                                 client->active != nullptr &&
                                 !client->active->dead.load(
                                     std::memory_order_acquire);
        return deliverable ||
               writers_stop_.load(std::memory_order_acquire);
      });
      const bool deliverable =
          !client->outbox.empty() && client->subscribed &&
          client->active != nullptr &&
          !client->active->dead.load(std::memory_order_acquire);
      if (!deliverable) {
        if (writers_stop_.load(std::memory_order_acquire)) {
          return;  // nothing deliverable will appear anymore
        }
        continue;
      }
      remote_id = client->outbox.front();
      client->outbox.pop_front();
      conn = client->active;
    }
    // Build the Result frame outside the client lock (the result fetch
    // takes the result-store lock, the encode is pure CPU).
    std::uint64_t farm_id = 0;
    std::optional<farm::JobResult> res;
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      auto it = jobs_.find(remote_id);
      if (it != jobs_.end()) {
        farm_id = it->second.farm_id;
        res = it->second.refused;
      }
    }
    if (farm_id != 0) {
      res = farm_.results().get(farm_id);
    }
    if (!res.has_value()) {
      continue;  // routed id without a stored result: nothing to send
    }
    net::ResultMsg msg;
    msg.remote_id = remote_id;
    msg.result = std::move(*res);
    msg.result.job_id = remote_id;  // remote ids are the client's view
    try {
      std::lock_guard<std::mutex> lock(conn->send_mu);
      conn->sock.send_frame(net::FrameType::kResult, msg.encode());
    } catch (const std::exception&) {
      // The connection died mid-stream: the result goes back to the
      // *front* of the outbox (stream order is preserved for the
      // reconnected session) and the reader's cleanup handles state.
      conn->dead.store(true, std::memory_order_release);
      conn->sock.shutdown_both();
      std::lock_guard<std::mutex> lock(client->mu);
      client->outbox.push_front(remote_id);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(client->mu);
      ++client->results_streamed;
    }
    {
      std::lock_guard<std::mutex> lock(net_mu_);
      ++results_streamed_;
    }
    bump("net.results.streamed");
  }
}

// --- shutdown --------------------------------------------------------------

void FarmdServer::shutdown() {
  if (shut_down_.exchange(true)) {
    return;
  }
  stopping_.store(true, std::memory_order_seq_cst);
  // 1. No new connections, sessions, or submits (Hellos and Submits
  //    that arrive from here on are refused — Goodbye and kStopped
  //    respectively; cancel/fetch/introspect keep working until the
  //    connections close at the end).
  listener_.shutdown();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // 2. Wait out submits already past their stopping_ check — they may
  //    still append spill records, and a record that lands after the
  //    emptiness check below would be answered accepted=1 yet never
  //    readmitted this run. Bounded: a client that wedges a reply send
  //    can stall its handler, and then the record is simply left on
  //    disk for restart recovery (which rebuilds its routing state).
  const auto submit_deadline = std::chrono::steady_clock::now() + 5s;
  while (submits_inflight_.load(std::memory_order_seq_cst) != 0 &&
         std::chrono::steady_clock::now() < submit_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  //    Drain the spill backlog through the refill thread: every
  //    accepted-and-spilled spec gets admitted before the farm stops.
  for (;;) {
    bool holding = false;
    for (const auto& h : refill_holding_) {
      holding |= h.load(std::memory_order_acquire);
    }
    if (spill_.empty() && !holding) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  refill_stop_.store(true, std::memory_order_release);
  spill_.stop();
  if (refill_thread_.joinable()) {
    refill_thread_.join();
  }
  // 3. Every admitted job resolves (the farm's drain contract), then
  //    the pump routes the last completions on its way out.
  farm_.drain();
  pump_stop_.store(true, std::memory_order_release);
  if (pump_thread_.joinable()) {
    pump_thread_.join();
  }
  // 4. Give connected subscribers a bounded window to take delivery of
  //    what their outboxes still hold.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    bool undelivered = false;
    {
      std::lock_guard<std::mutex> lock(clients_mu_);
      for (const auto& [name, c] : clients_) {
        std::lock_guard<std::mutex> clock(c->mu);
        if (!c->outbox.empty() && c->subscribed && c->active != nullptr &&
            !c->active->dead.load(std::memory_order_acquire)) {
          undelivered = true;
          break;
        }
      }
    }
    if (!undelivered || std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  writers_stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    for (const auto& [name, c] : clients_) {
      c->cv.notify_all();
    }
  }
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    for (const auto& [name, c] : clients_) {
      if (c->writer.joinable()) {
        c->writer.join();
      }
    }
  }
  // 5. Orderly goodbyes, then close every connection and join readers.
  // Snapshot under the lock, act outside it: an exiting reader removes
  // itself from conns_ under conns_mu_, so joining while holding the
  // mutex would deadlock. The shared_ptr copies keep every Conn (and
  // its fd) alive across the shutdown_both calls.
  std::vector<std::shared_ptr<Conn>> live;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    live = conns_;
    readers.swap(conn_threads_);
  }
  for (const auto& conn : live) {
    if (!conn->dead.load(std::memory_order_acquire)) {
      try {
        net::GoodbyeMsg bye;
        bye.reason = "server draining";
        std::lock_guard<std::mutex> slock(conn->send_mu);
        conn->sock.send_frame(net::FrameType::kGoodbye, bye.encode());
      } catch (const std::exception&) {
      }
    }
    conn->sock.shutdown_both();
  }
  for (std::thread& t : readers) {
    if (t.joinable()) {
      t.join();
    }
  }
  live.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
    finished_conn_ids_.clear();
  }
  // A Hello that raced the stopping_ flag may have created a client —
  // and its writer thread — after step 4's join pass. Every reader is
  // joined now, so the client map is final: join any straggler writer
  // (writers_stop_ is already set, so it exits on its first predicate
  // check). Without this pass, ~ClientState would destroy a joinable
  // std::thread and terminate the process.
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    for (const auto& [name, c] : clients_) {
      if (c->writer.joinable()) {
        c->writer.join();
      }
    }
  }
  farm_.set_ingress_provider({});
  farm_.shutdown();
}

}  // namespace tmsim::farmd
