#include "pa/rt/remote_runtime.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

#include "pa/common/error.h"
#include "pa/common/log.h"
#include "pa/common/time_utils.h"
#include "pa/net/message.h"
#include "pa/net/wire.h"
#include "pa/saga/url.h"
#include "pa/store/manager.h"

namespace pa::rt {

// --- PayloadTable ------------------------------------------------------------

void PayloadTable::put(const std::vector<core::UnitLaunch>& launches) {
  check::MutexLock lock(mutex_);
  for (const core::UnitLaunch& launch : launches) {
    if (launch.description->work) {
      work_[launch.unit_id] = launch.description->work;
    }
  }
}

std::function<void()> PayloadTable::take(const std::string& unit_id) {
  check::MutexLock lock(mutex_);
  const auto it = work_.find(unit_id);
  if (it == work_.end()) {
    return {};
  }
  std::function<void()> work = std::move(it->second);
  work_.erase(it);
  return work;
}

std::size_t PayloadTable::size() const {
  check::MutexLock lock(mutex_);
  return work_.size();
}

// --- AgentEndpoint -----------------------------------------------------------

namespace {
/// Distinguishes successive peer listeners in one process: InProc has no
/// unlisten, so a reused name would resolve to a dead agent's handler.
std::atomic<std::uint64_t> g_peer_listener_seq{0};
}  // namespace

AgentEndpoint::AgentEndpoint(net::Transport& transport,
                             const std::string& endpoint, std::string pilot_id,
                             std::shared_ptr<PayloadTable> payloads,
                             AgentEndpointConfig config)
    : pilot_id_(std::move(pilot_id)),
      config_(std::move(config)),
      payloads_(std::move(payloads)),
      transport_(transport),
      merge_cap_(std::max<std::size_t>(1, config_.flusher.max_batch)),
      send_rejected_counter_(
          config_.metrics != nullptr
              ? &config_.metrics->counter("net.agent_send_rejected")
              : nullptr),
      store_(config_.store),
      outbox_(
          [this](std::vector<net::Message> batch, net::FlushReason reason) {
            return ship(std::move(batch), reason);
          },
          config_.flusher, config_.metrics),
      local_(config_.local) {
  store_.set_identity(pilot_id_);
  // The peer listener binds BEFORE the manager connection so the very
  // first kHello already carries the resolved dial address.
  setup_peer_listener(transport, endpoint);
  net::ConnectionHandlers handlers;
  handlers.on_message = [this](const std::string& payload) {
    handle_message(payload);
  };
  handlers.on_reconnect = [this] {
    // Fresh stream: re-introduce ourselves so the manager can re-map
    // connection -> pilot (it replies with an idempotent kStartPilot).
    if (conn_ != nullptr) {
      net::Message hello;
      hello.type = net::MessageType::kHello;
      hello.peer_endpoint = peer_endpoint_;
      outbox_.push(std::move(hello));
      outbox_.kick();
    }
  };
  conn_ = transport.connect(endpoint, std::move(handlers));
  net::Message hello;
  hello.type = net::MessageType::kHello;
  hello.peer_endpoint = peer_endpoint_;
  outbox_.push(std::move(hello));
  outbox_.kick();
}

AgentEndpoint::~AgentEndpoint() {
  // Late-completion handling, in order:
  //  1. cancel the embedded pilot: its ready FIFO is dropped, so no
  //     waiting unit starts, and units still running report nothing;
  //     `draining_` keeps the cancel from reporting kPilotTerminated;
  //  2. tear down the peer side: flip the hub dead under its lock (the
  //     still-listening accept handler sees the flag and attaches no
  //     handlers from now on), then close every channel — each close is
  //     a handler barrier, so no peer frame can reach store_ after this
  //     block;
  //  3. flush the outbox — completions the workers already produced ship
  //     in one final batch while the stream is still up;
  //  4. close the connection (handler barrier), so the embedded runtime
  //     (destroyed next, joining its pools) cannot race handle_message.
  // Completions that land between (3) and ~outbox_ are dropped-and-
  // counted there; the manager's heartbeat-deadline orphan requeue plus
  // the service's attempt tagging make that loss exactly-once safe.
  draining_.store(true);
  try {
    local_.cancel_pilot(pilot_id_);
  } catch (const NotFound&) {
    // never started, or kShutdown already cancelled it
  }
  if (peer_hub_ != nullptr) {
    std::vector<std::shared_ptr<PeerChannel>> channels;
    {
      check::MutexLock lock(peer_hub_->mu);
      peer_hub_->alive = false;
      channels.reserve(peer_hub_->accepted.size() + peer_hub_->dials.size());
      for (auto& ch : peer_hub_->accepted) {
        channels.push_back(std::move(ch));
      }
      for (auto& [ep, ch] : peer_hub_->dials) {
        channels.push_back(std::move(ch));
      }
      peer_hub_->accepted.clear();
      peer_hub_->dials.clear();
    }
    for (const auto& ch : channels) {
      if (ch->out != nullptr) {
        ch->out->close();
      }
      if (ch->conn != nullptr) {
        ch->conn->close();
      }
    }
  }
  outbox_.flush();
  conn_->close();
}

void AgentEndpoint::setup_peer_listener(net::Transport& transport,
                                        const std::string& manager_endpoint) {
  peer_hub_ = std::make_shared<PeerHub>();
  // Match the manager's transport family: an inproc fleet gets a fresh
  // process-unique inproc name, a TCP fleet a kernel-chosen port.
  const std::string want =
      manager_endpoint.rfind("inproc://", 0) == 0
          ? "inproc://peer-" + pilot_id_ + "-" +
                std::to_string(g_peer_listener_seq.fetch_add(1))
          : "127.0.0.1:0";
  try {
    peer_endpoint_ = transport.listen(
        want, [this, hub = peer_hub_](const net::ConnectionPtr& conn) {
          net::ConnectionHandlers handlers;
          check::MutexLock lock(hub->mu);
          if (!hub->alive) {
            // Endpoint already destroyed (or dying): attach nothing.
            // The connection idles until the transport stops; `this` is
            // never dereferenced on this path.
            return handlers;
          }
          auto channel = std::make_shared<PeerChannel>();
          channel->conn = conn;
          channel->out = make_peer_flusher(conn);
          hub->accepted.push_back(channel);
          handlers.on_message =
              [this, hub, weak = std::weak_ptr<PeerChannel>(channel)](
                  const std::string& payload) {
                handle_peer_message(weak, payload);
              };
          return handlers;
        });
  } catch (const std::exception& e) {
    // No peer listener is a capability miss, not a failure: the hello
    // advertises "" and the manager keeps this pilot on the star path.
    PA_LOG(kWarn, "agent") << pilot_id_
                           << ": peer listener bind failed: " << e.what();
    peer_endpoint_.clear();
  }
}

std::unique_ptr<net::BatchFlusher> AgentEndpoint::make_peer_flusher(
    net::ConnectionPtr conn) {
  // Detached metrics, like the manager's transfer pump: multi-hundred-KiB
  // chunk frames would drown the control plane's batch-size series.
  return std::make_unique<net::BatchFlusher>(
      [this, conn](std::vector<net::Message> batch,
                   net::FlushReason /*reason*/) -> std::vector<net::Message> {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          net::Message& m = batch[i];
          m.pilot_id = pilot_id_;
          m.seq = seq_.fetch_add(1);
          std::string frame;
          net::append_message_frame(frame, m);
          if (!conn->send(std::move(frame))) {
            // Backpressure: retain the unsent tail in order; the flusher
            // retries after its backoff.
            if (send_rejected_counter_ != nullptr) {
              send_rejected_counter_->inc();
            }
            return {std::make_move_iterator(batch.begin() +
                                            static_cast<std::ptrdiff_t>(i)),
                    std::make_move_iterator(batch.end())};
          }
        }
        return {};
      },
      config_.flusher, nullptr);
}

std::shared_ptr<AgentEndpoint::PeerChannel> AgentEndpoint::peer_channel_for(
    const std::string& endpoint) {
  std::shared_ptr<PeerChannel> channel;
  {
    check::MutexLock lock(peer_hub_->mu);
    if (!peer_hub_->alive) {
      return nullptr;
    }
    const auto it = peer_hub_->dials.find(endpoint);
    if (it != peer_hub_->dials.end()) {
      return it->second;
    }
    // Two-phase dial: park a shell in the table, then connect with the
    // hub lock RELEASED — connect() takes transport locks that rank
    // below kNetPeer. Only the manager-connection delivery thread dials
    // (kXferToken is its message), so the shell cannot be observed
    // half-filled by a second dialer.
    channel = std::make_shared<PeerChannel>();
    peer_hub_->dials.emplace(endpoint, channel);
  }
  net::ConnectionHandlers handlers;
  handlers.on_message = [this, hub = peer_hub_,
                         weak = std::weak_ptr<PeerChannel>(channel)](
                            const std::string& payload) {
    handle_peer_message(weak, payload);
  };
  net::ConnectionPtr conn;
  try {
    conn = transport_.connect(endpoint, std::move(handlers));
  } catch (...) {
    check::MutexLock lock(peer_hub_->mu);
    peer_hub_->dials.erase(endpoint);
    throw;
  }
  bool lost_teardown_race = false;
  {
    check::MutexLock lock(peer_hub_->mu);
    if (peer_hub_->alive) {
      channel->conn = conn;
      channel->out = make_peer_flusher(conn);
    } else {
      // The destructor swept the dial table between our two phases; it
      // will never see this connection, so close it ourselves (it is not
      // the connection we are a handler of — closing is legal here).
      lost_teardown_race = true;
    }
  }
  if (lost_teardown_race) {
    conn->close();
    return nullptr;
  }
  return channel;
}

void AgentEndpoint::handle_peer_message(
    const std::weak_ptr<PeerChannel>& channel, const std::string& payload) {
  net::Message m;
  try {
    m = net::decode_message(payload.data(), payload.size());
  } catch (const std::exception& e) {
    PA_LOG(kWarn, "agent") << pilot_id_
                           << ": dropping bad peer frame: " << e.what();
    return;
  }
  // The header's pilot_id is the presenter: the token names who may dial.
  store::PeerResult res = store_.handle_peer(m, m.pilot_id);
  if (!res.to_peer.empty()) {
    if (const std::shared_ptr<PeerChannel> ch = channel.lock();
        ch != nullptr && ch->out != nullptr) {
      for (net::Message& r : res.to_peer) {
        ch->out->push(std::move(r));
      }
      ch->out->kick();
    }
    // A dead channel drops the reply: the dest's token deadline (or the
    // manager's tick) turns that silence into a regrant.
  }
  if (!res.to_manager.empty()) {
    for (net::Message& r : res.to_manager) {
      outbox_.push(std::move(r));
    }
    outbox_.kick();
  }
}

void AgentEndpoint::handle_xfer_token(const net::Message& m) {
  if (!m.success) {
    // Revocation notice: the nonce joins the replay ledger so a copy of
    // the dead token presented later is rejected.
    store_.revoke_token(m.nonce);
    return;
  }
  std::optional<net::Message> offer = store_.begin_peer_pull(m);
  if (!offer) {
    return;  // token names someone else; ignore
  }
  bool presented = false;
  if (!m.peer_endpoint.empty() && peer_hub_ != nullptr) {
    try {
      if (const std::shared_ptr<PeerChannel> ch =
              peer_channel_for(m.peer_endpoint);
          ch != nullptr && ch->out != nullptr) {
        ch->out->push(std::move(*offer));
        ch->out->kick();
        presented = true;
      }
    } catch (const std::exception& e) {
      PA_LOG(kWarn, "agent") << pilot_id_ << ": peer dial to "
                             << m.peer_endpoint << " failed: " << e.what();
    }
  }
  if (!presented) {
    // Could not reach the source: give the grant back so the manager
    // retries another replica or falls back to the star.
    store_.abandon_peer_pull(m.transfer_id);
    net::Message done;
    done.type = net::MessageType::kPeerDone;
    done.object_id = m.object_id;
    done.transfer_id = m.transfer_id;
    done.nonce = m.nonce;
    done.object_bytes = 0;
    done.success = false;
    outbox_.push(std::move(done));
    outbox_.kick();
  }
}

std::int32_t AgentEndpoint::queue_capacity(int cores) const {
  const std::int64_t capacity =
      static_cast<std::int64_t>(std::max(cores, 1)) *
      static_cast<std::int64_t>(std::max(config_.queue_factor, 1));
  return static_cast<std::int32_t>(std::min<std::int64_t>(
      capacity, std::numeric_limits<std::int32_t>::max()));
}

AgentEndpoint::SchedulerStats AgentEndpoint::scheduler_stats() const {
  SchedulerStats s;
  const std::size_t held = held_.load();
  s.queued = std::min(local_.ready_units(pilot_id_), held);
  s.outstanding = held - s.queued;
  s.slots = active_sent_.load(std::memory_order_acquire) ? active_cores_ : 0;
  const std::int64_t free = std::int64_t{queue_capacity(s.slots)} -
                            static_cast<std::int64_t>(held);
  s.window = free > 0 ? static_cast<std::int32_t>(free) : 0;
  s.outbox_pending = outbox_.pending();
  return s;
}

void AgentEndpoint::announce_active() {
  net::Message r;
  r.type = net::MessageType::kPilotActive;
  r.total_cores = active_cores_;
  r.capacity = queue_capacity(active_cores_);
  r.site = active_site_;
  outbox_.push(std::move(r));
  outbox_.kick();
}

void AgentEndpoint::send_direct(net::Message message) {
  // Heartbeat-ack fast path: batching acks would inflate the manager's
  // RTT histogram, and a dropped ack is harmless (the next one answers).
  message.pilot_id = pilot_id_;
  message.seq = seq_.fetch_add(1);
  std::string frame;
  net::append_message_frame(frame, message);
  (void)conn_->send(std::move(frame));
}

std::vector<net::Message> AgentEndpoint::ship(std::vector<net::Message> batch,
                                              net::FlushReason /*reason*/) {
  std::size_t i = 0;
  while (i < batch.size()) {
    arena_.clear();
    std::uint64_t frames = 0;
    std::size_t end = i;
    const std::size_t cap = merge_cap_.load();
    if (batch[i].type == net::MessageType::kUnitDoneBatch) {
      // Merge the run of queued completions into one kUnitDoneBatch frame.
      net::Message b;
      b.type = net::MessageType::kUnitDoneBatch;
      b.pilot_id = pilot_id_;
      while (end < batch.size() && b.completions.size() < cap &&
             batch[end].type == net::MessageType::kUnitDoneBatch) {
        const std::vector<net::WireUnitDone>& done = batch[end].completions;
        b.completions.insert(b.completions.end(), done.begin(), done.end());
        ++end;
      }
      b.seq = seq_.fetch_add(1);
      net::append_message_frame(arena_, b);
      frames = 1;
    } else {
      // Control messages keep their own frames but still share one
      // gather into the transport.
      while (end < batch.size() && end - i < cap &&
             batch[end].type != net::MessageType::kUnitDoneBatch) {
        net::Message& m = batch[end];
        m.pilot_id = pilot_id_;
        m.seq = seq_.fetch_add(1);
        net::append_message_frame(arena_, m);
        ++frames;
        ++end;
      }
    }
    if (!conn_->send_gather(arena_, frames)) {
      // Backpressure (or a closed stream): retain everything unsent — the
      // flusher retries after its backoff — and halve the merge cap so
      // the retried frame shrinks until it fits the send queue. This is
      // the fix for the old fire-and-forget completion send.
      if (send_rejected_counter_ != nullptr) {
        send_rejected_counter_->inc();
      }
      merge_cap_.store(cap > 1 ? cap / 2 : 1);
      return {std::make_move_iterator(batch.begin() +
                                      static_cast<std::ptrdiff_t>(i)),
              std::make_move_iterator(batch.end())};
    }
    const std::size_t max_cap =
        std::max<std::size_t>(1, config_.flusher.max_batch);
    if (cap < max_cap) {
      merge_cap_.store(std::min(max_cap, cap * 2));
    }
    i = end;
  }
  return {};
}

void AgentEndpoint::dispatch(const net::WireUnitDescription& unit) {
  core::ComputeUnitDescription desc = net::to_unit_description(unit);
  if (unit.has_work) {
    desc.work = payloads_->take(unit.unit_id);
  }
  const std::string& unit_id = unit.unit_id;
  held_.fetch_add(1);
  try {
    local_.execute_unit(pilot_id_, desc, unit_id,
                        [this, unit_id](bool success) {
                          complete(unit_id, success);
                        });
  } catch (const std::exception& e) {
    if (draining_.load()) {
      return;  // torn down: the manager's orphan requeue covers the unit
    }
    PA_LOG(kWarn, "agent") << pilot_id_ << ": unit " << unit_id
                           << " rejected: " << e.what();
    complete(unit_id, false);
  }
}

void AgentEndpoint::complete(const std::string& unit_id, bool success) {
  net::Message r;
  r.type = net::MessageType::kUnitDoneBatch;
  r.completions.push_back(
      net::WireUnitDone{unit_id, success, pa::wall_seconds()});
  outbox_.push(std::move(r));
  held_.fetch_sub(1);
}

void AgentEndpoint::handle_message(const std::string& payload) {
  net::Message m;
  try {
    m = net::decode_message(payload.data(), payload.size());
  } catch (const std::exception& e) {
    PA_LOG(kWarn, "agent") << pilot_id_ << ": dropping bad message: "
                           << e.what();
    return;
  }
  if (m.pilot_id != pilot_id_) {
    return;  // not ours; a confused manager is not our problem to crash on
  }
  switch (m.type) {
    case net::MessageType::kStartPilot: {
      if (!m.token_key.empty()) {
        // The fleet token-MAC secret ("" when the manager has no store);
        // applied even on a duplicate start so a reconnect refreshes it.
        store_.set_token_key(m.token_key);
      }
      if (started_.exchange(true)) {
        // Duplicate after a reconnect: the pilot is already running.
        // Re-announce ACTIVE (the manager may have missed it).
        if (active_sent_.load(std::memory_order_acquire)) {
          announce_active();
        }
        return;
      }
      core::PilotDescription desc = net::to_pilot_description(m);
      // The manager addresses resources as remote://site; our embedded
      // substrate is the local one.
      if (desc.resource_url.rfind("remote://", 0) == 0) {
        desc.resource_url = "local://" + desc.resource_url.substr(9);
      }
      core::PilotRuntimeCallbacks callbacks;
      // The agent announces a depth sized by the cores, not the runtime's
      // own capacity: its runtime holds every unit the agent takes.
      callbacks.on_active = [this](const std::string&, core::PilotCapacity cap,
                                   const std::string& site) {
        active_cores_ = cap.cores;
        active_site_ = site;
        active_sent_.store(true, std::memory_order_release);
        announce_active();
      };
      callbacks.on_terminated = [this](const std::string&,
                                       core::PilotState state) {
        if (draining_.load()) {
          return;  // teardown cancels the pilot; the heartbeat reports it
        }
        net::Message r;
        r.type = net::MessageType::kPilotTerminated;
        r.pilot_state = state;
        outbox_.push(std::move(r));
        outbox_.kick();
      };
      try {
        local_.start_pilot(pilot_id_, desc, std::move(callbacks));
      } catch (const std::exception& e) {
        PA_LOG(kWarn, "agent")
            << pilot_id_ << ": start failed: " << e.what();
        net::Message r;
        r.type = net::MessageType::kPilotTerminated;
        r.pilot_state = core::PilotState::kFailed;
        outbox_.push(std::move(r));
        outbox_.kick();
      }
      break;
    }
    case net::MessageType::kUnitBatch: {
      // The runtime's ready FIFO binds them to cores, in arrival order.
      for (const net::WireUnitDescription& unit : m.units) {
        dispatch(unit);
      }
      break;
    }
    case net::MessageType::kHeartbeat: {
      if (!unresponsive_.load()) {
        net::Message r;
        r.type = net::MessageType::kHeartbeatAck;
        r.timestamp = m.timestamp;  // echo the probe for RTT
        send_direct(std::move(r));
      }
      break;
    }
    case net::MessageType::kObjPut:
    case net::MessageType::kObjGet: {
      // Data plane: store replies (announces, chunk streams) ride the
      // completion outbox so they get batching + buffered retry, and so
      // a chunk stream never jumps ahead of completions on the wire.
      std::vector<net::Message> replies = store_.handle(m);
      if (!replies.empty()) {
        for (net::Message& r : replies) {
          outbox_.push(std::move(r));
        }
        outbox_.kick();
      }
      break;
    }
    case net::MessageType::kXferToken: {
      // Peer-transfer grant (or revocation) from the manager's token
      // scheduler; the actual chunk traffic runs agent-to-agent.
      handle_xfer_token(m);
      break;
    }
    case net::MessageType::kShutdown: {
      try {
        // Drops the units waiting for a core: they die with the pilot.
        local_.cancel_pilot(pilot_id_);
      } catch (const NotFound&) {
        // never started or already cancelled — shutdown is idempotent
      }
      break;
    }
    default:
      break;  // agent-bound protocol has no other types
  }
}

// --- RemoteRuntime -----------------------------------------------------------

RemoteRuntime::Instruments RemoteRuntime::resolve_instruments(
    obs::MetricsRegistry* m) {
  Instruments h;
  if (m != nullptr) {
    h.units_done = &m->counter("net.units_done");
    h.send_rejected = &m->counter("net.send_rejected");
    h.heartbeat_deaths = &m->counter("net.heartbeat_deaths");
    h.heartbeat_rtt = &m->histogram("net.heartbeat_rtt_seconds", 1e-7, 60.0);
    h.bytes_in = &m->gauge("net.manager_bytes_in");
    h.bytes_out = &m->gauge("net.manager_bytes_out");
    h.send_queue_hwm = &m->gauge("net.send_queue_hwm");
    h.reconnects = &m->gauge("net.reconnects");
    h.dispatch_inflight = &m->gauge("net.dispatch_inflight");
    h.dispatch_pending = &m->gauge("net.dispatch_pending");
  }
  return h;
}

RemoteRuntime::RemoteRuntime(net::Transport& transport,
                             RemoteRuntimeConfig config)
    : config_(std::move(config)),
      metrics_(resolve_instruments(config_.metrics)),
      transport_(transport),
      epoch_(pa::wall_seconds()) {
  PA_REQUIRE_ARG(config_.launcher != nullptr,
                 "RemoteRuntime needs an AgentLauncher");
  PA_REQUIRE_ARG(config_.heartbeat_interval_seconds > 0.0,
                 "heartbeat interval must be positive");
  PA_REQUIRE_ARG(config_.heartbeat_miss_limit > 0,
                 "heartbeat miss limit must be positive");
  endpoint_ = transport_.listen(
      config_.listen_endpoint, [this](const net::ConnectionPtr& conn) {
        {
          // Track the connection until its kHello maps it to a pilot, so
          // shutdown can sever handlers that capture `this`.
          check::MutexLock lock(mutex_);
          pending_.push_back(conn);
        }
        net::ConnectionHandlers handlers;
        handlers.on_message = [this, weak = std::weak_ptr<net::Connection>(
                                         conn)](const std::string& payload) {
          handle_message(weak, payload);
        };
        // No on_close: a dropped stream is NOT a dead pilot (clients
        // reconnect); only the heartbeat deadline kills.
        return handlers;
      });
  heartbeat_ = std::thread([this] { heartbeat_loop(); });
  dispatch_ = std::make_unique<net::BatchFlusher>(
      [this](std::vector<net::Message> batch, net::FlushReason reason) {
        return dispatch(std::move(batch), reason);
      },
      config_.flusher, config_.metrics);
}

RemoteRuntime::~RemoteRuntime() {
  std::map<std::string, std::shared_ptr<PilotEntry>> pilots;
  std::vector<net::ConnectionPtr> zombies;
  std::vector<std::weak_ptr<net::Connection>> pending;
  {
    check::MutexLock lock(mutex_);
    stopping_ = true;
    pilots.swap(pilots_);
    zombies.swap(zombies_);
    pending.swap(pending_);
    cv_.notify_all();
  }
  if (heartbeat_.joinable()) {
    heartbeat_.join();
  }
  // Stop the dispatch flusher before touching connections: its final
  // flush finds pilots_ empty and drops the remainder (the service is
  // gone; nothing can observe those units anymore).
  if (dispatch_ != nullptr) {
    dispatch_->close();
  }
  // An attached store's transfer pump sends through `this`; close it
  // (joining the pump thread) before the runtime's members die. The
  // store's local data API stays usable — only in-flight transfers fail.
  if (store::StoreManager* s = store_.load()) {
    s->close();
  }
  // close() barriers sever every handler that captures `this` before the
  // runtime's members die. Teardown fires no callbacks (like
  // ~LocalRuntime).
  for (auto& [id, entry] : pilots) {
    if (entry->conn) {
      net::Message bye;
      bye.type = net::MessageType::kShutdown;
      bye.pilot_id = id;
      bye.seq = entry->seq++;
      send_on(entry->conn, std::move(bye));
      entry->conn->close();
    }
  }
  for (const auto& zombie : zombies) {
    zombie->close();
  }
  for (const auto& weak : pending) {
    if (const net::ConnectionPtr conn = weak.lock()) {
      conn->close();
    }
  }
}

double RemoteRuntime::now() const { return pa::wall_seconds() - epoch_; }

void RemoteRuntime::attach_store(store::StoreManager* store) {
  store::StoreManager* old = store_.exchange(store);
  if (old != nullptr && old != store) {
    // The previous store's transfer pump holds a sender that captures
    // `this`; closing the store joins the pump thread, so the old lambda
    // can never fire again (std::function has no safe concurrent swap).
    old->close();
  }
  if (store == nullptr) {
    return;
  }
  // The store's egress path. Called from the transfer pump with no locks
  // held; we take mutex_ (rank 14) to resolve the pilot, stamp the
  // header, and reserve a seq, then send on a copied connection outside
  // the lock (same discipline as the dispatch sink).
  store->attach_sender([this](const std::string& pilot_id,
                              net::Message& m) -> store::SendResult {
    net::ConnectionPtr conn;
    {
      check::MutexLock lock(mutex_);
      if (stopping_) {
        return store::SendResult::kGone;
      }
      const auto it = pilots_.find(pilot_id);
      if (it == pilots_.end()) {
        return store::SendResult::kGone;
      }
      auto& entry = *it->second;
      if (entry.conn == nullptr) {
        // Agent hasn't said hello yet; retry after the pump's backoff.
        return store::SendResult::kBusy;
      }
      m.seq = entry.seq++;  // seq gaps from rejected sends are harmless
      conn = entry.conn;
    }
    std::string frame;
    net::append_message_frame(frame, m);
    return conn->send(std::move(frame)) ? store::SendResult::kSent
                                        : store::SendResult::kBusy;
  });
}

bool RemoteRuntime::send_on(const net::ConnectionPtr& conn,
                            net::Message message) {
  std::string frame;
  net::append_message_frame(frame, message);
  const bool accepted = conn->send(std::move(frame));
  if (!accepted && metrics_.send_rejected != nullptr) {
    metrics_.send_rejected->inc();
  }
  return accepted;
}

void RemoteRuntime::start_pilot(const std::string& pilot_id,
                                const core::PilotDescription& description,
                                core::PilotRuntimeCallbacks callbacks) {
  const saga::Url url = saga::Url::parse(description.resource_url);
  PA_REQUIRE_ARG(url.scheme == "remote",
                 "RemoteRuntime only accepts remote:// URLs, got "
                     << description.resource_url);
  auto entry = std::make_shared<PilotEntry>();
  entry->description = description;
  entry->callbacks = std::move(callbacks);
  entry->flush_cap = std::max<std::size_t>(1, config_.flusher.max_batch);
  {
    check::MutexLock lock(mutex_);
    if (stopping_) {
      throw Error("RemoteRuntime::start_pilot during shutdown");
    }
    PA_REQUIRE_ARG(pilots_.find(pilot_id) == pilots_.end(),
                   "pilot id reused: " << pilot_id);
    entry->last_alive = now();
    pilots_.emplace(pilot_id, entry);
  }
  PA_LOG(kInfo, "remote-rt") << "pilot " << pilot_id << " launching agent at "
                             << endpoint_;
  // The launcher turns the placeholder into an agent; the agent's kHello
  // finishes the handshake. From here on, silence kills: an agent that
  // never reports within the heartbeat deadline fails the pilot.
  config_.launcher(pilot_id, endpoint_);
}

void RemoteRuntime::cancel_pilot(const std::string& pilot_id) {
  std::shared_ptr<PilotEntry> entry;
  {
    check::MutexLock lock(mutex_);
    const auto it = pilots_.find(pilot_id);
    if (it == pilots_.end()) {
      throw NotFound("unknown pilot: " + pilot_id);
    }
    entry = it->second;
    pilots_.erase(it);
  }
  if (entry->conn) {
    net::Message bye;
    bye.type = net::MessageType::kShutdown;
    bye.pilot_id = pilot_id;
    bye.seq = entry->seq++;  // entry is detached; no lock needed
    send_on(entry->conn, std::move(bye));
    entry->conn->close();
  }
  if (store::StoreManager* s = store_.load()) {
    s->pilot_lost(pilot_id);  // replicas on a cancelled pilot are gone
  }
  // Synchronous kCanceled, mirroring LocalRuntime: the service records
  // the terminal state before this call returns, so teardown ordering
  // (service destroyed before runtime) stays safe.
  if (entry->callbacks.on_terminated) {
    entry->callbacks.on_terminated(pilot_id, core::PilotState::kCanceled);
  }
}

void RemoteRuntime::execute_unit(const std::string& pilot_id,
                                 const core::ComputeUnitDescription& description,
                                 const std::string& unit_id,
                                 std::function<void(bool)> on_done) {
  std::vector<core::UnitLaunch> one;
  one.push_back(core::UnitLaunch{unit_id, &description, std::move(on_done)});
  if (!launch(pilot_id, one)) {
    throw NotFound("unknown pilot: " + pilot_id);
  }
}

void RemoteRuntime::execute_units(const std::string& pilot_id,
                                  std::vector<core::UnitLaunch> launches) {
  (void)launch(pilot_id, launches);
}

bool RemoteRuntime::launch(const std::string& pilot_id,
                           std::vector<core::UnitLaunch>& launches) {
  if (launches.empty()) {
    return true;
  }
  {
    check::MutexLock lock(mutex_);
    const auto it = pilots_.find(pilot_id);
    if (it == pilots_.end()) {
      return false;
    }
    auto& inflight = it->second->inflight;
    for (core::UnitLaunch& l : launches) {
      inflight[l.unit_id] = std::move(l.on_done);
    }
  }
  net::Message m;
  m.type = net::MessageType::kUnitBatch;
  m.pilot_id = pilot_id;
  m.units.reserve(launches.size());
  for (const core::UnitLaunch& l : launches) {
    const core::ComputeUnitDescription& d = *l.description;
    m.units.push_back(net::to_wire_unit(l.unit_id, d, d.work != nullptr));
  }
  // Park the closures BEFORE the message can arrive; re-put on every
  // attempt so requeued units resolve again.
  payloads_->put(launches);
  if (store::StoreManager* s = store_.load()) {
    // Overlap stage-in with the dispatch round-trip: start moving each
    // unit's declared inputs toward the pilot's shard now (no locks held;
    // ids the store doesn't manage are skipped).
    for (const core::UnitLaunch& l : launches) {
      if (!l.description->input_data.empty()) {
        s->prefetch(pilot_id, l.description->input_data);
      }
    }
  }
  // The hot path ends here: the dispatch flusher frames the queued
  // messages. Pushed with mutex_ released — the flusher lock ranks below
  // ours.
  dispatch_->push(std::move(m));
  return true;
}

std::vector<net::Message> RemoteRuntime::dispatch(
    std::vector<net::Message> batch, net::FlushReason /*reason*/) {
  // One run of units per pilot, per-pilot order preserved (cross-pilot
  // order carries no meaning — each pilot has its own stream).
  std::vector<net::Message> runs;
  for (net::Message& m : batch) {
    const auto it = std::find_if(
        runs.begin(), runs.end(),
        [&m](const net::Message& r) { return r.pilot_id == m.pilot_id; });
    if (it == runs.end()) {
      runs.push_back(std::move(m));
    } else {
      std::move(m.units.begin(), m.units.end(),
                std::back_inserter(it->units));
    }
  }

  const std::size_t max_cap =
      std::max<std::size_t>(1, config_.flusher.max_batch);
  std::vector<net::Message> retained;
  for (net::Message& run : runs) {
    std::size_t shipped = 0;
    bool pilot_gone = false;
    while (shipped < run.units.size()) {
      net::ConnectionPtr conn;
      std::size_t cap = 1;
      net::Message frame;
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(run.pilot_id);
        if (it == pilots_.end()) {
          // Pilot cancelled or failed: its in-flight attempts already
          // belong to the service's orphan requeue; dropping the stale
          // dispatches is the correct end state.
          pilot_gone = true;
          break;
        }
        PilotEntry& entry = *it->second;
        if (entry.conn == nullptr) {
          break;  // retained until the agent's kHello
        }
        conn = entry.conn;
        cap = entry.flush_cap;
        frame.seq = entry.seq++;
      }
      // A frame takes the next `cap` units of the run, so one message
      // (a whole schedule pass) splits across frames when it must.
      const std::size_t take = std::min(run.units.size() - shipped, cap);
      const auto first =
          run.units.begin() + static_cast<std::ptrdiff_t>(shipped);
      const auto last = first + static_cast<std::ptrdiff_t>(take);
      frame.type = net::MessageType::kUnitBatch;
      frame.pilot_id = run.pilot_id;
      frame.units.assign(std::make_move_iterator(first),
                         std::make_move_iterator(last));
      arena_.clear();
      net::append_message_frame(arena_, frame);
      const bool sent = conn->send_gather(arena_, 1);
      const std::size_t next_cap = sent ? std::min(cap * 2, max_cap)
                                        : std::max<std::size_t>(1, cap / 2);
      if (next_cap != cap) {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(run.pilot_id);
        if (it != pilots_.end()) {
          it->second->flush_cap = next_cap;
        }
      }
      if (!sent) {
        if (metrics_.send_rejected != nullptr) {
          metrics_.send_rejected->inc();
        }
        // Move the units back so the retry re-encodes them (seq gaps
        // from rejected frames are harmless).
        std::move(frame.units.begin(), frame.units.end(), first);
        break;
      }
      shipped += take;
    }
    if (!pilot_gone && shipped < run.units.size()) {
      const auto unsent =
          run.units.begin() + static_cast<std::ptrdiff_t>(shipped);
      run.units.erase(run.units.begin(), unsent);
      retained.push_back(std::move(run));
    }
  }
  return retained;
}

void RemoteRuntime::drive_until(const std::function<bool()>& predicate,
                                double timeout_seconds) {
  const double deadline = pa::wall_seconds() + timeout_seconds;
  while (!predicate()) {
    if (pa::wall_seconds() > deadline) {
      throw TimeoutError("remote wait timed out after " +
                         std::to_string(timeout_seconds) + " s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void RemoteRuntime::handle_message(
    const std::weak_ptr<net::Connection>& from, const std::string& payload) {
  net::Message m;
  try {
    m = net::decode_message(payload.data(), payload.size());
  } catch (const std::exception& e) {
    PA_LOG(kWarn, "remote-rt") << "dropping bad message: " << e.what();
    return;
  }
  switch (m.type) {
    case net::MessageType::kHello: {
      const net::ConnectionPtr conn = from.lock();
      if (conn == nullptr) {
        return;
      }
      net::Message start;
      bool known = false;
      {
        check::MutexLock lock(mutex_);
        std::erase_if(pending_,
                      [&](const std::weak_ptr<net::Connection>& w) {
                        const net::ConnectionPtr p = w.lock();
                        return p == nullptr || p == conn;
                      });
        const auto it = pilots_.find(m.pilot_id);
        if (it != pilots_.end()) {
          known = true;
          auto& entry = it->second;
          if (entry->conn && entry->conn != conn) {
            // Superseded stream (agent reconnected through a new
            // socket); the heartbeat thread closes it.
            zombies_.push_back(entry->conn);
          }
          entry->conn = conn;
          ++entry->hello_count;
          entry->last_alive = now();
          // The hello publishes the agent's peer-listener address; it is
          // handed to the store at kPilotActive so grants can name this
          // pilot as a transfer source.
          entry->peer_endpoint = m.peer_endpoint;
          start = net::make_start_pilot(m.pilot_id, entry->description);
          start.seq = entry->seq++;
          // Ship the fleet token key so the agent can validate peer grants
          // offline (config_ is immutable after construction).
          if (store::StoreManager* s = store_.load()) {
            start.token_key = s->config().token_key;
          }
        }
      }
      if (!known) {
        // Unknown pilot (cancelled, or a stray client): tell it to go
        // away; we may not close from its own handler.
        net::Message bye;
        bye.type = net::MessageType::kShutdown;
        bye.pilot_id = m.pilot_id;
        send_on(conn, std::move(bye));
        return;
      }
      // kStartPilot is idempotent agent-side, so re-hellos are safe.
      send_on(conn, std::move(start));
      break;
    }
    case net::MessageType::kPilotActive: {
      std::function<void(const std::string&, core::PilotCapacity,
                         const std::string&)>
          cb;
      std::string peer_endpoint;
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(m.pilot_id);
        if (it == pilots_.end()) {
          return;
        }
        it->second->last_alive = now();
        peer_endpoint = it->second->peer_endpoint;
        cb = it->second->callbacks.on_active;
      }
      // Register the pilot's shard with the data plane BEFORE the service
      // callback: the service may dispatch (and stage-in) immediately,
      // and ensure_on must already know the pilot's site. Store calls run
      // with mutex_ released — its lock ranks below ours (11 < 14).
      if (store::StoreManager* s = store_.load()) {
        s->pilot_active(m.pilot_id, m.site, peer_endpoint);
      }
      // Callbacks run with no net lock held: they re-enter the service
      // (rank 10 < ours) — see the lock-hierarchy note in the header.
      // The service fits units by the pilot's real cores and binds up to
      // the agent's queue capacity: its capacity accounting is then the
      // dispatch flow control, and the agent's runtime binds units to its
      // cores.
      // A re-announce after a reconnect repeats the same figures.
      if (cb) {
        cb(m.pilot_id, core::PilotCapacity{m.total_cores, m.capacity},
           m.site);
      }
      dispatch_->kick();  // units may already be queued for this pilot
      break;
    }
    case net::MessageType::kPilotTerminated: {
      std::function<void(const std::string&, core::PilotState)> cb;
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(m.pilot_id);
        if (it == pilots_.end()) {
          return;  // already cancelled/failed; duplicate is harmless
        }
        if (it->second->conn) {
          zombies_.push_back(it->second->conn);
        }
        cb = it->second->callbacks.on_terminated;
        pilots_.erase(it);
      }
      // Data-plane half of the death: drop the shard's replicas, fail
      // waiting ensures, re-replicate what fell below target.
      if (store::StoreManager* s = store_.load()) {
        s->pilot_lost(m.pilot_id);
      }
      if (cb) {
        cb(m.pilot_id, m.pilot_state);
      }
      break;
    }
    case net::MessageType::kObjLocate:
    case net::MessageType::kObjChunk:
    case net::MessageType::kPeerDone: {
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(m.pilot_id);
        if (it == pilots_.end()) {
          return;  // stale data frame from a dead pilot
        }
        // A shard mid-transfer is alive even when a heavy pull crowds
        // out heartbeat acks.
        it->second->last_alive = now();
      }
      if (store::StoreManager* s = store_.load()) {
        s->on_agent_message(m.pilot_id, m);
      }
      break;
    }
    case net::MessageType::kUnitDoneBatch: {
      std::vector<std::pair<std::function<void(bool)>, bool>> dones;
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(m.pilot_id);
        if (it == pilots_.end()) {
          return;
        }
        it->second->last_alive = now();
        dones.reserve(m.completions.size());
        for (const net::WireUnitDone& d : m.completions) {
          const auto unit_it = it->second->inflight.find(d.unit_id);
          if (unit_it != it->second->inflight.end()) {
            dones.emplace_back(std::move(unit_it->second), d.success);
            it->second->inflight.erase(unit_it);
          }
        }
      }
      if (metrics_.units_done != nullptr) {
        metrics_.units_done->inc(m.completions.size());
      }
      for (auto& [done, success] : dones) {
        if (done) {
          done(success);
        }
      }
      break;
    }
    case net::MessageType::kHeartbeatAck: {
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(m.pilot_id);
        if (it != pilots_.end()) {
          it->second->last_alive = now();
        }
      }
      if (metrics_.heartbeat_rtt != nullptr) {
        const double rtt = pa::wall_seconds() - m.timestamp;
        metrics_.heartbeat_rtt->record(rtt < 0.0 ? 0.0 : rtt);
      }
      break;
    }
    default:
      break;  // manager-bound protocol has no other types
  }
}

void RemoteRuntime::heartbeat_loop() {
  struct DeadPilot {
    std::string pilot_id;
    net::ConnectionPtr conn;
    std::function<void(const std::string&, core::PilotState)> on_terminated;
  };
  const double deadline_seconds =
      config_.heartbeat_interval_seconds * config_.heartbeat_miss_limit;
  check::MutexLock lock(mutex_);
  while (!stopping_) {
    cv_.wait_for(lock, config_.heartbeat_interval_seconds);
    if (stopping_) {
      return;
    }
    const double t = now();
    std::vector<std::pair<net::ConnectionPtr, net::Message>> pings;
    std::vector<DeadPilot> dead;
    std::vector<net::ConnectionPtr> zombies;
    std::uint64_t reconnects = 0;
    std::uint64_t inflight_sum = 0;
    for (auto it = pilots_.begin(); it != pilots_.end();) {
      auto& entry = it->second;
      if (t - entry->last_alive > deadline_seconds) {
        // Missed too many heartbeats: the agent is dead as far as the
        // application is concerned. Surfacing kFailed triggers the
        // middleware's orphan requeue for every in-flight unit.
        dead.push_back(DeadPilot{it->first, entry->conn,
                                 entry->callbacks.on_terminated});
        it = pilots_.erase(it);
        continue;
      }
      if (entry->conn) {
        net::Message hb;
        hb.type = net::MessageType::kHeartbeat;
        hb.pilot_id = it->first;
        hb.seq = entry->seq++;
        hb.timestamp = pa::wall_seconds();
        pings.emplace_back(entry->conn, std::move(hb));
        reconnects += entry->hello_count > 0 ? entry->hello_count - 1 : 0;
      }
      inflight_sum += entry->inflight.size();
      ++it;
    }
    zombies.swap(zombies_);
    std::erase_if(pending_, [](const std::weak_ptr<net::Connection>& w) {
      return w.expired();
    });
    lock.unlock();  // sends, closes, and callbacks happen lock-free

    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t queue_hwm = 0;
    for (auto& [conn, message] : pings) {
      send_on(conn, std::move(message));
      const net::ConnectionStats s = conn->stats();
      bytes_in += s.bytes_in;
      bytes_out += s.bytes_out;
      queue_hwm = std::max(queue_hwm, s.send_queue_hwm);
    }
    for (const auto& zombie : zombies) {
      zombie->close();
    }
    for (const auto& d : dead) {
      PA_LOG(kWarn, "remote-rt")
          << "pilot " << d.pilot_id << " missed " << config_.heartbeat_miss_limit
          << " heartbeats (" << deadline_seconds << " s); declaring it failed";
      if (metrics_.heartbeat_deaths != nullptr) {
        metrics_.heartbeat_deaths->inc();
      }
      if (d.conn) {
        d.conn->close();
      }
      if (store::StoreManager* s = store_.load()) {
        s->pilot_lost(d.pilot_id);  // before requeue: the orphaned units'
                                    // stage-ins must not target the corpse
      }
      if (d.on_terminated) {
        d.on_terminated(d.pilot_id, core::PilotState::kFailed);
      }
    }
    if (store::StoreManager* s = store_.load()) {
      // Token-expiry sweep rides the heartbeat cadence: grants whose
      // deadline passed are revoked at their source and retried.
      s->tick(pa::wall_seconds());
    }
    if (metrics_.bytes_in != nullptr) {
      metrics_.bytes_in->set(static_cast<double>(bytes_in));
      metrics_.bytes_out->set(static_cast<double>(bytes_out));
      metrics_.send_queue_hwm->set(static_cast<double>(queue_hwm));
      metrics_.reconnects->set(static_cast<double>(reconnects));
      metrics_.dispatch_inflight->set(static_cast<double>(inflight_sum));
      metrics_.dispatch_pending->set(
          static_cast<double>(dispatch_->pending()));
    }
    lock.lock();
  }
}

}  // namespace pa::rt
