#include "pa/store/manager.h"

#include <algorithm>

#include "pa/common/time_utils.h"

namespace pa::store {

namespace {

void bump(obs::Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) {
    c->inc(n);
  }
}

}  // namespace

StoreManager::StoreManager(StoreManagerConfig config)
    : config_(std::move(config)),
      origin_(config_.origin),
      xfer_(config_.transfer),
      metrics_([&] {
        MetricsHandles h;
        if (config_.metrics != nullptr) {
          obs::MetricsRegistry& r = *config_.metrics;
          h.puts = &r.counter("store.puts");
          h.pushes = &r.counter("store.pushes");
          h.push_bytes = &r.counter("store.push_bytes");
          h.pulls = &r.counter("store.pulls");
          h.pull_bytes = &r.counter("store.pull_bytes");
          h.ensure_hits = &r.counter("store.ensure_hits");
          h.ensure_misses = &r.counter("store.ensure_misses");
          h.ensure_failures = &r.counter("store.ensure_failures");
          h.repairs = &r.counter("store.repairs");
          h.tokens_minted = &r.counter("store.token.minted");
          h.tokens_validated = &r.counter("store.token.validated");
          h.tokens_expired = &r.counter("store.token.expired");
          h.tokens_revoked = &r.counter("store.token.revoked");
          h.peer_transfers = &r.counter("store.peer_transfers");
          h.peer_bytes = &r.counter("store.peer_bytes");
          h.peer_fallbacks = &r.counter("store.peer_fallbacks");
          h.objects = &r.gauge("store.objects");
          h.pending = &r.gauge("store.pending_transfers");
        }
        return h;
      }()) {
  // The pump pulls star-push chunks straight from the origin shard —
  // rank kStoreTransfer (19) → kStoreChunkMap (42), both above this
  // manager's directory mutex, so push_object stays callable locked.
  xfer_.attach_chunk_source(
      [this](const std::string& object_id, std::uint32_t index) {
        return origin_.chunk_at(object_id, index);
      });
}

StoreManager::~StoreManager() { close(); }

void StoreManager::attach_sender(ObjSender sender) {
  xfer_.attach_sender(std::move(sender));
}

void StoreManager::close() {
  FireList to_fire;
  {
    check::MutexLock lock(mutex_);
    if (closed_) {
      return;
    }
    closed_ = true;
    for (auto& [key, ensure] : pending_) {
      for (Done& d : ensure.done) {
        to_fire.emplace_back(std::move(d), false);
      }
    }
    pending_.clear();
    pulls_.clear();
    pull_by_object_.clear();
    grants_.clear();
    grant_queue_.clear();
    inflight_by_source_.clear();
    update_gauges_locked();
  }
  fire(to_fire);
  xfer_.close();
}

std::string StoreManager::put(std::string bytes) {
  const std::uint64_t total = bytes.size();
  PutResult res = origin_.put(std::move(bytes));
  check::MutexLock lock(mutex_);
  ++stats_.puts;
  bump(metrics_.puts);
  directory_.add(res.object_id, total, kOriginHolder);
  for (const std::string& dropped : res.dropped) {
    directory_.remove(dropped, kOriginHolder);
    gc_origin_locked(dropped);
  }
  update_gauges_locked();
  return res.object_id;
}

std::string StoreManager::put_streamed(const PutResult& res) {
  if (!res.stored) {
    return std::string();
  }
  const std::uint64_t total = origin_.object_bytes(res.object_id);
  check::MutexLock lock(mutex_);
  ++stats_.puts;
  bump(metrics_.puts);
  directory_.add(res.object_id, total, kOriginHolder);
  for (const std::string& dropped : res.dropped) {
    directory_.remove(dropped, kOriginHolder);
    gc_origin_locked(dropped);
  }
  update_gauges_locked();
  return res.object_id;
}

std::optional<std::string> StoreManager::get(const std::string& object_id) {
  return origin_.get(object_id);
}

bool StoreManager::known(const std::string& object_id) const {
  check::MutexLock lock(mutex_);
  return directory_.known(object_id);
}

std::uint64_t StoreManager::object_bytes(const std::string& object_id) const {
  check::MutexLock lock(mutex_);
  return directory_.bytes(object_id);
}

void StoreManager::pilot_active(const std::string& pilot_id,
                                const std::string& site,
                                const std::string& peer_endpoint) {
  check::MutexLock lock(mutex_);
  auto it = pilots_.find(pilot_id);
  if (it != pilots_.end() && it->second.site != site) {
    auto& old = sites_[it->second.site];
    old.erase(std::remove(old.begin(), old.end(), pilot_id), old.end());
  }
  pilots_[pilot_id] = PilotInfo{site, peer_endpoint};
  auto& at_site = sites_[site];
  if (std::find(at_site.begin(), at_site.end(), pilot_id) == at_site.end()) {
    at_site.push_back(pilot_id);
  }
  if (config_.metrics != nullptr &&
      pilot_gauges_.count(pilot_id) == 0) {
    PilotGauges g;
    g.inflight = &config_.metrics->gauge("store." + pilot_id +
                                         ".inflight_transfers");
    g.queued = &config_.metrics->gauge("store." + pilot_id +
                                       ".queued_transfers");
    pilot_gauges_[pilot_id] = g;
  }
}

void StoreManager::pilot_lost(const std::string& pilot_id) {
  FireList to_fire;
  {
    check::MutexLock lock(mutex_);
    auto it = pilots_.find(pilot_id);
    if (it == pilots_.end()) {
      return;
    }
    auto& at_site = sites_[it->second.site];
    at_site.erase(std::remove(at_site.begin(), at_site.end(), pilot_id),
                  at_site.end());
    pilots_.erase(it);
    xfer_.drop_pilot(pilot_id);

    const std::vector<std::string> affected =
        directory_.drop_holder(pilot_id);

    // Ensures targeting the dead pilot can never complete.
    for (auto pit = pending_.begin(); pit != pending_.end();) {
      if (pit->first.first == pilot_id) {
        for (Done& d : pit->second.done) {
          to_fire.emplace_back(std::move(d), false);
        }
        ++stats_.ensure_failures;
        bump(metrics_.ensure_failures);
        pit = pending_.erase(pit);
      } else {
        ++pit;
      }
    }

    // Peer grants touching the dead pilot: a dead dest's token is
    // revoked at its source (replay protection); a dead source's grant
    // is requeued onto another replica exactly once — `tried` carries
    // the dead pilot so a re-grant can never pick it again.
    std::vector<std::uint64_t> dead_grants;
    for (const auto& [nonce, grant] : grants_) {
      if (grant.token.source_pilot == pilot_id ||
          grant.token.dest_pilot == pilot_id) {
        dead_grants.push_back(nonce);
      }
    }
    for (const std::uint64_t nonce : dead_grants) {
      auto git = grants_.find(nonce);
      if (git == grants_.end()) {
        continue;
      }
      Grant grant = std::move(git->second);
      grants_.erase(git);
      release_source_locked(grant.token.source_pilot);
      if (grant.token.dest_pilot == pilot_id) {
        if (grant.token.source_pilot != pilot_id) {
          revoke_at_source_locked(grant.token);
        }
        continue;  // dest's ensures already failed above
      }
      grant.tried.insert(pilot_id);
      regrant_or_star_locked(grant.token.dest_pilot, grant.token.object_id,
                             std::move(grant.tried), to_fire);
    }
    inflight_by_source_.erase(pilot_id);
    grant_queue_.erase(
        std::remove_if(grant_queue_.begin(), grant_queue_.end(),
                       [&](const QueuedGrant& q) {
                         return q.dest == pilot_id;
                       }),
        grant_queue_.end());

    // Pulls sourced from the dead pilot reroute to a surviving holder.
    std::vector<std::uint64_t> rerouted;
    for (auto& [tid, pull] : pulls_) {
      if (pull.source == pilot_id) {
        rerouted.push_back(tid);
      }
    }
    for (const std::uint64_t tid : rerouted) {
      auto pit = pulls_.find(tid);
      if (pit == pulls_.end()) {
        continue;
      }
      Pull& pull = pit->second;
      pull.tried.insert(pilot_id);
      if (choose_source_locked(pull)) {
        pull.chunks.clear();
        pull.got.clear();
        pull.expected = 0;
        pull.received = 0;
        ++stats_.pull_retries;
        xfer_.request_object(pull.source, pull.object_id, tid);
      } else {
        const std::string object_id = pull.object_id;
        pulls_.erase(pit);
        pull_by_object_.erase(object_id);
        fail_object_locked(object_id, to_fire);
      }
    }

    // Re-replicate everything the pilot held back to the target count.
    for (const std::string& object_id : affected) {
      repair_to_locked(object_id, config_.replica_target, to_fire);
      gc_origin_locked(object_id);
    }
    drain_grant_queue_locked(to_fire);
    update_gauges_locked();
  }
  fire(to_fire);
}

void StoreManager::tick(double now_seconds) {
  FireList to_fire;
  {
    check::MutexLock lock(mutex_);
    if (closed_) {
      return;
    }
    std::vector<std::uint64_t> expired;
    for (const auto& [nonce, grant] : grants_) {
      if (grant.token.deadline < now_seconds) {
        expired.push_back(nonce);
      }
    }
    for (const std::uint64_t nonce : expired) {
      auto git = grants_.find(nonce);
      if (git == grants_.end()) {
        continue;
      }
      Grant grant = std::move(git->second);
      grants_.erase(git);
      ++stats_.tokens_expired;
      bump(metrics_.tokens_expired);
      release_source_locked(grant.token.source_pilot);
      revoke_at_source_locked(grant.token);
      grant.tried.insert(grant.token.source_pilot);
      regrant_or_star_locked(grant.token.dest_pilot, grant.token.object_id,
                             std::move(grant.tried), to_fire);
    }
    if (!expired.empty()) {
      drain_grant_queue_locked(to_fire);
    }
    update_gauges_locked();
  }
  fire(to_fire);
}

void StoreManager::ensure_on(const std::string& pilot_id,
                             const std::string& object_id,
                             std::function<void(bool)> done) {
  FireList to_fire;
  {
    check::MutexLock lock(mutex_);
    ensure_on_locked(pilot_id, object_id, std::move(done), to_fire);
    update_gauges_locked();
  }
  fire(to_fire);
}

void StoreManager::prefetch(const std::string& pilot_id,
                            const std::vector<std::string>& object_ids) {
  FireList to_fire;
  {
    check::MutexLock lock(mutex_);
    for (const std::string& object_id : object_ids) {
      // Unit input_data may reference data units outside the store; only
      // known objects are prefetched.
      if (!directory_.known(object_id)) {
        continue;
      }
      if (directory_.has(object_id, pilot_id)) {
        ++stats_.ensure_hits;
        bump(metrics_.ensure_hits);
        continue;
      }
      ensure_on_locked(pilot_id, object_id, Done(), to_fire);
    }
    update_gauges_locked();
  }
  fire(to_fire);
}

void StoreManager::replicate(const std::string& object_id) {
  FireList to_fire;
  {
    check::MutexLock lock(mutex_);
    repair_to_locked(object_id, std::max(1, config_.replica_target),
                     to_fire);
    update_gauges_locked();
  }
  fire(to_fire);
}

void StoreManager::ensure_on_locked(const std::string& pilot_id,
                                    const std::string& object_id, Done done,
                                    FireList& to_fire) {
  if (closed_) {
    to_fire.emplace_back(std::move(done), false);
    return;
  }
  auto pit = pilots_.find(pilot_id);
  if (pit == pilots_.end() || !directory_.known(object_id)) {
    ++stats_.ensure_failures;
    bump(metrics_.ensure_failures);
    to_fire.emplace_back(std::move(done), false);
    return;
  }
  if (directory_.has(object_id, pilot_id)) {
    ++stats_.ensure_hits;
    bump(metrics_.ensure_hits);
    to_fire.emplace_back(std::move(done), true);
    return;
  }
  auto [it, inserted] = pending_.try_emplace({pilot_id, object_id});
  it->second.done.push_back(std::move(done));
  if (inserted) {
    ++stats_.ensure_misses;
    bump(metrics_.ensure_misses);
    start_transfer_locked(pilot_id, object_id, to_fire);
  }
}

bool StoreManager::start_transfer_locked(const std::string& pilot_id,
                                         const std::string& object_id,
                                         FireList& to_fire) {
  // Brokered path first: when another agent holds the object and both
  // sides published peer endpoints, the bytes never touch the manager.
  switch (try_peer_grant_locked(pilot_id, object_id, {}, true)) {
    case GrantOutcome::kGranted:
    case GrantOutcome::kQueued:
      return true;
    case GrantOutcome::kNoSource:
      break;
  }
  if (origin_.contains(object_id)) {
    return queue_push_locked(pilot_id, object_id, to_fire);
  }
  // Origin lost the bytes (memory-tier drop without spill): pull them
  // back from a surviving replica first; the push is queued when the
  // pull lands (on_agent_message, kObjChunk completion).
  return start_pull_locked(object_id, to_fire);
}

StoreManager::GrantOutcome StoreManager::try_peer_grant_locked(
    const std::string& dest, const std::string& object_id,
    std::set<std::string> tried, bool allow_queue) {
  if (closed_ || !config_.peer_transfers) {
    return GrantOutcome::kNoSource;
  }
  auto dit = pilots_.find(dest);
  if (dit == pilots_.end() || dit->second.peer_endpoint.empty()) {
    return GrantOutcome::kNoSource;
  }
  // Size floor: the four-hop broker handshake only amortizes over bulk
  // objects; anything smaller moves cheaper as one star frame.
  if (directory_.bytes(object_id) < config_.peer_min_object_bytes) {
    return GrantOutcome::kNoSource;
  }
  // Least-loaded eligible source: an agent holder with a dial address
  // that is not the dest and has not already failed this transfer.
  std::string source;
  int source_load = 0;
  std::string source_endpoint;
  for (const std::string& holder : directory_.holders(object_id)) {
    if (holder == kOriginHolder || holder == dest ||
        tried.count(holder) != 0) {
      continue;
    }
    auto hit = pilots_.find(holder);
    if (hit == pilots_.end() || hit->second.peer_endpoint.empty()) {
      continue;
    }
    const auto lit = inflight_by_source_.find(holder);
    const int load = lit == inflight_by_source_.end() ? 0 : lit->second;
    if (source.empty() || load < source_load) {
      source = holder;
      source_load = load;
      source_endpoint = hit->second.peer_endpoint;
    }
  }
  if (source.empty()) {
    return GrantOutcome::kNoSource;
  }
  if (config_.max_inflight_per_source > 0 &&
      source_load >= config_.max_inflight_per_source) {
    if (allow_queue) {
      grant_queue_.push_back(
          QueuedGrant{object_id, dest, std::move(tried)});
      auto pit = pending_.find({dest, object_id});
      if (pit != pending_.end()) {
        pit->second.queued = true;
      }
    }
    return GrantOutcome::kQueued;
  }
  TransferToken token;
  token.object_id = object_id;
  token.transfer_id = next_transfer_++;
  token.object_bytes = directory_.bytes(object_id);
  token.source_pilot = source;
  token.dest_pilot = dest;
  token.chunk_begin = 0;
  token.chunk_end = 0;  // 0 = through the last chunk
  token.deadline = pa::wall_seconds() + config_.token_ttl_seconds;
  token.nonce = next_nonce_++;
  ++inflight_by_source_[source];
  ++stats_.tokens_minted;
  bump(metrics_.tokens_minted);
  net::Message m;
  m.type = net::MessageType::kXferToken;
  m.pilot_id = dest;
  m.success = true;
  token_to_message(token, token_mac(token, config_.token_key), m);
  m.peer_endpoint = source_endpoint;
  grants_[token.nonce] = Grant{token, std::move(tried)};
  auto pit = pending_.find({dest, object_id});
  if (pit != pending_.end()) {
    pit->second.queued = true;
  }
  xfer_.send_control(std::move(m));
  return GrantOutcome::kGranted;
}

void StoreManager::regrant_or_star_locked(const std::string& dest,
                                          const std::string& object_id,
                                          std::set<std::string> tried,
                                          FireList& to_fire) {
  switch (try_peer_grant_locked(dest, object_id, std::move(tried), true)) {
    case GrantOutcome::kGranted:
    case GrantOutcome::kQueued:
      return;
    case GrantOutcome::kNoSource:
      break;
  }
  if (pilots_.count(dest) == 0) {
    return;  // dest died meanwhile; its ensures already failed
  }
  ++stats_.peer_fallbacks;
  bump(metrics_.peer_fallbacks);
  if (origin_.contains(object_id)) {
    queue_push_locked(dest, object_id, to_fire);
  } else {
    start_pull_locked(object_id, to_fire);
  }
}

void StoreManager::drain_grant_queue_locked(FireList& to_fire) {
  // One sweep: each queued grant either flies now, stays queued (its
  // sources still saturated), or falls back to the star when its sources
  // vanished entirely.
  const std::size_t sweep = grant_queue_.size();
  for (std::size_t i = 0; i < sweep; ++i) {
    QueuedGrant q = std::move(grant_queue_.front());
    grant_queue_.pop_front();
    const std::string dest = q.dest;
    const std::string object_id = q.object_id;
    switch (try_peer_grant_locked(dest, object_id, q.tried, false)) {
      case GrantOutcome::kGranted:
        break;
      case GrantOutcome::kQueued:
        grant_queue_.push_back(std::move(q));
        break;
      case GrantOutcome::kNoSource:
        if (pilots_.count(dest) == 0) {
          break;  // dest died; its ensures already failed
        }
        ++stats_.peer_fallbacks;
        bump(metrics_.peer_fallbacks);
        if (origin_.contains(object_id)) {
          queue_push_locked(dest, object_id, to_fire);
        } else {
          start_pull_locked(object_id, to_fire);
        }
        break;
    }
  }
}

void StoreManager::release_source_locked(const std::string& pilot_id) {
  auto it = inflight_by_source_.find(pilot_id);
  if (it != inflight_by_source_.end() && --it->second <= 0) {
    inflight_by_source_.erase(it);
  }
}

void StoreManager::revoke_at_source_locked(const TransferToken& token) {
  ++stats_.tokens_revoked;
  bump(metrics_.tokens_revoked);
  net::Message m;
  m.type = net::MessageType::kXferToken;
  m.pilot_id = token.source_pilot;
  m.success = false;
  token_to_message(token, token_mac(token, config_.token_key), m);
  xfer_.send_control(std::move(m));
}

void StoreManager::gc_origin_locked(const std::string& object_id) {
  if (!directory_.known(object_id) && origin_.contains(object_id)) {
    origin_.erase(object_id);
  }
}

bool StoreManager::queue_push_locked(const std::string& pilot_id,
                                     const std::string& object_id,
                                     FireList& to_fire) {
  const auto meta = origin_.chunk_meta(object_id);
  if (!meta) {
    // Raced with an origin eviction: the origin copy is gone; fall back
    // to pulling from a replica.
    directory_.remove(object_id, kOriginHolder);
    return start_pull_locked(object_id, to_fire);
  }
  auto it = pending_.find({pilot_id, object_id});
  if (it != pending_.end()) {
    it->second.queued = true;
  }
  const std::uint64_t tid = next_transfer_++;
  ++stats_.pushes;
  stats_.push_bytes += meta->second;
  bump(metrics_.pushes);
  bump(metrics_.push_bytes, meta->second);
  xfer_.push_object(pilot_id, object_id, tid, meta->first, meta->second);
  return true;
}

bool StoreManager::choose_source_locked(Pull& pull) {
  for (const std::string& holder : directory_.holders(pull.object_id)) {
    if (holder == kOriginHolder || pull.tried.count(holder) != 0) {
      continue;
    }
    if (pilots_.count(holder) == 0) {
      continue;
    }
    pull.source = holder;
    return true;
  }
  return false;
}

bool StoreManager::start_pull_locked(const std::string& object_id,
                                     FireList& to_fire) {
  if (pull_by_object_.count(object_id) != 0) {
    return true;  // already in flight; pendings join its completion
  }
  Pull pull;
  pull.object_id = object_id;
  if (!choose_source_locked(pull)) {
    fail_object_locked(object_id, to_fire);
    return false;
  }
  const std::uint64_t tid = next_transfer_++;
  pull_by_object_[object_id] = tid;
  xfer_.request_object(pull.source, object_id, tid);
  pulls_.emplace(tid, std::move(pull));
  return true;
}

void StoreManager::fail_object_locked(const std::string& object_id,
                                      FireList& to_fire) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->first.second == object_id) {
      for (Done& d : it->second.done) {
        to_fire.emplace_back(std::move(d), false);
      }
      ++stats_.ensure_failures;
      bump(metrics_.ensure_failures);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  auto pit = pull_by_object_.find(object_id);
  if (pit != pull_by_object_.end()) {
    pulls_.erase(pit->second);
    pull_by_object_.erase(pit);
  }
  gc_origin_locked(object_id);
}

void StoreManager::repair_to_locked(const std::string& object_id, int target,
                                    FireList& to_fire) {
  if (target <= 0 || !directory_.known(object_id)) {
    return;
  }
  std::size_t have = directory_.agent_replicas(object_id);
  for (const auto& [key, ensure] : pending_) {
    if (key.second == object_id) {
      ++have;  // in-flight placement counts; don't double-push
    }
  }
  while (have < static_cast<std::size_t>(target)) {
    // Least-loaded pilot not already holding (or receiving) the
    // object; ties break on pilot id, so placement is deterministic.
    std::string dest;
    std::uint64_t dest_load = 0;
    for (const auto& [pilot_id, info] : pilots_) {
      if (directory_.has(object_id, pilot_id) ||
          pending_.count({pilot_id, object_id}) != 0) {
        continue;
      }
      const std::uint64_t load = directory_.holder_bytes(pilot_id);
      if (dest.empty() || load < dest_load) {
        dest = pilot_id;
        dest_load = load;
      }
    }
    if (dest.empty()) {
      return;  // nowhere to place
    }
    pending_.try_emplace({dest, object_id});
    ++stats_.repairs;
    bump(metrics_.repairs);
    if (!start_transfer_locked(dest, object_id, to_fire)) {
      return;  // object unobtainable; fail path already fired
    }
    ++have;
  }
}

void StoreManager::collect_ensure_locked(const std::string& pilot_id,
                                         const std::string& object_id,
                                         bool ok, FireList& to_fire) {
  auto it = pending_.find({pilot_id, object_id});
  if (it == pending_.end()) {
    return;
  }
  for (Done& d : it->second.done) {
    to_fire.emplace_back(std::move(d), ok);
  }
  if (!ok) {
    ++stats_.ensure_failures;
    bump(metrics_.ensure_failures);
  }
  pending_.erase(it);
}

void StoreManager::on_agent_message(const std::string& pilot_id,
                                    const net::Message& m) {
  FireList to_fire;
  {
    check::MutexLock lock(mutex_);
    if (closed_) {
      return;
    }
    switch (m.type) {
      case net::MessageType::kObjLocate:
        if (m.success) {
          directory_.add(m.object_id, m.object_bytes, pilot_id);
          collect_ensure_locked(pilot_id, m.object_id, true, to_fire);
        } else {
          // Store NACK or eviction notice: the replica does not exist.
          directory_.remove(m.object_id, pilot_id);
          collect_ensure_locked(pilot_id, m.object_id, false, to_fire);
          repair_to_locked(m.object_id, config_.replica_target, to_fire);
          gc_origin_locked(m.object_id);
        }
        break;
      case net::MessageType::kPeerDone: {
        // Dest-authoritative outcome of a brokered transfer: the grant
        // ledger row keyed by nonce is settled here and nowhere else.
        auto git = grants_.find(m.nonce);
        if (git == grants_.end() ||
            git->second.token.dest_pilot != pilot_id ||
            git->second.token.object_id != m.object_id) {
          break;  // stale, replayed, or spoofed; ignore
        }
        Grant grant = std::move(git->second);
        grants_.erase(git);
        release_source_locked(grant.token.source_pilot);
        if (m.success) {
          ++stats_.tokens_validated;
          bump(metrics_.tokens_validated);
          ++stats_.peer_transfers;
          bump(metrics_.peer_transfers);
          const std::uint64_t total =
              m.object_bytes != 0 ? m.object_bytes : grant.token.object_bytes;
          stats_.peer_bytes += total;
          bump(metrics_.peer_bytes, total);
          directory_.add(m.object_id, total, pilot_id);
          collect_ensure_locked(pilot_id, m.object_id, true, to_fire);
        } else {
          // Dial failure, token rejection, or source NACK: retry the
          // next source, then the star.
          grant.tried.insert(grant.token.source_pilot);
          regrant_or_star_locked(pilot_id, m.object_id,
                                 std::move(grant.tried), to_fire);
        }
        drain_grant_queue_locked(to_fire);
        break;
      }
      case net::MessageType::kObjChunk: {
        auto it = pulls_.find(m.transfer_id);
        if (it == pulls_.end() || it->second.object_id != m.object_id ||
            it->second.source != pilot_id) {
          break;  // stale or spoofed; ignore
        }
        Pull& pull = it->second;
        if (m.chunk_count == 0) {
          // Source no longer holds it (stale directory entry).
          directory_.remove(m.object_id, pilot_id);
          pull.tried.insert(pilot_id);
          if (choose_source_locked(pull)) {
            pull.chunks.clear();
            pull.got.clear();
            pull.expected = 0;
            pull.received = 0;
            ++stats_.pull_retries;
            xfer_.request_object(pull.source, pull.object_id,
                                 m.transfer_id);
          } else {
            const std::string object_id = pull.object_id;
            pulls_.erase(it);
            pull_by_object_.erase(object_id);
            fail_object_locked(object_id, to_fire);
          }
          break;
        }
        if (pull.expected == 0) {
          pull.expected = m.chunk_count;
          pull.chunks.resize(m.chunk_count);
          pull.got.assign(m.chunk_count, false);
          pull.total = m.object_bytes;
        }
        if (m.chunk_index >= pull.expected ||
            m.chunk_count != pull.expected) {
          break;  // inconsistent stream; wait for retry/timeout paths
        }
        if (!pull.got[m.chunk_index]) {
          pull.got[m.chunk_index] = true;
          pull.chunks[m.chunk_index] = Chunk{m.chunk_data, m.chunk_crc};
          ++pull.received;
        }
        if (pull.received < pull.expected) {
          break;
        }
        // Complete: land in the origin, then feed the waiting pushes.
        const std::string object_id = pull.object_id;
        const std::uint64_t total = pull.total;
        std::set<std::string> tried = pull.tried;
        PutResult res =
            origin_.put_chunks(object_id, std::move(pull.chunks), total);
        pulls_.erase(it);
        pull_by_object_.erase(object_id);
        if (!res.stored) {
          // The source shipped corrupt bytes; drop that replica and try
          // the next holder.
          directory_.remove(object_id, pilot_id);
          Pull retry;
          retry.object_id = object_id;
          retry.tried = std::move(tried);
          retry.tried.insert(pilot_id);
          if (choose_source_locked(retry)) {
            const std::uint64_t tid = next_transfer_++;
            pull_by_object_[object_id] = tid;
            ++stats_.pull_retries;
            xfer_.request_object(retry.source, object_id, tid);
            pulls_.emplace(tid, std::move(retry));
          } else {
            fail_object_locked(object_id, to_fire);
          }
          break;
        }
        directory_.add(object_id, total, kOriginHolder);
        for (const std::string& dropped : res.dropped) {
          directory_.remove(dropped, kOriginHolder);
          gc_origin_locked(dropped);
        }
        ++stats_.pulls;
        stats_.pull_bytes += total;
        bump(metrics_.pulls);
        bump(metrics_.pull_bytes, total);
        for (auto& [key, ensure] : pending_) {
          if (key.second == object_id && !ensure.queued) {
            queue_push_locked(key.first, object_id, to_fire);
          }
        }
        break;
      }
      default:
        break;  // not a store message; runtime shouldn't forward others
    }
    update_gauges_locked();
  }
  fire(to_fire);
}

std::vector<std::string> StoreManager::replica_sites(
    const std::string& object_id) const {
  check::MutexLock lock(mutex_);
  std::vector<std::string> sites;
  for (const std::string& holder : directory_.holders(object_id)) {
    std::string site;
    if (holder == kOriginHolder) {
      site = config_.origin_site;
    } else {
      auto it = pilots_.find(holder);
      if (it == pilots_.end()) {
        continue;
      }
      site = it->second.site;
    }
    if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
      sites.push_back(site);
    }
  }
  return sites;
}

std::vector<std::string> StoreManager::replica_pilots(
    const std::string& object_id) const {
  check::MutexLock lock(mutex_);
  std::vector<std::string> pilots;
  for (const std::string& holder : directory_.holders(object_id)) {
    if (holder != kOriginHolder) {
      pilots.push_back(holder);
    }
  }
  return pilots;
}

double StoreManager::bytes_at_site(const std::string& object_id,
                                   const std::string& site) const {
  check::MutexLock lock(mutex_);
  for (const std::string& holder : directory_.holders(object_id)) {
    if (holder == kOriginHolder) {
      if (site == config_.origin_site) {
        return static_cast<double>(directory_.bytes(object_id));
      }
      continue;
    }
    auto it = pilots_.find(holder);
    if (it != pilots_.end() && it->second.site == site) {
      return static_cast<double>(directory_.bytes(object_id));
    }
  }
  return 0.0;
}

std::string StoreManager::pick_pilot_for(const std::string& object_id,
                                         const std::string& site) const {
  check::MutexLock lock(mutex_);
  auto sit = sites_.find(site);
  if (sit == sites_.end()) {
    return "";
  }
  std::string fallback;
  for (const std::string& pilot_id : sit->second) {
    if (pilots_.count(pilot_id) == 0) {
      continue;
    }
    if (directory_.has(object_id, pilot_id)) {
      return pilot_id;
    }
    if (fallback.empty()) {
      fallback = pilot_id;
    }
  }
  return fallback;
}

void StoreManager::record_output(const std::string& object_id,
                                 const std::string& site) {
  check::MutexLock lock(mutex_);
  if (site == config_.origin_site) {
    return;  // origin-resident outputs are recorded by put()
  }
  auto sit = sites_.find(site);
  if (sit == sites_.end() || sit->second.empty()) {
    return;
  }
  for (const std::string& pilot_id : sit->second) {
    if (pilots_.count(pilot_id) != 0) {
      directory_.add(object_id, 0, pilot_id);
      update_gauges_locked();
      return;
    }
  }
}

StoreManagerStats StoreManager::stats() const {
  check::MutexLock lock(mutex_);
  return stats_;
}

std::size_t StoreManager::active_grants() const {
  check::MutexLock lock(mutex_);
  return grants_.size();
}

std::size_t StoreManager::queued_grants() const {
  check::MutexLock lock(mutex_);
  return grant_queue_.size();
}

void StoreManager::update_gauges_locked() {
  if (metrics_.objects != nullptr) {
    metrics_.objects->set(static_cast<double>(directory_.object_count()));
  }
  if (metrics_.pending != nullptr) {
    metrics_.pending->set(
        static_cast<double>(pending_.size() + grants_.size()));
  }
  for (auto& [pilot_id, gauges] : pilot_gauges_) {
    if (gauges.inflight != nullptr) {
      std::size_t inflight = 0;
      const auto it = inflight_by_source_.find(pilot_id);
      if (it != inflight_by_source_.end()) {
        inflight = static_cast<std::size_t>(it->second);
      }
      gauges.inflight->set(static_cast<double>(inflight));
    }
    if (gauges.queued != nullptr) {
      std::size_t queued = 0;
      for (const QueuedGrant& q : grant_queue_) {
        if (q.dest == pilot_id) {
          ++queued;
        }
      }
      gauges.queued->set(static_cast<double>(queued));
    }
  }
}

void StoreManager::fire(FireList& to_fire) {
  for (auto& [done, ok] : to_fire) {
    if (done) {
      done(ok);
    }
  }
}

}  // namespace pa::store
