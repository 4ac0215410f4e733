#include "pa/core/service_shard.h"

#include <memory>
#include <utility>

#include "pa/common/error.h"
#include "pa/common/log.h"

namespace pa::core {

ServiceShard::ServiceShard(Runtime& runtime, int index,
                           const std::string& scheduler_policy,
                           ShardRouter& router, std::atomic<bool>& shut_down,
                           std::atomic<std::int64_t>& in_transit_units,
                           std::function<std::string()> next_pilot_id)
    : runtime_(runtime),
      index_(index),
      workload_(make_scheduler(scheduler_policy)),
      router_(router),
      shut_down_(shut_down),
      in_transit_units_(in_transit_units),
      next_pilot_id_(std::move(next_pilot_id)) {
  Ctrl::Options options;
  options.threaded = !runtime_.single_threaded();
  options.clock = [this]() { return runtime_.now(); };
  ctrl_ = std::make_unique<Ctrl>(
      [this](cmd::Command& command) { apply_command(command); },
      [this]() { on_batch_end(); }, std::move(options));
}

void ServiceShard::set_peers(std::vector<ServiceShard*> peers) {
  peers_ = std::move(peers);
}

// ---------------------------------------------------------------------------
// Read side: served from this shard's published snapshot.
// ---------------------------------------------------------------------------

bool ServiceShard::try_pilot_state(const std::string& pilot_id,
                                   PilotState* out) const {
  check::MutexLock lock(snapshot_mutex_);
  const auto it = model_.pilot_states.find(pilot_id);
  if (it == model_.pilot_states.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

bool ServiceShard::try_unit(const std::string& unit_id, UnitSnap* out) const {
  check::MutexLock lock(snapshot_mutex_);
  const auto it = model_.units.find(unit_id);
  if (it == model_.units.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

std::size_t ServiceShard::total_units() const {
  check::MutexLock lock(snapshot_mutex_);
  return model_.units.size();
}

std::size_t ServiceShard::unfinished_units() const {
  check::MutexLock lock(snapshot_mutex_);
  return model_.unfinished;
}

void ServiceShard::merge_metrics(ServiceMetrics* out) const {
  check::MutexLock lock(snapshot_mutex_);
  out->merge(model_.metrics);
}

// ---------------------------------------------------------------------------
// Cross-shard forwarding.
// ---------------------------------------------------------------------------

void ServiceShard::forward_to(int target_shard, cmd::Command command) {
  if (forward_hops_ >= cmd::kMaxForwardHops) {
    PA_LOG(kWarn, "pcs") << "dropping command after " << forward_hops_
                         << " forward hops (shard " << index_ << " -> "
                         << target_shard << ")";
    return;
  }
  PA_CHECK_MSG(target_shard >= 0 &&
                   target_shard < static_cast<int>(peers_.size()),
               "forward to unknown shard " << target_shard);
  auto inner = std::make_shared<cmd::ForwardedCommand>();
  inner->command = std::move(command);
  peers_[static_cast<std::size_t>(target_shard)]->ctrl().post_forward(
      cmd::Command{cmd::CmdForward{target_shard, forward_hops_ + 1,
                                   std::move(inner)}});
}

bool ServiceShard::forward_if_remote(const std::string& id,
                                     cmd::Command command) {
  const int target = router_.shard_for_id(id);
  if (target == index_) {
    return false;
  }
  forward_to(target, std::move(command));
  return true;
}

void ServiceShard::apply(cmd::CmdForward& c) {
  if (c.inner == nullptr) {
    return;
  }
  if (c.hops > cmd::kMaxForwardHops) {
    PA_LOG(kWarn, "pcs") << "dropping forwarded command: hop budget "
                         << "exhausted at shard " << index_;
    return;
  }
  // Unwrap and apply through the same taxonomy the direct path uses; the
  // hop depth survives the unwrapping so a re-forward keeps counting.
  const int saved = forward_hops_;
  forward_hops_ = c.hops;
  try {
    apply_command(c.inner->command);
  } catch (...) {
    forward_hops_ = saved;
    throw;
  }
  forward_hops_ = saved;
}

// ---------------------------------------------------------------------------
// Apply side: single writer, owns the authoritative state lock-free.
// ---------------------------------------------------------------------------

ServiceShard::PilotRecord& ServiceShard::pilot_record(
    const std::string& pilot_id) {
  const auto it = pilots_.find(pilot_id);
  if (it == pilots_.end()) {
    throw NotFound("unknown pilot: " + pilot_id);
  }
  return it->second;
}

ServiceShard::UnitRecord& ServiceShard::unit_record(
    const std::string& unit_id) {
  const auto it = units_.find(unit_id);
  if (it == units_.end()) {
    throw NotFound("unknown unit: " + unit_id);
  }
  return it->second;
}

void ServiceShard::apply_command(cmd::Command& command) {
  std::visit([this](auto& c) { apply(c); }, command);
}

void ServiceShard::apply(cmd::CmdFence& /*c*/) {}

void ServiceShard::apply(cmd::CmdSubmitPilot& c) {
  submit_pilot_apply(c.pilot_id, c.description, c.restarts_used);
}

void ServiceShard::submit_pilot_apply(const std::string& pilot_id,
                                      const PilotDescription& description,
                                      int restarts_used) {
  PA_REQUIRE_ARG(description.nodes > 0, "pilot needs nodes");
  PA_REQUIRE_ARG(description.walltime > 0.0, "pilot needs walltime");
  PA_REQUIRE_ARG(!shut_down_.load(std::memory_order_relaxed),
                 "service is shut down");

  PilotRecord rec;
  rec.description = description;
  rec.tenant = tenant_of(description);
  rec.submit_time = runtime_.now();
  rec.restarts_used = restarts_used;
  if (router_.default_shard(pilot_id) != index_) {
    // A restart minted an id whose computable home is another shard; pin
    // it here so forwarded callbacks and facade reads find the owner.
    router_.pin(pilot_id, index_);
    rec.router_pinned = true;
  }
  const double submit_time = rec.submit_time;
  auto [pit, inserted] = pilots_.emplace(pilot_id, std::move(rec));
  PA_CHECK(inserted);
  if (journal_ != nullptr) {
    journal_->pilot_submitted(pilot_id, description, restarts_used,
                              submit_time);
  }
  // State-machine observer: every validated transition of this pilot is
  // journaled at the moment it is applied (ACTIVE carries cores/site,
  // which the CmdPilotActive handler records before firing the
  // transition), and the pilot lands in the snapshot dirty set.
  pit->second.sm.observe([this, pilot_id](PilotState /*from*/,
                                          PilotState to) {
    if (journal_ != nullptr) {
      const auto& p = pilots_.at(pilot_id);
      journal_->pilot_state(pilot_id, to, p.total_cores, p.site,
                            runtime_.now());
    }
    dirty_pilots_.insert(pilot_id);
  });

  // Runtime callbacks never run middleware logic on a substrate thread:
  // each is a wait-free post of the corresponding command (tools/lint.py
  // enforces this shape). They capture *this* shard's queue; if the pilot
  // later moves, the source shard forwards the posted command.
  PilotRuntimeCallbacks callbacks;
  callbacks.on_active = [this](const std::string& id, int cores,
                               const std::string& site) {
    ctrl_->post(cmd::Command{cmd::CmdPilotActive{id, cores, site}});
  };
  callbacks.on_terminated = [this](const std::string& id, PilotState state) {
    ctrl_->post(cmd::Command{cmd::CmdPilotTerminated{id, state}});
  };

  pilots_.at(pilot_id).sm.transition(PilotState::kSubmitted);
  if (tracer_ != nullptr) {
    tracer_->event_at(runtime_.now(), "pilot.state", pilot_id,
                      to_string(PilotState::kSubmitted));
  }
  if (obs_metrics_ != nullptr) {
    obs_metrics_->counter("pcs.pilots_submitted").inc();
  }
  runtime_.start_pilot(pilot_id, description, std::move(callbacks));
  PA_LOG(kInfo, "pcs") << "submitted pilot " << pilot_id << " to "
                       << description.resource_url;
}

void ServiceShard::apply(cmd::CmdPilotActive& c) {
  const auto it = pilots_.find(c.pilot_id);
  if (it == pilots_.end()) {
    if (forward_if_remote(c.pilot_id, cmd::Command{c})) {
      return;  // pilot moved; the owner applies it
    }
    throw NotFound("unknown pilot: " + c.pilot_id);
  }
  auto& rec = it->second;
  // Record capacity before firing the transition so the state-machine
  // observer can journal cores/site with the ACTIVE record.
  rec.total_cores = c.total_cores;
  rec.site = c.site;
  if (!rec.sm.try_transition(PilotState::kActive)) {
    return;  // cancelled while the allocation came up
  }
  rec.active_time = runtime_.now();
  const double startup = rec.active_time - rec.submit_time;
  {
    check::MutexLock lock(snapshot_mutex_);
    model_.metrics.pilot_startup_times.record(startup);
  }
  if (tracer_ != nullptr) {
    // Explicit runtime timestamps: simulated time under SimRuntime, wall
    // time under LocalRuntime, regardless of the tracer's own clock.
    tracer_->record_span("pilot.startup", c.pilot_id, rec.submit_time,
                         rec.active_time);
    tracer_->event_at(rec.active_time, "pilot.state", c.pilot_id,
                      to_string(PilotState::kActive));
  }
  if (obs_metrics_ != nullptr) {
    obs_metrics_->counter("pcs.pilots_active").inc();
    obs_metrics_
        ->histogram("pcs.pilot_startup", kLatencyMinSeconds,
                    kLatencyMaxSeconds)
        .record(startup);
  }
  workload_.add_pilot(c.pilot_id, c.site, c.total_cores,
                      rec.description.priority,
                      rec.description.cost_per_core_hour,
                      rec.active_time + rec.description.walltime);
  PA_LOG(kInfo, "pcs") << "pilot " << c.pilot_id << " active on " << c.site
                       << " with " << c.total_cores << " cores";
}

void ServiceShard::apply(cmd::CmdPilotTerminated& c) {
  const std::string& pilot_id = c.pilot_id;
  const auto pit = pilots_.find(pilot_id);
  if (pit == pilots_.end()) {
    if (forward_if_remote(pilot_id, cmd::Command{c})) {
      return;  // pilot moved; the owner applies it
    }
    throw NotFound("unknown pilot: " + pilot_id);
  }
  auto& rec = pit->second;
  const std::vector<std::string> orphans = workload_.remove_pilot(pilot_id);
  rec.sm.try_transition(c.state);
  const double terminated_at = runtime_.now();
  if (tracer_ != nullptr) {
    if (rec.active_time >= 0.0) {
      tracer_->record_span("pilot.active", pilot_id, rec.active_time,
                           terminated_at);
    }
    tracer_->event_at(terminated_at, "pilot.state", pilot_id,
                      to_string(rec.sm.state()));
  }
  if (obs_metrics_ != nullptr) {
    obs_metrics_
        ->counter(std::string("pcs.pilots_terminated.") +
                  to_string(rec.sm.state()))
        .inc();
  }
  if (rec.router_pinned && is_final(rec.sm.state())) {
    router_.forget(pilot_id);
    rec.router_pinned = false;
  }
  const PilotDescription restart_description = rec.description;
  const std::string tenant = rec.tenant;
  const int restarts_used = rec.restarts_used;
  const bool restart = c.state == PilotState::kFailed &&
                       !shut_down_.load(std::memory_order_relaxed) &&
                       restarts_used < pilot_max_restarts_;
  for (const auto& unit_id : orphans) {
    auto& unit = unit_record(unit_id);
    if (is_final(unit.sm.state())) {
      continue;
    }
    const bool want_requeue =
        requeue_on_pilot_failure_ && !unit.cancel_requested;
    if (want_requeue &&
        workload_.requeue_unit_front(unit_id, unit.description)) {
      // Recovery: back to the queue; the unit re-runs on another pilot.
      unit.pilot_id.clear();
      {
        check::MutexLock lock(snapshot_mutex_);
        ++model_.metrics.requeues;
      }
      if (obs_metrics_ != nullptr) {
        obs_metrics_->counter("pcs.unit_requeues").inc();
      }
      // State machine: RUNNING/SCHEDULED -> FAILED would be terminal, so
      // we model a requeue as a fresh PENDING attempt (observers notified
      // of the reset, then re-attached to the fresh machine).
      const UnitState prior = unit.sm.state();
      if (journal_ != nullptr) {
        journal_->unit_requeued(unit_id, runtime_.now());
      }
      for (const auto& obs : unit_observers_) {
        obs(unit_id, prior, UnitState::kPending);
      }
      // lint:allow-state-reset — a requeue is the one sanctioned machine
      // replacement: the old machine's history ends (journaled above as
      // unit_requeued) and a fresh validated machine starts at PENDING.
      unit.sm = UnitStateMachine(UnitState::kPending);
      unit.sm.observe(make_unit_observer(unit_id));
      ++unit.attempts;
      // Machine replacement fires no transition, so dirty the snapshot
      // entry by hand.
      dirty_units_.insert(unit_id);
      PA_LOG(kInfo, "pcs") << "requeued " << unit_id << " after pilot "
                           << pilot_id << " terminated";
    } else {
      if (want_requeue) {
        // The workload manager refused: requeue bound exhausted.
        if (obs_metrics_ != nullptr) {
          obs_metrics_->counter("pcs.units_failed_requeue_limit").inc();
        }
        PA_LOG(kWarn, "pcs") << unit_id << " exhausted its requeue bound "
                             << "after pilot " << pilot_id
                             << " terminated; failing it";
      }
      finalize_unit_apply(unit, unit_id, UnitState::kFailed);
    }
  }
  if (restart) {
    // Fault tolerance: replace the failed allocation. `rec` may be
    // invalidated by the map insertion below, hence the copies above.
    PA_LOG(kInfo, "pcs") << "restarting failed pilot " << pilot_id
                         << " (restart " << restarts_used + 1 << "/"
                         << pilot_max_restarts_ << ")";
    submit_pilot_apply(next_pilot_id_(), restart_description,
                       restarts_used + 1);
  } else if (admission_ != nullptr) {
    // Lineage end: the tenant's pilot slot is free again (a restart keeps
    // the admitted slot, so no release on that path).
    admission_->pilot_released(tenant);
  }
}

UnitStateMachine::Observer ServiceShard::make_unit_observer(
    const std::string& unit_id) {
  // Forward every transition of this unit to the journal, the tracer, the
  // service-level observers, and the snapshot dirty set.
  return [this, unit_id](UnitState from, UnitState to) {
    if (journal_ != nullptr) {
      journal_->unit_state(unit_id, to, runtime_.now());
    }
    if (tracer_ != nullptr) {
      tracer_->event_at(runtime_.now(), "unit.state", unit_id, to_string(to));
    }
    for (const auto& obs : unit_observers_) {
      obs(unit_id, from, to);
    }
    dirty_units_.insert(unit_id);
  };
}

void ServiceShard::apply(cmd::CmdSubmitUnit& c) {
  PA_REQUIRE_ARG(!shut_down_.load(std::memory_order_relaxed),
                 "service is shut down");
  PA_REQUIRE_ARG(c.description.cores > 0, "unit needs cores");
  const std::string& unit_id = c.unit_id;
  UnitRecord rec;
  rec.description = c.description;
  rec.tenant = tenant_of(c.description);
  rec.times.submitted = runtime_.now();
  if (router_.default_shard(unit_id) != index_) {
    router_.pin(unit_id, index_);
    rec.router_pinned = true;
  }
  if (!first_submit_recorded_) {
    first_submit_recorded_ = true;
    check::MutexLock lock(snapshot_mutex_);
    model_.metrics.first_submit_time = rec.times.submitted;
  }
  auto [uit, inserted] = units_.emplace(unit_id, std::move(rec));
  PA_CHECK(inserted);
  if (journal_ != nullptr) {
    journal_->unit_submitted(unit_id, c.description,
                             uit->second.times.submitted);
  }
  uit->second.sm.observe(make_unit_observer(unit_id));
  if (obs_metrics_ != nullptr) {
    obs_metrics_->counter("pcs.units_submitted").inc();
  }
  uit->second.sm.transition(UnitState::kPending);
  workload_.enqueue_unit(unit_id, c.description);
}

void ServiceShard::run_schedule_cycle() {
  // One coalesced pass per command batch (and per apply-thread timer
  // tick). The workload manager's dirty flag makes a pass over unchanged
  // state a counter bump and nothing else.
  const auto assignments = workload_.schedule_pass(runtime_.now(), data_);
  for (const auto& a : assignments) {
    dispatch_unit_apply(a.unit_id, a.pilot_id);
  }
}

void ServiceShard::dispatch_unit_apply(const std::string& unit_id,
                                       const std::string& pilot_id) {
  auto& unit = unit_record(unit_id);
  unit.pilot_id = pilot_id;
  unit.times.scheduled = runtime_.now();
  if (journal_ != nullptr) {
    journal_->unit_bound(unit_id, pilot_id, unit.times.scheduled);
  }
  if (admission_ != nullptr) {
    // A grant of cores to this tenant (each re-dispatch after a requeue
    // is a fresh grant).
    admission_->unit_dispatched(unit.tenant, unit.description.cores);
  }

  const auto& pilot = pilot_record(pilot_id);
  const bool needs_staging =
      data_ != nullptr && !unit.description.input_data.empty();
  if (!needs_staging) {
    unit.sm.transition(UnitState::kScheduled);
    execute_unit_apply(unit_id);
    return;
  }

  unit.sm.transition(UnitState::kStagingIn);
  // Counting barrier across all input data units; the last stage-in
  // completion posts the command. Callbacks may fire on any thread (or
  // synchronously right here), hence the atomic.
  auto remaining = std::make_shared<std::atomic<std::size_t>>(
      unit.description.input_data.size());
  const std::string site = pilot.site;
  const int attempt = unit.attempts;
  for (const auto& du : unit.description.input_data) {
    data_->stage_to_site(du, site, [this, unit_id, remaining, attempt]() {
      if (remaining->fetch_sub(1, std::memory_order_acq_rel) > 1) {
        return;
      }
      ctrl_->post(cmd::Command{cmd::CmdStageInDone{unit_id, attempt}});
    });
  }
}

void ServiceShard::apply(cmd::CmdStageInDone& c) {
  const auto it = units_.find(c.unit_id);
  if (it == units_.end()) {
    if (forward_if_remote(c.unit_id, cmd::Command{c})) {
      return;  // unit moved with its pilot; the owner applies it
    }
    throw NotFound("unknown unit: " + c.unit_id);
  }
  auto& unit = it->second;
  if (c.attempt != unit.attempts) {
    return;  // barrier of a superseded dispatch
  }
  if (is_final(unit.sm.state())) {
    return;  // canceled/failed while staging
  }
  if (!workload_.has_pilot(unit.pilot_id)) {
    return;  // pilot died during staging; termination path requeued us
  }
  unit.sm.transition(UnitState::kScheduled);
  execute_unit_apply(c.unit_id);
}

void ServiceShard::execute_unit_apply(const std::string& unit_id) {
  auto& unit = unit_record(unit_id);
  unit.sm.transition(UnitState::kRunning);
  unit.times.started = runtime_.now();
  // Tag the completion with the attempt number so a stale completion from
  // a terminated pilot cannot be mistaken for a later re-run's.
  const int attempt = unit.attempts;
  runtime_.execute_unit(unit.pilot_id, unit.description, unit_id,
                        [this, unit_id, attempt](bool success) {
                          ctrl_->post(cmd::Command{
                              cmd::CmdUnitDone{unit_id, success, attempt}});
                        });
}

void ServiceShard::apply(cmd::CmdUnitDone& c) {
  const auto it = units_.find(c.unit_id);
  if (it == units_.end()) {
    if (forward_if_remote(c.unit_id, cmd::Command{c})) {
      return;  // unit moved with its pilot; the owner applies it
    }
    throw NotFound("unknown unit: " + c.unit_id);
  }
  auto& unit = it->second;
  if (c.attempt != unit.attempts) {
    return;  // completion of a superseded attempt
  }
  if (is_final(unit.sm.state())) {
    return;  // already finalized (e.g. pilot died and unit was failed)
  }
  if (unit.sm.state() != UnitState::kRunning) {
    return;  // requeued after pilot failure; this completion is stale
  }
  workload_.unit_finished(c.unit_id);

  UnitState final_state = UnitState::kFailed;
  if (unit.cancel_requested) {
    final_state = UnitState::kCanceled;
  } else if (c.success) {
    final_state = UnitState::kDone;
  }
  if (final_state == UnitState::kDone && data_ != nullptr) {
    for (const auto& du : unit.description.output_data) {
      const auto pit = pilots_.find(unit.pilot_id);
      if (pit != pilots_.end()) {
        data_->register_output(du, pit->second.site);
        if (journal_ != nullptr) {
          journal_->data_placed(du, pit->second.site, runtime_.now());
        }
      }
    }
  }
  finalize_unit_apply(unit, c.unit_id, final_state);
}

void ServiceShard::finalize_unit_apply(UnitRecord& unit,
                                       const std::string& unit_id,
                                       UnitState final_state) {
  PA_CHECK_MSG(is_final(final_state),
               "finalize with non-final state for " << unit_id);
  unit.times.finished = runtime_.now();
  unit.sm.try_transition(final_state);
  dirty_units_.insert(unit_id);
  const bool done = final_state == UnitState::kDone;
  const bool failed = final_state == UnitState::kFailed;
  {
    check::MutexLock lock(snapshot_mutex_);
    ServiceMetrics& m = model_.metrics;
    m.last_finish_time = unit.times.finished;
    if (done) {
      ++m.units_done;
      m.unit_wait_times.record(unit.times.wait_time());
      m.unit_exec_times.record(unit.times.exec_time());
    } else if (failed) {
      ++m.units_failed;
    } else {
      ++m.units_canceled;
    }
  }
  if (unit.router_pinned) {
    router_.forget(unit_id);
    unit.router_pinned = false;
  }
  if (admission_ != nullptr) {
    const double wait = unit.times.started >= 0.0
                            ? unit.times.started - unit.times.submitted
                            : -1.0;
    admission_->unit_finalized(unit.tenant, final_state, wait);
  }
  if (tracer_ != nullptr && unit.times.started >= 0.0) {
    tracer_->record_span("unit.wait", unit_id, unit.times.submitted,
                         unit.times.started);
    tracer_->record_span("unit.exec", unit_id, unit.times.started,
                         unit.times.finished);
  }
  if (obs_metrics_ == nullptr) {
    return;
  }
  if (done) {
    obs_metrics_->counter("pcs.units_done").inc();
    obs_metrics_
        ->histogram("pcs.unit_wait", kLatencyMinSeconds, kLatencyMaxSeconds)
        .record(unit.times.wait_time());
    obs_metrics_
        ->histogram("pcs.unit_exec", kLatencyMinSeconds, kLatencyMaxSeconds)
        .record(unit.times.exec_time());
  } else if (failed) {
    obs_metrics_->counter("pcs.units_failed").inc();
  } else {
    obs_metrics_->counter("pcs.units_canceled").inc();
  }
}

void ServiceShard::apply(cmd::CmdCancelUnit& c) {
  const auto it = units_.find(c.unit_id);
  if (it == units_.end()) {
    if (forward_if_remote(c.unit_id, cmd::Command{c})) {
      return;  // unit moved with its pilot; the owner applies it
    }
    throw NotFound("unknown unit: " + c.unit_id);
  }
  auto& unit = it->second;
  if (is_final(unit.sm.state())) {
    return;
  }
  unit.cancel_requested = true;
  if (workload_.remove_queued_unit(c.unit_id)) {
    finalize_unit_apply(unit, c.unit_id, UnitState::kCanceled);
  }
  // Otherwise the unit is staging or running; it records CANCELED when its
  // current attempt finishes (payloads are not forcibly interrupted).
}

void ServiceShard::apply(cmd::CmdShutdown& c) {
  if (local_shut_down_) {
    return;  // idempotent; the caller gets an empty cancel list
  }
  local_shut_down_ = true;
  shut_down_.store(true, std::memory_order_relaxed);
  if (c.pilots_to_cancel != nullptr) {
    for (const auto& [id, rec] : pilots_) {
      if (!is_final(rec.sm.state())) {
        c.pilots_to_cancel->push_back(id);
      }
    }
  }
}

void ServiceShard::apply(cmd::CmdAttachData& c) { data_ = c.data; }

void ServiceShard::apply(cmd::CmdAttachObservability& c) {
  tracer_ = c.tracer;
  obs_metrics_ = c.metrics;
  workload_.set_metrics(c.metrics);
  ctrl_->set_metrics(c.metrics, "s" + std::to_string(index_));
}

void ServiceShard::apply(cmd::CmdAttachJournal& c) {
  journal_ = c.journal;
}

void ServiceShard::apply(cmd::CmdAttachAdmission& c) {
  admission_ = c.admission;
  workload_.set_admission(c.admission);
  workload_.set_fair_share(c.fair_share && c.admission != nullptr);
}

void ServiceShard::apply(cmd::CmdSetRequeuePolicy& c) {
  requeue_on_pilot_failure_ = c.requeue_on_pilot_failure;
}

void ServiceShard::apply(cmd::CmdSetRestartPolicy& c) {
  pilot_max_restarts_ = c.max_restarts;
}

void ServiceShard::apply(cmd::CmdSetMaxRequeues& c) {
  workload_.set_max_requeues(c.max_requeues);
}

void ServiceShard::apply(cmd::CmdObserveUnits& c) {
  PA_REQUIRE_ARG(static_cast<bool>(c.observer), "null observer");
  unit_observers_.push_back(std::move(c.observer));
}

// ---------------------------------------------------------------------------
// Pilot moves (fence protocol, facade-driven).
// ---------------------------------------------------------------------------

void ServiceShard::apply(cmd::CmdMovePilot& c) {
  const auto it = pilots_.find(c.pilot_id);
  if (it == pilots_.end()) {
    if (forward_if_remote(c.pilot_id, cmd::Command{c})) {
      return;  // stale routing; the owner performs the move
    }
    throw NotFound("unknown pilot: " + c.pilot_id);
  }
  PA_REQUIRE_ARG(c.target_shard >= 0 &&
                     c.target_shard < static_cast<int>(peers_.size()),
                 "move to unknown shard " << c.target_shard);
  if (c.target_shard == index_) {
    return;  // already home
  }
  PilotRecord& rec = it->second;
  if (is_final(rec.sm.state())) {
    return;  // nothing to move; the history record stays here
  }

  auto transfer = std::make_shared<cmd::PilotTransfer>();
  transfer->pilot_id = c.pilot_id;
  transfer->description = rec.description;
  transfer->state = rec.sm.state();
  transfer->submit_time = rec.submit_time;
  transfer->active_time = rec.active_time;
  transfer->total_cores = rec.total_cores;
  transfer->site = rec.site;
  transfer->restarts_used = rec.restarts_used;
  transfer->source_shard = index_;

  // Bound, non-final units travel with the pilot; queued units stay in
  // this shard's late-binding queue (they are not bound to anything).
  const auto detached = workload_.detach_pilot(c.pilot_id);
  for (const auto& d : detached) {
    const auto uit = units_.find(d.unit_id);
    PA_CHECK_MSG(uit != units_.end(), "bound unit without record");
    const UnitRecord& u = uit->second;
    cmd::PilotTransfer::Unit tu;
    tu.unit_id = d.unit_id;
    tu.description = u.description;
    tu.state = u.sm.state();
    tu.times = u.times;
    tu.cancel_requested = u.cancel_requested;
    tu.attempts = u.attempts;
    tu.cores = d.cores;
    tu.requeues = d.requeues;
    transfer->units.push_back(std::move(tu));
  }

  // The facade's unfinished count must never dip while units are between
  // shards (wait_all_units would return early): count them in transit
  // before this shard's publish stops counting them. The target releases
  // after the publish that makes them visible there.
  in_transit_units_.fetch_add(
      static_cast<std::int64_t>(transfer->units.size()),
      std::memory_order_relaxed);

  for (const auto& tu : transfer->units) {
    dirty_units_.erase(tu.unit_id);
    removed_units_.insert(tu.unit_id);
    units_.erase(tu.unit_id);
  }
  dirty_pilots_.erase(c.pilot_id);
  removed_pilots_.insert(c.pilot_id);
  pilots_.erase(it);

  // Order matters: the install must land in the target's queue *before*
  // the router repin becomes observable to other appliers, so a command
  // forwarded because of the new pin can never be applied there first
  // (the MPSC queue preserves completed-push order).
  peers_[static_cast<std::size_t>(c.target_shard)]->ctrl().post_forward(
      cmd::Command{cmd::CmdInstallPilot{transfer}});
  router_.pin(c.pilot_id, c.target_shard);
  for (const auto& tu : transfer->units) {
    router_.pin(tu.unit_id, c.target_shard);
  }
  if (obs_metrics_ != nullptr) {
    obs_metrics_->counter("pcs.pilot_moves").inc();
  }
  PA_LOG(kInfo, "pcs") << "moved pilot " << c.pilot_id << " with "
                       << transfer->units.size() << " bound units: shard "
                       << index_ << " -> " << c.target_shard;
}

void ServiceShard::journal_adopted_pilot(const std::string& pilot_id,
                                         const PilotRecord& rec) {
  // Re-journal the legal live-path chain into this shard's WAL so a
  // recovery that merges per-shard images sees the pilot here; the
  // source shard's departure needs no record (merged recovery dedupes by
  // id and terminal states win).
  const double now = runtime_.now();
  journal_->pilot_submitted(pilot_id, rec.description, rec.restarts_used,
                            now);
  journal_->pilot_state(pilot_id, PilotState::kSubmitted, 0, "", now);
  if (rec.sm.state() == PilotState::kActive) {
    journal_->pilot_state(pilot_id, PilotState::kActive, rec.total_cores,
                          rec.site, now);
  }
}

void ServiceShard::journal_adopted_unit(const std::string& unit_id,
                                        const UnitRecord& rec) {
  const double now = runtime_.now();
  journal_->unit_submitted(unit_id, rec.description, now);
  journal_->unit_state(unit_id, UnitState::kPending, now);
  journal_->unit_bound(unit_id, rec.pilot_id, now);
  const UnitState state = rec.sm.state();
  if (state == UnitState::kStagingIn) {
    journal_->unit_state(unit_id, UnitState::kStagingIn, now);
    return;
  }
  journal_->unit_state(unit_id, UnitState::kScheduled, now);
  if (state == UnitState::kRunning) {
    journal_->unit_state(unit_id, UnitState::kRunning, now);
  }
}

void ServiceShard::apply(cmd::CmdInstallPilot& c) {
  PA_CHECK_MSG(c.transfer != nullptr, "install without transfer payload");
  const cmd::PilotTransfer& t = *c.transfer;
  PA_CHECK_MSG(pilots_.find(t.pilot_id) == pilots_.end(),
               "moved pilot already present: " << t.pilot_id);

  PilotRecord rec;
  rec.description = t.description;
  rec.tenant = tenant_of(t.description);
  rec.submit_time = t.submit_time;
  rec.active_time = t.active_time;
  rec.total_cores = t.total_cores;
  rec.site = t.site;
  rec.restarts_used = t.restarts_used;
  // lint:allow-state-reset — adoption rebuilds the machine at the moved
  // pilot's carried state; its history lives in the source shard's WAL
  // and the adoption chain journaled below.
  rec.sm = PilotStateMachine(t.state);
  rec.router_pinned = true;  // the source pinned the router to us
  auto [pit, inserted] = pilots_.emplace(t.pilot_id, std::move(rec));
  PA_CHECK(inserted);
  if (journal_ != nullptr) {
    journal_adopted_pilot(t.pilot_id, pit->second);
  }
  pit->second.sm.observe([this, pilot_id = t.pilot_id](PilotState /*from*/,
                                                       PilotState to) {
    if (journal_ != nullptr) {
      const auto& p = pilots_.at(pilot_id);
      journal_->pilot_state(pilot_id, to, p.total_cores, p.site,
                            runtime_.now());
    }
    dirty_pilots_.insert(pilot_id);
  });
  dirty_pilots_.insert(t.pilot_id);

  if (pit->second.sm.state() == PilotState::kActive) {
    std::vector<WorkloadManager::DetachedUnit> bound;
    bound.reserve(t.units.size());
    for (const auto& tu : t.units) {
      bound.push_back(WorkloadManager::DetachedUnit{tu.unit_id, tu.cores,
                                                    tu.requeues});
    }
    workload_.adopt_pilot(t.pilot_id, t.site, t.total_cores,
                          t.description.priority,
                          t.description.cost_per_core_hour,
                          t.active_time + t.description.walltime, bound);
  } else {
    // Units bind only to ACTIVE pilots, so a SUBMITTED pilot moves alone.
    PA_CHECK_MSG(t.units.empty(),
                 "non-active moved pilot carries bound units");
  }

  for (const auto& tu : t.units) {
    UnitRecord u;
    u.description = tu.description;
    u.tenant = tenant_of(tu.description);
    u.times = tu.times;
    u.pilot_id = t.pilot_id;
    u.cancel_requested = tu.cancel_requested;
    u.attempts = tu.attempts;
    // lint:allow-state-reset — same adoption rationale as the pilot
    // machine above; attempt tags are carried, so stale completions from
    // superseded attempts stay ignored after the move.
    u.sm = UnitStateMachine(tu.state);
    u.router_pinned = true;
    auto [uit, uinserted] = units_.emplace(tu.unit_id, std::move(u));
    PA_CHECK(uinserted);
    if (journal_ != nullptr) {
      journal_adopted_unit(tu.unit_id, uit->second);
    }
    uit->second.sm.observe(make_unit_observer(tu.unit_id));
    dirty_units_.insert(tu.unit_id);
  }
  pending_transit_release_ += static_cast<std::int64_t>(t.units.size());
  PA_LOG(kInfo, "pcs") << "installed pilot " << t.pilot_id << " with "
                       << t.units.size() << " bound units on shard "
                       << index_ << " (from shard " << t.source_shard
                       << ")";
}

// ---------------------------------------------------------------------------
// Batch end: schedule, publish, release in-transit units.
// ---------------------------------------------------------------------------

void ServiceShard::on_batch_end() {
  run_schedule_cycle();
  publish_snapshot();
  if (pending_transit_release_ > 0) {
    // Only after the publish above: the adopted units are now visible in
    // this shard's unfinished count, so the facade-wide sum never dips.
    in_transit_units_.fetch_sub(pending_transit_release_,
                                std::memory_order_relaxed);
    pending_transit_release_ = 0;
  }
}

void ServiceShard::publish_snapshot() {
  if (dirty_pilots_.empty() && dirty_units_.empty() &&
      removed_pilots_.empty() && removed_units_.empty()) {
    return;  // idle tick: nothing changed
  }
  check::MutexLock lock(snapshot_mutex_);
  ReadModel& m = model_;
  // Removals first (cross-shard moves): the authoritative records are
  // gone from this shard, so drop their read-model entries and stop
  // counting the non-final ones here (the in-transit counter carries
  // them until the target publishes).
  for (const auto& pid : removed_pilots_) {
    m.pilot_states.erase(pid);
  }
  for (const auto& uid : removed_units_) {
    const auto it = m.units.find(uid);
    if (it != m.units.end()) {
      if (!is_final(it->second.state)) {
        --m.unfinished;
      }
      m.units.erase(it);
    }
  }
  for (const auto& pid : dirty_pilots_) {
    m.pilot_states[pid] = pilots_.at(pid).sm.state();
  }
  for (const auto& uid : dirty_units_) {
    const auto& rec = units_.at(uid);
    auto [it, inserted] = m.units.try_emplace(uid);
    const bool was_final = !inserted && is_final(it->second.state);
    it->second.state = rec.sm.state();
    it->second.times = rec.times;
    const bool now_final = is_final(it->second.state);
    if (inserted) {
      if (!now_final) {
        ++m.unfinished;
      }
    } else if (!was_final && now_final) {
      --m.unfinished;
    }
  }
  removed_pilots_.clear();
  removed_units_.clear();
  dirty_pilots_.clear();
  dirty_units_.clear();
}

}  // namespace pa::core
