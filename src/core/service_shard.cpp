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
      next_pilot_id_(std::move(next_pilot_id)) {}

void ServiceShard::start(std::vector<ServiceShard*> peers) {
  // The apply thread reads peers_ on every batch end, timer ticks
  // included, so the fan-out is written before the thread starts.
  peers_ = std::move(peers);
  Ctrl::Options options;
  options.threaded = !runtime_.single_threaded();
  options.clock = [this]() { return runtime_.now(); };
  ctrl_ = std::make_unique<Ctrl>(
      [this](cmd::Command& command) { apply_command(command); },
      [this]() { on_batch_end(); }, std::move(options));
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
    // it here so the facade's routed writes find the owner.
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
  // enforces this shape). They capture *this* shard's queue: pilots never
  // change shard.
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
  if (instruments_.pilots_submitted != nullptr) {
    instruments_.pilots_submitted->inc();
  }
  runtime_.start_pilot(pilot_id, description, std::move(callbacks));
  PA_LOG(kInfo, "pcs") << "submitted pilot " << pilot_id << " to "
                       << description.resource_url;
}

void ServiceShard::apply(cmd::CmdPilotActive& c) {
  auto& rec = pilot_record(c.pilot_id);
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
  if (instruments_.pilots_active != nullptr) {
    instruments_.pilots_active->inc();
    instruments_.pilot_startup->record(startup);
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
  auto& rec = pilot_record(pilot_id);
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
      if (instruments_.unit_requeues != nullptr) {
        instruments_.unit_requeues->inc();
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
        if (instruments_.units_failed_requeue_limit != nullptr) {
          instruments_.units_failed_requeue_limit->inc();
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
  if (instruments_.units_submitted != nullptr) {
    instruments_.units_submitted->inc();
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
  if (it == units_.end() || c.attempt != it->second.attempts) {
    // Barrier of a superseded dispatch: dispatched units never move, so
    // a unit this shard no longer holds was requeued and handed over.
    return;
  }
  auto& unit = it->second;
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
  if (it == units_.end() || c.attempt != it->second.attempts) {
    // Completion of a superseded attempt (a unit this shard no longer
    // holds was requeued and handed over: dispatched units never move).
    return;
  }
  auto& unit = it->second;
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
  if (instruments_.units_done == nullptr) {
    return;
  }
  if (done) {
    instruments_.units_done->inc();
    instruments_.unit_wait->record(unit.times.wait_time());
    instruments_.unit_exec->record(unit.times.exec_time());
  } else if (failed) {
    instruments_.units_failed->inc();
  } else {
    instruments_.units_canceled->inc();
  }
}

void ServiceShard::apply(cmd::CmdCancelUnit& c) {
  // NotFound also answers a cancel that raced a hand-over; the facade
  // re-routes it (pilot_compute_service.cpp cancel_unit).
  auto& unit = unit_record(c.unit_id);
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
  obs::MetricsRegistry* m = c.metrics;
  if (m == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  instruments_.pilots_submitted = &m->counter("pcs.pilots_submitted");
  instruments_.pilots_active = &m->counter("pcs.pilots_active");
  instruments_.pilot_startup = &m->histogram(
      "pcs.pilot_startup", kLatencyMinSeconds, kLatencyMaxSeconds);
  instruments_.units_submitted = &m->counter("pcs.units_submitted");
  instruments_.units_done = &m->counter("pcs.units_done");
  instruments_.units_failed = &m->counter("pcs.units_failed");
  instruments_.units_canceled = &m->counter("pcs.units_canceled");
  instruments_.unit_requeues = &m->counter("pcs.unit_requeues");
  instruments_.units_failed_requeue_limit =
      &m->counter("pcs.units_failed_requeue_limit");
  instruments_.units_handed_over = &m->counter("pcs.units_handed_over");
  instruments_.unit_wait = &m->histogram("pcs.unit_wait", kLatencyMinSeconds,
                                         kLatencyMaxSeconds);
  instruments_.unit_exec = &m->histogram("pcs.unit_exec", kLatencyMinSeconds,
                                         kLatencyMaxSeconds);
}

void ServiceShard::apply(cmd::CmdAttachJournal& c) {
  journal_ = c.journal;
  departed_units_.clear();  // a new stream holds none of them
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
// Hand-over: PENDING units move to shards with idle cores.
// ---------------------------------------------------------------------------

cmd::CmdAdoptUnits ServiceShard::take_for_hand_over(int free_cores) {
  auto adopt = cmd::CmdAdoptUnits{};
  for (auto& taken : workload_.take_queued_units(free_cores)) {
    const auto it = units_.find(taken.unit_id);
    PA_CHECK_MSG(it != units_.end(), "queued unit without record");
    UnitRecord& u = it->second;
    adopt.units.push_back(cmd::HandedOverUnit{
        taken.unit_id, std::move(u.description), std::move(u.tenant),
        u.attempts, u.times, taken.requeues, u.handovers + 1});
    units_.erase(it);
    dirty_units_.erase(taken.unit_id);
    removed_units_.insert(taken.unit_id);
    if (journal_ != nullptr) {
      departed_units_.insert(taken.unit_id);
    }
  }
  // The facade's unfinished count must never dip while units are between
  // shards: count them in transit before this shard's publish stops
  // counting them. The thief releases them after the publish that makes
  // them visible there.
  in_transit_units_.fetch_add(static_cast<std::int64_t>(adopt.units.size()),
                              std::memory_order_relaxed);
  advert_queued_.store(workload_.queued_units(), std::memory_order_relaxed);
  return adopt;
}

void ServiceShard::post_adopt(ServiceShard& thief, cmd::CmdAdoptUnits adopt) {
  std::vector<std::pair<std::string, int>> owners;
  owners.reserve(adopt.units.size());
  for (const auto& u : adopt.units) {
    owners.emplace_back(u.unit_id, u.handovers);
  }
  // Order matters: the adopt must sit in the thief's queue before the
  // repin is observable, so a routed write that follows the new owner
  // entry is applied there after the adoption (the MPSC queue preserves
  // completed-push order). The hand-over count orders the pins, so a
  // thief that hands a unit on before this repin lands still wins.
  if (!thief.ctrl().post_forward(cmd::Command{std::move(adopt)})) {
    // Only at teardown: hand-overs stop with shutdown, before any plane.
    in_transit_units_.fetch_sub(static_cast<std::int64_t>(owners.size()),
                                std::memory_order_relaxed);
    PA_LOG(kWarn, "pcs") << "shard " << thief.index()
                         << " stopped; dropped " << owners.size()
                         << " handed-over units";
    return;
  }
  for (const auto& [unit_id, handovers] : owners) {
    router_.pin(unit_id, thief.index(), handovers);
  }
  if (instruments_.units_handed_over != nullptr) {
    instruments_.units_handed_over->inc(owners.size());
  }
}

void ServiceShard::apply(cmd::CmdRequestUnits& c) {
  // Always answer: the adopt, empty or not, releases the thief's slot.
  ServiceShard& thief = *peers_[static_cast<std::size_t>(c.thief_shard)];
  post_adopt(thief, take_for_hand_over(c.free_cores));
}

void ServiceShard::apply(cmd::CmdAdoptUnits& c) {
  adopt_pending_.store(false, std::memory_order_release);
  if (c.units.empty()) {
    return;  // the peer had nothing that fits; declined_free_cores_ holds
  }
  declined_free_cores_ = 0;
  const double now = runtime_.now();
  for (auto& h : c.units) {
    // A unit returning to a shard it left resumes the record this
    // shard's stream already holds (PENDING, unbound); any other is
    // journaled as an adoption chain (submitted + PENDING). Merged
    // recovery dedupes by id, and terminal states win.
    const bool returning = departed_units_.erase(h.unit_id) > 0;
    if (journal_ != nullptr && !returning) {
      journal_->unit_submitted(h.unit_id, h.description, now);
      journal_->unit_state(h.unit_id, UnitState::kPending, now);
    }
    workload_.enqueue_unit(h.unit_id, h.description, h.requeues);
    UnitRecord u;
    u.description = std::move(h.description);
    u.tenant = std::move(h.tenant);
    u.times = h.times;
    u.attempts = h.attempts;
    u.handovers = h.handovers;
    // Reach PENDING before observing: the unit's observers already saw
    // NEW -> PENDING on the shard it was submitted to.
    u.sm.transition(UnitState::kPending);
    auto [uit, inserted] = units_.emplace(h.unit_id, std::move(u));
    PA_CHECK_MSG(inserted, "handed-over unit already present: " << h.unit_id);
    uit->second.sm.observe(make_unit_observer(h.unit_id));
    dirty_units_.insert(h.unit_id);
  }
  pending_transit_release_ += static_cast<std::int64_t>(c.units.size());
}

void ServiceShard::balance_with_peers() {
  const std::size_t queued = workload_.queued_units();
  const int free_cores = workload_.max_free_cores();
  advert_queued_.store(queued, std::memory_order_relaxed);
  advert_free_cores_.store(free_cores, std::memory_order_relaxed);
  if (shut_down_.load(std::memory_order_relaxed)) {
    return;
  }
  if (queued > 0) {
    // Case 1, push: the idle peer (empty queue) with the most free cores
    // on one pilot gets what fits there.
    ServiceShard* thief = nullptr;
    int most_free = 0;
    for (ServiceShard* peer : peers_) {
      const int peer_free =
          peer->advert_free_cores_.load(std::memory_order_relaxed);
      if (peer != this && peer_free > most_free &&
          peer->advert_queued_.load(std::memory_order_relaxed) == 0) {
        thief = peer;
        most_free = peer_free;
      }
    }
    if (thief == nullptr ||
        thief->adopt_pending_.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    cmd::CmdAdoptUnits adopt = take_for_hand_over(most_free);
    if (adopt.units.empty()) {
      thief->adopt_pending_.store(false, std::memory_order_release);
      return;
    }
    post_adopt(*thief, std::move(adopt));
    return;
  }
  // Case 2, request: this shard is idle; ask the peer with the longest
  // queue, unless a peer already declined these free cores.
  if (free_cores <= declined_free_cores_) {
    return;
  }
  ServiceShard* victim = nullptr;
  std::size_t most_queued = 0;
  for (ServiceShard* peer : peers_) {
    const std::size_t peer_queued =
        peer->advert_queued_.load(std::memory_order_relaxed);
    if (peer != this && peer_queued > most_queued) {
      victim = peer;
      most_queued = peer_queued;
    }
  }
  if (victim == nullptr ||
      adopt_pending_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  declined_free_cores_ = free_cores;  // cleared when units arrive
  victim->ctrl().post_forward(
      cmd::Command{cmd::CmdRequestUnits{index_, free_cores}});
}

// ---------------------------------------------------------------------------
// Batch end: schedule, publish, release in-transit units.
// ---------------------------------------------------------------------------

void ServiceShard::on_batch_end() {
  run_schedule_cycle();
  if (peers_.size() > 1) {
    balance_with_peers();
  }
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
      removed_units_.empty()) {
    return;  // idle tick: nothing changed
  }
  check::MutexLock lock(snapshot_mutex_);
  ReadModel& m = model_;
  // Removals first (hand-overs): the authoritative records are gone from
  // this shard, so drop their read-model entries and stop counting them
  // here (the in-transit counter carries them until the thief publishes).
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
  removed_units_.clear();
  dirty_pilots_.clear();
  dirty_units_.clear();
}

}  // namespace pa::core
