#include "pa/core/pilot_compute_service.h"

#include <exception>
#include <memory>
#include <utility>

#include "pa/common/error.h"
#include "pa/common/log.h"

namespace pa::core {

PilotState Pilot::state() const {
  PA_CHECK_MSG(service_ != nullptr, "state() on invalid Pilot");
  return service_->pilot_state(id_);
}

void Pilot::cancel() {
  PA_CHECK_MSG(service_ != nullptr, "cancel() on invalid Pilot");
  service_->cancel_pilot(id_);
}

void Pilot::wait_active(double timeout_seconds) {
  PA_CHECK_MSG(service_ != nullptr, "wait_active() on invalid Pilot");
  service_->wait_pilot_active(id_, timeout_seconds);
}

UnitState ComputeUnit::state() const {
  PA_CHECK_MSG(service_ != nullptr, "state() on invalid ComputeUnit");
  return service_->unit_state(id_);
}

UnitTimes ComputeUnit::times() const {
  PA_CHECK_MSG(service_ != nullptr, "times() on invalid ComputeUnit");
  return service_->unit_times(id_);
}

void ComputeUnit::cancel() {
  PA_CHECK_MSG(service_ != nullptr, "cancel() on invalid ComputeUnit");
  service_->cancel_unit(id_);
}

UnitState ComputeUnit::wait(double timeout_seconds) {
  PA_CHECK_MSG(service_ != nullptr, "wait() on invalid ComputeUnit");
  return service_->wait_unit(id_, timeout_seconds);
}

PilotComputeService::PilotComputeService(Runtime& runtime, Options options)
    : runtime_(runtime), router_(options.shards) {
  shards_.reserve(static_cast<std::size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    shards_.push_back(std::make_unique<ServiceShard>(
        runtime_, i, options.scheduler_policy, router_, shut_down_,
        in_transit_units_, [this]() { return pilot_ids_.next(); }));
  }
  std::vector<ServiceShard*> peers;
  peers.reserve(shards_.size());
  for (const auto& s : shards_) {
    peers.push_back(s.get());
  }
  for (const auto& s : shards_) {
    s->start(peers);
  }
}

PilotComputeService::PilotComputeService(Runtime& runtime,
                                         const std::string& scheduler_policy)
    : PilotComputeService(runtime, Options{scheduler_policy, 1}) {}

PilotComputeService::~PilotComputeService() {
  try {
    shutdown();
  } catch (...) {
    // Destructor must not throw; shutdown failures at teardown are moot.
  }
  // Stop every apply context before any shard destructs: shards hold raw
  // peer pointers, and a still-running apply thread could post into a
  // peer mid-teardown.
  for (const auto& s : shards_) {
    s->stop();
  }
}

// ---------------------------------------------------------------------------
// Producer side: validate, admit, mint ids, route, post commands.
// ---------------------------------------------------------------------------

void PilotComputeService::post_all_and_wait(const cmd::Command& command) {
  for (const auto& s : shards_) {
    cmd::Command copy = command;
    s->ctrl().post_and_wait(std::move(copy));
  }
}

void PilotComputeService::attach_data_service(DataServiceInterface* data) {
  post_all_and_wait(cmd::Command{cmd::CmdAttachData{data}});
}

void PilotComputeService::attach_observability(obs::Tracer* tracer,
                                               obs::MetricsRegistry* metrics) {
  post_all_and_wait(cmd::Command{cmd::CmdAttachObservability{tracer, metrics}});
}

void PilotComputeService::attach_journal(JournalSink* journal) {
  PA_REQUIRE_ARG(shards_.size() == 1,
                 "attach_journal on a sharded service; use "
                 "attach_journal_shards (one stream per shard)");
  shards_[0]->ctrl().post_and_wait(cmd::Command{cmd::CmdAttachJournal{journal}});
}

void PilotComputeService::attach_journal_shards(
    const std::vector<JournalSink*>& journals) {
  PA_REQUIRE_ARG(journals.size() == shards_.size(),
                 "need exactly one journal sink per shard");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->ctrl().post_and_wait(
        cmd::Command{cmd::CmdAttachJournal{journals[i]}});
  }
}

void PilotComputeService::attach_admission(AdmissionInterface* admission,
                                           bool fair_share) {
  // Store the producer-side copy first: a submit racing this attach may
  // miss the admission check once, but never sees a detached interface
  // that a shard still reports to.
  admission_.store(admission, std::memory_order_release);
  post_all_and_wait(cmd::Command{cmd::CmdAttachAdmission{admission,
                                                         fair_share}});
}

void PilotComputeService::set_max_unit_requeues(int max_requeues) {
  post_all_and_wait(cmd::Command{cmd::CmdSetMaxRequeues{max_requeues}});
}

void PilotComputeService::set_requeue_on_pilot_failure(bool requeue) {
  post_all_and_wait(cmd::Command{cmd::CmdSetRequeuePolicy{requeue}});
}

void PilotComputeService::set_pilot_restart_policy(int max_restarts) {
  PA_REQUIRE_ARG(max_restarts >= 0, "max_restarts must be >= 0");
  post_all_and_wait(cmd::Command{cmd::CmdSetRestartPolicy{max_restarts}});
}

void PilotComputeService::observe_units(UnitObserver observer) {
  PA_REQUIRE_ARG(static_cast<bool>(observer), "null observer");
  post_all_and_wait(cmd::Command{cmd::CmdObserveUnits{std::move(observer)}});
}

template <typename Description>
std::string PilotComputeService::normalize_tenant(Description& description) {
  const std::string tenant = tenant_of(description);
  // Non-default tenants are stamped into attributes so the identity
  // survives journal round-trips; the default stays implicit (identical
  // journal bytes for tenant-unaware applications).
  if (tenant != kDefaultTenant &&
      description.attributes.get_string("tenant", "") != tenant) {
    description.attributes.set("tenant", tenant);
  }
  return tenant;
}

Pilot PilotComputeService::submit_pilot(const PilotDescription& description) {
  PA_REQUIRE_ARG(description.nodes > 0, "pilot needs nodes");
  PA_REQUIRE_ARG(description.walltime > 0.0, "pilot needs walltime");
  PA_REQUIRE_ARG(!shut_down_.load(std::memory_order_relaxed),
                 "service is shut down");
  PilotDescription desc = description;
  const std::string tenant = normalize_tenant(desc);
  AdmissionInterface* adm = admission_.load(std::memory_order_acquire);
  if (adm != nullptr) {
    adm->admit_pilot(tenant);  // throws pa::QuotaExceeded when over quota
  }
  const std::string pilot_id = pilot_ids_.next();
  try {
    owner_of(pilot_id).ctrl().post_and_wait(
        cmd::Command{cmd::CmdSubmitPilot{pilot_id, desc, 0}});
  } catch (...) {
    if (adm != nullptr) {
      adm->pilot_released(tenant);  // the admitted slot was never used
    }
    throw;
  }
  return Pilot(pilot_id, this);
}

ComputeUnit PilotComputeService::submit_unit(
    const ComputeUnitDescription& description) {
  PA_REQUIRE_ARG(!shut_down_.load(std::memory_order_relaxed),
                 "service is shut down");
  PA_REQUIRE_ARG(description.cores > 0, "unit needs cores");
  ComputeUnitDescription desc = description;
  const std::string tenant = normalize_tenant(desc);
  AdmissionInterface* adm = admission_.load(std::memory_order_acquire);
  if (adm != nullptr) {
    adm->admit_unit(tenant);  // throws pa::QuotaExceeded when over quota
  }
  const std::string unit_id = unit_ids_.next();
  auto burst = cmd::CmdSubmitUnits{};
  burst.units.push_back(cmd::SubmittedUnit{unit_id, std::move(desc)});
  try {
    owner_of(unit_id).ctrl().post_and_wait(cmd::Command{std::move(burst)});
  } catch (...) {
    if (adm != nullptr) {
      adm->unit_finalized(tenant, UnitState::kCanceled, -1.0);
    }
    throw;
  }
  return ComputeUnit(unit_id, this);
}

std::vector<ComputeUnit> PilotComputeService::submit_units(
    const std::vector<ComputeUnitDescription>& descriptions) {
  std::vector<ComputeUnit> out;
  out.reserve(descriptions.size());
  // New ids route round-robin (no owner-table entry yet), so each shard
  // gets an even share.
  std::vector<cmd::CmdSubmitUnits> bursts(shards_.size());
  for (auto& burst : bursts) {
    burst.units.reserve(descriptions.size() / shards_.size() + 1);
  }
  AdmissionInterface* adm = admission_.load(std::memory_order_acquire);
  std::exception_ptr refusal;
  try {
    for (const auto& d : descriptions) {
      PA_REQUIRE_ARG(!shut_down_.load(std::memory_order_relaxed),
                     "service is shut down");
      PA_REQUIRE_ARG(d.cores > 0, "unit needs cores");
      ComputeUnitDescription desc = d;
      const std::string tenant = normalize_tenant(desc);
      if (adm != nullptr) {
        adm->admit_unit(tenant);  // rejects mid-burst; earlier units stand
      }
      std::string unit_id = unit_ids_.next();
      const auto shard =
          static_cast<std::size_t>(router_.shard_for_id(unit_id));
      out.push_back(ComputeUnit(unit_id, this));
      bursts[shard].units.push_back(
          cmd::SubmittedUnit{std::move(unit_id), std::move(desc)});
    }
  } catch (...) {
    refusal = std::current_exception();
  }
  // One command per touched shard, posted to all before waiting on any,
  // so the shards apply their bursts in parallel; each wait returns after
  // that shard's batch end published its units.
  std::vector<ServiceShard::Ctrl::Ticket> tickets(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!bursts[i].units.empty()) {
      tickets[i] = shards_[i]->ctrl().post_for_wait(
          cmd::Command{std::move(bursts[i])});
    }
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (tickets[i] == nullptr) {
      continue;
    }
    try {
      shards_[i]->ctrl().wait(tickets[i]);
    } catch (...) {
      if (!refusal) {
        refusal = std::current_exception();
      }
    }
  }
  if (refusal) {
    std::rethrow_exception(refusal);
  }
  return out;
}

void PilotComputeService::cancel_pilot(const std::string& pilot_id) {
  if (is_final(pilot_state(pilot_id))) {
    return;
  }
  // Cancel outside the apply context: the runtime may need to synchronize
  // with worker threads. Its on_terminated callback posts the state change
  // to the shard that started the pilot; the fence flushes a synchronously-
  // fired termination so the caller observes it.
  runtime_.cancel_pilot(pilot_id);
  owner_of(pilot_id).ctrl().post_and_wait(cmd::Command{cmd::CmdFence{}});
}

void PilotComputeService::cancel_unit(const std::string& unit_id) {
  // A queued unit may be handed to another shard between routing and
  // apply. The old owner then answers NotFound, and the hand-over has
  // already repinned the unit, so follow the owner table until it stops
  // changing.
  int shard = router_.shard_for_id(unit_id);
  for (;;) {
    try {
      shards_[static_cast<std::size_t>(shard)]->ctrl().post_and_wait(
          cmd::Command{cmd::CmdCancelUnit{unit_id}});
      return;
    } catch (const NotFound&) {
      const int owner = router_.shard_for_id(unit_id);
      if (owner == shard) {
        throw;
      }
      shard = owner;
    }
  }
}

void PilotComputeService::shutdown() {
  auto to_cancel = std::make_shared<std::vector<std::string>>();
  bool any_accepted = false;
  for (const auto& s : shards_) {
    if (s->ctrl().post_and_wait(cmd::Command{cmd::CmdShutdown{to_cancel}})) {
      any_accepted = true;
    }
  }
  if (!any_accepted) {
    return;  // every control plane already stopped (repeat teardown)
  }
  for (const auto& id : *to_cancel) {
    runtime_.cancel_pilot(id);
  }
  if (!to_cancel->empty()) {
    post_all_and_wait(cmd::Command{cmd::CmdFence{}});
  }
}

void PilotComputeService::advance_ids(std::uint64_t next_pilot,
                                      std::uint64_t next_unit) {
  pilot_ids_.skip_to(next_pilot);
  unit_ids_.skip_to(next_unit);
}

// ---------------------------------------------------------------------------
// Read side: merged over the per-shard published snapshots.
// ---------------------------------------------------------------------------

PilotState PilotComputeService::pilot_state(const std::string& pilot_id) const {
  // Pilots never change shard; the scan covers ids read before their
  // owner-table entry (a restart's fresh id) and unknown ids.
  PilotState state;
  if (owner_of(pilot_id).try_pilot_state(pilot_id, &state)) {
    return state;
  }
  for (const auto& s : shards_) {
    if (s->try_pilot_state(pilot_id, &state)) {
      return state;
    }
  }
  throw NotFound("unknown pilot: " + pilot_id);
}

bool PilotComputeService::try_unit_snap(const std::string& unit_id,
                                        ServiceShard::UnitSnap* out) const {
  if (owner_of(unit_id).try_unit(unit_id, out)) {
    return true;
  }
  for (const auto& s : shards_) {
    if (s->try_unit(unit_id, out)) {
      return true;
    }
  }
  return false;
}

ServiceShard::UnitSnap PilotComputeService::unit_snap(
    const std::string& unit_id) const {
  ServiceShard::UnitSnap snap;
  if (try_unit_snap(unit_id, &snap)) {
    return snap;
  }
  if (shards_.size() > 1) {
    // Mid-hand-over visibility gap: the victim published the unit's
    // departure, and the adopt waits in the owner's queue. Fencing the
    // owner flushes it (the repin follows the post, so the fence queues
    // behind the adopt).
    owner_of(unit_id).ctrl().post_and_wait(cmd::Command{cmd::CmdFence{}});
    if (try_unit_snap(unit_id, &snap)) {
      return snap;
    }
  }
  throw NotFound("unknown unit: " + unit_id);
}

UnitState PilotComputeService::unit_state(const std::string& unit_id) const {
  return unit_snap(unit_id).state;
}

UnitTimes PilotComputeService::unit_times(const std::string& unit_id) const {
  return unit_snap(unit_id).times;
}

std::size_t PilotComputeService::total_units() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    total += s->total_units();
  }
  return total;
}

std::size_t PilotComputeService::unfinished_units() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    total += s->unfinished_units();
  }
  // Units between shards are in no snapshot; counting them here means a
  // concurrent wait_all_units can overcount transiently but never sees a
  // false zero.
  const std::int64_t transit =
      in_transit_units_.load(std::memory_order_acquire);
  if (transit > 0) {
    total += static_cast<std::size_t>(transit);
  }
  return total;
}

ServiceMetrics PilotComputeService::metrics() const {
  ServiceMetrics out;
  for (const auto& s : shards_) {
    s->merge_metrics(&out);
  }
  return out;
}

void PilotComputeService::wait_all_units(double timeout_seconds) {
  runtime_.drive_until([this]() { return unfinished_units() == 0; },
                       timeout_seconds);
}

void PilotComputeService::wait_pilot_active(const std::string& pilot_id,
                                            double timeout_seconds) {
  runtime_.drive_until(
      [this, &pilot_id]() {
        const PilotState s = pilot_state(pilot_id);
        if (s == PilotState::kFailed || s == PilotState::kCanceled) {
          throw InvalidStateError("pilot " + pilot_id +
                                  " terminated before becoming active");
        }
        return s == PilotState::kActive || s == PilotState::kDone;
      },
      timeout_seconds);
}

UnitState PilotComputeService::wait_unit(const std::string& unit_id,
                                         double timeout_seconds) {
  runtime_.drive_until(
      [this, &unit_id]() { return is_final(unit_state(unit_id)); },
      timeout_seconds);
  return unit_state(unit_id);
}

}  // namespace pa::core
