#include "pa/core/workload_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "pa/common/error.h"
#include "pa/obs/metrics.h"

namespace pa::core {
namespace {

ComputeUnitDescription unit_desc(int cores = 1, double duration = 1.0) {
  ComputeUnitDescription d;
  d.cores = cores;
  d.duration = duration;
  return d;
}

TEST(WorkloadManager, SchedulesQueuedUnitsOntoPilot) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9);
  wm.enqueue_unit("u1", unit_desc(2));
  wm.enqueue_unit("u2", unit_desc(2));
  wm.enqueue_unit("u3", unit_desc(2));
  const auto out = wm.schedule_pass(0.0, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(wm.free_cores("p1"), 0);
  EXPECT_EQ(wm.queued_units(), 1u);
  EXPECT_EQ(wm.bound_pilot("u1"), "p1");
}

TEST(WorkloadManager, UnitFinishedReleasesCores) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.add_pilot("p1", "a", 2, 0, 0.0, 1e9);
  wm.enqueue_unit("u1", unit_desc(2));
  wm.schedule_pass(0.0, nullptr);
  EXPECT_EQ(wm.free_cores("p1"), 0);
  wm.unit_finished("u1");
  EXPECT_EQ(wm.free_cores("p1"), 2);
  EXPECT_THROW(wm.bound_pilot("u1"), pa::NotFound);
}

TEST(WorkloadManager, RemovePilotReturnsOrphans) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9);
  wm.enqueue_unit("u1", unit_desc(2));
  wm.enqueue_unit("u2", unit_desc(2));
  wm.schedule_pass(0.0, nullptr);
  const auto orphans = wm.remove_pilot("p1");
  ASSERT_EQ(orphans.size(), 2u);
  EXPECT_FALSE(wm.has_pilot("p1"));
  EXPECT_EQ(wm.pilot_count(), 0u);
}

TEST(WorkloadManager, RemoveUnknownPilotReturnsEmpty) {
  WorkloadManager wm(make_scheduler("backfill"));
  EXPECT_TRUE(wm.remove_pilot("ghost").empty());
}

TEST(WorkloadManager, RequeueFrontPreservesPriority) {
  WorkloadManager wm(make_scheduler("fifo"));
  wm.enqueue_unit("u1", unit_desc(1));
  wm.enqueue_unit("u2", unit_desc(1));
  // Simulate recovery: u9 re-enters at the front.
  wm.requeue_unit_front("u9", unit_desc(1));
  wm.add_pilot("p1", "a", 1, 0, 0.0, 1e9);
  const auto out = wm.schedule_pass(0.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "u9");
}

TEST(WorkloadManager, RemoveQueuedUnit) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.enqueue_unit("u1", unit_desc(1));
  EXPECT_TRUE(wm.remove_queued_unit("u1"));
  EXPECT_FALSE(wm.remove_queued_unit("u1"));
  EXPECT_EQ(wm.queued_units(), 0u);
}

TEST(WorkloadManager, NoSchedulingWithoutPilots) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.enqueue_unit("u1", unit_desc(1));
  EXPECT_TRUE(wm.schedule_pass(0.0, nullptr).empty());
}

TEST(WorkloadManager, WalltimeExpiryBlocksBinding) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.add_pilot("p1", "a", 4, 0, 0.0, /*walltime_end=*/100.0);
  wm.enqueue_unit("u1", unit_desc(1, /*duration=*/200.0));
  // At t=0, 200s of work does not fit in 100s of remaining walltime.
  EXPECT_TRUE(wm.schedule_pass(0.0, nullptr).empty());
  // A short unit does fit.
  wm.enqueue_unit("u2", unit_desc(1, 50.0));
  const auto out = wm.schedule_pass(0.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "u2");
}

TEST(WorkloadManager, DuplicatePilotRejected) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9);
  EXPECT_THROW(wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9), pa::InvalidArgument);
}

TEST(WorkloadManager, TotalFreeCores) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9);
  wm.add_pilot("p2", "b", 8, 0, 0.0, 1e9);
  EXPECT_EQ(wm.total_free_cores(), 12);
  wm.enqueue_unit("u1", unit_desc(3));
  wm.schedule_pass(0.0, nullptr);
  EXPECT_EQ(wm.total_free_cores(), 9);
}

TEST(WorkloadManager, DataServiceDrivesAffinity) {
  // Minimal in-test data service.
  class FakeData : public DataServiceInterface {
   public:
    double bytes_on_site(const std::string& du,
                         const std::string& site) const override {
      return du == "du-1" && site == "b" ? 1e6 : 0.0;
    }
    double total_bytes(const std::string&) const override { return 1e6; }
    void stage_to_site(const std::string&, const std::string&,
                       std::function<void()> done) override {
      done();
    }
    void register_output(const std::string&, const std::string&) override {}
  };

  WorkloadManager wm(make_scheduler("data-affinity"));
  wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9);
  wm.add_pilot("p2", "b", 4, 0, 0.0, 1e9);
  ComputeUnitDescription d = unit_desc(1);
  d.input_data = {"du-1"};
  wm.enqueue_unit("u1", d);
  FakeData data;
  const auto out = wm.schedule_pass(0.0, &data);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].pilot_id, "p2");
}

TEST(WorkloadManager, PreferredSiteAttributeFlowsThrough) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9);
  wm.add_pilot("p2", "b", 4, 0, 0.0, 1e9);
  ComputeUnitDescription d = unit_desc(1);
  d.attributes.set("preferred_site", std::string("b"));
  wm.enqueue_unit("u1", d);
  const auto out = wm.schedule_pass(0.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].pilot_id, "p2");
}

TEST(WorkloadManager, InvalidInputsRejected) {
  WorkloadManager wm(make_scheduler("backfill"));
  EXPECT_THROW(wm.add_pilot("p", "a", 0, 0, 0.0, 1e9), pa::InvalidArgument);
  EXPECT_THROW(wm.enqueue_unit("u", unit_desc(0)), pa::InvalidArgument);
  EXPECT_THROW(wm.free_cores("ghost"), pa::NotFound);
  EXPECT_THROW(WorkloadManager(nullptr), pa::InvalidArgument);
}

TEST(WorkloadManager, UnitFinishedOnUnboundIsNoOp) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.unit_finished("ghost");  // must not throw (pilot-failure races)
  SUCCEED();
}

TEST(WorkloadManager, RequeueBoundRefusesAfterMax) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.set_max_requeues(2);
  EXPECT_TRUE(wm.requeue_unit_front("u1", unit_desc()));
  EXPECT_EQ(wm.requeue_count("u1"), 1);
  EXPECT_TRUE(wm.requeue_unit_front("u1", unit_desc()));
  EXPECT_EQ(wm.requeue_count("u1"), 2);
  EXPECT_FALSE(wm.requeue_unit_front("u1", unit_desc()));
  // Other units keep their own budget.
  EXPECT_TRUE(wm.requeue_unit_front("u2", unit_desc()));
}

TEST(WorkloadManager, RequeueCountClearedWhenUnitFinishes) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.set_max_requeues(1);
  wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9);
  EXPECT_TRUE(wm.requeue_unit_front("u1", unit_desc()));
  wm.schedule_pass(0.0, nullptr);  // binds u1 to p1
  wm.unit_finished("u1");          // terminal: forget the requeue history
  EXPECT_EQ(wm.requeue_count("u1"), 0);
  EXPECT_TRUE(wm.requeue_unit_front("u1", unit_desc()));
}

TEST(WorkloadManager, RequeueCountClearedWhenQueuedUnitRemoved) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.set_max_requeues(1);
  EXPECT_TRUE(wm.requeue_unit_front("u1", unit_desc()));
  EXPECT_TRUE(wm.remove_queued_unit("u1"));  // cancellation
  EXPECT_EQ(wm.requeue_count("u1"), 0);
}

TEST(WorkloadManager, RequeueUnboundedWhenNegative) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.set_max_requeues(-1);
  // Well past the default bound: -1 really means unbounded.
  for (int i = 0; i < WorkloadManager::kDefaultMaxRequeues + 100; ++i) {
    ASSERT_TRUE(wm.requeue_unit_front("u1", unit_desc()));
  }
  EXPECT_EQ(wm.requeue_count("u1"), WorkloadManager::kDefaultMaxRequeues + 100);
  EXPECT_THROW(wm.set_max_requeues(-2), pa::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Incremental scheduling: dirty flag, skip counter, persistent sorted views.
// ---------------------------------------------------------------------------

TEST(WorkloadManager, CleanPassIsSkipped) {
  obs::MetricsRegistry reg;
  WorkloadManager wm(make_scheduler("backfill"));
  wm.set_metrics(&reg);
  wm.add_pilot("p1", "a", 1, 0, 0.0, 1e9);
  wm.enqueue_unit("u1", unit_desc(1));
  wm.enqueue_unit("u2", unit_desc(1));  // does not fit: stays queued
  EXPECT_TRUE(wm.dirty());
  EXPECT_EQ(wm.schedule_pass(0.0, nullptr).size(), 1u);
  EXPECT_FALSE(wm.dirty());
  // Nothing changed: subsequent passes return immediately, even as time
  // advances (shrinking walltime never enables a placement).
  EXPECT_TRUE(wm.schedule_pass(1.0, nullptr).empty());
  EXPECT_TRUE(wm.schedule_pass(2.0, nullptr).empty());
  EXPECT_EQ(reg.counter("wm.schedule_passes").value(), 1u);
  EXPECT_EQ(reg.counter("wm.schedule_passes_skipped").value(), 2u);
}

TEST(WorkloadManager, CapacityReleaseDirtiesAndReschedules) {
  obs::MetricsRegistry reg;
  WorkloadManager wm(make_scheduler("backfill"));
  wm.set_metrics(&reg);
  wm.add_pilot("p1", "a", 1, 0, 0.0, 1e9);
  wm.enqueue_unit("u1", unit_desc(1));
  wm.enqueue_unit("u2", unit_desc(1));
  wm.schedule_pass(0.0, nullptr);     // binds u1, u2 blocked
  wm.schedule_pass(1.0, nullptr);     // skipped
  wm.unit_finished("u1");             // core freed: dirty again
  EXPECT_TRUE(wm.dirty());
  const auto out = wm.schedule_pass(2.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "u2");
  EXPECT_EQ(reg.counter("wm.schedule_passes").value(), 2u);
  EXPECT_EQ(reg.counter("wm.schedule_passes_skipped").value(), 1u);
}

TEST(WorkloadManager, EnqueueAndPilotChangesDirty) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9);
  wm.schedule_pass(0.0, nullptr);
  EXPECT_FALSE(wm.dirty());
  wm.enqueue_unit("u1", unit_desc(1));
  EXPECT_TRUE(wm.dirty());
  wm.schedule_pass(1.0, nullptr);
  EXPECT_FALSE(wm.dirty());
  wm.add_pilot("p2", "a", 4, 0, 0.0, 1e9);
  EXPECT_TRUE(wm.dirty());
}

TEST(WorkloadManager, RemovingQueuedUnitDirtiesFifoHead) {
  // A blocked FIFO head hides everything behind it; removing it must
  // re-enable a pass, or the queue would stall until unrelated churn.
  WorkloadManager wm(make_scheduler("fifo"));
  wm.add_pilot("p1", "a", 2, 0, 0.0, 1e9);
  wm.enqueue_unit("big", unit_desc(8));    // never fits: blocks the head
  wm.enqueue_unit("small", unit_desc(1));
  EXPECT_TRUE(wm.schedule_pass(0.0, nullptr).empty());
  EXPECT_FALSE(wm.dirty());
  EXPECT_TRUE(wm.remove_queued_unit("big"));
  EXPECT_TRUE(wm.dirty());
  const auto out = wm.schedule_pass(1.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "small");
}

TEST(WorkloadManager, SortedInsertionServesShortestFirst) {
  // The queue is kept in policy order by insertion, so the pass itself
  // never re-sorts — and still picks the shortest unit for the one slot.
  WorkloadManager wm(make_scheduler("shortest-first"));
  wm.add_pilot("p1", "a", 1, 0, 0.0, 1e9);
  wm.enqueue_unit("long", unit_desc(1, 100.0));
  wm.enqueue_unit("short", unit_desc(1, 1.0));
  wm.enqueue_unit("mid", unit_desc(1, 10.0));
  const auto out = wm.schedule_pass(0.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "short");
}

TEST(WorkloadManager, SortedInsertionServesLargestFirst) {
  WorkloadManager wm(make_scheduler("largest-first"));
  wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9);
  wm.enqueue_unit("small", unit_desc(1));
  wm.enqueue_unit("big", unit_desc(4));
  const auto out = wm.schedule_pass(0.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "big");
}

TEST(WorkloadManager, RequeueFrontOrderingSurvivesSubmitBurst) {
  // The failure-recovery path races submit bursts in the event-driven
  // service: a requeued unit must land ahead of units enqueued both
  // before and after the failure, and the next pass must dispatch it
  // first (FCFS position = recovery priority).
  WorkloadManager wm(make_scheduler("fifo"));
  wm.add_pilot("p1", "a", 1, 0, 0.0, 1e9);
  wm.enqueue_unit("victim", unit_desc(1));
  ASSERT_EQ(wm.schedule_pass(0.0, nullptr).size(), 1u);  // victim bound
  wm.enqueue_unit("burst1", unit_desc(1));               // racing burst
  const auto orphans = wm.remove_pilot("p1");            // pilot fails
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0], "victim");
  EXPECT_TRUE(wm.requeue_unit_front("victim", unit_desc(1)));
  wm.enqueue_unit("burst2", unit_desc(1));               // burst continues
  wm.add_pilot("p2", "a", 1, 0, 0.0, 1e9);
  const auto first = wm.schedule_pass(1.0, nullptr);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].unit_id, "victim");  // ahead of the whole burst
  wm.unit_finished("victim");
  const auto second = wm.schedule_pass(2.0, nullptr);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].unit_id, "burst1");  // burst keeps its own order
}

TEST(WorkloadManager, RequeueFrontBeforeEqualsUnderSortedPolicy) {
  // Under an ordered policy "front" means before its equals: the requeued
  // unit already waited once, so it wins ties, but a strictly shorter
  // unit still goes first.
  WorkloadManager wm(make_scheduler("shortest-first"));
  wm.add_pilot("p1", "a", 1, 0, 0.0, 1e9);
  wm.enqueue_unit("five-a", unit_desc(1, 5.0));
  wm.enqueue_unit("one", unit_desc(1, 1.0));
  EXPECT_TRUE(wm.requeue_unit_front("five-b", unit_desc(1, 5.0)));
  auto out = wm.schedule_pass(0.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "one");  // shorter still dominates
  wm.unit_finished("one");
  out = wm.schedule_pass(1.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "five-b");  // requeued wins among equals
}

// ---------------------------------------------------------------------------
// Weighted fair share (deficit round robin) across tenants.
// ---------------------------------------------------------------------------

/// Weight-only admission stub (quotas are TenantRegistry's job; the
/// workload manager consumes nothing but tenant_weight).
class StubAdmission : public AdmissionInterface {
 public:
  void admit_pilot(const std::string&) override {}
  void admit_unit(const std::string&) override {}
  void unit_dispatched(const std::string&, int) override {}
  void unit_finalized(const std::string&, UnitState, double) override {}
  void pilot_released(const std::string&) override {}
  double tenant_weight(const std::string& tenant) const override {
    const auto it = weights.find(tenant);
    return it == weights.end() ? 1.0 : it->second;
  }
  std::map<std::string, double> weights;
};

ComputeUnitDescription tenant_unit(const std::string& tenant, int cores = 1) {
  ComputeUnitDescription d = unit_desc(cores);
  d.tenant = tenant;
  return d;
}

std::map<std::string, int> grants_by_tenant(
    const std::vector<Assignment>& out) {
  std::map<std::string, int> grants;
  for (const auto& a : out) {
    // Unit ids in these tests are "<tenant>-<n>".
    grants[a.unit_id.substr(0, a.unit_id.find('-'))]++;
  }
  return grants;
}

TEST(WorkloadManagerFairShare, EqualWeightsSplitScarceCapacityEvenly) {
  StubAdmission adm;
  WorkloadManager wm(make_scheduler("fifo"));
  wm.set_admission(&adm);
  wm.set_fair_share(true);
  wm.add_pilot("p1", "a", 4, 0, 0.0, 1e9);
  // Tenant "a" floods first; FCFS alone would hand it all four cores.
  for (int i = 0; i < 4; ++i) {
    wm.enqueue_unit("a-" + std::to_string(i), tenant_unit("a"));
  }
  for (int i = 0; i < 4; ++i) {
    wm.enqueue_unit("b-" + std::to_string(i), tenant_unit("b"));
  }
  const auto grants = grants_by_tenant(wm.schedule_pass(0.0, nullptr));
  EXPECT_EQ(grants.at("a"), 2);
  EXPECT_EQ(grants.at("b"), 2);
}

TEST(WorkloadManagerFairShare, GrantsFollowWeights) {
  StubAdmission adm;
  adm.weights["a"] = 3.0;
  adm.weights["b"] = 1.0;
  WorkloadManager wm(make_scheduler("fifo"));
  wm.set_admission(&adm);
  wm.set_fair_share(true);
  wm.add_pilot("p1", "s", 4, 0, 0.0, 1e9);
  for (int i = 0; i < 4; ++i) {
    wm.enqueue_unit("a-" + std::to_string(i), tenant_unit("a"));
    wm.enqueue_unit("b-" + std::to_string(i), tenant_unit("b"));
  }
  const auto grants = grants_by_tenant(wm.schedule_pass(0.0, nullptr));
  EXPECT_EQ(grants.at("a"), 3);
  EXPECT_EQ(grants.at("b"), 1);
}

TEST(WorkloadManagerFairShare, DeficitCarriesAcrossPasses) {
  // One core: each pass grants a single unit, and the unserved tenant's
  // carried deficit makes consecutive passes alternate a, b, a, b.
  StubAdmission adm;
  WorkloadManager wm(make_scheduler("fifo"));
  wm.set_admission(&adm);
  wm.set_fair_share(true);
  wm.add_pilot("p1", "s", 1, 0, 0.0, 1e9);
  for (int i = 0; i < 2; ++i) {
    wm.enqueue_unit("a-" + std::to_string(i), tenant_unit("a"));
    wm.enqueue_unit("b-" + std::to_string(i), tenant_unit("b"));
  }
  auto out = wm.schedule_pass(0.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "a-0");  // tie broken to the first tenant
  wm.unit_finished("a-0");
  out = wm.schedule_pass(1.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "b-0");  // b's carried credit now dominates
  wm.unit_finished("b-0");
  out = wm.schedule_pass(2.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "a-1");
}

TEST(WorkloadManagerFairShare, SingleTenantKeepsPolicyOrderFastPath) {
  // With one distinct tenant the interleave is skipped entirely and the
  // policy's own order stands (here: sorted shortest-first insertion).
  StubAdmission adm;
  WorkloadManager wm(make_scheduler("shortest-first"));
  wm.set_admission(&adm);
  wm.set_fair_share(true);
  wm.add_pilot("p1", "s", 1, 0, 0.0, 1e9);
  ComputeUnitDescription slow = tenant_unit("a");
  slow.duration = 100.0;
  ComputeUnitDescription fast = tenant_unit("a");
  fast.duration = 1.0;
  wm.enqueue_unit("a-slow", slow);
  wm.enqueue_unit("a-fast", fast);
  const auto out = wm.schedule_pass(0.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "a-fast");
}

TEST(WorkloadManagerFairShare, InertWithoutAdmissionInterface) {
  // Fair share needs a weight source; without one the queue stays in
  // plain FCFS order even with two tenants.
  WorkloadManager wm(make_scheduler("fifo"));
  wm.set_fair_share(true);
  wm.add_pilot("p1", "s", 2, 0, 0.0, 1e9);
  wm.enqueue_unit("a-0", tenant_unit("a"));
  wm.enqueue_unit("a-1", tenant_unit("a"));
  wm.enqueue_unit("b-0", tenant_unit("b"));
  const auto grants = grants_by_tenant(wm.schedule_pass(0.0, nullptr));
  EXPECT_EQ(grants.at("a"), 2);
  EXPECT_EQ(grants.count("b"), 0u);
}

TEST(WorkloadManagerFairShare, ZeroWeightTenantStillDrains) {
  // A zero (or negative) weight clamps to a small positive credit rate:
  // the tenant is deprioritized, never wedged.
  StubAdmission adm;
  adm.weights["z"] = 0.0;
  WorkloadManager wm(make_scheduler("fifo"));
  wm.set_admission(&adm);
  wm.set_fair_share(true);
  wm.add_pilot("p1", "s", 1, 0, 0.0, 1e9);
  wm.enqueue_unit("a-0", tenant_unit("a"));
  wm.enqueue_unit("z-0", tenant_unit("z"));
  auto out = wm.schedule_pass(0.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "a-0");
  wm.unit_finished("a-0");
  out = wm.schedule_pass(1.0, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].unit_id, "z-0");
}

// ---------------------------------------------------------------------------
// Hand-over (PENDING units move between shards).
// ---------------------------------------------------------------------------

TEST(WorkloadManager, TakeQueuedCarriesRequeueBudget) {
  WorkloadManager source(make_scheduler("fifo"));
  source.set_max_requeues(3);
  source.requeue_unit_front("u1", unit_desc(2));  // one consumed requeue
  source.enqueue_unit("u2", unit_desc(1));
  const auto taken = source.take_queued_units(4);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].unit_id, "u1");  // queue order
  EXPECT_EQ(taken[0].requeues, 1);
  EXPECT_EQ(taken[1].requeues, 0);
  EXPECT_EQ(source.queued_units(), 0u);
  EXPECT_EQ(source.requeue_count("u1"), 0);  // the budget left with it

  WorkloadManager target(make_scheduler("fifo"));
  target.set_max_requeues(3);
  for (const auto& t : taken) {
    target.enqueue_unit(t.unit_id, unit_desc(1), t.requeues);
  }
  EXPECT_EQ(target.queued_unit_ids(),
            (std::vector<std::string>{"u1", "u2"}));
  // The consumed requeue budget survived the hand-over: two more, not
  // three.
  ASSERT_TRUE(target.remove_queued_unit("u2"));
  target.add_pilot("p1", "s", 4, 0, 0.0, 1e9);
  ASSERT_EQ(target.schedule_pass(0.0, nullptr).size(), 1u);
  target.remove_pilot("p1");
  EXPECT_TRUE(target.requeue_unit_front("u1", unit_desc(2)));
  EXPECT_TRUE(target.requeue_unit_front("u1", unit_desc(2)));
  EXPECT_FALSE(target.requeue_unit_front("u1", unit_desc(2)));
}

TEST(WorkloadManager, TakeQueuedTakesOnlyWhatFitsTheFreeCores) {
  WorkloadManager wm(make_scheduler("fifo"));
  wm.enqueue_unit("big", unit_desc(8));
  wm.enqueue_unit("a", unit_desc(2));
  wm.enqueue_unit("b", unit_desc(3));
  wm.enqueue_unit("c", unit_desc(1));
  wm.enqueue_unit("d", unit_desc(1));
  // 4 free cores: "big" never fits and keeps its place; "a" (2) and "c"
  // (1) and "d" (1) fill the budget, "b" (3) would overflow it.
  const auto taken = wm.take_queued_units(4);
  std::vector<std::string> ids;
  for (const auto& t : taken) {
    ids.push_back(t.unit_id);
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "c", "d"}));
  EXPECT_EQ(wm.queued_unit_ids(), (std::vector<std::string>{"big", "b"}));
  EXPECT_TRUE(wm.take_queued_units(0).empty());
  // The survivors still schedule normally.
  wm.add_pilot("p1", "s", 8, 0, 0.0, 1e9);
  EXPECT_EQ(wm.schedule_pass(0.0, nullptr).size(), 1u);  // fifo: "big"
  EXPECT_EQ(wm.max_free_cores(), 0);
}


// ---------------------------------------------------------------------------
// Queue compaction: a pass removes its taken units from the scanned prefix
// only; the survivors keep their order and the views stay parallel.
// ---------------------------------------------------------------------------

/// Delegates to a real policy and records the unit order of the views
/// each executed pass presents, so a test can check the strategy saw the
/// same queue the manager reports.
class ViewRecorder : public Scheduler {
 public:
  ViewRecorder(std::unique_ptr<Scheduler> inner, std::vector<std::string>* seen)
      : inner_(std::move(inner)), seen_(seen) {}
  std::vector<Assignment> schedule(
      const std::deque<UnitView>& queued,
      const std::vector<PilotView>& pilots) override {
    seen_->clear();
    for (const auto& v : queued) {
      seen_->push_back(v.unit_id);
    }
    return inner_->schedule(queued, pilots);
  }
  UnitOrder unit_order() const override { return inner_->unit_order(); }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::vector<std::string>* seen_;
};

std::vector<std::string> ids_of(const std::vector<Assignment>& out) {
  std::vector<std::string> ids;
  for (const auto& a : out) {
    ids.push_back(a.unit_id);
  }
  return ids;
}

using Ids = std::vector<std::string>;

TEST(WorkloadManagerCompaction, BackfillSkipsHeadThenBindsLaterUnits) {
  std::vector<std::string> seen;
  WorkloadManager wm(
      std::make_unique<ViewRecorder>(make_scheduler("backfill"), &seen));
  wm.add_pilot("p1", "a", 3, 0, 0.0, 1e9);
  wm.enqueue_unit("A", unit_desc(2));
  wm.enqueue_unit("B", unit_desc(4));  // never fits a 3-core pilot
  wm.enqueue_unit("C", unit_desc(2));
  wm.enqueue_unit("D", unit_desc(1));
  wm.enqueue_unit("E", unit_desc(1));
  wm.enqueue_unit("F", unit_desc(1));
  // A fits, B never does, C does not fit the one core left, D takes it.
  EXPECT_EQ(ids_of(wm.schedule_pass(0.0, nullptr)), (Ids{"A", "D"}));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"B", "C", "E", "F"}));
  wm.unit_finished("A");
  wm.unit_finished("D");
  EXPECT_EQ(ids_of(wm.schedule_pass(1.0, nullptr)), (Ids{"C", "E"}));
  EXPECT_EQ(seen, (Ids{"B", "C", "E", "F"}));  // views stayed parallel
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"B", "F"}));
}

TEST(WorkloadManagerCompaction, ShortestFirstWithRequeueFront) {
  std::vector<std::string> seen;
  WorkloadManager wm(std::make_unique<ViewRecorder>(
      make_scheduler("shortest-first"), &seen));
  wm.add_pilot("p1", "a", 2, 0, 0.0, 1e9);
  wm.enqueue_unit("b", unit_desc(1, 1.0));
  wm.enqueue_unit("e", unit_desc(2, 1.0));
  wm.enqueue_unit("a", unit_desc(1, 5.0));
  wm.enqueue_unit("c", unit_desc(1, 5.0));
  wm.enqueue_unit("d", unit_desc(1, 10.0));
  ASSERT_TRUE(wm.requeue_unit_front("f", unit_desc(1, 5.0)));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"b", "e", "f", "a", "c", "d"}));
  // b takes one core, e needs two, f takes the last one.
  EXPECT_EQ(ids_of(wm.schedule_pass(0.0, nullptr)), (Ids{"b", "f"}));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"e", "a", "c", "d"}));
  ASSERT_TRUE(wm.requeue_unit_front("g", unit_desc(1, 5.0)));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"e", "g", "a", "c", "d"}));
  wm.unit_finished("b");
  wm.unit_finished("f");
  EXPECT_EQ(ids_of(wm.schedule_pass(1.0, nullptr)), (Ids{"e"}));
  EXPECT_EQ(seen, (Ids{"e", "g", "a", "c", "d"}));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"g", "a", "c", "d"}));
}

TEST(WorkloadManagerCompaction, LargestFirstWithRequeueFront) {
  std::vector<std::string> seen;
  WorkloadManager wm(std::make_unique<ViewRecorder>(
      make_scheduler("largest-first"), &seen));
  wm.add_pilot("p1", "a", 3, 0, 0.0, 1e9);
  wm.enqueue_unit("s1a", unit_desc(1));
  wm.enqueue_unit("m2a", unit_desc(2));
  wm.enqueue_unit("big", unit_desc(4));  // never fits a 3-core pilot
  wm.enqueue_unit("m2b", unit_desc(2));
  wm.enqueue_unit("s1b", unit_desc(1));
  ASSERT_TRUE(wm.requeue_unit_front("m2r", unit_desc(2)));
  EXPECT_EQ(wm.queued_unit_ids(),
            (Ids{"big", "m2r", "m2a", "m2b", "s1a", "s1b"}));
  // m2r takes two cores, the other 2-core units do not fit, s1a does.
  EXPECT_EQ(ids_of(wm.schedule_pass(0.0, nullptr)), (Ids{"m2r", "s1a"}));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"big", "m2a", "m2b", "s1b"}));
  wm.unit_finished("m2r");
  wm.unit_finished("s1a");
  EXPECT_EQ(ids_of(wm.schedule_pass(1.0, nullptr)), (Ids{"m2a", "s1b"}));
  EXPECT_EQ(seen, (Ids{"big", "m2a", "m2b", "s1b"}));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"big", "m2b"}));
}

TEST(WorkloadManagerCompaction, FairShareTakesThatAreNotAPrefix) {
  StubAdmission adm;
  WorkloadManager wm(make_scheduler("fifo"));
  wm.set_admission(&adm);
  wm.set_fair_share(true);
  wm.add_pilot("p1", "s", 2, 0, 0.0, 1e9);
  for (int i = 0; i < 3; ++i) {
    wm.enqueue_unit("a-" + std::to_string(i), tenant_unit("a"));
  }
  for (int i = 0; i < 3; ++i) {
    wm.enqueue_unit("b-" + std::to_string(i), tenant_unit("b"));
  }
  // The interleave presents a-0, b-0, ...: queue positions 0 and 3.
  EXPECT_EQ(ids_of(wm.schedule_pass(0.0, nullptr)), (Ids{"a-0", "b-0"}));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"a-1", "a-2", "b-1", "b-2"}));
  wm.unit_finished("a-0");
  wm.unit_finished("b-0");
  EXPECT_EQ(ids_of(wm.schedule_pass(1.0, nullptr)), (Ids{"a-1", "b-1"}));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"a-2", "b-2"}));
}

TEST(WorkloadManagerCompaction, RemoveQueuedUnitBetweenPasses) {
  std::vector<std::string> seen;
  WorkloadManager wm(
      std::make_unique<ViewRecorder>(make_scheduler("backfill"), &seen));
  wm.add_pilot("p1", "a", 2, 0, 0.0, 1e9);
  wm.enqueue_unit("X", unit_desc(4));  // never fits a 2-core pilot
  for (int i = 0; i < 5; ++i) {
    wm.enqueue_unit("u" + std::to_string(i), unit_desc(1));
  }
  EXPECT_EQ(ids_of(wm.schedule_pass(0.0, nullptr)), (Ids{"u0", "u1"}));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"X", "u2", "u3", "u4"}));
  EXPECT_TRUE(wm.remove_queued_unit("u3"));
  wm.unit_finished("u0");
  wm.unit_finished("u1");
  wm.enqueue_unit("u5", unit_desc(1));
  EXPECT_EQ(ids_of(wm.schedule_pass(1.0, nullptr)), (Ids{"u2", "u4"}));
  EXPECT_EQ(seen, (Ids{"X", "u2", "u4", "u5"}));
  EXPECT_EQ(wm.queued_unit_ids(), (Ids{"X", "u5"}));
  EXPECT_EQ(wm.queued_units(), 2u);
}

/// Best-of-5 time of `passes` schedule passes, each binding 2 units off
/// a standing backlog of `depth` (finished and replaced after each pass,
/// so the depth holds).
double seconds_per_passes(std::size_t depth, int passes) {
  WorkloadManager wm(make_scheduler("backfill"));
  wm.add_pilot("p1", "a", 2, 0, 0.0, 1e9);
  std::size_t next = 0;
  while (next < depth) {
    wm.enqueue_unit("u" + std::to_string(next++), unit_desc(1));
  }
  double best = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 5; ++trial) {
    std::chrono::steady_clock::duration elapsed{};
    for (int k = 0; k < passes; ++k) {
      const auto start = std::chrono::steady_clock::now();
      const auto out = wm.schedule_pass(0.0, nullptr);
      elapsed += std::chrono::steady_clock::now() - start;
      EXPECT_EQ(out.size(), 2u);
      for (const auto& a : out) {
        wm.unit_finished(a.unit_id);
        wm.enqueue_unit("u" + std::to_string(next++), unit_desc(1));
      }
    }
    best = std::min(best, std::chrono::duration<double>(elapsed).count());
  }
  EXPECT_EQ(wm.queued_units(), depth);
  return best;
}

TEST(WorkloadManagerCompaction, PassCostIndependentOfQueueDepth) {
  // A pass that binds 2 units must not pay for the 64k units behind
  // them. A ratio (not an absolute time) stays meaningful under the
  // sanitizer builds; compacting the whole queue made it ~60x.
  constexpr int kPasses = 256;
  const double shallow = seconds_per_passes(1024, kPasses);
  const double deep = seconds_per_passes(65536, kPasses);
  EXPECT_LT(deep, 4.0 * shallow)
      << "depth 1k: " << shallow << " s, depth 64k: " << deep << " s";
}

}  // namespace
}  // namespace pa::core
