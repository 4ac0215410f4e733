#include "pa/core/control_plane.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "pa/common/error.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/obs/metrics.h"
#include "pa/rt/local_runtime.h"

namespace pa::core {
namespace {

struct TestCmd {
  int producer = 0;
  int seq = 0;
};

using Plane = ControlPlane<TestCmd>;

Plane::Options inline_options() {
  Plane::Options o;
  o.threaded = false;
  return o;
}

TEST(ControlPlaneInline, PostDrainsOnPostingThread) {
  std::vector<int> applied;
  Plane plane([&](TestCmd& c) { applied.push_back(c.seq); }, nullptr,
              inline_options());
  plane.post({0, 1});
  EXPECT_EQ(applied, (std::vector<int>{1}));  // applied before post returned
  plane.post({0, 2});
  EXPECT_EQ(applied, (std::vector<int>{1, 2}));
  EXPECT_EQ(plane.depth(), 0u);
}

TEST(ControlPlaneInline, ReentrantPostAppendsToOuterDrain) {
  std::vector<int> applied;
  Plane* self = nullptr;
  Plane plane(
      [&](TestCmd& c) {
        applied.push_back(c.seq);
        if (c.seq == 1) {
          self->post({0, 2});  // fire-and-forget from inside a handler
        }
      },
      nullptr, inline_options());
  self = &plane;
  plane.post({0, 1});
  // The outer drain loop picked up the reentrant command.
  EXPECT_EQ(applied, (std::vector<int>{1, 2}));
}

TEST(ControlPlaneInline, SynchronousCallFromHandlerThrows) {
  Plane* self = nullptr;
  Plane plane(
      [&](TestCmd& c) {
        if (c.seq == 1) {
          self->post_and_wait({0, 2});  // self-deadlock by construction
        }
      },
      nullptr, inline_options());
  self = &plane;
  EXPECT_THROW(plane.post_and_wait({0, 1}), InvalidStateError);
}

TEST(ControlPlaneInline, BatchEndRunsAfterDrain) {
  int batches = 0;
  std::vector<int> applied;
  Plane plane([&](TestCmd& c) { applied.push_back(c.seq); },
              [&]() { ++batches; }, inline_options());
  plane.post({0, 1});
  EXPECT_EQ(batches, 1);
  plane.post({0, 2});
  EXPECT_EQ(batches, 2);
}

TEST(ControlPlaneThreaded, PostAndWaitAppliesCommand) {
  std::atomic<int> applied{0};
  Plane plane([&](TestCmd&) { applied.fetch_add(1); }, nullptr, {});
  EXPECT_TRUE(plane.post_and_wait({0, 1}));
  EXPECT_EQ(applied.load(), 1);
}

TEST(ControlPlaneThreaded, PostAndWaitRethrowsHandlerException) {
  Plane plane(
      [](TestCmd& c) {
        if (c.seq < 0) {
          throw NotFound("no such seq");
        }
      },
      nullptr, {});
  EXPECT_THROW(plane.post_and_wait({0, -1}), NotFound);
  EXPECT_TRUE(plane.post_and_wait({0, 1}));  // the apply thread survived
}

TEST(ControlPlaneThreaded, WaiterReleasedOnlyAfterBatchEnd) {
  std::atomic<int> batches{0};
  Plane plane([](TestCmd&) {}, [&]() { batches.fetch_add(1); }, {});
  EXPECT_TRUE(plane.post_and_wait({0, 1}));
  // The batch-end hook (snapshot republish in the service) already ran
  // when a synchronous mutator returns.
  EXPECT_GE(batches.load(), 1);
}

TEST(ControlPlaneThreaded, PerProducerFifoOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  // Applied on the single consumer thread: no synchronization needed.
  std::vector<TestCmd> applied;
  Plane plane([&](TestCmd& c) { applied.push_back(c); }, nullptr, {});
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&plane, p]() {
      for (int s = 0; s < kPerProducer; ++s) {
        plane.post({p, s});
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  plane.post_and_wait({kProducers, 0});  // fence: flush all producers
  plane.stop();
  std::vector<int> next(kProducers, 0);
  int total = 0;
  for (const auto& c : applied) {
    if (c.producer == kProducers) {
      continue;  // the fence
    }
    EXPECT_EQ(c.seq, next[c.producer]) << "producer " << c.producer
                                       << " reordered";
    next[c.producer] = c.seq + 1;
    ++total;
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
}

TEST(ControlPlaneThreaded, BackpressureBlocksProducerAtBound) {
  std::atomic<bool> release{false};
  std::atomic<int> applied{0};
  Plane::Options opts;
  opts.bound = 2;
  Plane plane(
      [&](TestCmd& c) {
        if (c.seq == 0) {
          while (!release.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        applied.fetch_add(1);
      },
      nullptr, opts);
  plane.post({0, 0});  // wedges the applier until released
  // A command being applied still counts toward the bound, so the queue
  // is full after one more post; the third must block.
  std::atomic<bool> third_posted{false};
  std::thread producer([&]() {
    plane.post({0, 1});
    plane.post({0, 2});  // must block: queue is at its bound
    third_posted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_posted.load()) << "post did not block at the bound";
  release.store(true);
  producer.join();
  EXPECT_TRUE(third_posted.load());
  plane.post_and_wait({0, 3});
  EXPECT_EQ(applied.load(), 4);
}

// Batch end (a schedule pass in the service) runs once per batch of
// applied commands and on timer ticks only. With the tick far away, four
// producers racing the applier must never make it run a batch end that
// applied nothing — not at start-up, and not when a pop finds a push
// still in flight.
TEST(ControlPlaneThreaded, BatchEndRunsOnlyForAppliedCommands) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  obs::MetricsRegistry registry;
  std::atomic<int> applied{0};
  std::atomic<int> batch_ends{0};
  Plane::Options opts;
  opts.idle_wait_seconds = 60.0;  // no timer tick during the test
  Plane* self = nullptr;
  Plane plane(
      [&](TestCmd& c) {
        if (c.producer < 0) {
          self->set_metrics(&registry, "t");
        }
        applied.fetch_add(1);
      },
      [&]() { batch_ends.fetch_add(1); }, opts);
  self = &plane;
  plane.post_and_wait({-1, 0});  // attach the ctrl.t.* counters
  EXPECT_EQ(batch_ends.load(), 1) << "a batch end ran with nothing applied";
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&plane, p]() {
      for (int s = 0; s < kPerProducer; ++s) {
        plane.post({p, s});
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  plane.post_and_wait({kProducers, 0});
  plane.stop();
  EXPECT_EQ(applied.load(), kProducers * kPerProducer + 2);
  std::uint64_t batches = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name == "ctrl.t.batches") {
      batches = value;
    }
  }
  // Every batch end belongs to a counted batch (the attach batch counts:
  // the counter exists by the time its batch end is tallied).
  EXPECT_GT(batches, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(batch_ends.load()), batches);
}

TEST(ControlPlaneThreaded, TimerTickRunsBatchEndWhileIdle) {
  std::atomic<int> batch_ends{0};
  Plane::Options opts;
  opts.idle_wait_seconds = 0.005;
  Plane plane([](TestCmd&) {}, [&]() { batch_ends.fetch_add(1); }, opts);
  const auto start = std::chrono::steady_clock::now();
  while (batch_ends.load() < 2 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(batch_ends.load(), 2) << "idle ticks stopped running batch end";
}

TEST(ControlPlaneThreaded, PostAfterStopIsDropped) {
  std::atomic<int> applied{0};
  Plane plane([&](TestCmd&) { applied.fetch_add(1); }, nullptr, {});
  EXPECT_TRUE(plane.post({0, 1}));
  plane.stop();
  const int drained = applied.load();
  EXPECT_FALSE(plane.post({0, 2}));
  EXPECT_FALSE(plane.post_and_wait({0, 3}));
  EXPECT_EQ(applied.load(), drained);
}

// ---------------------------------------------------------------------------
// Service-level concurrency stress: many producer threads hammering the
// command queue while the apply thread owns the state. Run under TSan via
// the sanitize_smoke target (core label).
// ---------------------------------------------------------------------------

PilotDescription local_pilot(int cores) {
  PilotDescription d;
  d.resource_url = "local://host";
  d.nodes = cores;
  d.walltime = 1e9;
  return d;
}

TEST(ControlPlaneStress, FourThreadSubmitCancel) {
  rt::LocalRuntime runtime;
  PilotComputeService service(runtime, "backfill");
  service.submit_pilot(local_pilot(8));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> executed{0};
  std::vector<std::vector<ComputeUnit>> units(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        ComputeUnitDescription d;
        d.work = [&executed]() { executed.fetch_add(1); };
        ComputeUnit u = service.submit_unit(d);
        if (i % 3 == 0) {
          u.cancel();  // races the dispatch/execution pipeline
        }
        units[t].push_back(std::move(u));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  service.wait_all_units(120.0);
  for (const auto& per_thread : units) {
    for (const auto& u : per_thread) {
      EXPECT_TRUE(is_final(u.state())) << u.id();
    }
  }
  const auto m = service.metrics();
  EXPECT_EQ(m.units_done + m.units_canceled + m.units_failed,
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(m.units_failed, 0u);
}

TEST(ControlPlaneStress, PilotFailureRacesSubmitBurst) {
  rt::LocalRuntime runtime;
  PilotComputeService service(runtime, "backfill");
  Pilot doomed = service.submit_pilot(local_pilot(4));
  Pilot survivor = service.submit_pilot(local_pilot(4));
  doomed.wait_active(10.0);
  survivor.wait_active(10.0);
  std::atomic<bool> go{false};
  std::thread burst([&]() {
    while (!go.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::atomic<int> ran{0};
    std::vector<ComputeUnitDescription> batch(40);
    for (auto& d : batch) {
      d.work = [&ran]() { ran.fetch_add(1); };
    }
    service.submit_units(batch);
  });
  go.store(true);
  doomed.cancel();  // requeues its bound units mid-burst
  burst.join();
  service.wait_all_units(120.0);
  const auto m = service.metrics();
  // Nothing is lost to the race: every unit reaches a final state and
  // none fails (requeue recovers the doomed pilot's units).
  EXPECT_EQ(m.units_done + m.units_canceled, service.total_units());
  EXPECT_EQ(m.units_failed, 0u);
}

}  // namespace
}  // namespace pa::core
