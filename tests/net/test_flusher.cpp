#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/net/flusher.h"
#include "pa/obs/metrics.h"

namespace pa::net {
namespace {

using namespace std::chrono_literals;

Message unit_done(int i) {
  Message m;
  m.type = MessageType::kUnitDoneBatch;
  m.pilot_id = "p";
  m.completions.push_back(
      WireUnitDone{"unit-" + std::to_string(i), true, 0.0});
  return m;
}

bool wait_until(const std::function<bool()>& predicate,
                std::chrono::milliseconds timeout = 2000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(200us);
  }
  return true;
}

/// Sink that records every delivered batch (size + reason) and can be told
/// to reject deliveries. Uses a kLeaf mutex so it composes with the
/// flusher's own lock from the sink thread.
class RecordingSink {
 public:
  BatchFlusher::Sink fn() {
    return [this](std::vector<Message> batch, FlushReason reason) {
      check::MutexLock lock(mu_);
      if (reject_next_ > 0) {
        --reject_next_;
        return batch;  // retain everything
      }
      batch_sizes_.push_back(batch.size());
      reasons_.push_back(reason);
      for (auto& m : batch) {
        delivered_.push_back(std::move(m.completions.front().unit_id));
      }
      return std::vector<Message>{};
    };
  }

  void reject_next(int n) {
    check::MutexLock lock(mu_);
    reject_next_ = n;
  }

  std::size_t delivered_count() const {
    check::MutexLock lock(mu_);
    return delivered_.size();
  }
  std::vector<std::string> delivered() const {
    check::MutexLock lock(mu_);
    return delivered_;
  }
  std::vector<std::size_t> batch_sizes() const {
    check::MutexLock lock(mu_);
    return batch_sizes_;
  }
  std::vector<FlushReason> reasons() const {
    check::MutexLock lock(mu_);
    return reasons_;
  }

 private:
  mutable check::Mutex mu_{check::LockRank::kLeaf, "test.recording_sink"};
  int reject_next_ PA_GUARDED_BY(mu_) = 0;
  std::vector<std::string> delivered_ PA_GUARDED_BY(mu_);
  std::vector<std::size_t> batch_sizes_ PA_GUARDED_BY(mu_);
  std::vector<FlushReason> reasons_ PA_GUARDED_BY(mu_);
};

BatchFlusherConfig manual_config() {
  // Neither eager nor time-triggered within any test's lifetime: only the
  // size trigger (or an explicit kick/flush/close) delivers.
  BatchFlusherConfig c;
  c.max_batch = 8;
  c.max_delay_seconds = 3600.0;
  c.retry_delay_seconds = 0.0005;
  c.eager = false;
  return c;
}

TEST(BatchFlusher, SizeTriggerDeliversFullBatch) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), manual_config());
  for (int i = 0; i < 8; ++i) {
    flusher.push(unit_done(i));
  }
  ASSERT_TRUE(wait_until([&] { return sink.delivered_count() == 8; }));
  ASSERT_EQ(sink.batch_sizes().size(), 1u);
  EXPECT_EQ(sink.batch_sizes()[0], 8u);
  EXPECT_EQ(sink.reasons()[0], FlushReason::kSize);
  EXPECT_EQ(flusher.pending(), 0u);
}

TEST(BatchFlusher, TimeTriggerFlushesPartialBatch) {
  BatchFlusherConfig config = manual_config();
  config.max_delay_seconds = 0.005;
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), config);
  flusher.push(unit_done(0));
  flusher.push(unit_done(1));
  ASSERT_TRUE(wait_until([&] { return sink.delivered_count() == 2; }));
  ASSERT_EQ(sink.batch_sizes().size(), 1u);
  EXPECT_EQ(sink.batch_sizes()[0], 2u);
  EXPECT_EQ(sink.reasons()[0], FlushReason::kTime);
}

TEST(BatchFlusher, EagerModeDeliversWithoutTriggers) {
  BatchFlusherConfig config = manual_config();
  config.eager = true;
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), config);
  flusher.push(unit_done(0));
  ASSERT_TRUE(wait_until([&] { return sink.delivered_count() == 1; }));
  EXPECT_EQ(sink.reasons()[0], FlushReason::kEager);
}

TEST(BatchFlusher, CloseFlushesRemainder) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), manual_config());
  for (int i = 0; i < 5; ++i) {
    flusher.push(unit_done(i));  // below max_batch: nothing delivers yet
  }
  flusher.close();
  EXPECT_EQ(sink.delivered_count(), 5u);
  ASSERT_EQ(sink.reasons().size(), 1u);
  EXPECT_EQ(sink.reasons()[0], FlushReason::kClose);
  EXPECT_EQ(flusher.dropped_on_close(), 0u);
}

TEST(BatchFlusher, EmptyFlushIsNoOp) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), manual_config());
  flusher.kick();
  flusher.flush();
  flusher.close();
  EXPECT_EQ(sink.delivered_count(), 0u);
  EXPECT_TRUE(sink.reasons().empty());  // sink never invoked
}

TEST(BatchFlusher, ExplicitFlushDeliversPartialBatch) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), manual_config());
  flusher.push(unit_done(0));
  flusher.flush();
  ASSERT_TRUE(wait_until([&] { return sink.delivered_count() == 1; }));
  EXPECT_EQ(sink.reasons()[0], FlushReason::kExplicit);
}

TEST(BatchFlusher, RejectedBatchIsRetriedInOrder) {
  RecordingSink sink;
  BatchFlusherConfig config = manual_config();
  config.eager = true;
  BatchFlusher flusher(sink.fn(), config);
  sink.reject_next(3);
  for (int i = 0; i < 4; ++i) {
    flusher.push(unit_done(i));
  }
  ASSERT_TRUE(wait_until([&] { return sink.delivered_count() == 4; }));
  EXPECT_GE(flusher.retried(), 1u);
  const std::vector<std::string> expected = {"unit-0", "unit-1", "unit-2",
                                             "unit-3"};
  EXPECT_EQ(sink.delivered(), expected);
  EXPECT_EQ(flusher.dropped_on_close(), 0u);
}

TEST(BatchFlusher, PushAfterCloseIsDroppedAndCounted) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), manual_config());
  flusher.close();
  flusher.push(unit_done(0));
  EXPECT_EQ(sink.delivered_count(), 0u);
  EXPECT_EQ(flusher.dropped_on_close(), 1u);
}

TEST(BatchFlusher, UndeliverableMessagesDropOnClose) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), manual_config());
  sink.reject_next(1000);  // covers retries and the final kClose attempt
  flusher.push(unit_done(0));
  flusher.push(unit_done(1));
  flusher.close();
  EXPECT_EQ(sink.delivered_count(), 0u);
  EXPECT_EQ(flusher.dropped_on_close(), 2u);
}

TEST(BatchFlusher, ExportsBatchMetrics) {
  obs::MetricsRegistry metrics;
  RecordingSink sink;
  {
    BatchFlusher flusher(sink.fn(), manual_config(), &metrics);
    for (int i = 0; i < 8; ++i) {
      flusher.push(unit_done(i));
    }
    ASSERT_TRUE(wait_until([&] { return sink.delivered_count() == 8; }));
  }
  EXPECT_EQ(metrics.histogram("net.batch_size", 1.0, 1e6).snapshot().count(),
            1u);
  EXPECT_EQ(metrics.counter("net.flush_size").value(), 1u);
  EXPECT_EQ(metrics.counter("net.flush_dropped_on_close").value(), 0u);
}

TEST(BatchFlusher, ConcurrentPushersAllDeliver) {
  BatchFlusherConfig config = manual_config();
  config.eager = true;
  config.max_batch = 32;
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), config);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> pushers;
  pushers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pushers.emplace_back([&flusher, t] {
      for (int i = 0; i < kPerThread; ++i) {
        flusher.push(unit_done(t * kPerThread + i));
      }
    });
  }
  for (auto& p : pushers) {
    p.join();
  }
  ASSERT_TRUE(wait_until(
      [&] { return sink.delivered_count() == kThreads * kPerThread; }));
  flusher.close();
  EXPECT_EQ(flusher.dropped_on_close(), 0u);
}

}  // namespace
}  // namespace pa::net
