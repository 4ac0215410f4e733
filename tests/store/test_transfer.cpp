#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/net/message.h"
#include "pa/store/chunking.h"
#include "pa/store/transfer.h"

namespace pa::store {
namespace {

using namespace std::chrono_literals;

bool wait_until(const std::function<bool()>& predicate,
                std::chrono::milliseconds timeout = 10000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(200us);
  }
  return true;
}

/// Sender that records the chunk order of every transfer. It holds the
/// pump's first delivery until `open()`, so every push_object of a burst
/// queues its priming frame before the pump runs a second pass, and it
/// can answer kBusy on every `busy_every`-th call.
class RecordingSender {
 public:
  explicit RecordingSender(int busy_every = 0) : busy_every_(busy_every) {}

  ObjSender fn() {
    return [this](const std::string&, net::Message& m) {
      check::MutexLock lock(mu_);
      while (!open_) {
        cv_.wait(lock);
      }
      if (busy_every_ > 0 && ++calls_ % busy_every_ == 0) {
        return SendResult::kBusy;
      }
      chunks_[m.transfer_id].push_back(m.chunk_index);
      ++delivered_;
      return SendResult::kSent;
    };
  }

  void open() {
    check::MutexLock lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  std::size_t delivered() {
    check::MutexLock lock(mu_);
    return delivered_;
  }

  std::map<std::uint64_t, std::vector<std::uint32_t>> chunks() {
    check::MutexLock lock(mu_);
    return chunks_;
  }

 private:
  const int busy_every_;
  check::Mutex mu_{check::LockRank::kLeaf, "test.recording_sender"};
  check::CondVar cv_;
  bool open_ PA_GUARDED_BY(mu_) = false;
  int calls_ PA_GUARDED_BY(mu_) = 0;
  std::size_t delivered_ PA_GUARDED_BY(mu_) = 0;
  std::map<std::uint64_t, std::vector<std::uint32_t>> chunks_
      PA_GUARDED_BY(mu_);
};

std::optional<Chunk> fake_chunk(const std::string& object_id,
                                std::uint32_t index) {
  Chunk c;
  c.data = object_id + "#" + std::to_string(index);
  c.crc = chunk_crc(c.data);
  return c;
}

/// Pushes `objects` multi-chunk objects to one pilot in a burst and
/// waits for every chunk; each transfer must arrive complete and in
/// chunk order. With `hold_first_pass` false the pushes race the pump.
void push_burst_and_expect_all(std::size_t chunks_per_pass, int objects,
                               int busy_every, bool hold_first_pass = true) {
  constexpr std::uint32_t kChunks = 5;
  TransferSchedulerConfig config;
  config.chunks_per_pass = chunks_per_pass;
  config.retry_delay_seconds = 0.0005;
  TransferScheduler xfer(config);
  RecordingSender sender(busy_every);
  xfer.attach_sender(sender.fn());
  xfer.attach_chunk_source(&fake_chunk);
  if (!hold_first_pass) {
    sender.open();
  }
  for (int i = 0; i < objects; ++i) {
    xfer.push_object("p1", "obj-" + std::to_string(i),
                     static_cast<std::uint64_t>(i + 1), kChunks, kChunks);
  }
  sender.open();
  const std::size_t expected = static_cast<std::size_t>(objects) * kChunks;
  EXPECT_TRUE(wait_until([&] { return sender.delivered() >= expected; }))
      << "stage-in stalled after " << sender.delivered() << " of "
      << expected << " chunks";
  EXPECT_TRUE(wait_until([&] { return xfer.streams_active() == 0; }));
  const auto chunks = sender.chunks();
  ASSERT_EQ(chunks.size(), static_cast<std::size_t>(objects));
  const std::vector<std::uint32_t> in_order = {0, 1, 2, 3, 4};
  for (const auto& [transfer, order] : chunks) {
    EXPECT_EQ(order, in_order) << "transfer " << transfer;
  }
  xfer.close();
}

TEST(TransferScheduler, BurstOfMultiChunkPushesToOnePilotCompletes) {
  // A burst of at least chunks_per_pass pushes hands the pump full
  // passes; it used to neither top up nor keep a prefetch frame then,
  // so the flusher slept with every stream still open.
  push_burst_and_expect_all(/*chunks_per_pass=*/2, /*objects=*/8,
                            /*busy_every=*/0);
  push_burst_and_expect_all(/*chunks_per_pass=*/2, /*objects=*/12,
                            /*busy_every=*/0);
  push_burst_and_expect_all(/*chunks_per_pass=*/4, /*objects=*/16,
                            /*busy_every=*/0);
}

TEST(TransferScheduler, BurstUnderBackpressureKeepsChunkOrder) {
  // Busy answers retain frames and re-queue them at the front; topping
  // up from the cursors must still never overtake a queued chunk.
  push_burst_and_expect_all(/*chunks_per_pass=*/2, /*objects=*/10,
                            /*busy_every=*/3);
  push_burst_and_expect_all(/*chunks_per_pass=*/3, /*objects=*/9,
                            /*busy_every=*/4);
  for (int round = 0; round < 20; ++round) {
    push_burst_and_expect_all(/*chunks_per_pass=*/2, /*objects=*/12,
                              /*busy_every=*/3, /*hold_first_pass=*/false);
  }
}

}  // namespace
}  // namespace pa::store
