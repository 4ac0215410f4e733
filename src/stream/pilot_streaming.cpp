#include "pa/stream/pilot_streaming.h"

#include <chrono>
#include <thread>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/common/error.h"
#include "pa/common/time_utils.h"

namespace pa::stream {

PilotStreamingService::PilotStreamingService(
    core::PilotComputeService& service, Broker& broker)
    : service_(service), broker_(broker), coordinator_(broker) {}

StreamPipelineResult PilotStreamingService::run_pipeline(
    const StreamPipelineConfig& config) {
  PA_REQUIRE_ARG(config.producers > 0, "need at least one producer");
  PA_REQUIRE_ARG(config.consumers > 0, "need at least one consumer");
  PA_REQUIRE_ARG(config.partitions > 0, "need partitions");

  if (!broker_.has_topic(config.topic)) {
    broker_.create_topic(config.topic, config.partitions);
  }
  const std::string group =
      config.group + "-" + std::to_string(run_counter_++);
  // Fresh groups start at the end of the topic ("latest" offset reset), so
  // consecutive pipeline runs over the same topic do not re-read old data.
  for (int p = 0; p < broker_.partition_count(config.topic); ++p) {
    coordinator_.commit(config.topic, group, p,
                        broker_.end_offset(config.topic, p));
  }

  auto producers_done = std::make_shared<std::atomic<int>>(0);
  auto latency_mutex = std::make_shared<check::Mutex>(
      check::LockRank::kLeaf, "streaming::latency");
  auto latency = std::make_shared<pa::LatencyHistogram>();
  auto consumed = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto consumed_bytes = std::make_shared<std::atomic<std::uint64_t>>(0);

  const pa::Stopwatch clock;
  std::vector<core::ComputeUnit> units;

  // Producers first (see capacity note in the header).
  for (int p = 0; p < config.producers; ++p) {
    core::ComputeUnitDescription d;
    d.name = "producer-" + std::to_string(p);
    d.cores = 1;
    d.work = [this, config, producers_done, p]() {
      const std::string payload(config.message_bytes, 'x');
      const double interval =
          config.produce_rate > 0.0 ? 1.0 / config.produce_rate : 0.0;
      double next_send = pa::wall_seconds();
      for (std::uint64_t i = 0; i < config.messages_per_producer; ++i) {
        if (interval > 0.0) {
          next_send += interval;
          const double now = pa::wall_seconds();
          if (next_send > now) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(next_send - now));
          }
        }
        // Key by producer+sequence block to spread over partitions while
        // keeping per-producer order within a partition deterministic.
        broker_.produce(config.topic, "", payload);
      }
      producers_done->fetch_add(1);
    };
    units.push_back(service_.submit_unit(d));
  }

  for (int c = 0; c < config.consumers; ++c) {
    core::ComputeUnitDescription d;
    d.name = "consumer-" + std::to_string(c);
    d.cores = 1;
    d.work = [this, config, group, c, producers_done, latency_mutex, latency,
              consumed, consumed_bytes]() {
      Consumer consumer(broker_, coordinator_, config.topic, group,
                        "member-" + std::to_string(c));
      pa::LatencyHistogram local_latency;
      for (;;) {
        const std::vector<Message> batch = consumer.poll(config.poll_batch);
        if (batch.empty()) {
          if (producers_done->load() == config.producers &&
              coordinator_.lag(config.topic, group) == 0) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          continue;
        }
        const double now = pa::wall_seconds();
        std::uint64_t bytes = 0;
        for (const Message& msg : batch) {
          if (config.handler) {
            config.handler(msg);
          }
          bytes += msg.payload.size();
        }
        if (!consumer.commit()) {
          continue;  // a rebalance fenced the batch: counted where redelivered
        }
        for (const Message& msg : batch) {
          local_latency.record(std::max(1e-9, now - msg.produce_time));
        }
        consumed->fetch_add(batch.size());
        consumed_bytes->fetch_add(bytes);
      }
      check::MutexLock lock(*latency_mutex);
      latency->merge(local_latency);
    };
    units.push_back(service_.submit_unit(d));
  }

  for (auto& unit : units) {
    const core::UnitState final_state = unit.wait(config.timeout_seconds);
    if (final_state != core::UnitState::kDone) {
      throw Error("pipeline unit " + unit.id() + " ended in state " +
                  std::string(core::to_string(final_state)));
    }
  }

  StreamPipelineResult result;
  result.duration_seconds = clock.elapsed();
  result.messages = consumed->load();
  result.bytes = consumed_bytes->load();
  if (result.duration_seconds > 0.0) {
    result.throughput_msgs_per_s =
        static_cast<double>(result.messages) / result.duration_seconds;
    result.throughput_mb_per_s = static_cast<double>(result.bytes) / 1.0e6 /
                                 result.duration_seconds;
  }
  result.e2e_latency = *latency;
  return result;
}

}  // namespace pa::stream
