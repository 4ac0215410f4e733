#pragma once
/// \file pilot_streaming.h
/// \brief Pilot-Streaming: running streaming pipelines (producers, broker,
/// consumer units) through the Pilot-API (paper ref [32]).
///
/// The original system provisions Kafka brokers *and* processing
/// resources via pilots, then runs consumer tasks as compute units. Here
/// the broker is in-process; producers and consumers run as real compute
/// units on a LocalRuntime pilot, and the service measures the two
/// quantities the paper's evaluation reports: sustained throughput and
/// end-to-end (produce→process) latency.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "pa/common/histogram.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/stream/broker.h"
#include "pa/stream/consumer.h"

namespace pa::stream {

struct StreamPipelineConfig {
  std::string topic = "frames";
  int partitions = 4;
  int producers = 1;
  int consumers = 2;
  std::uint64_t messages_per_producer = 10000;
  std::size_t message_bytes = 1024;
  std::size_t poll_batch = 256;
  /// Per-message processing work (reconstruction kernel, ...); may be null.
  /// Runs at least once per message: a batch fenced by a consumer-group
  /// rebalance is handled again by the partition's new owner. The result
  /// counts each message once.
  std::function<void(const Message&)> handler;
  /// Messages/second per producer; 0 = produce at maximum speed.
  double produce_rate = 0.0;
  std::string group = "pipeline";
  double timeout_seconds = 300.0;
};

struct StreamPipelineResult {
  double duration_seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double throughput_msgs_per_s = 0.0;
  double throughput_mb_per_s = 0.0;
  pa::LatencyHistogram e2e_latency;
};

/// Orchestrates one pipeline run on an existing pilot.
///
/// Capacity note: producer units are submitted before consumer units, so
/// even a pilot with a single core makes progress (produce fully, then
/// drain). For latency-representative numbers give the pilot at least
/// `producers + consumers` cores.
class PilotStreamingService {
 public:
  PilotStreamingService(core::PilotComputeService& service, Broker& broker);

  /// Runs the pipeline to completion and returns aggregate metrics.
  /// Creates the topic if it does not exist.
  StreamPipelineResult run_pipeline(const StreamPipelineConfig& config);

 private:
  core::PilotComputeService& service_;
  Broker& broker_;
  GroupCoordinator coordinator_;
  std::uint64_t run_counter_ = 0;
};

}  // namespace pa::stream
