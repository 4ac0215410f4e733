#pragma once
/// \file transfer.h
/// \brief TransferScheduler: paces object-plane frames onto pilot
/// connections so stage-in overlaps compute without starving control
/// traffic.
///
/// All manager-side object egress (kObjPut chunk streams, kObjGet
/// requests, kXferToken grants and revocations) flows through one
/// net::BatchFlusher pump. Chunk streams are *pulled*, not materialized:
/// push_object() registers a cursor and the pump fetches one chunk at a
/// time from the attached ChunkSource as connection capacity allows, so a
/// multi-gigabyte star push holds one chunk in flight per pass instead of
/// the whole object in the queue. The pump hands the sender at most
/// `chunks_per_pass` frames per sink pass, so heartbeats and unit batches
/// queued on the same connection get a turn between every pass instead of
/// waiting behind the whole object (the no-head-of-line-blocking half of
/// "data as a first-class citizen").
///
/// Self-pacing: the net::BatchFlusher only runs its sink when messages are
/// pending, so after each pass that drains the queue with cursor work
/// left the sink *retains* one prefetched frame unsent — the flusher
/// re-queues it at the front and re-enters the sink after its retry
/// backoff. The prefetch is the pump's heartbeat; without it a drained
/// queue would strand live cursors. A stream builds no new frame while
/// one of its frames waits in the queue, so topping a pass up from the
/// cursors never overtakes an earlier chunk.
///
/// Delivery contract (mirrors the dispatch sink in RemoteRuntime):
///   * kSent  — frame accepted by the connection;
///   * kBusy  — transient backpressure: the frame *and every later frame
///              for the same pilot* are retained in order and retried
///              after a backoff, so a chunk stream never reorders;
///   * kGone  — the pilot is unknown or dead:
///              the frame is dropped and the pilot's cursors are torn down
///              (pilot death already fails the waiting ensures at the
///              manager level).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/net/flusher.h"
#include "pa/net/message.h"
#include "pa/store/chunking.h"

namespace pa::store {

enum class SendResult {
  kSent,
  kBusy,
  kGone,
};

/// Sends one object-plane message to a pilot's connection. Supplied by
/// rt::RemoteRuntime (which owns the connections); must be callable from
/// the pump thread with no caller locks held. The message is passed by
/// reference so a kBusy result leaves it intact for retry; the sender may
/// stamp header fields (seq) in place.
using ObjSender =
    std::function<SendResult(const std::string& pilot_id, net::Message&)>;

/// Fetches one CRC-stamped chunk of a locally held object (in practice
/// Shard::chunk_at on the manager's origin shard). Called from the pump
/// thread under the scheduler's stream lock; nullopt means the object is
/// gone or corrupt and aborts the stream with a NACK frame.
using ChunkSource = std::function<std::optional<Chunk>(
    const std::string& object_id, std::uint32_t index)>;

struct TransferSchedulerConfig {
  /// Max chunk frames handed to the sender per pump pass (the
  /// interleaving knob — also the pump's batch-size trigger).
  std::size_t chunks_per_pass = 8;
  /// Backoff before retrying frames a busy connection rejected; also the
  /// idle cadence of the prefetch heartbeat while cursors have work.
  double retry_delay_seconds = 0.002;
};

class TransferScheduler {
 public:
  explicit TransferScheduler(TransferSchedulerConfig config = {});
  ~TransferScheduler();

  TransferScheduler(const TransferScheduler&) = delete;
  TransferScheduler& operator=(const TransferScheduler&) = delete;

  /// Must be called before the first transfer; the sender is immutable
  /// afterwards.
  void attach_sender(ObjSender sender);

  /// Must be called before the first push_object; immutable afterwards.
  void attach_chunk_source(ChunkSource source);

  /// Streams every chunk of a locally held object to `pilot_id` as
  /// kObjPut frames under one transfer id, fetching chunks lazily from
  /// the attached ChunkSource. `chunk_count` of zero (the zero-byte
  /// object) sends the single empty metadata frame directly. Returns
  /// immediately; delivery is paced by the pump.
  void push_object(const std::string& pilot_id, const std::string& object_id,
                   std::uint64_t transfer_id, std::uint32_t chunk_count,
                   std::uint64_t total_bytes) PA_EXCLUDES(mutex_);

  /// Sends a kObjGet for `object_id` under `transfer_id`.
  void request_object(const std::string& pilot_id,
                      const std::string& object_id,
                      std::uint64_t transfer_id);

  /// Queues an arbitrary control-plane frame (kXferToken grant or
  /// revocation) onto the pump; the sender stamps headers at delivery.
  void send_control(net::Message message);

  /// Tears down every stream cursor headed to `pilot_id`; frames already
  /// queued are flushed out via the sender's kGone path.
  void drop_pilot(const std::string& pilot_id) PA_EXCLUDES(mutex_);

  /// Final delivery attempt, then drops and joins the pump thread.
  void close();

  std::uint64_t chunks_sent() const {
    return chunks_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t chunks_dropped() const {
    return chunks_dropped_.load(std::memory_order_relaxed);
  }
  std::size_t streams_active() const PA_EXCLUDES(mutex_);

 private:
  /// One in-flight star push: the next chunk to send and how many exist.
  struct Stream {
    std::string pilot_id;
    std::string object_id;
    std::uint64_t transfer_id = 0;
    std::uint32_t next = 0;
    std::uint32_t count = 0;
    std::uint64_t total = 0;
    /// Frames of this stream waiting in the pump queue. No further frame
    /// is built while any waits, so a chunk never overtakes another.
    std::uint32_t in_queue = 0;
  };

  std::vector<net::Message> pump_sink(std::vector<net::Message> batch,
                                      net::FlushReason reason);
  /// Builds the next frame round-robin across live streams, skipping
  /// `busy` pilots and streams with a frame in the pump queue; advances
  /// (and completes/aborts) the chosen cursor. `to_queue` counts the
  /// frame into its stream's in_queue, for a frame pushed to the pump.
  std::optional<net::Message> next_stream_frame(
      const std::vector<std::string>& busy, bool to_queue)
      PA_EXCLUDES(mutex_);
  /// Counts the kObjPut `frames` into (`entering`) or out of their
  /// streams' in_queue.
  void count_in_queue(const std::vector<net::Message>& frames, bool entering)
      PA_EXCLUDES(mutex_);

  const TransferSchedulerConfig config_;
  ObjSender sender_;
  ChunkSource chunk_source_;
  std::atomic<std::uint64_t> chunks_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> chunks_dropped_{0};

  mutable check::Mutex mutex_{check::LockRank::kStoreTransfer,
                              "store::TransferScheduler"};
  std::vector<Stream> streams_ PA_GUARDED_BY(mutex_);
  std::size_t round_robin_ PA_GUARDED_BY(mutex_) = 0;

  std::unique_ptr<net::BatchFlusher> pump_;  ///< constructed last
};

}  // namespace pa::store
