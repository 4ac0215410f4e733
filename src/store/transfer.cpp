#include "pa/store/transfer.h"

#include <algorithm>
#include <utility>

namespace pa::store {

TransferScheduler::TransferScheduler(TransferSchedulerConfig config)
    : config_(config) {
  net::BatchFlusherConfig pump_config;
  pump_config.max_batch =
      config_.chunks_per_pass == 0 ? 1 : config_.chunks_per_pass;
  pump_config.retry_delay_seconds = config_.retry_delay_seconds;
  // The pump keeps its own metrics detached: mixing multi-hundred-KiB
  // data frames into the control plane's net.batch_size histogram would
  // make the E14e batching numbers unreadable. Data-plane volume is
  // exported as store.* counters by StoreManager instead.
  pump_ = std::make_unique<net::BatchFlusher>(
      [this](std::vector<net::Message> batch, net::FlushReason reason) {
        return pump_sink(std::move(batch), reason);
      },
      pump_config, nullptr);
}

TransferScheduler::~TransferScheduler() { close(); }

void TransferScheduler::attach_sender(ObjSender sender) {
  sender_ = std::move(sender);
}

void TransferScheduler::attach_chunk_source(ChunkSource source) {
  chunk_source_ = std::move(source);
}

void TransferScheduler::push_object(const std::string& pilot_id,
                                    const std::string& object_id,
                                    std::uint64_t transfer_id,
                                    std::uint32_t chunk_count,
                                    std::uint64_t total_bytes) {
  if (chunk_count == 0) {
    // Zero-byte object: a single empty chunk frame carries the metadata.
    net::Message m;
    m.type = net::MessageType::kObjPut;
    m.pilot_id = pilot_id;
    m.object_id = object_id;
    m.transfer_id = transfer_id;
    m.chunk_index = 0;
    m.chunk_count = 1;
    m.object_bytes = 0;
    m.chunk_crc = chunk_crc(std::string());
    pump_->push(std::move(m));
    return;
  }
  {
    check::MutexLock lock(mutex_);
    Stream s;
    s.pilot_id = pilot_id;
    s.object_id = object_id;
    s.transfer_id = transfer_id;
    s.count = chunk_count;
    s.total = total_bytes;
    streams_.push_back(std::move(s));
  }
  // Prime the pump: an idle flusher only wakes for pushed messages, so
  // one frame travels through the queue and the sink's top-up and
  // prefetch keep the cursors alive from there.
  if (std::optional<net::Message> first = next_stream_frame({}, true)) {
    pump_->push(std::move(*first));
  }
}

void TransferScheduler::request_object(const std::string& pilot_id,
                                       const std::string& object_id,
                                       std::uint64_t transfer_id) {
  net::Message m;
  m.type = net::MessageType::kObjGet;
  m.object_id = object_id;
  m.transfer_id = transfer_id;
  m.pilot_id = pilot_id;
  pump_->push(std::move(m));
}

void TransferScheduler::send_control(net::Message message) {
  pump_->push(std::move(message));
}

void TransferScheduler::drop_pilot(const std::string& pilot_id) {
  check::MutexLock lock(mutex_);
  streams_.erase(std::remove_if(streams_.begin(), streams_.end(),
                                [&](const Stream& s) {
                                  return s.pilot_id == pilot_id;
                                }),
                 streams_.end());
}

void TransferScheduler::close() {
  if (pump_) {
    pump_->close();
  }
}

std::size_t TransferScheduler::streams_active() const {
  check::MutexLock lock(mutex_);
  return streams_.size();
}

std::optional<net::Message> TransferScheduler::next_stream_frame(
    const std::vector<std::string>& busy, bool to_queue) {
  check::MutexLock lock(mutex_);
  const std::size_t n = streams_.size();
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t at = (round_robin_ + probe) % n;
    Stream& s = streams_[at];
    if (s.in_queue > 0 ||
        std::find(busy.begin(), busy.end(), s.pilot_id) != busy.end()) {
      continue;
    }
    net::Message m;
    m.type = net::MessageType::kObjPut;
    m.pilot_id = s.pilot_id;
    m.object_id = s.object_id;
    m.transfer_id = s.transfer_id;
    m.chunk_index = s.next;
    m.chunk_count = s.count;
    m.object_bytes = s.total;
    std::optional<Chunk> chunk =
        chunk_source_ ? chunk_source_(s.object_id, s.next) : std::nullopt;
    if (!chunk) {
      // The source lost (or corrupted) the object mid-stream: abort with
      // a NACK frame — chunk_count 0 makes the agent answer kObjLocate
      // success=false, which routes the manager to another replica.
      m.chunk_index = 0;
      m.chunk_count = 0;
      m.chunk_crc = 0;
      streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(at));
      round_robin_ = at;
      return m;
    }
    m.chunk_crc = chunk->crc;
    m.chunk_data = std::move(chunk->data);
    ++s.next;
    if (s.next >= s.count) {
      streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(at));
      round_robin_ = at;
    } else {
      s.in_queue += to_queue ? 1 : 0;
      round_robin_ = at + 1;
    }
    return m;
  }
  return std::nullopt;
}

void TransferScheduler::count_in_queue(
    const std::vector<net::Message>& frames, bool entering) {
  check::MutexLock lock(mutex_);
  for (const net::Message& m : frames) {
    if (m.type != net::MessageType::kObjPut) {
      continue;
    }
    for (Stream& s : streams_) {
      if (s.transfer_id == m.transfer_id) {
        if (entering) {
          ++s.in_queue;
        } else if (s.in_queue > 0) {
          --s.in_queue;
        }
        break;
      }
    }
  }
}

std::vector<net::Message> TransferScheduler::pump_sink(
    std::vector<net::Message> batch, net::FlushReason reason) {
  std::vector<net::Message> retained;
  if (!sender_) {
    return batch;  // not attached yet; retry after backoff
  }
  // The batch's chunk frames have left the pump queue, so their streams
  // may be topped up below (a retained frame re-enters it at the end).
  count_in_queue(batch, /*entering=*/false);
  // Pilots whose stream hit backpressure this pass: all their later
  // frames are retained unsent so per-pilot chunk order is preserved.
  std::vector<std::string> busy;
  std::size_t sent_this_pass = 0;
  const auto deliver = [&](net::Message& m) {
    const std::string pilot = m.pilot_id;
    if (std::find(busy.begin(), busy.end(), pilot) != busy.end()) {
      retained.push_back(std::move(m));
      return;
    }
    const std::uint64_t frame_bytes = m.chunk_data.size();
    switch (sender_(pilot, m)) {
      case SendResult::kSent:
        ++sent_this_pass;
        chunks_sent_.fetch_add(1, std::memory_order_relaxed);
        bytes_sent_.fetch_add(frame_bytes, std::memory_order_relaxed);
        break;
      case SendResult::kBusy:
        busy.push_back(pilot);
        retained.push_back(std::move(m));
        break;
      case SendResult::kGone:
        chunks_dropped_.fetch_add(1, std::memory_order_relaxed);
        drop_pilot(pilot);
        break;
    }
  };
  for (net::Message& m : batch) {
    deliver(m);
  }
  if (reason != net::FlushReason::kClose) {
    // Top up the pass from stream cursors. Streams with a frame still in
    // the pump queue are skipped, so a new frame never overtakes an
    // earlier one of its stream.
    const std::size_t cap =
        config_.chunks_per_pass == 0 ? 1 : config_.chunks_per_pass;
    while (sent_this_pass < cap) {
      std::optional<net::Message> next = next_stream_frame(busy, false);
      if (!next) {
        break;
      }
      deliver(*next);
    }
    // The flusher sleeps once its queue drains, so while cursors still
    // have work we retain one prefetched frame unsent: it re-enters the
    // sink after the retry backoff and keeps the stream moving. Only this
    // thread drains the queue, so a non-empty queue is re-entered anyway.
    // Appended last so it lands behind any busy-retained frames for its
    // pilot.
    if (pump_->pending() == 0) {
      if (std::optional<net::Message> ahead = next_stream_frame({}, false)) {
        retained.push_back(std::move(*ahead));
      }
    }
  }
  count_in_queue(retained, /*entering=*/true);
  return retained;
}

}  // namespace pa::store
