#include "pa/journal/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "pa/common/error.h"
#include "pa/journal/crc32.h"

namespace pa::journal {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

Writer::Writer(std::string path, WriterConfig config, std::uint64_t first_seq)
    : path_(std::move(path)), config_(config) {
  PA_REQUIRE_ARG(first_seq >= 1, "journal seq numbers start at 1");
  int flags = O_CREAT | O_WRONLY | O_CLOEXEC;
  flags |= config_.truncate_existing ? O_TRUNC : O_APPEND;
  {
    check::MutexLock lock(mutex_);
    next_seq_ = first_seq;
    durable_seq_ = first_seq - 1;
    fd_ = ::open(path_.c_str(), flags, 0644);
    if (fd_ < 0) {
      throw Error("cannot open journal " + path_ + ": " +
                  errno_message(errno));
    }
  }
  flusher_ = std::thread([this]() { flusher_loop(); });
}

Writer::~Writer() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; close() errors at teardown are moot.
  }
}

void Writer::set_metrics(obs::MetricsRegistry* metrics) {
  // Resolve the instrument handles before taking our own mutex: registry
  // handles are stable for its lifetime, so append()/write_batch() never
  // touch the registry lock again — and the writer lock never nests over
  // the registry lock.
  MetricsHandles handles;
  if (metrics != nullptr) {
    handles.records = &metrics->counter("journal.records");
    handles.flushes = &metrics->counter("journal.flushes");
    handles.flushed_bytes = &metrics->counter("journal.flushed_bytes");
    handles.flush_seconds = &metrics->histogram("journal.flush_seconds",
                                                1e-7, 60.0);
    handles.batch_records = &metrics->histogram("journal.batch_records",
                                                1.0, 1e6);
  }
  check::MutexLock lock(mutex_);
  metrics_ = handles;
}

std::uint64_t Writer::append(const Record& record) {
  return append_payload(encode_payload(record));
}

std::uint64_t Writer::append_payload(std::string_view payload) {
  PA_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
               "journal record payload too large: " << payload.size());
  PA_CHECK_MSG(payload.size() >= kPayloadSeqOffset + sizeof(std::uint64_t),
               "journal payload too short for a seq: " << payload.size());
  const auto length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc_slot = 0;  // the flusher fills it in
  obs::Counter* records_counter = nullptr;
  std::uint64_t seq = 0;
  {
    check::MutexLock lock(mutex_);
    if (closing_) {
      throw InvalidStateError("append on closed journal writer " + path_);
    }
    seq = next_seq_++;
    // Hot path: stamp + copy only. The flusher checksums the frame, so the
    // submitting thread never pays the CRC or file I/O.
    const bool flusher_idle = pending_records_ == 0 && !draining_;
    const std::size_t frame = pending_.size();
    pending_.append(reinterpret_cast<const char*>(&length), sizeof(length));
    pending_.append(reinterpret_cast<const char*>(&crc_slot),
                    sizeof(crc_slot));
    pending_.append(payload);
    std::memcpy(pending_.data() + frame + kFrameHeaderBytes +
                    kPayloadSeqOffset,
                &seq, sizeof(seq));
    ++pending_records_;
    records_counter = metrics_.records;
    // The flusher only sleeps when the queue is empty; while it drains (or
    // has a non-empty queue to re-check) a wakeup is redundant, and eliding
    // it keeps the futex syscall off the append path.
    if (flusher_idle || config_.sync == WriterConfig::Sync::kEveryRecord) {
      work_cv_.notify_one();
    }
    if (config_.sync == WriterConfig::Sync::kEveryRecord) {
      while (durable_seq_ < seq) {
        durable_cv_.wait(lock);
      }
    }
  }
  if (records_counter != nullptr) {
    records_counter->inc();  // lock-free; off the critical section
  }
  return seq;
}

void Writer::flush() {
  check::MutexLock lock(mutex_);
  const std::uint64_t target = next_seq_ - 1;
  work_cv_.notify_one();
  while (durable_seq_ < target) {
    durable_cv_.wait(lock);
  }
}

void Writer::close() {
  {
    check::MutexLock lock(mutex_);
    if (closed_ || closing_) {
      // Already closed, or a concurrent close() owns the join — returning
      // here keeps flusher_.join() single-callered (calling join() on the
      // same std::thread from two threads is undefined behavior).
      return;
    }
    closing_ = true;
    work_cv_.notify_one();
  }
  if (flusher_.joinable()) {
    flusher_.join();
  }
  check::MutexLock lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  closed_ = true;
}

void Writer::truncate_log() {
  check::MutexLock lock(mutex_);
  work_cv_.notify_one();
  // Wait until the flusher is idle so we never truncate under its write.
  while (pending_records_ != 0 || draining_) {
    durable_cv_.wait(lock);
  }
  if (fd_ < 0) {
    throw InvalidStateError("truncate on closed journal writer " + path_);
  }
  PA_CHECK_MSG(::ftruncate(fd_, 0) == 0,
               "ftruncate failed on " << path_ << ": " << errno_message(errno));
  PA_CHECK_MSG(::lseek(fd_, 0, SEEK_SET) >= 0,
               "lseek failed on " << path_);
}

std::uint64_t Writer::next_seq() const {
  check::MutexLock lock(mutex_);
  return next_seq_;
}

void Writer::write_batch(int fd, std::string& batch,
                         std::size_t batch_records, MetricsHandles handles) {
  for (std::size_t frame = 0; frame < batch.size();) {
    std::uint32_t length = 0;
    std::memcpy(&length, batch.data() + frame, sizeof(length));
    char* payload = batch.data() + frame + kFrameHeaderBytes;
    const std::uint32_t crc = crc32(payload, length);
    std::memcpy(batch.data() + frame + sizeof(length), &crc, sizeof(crc));
    frame += kFrameHeaderBytes + length;
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t written = 0;
  while (written < batch.size()) {
    const ssize_t n =
        ::write(fd, batch.data() + written, batch.size() - written);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    PA_CHECK_MSG(n > 0, "journal write failed on " << path_ << ": "
                                                   << errno_message(errno));
    written += static_cast<std::size_t>(n);
  }
  if (config_.sync != WriterConfig::Sync::kNone) {
    PA_CHECK_MSG(::fsync(fd) == 0, "journal fsync failed on "
                                       << path_ << ": "
                                       << errno_message(errno));
  }
  if (handles.flushes != nullptr) {
    handles.flushes->inc();
    handles.flushed_bytes->inc(batch.size());
    handles.flush_seconds->record(seconds_since(t0));
    handles.batch_records->record(static_cast<double>(batch_records));
  }
}

void Writer::flusher_loop() {
  // The batch being written; swapped with `pending_` each round, so both
  // buffers keep their capacity and a flush allocates nothing.
  std::string batch;
  check::MutexLock lock(mutex_);
  while (true) {
    while (!closing_ && pending_records_ == 0) {
      work_cv_.wait(lock);
    }
    if (pending_records_ == 0) {
      // closing_ and drained: final state. durable_seq_ already covers
      // every appended record, so flush()/close() waiters are satisfied.
      return;
    }
    batch.clear();
    batch.swap(pending_);
    const std::size_t batch_records = std::exchange(pending_records_, 0);
    const std::uint64_t last_seq = next_seq_ - 1;
    const int fd = fd_;
    const MetricsHandles handles = metrics_;
    draining_ = true;
    lock.unlock();
    write_batch(fd, batch, batch_records, handles);
    lock.lock();
    draining_ = false;
    durable_seq_ = std::max(durable_seq_, last_seq);
    durable_cv_.notify_all();
  }
}

}  // namespace pa::journal
