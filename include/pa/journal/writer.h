#pragma once
/// \file writer.h
/// \brief Append-only journal writer with group commit.
///
/// Callers hand the writer finished payload bytes (`append_payload`; the
/// service journal's hooks encode straight into a reused buffer), and
/// `append()` is "encode the `Record`, then the payload path". Under the
/// lock an append only stamps the seq into the payload and copies the
/// frame onto one pending byte buffer. A background flusher thread swaps
/// that buffer for a spare one, fills in the frames' CRCs with the lock
/// dropped, and writes them with one `write(2)` and (in group-commit mode)
/// one `fsync(2)`, amortizing the checksum and the sync cost over the
/// batch exactly as database WALs do. Durability guarantee: the
/// on-disk file is always a byte prefix of the appended stream, possibly
/// ending in a torn frame if the process died mid-write — which the reader
/// detects and the recovery coordinator truncates.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

#include "pa/check/mutex.h"
#include "pa/journal/record.h"
#include "pa/obs/metrics.h"

namespace pa::journal {

struct WriterConfig {
  /// Durability mode.
  enum class Sync {
    kNone,         ///< never fsync; OS decides (fastest, weakest)
    kGroup,        ///< one fsync per drained batch (group commit; default)
    kEveryRecord,  ///< append() blocks until its record is fsynced
  };
  Sync sync = Sync::kGroup;
  /// Truncate an existing file on open (false = append to it).
  bool truncate_existing = false;
};

/// Thread-safe append-only writer. All methods may be called from any
/// thread; `close()` (or destruction) flushes and joins the flusher.
class Writer {
 public:
  /// Opens (creating if needed) `path`. `first_seq` seeds the sequence
  /// counter — recovery passes `last replayed seq + 1` so a resumed
  /// journal stays strictly monotonic.
  explicit Writer(std::string path, WriterConfig config = {},
                  std::uint64_t first_seq = 1);
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Encodes `record` (its `seq` is ignored) and appends it as
  /// `append_payload` does.
  std::uint64_t append(const Record& record) PA_EXCLUDES(mutex_);

  /// Queues one encoded payload (`PayloadBuilder` layout) as a frame,
  /// stamping the next seq at `kPayloadSeqOffset`, and returns that seq.
  /// The bytes are copied; the caller may reuse its buffer at once. In
  /// kEveryRecord mode, blocks until the record is durable.
  std::uint64_t append_payload(std::string_view payload) PA_EXCLUDES(mutex_);

  /// Blocks until every previously appended record is written (and, in
  /// syncing modes, fsynced).
  void flush() PA_EXCLUDES(mutex_);

  /// Flushes, stops the flusher thread and closes the file. Idempotent;
  /// a concurrent second caller may return before the first finishes
  /// joining the flusher (same contract as ThreadPool::shutdown).
  void close() PA_EXCLUDES(mutex_);

  /// Empties the log file (after a snapshot made its contents redundant).
  /// Pending records are flushed first; the seq counter keeps advancing.
  void truncate_log() PA_EXCLUDES(mutex_);

  std::uint64_t next_seq() const PA_EXCLUDES(mutex_);
  const std::string& path() const { return path_; }

  /// Exports "journal.records", "journal.flushes", "journal.flushed_bytes"
  /// counters and "journal.flush_seconds" / "journal.batch_records"
  /// histograms. Pass nullptr to detach; registry must outlive attachment.
  /// Instrument handles are resolved once here (registry handles are
  /// stable for its lifetime), so the append/flush hot paths never take
  /// the registry lock.
  void set_metrics(obs::MetricsRegistry* metrics) PA_EXCLUDES(mutex_);

 private:
  /// Pre-resolved instrument handles (null when detached).
  struct MetricsHandles {
    obs::Counter* records = nullptr;
    obs::Counter* flushes = nullptr;
    obs::Counter* flushed_bytes = nullptr;
    obs::Histogram* flush_seconds = nullptr;
    obs::Histogram* batch_records = nullptr;
  };

  void flusher_loop() PA_EXCLUDES(mutex_);
  /// Fills in the CRC of every frame in `batch`, then writes (and, per
  /// config, fsyncs) it. Runs with the lock dropped — `fd` is passed by
  /// value and the handles are stable.
  void write_batch(int fd, std::string& batch, std::size_t batch_records,
                   MetricsHandles handles);

  const std::string path_;
  const WriterConfig config_;

  mutable check::Mutex mutex_{check::LockRank::kJournalWriter,
                              "journal::Writer"};
  check::CondVar work_cv_;     ///< flusher wakeups
  check::CondVar durable_cv_;  ///< flush()/append() waiters
  int fd_ PA_GUARDED_BY(mutex_) = -1;
  /// Queued frames (seq stamped, CRC still zero) and how many there are.
  std::string pending_ PA_GUARDED_BY(mutex_);
  std::size_t pending_records_ PA_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_seq_ PA_GUARDED_BY(mutex_) = 1;
  /// Highest seq written (+synced); starts at first_seq - 1.
  std::uint64_t durable_seq_ PA_GUARDED_BY(mutex_) = 0;
  bool draining_ PA_GUARDED_BY(mutex_) = false;  ///< flusher mid write/fsync
  bool closing_ PA_GUARDED_BY(mutex_) = false;
  bool closed_ PA_GUARDED_BY(mutex_) = false;
  MetricsHandles metrics_ PA_GUARDED_BY(mutex_);

  std::thread flusher_;
};

}  // namespace pa::journal
