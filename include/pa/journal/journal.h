#pragma once
/// \file journal.h
/// \brief The write-ahead journal facade: one directory holding a wal and
/// a compacted snapshot, plus the materialized image that ties them
/// together.
///
/// `Journal::append_payload` only hands an encoded record to the
/// group-commit writer (`ServiceJournal`'s hooks encode straight into
/// payload bytes; `append` encodes a `Record` first) — the wal itself is
/// the staging area. Materialization into the
/// `ManagerImage` (and its transition validation) is deferred: whenever
/// the image is observed — `image()`, `compact()`, `close()` — the wal
/// tail written since the last drain is read back and replayed, so the
/// materialized state is exactly what a crash-recovery replay of the log
/// would produce, by construction.
/// That equivalence is what makes periodic compaction safe: `compact()`
/// drains, serializes the image, atomically replaces the snapshot, and
/// empties the wal. A record that would replay illegally (not produced by
/// a validated run) throws from the draining call. Directory layout:
///
///     <dir>/journal.wal        frames (see record.h)
///     <dir>/journal.snapshot   compacted image (see snapshot.h)
///
/// Thread-safety: all methods lock one mutex; append order defines replay
/// order.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "pa/check/mutex.h"
#include "pa/journal/replayer.h"
#include "pa/journal/snapshot.h"
#include "pa/journal/writer.h"

namespace pa::journal {

struct JournalConfig {
  WriterConfig writer;
  /// Compact (snapshot + wal reset) after this many wal records since the
  /// last snapshot; 0 disables automatic compaction.
  std::size_t snapshot_every_records = 0;
};

class Journal {
 public:
  /// Opens (creating) the journal in `dir`. `resume_from` seeds the image
  /// and sequence counter when re-opening a recovered journal; pass the
  /// RecoveryResult's image so new records continue its history.
  explicit Journal(std::string dir, JournalConfig config = {},
                   const ManagerImage* resume_from = nullptr);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one encoded payload (`PayloadBuilder` layout; the writer
  /// stamps its seq) to the wal; returns its sequence number. Triggers
  /// compaction when configured. Image application (and its transition
  /// validation) happens at the next drain, by wal readback.
  std::uint64_t append_payload(std::string_view payload) PA_EXCLUDES(mutex_);

  /// Encodes `record` (its `seq` is ignored), then `append_payload`.
  std::uint64_t append(const Record& record) PA_EXCLUDES(mutex_);

  /// Blocks until all appended records are durable.
  void flush() PA_EXCLUDES(mutex_);

  /// Writes a snapshot of the current image and empties the wal.
  void compact() PA_EXCLUDES(mutex_);

  /// Flushes and closes the wal writer. Idempotent.
  void close() PA_EXCLUDES(mutex_);

  /// Copy of the materialized state (consistent snapshot).
  ManagerImage image() const PA_EXCLUDES(mutex_);

  const std::string& dir() const { return dir_; }
  std::uint64_t records_appended() const PA_EXCLUDES(mutex_);

  /// Forwards to the writer ("journal.*" metrics) and counts
  /// "journal.compactions". Registry must outlive the attachment.
  void set_metrics(obs::MetricsRegistry* metrics) PA_EXCLUDES(mutex_);

  static std::string wal_path(const std::string& dir);
  static std::string snapshot_path(const std::string& dir);

 private:
  void compact_locked() PA_REQUIRES(mutex_);
  /// Replays the wal tail appended since the last drain into the image
  /// (mutex_ held; flushes the writer first), streaming it frame by frame
  /// from `applied_bytes_`. Throws once the wal diverges from what was
  /// appended. Const because the lazily-materialized image is logically
  /// unchanged by draining.
  void drain_image_locked() const PA_REQUIRES(mutex_);

  const std::string dir_;
  const JournalConfig config_;
  /// LockRank::kJournal nests over the writer's kJournalWriter lock —
  /// append/flush/drain call into `writer_` while holding `mutex_`.
  mutable check::Mutex mutex_{check::LockRank::kJournal, "journal::Journal"};
  mutable ManagerImage image_ PA_GUARDED_BY(mutex_);
  /// Wal prefix already materialized in the image.
  mutable std::uint64_t applied_bytes_ PA_GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t applied_records_ PA_GUARDED_BY(mutex_) = 0;
  /// Set once a drain found the wal torn or short of the appended history.
  mutable bool diverged_ PA_GUARDED_BY(mutex_) = false;
  std::unique_ptr<Writer> writer_;  ///< set in ctor, immutable after
  std::size_t records_since_snapshot_ PA_GUARDED_BY(mutex_) = 0;
  std::uint64_t records_appended_ PA_GUARDED_BY(mutex_) = 0;
  obs::MetricsRegistry* metrics_ PA_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace pa::journal
