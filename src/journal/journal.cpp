#include "pa/journal/journal.h"

#include <sys/stat.h>

#include <cerrno>
#include <utility>

#include "pa/common/error.h"
#include "pa/common/log.h"
#include "pa/journal/reader.h"

namespace pa::journal {

std::string Journal::wal_path(const std::string& dir) {
  return dir + "/journal.wal";
}

std::string Journal::snapshot_path(const std::string& dir) {
  return dir + "/journal.snapshot";
}

Journal::Journal(std::string dir, JournalConfig config,
                 const ManagerImage* resume_from)
    : dir_(std::move(dir)), config_(config) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw Error("cannot create journal directory " + dir_ + ": " +
                errno_message(errno));
  }
  std::uint64_t first_seq = 1;
  if (resume_from != nullptr) {
    image_ = *resume_from;
    first_seq = image_.last_seq() + 1;
  }
  WriterConfig wc = config_.writer;
  // A resumed journal starts from a fresh wal: the recovered history is
  // re-anchored by the snapshot compact() writes below.
  wc.truncate_existing = wc.truncate_existing || resume_from != nullptr;
  writer_ = std::make_unique<Writer>(wal_path(dir_), wc, first_seq);
  if (resume_from != nullptr) {
    check::MutexLock lock(mutex_);
    compact_locked();
  }
}

Journal::~Journal() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw.
  }
}

void Journal::set_metrics(obs::MetricsRegistry* metrics) {
  check::MutexLock lock(mutex_);
  metrics_ = metrics;
  writer_->set_metrics(metrics);
}

std::uint64_t Journal::append(const Record& record) {
  return append_payload(encode_payload(record));
}

std::uint64_t Journal::append_payload(std::string_view payload) {
  check::MutexLock lock(mutex_);
  // Hot path: copy the bytes to the group-commit writer, nothing else.
  // Materialization into the image (field parsing, map updates,
  // transition validation) is deferred: the wal itself is the staging
  // area, and the next image drain replays its unapplied tail.
  const std::uint64_t seq = writer_->append_payload(payload);
  ++records_appended_;
  if (config_.snapshot_every_records > 0 &&
      ++records_since_snapshot_ >= config_.snapshot_every_records) {
    compact_locked();
  }
  return seq;
}

void Journal::drain_image_locked() const {
  const auto diverged = [this] {
    return Error("journal wal " + wal_path(dir_) +
                 " diverged from appended history (torn or truncated "
                 "mid-run)");
  };
  if (diverged_) {
    throw diverged();
  }
  if (applied_records_ == records_appended_) {
    return;
  }
  // Settle the wal, then replay the bytes appended since the last drain,
  // one frame at a time — materializing the image from the log keeps the
  // two equivalent by construction.
  writer_->flush();
  const ScanSummary tail = scan_file(
      wal_path(dir_), [this](Record&& record) { image_.apply(record); },
      applied_bytes_);
  if (tail.torn || applied_records_ + tail.record_count != records_appended_) {
    // The image already holds the frames read before the divergence, so
    // it matches no history any more: every later drain refuses too.
    diverged_ = true;
    throw diverged();
  }
  applied_records_ += tail.record_count;
  applied_bytes_ = tail.valid_bytes;
}

void Journal::flush() {
  check::MutexLock lock(mutex_);
  writer_->flush();
}

void Journal::compact() {
  check::MutexLock lock(mutex_);
  compact_locked();
}

void Journal::compact_locked() {
  drain_image_locked();
  writer_->flush();
  Snapshot::write(snapshot_path(dir_), image_);
  writer_->truncate_log();
  records_since_snapshot_ = 0;
  applied_bytes_ = 0;  // the wal restarts empty
  if (metrics_ != nullptr) {
    metrics_->counter("journal.compactions").inc();
  }
  PA_LOG(kDebug, "journal") << "compacted " << dir_ << " at seq "
                            << image_.last_seq();
}

void Journal::close() {
  check::MutexLock lock(mutex_);
  drain_image_locked();
  writer_->close();
}

ManagerImage Journal::image() const {
  check::MutexLock lock(mutex_);
  drain_image_locked();
  return image_;
}

std::uint64_t Journal::records_appended() const {
  check::MutexLock lock(mutex_);
  return records_appended_;
}

}  // namespace pa::journal
