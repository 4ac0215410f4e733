/// The streaming frame reader: a file read in bounded chunks must find
/// exactly what the in-memory scan finds, wherever the file ends relative
/// to a chunk; a frame larger than a chunk still decodes; the journal's
/// incremental drain (a non-zero start offset) lands on the same image as
/// a full recovery replay; and a wal damaged behind a live journal is
/// refused as diverged.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pa/common/error.h"
#include "pa/journal/journal.h"
#include "pa/journal/reader.h"
#include "pa/journal/recovery.h"
#include "pa/journal/snapshot.h"

#include "journal_test_util.h"

namespace pa::journal {
namespace {

using testing::TempDir;

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

Record padded_record(std::uint64_t seq, std::size_t pad) {
  Record r;
  r.type = RecordType::kUnitState;
  r.seq = seq;
  r.time = static_cast<double>(seq) * 0.5;
  r.entity = "unit-" + std::to_string(seq);
  r.fields["state"] = "RUNNING";
  r.fields["pad"] = std::string(pad, static_cast<char>('a' + seq % 26));
  return r;
}

void expect_same_scan(const ReadResult& file, const ReadResult& memory,
                      const std::string& where) {
  EXPECT_EQ(file.records.size(), memory.records.size()) << where;
  EXPECT_TRUE(file.records == memory.records) << where;
  EXPECT_EQ(file.record_count, memory.record_count) << where;
  EXPECT_EQ(file.valid_bytes, memory.valid_bytes) << where;
  EXPECT_EQ(file.file_bytes, memory.file_bytes) << where;
  EXPECT_EQ(file.torn, memory.torn) << where;
}

TEST(StreamingReader, CutsAroundEveryChunkBoundaryMatchTheInMemoryScan) {
  TempDir dir;
  // Frames of uneven size, so frame and chunk boundaries fall out of step.
  std::string full;
  std::vector<std::uint64_t> frame_starts;
  for (std::uint64_t seq = 1; full.size() < 3 * kIoBufferBytes + 4096;
       ++seq) {
    frame_starts.push_back(full.size());
    append_frame(full, padded_record(seq, 200 + (seq * 37) % 1500));
  }
  const std::string path = dir.file("wal");
  spit(path, full);
  expect_same_scan(read_journal(path), scan(full.data(), full.size()),
                   "whole file");

  // Resuming at a frame boundary just before each chunk boundary (the
  // journal's drain offset) reads the same suffix.
  for (std::uint64_t k = 1; k <= 3; ++k) {
    const auto it = std::upper_bound(frame_starts.begin(), frame_starts.end(),
                                     k * kIoBufferBytes);
    const std::uint64_t offset = *(it - 1);
    ReadResult tail;
    static_cast<ScanSummary&>(tail) = scan_file(
        path, [&tail](Record&& r) { tail.records.push_back(std::move(r)); },
        offset);
    const ReadResult memory =
        scan(full.data() + offset, full.size() - offset);
    EXPECT_TRUE(tail.records == memory.records) << "offset=" << offset;
    EXPECT_EQ(tail.valid_bytes, offset + memory.valid_bytes);
    EXPECT_EQ(tail.file_bytes, full.size());
    EXPECT_FALSE(tail.torn);
  }

  // Cut the file at every byte within 16 of each chunk boundary, largest
  // cut first, so one file truncated step by step serves every cut.
  std::vector<std::uint64_t> cuts;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    for (int d = -16; d <= 16; ++d) {
      cuts.push_back(k * kIoBufferBytes + d);
    }
  }
  std::sort(cuts.rbegin(), cuts.rend());
  for (const std::uint64_t cut : cuts) {
    truncate_file(path, cut);
    expect_same_scan(read_journal(path), scan(full.data(), cut),
                     "cut=" + std::to_string(cut));
  }
}

TEST(StreamingReader, FrameLargerThanTheBufferDecodes) {
  TempDir dir;
  std::string bytes;
  append_frame(bytes, padded_record(1, 10));
  const std::size_t big_start = bytes.size();
  append_frame(bytes, padded_record(2, 2 * kIoBufferBytes + 123));
  const std::size_t big_end = bytes.size();
  append_frame(bytes, padded_record(3, 10));
  const std::string path = dir.file("wal");
  spit(path, bytes);

  const ReadResult whole = read_journal(path);
  EXPECT_FALSE(whole.torn);
  ASSERT_EQ(whole.records.size(), 3u);
  EXPECT_EQ(whole.records[1], padded_record(2, 2 * kIoBufferBytes + 123));
  EXPECT_EQ(whole.valid_bytes, bytes.size());

  // Torn inside the oversized frame: only the frame before it survives.
  for (const std::size_t cut :
       {big_start + 4, big_start + kIoBufferBytes, big_end - 1}) {
    truncate_file(path, cut);
    const ReadResult torn = read_journal(path);
    EXPECT_TRUE(torn.torn) << "cut=" << cut;
    EXPECT_EQ(torn.records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(torn.valid_bytes, big_start) << "cut=" << cut;
    EXPECT_EQ(torn.file_bytes, cut) << "cut=" << cut;
  }
}

TEST(StreamingReader, SnapshotLargerThanTheBufferRoundTrips) {
  TempDir dir;
  ManagerImage image;
  constexpr int kUnits = 8000;
  for (int i = 1; i <= kUnits; ++i) {
    Record r;
    r.type = RecordType::kUnitSubmit;
    r.seq = static_cast<std::uint64_t>(i);
    r.entity = "unit-" + std::to_string(i);
    r.fields = {{"cores", "1"}, {"duration", "2"}};
    r.fields["attributes"] = std::string(150, static_cast<char>('a' + i % 26));
    image.apply(r);
  }
  const std::string path = dir.file("snap");
  Snapshot::write(path, image);
  const ReadResult frames = read_journal(path);
  ASSERT_GT(frames.file_bytes, 2 * kIoBufferBytes);  // several write buffers
  EXPECT_FALSE(frames.torn);
  EXPECT_EQ(frames.record_count, 1u + kUnits);  // header + one per unit
  ManagerImage restored;
  ASSERT_TRUE(Snapshot::load(path, &restored));
  EXPECT_EQ(restored, image);

  // Cut at a buffer boundary, the file is rejected whole.
  truncate_file(path, kIoBufferBytes);
  ManagerImage untouched;
  EXPECT_FALSE(Snapshot::load(path, &untouched));
  EXPECT_EQ(untouched, ManagerImage());
}

/// Appends a legal lifecycle history to a live journal, one record at a
/// time, calling `after_each` after every append.
void append_history(Journal& journal, int units,
                    const std::function<void()>& after_each) {
  const auto append = [&](RecordType type, const std::string& entity,
                          std::map<std::string, std::string> fields) {
    Record r;
    r.type = type;
    r.entity = entity;
    r.fields = std::move(fields);
    journal.append(std::move(r));
    after_each();
  };
  append(RecordType::kPilotSubmit, "pilot-0",
         {{"resource_url", "slurm://hpc-a"},
          {"nodes", "1"},
          {"walltime", "3600"},
          {"priority", "0"},
          {"cost_per_core_hour", "0"},
          {"restarts_used", "0"}});
  append(RecordType::kPilotState, "pilot-0",
         {{"state", core::to_string(core::PilotState::kSubmitted)}});
  append(RecordType::kPilotState, "pilot-0",
         {{"state", core::to_string(core::PilotState::kActive)},
          {"cores", "8"},
          {"site", "hpc-a"}});
  for (int i = 0; i < units; ++i) {
    const std::string id = "unit-" + std::to_string(i);
    append(RecordType::kUnitSubmit, id, {{"cores", "1"}, {"duration", "2"}});
    append(RecordType::kUnitState, id,
           {{"state", core::to_string(core::UnitState::kPending)}});
    append(RecordType::kUnitBind, id, {{"pilot", "pilot-0"}});
    for (const auto to : {core::UnitState::kScheduled,
                          core::UnitState::kRunning, core::UnitState::kDone}) {
      append(RecordType::kUnitState, id, {{"state", core::to_string(to)}});
    }
  }
}

ManagerImage replayed(const std::string& dir) {
  RecoveryOptions options;
  options.truncate_torn_tail = false;  // read-only: the journal is live
  return RecoveryCoordinator(dir, options).recover().image;
}

TEST(StreamingReader, RepeatedMidRunDrainsMatchAFullReplay) {
  TempDir dir;
  Journal journal(dir.path());
  int appended = 0;
  int checked = 0;
  append_history(journal, 24, [&] {
    if (++appended % 7 == 0) {
      // Each drain resumes at the previous one's end offset, and flushes
      // the wal the replay then reads.
      const ManagerImage drained = journal.image();
      EXPECT_EQ(drained, replayed(dir.path()))
          << "after " << appended << " records";
      ++checked;
    }
  });
  EXPECT_GT(checked, 10);
  const ManagerImage final_image = journal.image();
  EXPECT_EQ(final_image.terminal_units(), 24u);
  journal.close();
  EXPECT_EQ(final_image, replayed(dir.path()));
}

void expect_diverged(const std::function<void()>& observe) {
  try {
    observe();
    ADD_FAILURE() << "a damaged wal was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos)
        << e.what();
  }
}

class DivergedWalTest : public ::testing::Test {
 protected:
  /// A live journal whose first records are drained and whose later ones
  /// are on disk but not yet drained; returns the drained wal length.
  std::uint64_t drain_some_then_append_more() {
    int appended = 0;
    std::uint64_t drained = 0;
    append_history(*journal_, 6, [&] {
      if (++appended == 9) {
        journal_->image();
        drained = slurp(wal()).size();
      }
    });
    journal_->flush();
    return drained;
  }

  std::string wal() const { return Journal::wal_path(dir_.path()); }

  TempDir dir_;
  std::unique_ptr<Journal> journal_ = std::make_unique<Journal>(dir_.path());
};

TEST_F(DivergedWalTest, TornTailBehindALiveJournal) {
  drain_some_then_append_more();
  truncate_file(wal(), slurp(wal()).size() - 3);
  expect_diverged([&] { journal_->image(); });
  expect_diverged([&] { journal_->image(); });  // stays refused
  expect_diverged([&] { journal_->close(); });
}

TEST_F(DivergedWalTest, CorruptByteInTheUndrainedTail) {
  const std::uint64_t drained = drain_some_then_append_more();
  std::string bytes = slurp(wal());
  ASSERT_GT(bytes.size(), drained + 16);
  bytes[drained + 12] = static_cast<char>(bytes[drained + 12] ^ 0x5A);
  spit(wal(), bytes);
  expect_diverged([&] { journal_->close(); });
}

TEST_F(DivergedWalTest, WalTruncatedBelowTheDrainOffset) {
  drain_some_then_append_more();
  truncate_file(wal(), 0);
  Record late;
  late.type = RecordType::kUnitState;
  late.entity = "unit-0";
  late.fields["state"] = core::to_string(core::UnitState::kDone);
  journal_->append(std::move(late));
  expect_diverged([&] { journal_->image(); });
}

}  // namespace
}  // namespace pa::journal
