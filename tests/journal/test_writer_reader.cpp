#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "pa/common/error.h"
#include "pa/journal/reader.h"
#include "pa/journal/writer.h"
#include "pa/obs/metrics.h"

#include "journal_test_util.h"

namespace pa::journal {
namespace {

using testing::TempDir;

Record make_record(std::uint64_t i) {
  Record r;
  r.type = RecordType::kUnitState;
  r.time = static_cast<double>(i) * 0.25;
  r.entity = "unit-" + std::to_string(i);
  r.fields["state"] = "RUNNING";
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class WriterReaderTest : public ::testing::Test {
 protected:
  TempDir dir_;
};

TEST_F(WriterReaderTest, RoundTripsAcrossAllSyncModes) {
  for (const auto sync :
       {WriterConfig::Sync::kNone, WriterConfig::Sync::kGroup,
        WriterConfig::Sync::kEveryRecord}) {
    const std::string path =
        dir_.file("wal_" + std::to_string(static_cast<int>(sync)));
    WriterConfig config;
    config.sync = sync;
    {
      Writer writer(path, config);
      for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(writer.append(make_record(i)), i + 1);
      }
    }  // destructor flushes + closes
    const ReadResult result = read_journal(path);
    EXPECT_FALSE(result.torn);
    ASSERT_EQ(result.records.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(result.records[i].seq, i + 1);
      EXPECT_EQ(result.records[i].entity, "unit-" + std::to_string(i));
    }
  }
}

TEST_F(WriterReaderTest, FlushMakesRecordsVisible) {
  const std::string path = dir_.file("wal");
  Writer writer(path);
  for (std::uint64_t i = 0; i < 10; ++i) {
    writer.append(make_record(i));
  }
  writer.flush();
  // Before close: everything appended so far must already be on disk.
  EXPECT_EQ(read_journal(path).records.size(), 10u);
  writer.close();
}

TEST_F(WriterReaderTest, ConcurrentAppendersKeepSeqDense) {
  // Half the threads append `Record`s, half append payloads they encoded
  // themselves; the flusher checksums swapped-out batches with the lock
  // dropped. Frames in file order must carry dense, strictly increasing
  // seqs and valid CRCs (the reader rejects a bad CRC or a seq that does
  // not increase as a torn tail).
  for (const auto sync :
       {WriterConfig::Sync::kGroup, WriterConfig::Sync::kEveryRecord}) {
    const std::string path =
        dir_.file("wal_" + std::to_string(static_cast<int>(sync)));
    WriterConfig config;
    config.sync = sync;
    {
      Writer writer(path, config);
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&writer, t]() {
          std::string payload;
          for (std::uint64_t i = 0; i < 250; ++i) {
            const Record r =
                make_record(static_cast<std::uint64_t>(t) * 1000 + i);
            if (t % 2 == 0) {
              writer.append(r);
              continue;
            }
            payload.clear();
            PayloadBuilder builder(payload, r.type, /*seq=*/0, r.time,
                                   r.entity);
            for (const auto& [key, value] : r.fields) {
              builder.field(key, value);
            }
            builder.finish();
            writer.append_payload(payload);
          }
        });
      }
      for (auto& th : threads) {
        th.join();
      }
    }
    const ReadResult result = read_journal(path);
    EXPECT_FALSE(result.torn);
    ASSERT_EQ(result.records.size(), 1000u);
    std::vector<int> per_thread(4, 0);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const Record& r = result.records[i];
      EXPECT_EQ(r.seq, i + 1);  // dense, strictly increasing
      // Each thread's records land in its own append order, intact.
      const std::uint64_t id = std::stoull(r.entity.substr(5));
      const auto t = static_cast<std::size_t>(id / 1000);
      ASSERT_LT(t, per_thread.size());
      EXPECT_EQ(r, [&] {
        Record expected = make_record(t * 1000 + per_thread[t]);
        expected.seq = r.seq;
        return expected;
      }());
      ++per_thread[t];
    }
  }
}

TEST_F(WriterReaderTest, AppendAfterCloseThrows) {
  Writer writer(dir_.file("wal"));
  writer.append(make_record(0));
  writer.close();
  EXPECT_THROW(writer.append(make_record(1)), pa::Error);
}

TEST_F(WriterReaderTest, ReopenAppendsWithContinuedSeq) {
  const std::string path = dir_.file("wal");
  {
    Writer writer(path);
    for (std::uint64_t i = 0; i < 5; ++i) {
      writer.append(make_record(i));
    }
  }
  {
    Writer writer(path, WriterConfig{}, /*first_seq=*/6);
    for (std::uint64_t i = 5; i < 10; ++i) {
      writer.append(make_record(i));
    }
  }
  const ReadResult result = read_journal(path);
  EXPECT_FALSE(result.torn);
  ASSERT_EQ(result.records.size(), 10u);
  EXPECT_EQ(result.records.back().seq, 10u);
}

TEST_F(WriterReaderTest, TruncateLogEmptiesFileButKeepsSeq) {
  const std::string path = dir_.file("wal");
  Writer writer(path);
  for (std::uint64_t i = 0; i < 5; ++i) {
    writer.append(make_record(i));
  }
  writer.truncate_log();
  EXPECT_EQ(read_journal(path).records.size(), 0u);
  EXPECT_EQ(writer.append(make_record(5)), 6u);  // counter kept advancing
  writer.close();
  const ReadResult result = read_journal(path);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].seq, 6u);
}

TEST_F(WriterReaderTest, MissingFileReadsEmpty) {
  const ReadResult result = read_journal(dir_.file("nonexistent"));
  EXPECT_FALSE(result.torn);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.file_bytes, 0u);
}

TEST_F(WriterReaderTest, WriterMetricsExported) {
  obs::MetricsRegistry metrics;
  const std::string path = dir_.file("wal");
  {
    Writer writer(path);
    writer.set_metrics(&metrics);
    for (std::uint64_t i = 0; i < 50; ++i) {
      writer.append(make_record(i));
    }
    writer.flush();
  }
  EXPECT_EQ(metrics.counter("journal.records").value(), 50.0);
  EXPECT_GE(metrics.counter("journal.flushes").value(), 1.0);
  EXPECT_GT(metrics.counter("journal.flushed_bytes").value(), 0.0);
}

/// The satellite-mandated exhaustive torn-tail test: cut the file at every
/// byte offset inside the final record's frame; the reader must always
/// recover exactly the records before it and flag the tail, and physical
/// truncation + re-append must yield a clean journal again.
TEST_F(WriterReaderTest, TornTailDetectedAtEveryByteOfFinalRecord) {
  const std::string path = dir_.file("wal");
  {
    Writer writer(path);
    for (std::uint64_t i = 0; i < 4; ++i) {
      writer.append(make_record(i));
    }
  }
  const std::string full = slurp(path);

  // Locate the byte where the final record's frame begins.
  std::string prefix3;
  for (std::uint64_t i = 0; i < 3; ++i) {
    Record r = make_record(i);
    r.seq = i + 1;
    append_frame(prefix3, r);
  }
  ASSERT_LT(prefix3.size(), full.size());
  ASSERT_EQ(full.compare(0, prefix3.size(), prefix3), 0)
      << "writer output is not the concatenation of its frames";

  for (std::size_t cut = prefix3.size(); cut < full.size(); ++cut) {
    const std::string cut_path = dir_.file("cut");
    spit(cut_path, full.substr(0, cut));
    const ReadResult result = read_journal(cut_path);
    if (cut == prefix3.size()) {
      // Clean cut exactly between frames: no torn tail at all.
      EXPECT_FALSE(result.torn) << "cut=" << cut;
    } else {
      EXPECT_TRUE(result.torn) << "cut=" << cut;
      EXPECT_EQ(result.valid_bytes, prefix3.size()) << "cut=" << cut;
      EXPECT_EQ(result.torn_bytes(), cut - prefix3.size()) << "cut=" << cut;
    }
    ASSERT_EQ(result.records.size(), 3u) << "cut=" << cut;

    // Round-trip: truncate the tail, append a new record, read it all back.
    truncate_file(cut_path, result.valid_bytes);
    {
      Writer writer(cut_path, WriterConfig{},
                    /*first_seq=*/result.records.back().seq + 1);
      writer.append(make_record(99));
    }
    const ReadResult repaired = read_journal(cut_path);
    EXPECT_FALSE(repaired.torn) << "cut=" << cut;
    ASSERT_EQ(repaired.records.size(), 4u) << "cut=" << cut;
    EXPECT_EQ(repaired.records.back().entity, "unit-99") << "cut=" << cut;
  }
}

TEST_F(WriterReaderTest, CorruptedMiddleByteEndsValidPrefix) {
  const std::string path = dir_.file("wal");
  {
    Writer writer(path);
    for (std::uint64_t i = 0; i < 4; ++i) {
      writer.append(make_record(i));
    }
  }
  std::string bytes = slurp(path);
  // Flip one byte in the middle of the file (inside record 2's frame).
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  spit(path, bytes);
  const ReadResult result = read_journal(path);
  EXPECT_TRUE(result.torn);
  EXPECT_LT(result.records.size(), 4u);
  // Every surviving record is intact and in order.
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].seq, i + 1);
  }
}

TEST_F(WriterReaderTest, DumpJsonlEmitsOneLinePerRecord) {
  const std::string path = dir_.file("wal");
  {
    Writer writer(path);
    for (std::uint64_t i = 0; i < 7; ++i) {
      writer.append(make_record(i));
    }
  }
  std::ostringstream out;
  const ScanSummary result = dump_jsonl(path, out);
  EXPECT_EQ(result.record_count, 7u);
  std::size_t lines = 0;
  for (const char c : out.str()) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 7u);
}

}  // namespace
}  // namespace pa::journal
