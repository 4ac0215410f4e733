#pragma once
/// \file reader.h
/// \brief Journal scan: parses the valid record prefix and locates the
/// torn tail a crashed writer may have left.
///
/// A frame is valid when its declared length fits in the remaining bytes,
/// its CRC matches, its payload decodes, and its sequence number strictly
/// increases. The first invalid frame ends the valid prefix; everything
/// from there on is the torn tail (a partial write, or garbage from a
/// block-device crash) and is reported — not silently skipped — so the
/// recovery coordinator can physically truncate it before new appends.
///
/// Memory: `scan_file` decodes one frame at a time from a read buffer of
/// `kIoBufferBytes` (grown only to hold a single larger frame) and hands
/// each record to the visitor before decoding the next. A reader that
/// folds records into a `ManagerImage` therefore holds one frame plus the
/// image, never the whole file. `read_journal` and `scan` collect every
/// record into a vector; they are for tests and tools.

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "pa/journal/record.h"

namespace pa::journal {

/// Bytes a journal file read (and a snapshot write) moves per system call.
inline constexpr std::size_t kIoBufferBytes = 1U << 20;

/// What one scan found. Offsets are absolute positions in the file.
struct ScanSummary {
  std::uint64_t record_count = 0;  ///< valid records handed to the visitor
  std::uint64_t valid_bytes = 0;   ///< end of the valid prefix
  std::uint64_t file_bytes = 0;    ///< total file size
  bool torn = false;  ///< trailing bytes exist that are not a valid frame

  std::uint64_t torn_bytes() const { return file_bytes - valid_bytes; }
};

/// A scan with its records collected.
struct ReadResult : ScanSummary {
  std::vector<Record> records;  ///< the valid prefix, in journal order
};

/// Receives each valid record, in journal order, as soon as it decodes.
using RecordVisitor = std::function<void(Record&&)>;

/// Streams `path` from byte `offset` (a frame boundary) to the end of its
/// valid prefix, calling `visit` once per record. An exception from
/// `visit` ends the scan and propagates. A missing file yields an empty,
/// un-torn summary (a new journal); an unreadable file throws pa::Error.
ScanSummary scan_file(const std::string& path, const RecordVisitor& visit,
                      std::uint64_t offset = 0);

/// `scan_file` from the start, collecting every record.
ReadResult read_journal(const std::string& path);

/// Same scan over an in-memory buffer (tests, torn-tail analysis).
ReadResult scan(const char* data, std::size_t size);

/// Truncates `path` to `bytes` (drops a torn tail). Throws pa::Error when
/// the file cannot be opened or truncated.
void truncate_file(const std::string& path, std::uint64_t bytes);

/// Streams every valid record of `path` as JSON lines to `out` (the
/// `.jsonl` debug form); returns the scan summary.
ScanSummary dump_jsonl(const std::string& path, std::ostream& out);

}  // namespace pa::journal
