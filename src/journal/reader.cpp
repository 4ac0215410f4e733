#include "pa/journal/reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "pa/common/error.h"
#include "pa/journal/crc32.h"

namespace pa::journal {

namespace {

enum class Frame { kDecoded, kShort, kInvalid };

/// Decodes the frame at the front of [data, data + size) into `*record`.
/// kShort: the bytes end before the frame does; `*frame_bytes` is as much
/// of its size as is known (the header alone until the header is in).
/// kInvalid: the frame can never become valid.
Frame decode_frame(const char* data, std::size_t size, std::uint64_t last_seq,
                   Record* record, std::size_t* frame_bytes) {
  *frame_bytes = kFrameHeaderBytes;
  if (size < kFrameHeaderBytes) {
    return Frame::kShort;
  }
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  std::memcpy(&length, data, sizeof(length));
  std::memcpy(&crc, data + sizeof(length), sizeof(crc));
  if (length > kMaxPayloadBytes) {
    return Frame::kInvalid;  // garbage length
  }
  *frame_bytes = kFrameHeaderBytes + length;
  if (size < *frame_bytes) {
    return Frame::kShort;  // frame runs past the bytes held (or past EOF)
  }
  const char* payload = data + kFrameHeaderBytes;
  if (crc32(payload, length) != crc) {
    return Frame::kInvalid;  // corrupt payload
  }
  try {
    *record = decode_payload(payload, length);
  } catch (const Error&) {
    return Frame::kInvalid;  // CRC collided with undecodable bytes
  }
  if (record->seq <= last_seq) {
    return Frame::kInvalid;  // sequence must strictly increase
  }
  return Frame::kDecoded;
}

/// The one scan loop. `source` exposes its unread bytes (`data`, `size`),
/// drops decoded ones (`consume`), and `fill(n)` makes at least `n` unread
/// bytes available or returns false at end of input.
template <typename Source>
void scan_frames(Source& source, const RecordVisitor& visit,
                 ScanSummary& summary) {
  std::uint64_t last_seq = 0;
  Record record;
  for (;;) {
    std::size_t frame_bytes = 0;
    const Frame frame = decode_frame(source.data(), source.size(), last_seq,
                                     &record, &frame_bytes);
    if (frame == Frame::kShort && source.fill(frame_bytes)) {
      continue;
    }
    if (frame != Frame::kDecoded) {
      return;  // the torn tail (or a clean end) starts here
    }
    last_seq = record.seq;
    source.consume(frame_bytes);
    summary.valid_bytes += frame_bytes;
    ++summary.record_count;
    visit(std::move(record));
  }
}

struct MemorySource {
  const char* bytes;
  std::size_t left;

  const char* data() const { return bytes; }
  std::size_t size() const { return left; }
  void consume(std::size_t n) {
    bytes += n;
    left -= n;
  }
  bool fill(std::size_t /*need*/) { return false; }
};

/// Reads `fd` forward from `offset` in whole kIoBufferBytes chunks, so a
/// chunk boundary falls at every kIoBufferBytes past `offset`. The buffer
/// holds one chunk plus the partial frame carried over from the last one;
/// it grows past that only while a single larger frame is read in.
class FileSource {
 public:
  FileSource(int fd, std::uint64_t offset, std::string path)
      : fd_(fd), position_(offset), path_(std::move(path)) {}

  const char* data() const { return buffer_.data() + begin_; }
  std::size_t size() const { return end_ - begin_; }
  void consume(std::size_t n) { begin_ += n; }
  std::uint64_t position() const { return position_; }

  bool fill(std::size_t need) {
    if (eof_) {
      return false;
    }
    if (begin_ > 0) {
      std::memmove(buffer_.data(), data(), size());  // carry the partial frame
      end_ = size();
      begin_ = 0;
    }
    while (end_ < need && !eof_) {
      if (buffer_.size() < end_ + kIoBufferBytes) {
        buffer_.resize(end_ + kIoBufferBytes);
      }
      const std::size_t got = read_chunk(buffer_.data() + end_);
      end_ += got;
      eof_ = got < kIoBufferBytes;
    }
    return end_ >= need;
  }

 private:
  std::size_t read_chunk(char* out) {
    std::size_t got = 0;
    while (got < kIoBufferBytes) {
      const ssize_t n = ::pread(fd_, out + got, kIoBufferBytes - got,
                                static_cast<off_t>(position_));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0) {
        throw Error("cannot read journal " + path_ + ": " +
                    errno_message(errno));
      }
      if (n == 0) {
        break;
      }
      got += static_cast<std::size_t>(n);
      position_ += static_cast<std::uint64_t>(n);
    }
    return got;
  }

  const int fd_;
  std::uint64_t position_;  ///< file offset of the next read
  const std::string path_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
};

/// Closes the descriptor however the scan ends.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  const int fd_;
};

}  // namespace

ScanSummary scan_file(const std::string& path, const RecordVisitor& visit,
                      std::uint64_t offset) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return {};  // no journal yet — empty, not torn
    }
    throw Error("cannot read journal " + path + ": " + errno_message(errno));
  }
  const FdCloser closer(fd);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    throw Error("cannot stat journal " + path + ": " + errno_message(errno));
  }
  ScanSummary summary;
  summary.valid_bytes = offset;
  FileSource source(fd, offset, path);
  scan_frames(source, visit, summary);
  summary.file_bytes =
      std::max(static_cast<std::uint64_t>(st.st_size), source.position());
  summary.torn = summary.valid_bytes != summary.file_bytes;
  return summary;
}

ReadResult read_journal(const std::string& path) {
  ReadResult result;
  static_cast<ScanSummary&>(result) = scan_file(
      path, [&result](Record&& r) { result.records.push_back(std::move(r)); });
  return result;
}

ReadResult scan(const char* data, std::size_t size) {
  ReadResult result;
  MemorySource source{data, size};
  scan_frames(
      source,
      [&result](Record&& r) { result.records.push_back(std::move(r)); },
      result);
  result.file_bytes = size;
  result.torn = result.valid_bytes != size;
  return result;
}

void truncate_file(const std::string& path, std::uint64_t bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(bytes)) != 0) {
    throw Error("cannot truncate " + path + " to " + std::to_string(bytes) +
                " bytes: " + errno_message(errno));
  }
}

ScanSummary dump_jsonl(const std::string& path, std::ostream& out) {
  return scan_file(path, [&out](Record&& r) { write_jsonl(out, r); });
}

}  // namespace pa::journal
