#include "pa/journal/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "pa/common/error.h"
#include "pa/journal/reader.h"

namespace pa::journal {

namespace {

Record pilot_to_record(const std::string& pilot_id, const PilotImage& pilot) {
  Record r;
  r.type = RecordType::kSnapshotPilot;
  r.entity = pilot_id;
  r.fields["state"] = core::to_string(pilot.state);
  r.fields["resource_url"] = pilot.resource_url;
  r.fields["nodes"] = std::to_string(pilot.nodes);
  r.fields["walltime"] = format_double(pilot.walltime);
  r.fields["priority"] = std::to_string(pilot.priority);
  r.fields["cost_per_core_hour"] = format_double(pilot.cost_per_core_hour);
  r.fields["attributes"] = pilot.attributes;
  r.fields["site"] = pilot.site;
  r.fields["cores"] = std::to_string(pilot.total_cores);
  r.fields["restarts_used"] = std::to_string(pilot.restarts_used);
  return r;
}

PilotImage pilot_from_record(const Record& r) {
  PilotImage p;
  p.state = parse_pilot_state(r.fields.at("state"));
  p.resource_url = r.fields.at("resource_url");
  p.nodes = parse_int(r.fields.at("nodes"), "nodes");
  p.walltime = parse_double(r.fields.at("walltime"), "walltime");
  p.priority = parse_int(r.fields.at("priority"), "priority");
  p.cost_per_core_hour =
      parse_double(r.fields.at("cost_per_core_hour"), "cost_per_core_hour");
  p.attributes = r.fields.at("attributes");
  p.site = r.fields.at("site");
  p.total_cores = parse_int(r.fields.at("cores"), "cores");
  p.restarts_used = parse_int(r.fields.at("restarts_used"), "restarts_used");
  return p;
}

Record unit_to_record(const std::string& unit_id, const UnitImage& unit) {
  Record r;
  r.type = RecordType::kSnapshotUnit;
  r.entity = unit_id;
  r.fields["state"] = core::to_string(unit.state);
  r.fields["name"] = unit.name;
  r.fields["cores"] = std::to_string(unit.cores);
  r.fields["duration"] = format_double(unit.duration);
  r.fields["attributes"] = unit.attributes;
  r.fields["pilot"] = unit.pilot_id;
  r.fields["attempts"] = std::to_string(unit.attempts);
  r.fields["terminal_count"] = std::to_string(unit.terminal_count);
  for (std::size_t i = 0; i < unit.input_data.size(); ++i) {
    r.fields["input." + std::to_string(i)] = unit.input_data[i];
  }
  for (std::size_t i = 0; i < unit.output_data.size(); ++i) {
    r.fields["output." + std::to_string(i)] = unit.output_data[i];
  }
  return r;
}

UnitImage unit_from_record(const Record& r) {
  UnitImage u;
  u.state = parse_unit_state(r.fields.at("state"));
  u.name = r.fields.at("name");
  u.cores = parse_int(r.fields.at("cores"), "cores");
  u.duration = parse_double(r.fields.at("duration"), "duration");
  u.attributes = r.fields.at("attributes");
  u.pilot_id = r.fields.at("pilot");
  u.attempts = parse_int(r.fields.at("attempts"), "attempts");
  u.terminal_count =
      parse_int(r.fields.at("terminal_count"), "terminal_count");
  for (std::size_t i = 0;; ++i) {
    const auto it = r.fields.find("input." + std::to_string(i));
    if (it == r.fields.end()) {
      break;
    }
    u.input_data.push_back(it->second);
  }
  for (std::size_t i = 0;; ++i) {
    const auto it = r.fields.find("output." + std::to_string(i));
    if (it == r.fields.end()) {
      break;
    }
    u.output_data.push_back(it->second);
  }
  return u;
}

Record placement_to_record(const std::string& site,
                           const std::set<std::string>& dus) {
  Record r;
  r.type = RecordType::kDataPlacement;
  r.entity = site;
  std::size_t i = 0;
  for (const auto& du : dus) {
    r.fields["du." + std::to_string(i++)] = du;
  }
  return r;
}

void write_all(int fd, const std::string& bytes, const std::string& tmp) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      throw Error("snapshot write failed on " + tmp + ": " +
                  errno_message(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace

void Snapshot::write(const std::string& path, const ManagerImage& image) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw Error("cannot write snapshot " + tmp + ": " + errno_message(errno));
  }
  try {
    // Frames go out through one buffer of about kIoBufferBytes, so the
    // writer holds the image plus that buffer, never the whole file.
    std::string bytes;
    std::uint64_t seq = 0;  // snapshot-file-local sequence (scanner invariant)
    const auto emit = [&](Record&& r) {
      r.seq = ++seq;
      append_frame(bytes, r);
      if (bytes.size() >= kIoBufferBytes) {
        write_all(fd, bytes, tmp);
        bytes.clear();
      }
    };

    Record header;
    header.type = RecordType::kSnapshotHeader;
    header.fields["last_seq"] = std::to_string(image.last_seq());
    header.fields["pilots"] = std::to_string(image.pilots().size());
    header.fields["units"] = std::to_string(image.units().size());
    header.fields["placements"] = std::to_string(image.placements().size());
    emit(std::move(header));
    for (const auto& [pilot_id, pilot] : image.pilots()) {
      emit(pilot_to_record(pilot_id, pilot));
    }
    for (const auto& [unit_id, unit] : image.units()) {
      emit(unit_to_record(unit_id, unit));
    }
    for (const auto& [site, dus] : image.placements()) {
      emit(placement_to_record(site, dus));
    }
    write_all(fd, bytes, tmp);
    if (::fsync(fd) != 0) {
      throw Error("snapshot fsync failed on " + tmp);
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw Error("cannot publish snapshot " + path + ": " +
                errno_message(errno));
  }
}

bool Snapshot::load(const std::string& path, ManagerImage* out) {
  // Stream the frames into a local image and publish it only once the
  // whole file has proven complete: torn, empty or foreign files are
  // rejected whole (unlike the wal, a snapshot's prefix is not a usable
  // state).
  ManagerImage image;
  bool have_header = false;
  bool rejected = false;
  std::size_t pilots = 0;
  std::size_t units = 0;
  const ScanSummary scan = scan_file(path, [&](Record&& r) {
    if (rejected) {
      return;
    }
    try {
      if (!have_header) {
        if (r.type != RecordType::kSnapshotHeader) {
          rejected = true;
          return;
        }
        pilots = static_cast<std::size_t>(
            parse_int(r.fields.at("pilots"), "pilots"));
        units = static_cast<std::size_t>(
            parse_int(r.fields.at("units"), "units"));
        image.last_seq_ =
            static_cast<std::uint64_t>(std::stoull(r.fields.at("last_seq")));
        have_header = true;
        return;
      }
      switch (r.type) {
        case RecordType::kSnapshotPilot:
          image.pilots_.emplace(r.entity, pilot_from_record(r));
          break;
        case RecordType::kSnapshotUnit:
          image.units_.emplace(r.entity, unit_from_record(r));
          break;
        case RecordType::kDataPlacement: {
          auto& dus = image.placements_[r.entity];
          for (const auto& [key, value] : r.fields) {
            dus.insert(value);
          }
          break;
        }
        default:
          rejected = true;  // foreign record type inside a snapshot
      }
    } catch (const std::exception&) {
      rejected = true;
    }
  });
  if (rejected || scan.torn || !have_header ||
      image.pilots_.size() != pilots || image.units_.size() != units) {
    return false;  // a count mismatch is an incomplete write that parsed
  }
  *out = std::move(image);
  return true;
}

}  // namespace pa::journal
