#include "pa/journal/service_journal.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "pa/journal/journal.h"
#include "pa/journal/record.h"
#include "pa/journal/replayer.h"

#include "journal_test_util.h"

namespace pa::journal {
namespace {

using testing::TempDir;

/// The byte-identity oracle: each hook builds the `Record` (with its field
/// map) that a map-based adapter writes, exactly as `ServiceJournal` did
/// before its hooks encoded straight into payload bytes.
class RecordBuildingSink final : public core::JournalSink {
 public:
  std::vector<Record> records;

  void pilot_submitted(const std::string& pilot_id,
                       const core::PilotDescription& description,
                       int restarts_used, double time) override {
    Record& r = add(RecordType::kPilotSubmit, pilot_id, time);
    r.fields["resource_url"] = description.resource_url;
    r.fields["nodes"] = std::to_string(description.nodes);
    r.fields["walltime"] = format_double(description.walltime);
    r.fields["priority"] = std::to_string(description.priority);
    r.fields["cost_per_core_hour"] =
        format_double(description.cost_per_core_hour);
    r.fields["restarts_used"] = std::to_string(restarts_used);
    const std::string attrs = description.attributes.to_string();
    if (!attrs.empty()) {
      r.fields["attributes"] = attrs;
    }
  }
  void pilot_state(const std::string& pilot_id, core::PilotState to,
                   int total_cores, const std::string& site,
                   double time) override {
    Record& r = add(RecordType::kPilotState, pilot_id, time);
    r.fields["state"] = core::to_string(to);
    if (to == core::PilotState::kActive) {
      r.fields["cores"] = std::to_string(total_cores);
      r.fields["site"] = site;
    }
  }
  void unit_submitted(const std::string& unit_id,
                      const core::ComputeUnitDescription& description,
                      double time) override {
    Record& r = add(RecordType::kUnitSubmit, unit_id, time);
    if (!description.name.empty()) {
      r.fields["name"] = description.name;
    }
    r.fields["cores"] = std::to_string(description.cores);
    r.fields["duration"] = format_double(description.duration);
    const std::string attrs = description.attributes.to_string();
    if (!attrs.empty()) {
      r.fields["attributes"] = attrs;
    }
    for (std::size_t i = 0; i < description.input_data.size(); ++i) {
      r.fields["input." + std::to_string(i)] = description.input_data[i];
    }
    for (std::size_t i = 0; i < description.output_data.size(); ++i) {
      r.fields["output." + std::to_string(i)] = description.output_data[i];
    }
  }
  void unit_bound(const std::string& unit_id, const std::string& pilot_id,
                  double time) override {
    add(RecordType::kUnitBind, unit_id, time).fields["pilot"] = pilot_id;
  }
  void unit_state(const std::string& unit_id, core::UnitState to,
                  double time) override {
    add(RecordType::kUnitState, unit_id, time).fields["state"] =
        core::to_string(to);
  }
  void unit_requeued(const std::string& unit_id, double time) override {
    add(RecordType::kUnitRequeue, unit_id, time);
  }
  void data_placed(const std::string& data_unit, const std::string& site,
                   double time) override {
    add(RecordType::kDataPlacement, data_unit, time).fields["site"] = site;
  }

 private:
  Record& add(RecordType type, const std::string& entity, double time) {
    Record& r = records.emplace_back();
    r.type = type;
    r.entity = entity;
    r.time = time;
    return r;
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<std::string> names(const std::string& prefix, std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(prefix + std::to_string(i));
  }
  return out;
}

class ServiceJournalBytesTest : public ::testing::Test {
 protected:
  using Hook = std::function<void(core::JournalSink&)>;

  /// Fires `hook` at the real sink (into the wal) and at the oracle.
  void emit(const Hook& hook) {
    hook(sink_);
    hook(oracle_);
  }

  /// Every wal frame must equal `append_frame` of the oracle's record
  /// stamped with the seq the writer gave it (1, 2, ...).
  void expect_identical_frames() {
    journal_.flush();
    const std::string wal = slurp(Journal::wal_path(dir_.path()));
    std::size_t offset = 0;
    for (std::size_t i = 0; i < oracle_.records.size(); ++i) {
      Record r = oracle_.records[i];
      r.seq = i + 1;
      std::string frame;
      append_frame(frame, r);
      ASSERT_LE(offset + frame.size(), wal.size())
          << "record " << i << " (" << to_string(r.type) << ") missing";
      EXPECT_EQ(wal.compare(offset, frame.size(), frame), 0)
          << "record " << i << " (" << to_string(r.type) << ", "
          << r.entity << ") differs from the map-built frame";
      offset += frame.size();
    }
    EXPECT_EQ(offset, wal.size()) << "wal holds more frames than emitted";
  }

  TempDir dir_;
  Journal journal_{dir_.path()};
  ServiceJournal sink_{journal_};
  RecordBuildingSink oracle_;
};

TEST_F(ServiceJournalBytesTest, EveryHookWritesTheMapBuiltFrame) {
  core::PilotDescription pilot;
  pilot.resource_url = "slurm://hpc-a";
  pilot.nodes = 4;
  pilot.walltime = 7200.5;
  pilot.priority = -3;
  pilot.cost_per_core_hour = 0.1;  // "%.17g" renders 0.10000000000000001
  pilot.attributes.set("queue", std::string("normal"));
  pilot.attributes.set("tenant", std::string("t1"));

  core::ComputeUnitDescription unit;
  unit.name = "stage-a";
  unit.cores = 2;
  unit.duration = 10.25;
  unit.input_data = names("du-in-", 12);  // "input.10" sorts before "input.2"
  unit.output_data = names("du-out-", 12);
  unit.attributes.set("preferred_site", std::string("hpc-a"));

  core::ComputeUnitDescription bare;  // no name, attributes or data

  emit([&](core::JournalSink& s) { s.pilot_submitted("p0", pilot, 1, 0.5); });
  emit([&](core::JournalSink& s) {
    s.pilot_submitted("p1", core::PilotDescription{}, 0, 0.75);
  });
  emit([](core::JournalSink& s) {
    s.pilot_state("p0", core::PilotState::kSubmitted, 0, "", 1.0);
  });
  emit([](core::JournalSink& s) {
    s.pilot_state("p0", core::PilotState::kActive, 16, "hpc-a", 2.0);
  });
  emit([&](core::JournalSink& s) { s.unit_submitted("u0", unit, 3.0); });
  emit([&](core::JournalSink& s) { s.unit_submitted("u1", bare, 3.5); });
  emit([](core::JournalSink& s) {
    s.unit_state("u0", core::UnitState::kPending, 4.0);
  });
  emit([](core::JournalSink& s) { s.unit_bound("u0", "p0", 5.0); });
  emit([](core::JournalSink& s) {
    s.unit_state("u0", core::UnitState::kScheduled, 6.0);
  });
  emit([](core::JournalSink& s) { s.unit_requeued("u0", 7.0); });
  emit([](core::JournalSink& s) { s.data_placed("du-out-3", "hpc-a", 8.0); });
  expect_identical_frames();

  // The wal replays into the descriptions that went in.
  const ManagerImage image = journal_.image();
  const UnitImage& u0 = image.units().at("u0");
  EXPECT_EQ(u0.input_data, unit.input_data);
  EXPECT_EQ(u0.output_data, unit.output_data);
  EXPECT_EQ(u0.attempts, 1);
  EXPECT_EQ(image.pilots().at("p0").attributes, pilot.attributes.to_string());
}

TEST_F(ServiceJournalBytesTest, IndexedKeysFollowMapOrderAtEveryWidth) {
  // Counts around each decimal width boundary: the emitted key order must
  // stay the byte order of "input.<i>" for one-, two- and three-digit i.
  const std::vector<std::size_t> counts = {0,  1,  2,   9,   10,  11,
                                           19, 20, 99, 100, 101, 230};
  for (const std::size_t n : counts) {
    core::ComputeUnitDescription unit;
    unit.input_data = names("in-", n);
    unit.output_data = names("out-", n / 2);
    emit([&](core::JournalSink& s) {
      s.unit_submitted("u" + std::to_string(n), unit, 1.0);
    });
  }
  expect_identical_frames();
}

}  // namespace
}  // namespace pa::journal
