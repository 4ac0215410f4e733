#include "pa/journal/service_journal.h"

#include <vector>

#include "pa/journal/replayer.h"

namespace pa::journal {

namespace {

/// Adds `<prefix><i>` = `values[i]` fields in the byte order of their
/// keys ("input.0", "input.1", "input.10", ..., "input.2", ...).
void indexed_fields(PayloadBuilder& payload, const char* prefix,
                    const std::vector<std::string>& values) {
  const std::size_t n = values.size();
  if (n == 0) {
    return;
  }
  const auto add = [&](std::size_t i) {
    payload.field(prefix + std::to_string(i), values[i]);
  };
  // "0" sorts first and has no longer siblings; 1..n-1 follow in a
  // preorder walk of the decimal digit tree: 1, 10, 100, ..., 11, ..., 2.
  add(0);
  std::size_t i = 1;
  for (std::size_t emitted = 1; emitted < n; ++emitted) {
    add(i);
    if (i * 10 < n) {
      i *= 10;
      continue;
    }
    if (i + 1 >= n) {
      i /= 10;
    }
    ++i;
    while (i % 10 == 0) {
      i /= 10;
    }
  }
}

}  // namespace

PayloadBuilder ServiceJournal::begin(RecordType type,
                                     const std::string& entity, double time) {
  payload_.clear();
  return PayloadBuilder(payload_, type, /*seq=*/0, time, entity);
}

void ServiceJournal::commit(PayloadBuilder& payload) {
  payload.finish();
  journal_.append_payload(payload_);
}

void ServiceJournal::pilot_submitted(const std::string& pilot_id,
                                     const core::PilotDescription& description,
                                     int restarts_used, double time) {
  PayloadBuilder p = begin(RecordType::kPilotSubmit, pilot_id, time);
  if (!description.attributes.empty()) {
    p.field("attributes", description.attributes.to_string());
  }
  p.field("cost_per_core_hour", format_double(description.cost_per_core_hour))
      .field("nodes", std::to_string(description.nodes))
      .field("priority", std::to_string(description.priority))
      .field("resource_url", description.resource_url)
      .field("restarts_used", std::to_string(restarts_used))
      .field("walltime", format_double(description.walltime));
  commit(p);
}

void ServiceJournal::pilot_state(const std::string& pilot_id,
                                 core::PilotState to, int total_cores,
                                 const std::string& site, double time) {
  PayloadBuilder p = begin(RecordType::kPilotState, pilot_id, time);
  if (to == core::PilotState::kActive) {
    p.field("cores", std::to_string(total_cores)).field("site", site);
  }
  p.field("state", core::to_string(to));
  commit(p);
}

void ServiceJournal::unit_submitted(
    const std::string& unit_id,
    const core::ComputeUnitDescription& description, double time) {
  PayloadBuilder p = begin(RecordType::kUnitSubmit, unit_id, time);
  if (!description.attributes.empty()) {
    p.field("attributes", description.attributes.to_string());
  }
  p.field("cores", std::to_string(description.cores))
      .field("duration", format_double(description.duration));
  indexed_fields(p, "input.", description.input_data);
  if (!description.name.empty()) {
    p.field("name", description.name);
  }
  indexed_fields(p, "output.", description.output_data);
  commit(p);
}

void ServiceJournal::unit_bound(const std::string& unit_id,
                                const std::string& pilot_id, double time) {
  PayloadBuilder p = begin(RecordType::kUnitBind, unit_id, time);
  p.field("pilot", pilot_id);
  commit(p);
}

void ServiceJournal::unit_state(const std::string& unit_id,
                                core::UnitState to, double time) {
  PayloadBuilder p = begin(RecordType::kUnitState, unit_id, time);
  p.field("state", core::to_string(to));
  commit(p);
}

void ServiceJournal::unit_requeued(const std::string& unit_id, double time) {
  PayloadBuilder p = begin(RecordType::kUnitRequeue, unit_id, time);
  commit(p);
}

void ServiceJournal::data_placed(const std::string& data_unit,
                                 const std::string& site, double time) {
  PayloadBuilder p = begin(RecordType::kDataPlacement, data_unit, time);
  p.field("site", site);
  commit(p);
}

}  // namespace pa::journal
