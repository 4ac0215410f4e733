#include "pa/stream/consumer.h"

#include <algorithm>

namespace pa::stream {

void GroupCoordinator::rebalance(const std::string& topic, Group& group) {
  group.generation += 1;
  group.assignments.clear();
  if (group.members.empty()) {
    return;
  }
  const int nparts = broker_.partition_count(topic);
  std::vector<std::string> members(group.members.begin(), group.members.end());
  // Range assignment: contiguous partition blocks, remainder to the first
  // members — identical partitions for identical membership, regardless of
  // join order.
  const int base = nparts / static_cast<int>(members.size());
  const int extra = nparts % static_cast<int>(members.size());
  int next = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const int take = base + (static_cast<int>(m) < extra ? 1 : 0);
    std::vector<int> parts;
    parts.reserve(static_cast<std::size_t>(take));
    for (int i = 0; i < take; ++i) {
      parts.push_back(next++);
    }
    group.assignments[members[m]] = std::move(parts);
  }
}

void GroupCoordinator::join(const std::string& topic, const std::string& group,
                            const std::string& member_id) {
  check::MutexLock lock(mutex_);
  Group& g = groups_[{topic, group}];
  PA_REQUIRE_ARG(g.members.insert(member_id).second,
                 "member already in group: " << member_id);
  rebalance(topic, g);
}

void GroupCoordinator::leave(const std::string& topic,
                             const std::string& group,
                             const std::string& member_id) {
  check::MutexLock lock(mutex_);
  const auto it = groups_.find({topic, group});
  if (it == groups_.end()) {
    return;
  }
  if (it->second.members.erase(member_id) > 0) {
    rebalance(topic, it->second);
  }
}

const GroupCoordinator::Group* GroupCoordinator::find_group(
    const std::string& topic, const std::string& group) const {
  const auto it = groups_.find({topic, group});
  return it == groups_.end() ? nullptr : &it->second;
}

std::uint64_t GroupCoordinator::generation(const std::string& topic,
                                           const std::string& group) const {
  check::MutexLock lock(mutex_);
  const Group* g = find_group(topic, group);
  return g == nullptr ? 0 : g->generation;
}

std::vector<int> GroupCoordinator::assignment(
    const std::string& topic, const std::string& group,
    const std::string& member_id) const {
  check::MutexLock lock(mutex_);
  const Group* g = find_group(topic, group);
  if (g == nullptr) {
    return {};
  }
  const auto it = g->assignments.find(member_id);
  return it == g->assignments.end() ? std::vector<int>{} : it->second;
}

GroupCoordinator::MemberView GroupCoordinator::member_view(
    const std::string& topic, const std::string& group,
    const std::string& member_id) const {
  check::MutexLock lock(mutex_);
  MemberView view;
  const Group* g = find_group(topic, group);
  if (g == nullptr) {
    return view;
  }
  view.generation = g->generation;
  const auto it = g->assignments.find(member_id);
  if (it != g->assignments.end()) {
    view.partitions = it->second;
  }
  for (int p : view.partitions) {
    const auto c = g->committed.find(p);
    view.committed[p] = c == g->committed.end() ? 0 : c->second;
  }
  return view;
}

std::uint64_t GroupCoordinator::committed(const std::string& topic,
                                          const std::string& group,
                                          int partition) const {
  check::MutexLock lock(mutex_);
  const Group* g = find_group(topic, group);
  if (g == nullptr) {
    return 0;
  }
  const auto it = g->committed.find(partition);
  return it == g->committed.end() ? 0 : it->second;
}

void GroupCoordinator::commit(const std::string& topic,
                              const std::string& group, int partition,
                              std::uint64_t offset) {
  check::MutexLock lock(mutex_);
  Group& g = groups_[{topic, group}];
  std::uint64_t& cur = g.committed[partition];
  cur = std::max(cur, offset);
}

bool GroupCoordinator::commit_in_generation(
    const std::string& topic, const std::string& group,
    std::uint64_t generation, const std::map<int, std::uint64_t>& offsets) {
  check::MutexLock lock(mutex_);
  Group& g = groups_[{topic, group}];
  if (g.generation != generation) {
    return false;
  }
  for (const auto& [p, offset] : offsets) {
    std::uint64_t& cur = g.committed[p];
    cur = std::max(cur, offset);
  }
  return true;
}

std::uint64_t GroupCoordinator::lag(const std::string& topic,
                                    const std::string& group) const {
  const int nparts = broker_.partition_count(topic);
  std::uint64_t total = 0;
  for (int p = 0; p < nparts; ++p) {
    const std::uint64_t end = broker_.end_offset(topic, p);
    const std::uint64_t done = committed(topic, group, p);
    total += end > done ? end - done : 0;
  }
  return total;
}

Consumer::Consumer(Broker& broker, GroupCoordinator& coordinator,
                   std::string topic, std::string group,
                   std::string member_id)
    : broker_(broker),
      coordinator_(coordinator),
      topic_(std::move(topic)),
      group_(std::move(group)),
      member_id_(std::move(member_id)) {
  coordinator_.join(topic_, group_, member_id_);
}

Consumer::~Consumer() {
  try {
    coordinator_.leave(topic_, group_, member_id_);
  } catch (...) {
    // Destructor must not throw.
  }
}

void Consumer::refresh_assignment() {
  // One coherent snapshot: generation, partitions, and committed offsets
  // all come from the same coordinator lock acquisition, so a rebalance
  // landing mid-refresh can never pair one generation's number with
  // another generation's assignment.
  const GroupCoordinator::MemberView view =
      coordinator_.member_view(topic_, group_, member_id_);
  if (view.generation == generation_) {
    return;
  }
  generation_ = view.generation;
  assigned_ = view.partitions;
  positions_.clear();
  for (int p : assigned_) {
    // Resume from the group's committed offset, clamped to retention.
    positions_[p] = std::max(view.committed.at(p),
                             broker_.begin_offset(topic_, p));
  }
  rr_index_ = 0;
}

std::vector<Message> Consumer::poll(std::size_t max_messages) {
  refresh_assignment();
  std::vector<Message> out;
  if (assigned_.empty() || max_messages == 0) {
    return out;
  }
  out.reserve(max_messages);
  // Round-robin over assigned partitions for fairness.
  for (std::size_t tried = 0;
       tried < assigned_.size() && out.size() < max_messages; ++tried) {
    const int p = assigned_[rr_index_ % assigned_.size()];
    ++rr_index_;
    std::uint64_t& pos = positions_[p];
    pos = broker_.fetch(topic_, p, pos, max_messages - out.size(), out);
  }
  consumed_ += out.size();
  return out;
}

bool Consumer::commit() {
  if (positions_.empty()) {
    return true;  // nothing polled yet
  }
  return coordinator_.commit_in_generation(topic_, group_, generation_,
                                           positions_);
}

}  // namespace pa::stream
