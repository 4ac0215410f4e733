#pragma once
/// \file consumer.h
/// \brief Consumer groups over the broker: coordinated partition
/// assignment and committed offsets.
///
/// Mirrors the Kafka consumer-group protocol at the level the streaming
/// experiments need: members of a group split a topic's partitions
/// (range assignment), each partition belongs to exactly one member per
/// generation, and committed offsets survive rebalances — so every message
/// is delivered to the group at least once and per-partition order holds.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/stream/broker.h"

namespace pa::stream {

/// Tracks group membership, assignments, and committed offsets.
class GroupCoordinator {
 public:
  /// One member's coherent view of its group, taken under a single lock:
  /// the generation, the partitions assigned to the member in that
  /// generation, and the committed offset of each assigned partition.
  struct MemberView {
    std::uint64_t generation = 0;
    std::vector<int> partitions;
    std::map<int, std::uint64_t> committed;  ///< keyed by partition
  };

  explicit GroupCoordinator(Broker& broker) : broker_(broker) {}

  /// Adds a member; triggers a rebalance (generation bump).
  void join(const std::string& topic, const std::string& group,
            const std::string& member_id) PA_EXCLUDES(mutex_);
  /// Removes a member; triggers a rebalance.
  void leave(const std::string& topic, const std::string& group,
             const std::string& member_id) PA_EXCLUDES(mutex_);

  /// Current generation of the group (changes on every rebalance).
  std::uint64_t generation(const std::string& topic,
                           const std::string& group) const
      PA_EXCLUDES(mutex_);

  /// Partitions assigned to `member_id` in the current generation.
  std::vector<int> assignment(const std::string& topic,
                              const std::string& group,
                              const std::string& member_id) const
      PA_EXCLUDES(mutex_);

  /// Atomic generation + assignment + committed-offsets snapshot for one
  /// member. Consumers must use this (not generation()/assignment()
  /// separately) when refreshing: reading the pieces under different lock
  /// acquisitions can pair generation N with the assignment of N+1 when a
  /// rebalance lands between the calls.
  MemberView member_view(const std::string& topic, const std::string& group,
                         const std::string& member_id) const
      PA_EXCLUDES(mutex_);

  /// Committed offset for a partition (0 if never committed).
  std::uint64_t committed(const std::string& topic, const std::string& group,
                          int partition) const PA_EXCLUDES(mutex_);
  void commit(const std::string& topic, const std::string& group,
              int partition, std::uint64_t offset) PA_EXCLUDES(mutex_);
  /// Fenced commit: commits every (partition, offset) only while
  /// `generation` is still the group's current one, all under one lock.
  /// Returns false — nothing committed — when a rebalance moved the
  /// generation, so a member never advances partitions it may have lost.
  bool commit_in_generation(const std::string& topic,
                            const std::string& group,
                            std::uint64_t generation,
                            const std::map<int, std::uint64_t>& offsets)
      PA_EXCLUDES(mutex_);

  /// Messages remaining for the group across all partitions of the topic
  /// (end offsets minus committed offsets).
  std::uint64_t lag(const std::string& topic, const std::string& group) const
      PA_EXCLUDES(mutex_);

 private:
  struct Group {
    std::uint64_t generation = 0;
    std::set<std::string> members;
    std::map<std::string, std::vector<int>> assignments;
    std::map<int, std::uint64_t> committed;
  };

  using GroupKey = std::pair<std::string, std::string>;

  /// Recomputes assignments; calls the broker (kBrokerTopics nests below
  /// kStreamCoordinator) for the partition count.
  void rebalance(const std::string& topic, Group& group)
      PA_REQUIRES(mutex_);
  const Group* find_group(const std::string& topic,
                          const std::string& group) const PA_REQUIRES(mutex_);

  Broker& broker_;
  mutable check::Mutex mutex_{check::LockRank::kStreamCoordinator,
                              "stream::GroupCoordinator"};
  std::map<GroupKey, Group> groups_ PA_GUARDED_BY(mutex_);
};

/// A group member pulling messages from its assigned partitions.
/// Not thread-safe itself (one consumer = one logical thread), but safe to
/// run many consumers concurrently.
class Consumer {
 public:
  Consumer(Broker& broker, GroupCoordinator& coordinator, std::string topic,
           std::string group, std::string member_id);
  ~Consumer();
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Fetches up to `max_messages` from assigned partitions (round-robin
  /// across them). Refreshes the assignment when the generation moved.
  std::vector<Message> poll(std::size_t max_messages);

  /// Commits everything returned by previous polls. Returns false and
  /// commits nothing when a rebalance happened since the last poll: the
  /// next poll resumes from the committed offsets, so those messages go
  /// to each partition's current owner again (at-least-once delivery,
  /// but a batch is committed — and counted — by one member only).
  bool commit();

  const std::vector<int>& assigned_partitions() const { return assigned_; }
  std::uint64_t messages_consumed() const { return consumed_; }

 private:
  void refresh_assignment();

  Broker& broker_;
  GroupCoordinator& coordinator_;
  std::string topic_;
  std::string group_;
  std::string member_id_;
  std::uint64_t generation_ = static_cast<std::uint64_t>(-1);
  std::vector<int> assigned_;
  std::map<int, std::uint64_t> positions_;  ///< next fetch offset
  std::size_t rr_index_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace pa::stream
