#pragma once
/// \file shard_router.h
/// \brief Maps pilots and units to control-plane shards.
///
/// Routing is computable on the hot path: ids are sequential
/// ("pilot-7", "unit-123"), so the default shard is the trailing ordinal
/// modulo the shard count — round-robin placement with no shared state.
/// An id without a trailing ordinal routes to shard 0 (no service mints
/// one; reads scan every shard anyway).
///
/// The router also keeps the *owner table*: the few entities that live
/// away from their default shard. Pilots never change shard, but a
/// restart mints a fresh id on the failed pilot's shard; units change
/// shard only by a PENDING hand-over (service_shard.h). The table is a
/// small map under `kShardRouter`, consulted by the facade's routed
/// writes. Each entry carries a version (a unit's hand-over count), so
/// pins that land out of order still name the latest owner.

#include <string>
#include <unordered_map>

#include "pa/check/mutex.h"
#include "pa/check/thread_safety.h"

namespace pa::core {

class ShardRouter {
 public:
  explicit ShardRouter(int shards);

  int shards() const { return shards_; }

  /// Shard an id routes to: its owner-table entry if one exists, else
  /// the computable default.
  int shard_for_id(const std::string& id) const;

  /// Computable default: trailing "-N" ordinal % shards (0 without one).
  int default_shard(const std::string& id) const;

  /// Records `shard` as the owner of `id`, unless the table already
  /// holds a newer `version` for it.
  void pin(const std::string& id, int shard, int version = 0);

  /// Drops the owner-table entry for `id` (entity reached a final state).
  void forget(const std::string& id);

 private:
  static int trailing_ordinal(const std::string& id);

  struct Owner {
    int shard = 0;
    int version = 0;
  };

  const int shards_;
  mutable check::Mutex mutex_{check::LockRank::kShardRouter,
                              "core::ShardRouter"};
  std::unordered_map<std::string, Owner> owners_ PA_GUARDED_BY(mutex_);
};

}  // namespace pa::core
