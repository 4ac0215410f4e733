#pragma once
/// \file sharded_recovery.h
/// \brief Crash recovery across the per-shard journal streams of a
/// sharded PilotComputeService.
///
/// A service built with `Options::shards = N` journals through N
/// independent sinks (attach_journal_shards), one directory per shard:
/// `<base>/wal.<k>/`. Each stream is an ordinary journal (snapshot + wal,
/// torn-tail repair) and recovers with the ordinary
/// `RecoveryCoordinator`; this layer discovers the streams, recovers each
/// one, and *merges* the images into a single `ResumePlan`.
///
/// Merge semantics (a pilot moved between shards mid-run appears in more
/// than one stream — the source's records simply stop at the departure
/// and the target re-journals an adoption chain):
///
///  * terminal-wins: an entity with a terminal record in ANY stream is
///    finished; completed units are never re-run (exactly-once);
///  * otherwise latest-attempt-wins: the stream that journaled the most
///    attempts/restarts for the entity holds its freshest description;
///    each live entity is resubmitted exactly once;
///  * id ordinals advance past the maximum seen in ANY stream.

#include <string>
#include <vector>

#include "pa/journal/recovery.h"
#include "pa/obs/metrics.h"

namespace pa::journal {

/// `<base>/wal.<shard>` — the directory layout attach_journal_shards
/// users create one `Journal` per shard in.
std::string shard_journal_dir(const std::string& base, int shard);

/// Counts consecutive existing `wal.<k>` directories from k = 0. Returns
/// 0 when `<base>/wal.0` does not exist.
int discover_shard_count(const std::string& base);

struct ShardedRecoveryResult {
  /// Per-shard outcomes, indexed by shard.
  std::vector<RecoveryResult> shards;
  /// The merged work-list; feed to pa::journal::resume() as usual.
  ResumePlan plan;
};

/// Recovers every shard stream under `base` and merges the images.
/// `shard_count` < 0 discovers the count from the directory layout; an
/// empty base (no streams) yields an empty result. The target service
/// must be built with at least one shard, but the count need not match —
/// resume() re-routes by fresh ids anyway.
ShardedRecoveryResult recover_sharded(const std::string& base,
                                      int shard_count = -1,
                                      RecoveryOptions options = {},
                                      obs::MetricsRegistry* metrics = nullptr);

/// The image-merge step alone (exposed for tests): folds `images` (in
/// stream order, none null) into one ResumePlan with the terminal-wins /
/// latest-attempt-wins rules. The plan copies descriptions out, so the
/// images need only outlive the call.
ResumePlan merge_resume_plans(const std::vector<const ManagerImage*>& images);

}  // namespace pa::journal
