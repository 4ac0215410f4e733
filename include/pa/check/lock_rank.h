#pragma once
/// \file lock_rank.h
/// \brief Static lock ranks: the repo-wide lock hierarchy.
///
/// Every `pa::check::Mutex` carries one of these ranks. Debug builds (and
/// any build with PA_LOCK_RANK_CHECKS=1) maintain a per-thread stack of
/// held ranks; acquiring a mutex whose rank is not strictly greater than
/// the top of the stack aborts with both the held stack and the attempted
/// acquisition printed. This turns *potential* deadlocks (an AB/BA order
/// inversion that never fires in a given run) into deterministic test
/// failures.
///
/// Rule: locks must be acquired in strictly increasing rank order. The
/// outermost lock of the system therefore has the lowest rank, leaf locks
/// (held around a few statements, never while calling out) the highest.
/// The hierarchy table itself lives in DESIGN.md ("Lock hierarchy"),
/// generated from these ranks and the declared mutexes by
/// `python3 tools/pa_analyze --fix-lock-table` and verified by CI, so
/// this header never repeats it. pa_analyze's lock-order pass also checks
/// every lexically visible acquisition edge against these ranks before
/// the code ever runs.
///
/// Peer locks that share a rank (broker partitions, store shards) are
/// never held simultaneously by one thread — the validator enforces this
/// too, because acquiring an equal rank is also an ordering violation.

namespace pa::check {

enum class LockRank : int {
  kTenantRegistry = 8,
  kShardRouter = 9,
  kService = 10,
  kStoreDirectory = 11,
  kCtrlQueue = 12,
  kNetFlusher = 13,
  kNetRuntime = 14,
  kNetTransport = 15,
  kNetConnection = 16,
  kStoreAgent = 17,
  kNetPayload = 18,
  kStoreTransfer = 19,
  kRuntime = 20,
  kNetPeer = 21,
  kRuntimePilot = 22,
  kStreamCoordinator = 25,
  kBrokerTopics = 30,
  kBrokerPartition = 32,
  kBrokerStats = 34,
  kStoreShard = 40,
  kStoreChunkMap = 42,
  kJournal = 45,
  kJournalWriter = 50,
  kThreadPool = 60,
  kTracer = 70,
  kMetricsRegistry = 72,
  kMetricsHistogram = 75,
  kLog = 90,
  kLeaf = 95,
};

constexpr int rank_value(LockRank rank) { return static_cast<int>(rank); }

}  // namespace pa::check
